"""Recursive-descent parser producing a SpecAst.

Fails atomically: either the full tree is returned or a SpecSyntaxError
is raised with position and the set of expected tokens. No partial AST.
"""

from __future__ import annotations

from decimal import Decimal

from ..values import ISO_DATE, parse_date_text
from . import ast
from .diagnostics import SpecEncodingError, SpecSyntaxError
from .lexer import KEYWORDS, Token, tokenize


def parse_spec(text: str | bytes) -> ast.SpecAst:
    """Parse specification source text into an AST."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecEncodingError(f"specification is not valid UTF-8: {exc}") from None
    if text.startswith("﻿"):
        text = text[1:]
    return _Parser(tokenize(text)).spec()


def parse_expression(text: str) -> ast.BoolExpr:
    """Parse a standalone record-rule expression (used by tooling)."""
    p = _Parser(tokenize(text))
    expr = p.expr()
    p.expect_sym_eof()
    return expr


# The generated evaluator nests two parentheses per level, and CPython
# compiles at most 200; the recursive passes over a rule stay shallow too.
MAX_NESTING = 64


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0  # 'not' and '(' around the current position

    # ------------------------------------------------------------- primitives

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, expected: list[str]):
        t = self.peek()
        raise SpecSyntaxError(t.pos, expected, t.describe())

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def at_sym(self, sym: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == sym

    def eat_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.next()
            return True
        return False

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            self.fail([f"'{word}'"])
        return self.next()

    def expect_sym(self, sym: str) -> Token:
        if not self.at_sym(sym):
            self.fail([f"'{sym}'"])
        return self.next()

    def expect_ident(self, what: str = "an identifier") -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail([what])
        return self.next()

    def expect_name(self) -> Token:
        # identifier position that also admits keywords (rule-id segments)
        t = self.peek()
        if t.kind != "ident":
            self.fail(["a name"])
        return self.next()

    def expect_string(self) -> Token:
        t = self.peek()
        if t.kind != "string":
            self.fail(["a string"])
        return self.next()

    def expect_int(self) -> Token:
        t = self.peek()
        if t.kind != "int":
            self.fail(["an integer"])
        return self.next()

    def expect_sym_eof(self):
        if self.peek().kind != "eof":
            self.fail(["end of input"])

    # ------------------------------------------------------------ spec blocks

    def spec(self) -> ast.SpecAst:
        t = self.expect_kw("spec")
        name = self.expect_ident("a specification name").text
        self.expect_sym("{")
        sources: list[ast.SourceDecl] = []
        objects: list[ast.ObjectDecl] = []
        thresholds: list[ast.ThresholdDecl] = []
        while not self.at_sym("}"):
            if self.at_kw("source"):
                sources.append(self.source_decl())
            elif self.at_kw("object"):
                objects.append(self.object_decl())
            elif self.at_kw("threshold"):
                thresholds.append(self.threshold_decl())
            else:
                self.fail(["'source'", "'object'", "'threshold'", "'}'"])
        self.expect_sym("}")
        self.expect_sym_eof()
        return ast.SpecAst(
            name=name,
            sources=tuple(sources),
            objects=tuple(objects),
            thresholds=tuple(thresholds),
            pos=t.pos,
        )

    def source_decl(self) -> ast.SourceDecl:
        t = self.expect_kw("source")
        name = self.expect_ident("a source name").text
        self.expect_sym("{")
        path = None
        delimiter = ast.DEFAULT_DELIMITER
        quote = ast.DEFAULT_QUOTE
        has_header = True
        null_tokens: list[str] | None = None
        while not self.at_sym("}"):
            if self.eat_kw("path"):
                path = self.expect_string().value
            elif self.eat_kw("delimiter"):
                delimiter = self.expect_string().value
            elif self.eat_kw("quote"):
                quote = self.expect_string().value
            elif self.eat_kw("header"):
                if self.eat_kw("true"):
                    has_header = True
                elif self.eat_kw("false"):
                    has_header = False
                else:
                    self.fail(["'true'", "'false'"])
            elif self.eat_kw("null_token"):
                if null_tokens is None:
                    null_tokens = []
                null_tokens.append(self.expect_string().value)
            else:
                self.fail(["'path'", "'delimiter'", "'quote'", "'header'", "'null_token'", "'}'"])
            self.expect_sym(";")
        self.expect_sym("}")
        if path is None:
            raise SpecSyntaxError(t.pos, [f"a 'path' declaration in source '{name}'"], "'}'")
        return ast.SourceDecl(
            name=name,
            path=path,
            delimiter=delimiter,
            quote=quote,
            has_header=has_header,
            null_tokens=ast.DEFAULT_NULL_TOKENS if null_tokens is None else tuple(null_tokens),
            pos=t.pos,
        )

    def object_decl(self) -> ast.ObjectDecl:
        t = self.expect_kw("object")
        name = self.expect_ident("an object name").text
        self.expect_kw("from")
        source = self.expect_ident("a source name").text
        self.expect_sym("{")
        fields: list[ast.FieldDecl] = []
        rules: list[ast.RecordRuleDecl] = []
        while not self.at_sym("}"):
            if self.at_kw("field"):
                fields.append(self.field_decl())
            elif self.at_kw("rule"):
                rules.append(self.rule_decl())
            else:
                self.fail(["'field'", "'rule'", "'}'"])
        self.expect_sym("}")
        return ast.ObjectDecl(name=name, source=source, fields=tuple(fields), rules=tuple(rules), pos=t.pos)

    def field_decl(self) -> ast.FieldDecl:
        t = self.expect_kw("field")
        name = self.expect_ident("a field name").text
        column: str | int | None = None
        if self.eat_kw("column"):
            tok = self.peek()
            if tok.kind == "string":
                column = self.next().value
            elif tok.kind == "int":
                column = self.next().value
            else:
                self.fail(["a column name string", "a 1-based column index"])
        ftype = self.field_type()
        constraints: list[ast.FieldConstraint] = []
        while not self.at_sym(";"):
            constraints.append(self.constraint())
        self.expect_sym(";")
        return ast.FieldDecl(name=name, ftype=ftype, column=column, constraints=tuple(constraints), pos=t.pos)

    def field_type(self) -> ast.FieldType:
        t = self.peek()
        if t.kind == "ident" and t.text in ast.PLAIN_TYPES:
            self.next()
            return ast.PLAIN_TYPES[t.text]()
        if self.eat_kw(ast.DateType.name):
            if self.eat_kw("iso"):
                return ast.DateType()
            if self.peek().kind == "string":
                return ast.DateType(fmt=self.next().value)
            return ast.DateType()
        if self.eat_kw(ast.EnumType.name):
            self.expect_sym("(")
            values = [self.expect_string().value]
            while self.at_sym(","):
                self.next()
                values.append(self.expect_string().value)
            self.expect_sym(")")
            return ast.EnumType(values=tuple(values))
        self.fail([f"'{cls.name}'" for cls in ast.FIELD_TYPES])

    def constraint(self) -> ast.FieldConstraint:
        t = self.peek()
        severity = "warning" if self.eat_kw("warn") else "error"
        for kind, con in ast.CONSTRAINTS.items():
            first, *rest = con.words.split()
            if self.eat_kw(first):
                for word in rest:
                    self.expect_kw(word)
                return ast.FieldConstraint(kind, self.argument(con.arg), severity, t.pos)
        self.fail([f"'{con.words}'" for con in ast.CONSTRAINTS.values()] + ["';'"])

    def argument(self, arg_kind: str):
        """The argument of a constraint, read as its kind says (see
        ast.ConstraintKind)."""
        if arg_kind == "string":
            return self.expect_string().value
        if arg_kind == "literal":
            return self.literal(["a number", "a string", "a date literal"])
        if arg_kind == "count":
            return self.expect_int().value
        if arg_kind == "ref":
            src = self.expect_ident("a source name").text
            self.expect_sym(".")
            return (src, self.expect_ident("a column name").text)
        return None

    def rule_decl(self) -> ast.RecordRuleDecl:
        t = self.expect_kw("rule")
        name = self.expect_ident("a rule name").text
        severity = "warning" if self.eat_kw("warn") else "error"
        self.expect_sym(":")
        expr = self.expr()
        self.expect_sym(";")
        return ast.RecordRuleDecl(name=name, expr=expr, severity=severity, pos=t.pos)

    def threshold_decl(self) -> ast.ThresholdDecl:
        t = self.expect_kw("threshold")
        name = self.expect_ident("a threshold name").text
        self.expect_sym(":")
        first = self.expect_name().text
        segments = [first]
        while self.at_sym("."):
            self.next()
            segments.append(self.expect_name().text)
        target = ".".join(segments)
        if self.at_sym("<="):
            comparator = self.next().text
        elif self.at_sym("<"):
            comparator = self.next().text
        else:
            self.fail(["'<='", "'<'"])
        tok = self.peek()
        if tok.kind == "int":
            limit = Decimal(self.next().value)
        elif tok.kind == "number":
            limit = self.next().value
        else:
            self.fail(["a percentage"])
        self.expect_sym("%")
        self.expect_sym(";")
        return ast.ThresholdDecl(name=name, target=target, comparator=comparator, limit_pct=limit, pos=t.pos)

    # ------------------------------------------------------------ expressions

    def expr(self) -> ast.BoolExpr:
        return self.or_expr()

    def or_expr(self) -> ast.BoolExpr:
        pos = self.peek().pos
        items = [self.and_expr()]
        while self.eat_kw("or"):
            items.append(self.and_expr())
        if len(items) == 1:
            return items[0]
        return ast.Or(items=tuple(items), pos=pos)

    def and_expr(self) -> ast.BoolExpr:
        pos = self.peek().pos
        items = [self.unary_expr()]
        while self.eat_kw("and"):
            items.append(self.unary_expr())
        if len(items) == 1:
            return items[0]
        return ast.And(items=tuple(items), pos=pos)

    def unary_expr(self) -> ast.BoolExpr:
        t = self.peek()
        if not (self.at_kw("not") or self.at_sym("(")):
            return self.predicate()
        if self.depth == MAX_NESTING:
            self.fail([f"a predicate within {MAX_NESTING} nested 'not' and '('"])
        self.depth += 1
        self.next()
        if t.kind == "ident":
            inner = ast.Not(item=self.unary_expr(), pos=t.pos)
        else:
            inner = self.expr()
            self.expect_sym(")")
        self.depth -= 1
        return inner

    def predicate(self) -> ast.BoolExpr:
        operand = self.operand()
        t = self.peek()
        if t.kind == "sym" and t.text in ("=", "!=", "<", "<=", ">", ">="):
            op = self.next().text
            rhs = self.operand()
            return ast.Cmp(op=op, lhs=operand, rhs=rhs, pos=t.pos)
        if self.at_kw("is"):
            self.next()
            negated = bool(self.eat_kw("not"))
            self.expect_kw("null")
            return ast.NullTest(operand=operand, negated=negated, pos=t.pos)
        if self.at_kw("matches"):
            self.next()
            pattern = self.expect_string().value
            return ast.MatchTest(operand=operand, pattern=pattern, pos=t.pos)
        self.fail(["a comparison operator", "'is'", "'matches'"])

    def operand(self) -> ast.Operand:
        t = self.peek()
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            return ast.FieldRef(name=t.text, pos=t.pos)
        return self.literal(["a field name", "a literal"])

    def literal(self, expected: list[str]) -> ast.Lit:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return ast.Lit("int", t.value, t.pos)
        if t.kind == "number":
            self.next()
            return ast.Lit("decimal", t.value, t.pos)
        if t.kind == "string":
            self.next()
            return ast.Lit("text", t.value, t.pos)
        if t.kind == "sym" and t.text == "-":
            self.next()
            t2 = self.peek()
            if t2.kind == "int":
                self.next()
                return ast.Lit("int", -t2.value, t.pos)
            if t2.kind == "number":
                self.next()
                return ast.Lit("decimal", -t2.value, t.pos)
            self.fail(["a number"])
        if self.at_kw("date"):
            self.next()
            s = self.expect_string()
            val = parse_date_text(s.value, ISO_DATE)
            if val is None:
                raise SpecSyntaxError(s.pos, ["a date 'YYYY-MM-DD'"], s.describe())
            return ast.Lit("date", val, t.pos)
        self.fail(expected)
