"""Tokenizer for .dq specification sources: one regular expression per token kind, as in lex."""

from __future__ import annotations

import re
from decimal import Decimal
from typing import NamedTuple

from .diagnostics import Pos, SpecSyntaxError

KEYWORDS = frozenset(
    """
    spec source object from field column rule threshold
    text integer decimal date enum iso
    not null matches min max minlen maxlen unique in warn is and or
    true false path delimiter quote header null_token invalid_records
    """.split()
)

# escape letter -> the character it stands for; a backslash before any
# other character is a literal backslash
_ESCAPES = {"\\": "\\", "'": "'", "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE = r"\\([\\'ntr])"
_SPELLINGS = str.maketrans({char: "\\" + letter for letter, char in _ESCAPES.items()})

# Tried in order at each position. Only `skip` can hold a line feed, and
# ASCII classes keep \s, \w and \d from admitting other Unicode letters.
_TOKEN = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("skip", r"[ \t\r\n]+|#[^\n]*"),
            ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("number", r"[0-9]+\.[0-9]+"),
            ("int", r"[0-9]+"),
            # the closing quote is optional, so an escape is never taken
            # back to end the string early; a string without it is an error
            ("string", rf"'(?:{_ESCAPE}|[^'\n])*(?P<closed>')?"),
            ("sym", r"[<>!]=|[{}();:,.%=<>-]"),
        )
    )
)
_VALUES = {"ident": str, "number": Decimal, "int": int, "sym": str}  # a token's value from its text


class Token(NamedTuple):
    kind: str  # "ident" "string" "int" "number" "sym" "eof"
    text: str  # source spelling ("" for eof)
    value: object  # decoded value for string/int/number
    pos: Pos

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        if self.kind == "string":
            return f"string {self.text}"
        return f"'{self.text}'"


def is_name(text: str) -> bool:
    """Whether `text` reads as one identifier token that is not a keyword."""
    m = _TOKEN.fullmatch(text)
    return m is not None and m.lastgroup == "ident" and text not in KEYWORDS


def tokenize(text: str) -> list[Token]:
    """Tokenize the whole input; raises SpecSyntaxError on bad lexemes."""
    toks: list[Token] = []
    i = 0
    line = 1
    line_start = 0  # index of the first character of the current line
    n = len(text)
    while i < n:
        m = _TOKEN.match(text, i)
        pos = Pos(line, i - line_start + 1)
        if m is None:
            raise SpecSyntaxError(pos, ["a token"], f"character {text[i]!r}")
        kind, word = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in word:
                line += word.count("\n")
                line_start = i + word.rindex("\n") + 1
        elif kind == "string":
            if m.group("closed") is None:
                found = "end of input" if m.end() == n else "end of line"
                raise SpecSyntaxError(pos, ["closing \"'\""], found)
            toks.append(Token(kind, word, re.sub(_ESCAPE, lambda e: _ESCAPES[e[1]], word[1:-1]), pos))
        else:
            try:
                toks.append(Token(kind, word, _VALUES[kind](word), pos))
            except ValueError:  # an int past the interpreter's limit on int() digits
                raise SpecSyntaxError(pos, ["a shorter integer"], f"{len(word)} digits") from None
        i = m.end()
    toks.append(Token("eof", "", None, Pos(line, n - line_start + 1)))
    return toks


def escape_string(s: str) -> str:
    """Canonical single-quoted spelling understood by the tokenizer."""
    return "'" + s.translate(_SPELLINGS) + "'"
