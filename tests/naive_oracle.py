"""Independent reference evaluator for differential testing.

Loads entire datasets into memory and checks every rule by its
definition, with its own cell parsing and three-valued logic. It shares
no code with the engine or its generated evaluator (only the AST
types), so a bug would have to be made twice, in different shapes, to
go unnoticed.
"""

from __future__ import annotations

import calendar
import csv
import re
from datetime import date
from decimal import Decimal, InvalidOperation

from dqspec.lang import ast

ASCII_WS = " \t\r\n\f\v"
DIGITS = set("0123456789")

FAIL = object()  # parse-failure marker


class NaiveResult:
    def __init__(self):
        self.rule_ordinals: dict[str, set[int]] = {}
        self.total_records = 0
        self.invalid_ordinals: set[int] = set()

    def add(self, rule_id: str, ordinal: int):
        self.rule_ordinals.setdefault(rule_id, set()).add(ordinal)

    def ordinals(self, rule_id: str) -> set[int]:
        return self.rule_ordinals.get(rule_id, set())


def _load(path: str, src: ast.SourceDecl) -> tuple[list[str] | None, list[list[str]]]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh, delimiter=src.delimiter, quotechar=src.quote))
    if src.has_header:
        return (rows[0] if rows else None), rows[1:]
    return None, rows


def _trim(s: str) -> str:
    return s.strip(ASCII_WS)


def _parse_int(t: str):
    body = t[1:] if t[:1] in "+-" else t
    if not body or any(c not in DIGITS for c in body):
        return None
    digits = body.lstrip("0") or "0"  # int() refuses texts of over 4,300 digits
    if len(digits) > 19:
        return None
    v = -int(digits) if t[:1] == "-" else int(digits)
    if v < -(2**63) or v > 2**63 - 1:
        return None
    return v


_DEC_OK = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)\Z")


def _parse_dec(t: str):
    if not _DEC_OK.match(t):
        return None
    try:
        return Decimal(t)
    except InvalidOperation:  # pragma: no cover
        return None


def _fmt_regex(fmt: str) -> tuple[re.Pattern, list[str]]:
    parts = []
    order = []
    i = 0
    while i < len(fmt):
        if fmt.startswith("YYYY", i):
            parts.append(r"([0-9]{4})")
            order.append("y")
            i += 4
        elif fmt.startswith("MM", i):
            parts.append(r"([0-9]{2})")
            order.append("m")
            i += 2
        elif fmt.startswith("DD", i):
            parts.append(r"([0-9]{2})")
            order.append("d")
            i += 2
        else:
            parts.append(re.escape(fmt[i]))
            i += 1
    return re.compile("".join(parts) + r"\Z"), order


def _parse_date(t: str, fmt: str):
    rx, order = _fmt_regex(fmt)
    m = rx.match(t)
    if not m:
        return None
    got = dict(zip(order, (int(g) for g in m.groups())))
    y, mo, d = got["y"], got["m"], got["d"]
    if y < 1 or mo < 1 or mo > 12:
        return None
    if d < 1 or d > calendar.monthrange(y, mo)[1]:
        return None
    return date(y, mo, d)


def _parse(t: str, ftype: ast.FieldType):
    if isinstance(ftype, ast.TextType):
        return t
    if isinstance(ftype, ast.IntegerType):
        v = _parse_int(t)
        return FAIL if v is None else v
    if isinstance(ftype, ast.DecimalType):
        v = _parse_dec(t)
        return FAIL if v is None else v
    if isinstance(ftype, ast.DateType):
        v = _parse_date(t, ftype.fmt)
        return FAIL if v is None else v
    if isinstance(ftype, ast.EnumType):
        return t if t in ftype.values else FAIL
    raise TypeError(ftype)


def _tri_eval(e, values: dict):
    """values maps field name -> typed value, None (null) or FAIL."""

    def opval(op):
        if isinstance(op, ast.FieldRef):
            v = values[op.name]
            return None if v is FAIL else v
        return op.value

    if isinstance(e, ast.And):
        rs = [_tri_eval(i, values) for i in e.items]
        if any(r is False for r in rs):
            return False
        if any(r is None for r in rs):
            return None
        return True
    if isinstance(e, ast.Or):
        rs = [_tri_eval(i, values) for i in e.items]
        if any(r is True for r in rs):
            return True
        if any(r is None for r in rs):
            return None
        return False
    if isinstance(e, ast.Not):
        r = _tri_eval(e.item, values)
        return None if r is None else (not r)
    if isinstance(e, ast.NullTest):
        v = opval(e.operand)
        return (v is not None) if e.negated else (v is None)
    if isinstance(e, ast.MatchTest):
        v = opval(e.operand)
        if v is None:
            return None
        return re.fullmatch(e.pattern, v) is not None
    if isinstance(e, ast.Cmp):
        a = opval(e.lhs)
        if a is None:
            return None
        b = opval(e.rhs)
        if b is None:
            return None
        return {
            "=": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[e.op]
    raise TypeError(e)


def naive_evaluate(spec: ast.SpecAst, data_paths: dict[str, str]) -> NaiveResult:
    res = NaiveResult()
    sources = {s.name: s for s in spec.sources}

    # reference column value sets, built by direct scans
    ref_sets: dict[tuple[str, str], set[str]] = {}
    for obj in spec.objects:
        for f in obj.fields:
            for c in f.constraints:
                if c.kind == "in_reference" and c.arg not in ref_sets:
                    key = c.arg
                    src = sources[key[0]]
                    header, rows = _load(data_paths[key[0]], src)
                    col = header.index(key[1])
                    width = len(header)
                    vals = set()
                    for row in rows:
                        if len(row) != width:
                            continue
                        t = _trim(row[col])
                        if t not in src.null_tokens:
                            vals.add(t)
                    ref_sets[key] = vals

    for obj in spec.objects:
        src = sources[obj.source]
        header, rows = _load(data_paths[obj.source], src)
        res.total_records += len(rows)
        width = len(header) if header is not None else (len(rows[0]) if rows else 0)

        def colof(f: ast.FieldDecl) -> int:
            binding = f.column if f.column is not None else f.name
            if isinstance(binding, int):
                return binding - 1
            return header.index(binding)

        cols = {f.name: colof(f) for f in obj.fields}
        first_seen: dict[str, dict] = {f.name: {} for f in obj.fields}

        for ordinal, row in enumerate(rows, start=1):
            if len(row) != width:
                res.add(f"{obj.name}.structure", ordinal)
                res.invalid_ordinals.add(ordinal)
                continue
            values: dict[str, object] = {}
            record_error = False
            for f in obj.fields:
                raw = row[cols[f.name]]
                t = _trim(raw)
                if t in src.null_tokens:
                    values[f.name] = None
                    for c in f.constraints:
                        if c.kind == "not_null":
                            res.add(f"{obj.name}.{f.name}.not_null", ordinal)
                            if c.severity == "error":
                                record_error = True
                    continue
                v = _parse(t, f.ftype)
                values[f.name] = v
                if v is FAIL:
                    res.add(f"{obj.name}.{f.name}.type", ordinal)
                    record_error = True
                    continue
                for c in f.constraints:
                    rid = f"{obj.name}.{f.name}.{c.kind}"
                    bad = False
                    if c.kind == "matches":
                        bad = re.fullmatch(c.arg, t) is None
                    elif c.kind == "min":
                        bad = v < c.arg.value
                    elif c.kind == "max":
                        bad = v > c.arg.value
                    elif c.kind == "minlen":
                        bad = len(t) < c.arg
                    elif c.kind == "maxlen":
                        bad = len(t) > c.arg
                    elif c.kind == "in_reference":
                        bad = t not in ref_sets[c.arg]
                    elif c.kind == "unique":
                        if v in first_seen[f.name]:
                            bad = True
                        else:
                            first_seen[f.name][v] = ordinal
                    if bad:
                        res.add(rid, ordinal)
                        if c.severity == "error":
                            record_error = True
            for r in obj.rules:
                if _tri_eval(r.expr, values) is not True:
                    res.add(f"{obj.name}.{r.name}", ordinal)
                    if r.severity == "error":
                        record_error = True
            if record_error:
                res.invalid_ordinals.add(ordinal)
    return res
