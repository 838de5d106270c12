"""Reference copy of `dqspec.patterns`' three public functions as they
were before one token scanner replaced their three separate readings of
pattern text. `tests/test_patterns.py` checks the module against it.
Kept unchanged on purpose, faults included: `validate_pattern` here lets
a future set operation such as '[[]' through with a FutureWarning and
raises OverflowError or RecursionError where `re.compile` does.
"""

from __future__ import annotations

import re

_ESCAPABLE = set(".\\*+?()[]{}|^$-/'\"")
_CLASS_SHORTHAND = set("dDwWsS")
_WILDCARD = re.compile(r"(?<!\\)(?:\\\\)*\.")  # a '.' that no backslash escapes


def validate_pattern(pattern: str) -> str | None:
    """Return an error message if the pattern falls outside the subset
    or does not compile; None when acceptable."""
    i = 0
    n = len(pattern)
    depth = 0
    while i < n:
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= n:
                return "trailing backslash"
            nxt = pattern[i + 1]
            if nxt in _ESCAPABLE or nxt in _CLASS_SHORTHAND:
                i += 2
                continue
            if nxt.isdigit():
                return "backreferences are not supported"
            return f"unsupported escape \\{nxt}"
        if ch == "[":
            j, err = _scan_class(pattern, i)
            if err:
                return err
            i = j
            continue
        if ch == "(":
            if pattern.startswith("(?", i):
                return "(?...) group extensions are not supported"
            depth += 1
            i += 1
            continue
        if ch == ")":
            depth -= 1
            if depth < 0:
                return "unbalanced ')'"
            i += 1
            continue
        if ch == "{":
            j, err = _scan_repeat(pattern, i)
            if err:
                return err
            i = j
            continue
        if ch == "}":
            return "unbalanced '}'"
        if ch == "]":
            return "unbalanced ']'"
        # literals, anchors and bare quantifiers; re.compile validates use
        i += 1
    if depth != 0:
        return "unbalanced '('"
    try:
        re.compile(pattern)
    except re.error as exc:
        return f"does not compile: {exc}"
    return None


def _scan_class(pattern: str, i: int) -> tuple[int, str | None]:
    n = len(pattern)
    j = i + 1
    if j < n and pattern[j] == "^":
        j += 1
    body = False
    while j < n:
        ch = pattern[j]
        if ch == "\\":
            if j + 1 >= n:
                return j, "trailing backslash in character class"
            if pattern[j + 1] in _ESCAPABLE or pattern[j + 1] in _CLASS_SHORTHAND:
                j += 2
                body = True
                continue
            return j, f"unsupported escape \\{pattern[j + 1]} in character class"
        if ch == "]":
            if not body:
                return j, "empty character class"
            return j + 1, None
        j += 1
        body = True
    return j, "unterminated character class"


def _scan_repeat(pattern: str, i: int) -> tuple[int, str | None]:
    m = re.compile(r"\{[0-9]+(,[0-9]*)?\}").match(pattern, i)
    if m is None:
        return i, "malformed {m,n} repetition"
    return m.end(), None


def like_translation(pattern: str) -> tuple[str | None, str | None]:
    """Translate to a lossless SQL LIKE pattern if possible.

    Only literals, '.', '.*' and '.+' (plus redundant ^ $ anchors) have
    exact LIKE counterparts. Returns (like_pattern, None) on success or
    (None, reason) when the pattern exceeds LIKE expressiveness.
    """
    i = 0
    n = len(pattern)
    out: list[str] = []

    def emit_literal(ch: str):
        if ch in ("%", "_", "\\"):
            out.append("\\" + ch)
        else:
            out.append(ch)

    while i < n:
        ch = pattern[i]
        if ch == "\\":
            if i + 1 < n and pattern[i + 1] in _ESCAPABLE:
                emit_literal(pattern[i + 1])
                i += 2
                continue
            return None, f"escape \\{pattern[i + 1:i + 2]} has no LIKE equivalent"
        if ch == ".":
            if i + 1 < n and pattern[i + 1] == "*":
                out.append("%")
                i += 2
                continue
            if i + 1 < n and pattern[i + 1] == "+":
                out.append("_%")
                i += 2
                continue
            out.append("_")
            i += 1
            continue
        if ch == "^" and i == 0:
            i += 1
            continue
        if ch == "$" and i == n - 1:
            i += 1
            continue
        if ch in "[](){}|*+?^$":
            return None, f"'{ch}' exceeds LIKE expressiveness"
        emit_literal(ch)
        i += 1
    return "".join(out), None


def line_feed_guard(pattern: str) -> str | None:
    """A LIKE pattern for the cells that `like_translation(pattern)`
    matches and `re.fullmatch` does not, or None if the pattern has no
    '.': LIKE's wildcards match a line feed and a regex '.' does not, so
    such a cell holds more line feeds than the pattern.
    """
    if _WILDCARD.search(pattern) is None:
        return None
    return "%" + "\n%" * (pattern.count("\n") + 1)
