"""Pattern support: a portable regex subset plus SQL LIKE translation.

`matches` uses full-match semantics. The subset is literals, a backslash
before one of .\\*+?()[]{}|^$-/'" or dDwWsS, character classes, the .
wildcard, quantifiers (* + ? {m} {m,} {m,n}), alternation, plain groups
and the anchors ^ $. Backreferences, (?...) extensions and classes that
Python would read as set operations are rejected so patterns stay
portable. Only `_tokens`, with its helper `_atom`, reads pattern text.
"""

from __future__ import annotations

import re
import warnings

_ESCAPABLE = frozenset(".\\*+?()[]{}|^$-/'\"")
_SHORTHAND = frozenset("dDwWsS")
_REPEAT = re.compile(r"\{[0-9]+(?:,[0-9]*)?\}")


def _atom(pattern: str, i: int, where: str = "") -> str:
    """The character at `i`, or the escape pair that starts there."""
    if pattern[i] != "\\":
        return pattern[i]
    esc = pattern[i + 1:i + 2]
    if not esc:
        raise re.error(f"trailing backslash{where}")
    if esc in _ESCAPABLE or esc in _SHORTHAND:
        return "\\" + esc
    if esc.isdigit() and not where:
        raise re.error("backreferences are not supported")
    raise re.error(f"unsupported escape \\{esc}{where}")


def _tokens(pattern: str):
    """Yield (index, token) for each token of `pattern`: a character, an
    escape pair, a whole {m,n}, or a class as the list of its '[', its
    members ('^' first if it negates) and ']'. Raises re.error at the
    first text outside the subset, lazily: only when a caller reads on."""
    i, n = 0, len(pattern)
    while i < n:
        tok = _atom(pattern, i)
        j = i + len(tok)
        if tok == "[":
            tok = ["["]
            while tok[-1] != "]":
                if j == n:
                    raise re.error("unterminated character class")
                member = _atom(pattern, j, " in character class")
                if member == "]" and tok[1:] in ([], ["^"]):
                    raise re.error("empty character class")
                tok.append(member)
                j += len(member)
        elif tok == "{":
            m = _REPEAT.match(pattern, i)
            if m is None:
                raise re.error("malformed {m,n} repetition")
            tok, j = m.group(), m.end()
        elif tok in ("]", "}"):
            raise re.error(f"unbalanced '{tok}'")
        elif tok == "(" and pattern.startswith("?", j):
            raise re.error("(?...) group extensions are not supported")
        yield i, tok
        i = j


def compile_pattern(pattern: str) -> tuple[re.Pattern | None, str | None]:
    """(the compiled pattern, None), or (None, why it is no pattern of the subset)."""
    depth = 0
    try:
        for _, tok in _tokens(pattern):
            depth += (tok == "(") - (tok == ")")
            if depth < 0:
                return None, "unbalanced ')'"
    except re.error as exc:
        return None, str(exc)
    if depth:
        return None, "unbalanced '('"
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        try:
            return re.compile(pattern), None
        except FutureWarning as exc:
            return None, f"not portable: {exc}"
        except (re.error, OverflowError, RecursionError) as exc:
            return None, f"does not compile: {exc}"


def validate_pattern(pattern: str) -> str | None:
    """Why the pattern is outside the subset or does not compile, or None."""
    return compile_pattern(pattern)[1]


def like_translation(pattern: str) -> tuple[str | None, str | None]:
    """Translate to a lossless SQL LIKE pattern if possible.

    Only literals, '.', '.*' and '.+' (plus redundant ^ $ anchors) have
    exact LIKE counterparts. Returns (like_pattern, None) on success or
    (None, reason) when the pattern exceeds LIKE expressiveness.
    """
    out: list[str] = []
    try:
        for i, tok in _tokens(pattern):
            if tok in ("*", "+") and out[-1:] == ["_"]:  # after a '.': a literal _ is \_
                out[-1] = "%" if tok == "*" else "_%"
            elif tok == ".":
                out.append("_")
            elif (tok == "^" and i == 0) or (tok == "$" and i == len(pattern) - 1):
                pass
            elif tok[0] == "\\" and tok[1] in _SHORTHAND:
                return None, f"escape {tok} has no LIKE equivalent"
            elif tok[0] in "[(){|*+?^$":
                return None, f"'{tok[0]}' exceeds LIKE expressiveness"
            else:  # a character, or the one an escape pair stands for
                out.append("\\" + tok[-1] if tok[-1] in "%_\\" else tok[-1])
    except re.error as exc:
        return None, str(exc)
    return "".join(out), None


def line_feed_guard(pattern: str) -> str | None:
    """A LIKE pattern for the cells that `like_translation(pattern)`
    matches and `re.fullmatch` does not, or None if no '.' (in a class or
    not) is in the pattern: LIKE's wildcards match a line feed and a regex
    '.' does not, so such a cell holds more line feeds than the pattern."""
    try:
        wild = any(tok == "." or isinstance(tok, list) and "." in tok for _, tok in _tokens(pattern))
    except re.error:
        wild = False
    return "%" + "\n%" * (pattern.count("\n") + 1) if wild else None
