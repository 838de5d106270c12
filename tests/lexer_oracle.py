"""Reference copy of `dqspec.lang.lexer`'s `tokenize` and `escape_string`
as they were before one table of regular expressions replaced the
character loop. `tests/test_lang.py` checks the module against it. Kept
unchanged on purpose; only `Token` is the module's own, so tokens of the
two compare equal.
"""

from __future__ import annotations

from decimal import Decimal

from dqspec.lang.diagnostics import Pos, SpecSyntaxError
from dqspec.lang.lexer import Token

_SYMBOLS = ("<=", ">=", "!=", "{", "}", "(", ")", ";", ":", ",", ".", "%", "=", "<", ">", "-")

_ESCAPES = {"\\": "\\", "'": "'", "n": "\n", "t": "\t", "r": "\r"}


def _is_ident_start(ch: str) -> bool:
    return ch == "_" or ("a" <= ch <= "z") or ("A" <= ch <= "Z")


def _is_ident_char(ch: str) -> bool:
    return _is_ident_start(ch) or ("0" <= ch <= "9")


def tokenize(text: str) -> list[Token]:
    """Tokenize the whole input; raises SpecSyntaxError on bad lexemes."""
    toks: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        pos = Pos(line, col)
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            toks.append(Token("ident", word, word, pos))
            advance(j - i)
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == "." and j + 1 < n and "0" <= text[j + 1] <= "9":
                j += 1
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                word = text[i:j]
                toks.append(Token("number", word, Decimal(word), pos))
            else:
                word = text[i:j]
                try:
                    value = int(word)
                except ValueError:  # past the interpreter's limit on int() digits
                    raise SpecSyntaxError(pos, ["a shorter integer"], f"{len(word)} digits") from None
                toks.append(Token("int", word, value, pos))
            advance(j - i)
            continue
        if ch == "'":
            out = []
            j = i + 1
            while True:
                if j >= n:
                    raise SpecSyntaxError(pos, ["closing \"'\""], "end of input")
                c = text[j]
                if c == "'":
                    j += 1
                    break
                if c == "\n":
                    raise SpecSyntaxError(pos, ["closing \"'\""], "end of line")
                if c == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    if esc in _ESCAPES:
                        out.append(_ESCAPES[esc])
                        j += 2
                        continue
                    # unknown escape: keep the backslash literally
                    out.append("\\")
                    j += 1
                    continue
                out.append(c)
                j += 1
            word = text[i:j]
            toks.append(Token("string", word, "".join(out), pos))
            advance(j - i)
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, sym, pos))
                advance(len(sym))
                break
        else:
            raise SpecSyntaxError(pos, ["a token"], f"character {ch!r}")
    toks.append(Token("eof", "", None, Pos(line, col)))
    return toks


def escape_string(s: str) -> str:
    """Canonical single-quoted spelling understood by the tokenizer."""
    out = ["'"]
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == "'":
            out.append("\\'")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    out.append("'")
    return "".join(out)
