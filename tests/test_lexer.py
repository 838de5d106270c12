"""The spec tokenizer: one table of regular expressions, checked against
the reference copy of the character loop in `lexer_oracle.py`."""

import random

import lexer_oracle
from dqspec.lang.diagnostics import SpecSyntaxError
from dqspec.lang.lexer import KEYWORDS, escape_string, is_name, tokenize

FRAGMENTS = [
    *"aZq_09", "not", "date", "x1", "12", "3.5", " ", "\t", "\r", "\n", "#", "'", '"', "!",
    "\\", "\\\\", "\\'", "\\n", "\\t", "\\r", "\\x", "\\0",
    "<=", ">=", "!=", *"{}();:,.%=<>-", "é", "Ж", "\f", "\u00a0",
]


def _tokens_or_error(tokenize_, text):
    try:
        return tokenize_(text)
    except SpecSyntaxError as exc:
        return exc.pos, exc.expected, exc.found


def test_tokenizer_matches_the_reference_on_random_texts():
    rng = random.Random(28)
    errors = 0
    for _ in range(60_000):
        text = "".join(rng.choices(FRAGMENTS, k=rng.randrange(16)))
        got = _tokens_or_error(tokenize, text)
        assert got == _tokens_or_error(lexer_oracle.tokenize, text), repr(text)
        errors += not isinstance(got, list)
        one_ident = isinstance(got, list) and len(got) == 2 and got[0].kind == "ident" and got[0].text == text
        assert is_name(text) == (one_ident and text not in KEYWORDS), repr(text)
    assert 10_000 < errors < 50_000


def test_tokenizer_matches_the_reference_on_edge_texts():
    texts = [
        "", "1" * 5000, "1" * 5000 + ".5",  # past int()'s digit limit, and a Decimal with none
        "'abc", "'abc\n", "'a\\'", "'\\", "'a\\\n'",  # unclosed at the end of input or of a line
        "x\n  'q", "a\r\n#c\n b",
    ]
    for text in texts:
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(lexer_oracle.tokenize, text), repr(text)


def test_escape_string_reads_back_as_one_string():
    rng = random.Random(29)
    for _ in range(20_000):
        s = "".join(rng.choices(FRAGMENTS, k=rng.randrange(10)))
        spelled = escape_string(s)
        assert spelled == lexer_oracle.escape_string(s), repr(s)
        string, eof = tokenize(spelled)
        assert (string.kind, string.text, string.value, eof.kind) == ("string", spelled, s, "eof"), repr(s)
