"""The `matches` pattern subset: one scanner behind validation, LIKE
translation and the line-feed guard, checked against the reference copy
in `pattern_oracle.py`."""

import random
import subprocess
import sys
import warnings

import pytest

import pattern_oracle
from dqspec.patterns import like_translation, line_feed_guard, validate_pattern
from helpers import child_env

FRAGMENTS = list(".*+?()[]{}|^$-\n%_ab1,&~") + [
    "\\", "\\.", "\\\\", "\\d", "\\W", "\\1", "\\q", "\\[", "\\]", "\\-", "\\%",
    "{2}", "{1,3}", "{2,}", "(?", "[^", ".*", ".+",
]


def _reference_message(pattern: str) -> str | None:
    """The reference's message, with the two faults it carries mended as
    the module mends them: Python's FutureWarning for a class that a
    later version reads as a set operation, and an exception other than
    re.error from re.compile."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        try:
            return pattern_oracle.validate_pattern(pattern)
        except FutureWarning as exc:
            return f"not portable: {exc}"
        except (OverflowError, RecursionError) as exc:
            return f"does not compile: {exc}"


def test_scanner_matches_the_reference_on_random_patterns():
    rng = random.Random(25)
    valid = 0
    for _ in range(200_000):
        p = "".join(rng.choices(FRAGMENTS, k=rng.randrange(10)))
        message = validate_pattern(p)
        assert message == _reference_message(p), p
        like, guard = like_translation(p), line_feed_guard(p)
        if message is None:
            valid += 1
            assert like == pattern_oracle.like_translation(p), p
            assert guard == pattern_oracle.line_feed_guard(p), p
    assert valid > 40_000


def test_public_functions_raise_on_no_text():
    rng = random.Random(7)
    alphabet = [chr(c) for c in range(0x250)] + ["\ud800", "\U0001f600", "٣"]
    texts = ["a{4294967296}", "(" * 3000 + ")" * 3000, "[" * 500, "\\", "[\\", "[a\\"]
    texts += ["".join(rng.choices(alphabet, k=rng.randrange(12))) for _ in range(20_000)]
    for p in texts:
        validate_pattern(p)
        like_translation(p)
        line_feed_guard(p)
    assert validate_pattern("a{4294967296}") == "does not compile: the repetition number is too large"


NOT_PORTABLE = {
    "[[]": "Possible nested set at position 1",
    "[[a]": "Possible nested set at position 1",
    "[a--b]": "Possible set difference at position 2",
    "[a&&b]": "Possible set intersection at position 2",
    "[a||b]": "Possible set union at position 2",
    "[a~~b]": "Possible set symmetric difference at position 2",
}


@pytest.mark.parametrize("pattern", NOT_PORTABLE)
def test_future_set_syntax_is_not_portable(pattern):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning that escapes fails the test
        assert validate_pattern(pattern) == f"not portable: {NOT_PORTABLE[pattern]}"
    assert validate_pattern("[[:alpha:]]") == "unbalanced ']'"


def test_validate_spec_rejects_a_nested_set_without_a_warning(tmp_path):
    (tmp_path / "s.dq").write_text(
        "spec s { source f { path 'f.csv'; } object o from f { field t text matches '[[]x'; } }",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dqspec", "validate-spec", "s.dq"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "not portable: Possible nested set at position 1" in proc.stderr
    assert "Warning" not in proc.stderr
