"""Refusal wording that lives in one place: every count (a size, k, d, a
seed, a trial or worker count) is refused by ``core._check_count``, so its
message is written once in the source, and no module words it by hand."""

from pathlib import Path

import screenmatch

SOURCES = sorted(Path(screenmatch.__file__).parent.glob("*.py"))


def _occurrences(text: str) -> int:
    return sum(path.read_text(encoding="utf-8").count(text) for path in SOURCES)


def test_the_count_rule_is_worded_once():
    assert len(SOURCES) > 1
    assert _occurrences("must be a positive integer") == 0
    assert _occurrences("must be a nonnegative integer") == 0
    assert _occurrences("must be a {kind} integer") == 1
