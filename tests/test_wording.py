"""Refusal wording that lives in one place: every count (a size, k, d, a
seed, a trial or worker count) is refused by ``core._check_count``, so its
message is written once in the source, and no module words it by hand.
Where a module checks an integer by hand, it tests ``type(x) is int``."""

import re
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


# isinstance(x, int) or isinstance(x, (int, ...)): either admits a bool
INT_ISINSTANCE = re.compile(r"isinstance\([^()]*,\s*(?:int\b|\([^()]*\bint\b[^()]*\))")


def test_no_module_takes_a_bool_for_an_integer():
    assert INT_ISINSTANCE.search("if not isinstance(n, int) or n < 1:")
    assert INT_ISINSTANCE.search("isinstance(v, (float, int))")
    assert not INT_ISINSTANCE.search("isinstance(items, Instance)")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if INT_ISINSTANCE.search(line)
    ]
    assert found == []
