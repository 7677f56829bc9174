"""Replay the golden CLI corpus written by `make_golden.py`, byte for byte."""

import json

import pytest

from make_golden import GOLDEN, run_case

with open(GOLDEN) as fh:
    RECORDS = [json.loads(line) for line in fh]


def test_corpus_covers_every_pinned_command():
    seen = {tuple(r["argv"][:2]) for r in RECORDS}
    for cmd in ("iso", "equiv", "hilbert", "spin", "gram", "lift"):
        assert ("quad", cmd) in seen
    assert ("adj", "conj") in seen
    for cmd in ("invariant", "to-param", "from-param", "equiv", "stab", "real-obstruction",
                "search"):
        assert ("pencil", cmd) in seen
    for cmd in ("order", "disc", "different", "ideal", "canonical", "wood"):
        assert ("integral", cmd) in seen
    assert {r["exit"] for r in RECORDS} == {0, 1, 2}


@pytest.mark.parametrize("record", RECORDS,
                         ids=["line%d" % (i + 1) for i in range(len(RECORDS))])
def test_replay_is_byte_identical(record):
    assert run_case(record["argv"], record["stdin"]) == record
