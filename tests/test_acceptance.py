"""Acceptance suite: one test per numbered criterion, frozen seeds.

Seeds match `quadpencil selftest` with its default --seed 0, so a failure
here reproduces on the command line and vice versa.
"""

import random

import pytest

from quadpencil.acceptance import CRITERIA

IDS = [
    "c01-round-trip-with-witness",
    "c02-parameter-identity",
    "c03-stabilizer-group",
    "c04-order-discriminant",
    "c05-power-ideals",
    "c06-module-reconstruction",
    "c07-curve-points",
    "c08-real-obstruction",
    "c09-hilbert-and-isotropy",
    "c10-even-clifford-classes",
    "c11-pfaffian-invariant",
    "c12-conjugation-orbits",
    "c13-euler-trace-identity",
]

assert len(IDS) == len(CRITERIA)


@pytest.mark.skipif(not __debug__, reason="the criteria check with plain asserts, "
                    "which python -O strips, so they would pass without checking anything")
@pytest.mark.parametrize(("num", "desc", "fn"), CRITERIA, ids=IDS)
def test_criterion(num, desc, fn):
    fn(random.Random(num))
