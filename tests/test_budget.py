"""The interval shapes every search reports through: Bounds, as_bounds,
bounds_agree and the IntervalResult read-outs."""

import itertools
from dataclasses import dataclass

import pytest

from mvlab.budget import Bounds, IntervalResult, as_bounds, bounds_agree
from mvlab.errors import MvlabError

# every nonempty [lo, hi] on 0..3
INTERVALS = [Bounds(lo, hi) for lo, hi in itertools.combinations_with_replacement(range(4), 2)]


@dataclass(frozen=True)
class _Result(IntervalResult):
    lo: int
    hi: int


def test_bounds_reject_an_empty_interval():
    with pytest.raises(ValueError):
        Bounds(3, 2)


@pytest.mark.parametrize("b", INTERVALS, ids=str)
def test_exact_value_and_json_agree(b):
    if b.exact:
        assert b.lo == b.hi == b.value == b.as_json()
    else:
        assert b.lo < b.hi and b.as_json() == [b.lo, b.hi]
        with pytest.raises(ValueError):
            b.value


def test_as_bounds_is_idempotent():
    for v in [0, 3, *INTERVALS]:
        once = as_bounds(v)
        assert as_bounds(once) is once
    assert as_bounds(2) == Bounds(2, 2)


def test_bounds_agree_is_the_symmetric_overlap_test():
    values = [0, 1, 2, 3, *INTERVALS]
    for a, b in itertools.product(values, repeat=2):
        ba, bb = as_bounds(a), as_bounds(b)
        overlap = max(ba.lo, bb.lo) <= min(ba.hi, bb.hi)
        assert bounds_agree(a, b) == bounds_agree(b, a) == overlap


@pytest.mark.parametrize("b", INTERVALS, ids=str)
def test_interval_result_reads_its_lo_and_hi(b):
    r = _Result(b.lo, b.hi)
    assert r.bounds == b
    assert r.exact == b.exact
    assert r.status == ("exact" if b.exact else "interval")
    if b.exact:
        assert r.value == b.value
    else:
        with pytest.raises(MvlabError):
            r.value
