"""The interval shapes every search reports through (Bounds, as_bounds,
bounds_agree and the IntervalResult read-outs), and the node budget as the
searches that count nodes in a local spend it."""

import itertools
from dataclasses import dataclass

import pytest

from mvlab import covering
from mvlab.budget import (
    _TIME_CHECK_STRIDE,
    Bounds,
    Budget,
    BudgetExhausted,
    IntervalResult,
    SearchCounters,
    as_bounds,
    bounds_agree,
)
from mvlab.covering import covering_number, min_edges_with_tau
from mvlab.errors import MvlabError
from mvlab.hypergraphs import solve_tau
from mvlab.turan import build_c4_suspension, ex_uniform

from oracles import benchmark_random_masks

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
    # a search result mixing the read-outs in, and Bounds, which inherits them
    for r in (_Result(b.lo, b.hi), Bounds(b.lo, b.hi)):
        assert r.bounds == b
        assert r.exact == (b.lo == b.hi)
        assert r.status == ("exact" if r.exact else "interval")
        if r.exact:
            assert r.value == b.lo == b.hi
        else:
            with pytest.raises(MvlabError):
                r.value


# ----------------------------------------------------------------------
# the node budget of the searches that count nodes in a local: the covering
# search, the Turan search and the tau kernel

# every cap up to past the first runs' ends, and around the first clock
# reading
CAPS = [*range(0, 401), 2047, 2048, 2049]


def test_horizon_stops_short_of_the_cap_and_the_clock():
    counters = SearchCounters(Budget(max_nodes=5))
    assert counters.horizon() == 5
    with pytest.raises(BudgetExhausted):
        counters.catch_up(5)
    assert counters.nodes == 5
    counters = SearchCounters(None)
    assert counters.horizon() == _TIME_CHECK_STRIDE - 1
    # the catch-up counts node 2048, which reads the clock
    assert counters.catch_up(_TIME_CHECK_STRIDE - 1) == 2 * _TIME_CHECK_STRIDE - 1
    assert counters.nodes == _TIME_CHECK_STRIDE


def test_covering_spends_exactly_its_cap():
    # C(8, 5, 3) = 8 takes 343 nodes, all of them in its sub-instance
    # C(7, 4, 2), which may spend half of the nodes left: below 686 nodes
    # that is cut, and the outer search runs to the cap
    for cap in [*CAPS, 685, 686]:
        cert = covering_number(8, 5, 3, Budget(max_nodes=cap))
        assert cert.nodes_expanded == (cap if cap < 686 else 343), cap
        assert cert.lo <= 8 <= cert.hi and cert.exact == (cap >= 686)


def test_turan_spends_exactly_its_cap():
    # ex(8, C4) = 11 takes 9,397 nodes; a cut search that has found 11
    # edges is exact by the table's cap
    for cap in CAPS:
        r = ex_uniform(8, 2, build_c4_suspension(2), Budget(max_nodes=cap))
        assert r.nodes_expanded == cap and r.lo <= 11 <= r.hi


def test_kernel_spends_exactly_its_cap():
    # tau 10 in 3,156 nodes (PINNED_TAU's random-03)
    masks = benchmark_random_masks(901)[3]
    assert solve_tau(masks, SearchCounters(None))[::2] == (10, 3156)
    for cap in [*CAPS, 3155, 3156]:
        counters = SearchCounters(Budget(max_nodes=cap))
        tau, mask, nodes, complete = solve_tau(masks, counters)
        assert nodes == counters.nodes == min(cap, 3156)
        assert complete == (cap >= 3156) and tau >= 10
        assert mask.bit_count() == tau and all(e & mask for e in masks)


def test_kernel_calls_spend_the_callers_cap(monkeypatch):
    # min_edges_with_tau(7, 2, 4) = 5 takes 73 nodes, its kernel calls'
    # included, and raises when cut
    made = []

    def recorded(budget):
        made.append(SearchCounters(budget))
        return made[-1]

    monkeypatch.setattr(covering, "SearchCounters", recorded)
    for cap in CAPS:
        if cap < 73:
            with pytest.raises(BudgetExhausted):
                min_edges_with_tau(7, 2, 4, Budget(max_nodes=cap))
            assert made[-1].nodes == cap
        else:
            assert min_edges_with_tau(7, 2, 4, Budget(max_nodes=cap))[::2] == (5, 73)


def test_covering_and_turan_read_the_clock_every_stride(monkeypatch):
    # a deadline already past stops each search at its first clock reading,
    # node 2048. The covering setup reads the clock at each block as well,
    # so here it reads it only at the stride, as the search does
    monkeypatch.setattr(SearchCounters, "tick_and_time", SearchCounters.tick)
    past = Budget(max_seconds=-1.0)
    for (n, k, t), true in (((9, 6, 3), 7), ((10, 7, 5), 20)):
        cert = covering_number(n, k, t, past)
        assert cert.nodes_expanded == _TIME_CHECK_STRIDE
        assert not cert.exact and cert.lo <= true <= cert.hi
    r = ex_uniform(8, 2, build_c4_suspension(2), past)
    assert r.nodes_expanded == _TIME_CHECK_STRIDE and r.lo <= 11 <= r.hi
