import itertools
import math
from types import SimpleNamespace

import pytest

from mvlab import budget, covering
from mvlab.budget import Bounds, Budget, BudgetExhausted
from mvlab.covering import (
    c_star,
    covering_number,
    min_edges_with_tau,
    schonheim_bound,
    steiner_lower_bound,
)
from mvlab.errors import ConstraintError
from mvlab.hypergraphs import transversal_number
from mvlab.subsets import k_subset_masks
from mvlab.theorems import verify

from oracles import COVERING_NUMBERS, brute_covering


@pytest.mark.parametrize("n,k,t,expected", COVERING_NUMBERS)
def test_covering_number_matches_brute(n, k, t, expected):
    cert = covering_number(n, k, t)
    assert cert.exact
    assert cert.value == expected == brute_covering(n, k, t)
    # witness actually covers: every t-subset inside some block
    blocks = cert.blocks
    for tset in itertools.combinations(range(1, n + 1), t):
        tm = sum(1 << (x - 1) for x in tset)
        assert any(tm & b == tm for b in blocks)
    assert len(blocks) == cert.value


def test_covering_shortcuts():
    assert covering_number(6, 6, 3).value == 1  # one block is everything
    assert covering_number(5, 3, 3).value == math.comb(5, 3)


def test_steiner_bound_is_a_lower_bound():
    for n, k, t in ((7, 5, 3), (8, 6, 3), (7, 5, 4), (6, 4, 3)):
        assert steiner_lower_bound(n, k, t) <= covering_number(n, k, t).value


# the exact values pinned in this file: COVERING_NUMBERS, the shortcuts and
# c_star(n, 2) = C(n, n - 2, 3)
EXACT_COVERINGS = (COVERING_NUMBERS + [(6, 6, 3, 1), (5, 3, 3, 10)]
                   + [(n, n - 2, 3, v) for n, v in
                      ((6, 6), (7, 5), (8, 4), (9, 4), (10, 4), (11, 4), (12, 4))])


def test_schonheim_bound():
    assert schonheim_bound(9, 6, 5) == 27 and schonheim_bound(10, 7, 5) == 16
    for n, k, t, value in EXACT_COVERINGS:
        assert steiner_lower_bound(n, k, t) <= schonheim_bound(n, k, t) <= value


# without the stop these searches took 238 and 146 nodes; the setup takes
# C(n, k) of them
@pytest.mark.parametrize("n,k,t,nodes", [(7, 5, 4, 21), (6, 3, 2, 89)])
def test_covering_stops_at_the_schonheim_bound(n, k, t, nodes):
    # L(7, 5, 4) = 9 and L(6, 3, 2) = 6 are met, so the search ends once its
    # incumbent reaches them: at (7, 5, 4) the greedy seed does, before any
    # search node
    cert = covering_number(n, k, t)
    assert cert.exact and cert.value == schonheim_bound(n, k, t)
    assert cert.nodes_expanded == nodes


def test_covering_param_validation():
    with pytest.raises(ConstraintError):
        covering_number(5, 6, 3)  # k > n
    with pytest.raises(ConstraintError):
        covering_number(5, 2, 3)  # t > k
    with pytest.raises(ConstraintError):
        covering_number(5, 2, 0)


@pytest.mark.parametrize("n,expected", [(6, 6), (7, 5), (8, 4)])
def test_c_star_small_graph_cases(n, expected):
    cert = c_star(n, 2)
    assert cert.exact and cert.value == expected
    # the witness system on [n] really needs 2k = 4 vertices to hit
    assert cert.witness_tau.tau == 4
    assert transversal_number(cert.witness).tau == 4
    assert cert.witness.edge_count == cert.value


def test_c_star_closed_range():
    for n in range(8, 13):
        assert c_star(n, 2).value == 4


def test_c_star_duality_with_covering_and_min_edges():
    # complements of the blocks of a C(n, n-k, 2k-1) cover form a k-uniform
    # system with tau >= 2k, and conversely; all three routes must agree
    for n in (6, 7, 8):
        direct = c_star(n, 2).value
        cover = covering_number(n, n - 2, 3).value
        m, witness, _ = min_edges_with_tau(n, 2, 4)
        assert direct == cover == m
        assert transversal_number(witness).tau == 4


def test_c_star_preconditions():
    with pytest.raises(ConstraintError):
        c_star(5, 2)  # needs n >= 3k
    with pytest.raises(ConstraintError):
        c_star(8, 1)


def test_min_edges_with_tau_raises_on_budget():
    with pytest.raises(BudgetExhausted):
        min_edges_with_tau(7, 2, 4, Budget(max_nodes=3, max_seconds=60.0))


def test_kernel_calls_take_the_caller_budget(monkeypatch):
    # c_star re-checks its witness on the caller's budget, and says so when
    # the budget cut that check
    cut = c_star(8, 2, Budget(max_nodes=0))
    assert cut.witness_tau.optimal is False
    assert cut.as_json()["witness_tau_optimal"] is False
    assert "witness_tau_optimal" not in c_star(8, 2).as_json()

    # every kernel call inside min_edges_with_tau ticks that search's counters
    calls = []
    inner = covering.solve_tau

    def recorded(edges, counters):
        result = inner(edges, counters)
        calls.append((counters, result[2]))
        return result

    monkeypatch.setattr(covering, "solve_tau", recorded)
    m, _, nodes = min_edges_with_tau(7, 2, 4)
    assert m == 5 and calls
    counters = calls[0][0]
    assert all(c is counters for c, _ in calls) and counters.nodes == nodes
    assert 0 < sum(spent for _, spent in calls) < nodes


def test_covering_interval_on_tiny_budget():
    cert = covering_number(7, 5, 4, Budget(max_nodes=2, max_seconds=60.0))
    assert not cert.exact
    assert cert.lo <= 9 <= cert.hi
    assert cert.status == "interval"


def test_setup_cut_keeps_a_valid_seed():
    # parts i and iii are C(21, 18, 5) and C(21, 18, 6): the 6 and 7
    # disjoint edges of their c-star seeds meet Schonheim's bound, so even a
    # zero budget proves them exact, without the 1,330-block setup
    (i, _, iii) = verify("lemma-cstar", {"n": 21, "k": 3}, budget=Budget(max_nodes=0))
    assert i.params["part"] == "i" and i.oracle_value == Bounds(6, 6)
    assert iii.params["part"] == "iii" and iii.oracle_value == Bounds(7, 7)
    # a valid seed above the lower end bounds a cut setup from above
    blocks = tuple(k_subset_masks(7, 5))[1:]
    cert = covering_number(7, 5, 4, Budget(max_nodes=0), seed_blocks=blocks)
    assert (cert.lo, cert.hi, cert.blocks, cert.nodes_expanded) == (9, 20, blocks, 0)
    # a seed that misses a t-subset is dropped: all blocks bound it instead
    blocks = tuple(itertools.islice(k_subset_masks(7, 5), 3))
    cert = covering_number(7, 5, 4, Budget(max_nodes=0), seed_blocks=blocks)
    assert (cert.lo, cert.hi, cert.nodes_expanded) == (9, 21, 0)


def test_setup_reads_the_clock_per_block(monkeypatch):
    # a fake clock one second further on at each reading: 84 blocks are far
    # below the tick stride, yet the first block built overruns 0.5 s
    readings = iter(range(1_000_000))
    clock = SimpleNamespace(monotonic=lambda: float(next(readings)))
    monkeypatch.setattr(budget, "time", clock)
    cert = covering_number(9, 6, 4, Budget(max_seconds=0.5))
    assert cert.status == "interval" and cert.nodes_expanded == 1
    assert cert.hi == math.comb(9, 6)


def test_covering_certificate_json_shape():
    j = covering_number(8, 6, 3).as_json()
    assert j["n"] == 8 and j["k"] == 6 and j["t"] == 3
    assert j["value"] == 4 and j["status"] == "exact"
    assert all(list(b) == sorted(b) for b in j["blocks"])
