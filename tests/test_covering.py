import itertools
import math
from types import SimpleNamespace

import pytest

from mvlab import budget, covering
from mvlab.budget import Bounds, Budget, BudgetExhausted, SearchCounters
from mvlab.constructions import build_h_nk
from mvlab.covering import c_star, covering_number, min_edges_with_tau, schonheim_bound
from mvlab.errors import ConstraintError
from mvlab.hypergraphs import transversal_number
from mvlab.subsets import k_subset_masks, members_of
from mvlab.theorems import mut_kneser_formula, verify

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


def test_recursive_lower_end_is_a_lower_bound():
    # Schonheim's recursion with the searched lower end of the sub-instance
    # in place of its bound: max(L(n, k, t), ceil(n lo(n-1, k-1, t-1) / k))
    for n, k, t, expected in COVERING_NUMBERS:
        lower = schonheim_bound(n, k, t)
        if t > 1:
            sub = covering._sub_instance_lower(n, k, t, SearchCounters(None))
            lower = max(lower, -(-n * sub // k))
        assert lower <= brute_covering(n, k, t) == expected


# the exact values pinned in this file: COVERING_NUMBERS, the shortcuts and
# c_star(n, 2) = C(n, n - 2, 3)
EXACT_COVERINGS = (COVERING_NUMBERS + [(6, 6, 3, 1), (5, 3, 3, 10)]
                   + [(n, n - 2, 3, v) for n, v in
                      ((6, 6), (7, 5), (8, 4), (9, 4), (10, 4), (11, 4), (12, 4))])


def test_schonheim_bound():
    assert schonheim_bound(9, 6, 5) == 27 and schonheim_bound(10, 7, 5) == 16
    for n, k, t, value in EXACT_COVERINGS:
        assert math.ceil(math.comb(n, t) / math.comb(k, t)) <= schonheim_bound(n, k, t) <= value


# without the stop these searches took 36 and 9,691 nodes; the setup takes
# C(n, k) of them
@pytest.mark.parametrize("n,k,t,nodes", [(7, 3, 2, 35), (9, 3, 2, 9671)])
def test_covering_stops_at_the_schonheim_bound(n, k, t, nodes):
    # L(7, 3, 2) = 7 and L(9, 3, 2) = 12 are met, and no built-in seed meets
    # them, so the search ends once its incumbent reaches them: at (7, 3, 2)
    # the greedy cover does, before any search node
    assert min(map(len, covering._built_in_seeds(n, k, t))) > schonheim_bound(n, k, t)
    cert = covering_number(n, k, t)
    assert cert.exact and cert.value == schonheim_bound(n, k, t)
    assert cert.nodes_expanded == nodes


# Search trees pinned at their ends, node counts and blocks: a change to the
# branching order, the bounds or the node accounting fails these. Blocks are
# given by their complements, the edges on the transversal side;
# C(9, 6, 5) = c_star(9, 3) and C(10, 7, 5) = c_star(10, 3).
PINNED_COVERS = (
    (9, 6, 3, None, 7, 7, 449247,
     [(1, 6, 7), (2, 3, 4), (2, 3, 5), (4, 5, 8), (4, 5, 9), (6, 8, 9), (7, 8, 9)]),
    (8, 5, 3, None, 8, 8, 343,
     [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (5, 6, 7), (5, 6, 8), (5, 7, 8),
      (6, 7, 8)]),
    (9, 6, 5, 300000, 30, 30, 20798,
     [(1, 2, 4), (1, 2, 7), (1, 3, 6), (1, 3, 9), (1, 4, 5), (1, 4, 7), (1, 4, 8),
      (1, 5, 7), (1, 6, 9), (1, 7, 8), (2, 3, 5), (2, 3, 8), (2, 4, 7), (2, 5, 6),
      (2, 5, 8), (2, 5, 9), (2, 6, 8), (2, 8, 9), (3, 4, 6), (3, 4, 9), (3, 5, 8),
      (3, 6, 7), (3, 6, 9), (3, 7, 9), (4, 5, 7), (4, 6, 9), (4, 7, 8), (5, 6, 8),
      (5, 8, 9), (6, 7, 9)]),
    (10, 7, 5, 300000, 18, 20, 300000,
     [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4),
      (2, 3, 5), (2, 4, 5), (3, 4, 5), (6, 7, 8), (6, 7, 9), (6, 7, 10), (6, 8, 9),
      (6, 8, 10), (6, 9, 10), (7, 8, 9), (7, 8, 10), (7, 9, 10), (8, 9, 10)]),
)


@pytest.mark.parametrize("n,k,t,cap,lo,hi,nodes,complements", PINNED_COVERS)
def test_covering_search_tree_is_pinned(n, k, t, cap, lo, hi, nodes, complements):
    budget = None if cap is None else Budget(max_nodes=cap)
    cert = covering_number(n, k, t, budget)
    assert (cert.lo, cert.hi, cert.nodes_expanded) == (lo, hi, nodes)
    full = (1 << n) - 1
    assert sorted(members_of(full ^ b) for b in cert.blocks) == complements


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
    assert cut.witness_tau.exact is False
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
    # C(7, 4, 3) = 12: the lower end is 11 and the cyclic seed has 12 blocks
    cert = covering_number(7, 4, 3, Budget(max_nodes=2, max_seconds=60.0))
    assert not cert.exact
    assert cert.lo <= 12 <= cert.hi
    assert cert.status == "interval"


def test_setup_cut_keeps_a_valid_seed():
    # parts i and iii are C(21, 18, 5) and C(21, 18, 6): the 6 and 7
    # disjoint edges of their seeds meet Schonheim's bound, so even a zero
    # budget proves them exact, without the 1,330-block setup
    (i, _, iii) = verify("lemma-cstar", {"n": 21, "k": 3}, budget=Budget(max_nodes=0))
    assert i.params["part"] == "i" and i.oracle_value == Bounds(6, 6)
    assert iii.params["part"] == "iii" and iii.oracle_value == Bounds(7, 7)
    # C(7, 4, 3): lower end 11, and Turan's cyclic seed of 12 blocks bounds
    # a cut setup from above
    cyclic = tuple(sorted(covering._turan_seed(7)))
    cert = covering_number(7, 4, 3, Budget(max_nodes=0))
    assert (cert.lo, cert.hi, cert.blocks, cert.nodes_expanded) == (11, 12, cyclic, 0)


def _fake_clock(monkeypatch):
    """A clock one second further on at each reading."""
    readings = iter(range(1_000_000))
    clock = SimpleNamespace(monotonic=lambda: float(next(readings)))
    monkeypatch.setattr(budget, "time", clock)


def test_setup_reads_the_clock_per_block(monkeypatch):
    # 35 blocks are far below the tick stride, yet the first block built
    # overruns 0.5 s; the sub-instance C(6, 3, 2) >= 6 cannot raise the
    # lower end 11, so it is not searched
    _fake_clock(monkeypatch)
    cert = covering_number(7, 4, 3, Budget(max_seconds=0.5))
    assert cert.status == "interval" and cert.nodes_expanded == 1
    assert (cert.lo, cert.hi) == (11, 12)


def test_clock_cut_inside_a_sub_instance(monkeypatch):
    # C(8, 5, 4) first searches C(7, 4, 3); the clock cuts that search at
    # its first block and then the outer setup at its own, and both nodes
    # count. The cut sub-instance leaves L(8, 5, 4) = 18 as the lower end.
    _fake_clock(monkeypatch)
    cert = covering_number(8, 5, 4, Budget(max_seconds=0.5))
    assert (cert.lo, cert.hi, cert.nodes_expanded) == (18, 20, 2)


def test_sub_instance_nodes_count_on_every_path():
    # C(9, 6, 5) >= ceil(9 C(8, 5, 4) / 6) = 30 and C(8, 5, 4) >=
    # ceil(8 C(7, 4, 3) / 5) = 20 both meet a seed, so all of their nodes
    # are those of the C(7, 4, 3) search, and each path that returns a seed
    # counts them
    inner = covering_number(7, 4, 3)
    assert inner.exact and inner.value == 12 and inner.nodes_expanded > 0
    for n, k, t, value in ((8, 5, 4, 20), (9, 6, 5, 30)):
        cert = covering_number(n, k, t)
        assert cert.exact and cert.value == value
        assert cert.nodes_expanded == inner.nodes_expanded


@pytest.mark.parametrize("max_nodes", [0, 1, 35, 36, 1000, 20798, 41595, 41596,
                                       41700, 51554, 103107, 103108, 103200])
def test_budget_cuts_keep_sound_ends(max_nodes):
    # the C(7, 4, 3) sub-instance takes 20,798 nodes and gets half of what
    # is left: below twice that it is cut and the lower end stays L = 18
    cert = covering_number(8, 5, 4, Budget(max_nodes=max_nodes))
    assert cert.nodes_expanded <= max_nodes
    assert (cert.lo, cert.hi) == ((20, 20) if max_nodes >= 41596 else (18, 20))


def test_outer_search_gets_back_what_a_sub_instance_leaves():
    # C(9, 6, 4): the sub-instance C(8, 5, 3), through its own C(7, 4, 2),
    # spends 343 of its 700 nodes; the outer setup then needs 84 more,
    # which only the nodes the sub-instance left can pay for
    cert = covering_number(9, 6, 4, Budget(max_nodes=1400))
    assert cert.exact and cert.value == 12 and cert.nodes_expanded == 427


def test_every_built_in_seed_is_a_cover():
    # every shape up to n = 10, and c_star(16, 3) and c_star(17, 3), where the
    # complements of H(n, 3) lead the seeds and tie the partition seed's 8
    shapes = [(n, k, t) for n in range(2, 11) for k in range(2, n) for t in range(1, k)]
    for n, k, t in shapes + [(16, 13, 5), (17, 14, 5)]:
        universe = list(k_subset_masks(n, t))
        seeds = covering._built_in_seeds(n, k, t)
        for seed in seeds:
            assert covering._valid_seed(seed, universe) is not None
            assert len(set(seed)) == len(seed)
            assert all(b.bit_count() == k and not b >> n for b in seed)
        if n >= 16:
            full = (1 << n) - 1
            assert seeds[0] == tuple(full ^ e for e in build_h_nk(n, 3).edges)
            assert len(seeds[0]) == len(seeds[1]) == 8


@pytest.mark.parametrize("n,k,t,size", [
    (11, 8, 5, 20),   # c_star(11, 3): a near-equal split of all 11 points gives 30
    (10, 7, 5, 20),   # c_star(10, 3)
    (18, 15, 5, 6),   # c_star(18, 3) = 2k disjoint edges from n = 2k^2
    (23, 19, 7, 17),  # c_star(23, 4): one more than H(23, 4)
    (26, 22, 7, 14),  # c_star(26, 4): two fewer than H(26, 4)
])
def test_partition_seed_size(n, k, t, size):
    assert len(covering._partition_seed(n, k, t)) == size


def test_c_star_k3_values():
    cert = c_star(9, 3, Budget(max_nodes=300000))
    assert cert.exact and cert.value == 30
    assert cert.witness_tau.tau == 6
    cert = c_star(10, 3, Budget(max_nodes=300000))
    assert 18 <= cert.lo <= cert.hi <= 20
    assert mut_kneser_formula(9, 3) == Bounds(54, 54)


def test_covering_certificate_json_shape():
    j = covering_number(8, 6, 3).as_json()
    assert j["n"] == 8 and j["k"] == 6 and j["t"] == 3
    assert j["value"] == 4 and j["status"] == "exact"
    assert all(list(b) == sorted(b) for b in j["blocks"])
