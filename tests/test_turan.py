import tracemalloc
from math import comb

import pytest

from mvlab.budget import Budget
from mvlab.errors import ConstraintError, DomainError
from mvlab.hypergraphs import hypergraph
from mvlab.turan import (
    _LIVE,
    _LinkTable,
    build_c4_suspension,
    build_k4_suspension,
    contains_pattern,
    ex_cap,
    ex_uniform,
    format_pattern,
    mubayi_asymptote,
    parse_pattern,
    reiman_c4_bound,
    turan_k4_closed,
)

from oracles import (
    C4_FREE_MAX,
    K4_FREE_MAX,
    brute_graph_turan,
    brute_uniform_turan_c4sus,
    pattern_free_graphs,
    reference_ex_uniform,
)


@pytest.mark.parametrize("n", (4, 5))
def test_c4_free_graph_counts_match_brute(n):
    r = ex_uniform(n, 2, build_c4_suspension(2))
    assert r.exact and r.value == C4_FREE_MAX[n] == brute_graph_turan(n, "c4")


@pytest.mark.parametrize("n", (6, 7, 8, 9, 10))
def test_c4_free_graph_counts_larger(n):
    r = ex_uniform(n, 2, build_c4_suspension(2))
    assert r.exact and r.value == C4_FREE_MAX[n]
    assert contains_pattern(r.witness, build_c4_suspension(2)) is None


@pytest.mark.parametrize("n", (4, 5))
def test_k4_free_graph_counts_match_brute(n):
    r = ex_uniform(n, 2, build_k4_suspension(2))
    assert r.exact and r.value == K4_FREE_MAX[n] == brute_graph_turan(n, "k4")


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_k4_free_matches_closed_form(n):
    r = ex_uniform(n, 2, build_k4_suspension(2))
    assert r.exact and r.value == turan_k4_closed(n) == n * n // 3


def test_suspended_c4_three_uniform():
    r = ex_uniform(5, 3, build_c4_suspension(3))
    assert r.exact and r.value == 6
    assert brute_uniform_turan_c4sus(5, 3) == 6
    assert contains_pattern(r.witness, build_c4_suspension(3)) is None


def test_witnesses_are_pattern_free_and_maximal():
    pat = build_c4_suspension(2)
    r = ex_uniform(6, 2, pat)
    assert contains_pattern(r.witness, pat) is None
    # a maximum witness is maximal: every absent edge creates the pattern
    from mvlab.subsets import k_subset_masks

    present = set(r.witness.edges)
    for m in k_subset_masks(6, 2):
        if m not in present:
            extended = hypergraph(6, list(present) + [m])
            assert contains_pattern(extended, pat) is not None


def test_pattern_builders_and_embedding():
    pat = build_c4_suspension(3)
    assert pat.k == 3 and pat.vertex_count == 5 and pat.edge_count == 4
    # a hypergraph that is exactly one suspended C4 contains the pattern
    h = hypergraph(9, [(1, 2, 9), (2, 3, 9), (3, 4, 9), (1, 4, 9)])
    hit = contains_pattern(h, pat)
    assert hit is not None
    apex, cycle = hit
    assert apex == (9,)
    assert sorted(cycle) == [1, 2, 3, 4]


def test_k4_pattern_embedding():
    pat = build_k4_suspension(2)
    h = hypergraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert contains_pattern(h, pat) is not None
    h2 = hypergraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert contains_pattern(h2, pat) is None


def test_contains_pattern_uniformity_check():
    pat = build_c4_suspension(3)
    with pytest.raises(DomainError):
        contains_pattern(hypergraph(5, [(1, 2)]), pat)
    # edgeless hypergraphs carry no pattern regardless of declared k
    assert contains_pattern(hypergraph(5, []), pat) is None


def test_parse_format_pattern():
    for spec in ("c4sus:k=2", "c4sus:k=4", "k4sus:k=3"):
        assert format_pattern(parse_pattern(spec)) == spec
    with pytest.raises(DomainError):
        parse_pattern("c5sus:k=2")
    with pytest.raises((ConstraintError, DomainError)):
        parse_pattern("c4sus:k=1")


def test_budget_interval_and_guide():
    r = ex_uniform(7, 3, build_c4_suspension(3), Budget(max_nodes=500, max_seconds=60.0))
    assert not r.exact
    assert r.bounds.lo <= r.bounds.hi
    j = r.as_json()
    assert j["status"] == "interval"
    assert j["asymptotic_guide"]["binding"] is False
    assert j["asymptotic_guide"]["value"] == mubayi_asymptote(7, 3)


def test_trivial_small_n():
    pat = build_c4_suspension(2)
    assert ex_uniform(1, 2, pat).value == 0
    # on fewer vertices than the pattern needs, every graph is pattern-free
    assert ex_uniform(3, 2, pat).value == 3


# Search trees pinned at their node counts and witnesses: a change to the
# branching order, the bound or the node accounting fails these.
C4SUS3_N7 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (3, 4, 5), (1, 2, 6),
             (3, 4, 6), (1, 5, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6), (1, 2, 7), (3, 4, 7),
             (5, 6, 7)]
PINNED_TREES = (
    (7, 2, build_c4_suspension(2), None, 9, 9, 1854,
     [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)]),
    (6, 2, build_k4_suspension(2), None, 12, 12, 110,
     [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (3, 5), (4, 5), (2, 6),
      (3, 6), (4, 6), (5, 6)]),
    (7, 3, build_c4_suspension(3), 5000, 15, 16, 5000, C4SUS3_N7),
    (8, 2, build_c4_suspension(2), None, 11, 11, 9397,
     [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (2, 6), (2, 7), (6, 7), (4, 8),
      (6, 8)]),
    # the optima and witnesses of the search before the degree bound
    (7, 3, build_c4_suspension(3), None, 15, 15, 28096, C4SUS3_N7),
    (7, 3, build_k4_suspension(3), None, 28, 28, 1773,
     [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 4, 5),
      (3, 4, 5), (1, 2, 6), (2, 3, 6), (1, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6),
      (3, 5, 6), (4, 5, 6), (1, 3, 7), (2, 3, 7), (1, 4, 7), (2, 4, 7), (1, 5, 7),
      (2, 5, 7), (3, 5, 7), (4, 5, 7), (1, 6, 7), (2, 6, 7), (3, 6, 7), (4, 6, 7)]),
    # floor(8 ex_cap(7, 2) / 3) = 24 edges close the search
    (8, 3, build_c4_suspension(3), None, 24, 24, 79,
     C4SUS3_N7 + [(1, 2, 8), (3, 4, 8), (5, 6, 8), (1, 7, 8), (2, 7, 8), (3, 7, 8),
                  (4, 7, 8), (5, 7, 8), (6, 7, 8)]),
    (10, 2, build_c4_suspension(2), None, 16, 16, 293552,
     [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (2, 6), (2, 7), (6, 7), (3, 8),
      (4, 9), (6, 9), (8, 9), (5, 10), (7, 10), (8, 10)]),
    # exact only with the link-completion table: the search without it
    # stops at [40, 42] after 10^7 nodes
    (8, 3, build_k4_suspension(3), None, 40, 40, 440603,
     [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5), (1, 2, 6),
      (1, 3, 6), (2, 4, 6), (3, 4, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6), (1, 2, 7), (2, 3, 7),
      (1, 4, 7), (3, 4, 7), (1, 5, 7), (3, 5, 7), (4, 5, 7), (1, 6, 7), (2, 6, 7), (3, 6, 7),
      (4, 6, 7), (1, 3, 8), (2, 3, 8), (1, 4, 8), (2, 4, 8), (1, 5, 8), (2, 5, 8), (4, 5, 8),
      (1, 6, 8), (2, 6, 8), (3, 6, 8), (4, 6, 8), (1, 7, 8), (2, 7, 8), (3, 7, 8),
      (5, 7, 8)]),
)


@pytest.mark.parametrize("n,k,pat,cap,lo,hi,nodes,witness", PINNED_TREES)
def test_search_tree_is_pinned(n, k, pat, cap, lo, hi, nodes, witness):
    budget = None if cap is None else Budget(max_nodes=cap)
    r = ex_uniform(n, k, pat, budget)
    assert (r.lo, r.hi, r.nodes_expanded) == (lo, hi, nodes)
    assert r.witness.edge_members() == witness
    assert contains_pattern(r.witness, pat) is None


# the former search, without the swap rule: k = 2 up to n = 8, k = 3 up to 6
REFERENCE_CASES = ([(n, 2, name) for name in ("c4sus", "k4sus") for n in range(4, 9)]
                   + [(n, 3, name) for name in ("c4sus", "k4sus") for n in (5, 6)])


@pytest.mark.parametrize("n,k,name", REFERENCE_CASES)
def test_swap_rule_keeps_the_optimum_and_witness(n, k, name):
    r = ex_uniform(n, k, parse_pattern(f"{name}:k={k}"))
    lo, hi, witness, _ = reference_ex_uniform(n, k, name)
    assert (r.lo, r.hi, r.witness.edge_members()) == (lo, hi, witness)
    # the link cap bounds every optimum the former search proves
    assert hi <= ex_cap(n, k, name)


def test_reference_search_is_the_former_search():
    # the node counts the search was pinned at before the swap rule
    assert reference_ex_uniform(7, 2, "c4sus")[3] == 52514
    assert reference_ex_uniform(6, 2, "k4sus")[3] == 301


# k = 3 at n <= 8 runs with the link-completion table, whose fill counts
# no nodes
@pytest.mark.parametrize("n,k,name", [(n, 2, name) for name in ("c4sus", "k4sus")
                                      for n in (6, 7, 8, 9)]
                         + [(n, 3, name) for name in ("c4sus", "k4sus") for n in (6, 7, 8)])
def test_swap_rule_never_lowers_a_cut_lower_end(n, k, name):
    pattern = parse_pattern(f"{name}:k={k}")
    for cap in (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000):
        r = ex_uniform(n, k, pattern, Budget(max_nodes=cap))
        assert r.lo >= reference_ex_uniform(n, k, name, cap)[0], cap


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("name", ("c4sus", "k4sus"))
def test_link_table_matches_the_extremal_graphs(m, name):
    # the key L | 1 << j is live iff L is the j-prefix of some pattern-free
    # graph on [m] with ex_cap(m, 2, name) edges; keys with a pattern in L
    # lie outside the table's contract and are never asked
    free = pattern_free_graphs(m, name[:2])
    target = ex_cap(m, 2, name)
    pairs = comb(m, 2)
    live = {x & ((1 << j) - 1) | 1 << j
            for x in free if x.bit_count() == target for j in range(pairs + 1)}
    table = _LinkTable(m, name)
    asked = 0
    for x in free:
        for j in range(pairs + 1):
            if x >> j == 0:
                key = x | 1 << j
                assert ((table.known[key] or table.fill(key)) == _LIVE) == (key in live), key
                asked += 1
    assert asked > len(live) > 0


def test_reiman_bound_matches_its_real_form():
    for n in range(1, 200):
        assert reiman_c4_bound(n) == int((n / 4) * (1 + (4 * n - 3) ** 0.5))
    # an upper bound on the exact maxima above
    assert all(C4_FREE_MAX[n] <= reiman_c4_bound(n) for n in C4_FREE_MAX)


def test_budget_cut_c4_interval_takes_the_reiman_cap():
    # past the exact table (n <= 10) the upper end is Reiman's bound, or
    # the averaging bound where smaller: here floor(11 ex(10, C4) / 9) = 19
    r = ex_uniform(11, 2, build_c4_suspension(2), Budget(max_nodes=1000))
    assert not r.exact
    assert r.hi == 19 == 11 * C4_FREE_MAX[10] // 9 == ex_cap(11, 2, "c4sus")
    assert reiman_c4_bound(11) == 20
    assert r.lo == 16 <= 18 <= r.hi  # ex(11, C4) = 18
    # the cap narrows the reported interval only; the search still runs to
    # its node budget
    assert r.nodes_expanded == 1000


def test_averaging_cap_stays_above_the_known_c4_free_maxima():
    # ex(11, C4) = 18 and ex(12, C4) = 21 (Clapham, Flockhart and Sheehan);
    # up to m = 79 the averaging bound tightens Reiman's only at these two
    assert ex_cap(11, 2, "c4sus") == 19 >= 18
    assert ex_cap(12, 2, "c4sus") == 22 >= 21
    for m in range(11, 80):
        cap = ex_cap(m, 2, "c4sus")
        assert cap <= reiman_c4_bound(m)
        assert (cap < reiman_c4_bound(m)) == (m in (11, 12))
        assert cap <= m * ex_cap(m - 1, 2, "c4sus") // (m - 2)
    # through the link recursion
    assert [ex_cap(12, 3, "c4sus"), ex_cap(13, 3, "c4sus"), ex_cap(13, 4, "c4sus")] == [
        76, 95, 247]


def test_budget_cut_k2_intervals_take_the_exact_table_and_turans_bound():
    c4 = ex_uniform(10, 2, build_c4_suspension(2), Budget(max_nodes=1000))
    assert not c4.exact and c4.hi == ex_cap(10, 2, "c4sus") == C4_FREE_MAX[10] == 16
    k4 = ex_uniform(8, 2, build_k4_suspension(2), Budget(max_nodes=10))
    assert not k4.exact and k4.hi == turan_k4_closed(8) == 21 < 28  # C(8, 2)


@pytest.mark.parametrize("m", range(1, 11))
def test_ex_cap_table_is_the_k2_search(m):
    # k = 2 has no degree bound, so the search re-derives the table exactly
    assert ex_uniform(m, 2, build_c4_suspension(2)).value == ex_cap(m, 2, "c4sus")


def test_ex_cap_never_passes_the_candidate_count():
    for j in range(2, 6):
        for m in range(13):
            for name in ("c4sus", "k4sus"):
                assert ex_cap(m, j, name) <= comb(m, j)


def test_budget_cut_uniform_interval_takes_the_link_cap():
    r = ex_uniform(9, 3, build_c4_suspension(3), Budget(max_nodes=1000))
    assert not r.exact and r.nodes_expanded == 1000
    assert r.hi == ex_cap(9, 3, "c4sus") == 33 < 84  # C(9, 3) candidates


def test_budget_cut_search_builds_only_the_rows_it_visits():
    # 91,390 candidate 4-sets: a table of all their splits would take tens
    # of MB; a 500-node search reaches a few hundred of them
    tracemalloc.start()
    try:
        r = ex_uniform(40, 4, build_c4_suspension(4), Budget(max_nodes=500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not r.exact and r.nodes_expanded == 500
    assert peak < 16 * 2**20


def test_deep_search_returns_an_interval():
    # the incumbent passes 1,000 included edges, deeper than the
    # interpreter's recursion limit allows a recursive search to go
    pat = build_c4_suspension(3)
    r = ex_uniform(50, 3, pat, Budget(max_nodes=300000))
    assert not r.exact and r.nodes_expanded == 300000
    assert 1000 < r.lo <= r.hi == ex_cap(50, 3, "c4sus") == 3033
    assert len(r.witness.edges) == r.lo
    assert contains_pattern(r.witness, pat) is None
