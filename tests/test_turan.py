import tracemalloc

import pytest

from mvlab.budget import Budget
from mvlab.errors import ConstraintError, DomainError
from mvlab.hypergraphs import hypergraph
from mvlab.turan import (
    build_c4_suspension,
    build_k4_suspension,
    contains_pattern,
    ex_uniform,
    format_pattern,
    mubayi_asymptote,
    parse_pattern,
    reiman_c4_bound,
    turan_k4_closed,
)

from oracles import C4_FREE_MAX, K4_FREE_MAX, brute_graph_turan, brute_uniform_turan_c4sus


@pytest.mark.parametrize("n", (4, 5))
def test_c4_free_graph_counts_match_brute(n):
    r = ex_uniform(n, 2, build_c4_suspension(2))
    assert r.exact and r.value == C4_FREE_MAX[n] == brute_graph_turan(n, "c4")


@pytest.mark.parametrize("n", (6, 7))
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
    edges = pat.edges_on((9,), (1, 2, 3, 4))
    h = hypergraph(9, edges)
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
PINNED_TREES = (
    (7, 2, build_c4_suspension(2), None, 9, 9, 52514,
     [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)]),
    (6, 2, build_k4_suspension(2), None, 12, 12, 301,
     [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (3, 5), (4, 5), (2, 6),
      (3, 6), (4, 6), (5, 6)]),
    (7, 3, build_c4_suspension(3), 5000, 15, 35, 5000,
     [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (3, 4, 5), (1, 2, 6),
      (3, 4, 6), (1, 5, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6), (1, 2, 7), (3, 4, 7),
      (5, 6, 7)]),
)


@pytest.mark.parametrize("n,k,pat,cap,lo,hi,nodes,witness", PINNED_TREES)
def test_search_tree_is_pinned(n, k, pat, cap, lo, hi, nodes, witness):
    budget = None if cap is None else Budget(max_nodes=cap)
    r = ex_uniform(n, k, pat, budget)
    assert (r.lo, r.hi, r.nodes_expanded) == (lo, hi, nodes)
    assert r.witness.edge_members() == witness


def test_reiman_bound_matches_its_real_form():
    for n in range(1, 200):
        assert reiman_c4_bound(n) == int((n / 4) * (1 + (4 * n - 3) ** 0.5))
    # an upper bound on the exact maxima above
    assert all(C4_FREE_MAX[n] <= reiman_c4_bound(n) for n in C4_FREE_MAX)


def test_budget_cut_c4_interval_takes_the_reiman_cap():
    r = ex_uniform(9, 2, build_c4_suspension(2), Budget(max_nodes=1000))
    assert not r.exact
    assert r.hi == 15 == reiman_c4_bound(9)
    assert r.lo <= 13 <= r.hi  # ex(9, C4) = 13
    # the cap narrows the reported interval only; the search still runs to
    # its node budget
    assert r.nodes_expanded == 1000


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
    assert 1000 < r.lo <= r.hi == 19600  # C(50, 3) candidates
    assert len(r.witness.edges) == r.lo
    assert contains_pattern(r.witness, pat) is None
