import functools
import itertools
import random
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab.budget import Budget, BudgetExhausted, SearchCounters
from mvlab.errors import DomainError, PreconditionError
from mvlab.families import bipartite_kneser, format_family, graph_context, johnson, kneser
from mvlab.subsets import KSubset, MaskOrbits
from mvlab.visibility import (
    PARAM_TO_VARIANT,
    VARIANT_TO_PARAM,
    Variant,
    _MonotoneSearch,
    _blocked_pair,
    _colex_least_witness,
    _max_monotone_bb,
    is_visibility_set,
    kneser_total_mv_check_fast,
    max_visibility_number,
    visibility_index,
)

from oracles import (
    MONOTONE_PARAMS,
    bipartite_kneser_nx,
    brute_gp,
    brute_parameter,
    graph_from_rows,
    johnson_nx,
    kneser_nx,
    oracle_predicate,
    reference_blocking_pair,
    reference_pair_visible,
)

PETERSEN_EXPECTED = {"mu": 6, "mu-total": 0, "mu-dual": 0, "mu-outer": 4}
J42_EXPECTED = {"mu": 5, "mu-total": 4, "mu-dual": 5, "mu-outer": 4}


@pytest.mark.parametrize("param,expected", sorted(PETERSEN_EXPECTED.items()))
def test_petersen_parameters_match_brute_force(param, expected):
    g = kneser(5, 2)
    cert = max_visibility_number(g, PARAM_TO_VARIANT[param])
    assert cert.exact and cert.value == expected
    assert brute_parameter(kneser_nx(5, 2), param) == expected


@pytest.mark.parametrize("param,expected", sorted(J42_EXPECTED.items()))
def test_johnson_4_2_parameters_match_brute_force(param, expected):
    g = johnson(4, 2)
    cert = max_visibility_number(g, PARAM_TO_VARIANT[param])
    assert cert.exact and cert.value == expected
    assert brute_parameter(johnson_nx(4, 2), param) == expected


def _hereditary(graph, param) -> bool:
    """Does every one-smaller subset of a valid set stay valid?"""
    count, is_valid = oracle_predicate(graph, param)
    return all(is_valid(x & ~(1 << i))
               for x in range(1 << count) if is_valid(x)
               for i in range(count) if x >> i & 1)


def test_oracle_properties_are_subset_monotone():
    # the oracles stop at the first size with no valid set, which is sound
    # only for subset-monotone properties; the dual property is not one
    for graph in (kneser_nx(5, 2), johnson_nx(4, 2)):
        assert all(_hereditary(graph, param) for param in MONOTONE_PARAMS)
    assert not _hereditary(johnson_nx(4, 2), "mu-dual")


def test_general_position_values():
    assert max_visibility_number(kneser(5, 2), Variant.GENERAL_POSITION).value == 6
    assert max_visibility_number(johnson(4, 2), Variant.GENERAL_POSITION).value == 3
    assert brute_gp(kneser_nx(5, 2)) == 6
    assert brute_gp(johnson_nx(4, 2)) == 3


def test_johnson_5_2_total_and_mutual():
    g = johnson(5, 2)
    assert max_visibility_number(g, Variant.TOTAL).value == 6
    assert max_visibility_number(g, Variant.MUTUAL).value == 8
    assert brute_parameter(johnson_nx(5, 2), "mu-total") == 6
    assert brute_parameter(johnson_nx(5, 2), "mu") == 8


def test_witness_revalidates():
    for g, variant in ((kneser(5, 2), Variant.MUTUAL),
                       (johnson(4, 2), Variant.DUAL),
                       (johnson(5, 2), Variant.TOTAL),
                       (kneser(6, 2), Variant.TOTAL)):
        cert = max_visibility_number(g, variant)
        assert cert.exact
        assert len(cert.witness) == cert.value
        assert is_visibility_set(g, cert.witness, variant).ok


def test_witness_maximality():
    # no single vertex extends an optimal mutual witness on the Petersen graph
    g = kneser(5, 2)
    cert = max_visibility_number(g, Variant.MUTUAL)
    chosen = set(v.bits for v in cert.witness)
    for v in g.vertices():
        if v.bits in chosen:
            continue
        assert not is_visibility_set(g, list(cert.witness) + [v], Variant.MUTUAL).ok


def test_total_sets_are_subset_closed():
    g = johnson(5, 2)
    cert = max_visibility_number(g, Variant.TOTAL)
    members = list(cert.witness)
    for drop in range(len(members)):
        sub = members[:drop] + members[drop + 1:]
        assert is_visibility_set(g, sub, Variant.TOTAL).ok


def test_blocking_pair_reported():
    g = kneser(5, 2)
    res = is_visibility_set(g, list(g.vertices()), Variant.MUTUAL)
    assert not res.ok
    assert res.blocking is not None
    u, v = res.blocking
    index = graph_context(g).index
    assert u.n == v.n == g.n and u.bits in index and v.bits in index


def test_sandwich_inequalities():
    for g in (kneser(5, 2), johnson(4, 2), johnson(5, 2)):
        vals = {p: max_visibility_number(g, PARAM_TO_VARIANT[p]).value
                for p in ("mu", "mu-total", "mu-dual", "mu-outer")}
        assert vals["mu-total"] <= vals["mu-dual"] <= vals["mu"]
        assert vals["mu-total"] <= vals["mu-outer"] <= vals["mu"]


def _reduction_pools():
    # kneser(6, 2) at density 1/2 with every singleton; every subset of
    # kneser(5, 2); seeded samples of kneser(7, 2), kneser(8, 3) and
    # kneser(9, 2) at densities from sparse (X passes) to dense (X fails).
    # Only kneser(9, 2) has 2k disjoint outside edges, so only there can a
    # cut budget still answer True
    g = kneser(6, 2)
    vs = g.vertices()
    rng = random.Random(11)
    pools = [[], list(vs)] + [[v] for v in vs]
    for _ in range(80):
        pools.append([v for v in vs if rng.random() < 0.5])
    yield g, pools
    g = kneser(5, 2)
    vs = g.vertices()
    yield g, [[v for i, v in enumerate(vs) if bits >> i & 1]
              for bits in range(1 << len(vs))]
    rng = random.Random(13)
    for g, count in ((kneser(7, 2), 300), (kneser(8, 3), 60), (kneser(9, 2), 100)):
        vs = g.vertices()
        pools = [[], list(vs)]
        for _ in range(count):
            p = rng.choice((0.02, 0.05, 0.1, 0.3, 0.6))
            pools.append([v for v in vs if rng.random() < p])
        yield g, pools


def test_fast_total_check_agrees_with_definitional():
    # the reduction with ceiling 2k agrees with the definitional check, and a
    # cut budget yields the right answer or BudgetExhausted, never a wrong one
    answers = {True: 0, False: 0}
    cut = {True: 0, False: 0, None: 0}
    for g, pools in _reduction_pools():
        for x in pools:
            expected = is_visibility_set(g, x, Variant.TOTAL).ok
            assert kneser_total_mv_check_fast(g.n, g.k, x) is expected
            answers[expected] += 1
            for nodes in (0, 1):
                try:
                    got = kneser_total_mv_check_fast(g.n, g.k, x, Budget(max_nodes=nodes))
                except BudgetExhausted:
                    got = None
                assert got in (expected, None)
                cut[got] += 1
    assert min(answers.values()) > 50 and min(cut.values()) > 0


def test_fast_total_check_under_a_cut_budget():
    g = kneser(6, 2)
    vs = g.vertices()
    cut = Budget(max_nodes=0)
    # one outside edge: the greedy upper bound 1 < 2k already decides
    assert kneser_total_mv_check_fast(6, 2, vs[1:], cut) is False
    # all 15 outside: tau = 5 >= 2k, which a cut search cannot prove
    assert kneser_total_mv_check_fast(6, 2, []) is True
    with pytest.raises(BudgetExhausted):
        kneser_total_mv_check_fast(6, 2, [], cut)


def test_fast_total_check_rejects_non_vertices():
    # the outside family is read off the graph's vertex masks, which would
    # silently ignore a foreign member; the input check must refuse it
    with pytest.raises(DomainError):
        kneser_total_mv_check_fast(6, 2, [KSubset.from_members([1, 2, 3], 6)])
    with pytest.raises(DomainError):
        kneser_total_mv_check_fast(6, 2, [KSubset.from_members([1, 2], 7)])
    for member in ((1, 2), 3):
        with pytest.raises(DomainError):
            kneser_total_mv_check_fast(6, 2, [member])
    with pytest.raises(PreconditionError):
        kneser_total_mv_check_fast(7, 3, [])


def test_budget_degrades_to_incomplete():
    g = kneser(6, 2)
    cert = max_visibility_number(g, Variant.MUTUAL, Budget(max_nodes=1, max_seconds=60.0))
    assert not cert.exact
    assert cert.status == "interval"
    assert 0 <= cert.lo <= g.vertex_count
    with pytest.raises(DomainError):
        cert.value  # a cut has no value, only the enclosure [lo, hi]
    # the partial witness must still be valid
    assert is_visibility_set(g, cert.witness, Variant.MUTUAL).ok


def test_canonicalisation_stops_within_the_budget():
    # the value search finishes in 14 nodes; making its optimum colex-least
    # takes the run to 41, past the 30 allowed, so the found optimum is kept
    g = johnson(5, 2)
    cert = max_visibility_number(g, Variant.TOTAL, Budget(max_nodes=30))
    assert cert.value == 6 and cert.status == "exact"
    assert is_visibility_set(g, cert.witness, Variant.TOTAL).ok
    assert cert.witness_canonical is False
    assert cert.as_json()["witness_canonical"] is False
    assert cert.nodes_expanded <= 30
    unbudgeted = max_visibility_number(g, Variant.TOTAL)
    assert unbudgeted.witness_canonical
    assert "witness_canonical" not in unbudgeted.as_json()


# (graph, variant, true optimum): every node budget cuts the search
# somewhere different, up to a full run
_CUT_RUNS = ((kneser(6, 2), Variant.OUTER, 9), (bipartite_kneser(5, 2), Variant.MUTUAL, 8))


@pytest.mark.parametrize("graph,variant,optimum", _CUT_RUNS,
                         ids=[f"{format_family(g)}-{v.value}" for g, v, _ in _CUT_RUNS])
def test_cut_runs_report_a_proven_upper_end(graph, variant, optimum):
    # K(6,2) mu-outer takes every budget up to its 68-node run; BK(5,2) mu,
    # 778 nodes, takes every budget to 127 and then every 53rd, which
    # keeps the sweep well under a second (all of them take about 3 s)
    full = max_visibility_number(graph, variant)
    assert full.exact and full.value == optimum
    budgets = [*range(1, min(128, full.nodes_expanded)),
               *range(128, full.nodes_expanded, 53), full.nodes_expanded]
    for nodes in budgets:
        cert = max_visibility_number(graph, variant, Budget(max_nodes=nodes))
        assert cert.lo <= optimum <= cert.hi < graph.vertex_count, nodes
        assert cert.bounds.lo == cert.lo and cert.bounds.hi == cert.hi
        assert is_visibility_set(graph, cert.witness, variant).ok
        if not cert.exact:
            assert cert.as_json()["bounds"] == [cert.lo, cert.hi]
    assert cert.exact and cert.witness == full.witness


# (graph, variant, optimum, node budget, proven hi): a cut exclude branch
# records the bound of dropping its vertex's whole orbit; the bound of
# dropping the vertex alone gave hi 24 and 26
_CUT_ORBIT_BOUNDS = ((kneser(7, 3), Variant.MUTUAL, 15, 2_000, 23),
                     (johnson(9, 2), Variant.TOTAL, 13, 3_000, 24))


@pytest.mark.parametrize("graph,variant,optimum,nodes,hi", _CUT_ORBIT_BOUNDS,
                         ids=[f"{format_family(g)}-{v.value}" for g, v, *_ in _CUT_ORBIT_BOUNDS])
def test_cut_exclude_branches_record_the_orbit_bound(graph, variant, optimum, nodes, hi):
    cert = max_visibility_number(graph, variant, Budget(max_nodes=nodes))
    assert cert.lo <= optimum <= cert.hi <= hi
    assert is_visibility_set(graph, cert.witness, variant).ok


def test_variant_parsing_and_rejects():
    g = johnson(4, 2)
    assert max_visibility_number(g, "dual").value == 5
    with pytest.raises(ValueError):
        max_visibility_number(g, "nonsense")


def test_bipartite_total_zero_small():
    g = bipartite_kneser(5, 2)
    assert max_visibility_number(g, Variant.TOTAL).value == 0


_NX = {"kneser": kneser_nx, "johnson": johnson_nx, "bipartite-kneser": bipartite_kneser_nx}


@pytest.mark.parametrize("param", ("mu", "mu-total", "mu-outer", "gp"))
@pytest.mark.parametrize("graph", (kneser(5, 2), kneser(6, 2), johnson(5, 2),
                                   bipartite_kneser(5, 2)), ids=format_family)
def test_root_fixed_search_matches_brute_force(graph, param):
    # the value search fixes vertex 0 in X; brute force fixes nothing
    nx_graph = _NX[graph.kind.value](graph.n, graph.k)
    expected = brute_gp(nx_graph) if param == "gp" else brute_parameter(nx_graph, param)
    cert = max_visibility_number(graph, PARAM_TO_VARIANT[param])
    assert cert.exact and cert.value == expected
    if expected == 0:
        # including vertex 0 fails at the root, so no other node is expanded
        assert cert.witness == () and cert.nodes_expanded == 1


def test_rejects_non_vertices():
    g = kneser(5, 2)
    # a foreign size, a foreign ground set, and members that are no KSubset
    for member in (KSubset.from_members([1, 2, 3], 5), KSubset.from_members([1, 2], 6),
                   (1, 2), 3):
        with pytest.raises(DomainError):
            is_visibility_set(g, [member], Variant.MUTUAL)


def test_certificate_json_canonical_order():
    cert = max_visibility_number(johnson(4, 2), Variant.MUTUAL)
    j = cert.as_json()
    assert j["value"] == 5
    for members in j["witness"]:
        assert members == sorted(members)
    # witness lists come out in colex order of the underlying sets
    assert j["witness"] == sorted(j["witness"], key=lambda m: m[::-1])


# diameter 2 (Kneser n >= 3k-1, J(6,2)) and a bipartite graph with pairs
# at distance 2, 3 and 4, so the mask, the rows and the layered test all run
MIXED_GRAPHS = (kneser(7, 2), johnson(6, 2), bipartite_kneser(5, 2))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.sampled_from(MIXED_GRAPHS), st.data())
def test_midpoint_mask_matches_pair_visible(graph, data):
    idx = visibility_index(graph)
    through, mid = idx.pairs_through()
    v = idx.v
    x = data.draw(st.integers(0, (1 << v) - 1), label="X")
    i = data.draw(st.integers(0, v - 1), label="i")
    j = data.draw(st.integers(0, v - 1).filter(lambda j: j != i), label="j")
    d = next(d for d, layer in enumerate(idx.ctx.layers[i]) if layer >> j & 1)
    slot = mid[i][j]
    assert slot == mid[j][i]
    # a nonzero mask at distance 2, rows at distance 3, 0 otherwise
    assert isinstance(slot, tuple) == (d == 3)
    assert (isinstance(slot, int) and slot != 0) == (d == 2)
    if d == 2:
        assert slot == idx.ctx.adj[i] & idx.ctx.adj[j]
        assert bool(slot & ~x) == idx.pair_visible(i, j, x)
    elif d == 3:
        assert _rows_visible(slot, x) == idx.pair_visible(i, j, x)
    else:
        assert slot == 0
    # through[w] keys each pair a < b at distance 3 or more with w inside
    # a geodesic by its lower end, in increasing order
    w = data.draw(st.integers(0, v - 1), label="w")
    dist = [{b: d for d, layer in enumerate(idx.ctx.layers[a]) for b in range(v)
             if layer >> b & 1} for a in (w, *range(v))]
    to_w, dist = dist[0], dist[1:]
    expected = {}
    for a in range(v):
        for b in range(a + 1, v):
            if dist[a][b] >= 3 and w not in (a, b) and to_w[a] + to_w[b] == dist[a][b]:
                expected[a] = expected.get(a, 0) | 1 << b
    assert through[w] == expected and list(through[w]) == sorted(expected)


def _rows_visible(rows, x: int) -> bool:
    """The distance-3 test of pairs_through: some a outside X whose row
    meets the complement of X."""
    return any(a_bit & ~x and row & ~x for a_bit, row in rows)


@PROPERTY
@given(st.sampled_from((bipartite_kneser(6, 2), bipartite_kneser(7, 2))), st.data())
def test_distance_three_rows_match_the_reference(graph, data):
    idx = visibility_index(graph)
    _, mid = idx.pairs_through()
    adj, layers = idx.ctx.adj, idx.ctx.layers
    pairs = [(i, j) for i in range(idx.v) for j in range(i + 1, idx.v)
             if layers[i][3] >> j & 1]
    i, j = data.draw(st.sampled_from(pairs), label="pair")
    rows = mid[i][j]
    # one row per a next to i and two from j: its neighbours next to j
    assert sum(a_bit for a_bit, _ in rows) == adj[i] & layers[j][2]
    internal = 0
    for a_bit, row in rows:
        assert row == adj[a_bit.bit_length() - 1] & adj[j]
        internal |= a_bit | row
    # X mostly inside the pair's internal vertices, so both answers occur
    x = (data.draw(st.integers(0, (1 << idx.v) - 1), label="inside") & internal
         | data.draw(st.integers(0, (1 << idx.v) - 1), label="anywhere"))
    expected = reference_pair_visible(adj, i, j, x)
    assert _rows_visible(rows, x) == expected
    assert idx.pair_visible(i, j, x) == expected


# diameters 2, 3, 3 and 7
REFERENCE_GRAPHS = (kneser(7, 2), johnson(6, 3), bipartite_kneser(6, 2),
                    bipartite_kneser(7, 3))
PAIR_VARIANTS = (Variant.MUTUAL, Variant.TOTAL, Variant.OUTER, Variant.DUAL)


@PROPERTY
@given(st.sampled_from(REFERENCE_GRAPHS), st.sampled_from(PAIR_VARIANTS), st.data())
def test_predicate_matches_the_pairwise_reference(graph, variant, data):
    idx = visibility_index(graph)
    adj = idx.ctx.adj
    # a small X mostly passes, so each source's final layer exits once its
    # targets are reached; its complement leaves targets when the frontier
    # runs dry
    members = data.draw(st.sets(st.integers(0, idx.v - 1)), label="X")
    if data.draw(st.booleans(), label="complement"):
        members = set(range(idx.v)) - members
    x = sum(1 << i for i in members)
    res = is_visibility_set(graph, idx.subset(members), variant)
    expected = reference_blocking_pair(adj, variant.value, x)
    assert res.ok == (expected is None)
    assert res.blocking == (None if expected is None else idx.subset(expected))
    i = data.draw(st.integers(0, idx.v - 1), label="i")
    j = data.draw(st.integers(0, idx.v - 1).filter(lambda j: j != i), label="j")
    assert idx.pair_visible(i, j, x) == reference_pair_visible(adj, i, j, x)


def _balls_and_idle_sets(idx) -> list[int]:
    """X for the predicate's control flow, as masks. The ball of each
    radius r below the eccentricity around vertex 0, and its complement,
    put vertex 0's mutual targets only in layers up to r, short of its last
    ring, or only beyond r. Then X with no obligated target for most
    sources: empty (none for mutual and outer) and single vertices (none
    for mutual)."""
    full = (1 << idx.v) - 1
    xs, ball = [], 0
    for layer in idx.ctx.layers[0][:-1]:
        ball |= layer
        xs += [ball, full & ~ball]
    return xs + [0, 1, 1 << idx.v // 2, 1 << idx.v - 1]


@pytest.mark.parametrize("variant", PAIR_VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("graph", REFERENCE_GRAPHS, ids=format_family)
def test_blocked_pair_matches_the_reference_on_balls_and_idle_sources(graph, variant):
    idx = visibility_index(graph)
    for x in _balls_and_idle_sets(idx):
        expected = reference_blocking_pair(idx.ctx.adj, variant.value, x)
        assert _blocked_pair(idx, variant, x) == expected, f"X = {x:#x}"


MONOTONE = (Variant.MUTUAL, Variant.TOTAL, Variant.OUTER, Variant.GENERAL_POSITION)


@PROPERTY
@given(st.sampled_from(MIXED_GRAPHS), st.sampled_from(MONOTONE), st.data())
def test_can_add_agrees_with_the_definitional_check(graph, variant, data):
    # grow a valid X in a random order, then ask whether one more vertex fits
    idx = visibility_index(graph)
    search = _MonotoneSearch(idx, variant, SearchCounters(None))
    order = data.draw(st.permutations(range(idx.v)), label="order")
    size = data.draw(st.integers(0, idx.v), label="size")
    chosen = 0
    for w in order[:size]:
        if search.can_add(w, chosen):
            chosen |= 1 << w
    members = [i for i in range(idx.v) if (chosen >> i) & 1]
    assert is_visibility_set(graph, idx.subset(members), variant).ok
    v = data.draw(st.sampled_from(order), label="v")
    if (chosen >> v) & 1:
        return
    grown = idx.subset(members + [v])
    assert search.can_add(v, chosen) == is_visibility_set(graph, grown, variant).ok


@PROPERTY
@given(st.sampled_from(REFERENCE_GRAPHS), st.data())
def test_clear_path_is_a_clear_geodesic(graph, data):
    idx = visibility_index(graph)
    adj, layers = idx.ctx.adj, idx.ctx.layers
    i = data.draw(st.integers(0, idx.v - 1), label="i")
    d = data.draw(st.integers(2, len(layers[i]) - 1), label="d")
    j = data.draw(st.sampled_from(_bits(layers[i][d])), label="j")
    levels = [layers[i][s] & layers[j][d - s] for s in range(1, d)]
    # X mostly inside the pair's geodesics, so both answers occur; endpoint
    # bits are ignored
    x = (data.draw(st.integers(0, (1 << idx.v) - 1), label="inside") & sum(levels)
         | data.draw(st.integers(0, (1 << idx.v) - 1), label="anywhere")
         & data.draw(st.integers(0, (1 << idx.v) - 1), label="sparse"))
    path = idx.clear_path(i, j, x)
    assert (path != 0) == reference_pair_visible(adj, i, j, x)
    assert idx.pair_visible(i, j, x) == (path != 0)
    if path:
        # d - 1 vertices outside X, one at each distance s from i and d - s
        # from j, each adjacent to the next
        assert path.bit_count() == d - 1 and not path & x
        steps = [path & level for level in levels]
        assert all(step.bit_count() == 1 for step in steps)
        walk = [1 << i, *steps, 1 << j]
        assert all(adj[a.bit_length() - 1] & b for a, b in zip(walk, walk[1:]))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# far pairs at distance 3 only (J(6, 3), bipartite-kneser(6, 2)) and up to
# 7 (bipartite-kneser(7, 3))
KEPT_PATH_GRAPHS = (*MIXED_GRAPHS, johnson(6, 3), bipartite_kneser(6, 2),
                    bipartite_kneser(7, 3))


@PROPERTY
@given(st.sampled_from(KEPT_PATH_GRAPHS), st.sampled_from(MONOTONE), st.data())
def test_kept_paths_leave_can_add_exact(graph, variant, data):
    # one search answers can_add while X grows, as down the DFS, then shrinks
    # or starts afresh, so the paths it keeps were found for other sets
    idx = visibility_index(graph)
    search = _MonotoneSearch(idx, variant, SearchCounters(None))
    chosen = 0
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        if data.draw(st.booleans(), label="fresh"):
            chosen = 0
        else:
            chosen &= data.draw(st.integers(0, (1 << idx.v) - 1), label="kept members")
        order = data.draw(st.permutations(range(idx.v)), label="order")
        for v in order[:data.draw(st.integers(0, idx.v), label="asked")]:
            if chosen >> v & 1:
                continue
            fits = is_visibility_set(graph, idx.subset(_bits(chosen | 1 << v)), variant).ok
            assert search.can_add(v, chosen) == fits
            if fits:
                chosen |= 1 << v


@functools.lru_cache(maxsize=None)
def _oracle_valid(graph, variant):
    """The networkx oracle's validity test on index masks of ``graph``."""
    return oracle_predicate(graph_from_rows(visibility_index(graph).ctx.adj),
                            VARIANT_TO_PARAM[variant])[1]


@PROPERTY
@given(st.sampled_from(MIXED_GRAPHS), st.sampled_from(MONOTONE), st.data())
def test_packing_bound_is_sound(graph, variant, data):
    # walk down from the root as the search does, deciding vertices in a
    # random order and carrying the packing through each step; at the end,
    # no valid X + S with S inside the undecided U beats |X| + |U| - m
    idx = visibility_index(graph)
    search = _MonotoneSearch(idx, variant, SearchCounters(None))
    full = (1 << idx.v) - 1
    chosen, undecided = 0, full
    packing, covered = search.pack(full, full)
    left = data.draw(st.integers(4, 12), label="undecided left")
    for v in data.draw(st.permutations(range(idx.v)), label="order"):
        if undecided.bit_count() <= left:
            break
        if not undecided >> v & 1:
            continue
        rest = undecided & ~(1 << v)
        if data.draw(st.booleans(), label="include") and search.can_add(v, chosen):
            chosen |= 1 << v
            undecided = rest & ~search.forced
            packing, covered = search.pack_include(v, chosen, undecided, packing, covered)
        else:
            undecided = rest
            packing, covered = search.pack_exclude(v, chosen, undecided, packing, covered)
    # a packing: sets inside X + U, each with a part in U, parts disjoint
    parts = [f & undecided for f in packing]
    assert all(not f & ~(chosen | undecided) for f in packing)
    assert all(parts) and sum(p.bit_count() for p in parts) == covered.bit_count()
    assert sum(parts) == covered
    # a fresh greedy on a random U' inside U gives a sound bound too
    sub = data.draw(st.integers(0, undecided), label="U'") & undecided
    fresh, _ = search.pack(chosen | sub, sub)
    valid = _oracle_valid(graph, variant)
    assert valid(chosen)
    u_bits = [1 << i for i in range(idx.v) if undecided >> i & 1]
    for u, m in ((undecided, len(packing)), (sub, len(fresh))):
        # the property is subset-monotone, so it is enough that no S of
        # one more than the bound allows is valid
        excess = u.bit_count() - m + 1
        pool = [b for b in u_bits if b & u]
        assert not any(valid(chosen | sum(c))
                       for c in itertools.combinations(pool, excess))


# ground sets of at most 6, so each test can afford all n! permutations
ORBIT_GRAPHS = (kneser(6, 2), johnson(6, 3), bipartite_kneser(5, 2))


@functools.lru_cache(maxsize=None)
def _vertex_permutations(graph):
    """Each permutation of the ground set, as the list of vertex images."""
    ctx = visibility_index(graph).ctx
    return [[ctx.index[sum(1 << p[e] for e in range(graph.n) if m >> e & 1)]
             for m in ctx.masks]
            for p in itertools.permutations(range(graph.n))]


def _stabiliser(graph, chosen):
    """The vertex permutations, induced by the ground set, that fix each
    member of X."""
    members = [i for i in range(visibility_index(graph).v) if chosen >> i & 1]
    return [p for p in _vertex_permutations(graph) if all(p[x] == x for x in members)]


@PROPERTY
@given(st.sampled_from(ORBIT_GRAPHS), st.data())
def test_orbits_match_the_stabiliser_of_x(graph, data):
    # the orbit read off X's atoms is v's image under every permutation of
    # [n] that fixes each member of X
    idx = visibility_index(graph)
    orbits = MaskOrbits(idx.ctx.masks, graph.n)
    members = data.draw(st.lists(st.integers(0, idx.v - 1), max_size=4), label="X")
    atoms, chosen = ((1 << graph.n) - 1,), 0
    for x in members:
        atoms = orbits.refine(atoms, idx.ctx.masks[x])
        chosen |= 1 << x
    # the atoms partition [n]: two elements share one iff each member of
    # X holds both or neither
    assert sum(atoms) == (1 << graph.n) - 1 and all(atoms)
    for e, f in itertools.combinations(range(graph.n), 2):
        together = any(a >> e & a >> f & 1 for a in atoms)
        assert together == all(idx.ctx.masks[x] >> e & 1 == idx.ctx.masks[x] >> f & 1
                               for x in members)
    v = data.draw(st.integers(0, idx.v - 1), label="v")
    expected = 0
    for p in _stabiliser(graph, chosen):
        expected |= 1 << p[v]
    assert orbits.orbit(v, atoms) == expected


@pytest.mark.parametrize("variant", MONOTONE)
@pytest.mark.parametrize("graph", ORBIT_GRAPHS, ids=format_family)
def test_undecided_vertices_stay_a_union_of_orbits(graph, variant):
    # excluding v's whole orbit is sound because, at every node, each
    # permutation of [n] that fixes every member of X maps U to itself
    nodes = []

    class Recording(_MonotoneSearch):
        def _dfs(self, chosen_mask, undecided_mask, *rest):
            nodes.append((chosen_mask, undecided_mask))
            super()._dfs(chosen_mask, undecided_mask, *rest)

    idx = visibility_index(graph)
    size, _, hi = Recording(idx, variant, SearchCounters(None)).run()
    assert size == hi == max_visibility_number(graph, variant).value
    # BK(5,2) has no nonempty total set, so the root is its only node
    assert nodes or size == 0
    for chosen, undecided in nodes:
        members = [u for u in range(idx.v) if undecided >> u & 1]
        for p in _stabiliser(graph, chosen):
            assert sum(1 << p[u] for u in members) == undecided


@pytest.mark.parametrize("graph", ORBIT_GRAPHS, ids=format_family)
def test_prefix_blocks_keep_the_prefix(graph):
    # every permutation of [n] that maps each block to itself maps the
    # vertices 0..w onto themselves, and the blocks are the longest runs
    # that do: a swap across a block boundary moves some vertex out. With
    # the whole of [n] as the one atom, the cells are the blocks
    idx = visibility_index(graph)
    orbits = MaskOrbits(idx.ctx.masks, graph.n)
    grounds = list(itertools.permutations(range(graph.n)))
    for w in range(idx.v):
        blocks = orbits.cut_by_prefix(((1 << graph.n) - 1,), w)
        assert sum(blocks) == (1 << graph.n) - 1
        assert all(not (b + (b & -b)) & b for b in blocks)  # runs of neighbours
        keeping = [images for p, images in zip(grounds, _vertex_permutations(graph))
                   if all(sum(1 << p[e] for e in range(graph.n) if b >> e & 1) == b
                          for b in blocks)]
        assert len(keeping) == prod(factorial(b.bit_count()) for b in blocks)
        for images in keeping:
            assert max(images[:w + 1]) == w
        for b in blocks[:-1]:
            e = b.bit_length() - 1
            swapped = [idx.ctx.index[m ^ 3 << e] if (m >> e ^ m >> e + 1) & 1 else i
                       for i, m in enumerate(idx.ctx.masks)]
            assert max(swapped[:w + 1]) > w


# (graph, variant, optimum, canonicalisation node cap); without the orbit
# includes these took 1,299,288, 97,339 and 48,418 nodes
_CANON_GUARDS = ((johnson(9, 2), Variant.TOTAL, 13, 60_000),
                 (kneser(7, 3), Variant.MUTUAL, 15, 15_000),
                 (kneser(8, 3), Variant.GENERAL_POSITION, 21, 8_000))


@pytest.mark.parametrize("graph,variant,value,cap", _CANON_GUARDS,
                         ids=[f"{format_family(g)}-{v.value}" for g, v, *_ in _CANON_GUARDS])
def test_orbit_includes_keep_canonicalisation_small(graph, variant, value, cap):
    idx = visibility_index(graph)
    counters = SearchCounters(None)
    mask, canonical = _colex_least_witness(idx, variant, value, counters, 0)
    assert canonical and mask.bit_count() == value
    assert is_visibility_set(graph, idx.subset(
        i for i in range(idx.v) if mask >> i & 1), variant).ok
    assert counters.nodes < cap


# (graph, variant, optimum, value-search node cap)
_ORBIT_GUARDS = ((johnson(8, 2), Variant.TOTAL, 11, 5_000),
                 (johnson(9, 2), Variant.TOTAL, 13, 20_000),
                 (bipartite_kneser(7, 2), Variant.MUTUAL, 28, 60_000))


@pytest.mark.parametrize("graph,variant,value,cap", _ORBIT_GUARDS,
                         ids=[f"{format_family(g)}-{v.value}" for g, v, *_ in _ORBIT_GUARDS])
def test_orbital_branching_keeps_the_value_search_small(graph, variant, value, cap):
    # without the orbit exclusions these took 100,104, 2,476,868 and
    # 225,399 value-search nodes
    counters = SearchCounters(None)
    size, _, hi = _max_monotone_bb(visibility_index(graph), variant, counters)
    assert size == hi == value
    assert counters.nodes < cap


@pytest.mark.parametrize("variant", (Variant.MUTUAL, Variant.TOTAL, Variant.OUTER))
@pytest.mark.parametrize("graph", MIXED_GRAPHS, ids=format_family)
def test_search_witnesses_pass_the_definitional_check(graph, variant):
    cert = max_visibility_number(graph, variant)
    assert cert.exact and cert.witness_canonical
    assert len(cert.witness) == cert.value
    assert is_visibility_set(graph, cert.witness, variant).ok


@pytest.mark.parametrize("variant", MONOTONE)
@pytest.mark.parametrize("graph", (kneser(5, 2), johnson(4, 2), johnson(5, 2),
                                   kneser(6, 2)), ids=format_family)
def test_witness_is_the_first_optimum_in_mask_order(graph, variant):
    # brute force: the least index mask of the optimum size that validates
    cert = max_visibility_number(graph, variant)
    idx = visibility_index(graph)
    found = 0
    for s in cert.witness:
        found |= 1 << idx.index_of(s)
    first = next(mask for mask in range(1 << idx.v)
                 if mask.bit_count() == cert.value
                 and is_visibility_set(graph, idx.subset(
                     i for i in range(idx.v) if mask >> i & 1), variant).ok)
    assert found == first


@PROPERTY
@given(st.sampled_from(MIXED_GRAPHS), st.sampled_from(MONOTONE), st.data())
def test_forced_vertices_are_exactly_the_blocked_ones(graph, variant, data):
    # grow X in a random order; every vertex can_add forces out must fail
    # the definitional check once added. At diameter 2 every constraint is
    # a forbidden set, and so is every general-position triple at any
    # diameter; there the forced vertices are all the blocked ones
    idx = visibility_index(graph)
    search = _MonotoneSearch(idx, variant, SearchCounters(None))
    order = data.draw(st.permutations(range(idx.v)), label="order")
    size = data.draw(st.integers(0, idx.v), label="size")
    chosen = forced = 0
    for v in order[:size]:
        if not search.can_add(v, chosen):
            continue
        chosen |= 1 << v
        forced |= search.forced
        members = [i for i in range(idx.v) if chosen >> i & 1]
        for u in range(idx.v):
            if search.forced >> u & 1:
                assert not chosen >> u & 1
                assert not is_visibility_set(graph, idx.subset(members + [u]),
                                             variant).ok
    diameter = max(len(layers) for layers in idx.ctx.layers) - 1
    if diameter > 2 and variant is not Variant.GENERAL_POSITION:
        return
    members = [i for i in range(idx.v) if chosen >> i & 1]
    for u in range(idx.v):
        if chosen >> u & 1:
            continue
        never = not is_visibility_set(graph, idx.subset([u]), variant).ok
        blocked = not is_visibility_set(graph, idx.subset(members + [u]), variant).ok
        assert blocked == bool(forced >> u & 1 or never)


# (value, colex-least witness), pinned from the search before it forward
# checked (the gp rows before general position took forbidden triples);
# each witness vertex is spelled as its members
PINNED_OPTIMA = (
    (kneser(7, 2), "mu", 16, "13 23 14 24 15 25 35 45 16 26 36 46 17 27 37 47"),
    (kneser(8, 2), "mu-outer", 24,
     "13 23 14 24 15 25 35 45 16 26 36 46 17 27 37 47 57 67 18 28 38 48 58 68"),
    (johnson(7, 2), "mu-total", 9, "12 13 14 15 45 16 36 17 27"),
    (johnson(6, 3), "mu", 15,
     "124 134 234 125 135 235 245 345 126 136 236 146 346 156 256"),
    (bipartite_kneser(5, 2), "mu", 8, "12 13 14 24 34 15 25 35"),
    (bipartite_kneser(6, 2), "mu", 16,
     "23 24 34 25 35 45 26 36 46 56 1235 1245 1345 1236 1246 1346"),
    (kneser(7, 3), "gp", 15, "123 124 134 125 135 145 126 136 146 156 127 137 147 157 167"),
    (johnson(7, 3), "gp", 7, "123 145 246 356 347 257 167"),
)


@pytest.mark.parametrize("graph,param,value,witness", PINNED_OPTIMA,
                         ids=[f"{format_family(g)}-{p}" for g, p, *_ in PINNED_OPTIMA])
def test_pinned_optima_and_witnesses(graph, param, value, witness):
    cert = max_visibility_number(graph, PARAM_TO_VARIANT[param])
    assert cert.exact and cert.witness_canonical
    assert cert.value == value
    assert [s.members() for s in cert.witness] == [
        tuple(int(c) for c in w) for w in witness.split()]


# (budget node cap or None, value, hi, nodes_expanded, witness_canonical): the
# value search's and canonicalisation's trees, pinned so that a refactor of
# their feasibility checks cannot move a node unseen
PINNED_SEARCHES = (
    (kneser(7, 2), "mu", None, 16, 16, 449, True),
    (kneser(8, 2), "mu-outer", None, 24, 24, 676, True),
    (bipartite_kneser(5, 2), "mu", None, 8, 8, 778, True),
    (johnson(6, 3), "gp", None, 6, 6, 134, True),
    (johnson(7, 2), "mu-total", None, 9, 9, 882, True),
    (kneser(7, 3), "mu", None, 15, 15, 11_704, True),
    (bipartite_kneser(7, 2), "mu", 8_000, 28, 37, 8_000, True),
    # pairs at distance 4 and more, and the outer and total filters on pairs
    # at distance 3
    (bipartite_kneser(7, 3), "mu", 20_000, 20, 48, 20_000, True),
    (bipartite_kneser(7, 2), "mu-outer", 8_000, 24, 24, 8_000, False),
    (bipartite_kneser(7, 2), "mu-total", 8_000, 24, 24, 8_000, False),
)


@pytest.mark.parametrize("graph,param,cap,value,hi,nodes,canonical", PINNED_SEARCHES,
                         ids=[f"{format_family(g)}-{p}" for g, p, *_ in PINNED_SEARCHES])
def test_pinned_search_trees(graph, param, cap, value, hi, nodes, canonical):
    budget = None if cap is None else Budget(max_nodes=cap)
    cert = max_visibility_number(graph, PARAM_TO_VARIANT[param], budget)
    assert (cert.lo, cert.hi, cert.nodes_expanded, cert.witness_canonical) == (
        value, hi, nodes, canonical)
