import itertools
import math

import networkx as nx
import pytest

from mvlab.errors import ConstraintError, DomainError
from mvlab.families import (
    FamilyKind,
    _adjacent_masks,
    bipartite_kneser,
    format_family,
    graph_context,
    johnson,
    kneser,
    parse_family,
)
from mvlab.subsets import KSubset

from oracles import bipartite_kneser_nx, johnson_nx, kneser_nx


def _to_nx(graph):
    g = nx.Graph()
    vs = graph.vertices()
    g.add_nodes_from(v.bits if graph.kind is not FamilyKind.BIPARTITE_KNESER
                     else (v.size, v.bits) for v in vs)
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if graph.adjacent(a, b):
                if graph.kind is FamilyKind.BIPARTITE_KNESER:
                    g.add_edge((a.size, a.bits), (b.size, b.bits))
                else:
                    g.add_edge(a.bits, b.bits)
    return g


def test_kneser_5_2_is_petersen():
    g = _to_nx(kneser(5, 2))
    assert g.number_of_nodes() == 10
    assert g.number_of_edges() == 15
    assert nx.is_isomorphic(g, nx.petersen_graph())


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3)])
def test_kneser_matches_reference_generator(n, k):
    ours = _to_nx(kneser(n, k))
    ref = kneser_nx(n, k)
    assert ours.number_of_nodes() == ref.number_of_nodes()
    assert ours.number_of_edges() == ref.number_of_edges()
    assert nx.is_isomorphic(ours, ref)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
def test_johnson_matches_reference_generator(n, k):
    ours = _to_nx(johnson(n, k))
    ref = johnson_nx(n, k)
    assert nx.is_isomorphic(ours, ref)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3)])
def test_bipartite_kneser_matches_reference_generator(n, k):
    ours = _to_nx(bipartite_kneser(n, k))
    ref = bipartite_kneser_nx(n, k)
    assert nx.is_isomorphic(ours, ref)
    assert nx.is_bipartite(ours)
    # both sides are C(n-k, k)-regular: a k-set extends to an (n-k)-set by
    # choosing n-2k of the n-k outside elements, and an (n-k)-set contains
    # C(n-k, k) many k-sets
    degs = {d for _, d in ours.degree()}
    assert degs == {math.comb(n - k, k)}


def test_vertex_order_colex_k_sets_first():
    g = bipartite_kneser(5, 2)
    vs = g.vertices()
    assert [v.size for v in vs[:10]] == [2] * 10
    assert [v.size for v in vs[10:]] == [3] * 10
    assert vs[0].members() == (1, 2)
    assert vs[1].members() == (1, 3)
    assert vs[2].members() == (2, 3)


def test_distances_match_bfs():
    for g in (kneser(6, 2), johnson(5, 2), bipartite_kneser(5, 2)):
        ref = _to_nx(g)
        lengths = dict(nx.all_pairs_shortest_path_length(ref))
        vs = g.vertices()
        for i, a in enumerate(vs):
            for b in vs[i:]:
                ka = (a.size, a.bits) if g.kind is FamilyKind.BIPARTITE_KNESER else a.bits
                kb = (b.size, b.bits) if g.kind is FamilyKind.BIPARTITE_KNESER else b.bits
                assert g.distance(a, b) == lengths[ka][kb]


def test_johnson_distance_closed_form():
    g = johnson(6, 3)
    vs = g.vertices()
    for a in vs:
        for b in vs:
            assert g.distance(a, b) == 3 - a.intersection_size(b)


def test_parse_format_round_trip():
    for spec in ("kneser:n=5,k=2", "bipartite-kneser:n=7,k=2", "johnson:n=6,k=3"):
        assert format_family(parse_family(spec)) == spec


def test_parse_family_rejects_garbage():
    for bad in ("kneser", "kneser:n=5", "petersen:n=5,k=2", "kneser:n=x,k=2"):
        with pytest.raises((DomainError, ConstraintError)):
            parse_family(bad)


def test_family_constraints():
    with pytest.raises(ConstraintError):
        kneser(4, 2)  # needs n >= 2k+1
    with pytest.raises(ConstraintError):
        bipartite_kneser(4, 2)
    with pytest.raises(ConstraintError):
        johnson(3, 3)  # needs n > k
    with pytest.raises(ConstraintError):
        kneser(5, 0)


def test_vertex_membership_and_neighbors():
    g = kneser(5, 2)
    v = KSubset.from_members([1, 2], 5)
    assert g.is_vertex(v)
    nbrs = list(g.neighbors(v))
    assert len(nbrs) == 3
    assert all(v.isdisjoint(u) for u in nbrs)
    assert not g.is_vertex(KSubset.from_members([1, 2, 3], 5))


def test_diameter_matches_reference():
    assert kneser(5, 2).diameter() == 2  # Petersen
    for g in (kneser(6, 2), johnson(6, 3), bipartite_kneser(5, 2)):
        assert g.diameter() == nx.diameter(_to_nx(g))


@pytest.mark.parametrize("graph", (kneser(7, 2), kneser(7, 3), johnson(6, 3),
                                   bipartite_kneser(6, 2), bipartite_kneser(7, 3)),
                         ids=format_family)
def test_layers_partition_the_vertices_by_distance(graph):
    ctx = graph_context(graph)
    v = len(ctx.masks)
    for i, layers in enumerate(ctx.layers):
        assert layers[0] == 1 << i
        assert len(layers) == max(ctx.dist[i]) + 1
        union = 0
        for d, layer in enumerate(layers):
            assert layer and not layer & union
            union |= layer
            assert layer == sum(1 << j for j in range(v) if ctx.dist[i][j] == d)
        assert union == (1 << v) - 1


@pytest.mark.parametrize("graph", (kneser(5, 2), kneser(7, 2), kneser(7, 3), kneser(8, 3),
                                   kneser(9, 4), johnson(6, 2), johnson(7, 3),
                                   bipartite_kneser(5, 2), bipartite_kneser(7, 2),
                                   bipartite_kneser(7, 3)),
                         ids=format_family)
def test_context_matches_pairwise_scan_and_networkx(graph):
    ctx = graph_context(graph)
    masks = ctx.masks
    v = len(masks)
    edges = [(i, j) for i, j in itertools.combinations(range(v), 2)
             if _adjacent_masks(graph, masks[i], masks[j])]
    rows = [0] * v
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    assert ctx.adj == rows
    ref = nx.Graph(edges)
    lengths = dict(nx.all_pairs_shortest_path_length(ref))
    assert all(isinstance(row, bytearray) for row in ctx.dist)
    assert [list(row) for row in ctx.dist] == [[lengths[i][j] for j in range(v)]
                                               for i in range(v)]
