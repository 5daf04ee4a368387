import math

import networkx as nx
import pytest

from mvlab.errors import ConstraintError, DomainError
from mvlab.families import (
    bipartite_kneser,
    format_family,
    graph_context,
    johnson,
    kneser,
    parse_family,
)
from mvlab.subsets import KSubset

from oracles import bipartite_kneser_nx, graph_from_rows, johnson_nx, kneser_nx

_NX = {"kneser": kneser_nx, "johnson": johnson_nx, "bipartite-kneser": bipartite_kneser_nx}


def _to_nx(graph):
    """The production adjacency rows as a networkx graph on the indices."""
    return graph_from_rows(graph_context(graph).adj)


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
    ctx = graph_context(g)
    assert v.bits in ctx.index
    row = ctx.adj[ctx.index[v.bits]]
    nbrs = [KSubset(5, m) for j, m in enumerate(ctx.masks) if row >> j & 1]
    assert len(nbrs) == 3
    assert all(not v.bits & u.bits for u in nbrs)
    assert KSubset.from_members([1, 2, 3], 5).bits not in ctx.index


def _reference(graph):
    """The networkx generator's graph relabelled to the context's vertex
    indices, and its all-pairs distances."""
    index = graph_context(graph).index
    gen = _NX[graph.kind.value](graph.n, graph.k)
    ref = nx.relabel_nodes(gen, {s: index[sum(1 << (x - 1) for x in s)] for s in gen})
    return ref, dict(nx.all_pairs_shortest_path_length(ref))


@pytest.mark.parametrize("graph", (kneser(7, 2), kneser(7, 3), johnson(6, 3), johnson(8, 4),
                                   bipartite_kneser(6, 2), bipartite_kneser(7, 3),
                                   bipartite_kneser(9, 4)),
                         ids=format_family)
def test_layers_partition_the_vertices_by_distance(graph):
    ctx = graph_context(graph)
    v = len(ctx.masks)
    _, lengths = _reference(graph)
    # vertex-transitive: one eccentricity, which only vertex 0's BFS finds
    ecc = max(lengths[0].values())
    for i, layers in enumerate(ctx.layers):
        assert layers[0] == 1 << i
        assert len(layers) == max(lengths[i].values()) + 1 == ecc + 1
        union = 0
        for d, layer in enumerate(layers):
            assert layer and not layer & union
            union |= layer
            assert layer == sum(1 << j for j in range(v) if lengths[i][j] == d)
        assert union == (1 << v) - 1


@pytest.mark.parametrize("graph", (kneser(5, 2), kneser(7, 2), kneser(7, 3), kneser(8, 3),
                                   kneser(9, 4), johnson(6, 2), johnson(7, 3), johnson(8, 4),
                                   bipartite_kneser(5, 2), bipartite_kneser(7, 2),
                                   bipartite_kneser(7, 3), bipartite_kneser(9, 4)),
                         ids=format_family)
def test_context_matches_pairwise_scan_and_networkx(graph):
    # the oracle generators test every pair; their vertices are mapped to
    # indices through ctx.index, which must then cover every vertex
    ctx = graph_context(graph)
    v = len(ctx.masks)
    ref, lengths = _reference(graph)
    assert sorted(ref) == list(range(v))
    rows = [0] * v
    for i, j in ref.edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    assert ctx.adj == rows
    # layer d of vertex i: the vertices networkx puts at distance d from i
    assert ctx.layers == [
        [sum(1 << j for j, dj in lengths[i].items() if dj == d)
         for d in range(max(lengths[i].values()) + 1)] for i in range(v)]
