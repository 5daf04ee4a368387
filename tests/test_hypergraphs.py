import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab.budget import _TIME_CHECK_STRIDE, Budget, SearchCounters
from mvlab.constructions import build_h_nk
from mvlab.errors import DomainError, MvlabError
from mvlab.hypergraphs import (
    format_hypergraph,
    greedy_cover,
    hypergraph,
    independence_number,
    is_transversal,
    parse_hypergraph,
    solve_tau,
    transversal_number,
)

from oracles import benchmark_random_masks, brute_tau, reference_solve_tau


def _random_hypergraph(rng: random.Random, n: int, m: int):
    edges = []
    for _ in range(m):
        size = rng.randint(1, min(4, n))
        edges.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return edges


def test_tau_matches_brute_force():
    rng = random.Random(20260815)
    for _ in range(60):
        n = rng.randint(2, 9)
        edges = _random_hypergraph(rng, n, rng.randint(1, 10))
        h = hypergraph(n, edges)
        cert = transversal_number(h)
        assert cert.exact
        assert cert.tau == brute_tau(edges, n)
        assert is_transversal(h, cert.transversal.bits)
        assert cert.transversal.size == cert.tau


@st.composite
def _mixed_hypergraphs(draw):
    # 2n to 4n edges of sizes 2 to 4: dense enough that the search beats the
    # greedy start in about a quarter of the examples, so that the search,
    # not the incumbent, decides the witness there
    n = draw(st.integers(6, 16), label="n")
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=4)
    members = draw(st.lists(edge, min_size=2 * n, max_size=4 * n), label="edges")
    return n, [sum(1 << x for x in e) for e in members]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_mixed_hypergraphs())
def test_sibling_bans_keep_tau_and_witness(instance):
    # the banned kernel finds the plain-branching kernel's optimum and
    # witness, and that optimum is the brute-force tau. Node counts are not
    # compared: the matching bound over unbanned parts can be weaker than
    # over whole edges, so a few instances expand a node or two more
    n, masks = instance
    tau, mask, _, complete = solve_tau(masks, SearchCounters(None))
    assert complete
    assert (tau, mask) == reference_solve_tau(masks)
    edges = [tuple(x + 1 for x in range(n) if e >> x & 1) for e in masks]
    assert tau == brute_tau(edges, n)


@pytest.mark.parametrize("masks,expected", [
    ([11, 62, 63, 100, 152, 183, 197, 225, 240, 243], (3, 41, 7, True)),
    ([51, 78, 85, 148, 182, 209, 216], (2, 18, 4, True)),
    ([13, 65, 83, 98, 157, 189, 192, 220], (2, 65, 3, True)),
])
def test_mixed_sizes_branch_in_size_then_mask_order(masks, expected):
    # the minimal edges are searched in (size, mask) order; in mask order
    # alone these searches take 12, 5 and 1 nodes
    assert solve_tau(masks, SearchCounters(None)) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_mixed_hypergraphs(), st.data())
def test_ceiling_decides_tau_below_it(instance, data):
    # below the ceiling the answer is the plain call's tau and witness, after
    # no more nodes; at it, tau >= ceiling is proven, even by a cut search
    _, masks = instance
    tau, witness = reference_solve_tau(masks)
    plain = solve_tau(masks, SearchCounters(None))
    assert plain[:2] == (tau, witness)
    for c in range(tau + 2):
        got, mask, nodes, complete = solve_tau(masks, SearchCounters(None), ceiling=c)
        assert complete and (got < c) == (tau < c) and nodes <= plain[2]
        if tau < c:
            assert (got, mask) == (tau, witness)
        else:
            assert got == c
        cap = data.draw(st.integers(0, nodes), label="cap")
        got, mask, nodes, complete = solve_tau(
            masks, SearchCounters(Budget(max_nodes=cap)), ceiling=c)
        assert nodes <= cap and got <= c
        if got < c:
            assert all(e & mask for e in masks) and mask.bit_count() == got
        if complete:
            assert (got < c) == (tau < c)


def test_a_matching_at_the_ceiling_decides_before_any_node():
    # K6: a perfect matching of 3 edges proves tau >= 3 with no node; tau = 5
    k6 = [(1 << i) | (1 << j) for i in range(6) for j in range(i + 1, 6)]
    cut = SearchCounters(Budget(max_nodes=0))
    assert solve_tau(k6, cut, ceiling=3) == (3, 0, 0, True)
    assert solve_tau(k6, cut, ceiling=4) == (4, 0, 0, False)
    assert solve_tau(k6, SearchCounters(None), ceiling=4)[::3] == (4, True)
    assert solve_tau(k6, SearchCounters(None), ceiling=6)[::3] == (5, True)


def _mixed_masks() -> list[int]:
    """70 random edges of sizes 2 to 5 on 20 vertices."""
    rng = random.Random(7)
    return [sum(1 << x for x in rng.sample(range(20), rng.randint(2, 5)))
            for _ in range(70)]


# The kernel's search trees pinned at (tau, witness mask, nodes_expanded,
# complete): a change to the branching order, the bound or the node
# accounting fails these. Keys are (instance, ceiling, max_nodes).
PINNED_TAU = {
    ("random-00", None, None): (9, 2048152, 1727, True),
    ("random-01", None, None): (9, 362408, 713, True),
    ("random-02", None, None): (10, 9718665, 1167, True),
    ("random-03", None, None): (10, 15741490, 3156, True),
    ("random-04", None, None): (9, 7936258, 1363, True),
    ("random-05", None, None): (10, 174453, 1111, True),
    ("random-06", None, None): (9, 2100186, 849, True),
    ("random-07", None, None): (10, 14909978, 1232, True),
    ("random-08", None, None): (10, 2366357, 1065, True),
    ("random-09", None, None): (10, 537247, 1714, True),
    ("random-10", None, None): (10, 4235901, 1618, True),
    ("random-11", None, None): (9, 2181523, 671, True),
    ("h23-4", None, None): (8, 405829, 7985, True),
    ("mixed", None, None): (9, 314453, 33, True),
    # tau >= 9 proven below the greedy start of 10
    ("random-00", 9, None): (9, 0, 487, True),
    # cut past the first clock reading
    ("random-03", None, 2500): (10, 15741490, 2500, False),
}


def _pinned_instance(name: str) -> list[int]:
    if name == "h23-4":
        return list(build_h_nk(23, 4).edges)
    if name == "mixed":
        return _mixed_masks()
    return benchmark_random_masks(901)[int(name[-2:])]


@pytest.mark.parametrize("key", PINNED_TAU, ids=lambda key: "-".join(map(str, key)))
def test_kernel_search_tree_is_pinned(key):
    name, ceiling, cap = key
    masks = _pinned_instance(name)
    budget = None if cap is None else Budget(max_nodes=cap)
    assert solve_tau(masks, SearchCounters(budget), ceiling) == PINNED_TAU[key]


def test_greedy_cover_takes_the_most_new_bits_then_the_lowest_key():
    # keys 4, 2 and 7 each cover two bits: 2 is taken first; then 4, 7 and 1
    # cover one new bit each, and 1 is taken; 7 covers the last bit. The
    # keys come back in the order taken
    sets = {4: 0b0011, 2: 0b0110, 7: 0b1100, 1: 0b0001}
    assert greedy_cover(sets, 0b1111) == [2, 1, 7]
    # the most new bits beat a lower key
    assert greedy_cover({0: 0b001, 5: 0b111}, 0b111) == [5]
    assert greedy_cover(sets, 0) == []


def test_greedy_cover_rejects_sets_that_cannot_cover():
    with pytest.raises(MvlabError):
        greedy_cover({0: 0b01, 1: 0b01}, 0b11)
    with pytest.raises(MvlabError):
        greedy_cover({}, 0b1)


def test_tau_zero_iff_no_edges():
    cert = transversal_number(hypergraph(5, []))
    assert cert.tau == 0 and cert.transversal.size == 0


def test_kernel_node_cap_degrades_identically():
    # under every cap: an attained transversal, the true tau once complete
    masks = [0b111, 0b1010, 0b10100, 0b1001000, 0b10000001]
    h = hypergraph(8, masks)
    true_tau, _, _, complete = solve_tau(masks, SearchCounters(None))
    assert complete and true_tau == brute_tau(h.edge_members(), 8)
    for cap in (0, 1, 2, 3, 5, 8):
        counters = SearchCounters(Budget(max_nodes=cap))
        tau, mask, nodes, complete = solve_tau(masks, counters)
        assert nodes == counters.nodes <= cap
        assert is_transversal(h, mask) and mask.bit_count() == tau
        if complete:
            assert tau == true_tau
        else:
            assert tau >= true_tau


def test_kernel_reads_the_clock_every_stride():
    # a deadline already past stops the search at its first clock reading,
    # or at the node cap when that comes first
    rng = random.Random(11)
    masks = list({sum(1 << x for x in rng.sample(range(36), 4)) for _ in range(200)})
    h = hypergraph(36, masks)
    for cap, spent in ((10_000_000, _TIME_CHECK_STRIDE), (100, 100)):
        counters = SearchCounters(Budget(max_nodes=cap, max_seconds=-1.0))
        tau, mask, nodes, complete = solve_tau(masks, counters)
        assert (nodes, complete) == (spent, False)
        assert is_transversal(h, mask) and mask.bit_count() == tau
    cert = transversal_number(h, Budget(max_nodes=10_000_000, max_seconds=0.0))
    assert not cert.exact and cert.nodes_expanded == _TIME_CHECK_STRIDE


def test_gallai_identity_on_graphs():
    # tau + alpha = n; independence_number is a separate branching algorithm
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 10)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        h = hypergraph(n, edges)
        assert transversal_number(h).tau + independence_number(h) == n


def test_independence_rejects_non_graphs():
    with pytest.raises(DomainError):
        independence_number(hypergraph(4, [(1, 2, 3)]))


def test_format_parse_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = _random_hypergraph(rng, n, rng.randint(0, 6))
        h = hypergraph(n, sorted(set(edges)))
        again = parse_hypergraph(format_hypergraph(h))
        assert again.n == h.n and again.edges == h.edges


def test_parse_rejects_malformed():
    for text in ("", "5", "5 2\n1 1", "5 2\n2 1", "5 2\n1 2 3", "x y\n1 2",
                 "5 -2\n1 2"):
        with pytest.raises(DomainError):
            parse_hypergraph(text)


def test_hypergraph_validates_members():
    with pytest.raises(DomainError):
        hypergraph(3, [(1, 4)])
    with pytest.raises(DomainError):
        hypergraph(3, [()])  # mask 0: the empty set cannot be an edge

