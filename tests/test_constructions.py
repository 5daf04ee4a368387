import math

import pytest

from mvlab.constructions import (
    build_complete_uniform,
    build_generalized_triangle,
    build_h_nk,
    generalized_triangle_vertex_count,
)
from mvlab.errors import ConstraintError
from mvlab.hypergraphs import transversal_number

from oracles import brute_tau


@pytest.mark.parametrize("k", range(2, 7))
def test_generalized_triangle_tau_two(k):
    h = build_generalized_triangle(k)
    assert h.k == k
    assert h.n == generalized_triangle_vertex_count(k) == k + (k + 1) // 2
    cert = transversal_number(h)
    assert cert.exact and cert.tau == 2


@pytest.mark.parametrize("k", range(2, 5))
def test_generalized_triangle_matches_brute(k):
    h = build_generalized_triangle(k)
    assert brute_tau(h.edge_members(), h.n) == 2


def test_generalized_triangle_shape():
    # three edges, pairwise sharing a corner, no common vertex
    h = build_generalized_triangle(3)
    assert h.edge_count == 3
    a, b, c = h.edges
    assert a & b and b & c and a & c
    assert not a & b & c


@pytest.mark.parametrize("k", (4, 5, 6))
def test_complete_uniform_on_2k_minus_3(k):
    h = build_complete_uniform(2 * k - 3, k)
    assert h.edge_count == math.comb(2 * k - 3, k)
    cert = transversal_number(h)
    # any v-(k-1) vertices hit every edge; fewer leave k untouched vertices
    assert cert.exact and cert.tau == k - 2


def test_complete_uniform_brute_small():
    h = build_complete_uniform(5, 3)
    assert brute_tau(h.edge_members(), h.n) == 3


def test_h_nk_16_3():
    h = build_h_nk(16, 3)
    assert h.n == 16 and h.k == 3
    assert h.edge_count == 8
    cert = transversal_number(h)
    assert cert.exact and cert.tau == 6
    assert brute_tau(h.edge_members(), 16) == 6


@pytest.mark.parametrize("k", (3, 4))
def test_h_nk_general_tau_and_edge_count(k):
    n = 7 * k - 5
    h = build_h_nk(n, k)
    assert h.edge_count == 2 * math.comb(2 * k - 3, k) + 6
    assert transversal_number(h).tau == 2 * k


def test_offset_and_padding():
    base = build_generalized_triangle(3)
    padded = build_generalized_triangle(3, n=9, offset=2)
    assert padded.n == 9
    assert padded.edge_count == base.edge_count
    shifted = {tuple(m + 2 for m in e) for e in base.edge_members()}
    assert set(padded.edge_members()) == shifted


def test_construction_preconditions():
    with pytest.raises(ConstraintError):
        build_generalized_triangle(1)
    with pytest.raises(ConstraintError):
        build_complete_uniform(3, 4)  # needs v >= k
    with pytest.raises(ConstraintError):
        build_h_nk(10, 2)
