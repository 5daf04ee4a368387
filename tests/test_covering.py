import itertools
import math

import pytest

from mvlab.budget import Budget, BudgetExhausted
from mvlab.covering import (
    c_star,
    covering_number,
    min_edges_with_tau,
    steiner_lower_bound,
)
from mvlab.errors import ConstraintError
from mvlab.hypergraphs import transversal_number

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


def test_covering_interval_on_tiny_budget():
    cert = covering_number(7, 5, 4, Budget(max_nodes=2, max_seconds=60.0))
    assert not cert.exact
    assert cert.lo <= 9 <= cert.hi
    assert cert.status == "interval"


def test_covering_certificate_json_shape():
    j = covering_number(8, 6, 3).as_json()
    assert j["n"] == 8 and j["k"] == 6 and j["t"] == 3
    assert j["value"] == 4 and j["status"] == "exact"
    assert all(list(b) == sorted(b) for b in j["blocks"])
