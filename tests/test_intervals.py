"""Budget-cut searches report proven intervals: at any node budget, the
enclosure of ex_uniform, covering_number and transversal_number holds the
pinned value, its witness attains the end it claims, and the search stays
inside the budget."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab.budget import Budget
from mvlab.constructions import build_h_nk
from mvlab.covering import covering_number
from mvlab.hypergraphs import is_transversal, transversal_number
from mvlab.turan import (
    build_c4_suspension,
    build_k4_suspension,
    contains_pattern,
    ex_uniform,
)

from oracles import C4_FREE_MAX, COVERING_NUMBERS, K4_FREE_MAX

TURAN_CASES = ([(n, 2, build_c4_suspension(2), v) for n, v in C4_FREE_MAX.items()]
               + [(n, 2, build_k4_suspension(2), v) for n, v in K4_FREE_MAX.items()]
               + [(5, 3, build_c4_suspension(3), 6), (7, 3, build_c4_suspension(3), 15),
                  (7, 3, build_k4_suspension(3), 28)])
# every seed meets the lower end on COVERING_NUMBERS, so these add cases
# that search: C(8, 5, 3) and C(8, 5, 4) through their sub-instances
COVERING_CASES = COVERING_NUMBERS + [(7, 4, 3, 12), (8, 5, 3, 8), (8, 5, 4, 20)]
TAU_CASES = [(7 * k - 5, k, 2 * k) for k in (3, 4)]  # tau(H(n, k)) = 2k

node_budgets = st.integers(min_value=0, max_value=4000)
_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_settings
@given(case=st.sampled_from(TURAN_CASES), nodes=node_budgets)
def test_turan_interval_holds_the_pinned_value(case, nodes):
    n, k, pattern, value = case
    r = ex_uniform(n, k, pattern, Budget(max_nodes=nodes))
    assert r.lo <= value <= r.hi
    assert r.nodes_expanded <= nodes
    assert r.witness.edge_count == r.lo
    assert contains_pattern(r.witness, pattern) is None


@_settings
@given(case=st.sampled_from(COVERING_CASES), nodes=node_budgets)
def test_covering_interval_holds_the_pinned_value(case, nodes):
    n, k, t, value = case
    cert = covering_number(n, k, t, Budget(max_nodes=nodes))
    assert cert.lo <= value <= cert.hi
    assert cert.nodes_expanded <= nodes
    assert len(cert.blocks) == cert.hi
    for tset in itertools.combinations(range(n), t):
        tm = sum(1 << x for x in tset)
        assert any(tm & b == tm for b in cert.blocks)


@_settings
@given(case=st.sampled_from(TAU_CASES), nodes=node_budgets)
def test_transversal_bound_holds_the_pinned_value(case, nodes):
    n, k, tau = case
    h = build_h_nk(n, k)
    cert = transversal_number(h, Budget(max_nodes=nodes))
    # a cut search proves only the upper end: its transversal
    assert cert.tau == tau if cert.exact else cert.tau >= tau
    assert cert.nodes_expanded <= nodes
    assert cert.transversal.size == cert.tau
    assert is_transversal(h, cert.transversal.bits)
