import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvlab.cli
from mvlab import hypergraphs, theorems
from mvlab.budget import Bounds, Budget, BudgetExhausted
from mvlab.errors import ConstraintError, DomainError, PreconditionError
from mvlab.theorems import (
    FormulaId,
    _Oracle,
    _disjoint_edges,
    _report,
    all_formula_ids,
    kneser2_all_params,
    mu_johnson_k2,
    mu_kneser_formula,
    mu_kneser_gp_lower_bound,
    mut_bipartite_formula,
    mut_kneser_formula,
    mut_johnson_value,
    parse_range,
    verify,
)
from mvlab.visibility import Variant


def _verdicts(reports):
    return [r.verdict for r in reports]


def test_parse_range_forms():
    assert parse_range(5) == (5, 5)
    assert parse_range("7") == (7, 7)
    assert parse_range("4..6") == (4, 6)
    assert parse_range((3, 9)) == (3, 9)
    with pytest.raises(DomainError):
        parse_range("6..4")
    with pytest.raises(DomainError):
        parse_range("x..y")


def test_unknown_formula_rejected():
    with pytest.raises(DomainError):
        verify("no-such-formula", {"n": 5, "k": 2})


def test_all_formula_ids_covers_enum():
    assert set(all_formula_ids()) == {f.value for f in FormulaId}


def test_formula_values_small():
    assert mut_kneser_formula(5, 2).value == 0
    assert mut_kneser_formula(6, 2).value == math.comb(6, 2) - 6
    assert mut_kneser_formula(8, 2).value == math.comb(8, 2) - 4
    assert mu_kneser_formula(8, 2).value == 24
    assert mut_bipartite_formula(5, 2).value == 0
    assert mut_bipartite_formula(7, 2).value == 2 * math.comb(7, 2) - 2 * 9
    assert mu_johnson_k2(6) == 12
    assert mu_kneser_gp_lower_bound(5, 2) == 4
    assert kneser2_all_params(8) == 24


def test_formula_preconditions():
    with pytest.raises(PreconditionError):
        mu_kneser_formula(7, 2)  # below 7k-5 and not the n=8 special case
    with pytest.raises(PreconditionError):
        mu_kneser_gp_lower_bound(5, 3)
    with pytest.raises(PreconditionError):
        kneser2_all_params(7)
    with pytest.raises(ConstraintError):
        mut_johnson_value(4, 1)  # parameter garbage, not a range issue


def test_mut_kneser_range_passes():
    reports = verify("mut-kneser", {"n": (5, 8), "k": 2})
    assert _verdicts(reports) == ["pass"] * 4
    oracle_values = [r.oracle_value.lo for r in reports]
    assert oracle_values == [0, 9, 16, 24]
    assert reports[0].oracle == "singleton-sweep"
    assert reports[3].oracle == "reduction-min-edges"


def test_precondition_skip_vs_constraint_error():
    # outside the stated formula range: a skipped row, not an exception
    reports = verify("mu-kneser", {"n": 7, "k": 2})
    assert len(reports) == 1
    assert reports[0].verdict == "skipped"
    assert reports[0].reason.startswith("precondition")
    # parameters for which the graph itself does not exist: an exception
    with pytest.raises(ConstraintError):
        verify("mut-kneser", {"n": 4, "k": 2})


def test_mu_kneser_witness_route():
    reports = verify("mu-kneser", {"n": 8, "k": 2})
    (r,) = reports
    assert r.verdict == "pass"
    assert r.oracle == "witness-only"
    assert r.certificates[0]["witness_size"] == 24
    assert r.certificates[0]["validates"] is True
    assert r.certificates[0]["construction"] == "disjoint-edges"


def test_mu_kneser_middle_range_takes_the_c_star_witness():
    # c*(17, 3) = 7, one edge fewer than the doubled construction H(17, 3),
    # whose complement (672) failed this row
    (r,) = verify("mu-kneser", {"n": 17, "k": 3})
    assert (r.verdict, r.formula_value, r.oracle_value) == (
        "pass", Bounds(673, 673), Bounds(673, 680))
    assert r.certificates[0]["construction"] == "c-star-witness"
    assert r.certificates[0]["validator"] == "transversal-reduction"


def test_mut_bipartite_first_range_and_witness():
    reports = verify("mut-bipartite", {"n": 5, "k": 2})
    assert _verdicts(reports) == ["pass"]
    assert reports[0].oracle == "singleton-sweep"
    reports = verify("mut-bipartite", {"n": 7, "k": 2})
    (r,) = reports
    assert r.verdict == "pass" and r.oracle == "witness-only"
    assert r.formula_value.value == 24


@pytest.mark.parametrize("formula,n", (("mu-bipartite-lb", 8), ("mut-bipartite", 9)))
def test_bipartite_rows_run_one_covering_search(monkeypatch, formula, n):
    # the formula bounds and the witness blocks come from one certificate,
    # so a row spends at most one node budget
    spent = []
    inner = theorems.covering_number

    def counted(*args, **kwargs):
        cert = inner(*args, **kwargs)
        spent.append(cert.nodes_expanded)
        return cert

    monkeypatch.setattr(theorems, "covering_number", counted)
    budget = Budget(max_nodes=1000)
    (r,) = verify(formula, {"n": n, "k": 2}, budget=budget)
    assert len(spent) == 1 and spent[0] <= budget.max_nodes
    assert r.verdict != "fail"


def test_mut_johnson_dual_route_agreement():
    reports = verify("mut-johnson", {"n": (4, 6), "k": 2})
    assert _verdicts(reports) == ["pass"] * 3
    assert [r.oracle_value.lo for r in reports] == [4, 6, 7]


def test_mut_johnson_k3_formula_values_are_exact():
    # the degree bound closes both Turan searches: ex_3(7) = 15, ex_3(8) = 24
    reports = verify("mut-johnson", {"n": (7, 8), "k": 3})
    assert _verdicts(reports) == ["pass"] * 2
    assert [r.formula_value for r in reports] == [Bounds(15, 15), Bounds(24, 24)]


def test_mu_johnson_k2_and_sandwich():
    reports = verify("mu-johnson-k2", {"n": (4, 5)})
    assert _verdicts(reports) == ["pass"] * 2
    reports = verify("mu-johnson-sandwich", {"n": 5, "k": 2})
    (r,) = reports
    assert r.verdict == "pass" and r.claim == "within"


def test_sandwich_at_k3_n8_has_exact_certificates():
    # the link-completion table closes ex(8, k4sus_3) at 40 (the search
    # without it stops at [40, 42] after 10^7 nodes); J(8, 3) itself is past
    # the definitional-search cap
    (r,) = verify("mu-johnson-sandwich", {"n": 8, "k": 3})
    assert r.formula_value == Bounds(24, 40)
    assert [(c["pattern"], c["value"], c["status"]) for c in r.certificates] == [
        ("c4sus:k=3", 24, "exact"), ("k4sus:k=3", 40, "exact")]
    assert r.verdict == "skipped"


def test_gp_lower_bound_witness():
    reports = verify("mu-kneser-gp-lb", {"n": 5, "k": 2})
    (r,) = reports
    assert r.verdict == "pass" and r.claim == "at-least"
    assert r.oracle == "witness"


def test_kneser2_all_params_rows():
    # kneser(26, 2) has 325 vertices, past the witness-check cap: the total
    # row keeps its uncapped edge-count oracle, and the witness is checked
    # by the transversal reduction
    for n, validator in ((8, "definitional"), (26, "transversal-reduction")):
        reports = verify("kneser2-all-params", {"n": n})
        assert [r.params["param"] for r in reports] == [
            "mu-total", "mu", "mu-dual", "mu-outer"]
        assert _verdicts(reports) == ["pass"] * 4
        assert reports[0].oracle == "reduction-min-edges"
        for r in reports[1:]:
            assert r.oracle == "witness-only"
            assert "upper bound from the exact total parameter" in r.reason
            assert r.certificates[-1]["validator"] == validator


def test_lemma_binom_rows():
    reports = verify("lemma-binom", {"n": (4, 12)})
    assert all(r.verdict == "pass" for r in reports)
    assert all(r.claim == "greater-than" for r in reports)
    # every (n, k) with k < n < 2k appears exactly once
    seen = {(r.params["n"], r.params["k"]) for r in reports}
    expected = {(n, k) for n in range(4, 13) for k in range(2, n)
                if k < n < 2 * k}
    assert seen == expected


def test_lemma_cstar_tau_mismatch_fails_its_row(monkeypatch):
    # H(n, k) has transversal number 2k, so only a broken kernel reaches this
    inner = theorems.transversal_number

    def off_by_one(h, budget=None):
        cert = inner(h, budget)
        return dataclasses.replace(cert, tau=cert.tau - 1)

    monkeypatch.setattr(theorems, "transversal_number", off_by_one)
    (ii,) = verify("lemma-cstar", {"n": 16, "k": 3})
    assert (ii.params["part"], ii.verdict, ii.claim) == ("ii", "fail", "at-most")
    assert ii.reason == "construction has transversal number 5, expected 6"
    assert ii.oracle_value is None and ii.formula_value == Bounds(8, 8)
    assert ii.certificates[0]["tau"] == 5


def test_lemma_cstar_parts():
    reports = verify("lemma-cstar", {"n": 8, "k": 2})
    parts = {r.params["part"]: r for r in reports}
    assert parts["i"].verdict == "pass"
    assert parts["i"].oracle == "covering-search"
    reports16 = verify("lemma-cstar", {"n": 16, "k": 3})
    parts16 = {r.params["part"]: r for r in reports16}
    assert parts16["ii"].verdict == "pass"
    assert parts16["ii"].claim == "at-most"
    assert parts16["ii"].oracle == "construction-tau"


def test_equivalence_sweep_no_disagreements():
    reports = verify("lemma-transversal-equiv", {"n": 6, "k": 2, "samples": 40},
                     seed=5)
    (r,) = reports
    assert r.verdict == "pass"
    cert = r.certificates[0]
    assert cert["disagreements"] == 0
    assert cert["seed"] == 5
    assert cert["random_samples"] == 40
    assert cert["subsets_checked"] >= 40 + 15 + 2  # samples + singletons + ends


# lemma-transversal-equiv at seed 0 with 200 samples, n -> (subsets checked,
# positives): the two ends, the singletons and every sample are checked, and
# at n >= 10 only the full vertex set is negative
PINNED_SWEEPS = {10: (247, 246), 11: (257, 256), 12: (268, 267)}


@pytest.mark.parametrize("n", sorted(PINNED_SWEEPS))
def test_pinned_equivalence_sweep_certificates(n):
    (r,) = verify("lemma-transversal-equiv", {"n": n, "k": 2, "samples": 200}, seed=0)
    checked, positives = PINNED_SWEEPS[n]
    assert r.verdict == "pass"
    assert r.certificates == ({"subsets_checked": checked, "random_samples": 200,
                               "seed": 0, "positives": positives, "disagreements": 0},)


def test_sandwich_dual_outer_chain():
    reports = verify("sandwich-dual-outer", {"family": "kneser:n=5,k=2"})
    (r,) = reports
    assert r.verdict == "pass" and r.claim == "chain"
    values = r.certificates[0]["values"]
    assert values["mu-total"] <= values["mu-dual"] <= values["mu"]
    assert values["mu-total"] <= values["mu-outer"] <= values["mu"]


def test_broken_sandwich_chain_fails_its_row(monkeypatch):
    # mu-dual above mu breaks the chain; no real graph reaches this
    values = {Variant.TOTAL: 3, Variant.DUAL: 6, Variant.OUTER: 4, Variant.MUTUAL: 5}
    monkeypatch.setattr(theorems, "_definitional", lambda graph, variant, budget:
                        _Oracle("definitional-search",
                                Bounds(values[variant], values[variant])))
    (r,) = verify("sandwich-dual-outer", {"family": "kneser:n=5,k=2"})
    assert (r.verdict, r.claim, r.reason) == ("fail", "chain", "an inequality fails")
    assert r.certificates == ({"values": {"mu-total": 3, "mu-dual": 6, "mu-outer": 4,
                                          "mu": 5}, "chain_holds": False},)


def test_budget_exhaustion_skips_not_fails():
    tiny = Budget(max_nodes=5, max_seconds=60.0)
    reports = verify("mut-kneser", {"n": 9, "k": 2}, budget=tiny)
    (r,) = reports
    assert r.verdict == "skipped"
    assert "budget" in r.reason


_CAPPED = [
    ("mut-kneser", {"n": 11, "k": 4}, "singleton-sweep",
     "kneser:n=11,k=4 has 330 vertices, above the 300-vertex witness-check cap"),
    ("mu-johnson-sandwich", {"n": 8, "k": 2}, "definitional-search",
     "johnson:n=8,k=2 has 28 vertices, above the 22-vertex definitional-search cap"),
    ("mu-johnson-k2", {"n": 26}, "witness-only",
     "johnson:n=26,k=2 has 325 vertices, above the 300-vertex witness-check cap"),
    ("mu-kneser-gp-lb", {"n": 26, "k": 2}, "witness",
     "kneser:n=26,k=2 has 325 vertices, above the 300-vertex witness-check cap"),
    ("sandwich-dual-outer", {"family": "kneser:n=7,k=2"}, "definitional-search",
     "kneser:n=7,k=2 has 21 vertices, above the 16-vertex dual-search cap"),
]


@pytest.mark.parametrize("formula,params,oracle,reason", _CAPPED,
                         ids=[c[0] for c in _CAPPED])
def test_static_cap_skips_name_the_cap(capsys, formula, params, oracle, reason):
    # a cap is decided before any search runs, so its reason is not a budget's
    (r,) = verify(formula, params)
    assert (r.verdict, r.oracle, r.reason) == ("skipped", oracle, reason)
    assert "budget" not in r.reason
    argv = ["verify", "--formula", formula]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    assert mvlab.cli.main(argv) == 3
    capsys.readouterr()


# small instances of every formula, covering every skip path of the ladder:
# a cap, cut searches, cut witness checks and cut tau calls
_BUDGET_SWEEP = (
    ("mut-kneser", {"n": (5, 9), "k": 2}),
    ("mu-kneser", {"n": 26, "k": 2}),
    ("mut-bipartite", {"n": (5, 8), "k": 2}),
    ("mu-bipartite-lb", {"n": 8, "k": 2}),
    ("mut-johnson", {"n": 6, "k": 2}),
    ("mut-johnson", {"n": 7, "k": 3}),
    ("mu-johnson-sandwich", {"n": 5, "k": 2}),
    ("mu-johnson-k2", {"n": 8}),
    ("mu-johnson-k2", {"n": 26}),
    ("mu-kneser-gp-lb", {"n": 5, "k": 2}),
    ("kneser2-all-params", {"n": (8, 9)}),
    ("kneser2-all-params", {"n": 26}),
    ("lemma-binom", {"n": 6}),
    ("lemma-cstar", {"n": 8, "k": 2}),
    ("lemma-cstar", {"n": 16, "k": 3}),
    ("lemma-transversal-equiv", {"n": 12, "k": 2, "samples": 50}),
    ("sandwich-dual-outer", {"family": "kneser:n=5,k=2"}),
)


@pytest.mark.parametrize("nodes", (0, 1, 10, 100, 1000))
def test_budget_cut_never_fails_a_row(nodes):
    assert {f for f, _ in _BUDGET_SWEEP} == set(all_formula_ids())
    budget = Budget(max_nodes=nodes)
    for formula, params in _BUDGET_SWEEP:
        for r in verify(formula, params, budget=budget):
            assert r.verdict in ("pass", "skipped"), (formula, r.params, r.reason)


def test_verify_tau_calls_honour_the_budget(monkeypatch):
    caps = []
    inner = hypergraphs.solve_tau

    def recorded(edges, counters, ceiling=None):
        caps.append(counters.budget.max_nodes)
        return inner(edges, counters, ceiling)

    monkeypatch.setattr(hypergraphs, "solve_tau", recorded)
    budget = Budget(max_nodes=1, max_seconds=0.01)
    # X = {} leaves all of K6 outside: its matching 3 < 2k = 4 leaves the
    # reduction to the search, and tau = 5 needs more than one node
    (r,) = verify("lemma-transversal-equiv", {"n": 6, "k": 2, "samples": 50},
                  budget=budget)
    assert (r.verdict, r.reason) == ("skipped", "oracle beyond budget")
    (ii,) = verify("lemma-cstar", {"n": 16, "k": 3}, budget=budget)
    assert (ii.params["part"], ii.verdict) == ("ii", "skipped")
    assert ii.certificates[0]["optimal"] is False
    assert caps and set(caps) == {1}


def test_budget_cut_equivalence_sweep_keeps_its_identity(monkeypatch, capsys):
    # the cut row names its sweep, its claim and its full params
    cut = Budget(max_nodes=0)
    (r,) = verify("lemma-transversal-equiv", {"n": 5, "k": 2}, budget=cut)
    assert (r.verdict, r.reason) == ("skipped", "oracle beyond budget")
    assert (r.oracle, r.claim) == ("equivalence-sweep", "equivalence")
    assert r.params == {"n": 5, "k": 2, "samples": 200}
    argv = ["verify", "--formula", "lemma-transversal-equiv", "--n", "5", "--k", "2",
            "--budget-nodes", "0", "--format", "json"]
    assert mvlab.cli.main(argv) == 3
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["oracle"], row["claim"]) == ("equivalence-sweep", "equivalence")
    assert row["params"] == {"k": 2, "n": 5, "samples": 200}

    # a disagreement found before the cut still fails the row
    def disagree_then_cut(n, k, x, budget):
        if x:
            raise BudgetExhausted
        return False              # the empty set is a total visibility set

    monkeypatch.setattr(theorems, "kneser_total_mv_check_fast", disagree_then_cut)
    (r,) = verify("lemma-transversal-equiv", {"n": 5, "k": 2})
    assert (r.verdict, r.oracle) == ("fail", "equivalence-sweep")
    cert = r.certificates[0]
    assert (cert["subsets_checked"], cert["disagreements"]) == (1, 1)


def test_report_json_shape_and_determinism():
    a = verify("mut-johnson", {"n": 4, "k": 2})
    b = verify("mut-johnson", {"n": 4, "k": 2})
    ja, jb = a[0].as_json(), b[0].as_json()
    assert ja == jb  # seconds excluded from the json form
    assert list(ja) == ["formula", "params", "claim", "formula_value",
                        "oracle_value", "verdict", "oracle", "certificates"]
    json.dumps(ja)  # must be serializable as-is
    assert a[0].seconds >= 0.0


def test_missing_required_params():
    with pytest.raises(DomainError):
        verify("mut-kneser", {"n": 5})
    with pytest.raises(DomainError):
        verify("sandwich-dual-outer", {"n": 5, "k": 2})
    # a parameter the formula never reads is an error, not a copied field
    for formula, params, key in (
            ("mut-kneser", {"n": 6, "k": 2, "samples": 5}, "samples"),
            ("mut-kneser", {"n": 6, "k": 2, "family": "kneser:n=5,k=2"}, "family"),
            ("sandwich-dual-outer", {"family": "kneser:n=5,k=2", "n": 5}, "n"),
            # nor is a k or samples that is not an integer, whole or as a string
            ("mut-kneser", {"n": 7, "k": 2.5}, "k"),
            ("mut-kneser", {"n": 7, "k": "x"}, "k"),
            ("lemma-transversal-equiv", {"n": 5, "k": 2, "samples": 2.5}, "samples"),
            ("lemma-transversal-equiv", {"n": 5, "k": 2, "samples": "x"}, "samples")):
        with pytest.raises(DomainError, match=repr(key)):
            verify(formula, params)
    (r,) = verify("mut-kneser", {"n": 7, "k": "2"})
    assert r.verdict == "pass" and r.params == {"k": 2, "n": 7}
    # samples is optional and counted from 0
    with pytest.raises(DomainError, match="samples"):
        verify("lemma-transversal-equiv", {"n": 5, "k": 2, "samples": -3})
    (r,) = verify("lemma-transversal-equiv", {"n": 5, "k": 2, "samples": 0})
    assert r.verdict == "pass" and r.certificates[0]["random_samples"] == 0
    (r,) = verify("lemma-transversal-equiv", {"n": 5, "k": 2, "samples": "3"})
    assert r.verdict == "pass" and r.certificates[0]["random_samples"] == 3


def test_every_row_is_built_by_report():
    # verdicts are settled in one place: no other code builds a row
    tree = ast.parse(Path(theorems.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "VerificationReport"]
    (report,) = [fn for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_report"]
    inside = set(ast.walk(report))
    assert calls and all(call in inside for call in calls)


def test_disjoint_edges_rejects_overfull_ground_set():
    assert _disjoint_edges(6, 2, 3) == [0b11, 0b1100, 0b110000]
    # a typed error, not an assert, so the check survives python -O
    with pytest.raises(ConstraintError):
        _disjoint_edges(5, 2, 3)


def test_bounds_basics():
    assert Bounds(3, 3).exact and Bounds(3, 3).value == 3
    assert Bounds(2, 5).as_json() == [2, 5]
    with pytest.raises(ValueError):
        Bounds(4, 2)
    with pytest.raises(ValueError):
        Bounds(2, 5).value


# ----------------------------------------------------------------------
# the verdict rule

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def _bounds(draw):
    lo = draw(st.integers(0, 12))
    return Bounds(lo, lo + draw(st.sampled_from((0, 0, 1, 3))))


# claim shape -> relation between a parameter value p (enclosed by the
# oracle) and a formula value q (enclosed by the formula)
_RELATION = {
    "equals": lambda p, q: p == q,
    "at-least": lambda p, q: p >= q,
    "at-most": lambda p, q: p <= q,
    "greater-than": lambda p, q: q > p,
    "within": lambda p, q: p == q,
}


@PROPERTY
@given(_bounds(), _bounds(), st.sampled_from(sorted(_RELATION)))
def test_report_decides_only_where_the_enclosures_do(f, o, claim):
    r = _report(FormulaId.MUT_KNESER, {}, f, _Oracle("definitional-search", o), claim=claim)
    rel = _RELATION[claim]
    pairs = [(p, q) for p in range(o.lo, o.hi + 1) for q in range(f.lo, f.hi + 1)]
    some = any(rel(p, q) for p, q in pairs)
    if claim == "within":      # every enclosed value lies in f
        every = all(any(rel(p, q) for q in range(f.lo, f.hi + 1))
                    for p in range(o.lo, o.hi + 1))
    else:
        every = all(rel(p, q) for p, q in pairs)
    if claim == "equals":      # an exact oracle that agrees with f on their overlap
        expected = "skipped" if not o.exact else ("pass" if some else "fail")
    else:
        expected = "pass" if every else ("fail" if not some else "skipped")
    assert r.verdict == expected


@PROPERTY
@given(_bounds(), st.integers(0, 16), st.integers(0, 4))
def test_witness_rule(f, size, extra):
    o = Bounds(size, size + extra)          # [witness size, |V|]
    r = _report(FormulaId.MU_KNESER, {}, f, _Oracle("witness-only", o))
    assert (r.verdict == "fail") == (size > f.hi or (f.exact and size < f.lo))
    assert not (r.verdict == "pass" and size < f.lo)
    if r.verdict == "skipped":
        assert not f.exact and size < f.lo
        assert r.reason.startswith(f"witness size {size} below proven formula range")


def _fails_validation(monkeypatch):
    # both validators refuse: the definitional one and, past its cap, the
    # transversal reduction
    def refuse(graph, members, variant):
        return False, {"witness_size": len(members), "validates": False}
    monkeypatch.setattr(theorems, "_validate_witness", refuse)
    monkeypatch.setattr(theorems, "kneser_total_mv_check_fast",
                        lambda n, k, x, budget: False)


def _assert_fail_row(r, vertex_count, construction):
    assert r.verdict == "fail"
    assert r.oracle_value == Bounds(0, vertex_count)
    assert r.reason == "witness fails the visibility predicate"
    assert r.certificates[-1]["construction"] == construction


@pytest.mark.parametrize("formula,params,budget,vertices,construction", [
    ("mu-kneser", {"n": 8, "k": 2}, None, 28, "disjoint-edges"),
    ("mu-kneser", {"n": 17, "k": 3}, None, 680, "c-star-witness"),
    ("mut-bipartite", {"n": 7, "k": 2}, None, 42, "covering-family-both-sides"),
    # n >= 2k^2 + k: the closed value, no covering search
    ("mut-bipartite", {"n": 10, "k": 2}, None, 90, "covering-family-both-sides"),
    ("mut-johnson", {"n": 7, "k": 3}, Budget(max_nodes=2000), 35,
     "pattern-free-edge-system"),
    ("mu-johnson-k2", {"n": 8}, None, 28, "clique-pattern-free-edge-system"),
    ("mu-kneser-gp-lb", {"n": 5, "k": 2}, None, 10, "common-element-star"),
])
def test_failed_validation_fails_the_row(monkeypatch, formula, params, budget,
                                         vertices, construction):
    _fails_validation(monkeypatch)
    (r,) = verify(formula, params, budget=budget)
    _assert_fail_row(r, vertices, construction)


def test_failed_transversal_reduction_fails_the_row(monkeypatch):
    # kneser(26, 2) has 325 vertices, past the definitional witness check
    monkeypatch.setattr(theorems, "kneser_total_mv_check_fast",
                        lambda n, k, x, budget: False)
    (r,) = verify("mu-kneser", {"n": 26, "k": 2})
    _assert_fail_row(r, 325, "disjoint-edges")
    assert r.certificates[-1]["validator"] == "transversal-reduction"


def test_failed_validation_fails_the_kneser2_witness_rows(monkeypatch):
    _fails_validation(monkeypatch)
    total, *rest = verify("kneser2-all-params", {"n": 8})
    assert total.verdict == "pass" and total.oracle == "reduction-min-edges"
    assert [r.params["param"] for r in rest] == ["mu", "mu-dual", "mu-outer"]
    for r in rest:
        _assert_fail_row(r, 28, "complement-four-disjoint-pairs")
