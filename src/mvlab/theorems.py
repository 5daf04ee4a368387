"""Closed formulas for the visibility parameters of the set-graph
families, each paired with an independent verification oracle.

Evaluators compute the published piecewise formulas exactly where they
are closed, and fall back to the covering / Turan searches for the
middle ranges, so a budget-limited search can degrade a formula value
to a proven interval. Preconditions mirror the stated ranges of the
results and are never extrapolated: a query outside the range raises a
precondition error naming the violated clause.

``verify`` binds every formula tag to an oracle and emits
VerificationReport rows. A graph parameter is checked through one oracle
ladder, ``_oracle``: each verifier names the rungs it may use, and the
first rung within reach of the graph runs.

- definitional-search: full branch-and-bound, up to 22 vertices (16 for
  the dual variant);
- singleton-sweep: up to 300 vertices, settles a zero value exactly, as
  total visibility sets are subset-closed: every singleton must fail;
- witness / witness-only: an explicit construction, validated by the
  definitional predicate up to 300 vertices and past that, on a Kneser
  graph with n >= 3k-1 and a variant other than general position, by the
  transversal reduction (no vertex cap); "witness" fully
  proves a bound-shaped claim, while "witness-only" marks an equality whose
  matching upper bound is not independently re-proved at this size;
- reduction-min-edges: the transversal characterization of total
  visibility in the disjointness graphs, with the minimum edge count found
  by the reference edge-subset search (no vertex cap).

The lemmas use covering-search, construction-tau, integer-arithmetic and
equivalence-sweep (seeded random subsets, definitional against reduction).

A witness comes from the certificate that proved its formula (c_star's
edge system, the covering family, the Turan edge system), or where the
value is closed from the closed form's construction. ``_report`` settles
every row from the formula enclosure and an ``_Oracle`` answer: "pass" when
the enclosures agree on their overlap (for equality claims the oracle must
be exact), "fail" on a contradiction or a refuted check, and "skipped"
otherwise. "equivalence" and "chain" rows have no enclosures and settle
themselves: they pass unless refuted or skipped. A skip reason says which
of two things stopped the oracle: a static cap, decided before any search
runs ("kneser:n=11,k=4 has 330 vertices, above the 300-vertex witness-check
cap"), or the caller's budget ("oracle beyond budget", "mu-dual search
beyond budget"). A precondition skip names the violated clause.

A valid construction of size s is the oracle enclosure [s, |V|]; one that
fails its validation fails the row. For a "witness-only" equality with
formula enclosure f this is the witness rule: fail when s > f.hi, or when
f is exact and s < f.lo; skipped when f is a proper interval and s < f.lo;
pass otherwise. So a witness larger than an interval formula fails (no
shipped construction reaches this), and mu-johnson-k2 skips a row whose
Turan search the budget cut short, since a smaller witness from an
unfinished search contradicts nothing. A cut c_star search still returns
valid blocks at its upper end, so mu-kneser's witness meets f.lo exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from enum import Enum
from math import comb
from typing import Callable, NamedTuple

from .budget import Budget, Bounds, BudgetExhausted, as_bounds, bounds_agree
from .constructions import build_h_nk
from .covering import (CoveringCertificate, CStarCertificate, c_star, covering_number,
                       min_edges_with_tau)
from .errors import ConstraintError, DomainError, PreconditionError
from .families import (FamilyGraph, FamilyKind, bipartite_kneser, format_family, johnson,
                       kneser, parse_family)
from .hypergraphs import transversal_number
from .subsets import KSubset
from .turan import Pattern, TuranResult, build_c4_suspension, build_k4_suspension, ex_uniform
from .visibility import (
    VARIANT_TO_PARAM,
    Variant,
    is_visibility_set,
    kneser_total_mv_check_fast,
    max_visibility_number,
)


class FormulaId(str, Enum):
    MUT_KNESER = "mut-kneser"
    MU_KNESER = "mu-kneser"
    MUT_BIPARTITE = "mut-bipartite"
    MU_BIPARTITE_LB = "mu-bipartite-lb"
    MUT_JOHNSON = "mut-johnson"
    MU_JOHNSON_SANDWICH = "mu-johnson-sandwich"
    MU_JOHNSON_K2 = "mu-johnson-k2"
    MU_KNESER_GP_LB = "mu-kneser-gp-lb"
    KNESER2_ALL_PARAMS = "kneser2-all-params"
    LEMMA_BINOM = "lemma-binom"
    LEMMA_CSTAR = "lemma-cstar"
    LEMMA_TRANSVERSAL_EQUIV = "lemma-transversal-equiv"
    SANDWICH_DUAL_OUTER = "sandwich-dual-outer"


def all_formula_ids() -> tuple[str, ...]:
    return tuple(f.value for f in FormulaId)


# vertex-count caps of the oracle ladder's rungs
DEFINITIONAL_SEARCH_CAP = 22
DUAL_SEARCH_CAP = 16
WITNESS_CHECK_CAP = 300


# ----------------------------------------------------------------------
# formula evaluators


def _kneser_minus_c_star(n: int, k: int, budget: Budget | None
                         ) -> tuple[Bounds, CStarCertificate | None]:
    """C(n,k) - c_star(n,k), closed as C(n,k) - 2k from n = 2k^2 on, with
    the c_star certificate it rests on (None where the value is closed)."""
    if n >= 2 * k * k:
        return as_bounds(comb(n, k) - 2 * k), None
    cert = c_star(n, k, budget)
    return Bounds(comb(n, k) - cert.hi, comb(n, k) - cert.lo), cert


def _mut_bipartite(n: int, k: int, budget: Budget | None
                   ) -> tuple[Bounds, CoveringCertificate | None]:
    """``mut_bipartite_formula`` with the C(n, n-k, 2k) certificate it
    rests on, so a verifier derives its witness from the same search; the
    certificate is None where the value is closed."""
    if k < 2 or n < 2 * k + 1:
        raise ConstraintError(f"need n >= 2k+1 and k >= 2, got n={n}, k={k}")
    if n <= 3 * k:
        return Bounds(0, 0), None
    if n >= 2 * k * k + k:
        return as_bounds(2 * comb(n, k) - 4 * k - 2), None
    cov = covering_number(n, n - k, 2 * k, budget)
    return Bounds(2 * comb(n, k) - 2 * cov.hi, 2 * comb(n, k) - 2 * cov.lo), cov


def mut_kneser_formula(n: int, k: int, budget: Budget | None = None) -> Bounds:
    """Total visibility number of the disjointness graph on k-subsets:
    0 up to n = 3k-1, C(n,k) - c_star(n,k) up to n = 2k^2 - 1, and
    C(n,k) - 2k from n = 2k^2 on."""
    if k < 2 or n < 2 * k + 1:
        raise ConstraintError(f"need n >= 2k+1 and k >= 2, got n={n}, k={k}")
    if n <= 3 * k - 1:
        return Bounds(0, 0)
    return _kneser_minus_c_star(n, k, budget)[0]


def mu_kneser_formula(n: int, k: int, budget: Budget | None = None) -> Bounds:
    """Mutual visibility number C(n,k) - c_star(n,k), proved for
    n >= 7k-5 and additionally for (n,k) = (8,2)."""
    return _mu_kneser(n, k, budget)[0]


def _mu_kneser(n: int, k: int, budget: Budget | None
               ) -> tuple[Bounds, CStarCertificate | None]:
    """``mu_kneser_formula`` with its c_star certificate, from which the
    verifier takes its witness (see ``_kneser_minus_c_star``)."""
    if k < 2:
        raise ConstraintError(f"need k >= 2, got {k}")
    if n < 7 * k - 5 and not (k == 2 and n == 8):
        raise PreconditionError(
            f"mutual visibility formula requires n >= 7k-5 = {7 * k - 5} "
            f"(or n=8 when k=2), got n={n}")
    return _kneser_minus_c_star(n, k, budget)


def mut_bipartite_formula(n: int, k: int, budget: Budget | None = None) -> Bounds:
    """Total visibility number of the containment graph: 0 up to n = 3k,
    2 C(n,k) - 2 C(n, n-k, 2k) in the middle, 2 C(n,k) - 4k - 2 from
    n = 2k^2 + k on."""
    return _mut_bipartite(n, k, budget)[0]


def _mu_bipartite_lb(n: int, k: int, budget: Budget | None
                     ) -> tuple[Bounds, CoveringCertificate | None]:
    """max{C(n,k), 2 C(n,k) - 2 C(n, n-k, 2k)}, a proven lower bound on
    the mutual visibility number of the containment graph, with the
    covering certificate it was taken from (see ``_mut_bipartite``)."""
    if k < 2:
        raise ConstraintError(f"need k >= 2, got {k}")
    if n < 3 * k + 1:
        raise PreconditionError(
            f"bipartite lower bound requires n >= 3k+1 = {3 * k + 1}, got n={n}")
    base = comb(n, k)
    other, cov = _mut_bipartite(n, k, budget)
    return Bounds(max(base, other.lo), max(base, other.hi)), cov


def _johnson_ex(n: int, k: int, build: Callable[[int], Pattern],
                budget: Budget | None) -> TuranResult:
    """The most edges of a k-uniform system on [n] free of ``build(k)``,
    for the (n, k) on which the one-swap graph's formulas are stated."""
    if k < 2 or n < k + 2:
        raise ConstraintError(f"need n >= k+2 and k >= 2, got n={n}, k={k}")
    return ex_uniform(n, k, build(k), budget)


def mut_johnson_value(n: int, k: int, budget: Budget | None = None) -> Bounds:
    """Total visibility number of the one-swap graph: the maximum edge
    count of a suspended-4-cycle-free k-uniform system on [n]."""
    return _johnson_ex(n, k, build_c4_suspension, budget).bounds


def mu_johnson_k2(n: int) -> int:
    """floor(n^2 / 3): the mutual visibility number of the one-swap
    graph on 2-subsets (and, by isomorphism, on (n-2)-subsets)."""
    if n < 4:
        raise ConstraintError(f"need n >= 4, got {n}")
    return n * n // 3


def mu_kneser_gp_lower_bound(n: int, k: int) -> int:
    """C(n-1, k-1): a general-position lower bound on the mutual
    visibility number of the disjointness graph, valid for 2n >= 5k-1."""
    if k < 2:
        raise ConstraintError(f"need k >= 2, got {k}")
    if 2 * n < 5 * k - 1:
        raise PreconditionError(
            f"general-position bound requires 2n >= 5k-1 = {5 * k - 1}, got n={n}")
    return comb(n - 1, k - 1)


def kneser2_all_params(n: int) -> int:
    """C(n,2) - 4: the common value of all four visibility parameters of
    the disjointness graph on 2-subsets, for n >= 8."""
    if n < 8:
        raise PreconditionError(f"four-parameter formula requires n >= 8, got n={n}")
    return comb(n, 2) - 4


# ----------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class VerificationReport:
    formula: FormulaId
    params: dict
    formula_value: Bounds | None
    oracle_value: Bounds | None
    verdict: str                      # pass | fail | skipped
    oracle: str
    claim: str = "equals"
    reason: str = ""
    certificates: tuple[dict, ...] = ()
    seconds: float = 0.0

    def as_json(self) -> dict:
        # seconds deliberately omitted: machine output is deterministic
        out: dict = {
            "formula": self.formula.value,
            "params": dict(self.params),
            "claim": self.claim,
            "formula_value": self.formula_value.as_json() if self.formula_value else None,
            "oracle_value": self.oracle_value.as_json() if self.oracle_value else None,
            "verdict": self.verdict,
            "oracle": self.oracle,
        }
        if self.reason:
            out["reason"] = self.reason
        out["certificates"] = [dict(c) for c in self.certificates]
        return out


def _settle(claim: str, f: Bounds, o: Bounds) -> str | None:
    """pass/fail per claim shape, None when the enclosures cannot decide."""
    if claim == "equals":
        return "pass" if bounds_agree(f, o) else "fail"
    if claim == "at-least":          # parameter >= f, oracle encloses parameter
        if o.lo >= f.hi:
            return "pass"
        if o.hi < f.lo:
            return "fail"
        return None
    if claim == "at-most":           # parameter <= f
        if o.hi <= f.lo:
            return "pass"
        if o.lo > f.hi:
            return "fail"
        return None
    if claim == "greater-than":      # f > o, both exact
        if f.lo > o.hi:
            return "pass"
        if f.hi <= o.lo:
            return "fail"
        return None
    if claim == "within":            # f encloses the oracle value
        if f.lo <= o.lo and o.hi <= f.hi:
            return "pass"
        if o.hi < f.lo or o.lo > f.hi:
            return "fail"
        return None
    raise DomainError(f"unknown claim shape {claim!r}")


class _Oracle(NamedTuple):
    """An oracle's answer: the oracle that ran (for the ladder, the rung
    that ran or the last one tried), its enclosure (None for a skip, which
    ``reason`` explains, and for the self-settled claims), its certificates,
    and whether it refuted the check it ran (``reason`` may say how)."""
    name: str
    value: Bounds | None = None
    certificates: tuple[dict, ...] = ()
    reason: str = ""
    refuted: bool = False


def _report(formula: FormulaId, params: dict, f: Bounds | None, oracle: _Oracle,
            claim: str = "equals", reason: str = "",
            certificates: tuple[dict, ...] = ()) -> VerificationReport:
    """The one place a row is built: its verdict settled from ``f`` and the
    oracle's answer, its certificates after ``certificates``, and the
    answer's reason, if any, in place of ``reason``. A refuted answer fails; a self-settled claim
    passes unless skipped for a reason; any other answer with no enclosure
    is a skip and needs a reason. A "witness-only" equality follows the
    witness rule (module docstring) and words its own reasons."""
    o, reason = oracle.value, oracle.reason or reason
    certificates += oracle.certificates
    if oracle.refuted:
        verdict = "fail"
    elif claim in ("equivalence", "chain"):
        verdict = "skipped" if reason else "pass"
    elif o is None:
        if not reason:
            raise DomainError(f"{formula.value}: a skipped row needs a reason")
        verdict = "skipped"
    elif f is None:
        raise DomainError(f"{formula.value}: a report needs the formula enclosure")
    elif claim == "equals" and oracle.name == "witness-only":
        size = o.lo                   # o = [witness size, |V|]
        if size > f.hi or (f.exact and size < f.lo):
            verdict = "fail"
            reason = f"validated witness has size {size}, formula says {f.as_json()}"
        elif size < f.lo:
            verdict = "skipped"
            reason = f"witness size {size} below proven formula range [{f.lo}, {f.hi}]"
        else:
            verdict = "pass"
    elif claim == "equals" and not o.exact:
        verdict = "skipped"
        reason = reason or f"oracle beyond budget; proven enclosure [{o.lo}, {o.hi}]"
    else:
        verdict = _settle(claim, f, o)
        if verdict is None:
            verdict, reason = "skipped", reason or "enclosures too loose to decide"
    return VerificationReport(formula, params, f, o, verdict, oracle.name, claim,
                              reason, certificates)


# ----------------------------------------------------------------------
# the oracle ladder


class _Witness(NamedTuple):
    """A construction for the witness rungs; ``members`` is None when the
    search that builds it was cut by the budget."""
    members: list[KSubset] | None
    construction: str
    certificates: tuple[dict, ...] = ()


def _past_cap(graph: FamilyGraph, variant: Variant, rung: str) -> str:
    """The static skip reason when ``graph`` is past the vertex cap of
    ``rung``, else ""."""
    if rung == "definitional-search":
        cap, what = ((DUAL_SEARCH_CAP, "dual-search") if variant is Variant.DUAL
                     else (DEFINITIONAL_SEARCH_CAP, "definitional-search"))
    else:
        cap, what = WITNESS_CHECK_CAP, "witness-check"
    if graph.vertex_count <= cap:
        return ""
    return (f"{format_family(graph)} has {graph.vertex_count} vertices, "
            f"above the {cap}-vertex {what} cap")


def _oracle(graph: FamilyGraph, variant: Variant, budget: Budget | None,
            rungs: tuple[str, ...],
            witness: Callable[[], _Witness] | None = None) -> _Oracle:
    """The oracle ladder (module docstring): run the first of ``rungs``
    within reach of ``graph``. Past every cap the answer is a skip naming
    the last cap; a rung the budget cuts short is an "oracle beyond budget"
    skip. The witness rungs check the construction ``witness()``."""
    reason = ""
    try:
        for rung in rungs:
            if rung == "reduction-min-edges":
                return _min_edges(graph, budget)
            reason = _past_cap(graph, variant, rung)
            if rung == "definitional-search" and not reason:
                return _definitional(graph, variant, budget)
            if rung == "singleton-sweep" and not reason:
                return _singleton_sweep(graph)
            # the reduction decides total visibility, which implies every
            # variant but general position
            reducible = (graph.kind is FamilyKind.KNESER
                         and graph.n >= 3 * graph.k - 1
                         and variant is not Variant.GENERAL_POSITION)
            if rung in ("witness", "witness-only") and (not reason or reducible):
                return _checked(rung, graph, variant, budget, witness(), not reason)
    except BudgetExhausted:
        return _Oracle(rung, None, reason="oracle beyond budget")
    return _Oracle(rung, None, reason=reason)


def _checked(rung: str, graph: FamilyGraph, variant: Variant, budget: Budget | None,
             w: _Witness, definitional: bool) -> _Oracle:
    """A valid construction of size s is the enclosure [s, |V|]."""
    if w.members is None:
        # a budget-cut search returns a smaller witness, not a contradiction
        return _Oracle(rung, None, w.certificates, "oracle beyond budget")
    if definitional:
        ok, cert = _validate_witness(graph, w.members, variant)
    else:
        ok = kneser_total_mv_check_fast(graph.n, graph.k, w.members, budget)
        cert = {"witness_size": len(w.members), "validates": ok,
                "validator": "transversal-reduction"}
    cert["construction"] = w.construction
    size = len(w.members) if ok else 0
    return _Oracle(rung, Bounds(size, graph.vertex_count), w.certificates + (cert,),
                   "" if ok else "witness fails the visibility predicate", not ok)


def _min_edges(graph: FamilyGraph, budget: Budget | None) -> _Oracle:
    n, k = graph.n, graph.k
    m, witness, nodes = min_edges_with_tau(n, k, 2 * k, budget)
    tau_cert = transversal_number(witness, budget)
    if not tau_cert.exact:
        raise BudgetExhausted
    return _Oracle("reduction-min-edges", as_bounds(comb(n, k) - m),
                   ({"min_edges": m, "nodes_expanded": nodes}, tau_cert.as_json()))


def _definitional(graph: FamilyGraph, variant: Variant, budget: Budget | None
                  ) -> _Oracle:
    cert = max_visibility_number(graph, variant, budget)
    return _Oracle("definitional-search", cert.bounds, (cert.as_json(),))


def _singleton_sweep(graph: FamilyGraph) -> _Oracle:
    """Exact value-0 oracle: total visibility sets are subset-closed, so
    the parameter is 0 iff every singleton fails."""
    for v in graph.vertices():
        if is_visibility_set(graph, [v], Variant.TOTAL).ok:
            return _Oracle("singleton-sweep", Bounds(1, graph.vertex_count), (
                {"singleton": list(v.members()), "total_visibility": True},))
    return _Oracle("singleton-sweep", Bounds(0, 0), (
        {"singletons_checked": graph.vertex_count, "all_fail": True},))


def _validate_witness(graph: FamilyGraph, members: list[KSubset],
                      variant: Variant) -> tuple[bool, dict]:
    res = is_visibility_set(graph, members, variant)
    cert = {
        "witness_size": len(members),
        "variant": variant.value,
        "validates": res.ok,
        "validator": "definitional",
    }
    if not res.ok and res.blocking:
        cert["blocking"] = [list(s.members()) for s in res.blocking]
    return res.ok, cert


def _kneser_minus(graph: FamilyGraph, removed: list[int], construction: str
                  ) -> _Witness:
    """The vertices of ``graph`` outside ``removed``."""
    gone = set(removed)
    return _Witness([v for v in graph.vertices() if v.bits not in gone], construction)


def _disjoint_edges(n: int, k: int, count: int) -> list[int]:
    if count * k > n:
        raise ConstraintError(f"cannot place {count} disjoint {k}-sets in [{n}]")
    base = (1 << k) - 1
    return [base << (k * i) for i in range(count)]


# ----------------------------------------------------------------------
# per-formula verifiers: each names its formula, its construction and the
# rungs of the ladder it may use


def _v_mut_kneser(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f = mut_kneser_formula(n, k, budget)
    rungs = (("singleton-sweep",) if n <= 3 * k - 1
             else ("definitional-search", "reduction-min-edges"))
    o = _oracle(kneser(n, k), Variant.TOTAL, budget, rungs)
    return [_report(FormulaId.MUT_KNESER, inst, f, o)]


def _v_mu_kneser(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f, cert = _mu_kneser(n, k, budget)
    g = kneser(n, k)
    removed = ((list(cert.witness.edges), "c-star-witness") if cert is not None
               else (_disjoint_edges(n, k, 2 * k), "disjoint-edges"))
    o = _oracle(g, Variant.MUTUAL, budget, ("witness-only",),
                lambda: _kneser_minus(g, *removed))
    return [_report(FormulaId.MU_KNESER, inst, f, o)]


def _v_mut_bipartite(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f, cov = _mut_bipartite(n, k, budget)
    return [_report(FormulaId.MUT_BIPARTITE, inst, f,
                    _mut_bipartite_oracle(n, k, cov, budget))]


def _mut_bipartite_oracle(n: int, k: int, cov: CoveringCertificate | None,
                          budget: Budget | None) -> _Oracle:
    """The mut-bipartite oracle for the covering certificate the formula
    bounds came from."""
    g = bipartite_kneser(n, k)
    if n <= 3 * k:
        return _oracle(g, Variant.TOTAL, budget, ("singleton-sweep",))
    if cov is not None and not cov.exact:
        return _Oracle("witness-only", reason="covering search beyond budget")

    def witness() -> _Witness:
        # both sides of a minimum covering family removed
        full = (1 << n) - 1
        blocks = (cov.blocks if cov is not None
                  else [full ^ e for e in _disjoint_edges(n, k, 2 * k + 1)])
        gone = set(blocks) | {full ^ b for b in blocks}
        return _Witness([v for v in g.vertices() if v.bits not in gone],
                        "covering-family-both-sides")

    return _oracle(g, Variant.TOTAL, budget, ("witness-only",), witness)


def _v_mu_bipartite_lb(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f, cov = _mu_bipartite_lb(n, k, budget)
    g = bipartite_kneser(n, k)
    # k-side class: pairwise distance 2 through the larger side
    side = _oracle(g, Variant.MUTUAL, budget, ("witness",),
                   lambda: _Witness([v for v in g.vertices() if v.size == k],
                                    "k-side-class"))
    if side.value is None:
        return [_report(FormulaId.MU_BIPARTITE_LB, inst, f, side, claim="at-least")]
    best = 0 if side.refuted else side.value.lo
    certs = side.certificates
    mut = _mut_bipartite_oracle(n, k, cov, budget)
    if mut.value is not None and not mut.refuted:
        best = max(best, mut.value.lo)
        certs += mut.certificates
    return [_report(FormulaId.MU_BIPARTITE_LB, inst, f,
                    _Oracle("witness", Bounds(best, g.vertex_count), certs),
                    claim="at-least")]


def _v_mut_johnson(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    tr = _johnson_ex(n, k, build_c4_suspension, budget)
    o = _oracle(johnson(n, k), Variant.TOTAL, budget,
                ("definitional-search", "witness-only"),
                lambda: _Witness([KSubset(n, e) for e in tr.witness.edges],
                                 "pattern-free-edge-system"))
    return [_report(FormulaId.MUT_JOHNSON, inst, tr.bounds, o,
                    certificates=(tr.as_json(),))]


def _v_mu_johnson_sandwich(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    lo = _johnson_ex(n, k, build_c4_suspension, budget)
    hi = _johnson_ex(n, k, build_k4_suspension, budget)
    o = _oracle(johnson(n, k), Variant.MUTUAL, budget, ("definitional-search",))
    return [_report(FormulaId.MU_JOHNSON_SANDWICH, inst, Bounds(lo.lo, hi.hi), o,
                    claim="within", certificates=(lo.as_json(), hi.as_json()))]


def _v_mu_johnson_k2(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n = inst["n"]
    f = as_bounds(mu_johnson_k2(n))

    def witness() -> _Witness:
        tr = _johnson_ex(n, 2, build_k4_suspension, budget)
        members = [KSubset(n, e) for e in tr.witness.edges] if tr.exact else None
        return _Witness(members, "clique-pattern-free-edge-system", (tr.as_json(),))

    o = _oracle(johnson(n, 2), Variant.MUTUAL, budget,
                ("definitional-search", "witness-only"), witness)
    return [_report(FormulaId.MU_JOHNSON_K2, inst, f, o)]


def _v_mu_kneser_gp_lb(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f = as_bounds(mu_kneser_gp_lower_bound(n, k))
    if n < 2 * k + 1:
        raise ConstraintError(f"need n >= 2k+1, got n={n}, k={k}")
    g = kneser(n, k)
    o = _oracle(g, Variant.GENERAL_POSITION, budget, ("witness",),
                lambda: _Witness([v for v in g.vertices() if v.bits & 1],
                                 "common-element-star"))
    return [_report(FormulaId.MU_KNESER_GP_LB, inst, f, o, claim="at-least")]


def _v_kneser2_all_params(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n = inst["n"]
    f = as_bounds(kneser2_all_params(n))
    g = kneser(n, 2)
    # the total parameter gets an exact oracle through the edge-count search
    total = _oracle(g, Variant.TOTAL, budget, ("reduction-min-edges",))
    rows = [_report(FormulaId.KNESER2_ALL_PARAMS, {**inst, "param": "mu-total"}, f, total)]
    o = _oracle(g, Variant.TOTAL, budget, ("witness-only",),
                lambda: _kneser_minus(g, _disjoint_edges(n, 2, 4),
                                      "complement-four-disjoint-pairs"))
    rows.extend(_report(FormulaId.KNESER2_ALL_PARAMS, {**inst, "param": p}, f, o,
                        reason="upper bound from the exact total parameter")
                for p in ("mu", "mu-dual", "mu-outer"))
    return rows


def _v_lemma_binom(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n = inst["n"]
    rows = []
    for k in range(n // 2 + 1, n):
        if not k < n < 2 * k:
            continue
        o = _Oracle("integer-arithmetic", as_bounds(2 * comb(n - 1, k)))
        rows.append(_report(FormulaId.LEMMA_BINOM, {"n": n, "k": k},
                            as_bounds(comb(n, k)), o, claim="greater-than"))
    if not rows:
        rows.append(_report(FormulaId.LEMMA_BINOM, inst, None, _Oracle(
            "integer-arithmetic", reason=f"no k satisfies k < {n} < 2k")))
    return rows


def _v_lemma_cstar(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    if k < 2:
        raise ConstraintError(f"need k >= 2, got {k}")
    rows: list[VerificationReport] = []
    if n >= 2 * k * k:
        f = as_bounds(2 * k)
        cs = c_star(n, k, budget)
        o = _Oracle("covering-search", cs.bounds, (cs.as_json(),))
        rows.append(_report(FormulaId.LEMMA_CSTAR, {**inst, "part": "i"}, f, o))
    if k >= 3 and n >= 7 * k - 5:
        f = as_bounds(2 * comb(2 * k - 3, k) + 6)
        h = build_h_nk(n, k)
        tau_cert = transversal_number(h, budget)
        certs = (tau_cert.as_json(),)
        if not tau_cert.exact:   # a search the budget cut short is a skip
            o = _Oracle("construction-tau", None, certs, "oracle beyond budget")
        elif tau_cert.tau != 2 * k:
            o = _Oracle("construction-tau", None, certs,
                        f"construction has transversal number {tau_cert.tau}, "
                        f"expected {2 * k}", refuted=True)
        else:
            o = _Oracle("construction-tau", Bounds(2 * k, len(h.edges)), certs)
        rows.append(_report(FormulaId.LEMMA_CSTAR, {**inst, "part": "ii"}, f, o,
                            claim="at-most"))
    if n >= 2 * k * k + k:
        f = as_bounds(2 * k + 1)
        # the partition seed of C(n, n-k, 2k) is the complements of 2k+1
        # disjoint k-sets
        cov = covering_number(n, n - k, 2 * k, budget)
        o = _Oracle("covering-search", cov.bounds, (cov.as_json(),))
        rows.append(_report(FormulaId.LEMMA_CSTAR, {**inst, "part": "iii"}, f, o))
    if not rows:
        rows.append(_report(FormulaId.LEMMA_CSTAR, inst, None, _Oracle(
            "covering-search", reason=f"no clause covers n={n}, k={k}")))
    return rows


def _v_lemma_transversal_equiv(inst: dict, budget: Budget | None,
                               seed: int) -> list[VerificationReport]:
    n, k, samples = inst["n"], inst["k"], inst["samples"]
    if samples < 0:
        raise DomainError(f"samples must be >= 0, got {samples}")
    if n < 3 * k - 1:
        raise PreconditionError(
            f"the transversal characterization requires n >= 3k-1 = {3 * k - 1}, "
            f"got n={n}")
    g = kneser(n, k)
    verts = g.vertices()
    rng = random.Random(seed)
    pools: list[list[KSubset]] = [[], list(verts)]
    pools.extend([v] for v in verts)  # singletons are the sharpest edge cases
    for _ in range(samples):
        pools.append([v for v in verts if rng.random() < 0.5])
    checked = disagreements = positives = 0
    first_bad: dict | None = None
    for x in pools:
        definitional = is_visibility_set(g, x, Variant.TOTAL).ok
        try:
            reduced = kneser_total_mv_check_fast(n, k, x, budget)
        except BudgetExhausted:
            # a disagreement found before the cut still fails the row
            if disagreements:
                break
            return [_report(FormulaId.LEMMA_TRANSVERSAL_EQUIV, inst, None,
                            _Oracle("equivalence-sweep", reason="oracle beyond budget"),
                            claim="equivalence")]
        checked += 1
        positives += definitional
        if definitional != reduced:
            disagreements += 1
            if first_bad is None:
                first_bad = {"subset": [list(v.members()) for v in x],
                             "definitional": definitional, "reduction": reduced}
    cert = {"subsets_checked": checked, "random_samples": samples,
            "seed": seed, "positives": positives, "disagreements": disagreements}
    if first_bad is not None:
        cert["first_disagreement"] = first_bad
    o = _Oracle("equivalence-sweep", certificates=(cert,), refuted=disagreements > 0)
    return [_report(FormulaId.LEMMA_TRANSVERSAL_EQUIV, inst, None, o, claim="equivalence")]


def _v_sandwich_dual_outer(inst: dict, budget: Budget | None,
                           seed: int) -> list[VerificationReport]:
    spec = inst["family"]
    g = parse_family(spec) if isinstance(spec, str) else spec
    inst = {**inst, "family": format_family(g)}

    def row(o: _Oracle) -> list[VerificationReport]:
        return [_report(FormulaId.SANDWICH_DUAL_OUTER, inst, None, o, claim="chain")]

    # the dual search has the smallest cap, so it decides for all four
    reason = _past_cap(g, Variant.DUAL, "definitional-search")
    if reason:
        return row(_Oracle("definitional-search", reason=reason))
    values: dict[str, int] = {}
    certs: list[dict] = []
    for variant in (Variant.TOTAL, Variant.DUAL, Variant.OUTER, Variant.MUTUAL):
        name = VARIANT_TO_PARAM[variant]
        o = _oracle(g, variant, budget, ("definitional-search",))
        if not o.value.exact:
            return row(_Oracle(o.name, reason=f"{name} search beyond budget"))
        values[name] = o.value.lo
        certs.extend(o.certificates)
    chain_ok = (values["mu-total"] <= values["mu-dual"] <= values["mu"]
                and values["mu-total"] <= values["mu-outer"] <= values["mu"])
    certs.insert(0, {"values": values, "chain_holds": chain_ok})
    return row(_Oracle("definitional-search", None, tuple(certs),
                       "" if chain_ok else "an inequality fails", not chain_ok))


# each formula's verifier, the parameters it requires ("n" may be a single
# int or a range) and the optional ones it reads, with their defaults; a
# formula reads no other parameter
_VERIFIERS: dict[FormulaId, tuple[Callable, tuple[str, ...], dict]] = {
    FormulaId.MUT_KNESER: (_v_mut_kneser, ("n", "k"), {}),
    FormulaId.MU_KNESER: (_v_mu_kneser, ("n", "k"), {}),
    FormulaId.MUT_BIPARTITE: (_v_mut_bipartite, ("n", "k"), {}),
    FormulaId.MU_BIPARTITE_LB: (_v_mu_bipartite_lb, ("n", "k"), {}),
    FormulaId.MUT_JOHNSON: (_v_mut_johnson, ("n", "k"), {}),
    FormulaId.MU_JOHNSON_SANDWICH: (_v_mu_johnson_sandwich, ("n", "k"), {}),
    FormulaId.MU_JOHNSON_K2: (_v_mu_johnson_k2, ("n",), {}),
    FormulaId.MU_KNESER_GP_LB: (_v_mu_kneser_gp_lb, ("n", "k"), {}),
    FormulaId.KNESER2_ALL_PARAMS: (_v_kneser2_all_params, ("n",), {}),
    FormulaId.LEMMA_BINOM: (_v_lemma_binom, ("n",), {}),
    FormulaId.LEMMA_CSTAR: (_v_lemma_cstar, ("n", "k"), {}),
    FormulaId.LEMMA_TRANSVERSAL_EQUIV: (_v_lemma_transversal_equiv, ("n", "k"),
                                        {"samples": 200}),
    FormulaId.SANDWICH_DUAL_OUTER: (_v_sandwich_dual_outer, ("family",), {}),
}


def parse_range(value) -> tuple[int, int]:
    """An int, an (lo, hi) pair, or a string "lo..hi" -> inclusive pair."""
    try:
        if isinstance(value, int):
            return value, value
        if isinstance(value, tuple) and len(value) == 2:
            lo, hi = int(value[0]), int(value[1])
        elif isinstance(value, str):
            if ".." in value:
                a, b = value.split("..", 1)
                lo, hi = int(a), int(b)
            else:
                lo = hi = int(value)
        else:
            raise TypeError
    except (TypeError, ValueError):
        raise DomainError(
            f"bad range {value!r}; expected int, pair, or 'lo..hi'") from None
    if hi < lo:
        raise DomainError(f"empty range {lo}..{hi}")
    return lo, hi


def _integer(key: str, value) -> int:
    """An integer parameter given as an int or an integer string."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise DomainError(f"parameter {key!r} must be an integer, got {value!r}")


def _instances(formula: FormulaId, params: dict) -> list[dict]:
    _, needed, optional = _VERIFIERS[formula]
    for key in needed:
        if key not in params:
            raise DomainError(f"formula {formula.value} requires parameter {key!r}")
    for key in params:
        if key not in needed and key not in optional:
            raise DomainError(f"formula {formula.value} does not read parameter {key!r}")
    if "family" in needed:
        return [dict(params)]
    lo, hi = parse_range(params["n"])
    out = []
    for n in range(lo, hi + 1):
        inst = {key: params[key] for key in params if key != "n"}
        inst["n"] = n
        for key, default in optional.items():
            inst.setdefault(key, default)
        for key in ("k", "samples"):
            if key in inst:
                inst[key] = _integer(key, inst[key])
        out.append(inst)
    return out


def verify(formula: FormulaId | str, params: dict | None = None,
           budget: Budget | None = None, seed: int = 0) -> list[VerificationReport]:
    """Run the bound oracle for a formula on concrete parameters.

    ``params`` carries n (int or range), k, family, samples as the
    formula requires; one report is emitted per instance (some formulas
    emit several rows per instance, e.g. one per lemma clause)."""
    try:
        fid = FormulaId(formula)
    except ValueError:
        raise DomainError(f"unknown formula {formula!r}; "
                          f"expected one of {', '.join(all_formula_ids())}") from None
    verifier = _VERIFIERS[fid][0]
    out: list[VerificationReport] = []
    for inst in _instances(fid, params or {}):
        t0 = time.perf_counter()
        try:
            rows = verifier(inst, budget, seed)
        except PreconditionError as e:
            rows = [_report(fid, inst, None, _Oracle("none", reason=f"precondition: {e}"))]
        except BudgetExhausted:
            rows = [_report(fid, inst, None, _Oracle("none", reason="oracle beyond budget"))]
        dt = time.perf_counter() - t0
        out.extend(replace(r, seconds=dt) for r in rows)
    return out
