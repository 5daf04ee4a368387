"""Closed formulas for the visibility parameters of the set-graph
families, each paired with an independent verification oracle.

Evaluators compute the published piecewise formulas exactly where they
are closed, and fall back to the covering / Turan searches for the
middle ranges, so a budget-limited search can degrade a formula value
to a proven interval. Preconditions mirror the stated ranges of the
results and are never extrapolated: a query outside the range raises a
precondition error naming the violated clause.

``verify`` binds every formula tag to an oracle strategy and emits
VerificationReport rows:

- definitional-search: full branch-and-bound over the graph (small
  instances only);
- singleton-sweep: for zero-valued ranges, every single vertex fails
  the total-visibility predicate (total visibility sets are closed
  under subsets, so this settles the value 0 exactly);
- reduction-min-edges: the transversal characterization of total
  visibility in the disjointness graphs, with the minimum edge count
  found by the reference edge-subset search;
- equivalence-sweep: seeded random subsets checked against both the
  definitional predicate and the transversal reduction;
- witness / witness-only: an explicit construction is validated
  definitionally; "witness" fully proves a bound-shaped claim, while
  "witness-only" marks an equality whose matching upper bound is not
  independently re-proved at this size;
- covering-search / construction-tau / integer-arithmetic for the
  combinatorial lemmas.

A verdict is "pass" when formula and oracle enclosures agree on their
overlap (for equality claims the oracle must be exact), "fail" on a
contradiction, and "skipped" with an explicit reason when the oracle is
beyond budget or a precondition is unmet.

Every construction becomes a row through ``_witness_report``: a witness
that fails its validation fails the row, and a valid one of size s is the
oracle enclosure [s, |V|], settled by ``_report``. For a "witness-only"
equality with formula enclosure f this is the witness rule: fail when
s > f.hi, or when f is exact and s < f.lo; skipped when f is a proper
interval and s < f.lo; pass otherwise. So a witness larger than an
interval formula fails (no shipped construction reaches this), failing
rows word their reason the same way for every formula, and mu-johnson-k2
skips a row whose Turan search the budget cut short, since a smaller
witness from an unfinished search contradicts nothing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from enum import Enum
from math import comb

from .budget import Budget, Bounds, BudgetExhausted, as_bounds, bounds_agree
from .constructions import build_h_nk
from .covering import CoveringCertificate, c_star, covering_number, min_edges_with_tau
from .errors import ConstraintError, DomainError, PreconditionError
from .families import FamilyGraph, bipartite_kneser, format_family, johnson, kneser, parse_family
from .hypergraphs import transversal_number
from .subsets import KSubset
from .turan import build_c4_suspension, build_k4_suspension, ex_uniform
from .visibility import (
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


# vertex-count caps for the oracle strategies
DEFINITIONAL_SEARCH_CAP = 22
DUAL_SEARCH_CAP = 16
WITNESS_CHECK_CAP = 300


# ----------------------------------------------------------------------
# formula evaluators


def _kneser_minus_c_star(n: int, k: int, budget: Budget | None) -> Bounds:
    """C(n,k) - c_star(n,k), closed as C(n,k) - 2k from n = 2k^2 on."""
    if n >= 2 * k * k:
        return as_bounds(comb(n, k) - 2 * k)
    cert = c_star(n, k, budget)
    return Bounds(comb(n, k) - cert.hi, comb(n, k) - cert.lo)


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
    return _kneser_minus_c_star(n, k, budget)


def mu_kneser_formula(n: int, k: int, budget: Budget | None = None) -> Bounds:
    """Mutual visibility number C(n,k) - c_star(n,k), proved for
    n >= 7k-5 and additionally for (n,k) = (8,2)."""
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
                     ) -> tuple[Bounds, Bounds, CoveringCertificate | None]:
    """``mu_bipartite_lower_bound`` with the total-visibility bounds and the
    covering certificate it was taken from (see ``_mut_bipartite``)."""
    if k < 2:
        raise ConstraintError(f"need k >= 2, got {k}")
    if n < 3 * k + 1:
        raise PreconditionError(
            f"bipartite lower bound requires n >= 3k+1 = {3 * k + 1}, got n={n}")
    base = comb(n, k)
    other, cov = _mut_bipartite(n, k, budget)
    return Bounds(max(base, other.lo), max(base, other.hi)), other, cov


def mu_bipartite_lower_bound(n: int, k: int, budget: Budget | None = None) -> Bounds:
    """max{C(n,k), 2 C(n,k) - 2 C(n, n-k, 2k)}, a proven lower bound on
    the mutual visibility number of the containment graph."""
    return _mu_bipartite_lb(n, k, budget)[0]


def mut_johnson_value(n: int, k: int, budget: Budget | None = None) -> Bounds:
    """Total visibility number of the one-swap graph: the maximum edge
    count of a suspended-4-cycle-free k-uniform system on [n]."""
    if k < 2 or n < k + 2:
        raise ConstraintError(f"need n >= k+2 and k >= 2, got n={n}, k={k}")
    return ex_uniform(n, k, build_c4_suspension(k), budget).bounds


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


def _report(formula: FormulaId, params: dict, f: Bounds | None, o: Bounds | None,
            oracle: str, claim: str = "equals", reason: str = "",
            certificates: tuple[dict, ...] = ()) -> VerificationReport:
    """Assemble a report, settling the verdict from the enclosures. A
    "witness-only" equality follows the witness rule (module docstring)
    and words its own fail and skipped reasons."""
    if f is None or o is None:
        raise DomainError(f"{formula.value}: a report needs both the formula "
                          f"and the oracle enclosure")
    if claim == "equals" and oracle == "witness-only":
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
    return VerificationReport(formula, params, f, o, verdict, oracle, claim,
                              reason, certificates)


def _witness_report(formula: FormulaId, params: dict, f: Bounds, graph: FamilyGraph,
                    size: int, check: tuple[bool, dict], construction: str,
                    oracle: str = "witness-only", claim: str = "equals",
                    reason: str = "", certificates: tuple[dict, ...] = ()
                    ) -> VerificationReport:
    """The row for a construction of ``size`` vertices of ``graph``, whose
    validation returned ``check`` = (ok, certificate); settled by
    ``_report`` once the construction validates."""
    ok, cert = check
    cert["construction"] = construction
    certificates = certificates + (cert,)
    if not ok:
        return VerificationReport(formula, params, f, Bounds(0, graph.vertex_count),
                                  "fail", oracle, claim,
                                  "witness fails the visibility predicate",
                                  certificates)
    return _report(formula, params, f, Bounds(size, graph.vertex_count), oracle,
                   claim, reason, certificates)


# ----------------------------------------------------------------------
# oracle building blocks


def _definitional(graph: FamilyGraph, variant: Variant, budget: Budget | None
                  ) -> tuple[Bounds, tuple[dict, ...]]:
    cert = max_visibility_number(graph, variant, budget)
    if cert.exact:
        val = Bounds(cert.value, cert.value)
    else:
        val = Bounds(cert.value, graph.vertex_count)
    return val, (cert.as_json(),)


def _singleton_sweep(graph: FamilyGraph) -> tuple[Bounds, tuple[dict, ...]]:
    """Exact value-0 oracle: total visibility sets are subset-closed, so
    the parameter is 0 iff every singleton fails."""
    for v in graph.vertices():
        res = is_visibility_set(graph, [v], Variant.TOTAL)
        if res.ok:
            return Bounds(1, graph.vertex_count), (
                {"singleton": list(v.members()), "total_visibility": True},)
    return Bounds(0, 0), ({"singletons_checked": graph.vertex_count,
                           "all_fail": True},)


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


def _kneser_vertices_minus(n: int, k: int, removed: list[int]
                           ) -> tuple[FamilyGraph, list[KSubset]]:
    g = kneser(n, k)
    gone = set(removed)
    members = [v for v in g.vertices() if v.bits not in gone]
    return g, members


def _disjoint_edges(n: int, k: int, count: int) -> list[int]:
    if count * k > n:
        raise ConstraintError(f"cannot place {count} disjoint {k}-sets in [{n}]")
    base = (1 << k) - 1
    return [base << (k * i) for i in range(count)]


# ----------------------------------------------------------------------
# per-formula verifiers


def _v_mut_kneser(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f = mut_kneser_formula(n, k, budget)
    g = kneser(n, k)
    if n <= 3 * k - 1:
        if g.vertex_count > WITNESS_CHECK_CAP:
            return [VerificationReport(FormulaId.MUT_KNESER, inst, f, None,
                                       "skipped", "singleton-sweep",
                                       reason="oracle beyond budget")]
        o, certs = _singleton_sweep(g)
        return [_report(FormulaId.MUT_KNESER, inst, f, o, "singleton-sweep",
                        certificates=certs)]
    if g.vertex_count <= DEFINITIONAL_SEARCH_CAP:
        o, certs = _definitional(g, Variant.TOTAL, budget)
        return [_report(FormulaId.MUT_KNESER, inst, f, o, "definitional-search",
                        certificates=certs)]
    try:
        m, witness, nodes = min_edges_with_tau(n, k, 2 * k, budget)
    except BudgetExhausted:
        return [VerificationReport(FormulaId.MUT_KNESER, inst, f, None, "skipped",
                                   "reduction-min-edges",
                                   reason="oracle beyond budget")]
    tau_cert = transversal_number(witness)
    o = as_bounds(comb(n, k) - m)
    return [_report(FormulaId.MUT_KNESER, inst, f, o, "reduction-min-edges",
                    certificates=({"min_edges": m, "nodes_expanded": nodes},
                                  tau_cert.as_json()))]


def _mu_kneser_witness(n: int, k: int) -> tuple[list[int], str]:
    """Complement edge set for the mutual-visibility witness.

    n >= 2k^2 (which includes every admissible k = 2 instance) gets 2k
    disjoint edges; the k >= 3 middle range gets the two-triangles plus
    two-complete-systems construction."""
    if n >= 2 * k * k:
        return _disjoint_edges(n, k, 2 * k), "disjoint-edges"
    h = build_h_nk(n, k)
    return list(h.edges), "two-triangles-two-complete"


def _v_mu_kneser(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f = mu_kneser_formula(n, k, budget)
    removed, kind = _mu_kneser_witness(n, k)
    g, members = _kneser_vertices_minus(n, k, removed)
    size = len(members)
    if g.vertex_count <= WITNESS_CHECK_CAP:
        check = _validate_witness(g, members, Variant.MUTUAL)
    elif n >= 3 * k - 1:
        ok = kneser_total_mv_check_fast(n, k, members)
        check = ok, {"witness_size": size, "validates": ok,
                     "validator": "transversal-reduction"}
    else:
        return [VerificationReport(FormulaId.MU_KNESER, inst, f, None, "skipped",
                                   "witness-only",
                                   reason="witness validation beyond budget")]
    return [_witness_report(FormulaId.MU_KNESER, inst, f, g, size, check, kind)]


def _v_mut_bipartite(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    f, cov = _mut_bipartite(inst["n"], inst["k"], budget)
    return [_mut_bipartite_report(inst, f, cov)]


def _mut_bipartite_report(inst: dict, f: Bounds,
                          cov: CoveringCertificate | None) -> VerificationReport:
    """The mut-bipartite row for formula bounds ``f`` and the covering
    certificate they came from."""
    n, k = inst["n"], inst["k"]
    g = bipartite_kneser(n, k)
    if n <= 3 * k:
        if g.vertex_count > WITNESS_CHECK_CAP:
            return VerificationReport(FormulaId.MUT_BIPARTITE, inst, f, None,
                                      "skipped", "singleton-sweep",
                                      reason="oracle beyond budget")
        o, certs = _singleton_sweep(g)
        return _report(FormulaId.MUT_BIPARTITE, inst, f, o, "singleton-sweep",
                       certificates=certs)
    # witness: both sides of a minimum covering family removed
    full = (1 << n) - 1
    if cov is None:
        blocks = [full ^ e for e in _disjoint_edges(n, k, 2 * k + 1)]
    elif not cov.exact:
        return VerificationReport(FormulaId.MUT_BIPARTITE, inst, f, None,
                                  "skipped", "witness-only",
                                  reason="covering search beyond budget")
    else:
        blocks = list(cov.blocks)
    gone = set(blocks) | {full ^ b for b in blocks}
    members = [v for v in g.vertices() if v.bits not in gone]
    size = len(members)
    if g.vertex_count > WITNESS_CHECK_CAP:
        return VerificationReport(FormulaId.MUT_BIPARTITE, inst, f, None, "skipped",
                                  "witness-only",
                                  reason="witness validation beyond budget")
    return _witness_report(FormulaId.MUT_BIPARTITE, inst, f, g, size,
                           _validate_witness(g, members, Variant.TOTAL),
                           "covering-family-both-sides")


def _v_mu_bipartite_lb(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f, f_mut, cov = _mu_bipartite_lb(n, k, budget)
    g = bipartite_kneser(n, k)
    if g.vertex_count > WITNESS_CHECK_CAP:
        return [VerificationReport(FormulaId.MU_BIPARTITE_LB, inst, f, None,
                                   "skipped", "witness",
                                   reason="witness validation beyond budget")]
    certs: list[dict] = []
    best = 0
    # k-side class: pairwise distance 2 through the larger side
    side = [v for v in g.vertices() if v.size == k]
    ok, cert = _validate_witness(g, side, Variant.MUTUAL)
    cert["construction"] = "k-side-class"
    certs.append(cert)
    if ok:
        best = max(best, len(side))
    mut = _mut_bipartite_report(inst, f_mut, cov)
    if mut.oracle_value is not None and mut.verdict == "pass":
        best = max(best, mut.oracle_value.lo)
        certs.extend(mut.certificates)
    o = Bounds(best, g.vertex_count)
    return [_report(FormulaId.MU_BIPARTITE_LB, inst, f, o, "witness",
                    claim="at-least", certificates=tuple(certs))]


def _v_mut_johnson(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    if k < 2 or n < k + 2:
        raise ConstraintError(f"need n >= k+2 and k >= 2, got n={n}, k={k}")
    tr = ex_uniform(n, k, build_c4_suspension(k), budget)
    f = tr.bounds
    certs: list[dict] = [tr.as_json()]
    g = johnson(n, k)
    if g.vertex_count <= DEFINITIONAL_SEARCH_CAP:
        o, dcerts = _definitional(g, Variant.TOTAL, budget)
        return [_report(FormulaId.MUT_JOHNSON, inst, f, o, "definitional-search",
                        certificates=tuple(certs) + dcerts)]
    if g.vertex_count > WITNESS_CHECK_CAP:
        return [VerificationReport(FormulaId.MUT_JOHNSON, inst, f, None, "skipped",
                                   "witness-only",
                                   reason="oracle beyond budget",
                                   certificates=tuple(certs))]
    members = [KSubset(n, e) for e in tr.witness.edges]
    return [_witness_report(FormulaId.MUT_JOHNSON, inst, f, g, len(members),
                            _validate_witness(g, members, Variant.TOTAL),
                            "pattern-free-edge-system", certificates=tuple(certs))]


def _v_mu_johnson_sandwich(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    if k < 2 or n < k + 2:
        raise ConstraintError(f"need n >= k+2 and k >= 2, got n={n}, k={k}")
    lo = ex_uniform(n, k, build_c4_suspension(k), budget)
    hi = ex_uniform(n, k, build_k4_suspension(k), budget)
    f = Bounds(lo.lo, hi.hi)
    certs = (lo.as_json(), hi.as_json())
    g = johnson(n, k)
    if g.vertex_count > DEFINITIONAL_SEARCH_CAP:
        return [VerificationReport(FormulaId.MU_JOHNSON_SANDWICH, inst, f, None,
                                   "skipped", "definitional-search", claim="within",
                                   reason="oracle beyond budget",
                                   certificates=certs)]
    o, dcerts = _definitional(g, Variant.MUTUAL, budget)
    return [_report(FormulaId.MU_JOHNSON_SANDWICH, inst, f, o,
                    "definitional-search", claim="within",
                    certificates=certs + dcerts)]


def _v_mu_johnson_k2(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n = inst["n"]
    f = as_bounds(mu_johnson_k2(n))
    g = johnson(n, 2)
    if g.vertex_count <= DEFINITIONAL_SEARCH_CAP:
        o, certs = _definitional(g, Variant.MUTUAL, budget)
        return [_report(FormulaId.MU_JOHNSON_K2, inst, f, o, "definitional-search",
                        certificates=certs)]
    if g.vertex_count > WITNESS_CHECK_CAP:
        return [VerificationReport(FormulaId.MU_JOHNSON_K2, inst, f, None, "skipped",
                                   "witness-only", reason="oracle beyond budget")]
    tr = ex_uniform(n, 2, build_k4_suspension(2), budget)
    if not tr.exact:
        # a budget-cut search returns a smaller witness, not a contradiction
        return [VerificationReport(FormulaId.MU_JOHNSON_K2, inst, f, None, "skipped",
                                   "witness-only", reason="oracle beyond budget",
                                   certificates=(tr.as_json(),))]
    members = [KSubset(n, e) for e in tr.witness.edges]
    return [_witness_report(FormulaId.MU_JOHNSON_K2, inst, f, g, len(members),
                            _validate_witness(g, members, Variant.MUTUAL),
                            "clique-pattern-free-edge-system",
                            certificates=(tr.as_json(),))]


def _v_mu_kneser_gp_lb(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    f = as_bounds(mu_kneser_gp_lower_bound(n, k))
    if n < 2 * k + 1:
        raise ConstraintError(f"need n >= 2k+1, got n={n}, k={k}")
    g = kneser(n, k)
    if g.vertex_count > WITNESS_CHECK_CAP:
        return [VerificationReport(FormulaId.MU_KNESER_GP_LB, inst, f, None,
                                   "skipped", "witness", claim="at-least",
                                   reason="witness validation beyond budget")]
    star = [v for v in g.vertices() if v.bits & 1]
    return [_witness_report(FormulaId.MU_KNESER_GP_LB, inst, f, g, len(star),
                            _validate_witness(g, star, Variant.GENERAL_POSITION),
                            "common-element-star", oracle="witness", claim="at-least")]


def _v_kneser2_all_params(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n = inst["n"]
    f = as_bounds(kneser2_all_params(n))
    removed = _disjoint_edges(n, 2, 4)
    g, members = _kneser_vertices_minus(n, 2, removed)
    size = len(members)
    if g.vertex_count > WITNESS_CHECK_CAP:
        return [VerificationReport(FormulaId.KNESER2_ALL_PARAMS,
                                   {**inst, "param": p}, f, None, "skipped",
                                   "witness-only", reason="oracle beyond budget")
                for p in ("mu-total", "mu", "mu-dual", "mu-outer")]
    check = _validate_witness(g, members, Variant.TOTAL)
    rows: list[VerificationReport] = []

    # the total parameter gets an exact oracle through the edge-count search
    try:
        m, witness, nodes = min_edges_with_tau(n, 2, 4, budget)
        o_total = as_bounds(comb(n, 2) - m)
        rows.append(_report(FormulaId.KNESER2_ALL_PARAMS, {**inst, "param": "mu-total"},
                            f, o_total, "reduction-min-edges",
                            certificates=({"min_edges": m, "nodes_expanded": nodes},
                                          transversal_number(witness).as_json())))
    except BudgetExhausted:
        rows.append(VerificationReport(FormulaId.KNESER2_ALL_PARAMS,
                                       {**inst, "param": "mu-total"}, f, None,
                                       "skipped", "reduction-min-edges",
                                       reason="oracle beyond budget"))

    for p in ("mu", "mu-dual", "mu-outer"):
        rows.append(_witness_report(
            FormulaId.KNESER2_ALL_PARAMS, {**inst, "param": p}, f, g, size, check,
            "complement-four-disjoint-pairs",
            reason="upper bound from the exact total parameter"))
    return rows


def _v_lemma_binom(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n = inst["n"]
    rows = []
    for k in range(n // 2 + 1, n):
        if not k < n < 2 * k:
            continue
        f = as_bounds(comb(n, k))
        o = as_bounds(2 * comb(n - 1, k))
        rows.append(_report(FormulaId.LEMMA_BINOM, {"n": n, "k": k}, f, o,
                            "integer-arithmetic", claim="greater-than"))
    if not rows:
        rows.append(VerificationReport(FormulaId.LEMMA_BINOM, inst, None, None,
                                       "skipped", "integer-arithmetic",
                                       reason=f"no k satisfies k < {n} < 2k"))
    return rows


def _v_lemma_cstar(inst: dict, budget: Budget | None, seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    if k < 2:
        raise ConstraintError(f"need k >= 2, got {k}")
    rows: list[VerificationReport] = []
    if n >= 2 * k * k:
        f = as_bounds(2 * k)
        cs = c_star(n, k, budget)
        o = Bounds(cs.lo, cs.hi)
        rows.append(_report(FormulaId.LEMMA_CSTAR, {**inst, "part": "i"}, f, o,
                            "covering-search",
                            certificates=(cs.as_json(),)))
    if k >= 3 and n >= 7 * k - 5:
        bound = 2 * comb(2 * k - 3, k) + 6
        h = build_h_nk(n, k)
        tau_cert = transversal_number(h)
        if tau_cert.tau != 2 * k or not tau_cert.optimal:
            rows.append(VerificationReport(
                FormulaId.LEMMA_CSTAR, {**inst, "part": "ii"}, as_bounds(bound),
                None, "fail", "construction-tau",
                reason=f"construction has transversal number {tau_cert.tau}, "
                       f"expected {2 * k}",
                certificates=(tau_cert.as_json(),)))
        else:
            o = Bounds(2 * k, len(h.edges))
            rows.append(_report(FormulaId.LEMMA_CSTAR, {**inst, "part": "ii"},
                                as_bounds(bound), o, "construction-tau",
                                claim="at-most",
                                certificates=(tau_cert.as_json(),)))
    if n >= 2 * k * k + k:
        f = as_bounds(2 * k + 1)
        full = (1 << n) - 1
        seed_blocks = tuple(sorted(full ^ e
                                   for e in _disjoint_edges(n, k, 2 * k + 1)))
        cov = covering_number(n, n - k, 2 * k, budget, seed_blocks=seed_blocks)
        o = Bounds(cov.lo, cov.hi)
        rows.append(_report(FormulaId.LEMMA_CSTAR, {**inst, "part": "iii"}, f, o,
                            "covering-search", certificates=(cov.as_json(),)))
    if not rows:
        rows.append(VerificationReport(FormulaId.LEMMA_CSTAR, inst, None, None,
                                       "skipped", "covering-search",
                                       reason=f"no clause covers n={n}, k={k}"))
    return rows


def _v_lemma_transversal_equiv(inst: dict, budget: Budget | None,
                               seed: int) -> list[VerificationReport]:
    n, k = inst["n"], inst["k"]
    samples = inst.get("samples", 200)
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
    disagreements = 0
    first_bad: dict | None = None
    positives = 0
    for x in pools:
        definitional = is_visibility_set(g, x, Variant.TOTAL).ok
        reduced = kneser_total_mv_check_fast(n, k, x)
        positives += definitional
        if definitional != reduced:
            disagreements += 1
            if first_bad is None:
                first_bad = {"subset": [list(v.members()) for v in x],
                             "definitional": definitional, "reduction": reduced}
    cert = {"subsets_checked": len(pools), "random_samples": samples,
            "seed": seed, "positives": positives, "disagreements": disagreements}
    if first_bad is not None:
        cert["first_disagreement"] = first_bad
    verdict = "pass" if disagreements == 0 else "fail"
    return [VerificationReport(FormulaId.LEMMA_TRANSVERSAL_EQUIV,
                               {**inst, "samples": samples}, None, None, verdict,
                               "equivalence-sweep", claim="equivalence",
                               certificates=(cert,))]


def _v_sandwich_dual_outer(inst: dict, budget: Budget | None,
                           seed: int) -> list[VerificationReport]:
    spec = inst["family"]
    g = parse_family(spec) if isinstance(spec, str) else spec
    inst = {**inst, "family": format_family(g)}
    if g.vertex_count > DUAL_SEARCH_CAP:
        return [VerificationReport(FormulaId.SANDWICH_DUAL_OUTER, inst, None, None,
                                   "skipped", "definitional-search", claim="chain",
                                   reason="oracle beyond budget")]
    values: dict[str, int] = {}
    certs: list[dict] = []
    for name, variant in (("mu-total", Variant.TOTAL), ("mu-dual", Variant.DUAL),
                          ("mu-outer", Variant.OUTER), ("mu", Variant.MUTUAL)):
        cert = max_visibility_number(g, variant, budget)
        if not cert.exact:
            return [VerificationReport(FormulaId.SANDWICH_DUAL_OUTER, inst, None,
                                       None, "skipped", "definitional-search",
                                       claim="chain",
                                       reason=f"{name} search beyond budget")]
        values[name] = cert.value
        certs.append(cert.as_json())
    chain_ok = (values["mu-total"] <= values["mu-dual"] <= values["mu"]
                and values["mu-total"] <= values["mu-outer"] <= values["mu"])
    certs.insert(0, {"values": values, "chain_holds": chain_ok})
    return [VerificationReport(FormulaId.SANDWICH_DUAL_OUTER, inst, None, None,
                               "pass" if chain_ok else "fail",
                               "definitional-search", claim="chain",
                               reason="" if chain_ok else "an inequality fails",
                               certificates=tuple(certs))]


_VERIFIERS = {
    FormulaId.MUT_KNESER: _v_mut_kneser,
    FormulaId.MU_KNESER: _v_mu_kneser,
    FormulaId.MUT_BIPARTITE: _v_mut_bipartite,
    FormulaId.MU_BIPARTITE_LB: _v_mu_bipartite_lb,
    FormulaId.MUT_JOHNSON: _v_mut_johnson,
    FormulaId.MU_JOHNSON_SANDWICH: _v_mu_johnson_sandwich,
    FormulaId.MU_JOHNSON_K2: _v_mu_johnson_k2,
    FormulaId.MU_KNESER_GP_LB: _v_mu_kneser_gp_lb,
    FormulaId.KNESER2_ALL_PARAMS: _v_kneser2_all_params,
    FormulaId.LEMMA_BINOM: _v_lemma_binom,
    FormulaId.LEMMA_CSTAR: _v_lemma_cstar,
    FormulaId.LEMMA_TRANSVERSAL_EQUIV: _v_lemma_transversal_equiv,
    FormulaId.SANDWICH_DUAL_OUTER: _v_sandwich_dual_outer,
}

# parameters each formula requires ("n" may be a single int or a range)
_NEEDS: dict[FormulaId, tuple[str, ...]] = {
    FormulaId.MUT_KNESER: ("n", "k"),
    FormulaId.MU_KNESER: ("n", "k"),
    FormulaId.MUT_BIPARTITE: ("n", "k"),
    FormulaId.MU_BIPARTITE_LB: ("n", "k"),
    FormulaId.MUT_JOHNSON: ("n", "k"),
    FormulaId.MU_JOHNSON_SANDWICH: ("n", "k"),
    FormulaId.MU_JOHNSON_K2: ("n",),
    FormulaId.MU_KNESER_GP_LB: ("n", "k"),
    FormulaId.KNESER2_ALL_PARAMS: ("n",),
    FormulaId.LEMMA_BINOM: ("n",),
    FormulaId.LEMMA_CSTAR: ("n", "k"),
    FormulaId.LEMMA_TRANSVERSAL_EQUIV: ("n", "k"),
    FormulaId.SANDWICH_DUAL_OUTER: ("family",),
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


def _instances(formula: FormulaId, params: dict) -> list[dict]:
    needed = _NEEDS[formula]
    for key in needed:
        if key not in params:
            raise DomainError(f"formula {formula.value} requires parameter {key!r}")
    if "family" in needed:
        return [dict(params)]
    lo, hi = parse_range(params["n"])
    out = []
    for n in range(lo, hi + 1):
        inst = {key: params[key] for key in params if key != "n"}
        inst["n"] = n
        if "k" in inst:
            inst["k"] = int(inst["k"])
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
    out: list[VerificationReport] = []
    for inst in _instances(fid, params or {}):
        t0 = time.perf_counter()
        try:
            rows = _VERIFIERS[fid](inst, budget, seed)
        except PreconditionError as e:
            rows = [VerificationReport(fid, inst, None, None, "skipped", "none",
                                       reason=f"precondition: {e}")]
        except BudgetExhausted:
            rows = [VerificationReport(fid, inst, None, None, "skipped", "none",
                                       reason="oracle beyond budget")]
        dt = time.perf_counter() - t0
        out.extend(replace(r, seconds=dt) for r in rows)
    return out
