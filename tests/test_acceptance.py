"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS line with
its wall-clock time, and enforces the stated time budget. Expected
constants were pinned ahead of implementation from independent
brute-force oracles (tests/oracles.py) where feasible; the remaining
values are exercised through two independent in-package routes that must
agree.
"""

import math
import time

from mvlab.budget import Budget
from mvlab.constructions import (
    build_complete_uniform,
    build_generalized_triangle,
    build_h_nk,
)
from mvlab.covering import c_star, covering_number, min_edges_with_tau
from mvlab.families import bipartite_kneser, johnson, kneser
from mvlab.hypergraphs import transversal_number
from mvlab.theorems import kneser2_all_params, mu_kneser_gp_lower_bound, verify
from mvlab.turan import build_c4_suspension, build_k4_suspension, ex_uniform
from mvlab.visibility import Variant, is_visibility_set, max_visibility_number

WIDE_BUDGET = Budget(max_nodes=50_000_000, max_seconds=110.0)


def _criterion(num: int, limit_s: float, fn) -> None:
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    print(f"criterion {num:02d}: PASS in {dt:.2f}s (limit {limit_s:.0f}s)")
    assert dt < limit_s, f"criterion {num} exceeded its {limit_s:.0f}s budget"


def test_criterion_01_petersen_total_visibility_zero():
    def body():
        cert = max_visibility_number(kneser(5, 2), Variant.TOTAL)
        assert cert.exact and cert.value == 0
        # every singleton already fails the total predicate
        g = kneser(5, 2)
        for v in g.vertices():
            assert not is_visibility_set(g, [v], Variant.TOTAL).ok

    _criterion(1, 1.0, body)


def test_criterion_02_kneser_total_via_reduction_and_equivalence_sweep():
    def body():
        expected = {6: 9, 7: 16, 8: 24}
        for n, want in expected.items():
            m, witness, _ = min_edges_with_tau(n, 2, 4)
            assert math.comb(n, 2) - m == want
            assert transversal_number(witness).tau == 4
        sweeps = verify("lemma-transversal-equiv",
                        {"n": (6, 8), "k": 2, "samples": 200, "seed": 0})
        assert [r.verdict for r in sweeps] == ["pass"] * 3
        for r in sweeps:
            cert = r.certificates[0]
            assert cert["disagreements"] == 0
            assert cert["random_samples"] == 200
            assert cert["subsets_checked"] >= 200
            assert cert["positives"] > 0  # sweep saw both outcomes

    _criterion(2, 30.0, body)


def test_criterion_03_johnson_total_two_routes_agree():
    def body():
        expected = {4: 4, 5: 6, 6: 7}
        pat = build_c4_suspension(2)
        for n, want in expected.items():
            definitional = max_visibility_number(johnson(n, 2), Variant.TOTAL)
            extremal = ex_uniform(n, pat)
            assert definitional.exact and extremal.exact
            assert definitional.value == extremal.value == want

    _criterion(3, 60.0, body)


def test_criterion_04_johnson_mutual_floor_formula():
    def body():
        for n in (4, 5):
            cert = max_visibility_number(johnson(n, 2), Variant.MUTUAL,
                                         WIDE_BUDGET)
            assert cert.exact
            assert cert.value == n * n // 3

    _criterion(4, 120.0, body)


def test_criterion_05_bipartite_total_zero_and_covering_witness():
    def body():
        g5 = bipartite_kneser(5, 2)
        for v in g5.vertices():
            assert not is_visibility_set(g5, [v], Variant.TOTAL).ok
        assert max_visibility_number(g5, Variant.TOTAL).value == 0

        cover = covering_number(7, 5, 4)
        assert cover.exact and cover.value == 9
        # witness: drop the nine 5-set blocks and their nine complements
        g7 = bipartite_kneser(7, 2)
        full = (1 << 7) - 1
        removed = set(cover.blocks) | {full ^ b for b in cover.blocks}
        witness = [v for v in g7.vertices() if v.bits not in removed]
        assert len(witness) == 2 * math.comb(7, 2) - 2 * 9 == 24
        assert is_visibility_set(g7, witness, Variant.TOTAL).ok

    _criterion(5, 60.0, body)


def test_criterion_06_construction_transversal_suite():
    def body():
        for k in range(2, 7):
            assert transversal_number(build_generalized_triangle(k)).tau == 2
        for k in (4, 5, 6):
            h = build_complete_uniform(2 * k - 3, k)
            assert transversal_number(h).tau == k - 2
        h = build_h_nk(16, 3)
        assert h.edge_count == 8
        assert transversal_number(h).tau == 6

    _criterion(6, 10.0, body)


def test_criterion_07_c_star_stable_range_and_covering_duality():
    def body():
        for n in range(8, 13):
            cert = c_star(n, 2)
            assert cert.exact and cert.value == 4
        for n in (6, 7, 8):
            direct = covering_number(n, n - 2, 3).value
            m, _, _ = min_edges_with_tau(n, 2, 4)
            assert direct == m == c_star(n, 2).value

    _criterion(7, 30.0, body)


def test_criterion_08_sandwich_chains_and_gp_lower_bound():
    def body():
        for g in (kneser(5, 2), johnson(4, 2)):
            vals = {v: max_visibility_number(g, v, WIDE_BUDGET).value
                    for v in (Variant.TOTAL, Variant.DUAL,
                              Variant.OUTER, Variant.MUTUAL)}
            assert vals[Variant.TOTAL] <= vals[Variant.DUAL] <= vals[Variant.MUTUAL]
            assert vals[Variant.TOTAL] <= vals[Variant.OUTER] <= vals[Variant.MUTUAL]
        assert mu_kneser_gp_lower_bound(5, 2) == 4
        assert max_visibility_number(kneser(5, 2), Variant.MUTUAL).value >= 4
        (report,) = verify("mu-kneser-gp-lb", {"n": 5, "k": 2})
        assert report.verdict == "pass"

    _criterion(8, 120.0, body)


def test_criterion_09_kneser2_all_four_parameters():
    def body():
        assert kneser2_all_params(8) == 24
        rows = verify("kneser2-all-params", {"n": 8})
        by_param = {r.params["param"]: r for r in rows}
        total = by_param["mu-total"]
        assert total.verdict == "pass"
        assert total.oracle == "reduction-min-edges"
        assert total.oracle_value.exact and total.oracle_value.value == 24
        for p in ("mu", "mu-dual", "mu-outer"):
            r = by_param[p]
            assert r.verdict == "pass"
            assert r.oracle == "witness-only"
            cert = r.certificates[0]
            assert cert["construction"] == "complement-four-disjoint-pairs"
            assert cert["witness_size"] == 24 and cert["validates"] is True

    _criterion(9, 60.0, body)


def test_criterion_10_binomial_growth_and_k4_free_counts():
    def body():
        for n in range(4, 31):
            for k in range(2, n):
                if k < n < 2 * k:
                    assert math.comb(n, k) > 2 * math.comb(n - 1, k)
        rows = verify("lemma-binom", {"n": (4, 30)})
        assert all(r.verdict == "pass" for r in rows)
        pat = build_k4_suspension(2)
        for n in (4, 5, 6, 7):
            r = ex_uniform(n, pat)
            assert r.exact and r.value == n * n // 3

    _criterion(10, 30.0, body)
