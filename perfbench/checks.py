"""Output checks. Every witness is re-validated through mvlab's public API.

``check(case, code, stdout)`` returns (problem or None, interval gap). A
problem is a wrong value or status, an invalid witness or an unexpected
exit code. The gap is hi - lo of a proven interval, 0 for an exact result,
so a positive gap means the case ran out of budget.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import mvlab

EXIT_OK, EXIT_BUDGET = 0, 3


class Wrong(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _bounds(value) -> tuple[int, int]:
    return (value[0], value[1]) if isinstance(value, list) else (value, value)


def _check_bounds(expect: dict, lo: int, hi: int, code: int) -> None:
    _require(lo <= hi, f"empty interval [{lo}, {hi}]")
    if "value" in expect:
        _require(lo == hi == expect["value"],
                 f"expected exact {expect['value']}, got [{lo}, {hi}]")
    else:
        elo, ehi = expect["enclosure"]
        _require(lo <= ehi and hi >= elo,
                 f"[{lo}, {hi}] misses the proven enclosure [{elo}, {ehi}]")
    want = EXIT_OK if lo == hi else EXIT_BUDGET
    _require(code == want, f"exit code {code}, expected {want}")


def _visibility_witness(cert: dict) -> None:
    graph = mvlab.parse_family(cert["family"])
    members = {mvlab.KSubset.from_members(m, graph.n) for m in cert["witness"]}
    _require(len(members) == cert["value"],
             f"witness has {len(members)} distinct vertices, value is {cert['value']}")
    res = mvlab.is_visibility_set(graph, members, cert["variant"])
    _require(res.ok, f"{cert['variant']} witness of {cert['family']} is invalid")


def _visibility(expect: dict, code: int, out: dict) -> int:
    _visibility_witness(out)
    lo = out["value"]
    hi = lo if out["status"] == "exact" else out.get("bounds", [lo, None])[1]
    _require(hi is not None, "incomplete search without proven bounds")
    _check_bounds(expect, lo, hi, code)
    return hi - lo


def _walk_visibility_certs(obj) -> None:
    if isinstance(obj, dict):
        if {"family", "variant", "witness", "value"} <= obj.keys():
            _visibility_witness(obj)
        for v in obj.values():
            _walk_visibility_certs(v)
    elif isinstance(obj, list):
        for v in obj:
            _walk_visibility_certs(v)


def _verify(expect: dict, code: int, out: list) -> int:
    verdicts = [r["verdict"] for r in out]
    _require(len(verdicts) == expect["verdicts"] and set(verdicts) == {"pass"},
             f"verdicts {verdicts}")
    _require(code == EXIT_OK, f"exit code {code}")
    _walk_visibility_certs(out)
    return 0


def _covers(n: int, blocks: list[int], t: int) -> bool:
    return all(any(mask & b == mask for b in blocks)
               for mask in (sum(1 << (x - 1) for x in c)
                            for c in combinations(range(1, n + 1), t)))


def _covering(expect: dict, code: int, out: dict) -> int:
    lo, hi = _bounds(out["value"])
    _check_bounds(expect, lo, hi, code)
    n, k = out["n"], out["k"]
    if "edges" in out:  # c-star: k-sets whose complements cover every (2k-1)-set
        h = mvlab.hypergraph(n, out["edges"])
        _require(len(h.edges) == hi and {e.bit_count() for e in h.edges} == {k},
                 f"{len(h.edges)} edges of sizes other than {k}, or hi is not {hi}")
        full = (1 << n) - 1
        _require(_covers(n, [full ^ e for e in h.edges], 2 * k - 1),
                 "complements of the edges miss a (2k-1)-set")
        tau = mvlab.transversal_number(h).tau
        _require(tau == out["witness_tau"] and tau >= 2 * k,
                 f"witness tau {out['witness_tau']} (recomputed {tau}) below 2k")
    else:
        h = mvlab.hypergraph(n, out["blocks"])
        _require(len(h.edges) == hi and {e.bit_count() for e in h.edges} == {k},
                 f"{len(h.edges)} blocks of sizes other than {k}, or hi is not {hi}")
        _require(_covers(n, list(h.edges), out["t"]), "blocks miss a t-set")
    return hi - lo


def _turan(expect: dict, code: int, out: dict) -> int:
    lo, hi = _bounds(out["value"])
    _check_bounds(expect, lo, hi, code)
    h = mvlab.hypergraph(out["n"], out["witness"])
    _require(len(h.edges) == lo, f"witness has {len(h.edges)} edges, lo is {lo}")
    _require(mvlab.contains_pattern(h, mvlab.parse_pattern(out["pattern"])) is None,
             "witness contains the pattern")
    return hi - lo


def _tau(expect: dict, code: int, out: dict, infile: str) -> int:
    h = mvlab.parse_hypergraph(Path(infile).read_text(encoding="ascii"))
    mask = sum(1 << (x - 1) for x in out["transversal"])
    _require(code == EXIT_OK and out["optimal"], f"exit code {code}, not optimal")
    _require(mvlab.is_transversal(h, mask), "witness is not a transversal")
    _require(len(set(out["transversal"])) == out["tau"], "witness size is not tau")
    if "value" in expect:
        _require(out["tau"] == expect["value"], f"tau {out['tau']}")
    return 0


def check(case, code: int, stdout: str) -> tuple[str | None, int]:
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit code {code}, output is not JSON", 0
    verb = case.argv[0]
    try:
        if verb in ("compute", "explore"):
            gap = _visibility(case.expect, code, out)
        elif verb == "verify":
            gap = _verify(case.expect, code, out)
        elif verb == "covering":
            gap = _covering(case.expect, code, out)
        elif verb == "turan":
            gap = _turan(case.expect, code, out)
        elif verb == "tau":
            gap = _tau(case.expect, code, out, case.argv[case.argv.index("--in") + 1])
        else:
            return f"no check for verb {verb}", 0
    except (Wrong, KeyError, TypeError, IndexError, mvlab.MvlabError) as e:
        return f"{type(e).__name__}: {e}", 0
    return None, gap
