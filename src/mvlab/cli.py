"""Command-line surface for the visibility and covering solvers.

Verbs map one-to-one onto library operations:

  compute    exact visibility parameter of a family graph
  verify     formula-versus-oracle reports for the closed formulas
  construct  the named transversal-number constructions
  turan      pattern-free extremal edge counts / containment checks
  covering   covering numbers and the minimum-edge constant
  tau        transversal number of a hypergraph file
  explore    the same as compute

Exit codes: 0 success (all verdicts pass), 1 a verification failed,
2 usage error (machine-readable object on stderr), 3 a budget-limited
search returned an interval instead of an exact value.

verify hands each parameter flag it is given to the formula, and a
formula that does not read it exits 2: --samples and --seed are the
lemma-transversal-equiv sweep's alone. turan takes the uniformity from
the pattern spec.

The search verbs (compute, covering, turan, tau) print one result each.
compute, covering and turan give a "status" of "exact" or "interval".
compute prints the lower end as "value", with "bounds" [lo, hi] when cut;
covering and turan print "value" as an integer or [lo, hi]. tau prints
"tau", an upper bound when cut, and "optimal" in place of a status.

Output is deterministic for a fixed argv: json and csv never include
wall-clock fields. The verify --summary table does include a seconds
column and is the one deliberately non-reproducible view.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .budget import DEFAULT_BUDGET, Budget
from .constructions import build_complete_uniform, build_generalized_triangle, build_h_nk
from .covering import c_star, covering_number
from .errors import MvlabError
from .families import parse_family
from .hypergraphs import format_hypergraph, parse_hypergraph, transversal_number
from .theorems import all_formula_ids, verify as run_verify
from .turan import contains_pattern, ex_uniform, parse_pattern
from .visibility import PARAM_TO_VARIANT, max_visibility_number

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

PARAM_CHOICES = tuple(PARAM_TO_VARIANT)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with plain text
        raise _UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}),
          file=sys.stderr)


# ----------------------------------------------------------------------
# output rendering


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _as_rows(obj) -> list[dict]:
    return obj if isinstance(obj, list) else [obj]


_WIDE_COLUMNS = ("certificates", "witness", "blocks", "edges", "transversal")


def _render_table(rows: list[dict]) -> str:
    cols: list[str] = []
    for r in rows:
        for key in r:
            if key not in cols and key not in _WIDE_COLUMNS:
                cols.append(key)
    grid = [[_cell(r.get(c)) for c in cols] for r in rows]
    widths = [max(len(c), max((len(g[i]) for g in grid), default=0))
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for g in grid:
        lines.append("  ".join(v.ljust(w) for v, w in zip(g, widths)).rstrip())
    return "\n".join(lines)


def _render_csv(rows: list[dict]) -> str:
    cols: list[str] = []
    for r in rows:
        for key in r:
            if key not in cols:
                cols.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for r in rows:
        writer.writerow([_cell(r.get(c)) for c in cols])
    return buf.getvalue().rstrip("\n")


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    elif fmt == "table":
        print(_render_table(_as_rows(obj)))
    else:  # csv: argparse admits no other --format
        print(_render_csv(_as_rows(obj)))


def _budget(args) -> Budget:
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


# ----------------------------------------------------------------------
# subcommands


def _emit_result(result, fmt: str) -> int:
    """Print one search result; exit 3 when it is not exact."""
    _emit(result.as_json(), fmt)
    return EXIT_OK if result.exact else EXIT_BUDGET


def _cmd_compute(args) -> int:
    cert = max_visibility_number(parse_family(args.family),
                                 PARAM_TO_VARIANT[args.param], _budget(args))
    return _emit_result(cert, args.format)


def _verify_params(args) -> dict:
    """The verify flags given, keyed as ``verify`` reads them; a formula
    rejects one it does not read."""
    return {key: value for key in ("n", "k", "family", "samples", "seed")
            if (value := getattr(args, key)) is not None}


def _cmd_verify(args) -> int:
    reports = run_verify(args.formula, _verify_params(args), _budget(args))

    if args.summary:
        rows = []
        for r in reports:
            rows.append({
                "formula": r.formula.value,
                "params": ",".join(f"{k}={v}" for k, v in sorted(r.params.items())),
                "formula_value": r.formula_value.as_json() if r.formula_value else None,
                "oracle_value": r.oracle_value.as_json() if r.oracle_value else None,
                "verdict": r.verdict,
                "seconds": f"{r.seconds:.2f}",
            })
        print(_render_table(rows))
    else:
        _emit([r.as_json() for r in reports], args.format)

    if any(r.verdict == "fail" for r in reports):
        return EXIT_FAIL
    if any(r.verdict == "skipped" and "precondition" not in r.reason
           for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.what == "generalized-triangle":
        if args.k is None:
            raise _UsageError("generalized-triangle requires --k")
        h = build_generalized_triangle(args.k, args.n)
    elif args.what == "complete-uniform":
        if args.k is None:
            raise _UsageError("complete-uniform requires --k")
        v = args.v if args.v is not None else 2 * args.k - 3
        h = build_complete_uniform(v, args.k, args.n)
    else:  # H_nk: argparse admits no other --what
        if args.n is None or args.k is None:
            raise _UsageError("H_nk requires --n and --k")
        h = build_h_nk(args.n, args.k)
    text = format_hypergraph(h)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        _emit({"what": args.what, "n": h.n, "k": h.k,
               "edges": len(h.edges), "out": args.out}, args.format)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_turan(args) -> int:
    pattern = parse_pattern(args.pattern)
    if args.check:
        h = parse_hypergraph(_read_input(args.check))
        found = contains_pattern(h, pattern)
        out = {"pattern": args.pattern, "n": h.n, "edges": len(h.edges),
               "contains": found is not None}
        if found is not None:
            apex, zs = found
            out["embedding"] = {"apex": list(apex), "cycle_vertices": list(zs)}
        _emit(out, args.format)
        return EXIT_OK
    if args.n is None:
        raise _UsageError("turan requires --n (or --check FILE)")
    return _emit_result(ex_uniform(args.n, pattern, _budget(args)), args.format)


def _cmd_covering(args) -> int:
    if args.c_star:
        if args.t is not None:
            raise _UsageError("--c-star computes its own block size; drop --t")
        cert = c_star(args.n, args.k, _budget(args))
    else:
        if args.t is None:
            raise _UsageError("covering requires --t (or --c-star)")
        cert = covering_number(args.n, args.k, args.t, _budget(args))
    return _emit_result(cert, args.format)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _cmd_tau(args) -> int:
    h = parse_hypergraph(_read_input(args.infile))
    return _emit_result(transversal_number(h, _budget(args)), args.format)


# ----------------------------------------------------------------------
# argument wiring


def _nonnegative(cast):
    """An argparse type: ``cast`` of the text, rejected below 0 or at NaN."""
    def convert(text: str):
        if not (value := cast(text)) >= 0:  # NaN would switch the clock off
            raise argparse.ArgumentTypeError(f"expected a value >= 0, got {text!r}")
        return value
    convert.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return convert


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table", "csv"),
                   default="json", help="output format (default json)")
    p.add_argument("--budget-nodes", type=_nonnegative(int),
                   default=DEFAULT_BUDGET.max_nodes, help="search node budget (default 1e7)")
    p.add_argument("--budget-seconds", type=_nonnegative(float),
                   default=DEFAULT_BUDGET.max_seconds,
                   help="search wall-clock budget (default 60)")


def _compute_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   help="family spec, e.g. kneser:n=7,k=2")
    p.add_argument("--param", required=True, choices=PARAM_CHOICES)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", required=True, choices=all_formula_ids())
    p.add_argument("--n", help="value or inclusive range, e.g. 5 or 4..6")
    p.add_argument("--k", type=int)
    p.add_argument("--family", help="family spec for graph-shaped formulas")
    p.add_argument("--samples", type=_nonnegative(int),
                   help="random subsets per instance for sweep oracles")
    p.add_argument("--seed", type=int,
                   help="seed for the lemma-transversal-equiv sweep (default 0)")
    p.add_argument("--summary", action="store_true",
                   help="fixed-width table with a wall-clock column")


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--what", required=True,
                   choices=("generalized-triangle", "complete-uniform", "H_nk"))
    p.add_argument("--n", type=int, help="ground-set size (pads with isolates)")
    p.add_argument("--k", type=int, help="edge size")
    p.add_argument("--v", type=int, help="vertex count for complete-uniform")
    p.add_argument("--out", help="write the hypergraph file here")


def _turan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern", required=True,
                   help="pattern spec: c4sus:k=<int> or k4sus:k=<int>")
    p.add_argument("--n", type=int, help="ground-set size for the search")
    p.add_argument("--check", metavar="FILE",
                   help="test containment in this hypergraph file instead")


def _covering_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--c-star", action="store_true",
                   help="minimum k-uniform edge count with transversal number 2k")


def _tau_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True,
                   help="hypergraph file, or - for stdin")


# verb: (help line, its own arguments, handler), in the order -h lists them
_VERBS = {
    "compute": ("exact visibility parameter of a family", _compute_args, _cmd_compute),
    "verify": ("formula-versus-oracle reports", _verify_args, _cmd_verify),
    "construct": ("named transversal constructions", _construct_args, _cmd_construct),
    "turan": ("pattern-free extremal edge counts", _turan_args, _cmd_turan),
    "covering": ("covering numbers C(n, k, t)", _covering_args, _cmd_covering),
    "tau": ("transversal number of a hypergraph file", _tau_args, _cmd_tau),
    "explore": ("the same as compute", _compute_args, _cmd_compute),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The mvlab parser. Given a verb, it holds only that verb's subparser,
    which parses the verb's argv as the full parser does and spares each
    run the milliseconds of building the others. Without one it holds them
    all, for the top-level help and for an argv that names no verb."""
    top = _Parser(prog="mvlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="verb", required=True)
    for name, (help_line, add_arguments, func) in _VERBS.items():
        if verb in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            _common(p)
            p.set_defaults(func=func)
    return top


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _VERBS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        _emit_error("usage", str(e))
        return EXIT_USAGE
    except MvlabError as e:
        _emit_error(getattr(e, "kind", "error"), str(e))
        return EXIT_USAGE
    except OSError as e:
        _emit_error("io", str(e))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
