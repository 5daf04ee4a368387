"""End-to-end benchmark of the mvlab CLI, with a per-layer split.

    python3 perfbench/run.py --workload {search,witness,extremal}
        [--seed N] [--seconds S] [--trace {0,1}] [--out FILE]
    python3 perfbench/run.py --compare OLD.json NEW.json

Every case is one `mvlab` CLI invocation in a fresh interpreter
(perfbench/child.py), run one at a time: a closed loop with one client.
Children get PYTHONPATH set to this checkout's `src` and MVLAB_THREADS
unset, and each reports where it imported mvlab from, so that neither a
stray environment variable nor an installed copy is measured instead.
Every output is checked against its pinned value or proven enclosure, and
every witness is re-validated through mvlab's public API (checks.py).

The run repeats passes over the workload's cases, in a seeded order, for
--seconds, and starts no case that its last duration says would overrun
them. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

End-to-end metrics (--trace 0). Times are at the reference host speed:
each invocation's measured seconds times speed.REFERENCE_S over the mean
time of speed.reference_work, a fixed computation the child runs just
before, every 0.1 s during (from a timer signal; that time is taken out)
and just after the call. This host's other tenants slow every process on
it by up to twice, in spells of seconds to minutes. On a 2-core sandbox,
over five 40 s runs of search in one such spell, the interquartile range of
solve_s was 23 % of its median as measured and 4.5 % scaled: a case's
measured time tracks the reference time taken with it (correlation
0.89-0.97 per case). setup_s is scaled by the samples taken before the
call. Measured times are printed too and kept in the results file.
  setup_s      median seconds from spawning the interpreter to having
               imported mvlab.cli; mostly `import mvlab`
  solve_s      seconds inside cli.main (parse, search, render), summed over
               the cases, each case's median over its invocations
  peak_rss_mb  largest peak RSS of any case's process

Workloads, and why each was chosen:
  search    definitional visibility branch-and-bound: kneser(7,2) mu,
            kneser(8,2) mu-outer (canonicalisation is half of it),
            bipartite-kneser(5,2) mu (diameter > 2: layered reachability),
            kneser(6,2) mu-dual (exhaustive), johnson(6,3) gp, verify
            mut-johnson 5..7 and a node-budgeted explore. Almost all work is
            in the visibility layer; covering, kernels and turan do none.
  witness   the same visibility layer used differently: one-shot predicate
            checks (is_visibility_set) and the Kneser transversal reduction
            on 190-300 vertex graphs (verify mu-kneser, kneser2-all-params,
            mut-bipartite, lemma-transversal-equiv with the run's seed).
            Context builds and the per-pair layer cache dominate, and peak
            RSS is several times that of search, so a cache or memory change
            that helps search but costs here shows.
  extremal  covering, c-star and Turan branch-and-bound and the tau kernel on
            12 random 4-uniform hypergraphs (n=24, m=100), relabelled at
            random by the seed, plus the H(23,4) construction. No visibility
            work: covering, Turan and kernel changes show here, and must not
            move search.

Per-layer metrics (--trace 1) come from a separate traced pass that wraps the
functions each layer exposes to the others (tracer.py), sampled for speed only
at its edges. `_s` metrics are self times summed over the cases, at the
reference host speed; each should move an end-to-end metric on a workload:
  cli.import_s               setup_s, every workload (median per invocation)
  cli.render_s, cli.self_s   should stay negligible: output and argument
                             parsing are not worth optimising
  families.context_s/_builds solve_s on witness; about 0 on search
  visibility.index_s, search_s, canon_s, nodes, nodes_per_s, can_add_calls,
    can_add_accept_ratio     solve_s and interval_gap on search; 0 on extremal
  visibility.predicate_s, predicate_calls, pair_visible_calls, reduction_s
                             solve_s and peak_rss_mb on witness;
                             pair_visible_calls also solve_s on search
  covering.search_s, nodes, nodes_per_s, min_edges_s
                             solve_s and interval_gap on extremal
  turan.search_s, nodes, nodes_per_s
                             solve_s and interval_gap on extremal
  kernels.tau_s, tau_calls, tau_nodes, tau_nodes_per_s
                             solve_s on extremal and witness; 0 on search
  hypergraphs.parse_s        solve_s on extremal
  theorems.self_s            solve_s on witness
  budget.exhausted_cases     interval_gap
  interval_gap               sum of hi - lo over cases that return a proven
                             interval under their node budget (exact adds 0)
  failed_frac                failed / attempted invocations
  trace.solve_s              traced solve_s; the self times sum to at most this
  trace.overhead_s           traced solve_s minus untraced solve_s
A layer whose hooks no longer resolve reads 0 and is listed as absent.

Results, with the seed, ACTIVE_KERNEL, Python version, CPU count and commit,
go to .perfbench/results/ (or --out). --compare prints two result files side
by side and refuses when their kernels differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CASE_TIMEOUT_S = 60
DEADLINE_S = 110  # measure for at most this long, whatever --seconds says
TRACE_FACTOR = 1.6  # traced pass time / untraced pass time, with a margin

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how it is read from the trace, tracer buckets).
# "self" sums the buckets' self seconds; "calls", "nodes" and "truthy" read the
# first bucket's counters; "rate" is the first bucket's nodes per self second
# of all the buckets; "accept" is truthy results per call. Metrics with no
# buckets are computed from the whole run.
LAYER_METRICS = {
    "cli.import_s": ("s", None, ()),
    "cli.render_s": ("s", "self", ("cli.render",)),
    "cli.self_s": ("s", "self", ("cli.main",)),
    "families.context_s": ("s", "self", ("families.context",)),
    "families.context_builds": ("count", "calls", ("families.context",)),
    "visibility.index_s": ("s", "self", ("visibility.index",)),
    "visibility.search_s": ("s", "self", ("visibility.search",)),
    "visibility.canon_s": ("s", "self", ("visibility.canon",)),
    "visibility.nodes": ("count", "nodes", ("visibility.search",)),
    "visibility.nodes_per_s": ("1/s", "rate", ("visibility.search", "visibility.canon")),
    "visibility.can_add_calls": ("count", "calls", ("visibility.can_add",)),
    "visibility.can_add_accept_ratio": ("ratio", "accept", ("visibility.can_add",)),
    "visibility.predicate_s": ("s", "self", ("visibility.predicate",)),
    "visibility.predicate_calls": ("count", "calls", ("visibility.predicate",)),
    "visibility.pair_visible_calls": ("count", "calls", ("visibility.pair_visible",)),
    "visibility.reduction_s": ("s", "self", ("visibility.reduction",)),
    "covering.search_s": ("s", "self", ("covering.search",)),
    "covering.nodes": ("count", "nodes", ("covering.search",)),
    "covering.nodes_per_s": ("1/s", "rate", ("covering.search",)),
    "covering.min_edges_s": ("s", "self", ("covering.min_edges",)),
    "turan.search_s": ("s", "self", ("turan.search",)),
    "turan.nodes": ("count", "nodes", ("turan.search",)),
    "turan.nodes_per_s": ("1/s", "rate", ("turan.search",)),
    "kernels.tau_s": ("s", "self", ("kernels.tau",)),
    "kernels.tau_calls": ("count", "calls", ("kernels.tau",)),
    "kernels.tau_nodes": ("count", "nodes", ("kernels.tau",)),
    "kernels.tau_nodes_per_s": ("1/s", "rate", ("kernels.tau",)),
    "hypergraphs.parse_s": ("s", "self", ("hypergraphs.parse",)),
    "theorems.self_s": ("s", "self", ("theorems",)),
    "budget.exhausted_cases": ("count", None, ()),
    "interval_gap": ("count", None, ()),
    "failed_frac": ("ratio", None, ()),
    "trace.solve_s": ("s", None, ()),
    "trace.overhead_s": ("s", None, ()),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(mvlab) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mvlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=False)
        commit = got.stdout.strip() or None
    return {"kernel": mvlab.ACTIVE_KERNEL, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()}


class Runner:
    def __init__(self, workdir: Path, kernel: str, checks):
        self.workdir = workdir
        self.kernel = kernel
        self.checks = checks
        self.env = {k: v for k, v in os.environ.items() if k != "MVLAB_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self._checked: dict = {}

    def run(self, case, traced: bool) -> dict:
        record = self.workdir / "record.json"
        record.unlink(missing_ok=True)
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        argv = [sys.executable, str(HERE / "child.py"), str(record),
                "1" if traced else "0", *case.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=CASE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return {"case": case.name, "problem": f"timeout after {CASE_TIMEOUT_S} s"}
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not record.exists():
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            return {"case": case.name,
                    "problem": f"crashed with exit code {proc.returncode}: {tail}"}
        rec = json.loads(record.read_text())
        # measured seconds, and the same at the reference host speed (speed.py)
        setup_s = rec["ready"] - spawned
        solve_s = rec["exit"] - rec["enter"] - rec["sampled_s"]
        scale = speed.REFERENCE_S / rec["probe_s"]
        setup_scale = speed.REFERENCE_S / rec["probe_before_s"]
        trace = rec.get("trace")
        if trace:
            trace["self_s"] = {b: v * scale for b, v in trace["self_s"].items()}
        result = {"case": case.name, "probe_s": rec["probe_s"], "probes": rec["probes"],
                  "raw_setup_s": setup_s, "raw_solve_s": solve_s,
                  "setup_s": setup_s * setup_scale, "solve_s": solve_s * scale,
                  "import_s": rec["import_s"] * setup_scale,
                  "rss_mb": rec["rss_kb"] / 1024, "code": rec["code"], "trace": trace}
        if not Path(rec["mvlab_file"]).resolve().is_relative_to(SRC):
            result["problem"] = f"measured an mvlab outside the checkout: {rec['mvlab_file']}"
            return result
        if rec["kernel"] != self.kernel:
            result["problem"] = f"child kernel {rec['kernel']} != {self.kernel}"
            return result
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        key = (case.name, rec["code"], stdout)
        if key not in self._checked:
            self._checked[key] = self.checks.check(case, rec["code"], stdout)
        problem, gap = self._checked[key]
        result["gap"] = gap
        if problem:
            result["problem"] = problem
        return result


def layer_metrics(traced: list[dict]) -> tuple[dict, list]:
    """Per-layer values summed over the traced cases, and the absent metrics."""
    totals: dict[str, dict[str, float]] = {}
    absent_buckets: set[str] = set()
    for r in traced:
        t = r.get("trace") or {}
        for kind in ("self_s", "calls", "nodes", "truthy"):
            table = totals.setdefault(kind, {})
            for bucket, value in t.get(kind, {}).items():
                table[bucket] = table.get(bucket, 0) + value
        absent_buckets.update(t.get("absent", ()))

    def read(kind: str, bucket: str) -> float:
        return totals.get(kind, {}).get(bucket, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    values: dict[str, float] = {}
    absent = []
    for name, (_, how, buckets) in LAYER_METRICS.items():
        if how is None:
            continue
        first = buckets[0]
        seconds = sum(read("self_s", b) for b in buckets)
        values[name] = {
            "self": seconds,
            "calls": read("calls", first),
            "nodes": read("nodes", first),
            "rate": ratio(read("nodes", first), seconds),
            "accept": ratio(read("truthy", first), read("calls", first)),
        }[how]
        if all(b in absent_buckets for b in buckets):
            absent.append(name)
    return values, absent


SUMMARY_KEYS = ("setup_s", "solve_s", "raw_setup_s", "raw_solve_s", "probe_s", "rss_mb")


def summarise(records: list[dict]) -> dict[str, dict]:
    by_case: dict[str, dict] = {}
    for r in records:
        row = by_case.setdefault(r["case"], {k: [] for k in SUMMARY_KEYS + ("problems",)})
        for key in SUMMARY_KEYS:
            if key in r:
                row[key].append(r[key])
        if "problem" in r:
            row["problems"].append(r["problem"])
    return by_case


def schedule(runner: Runner, cases: list, args) -> tuple[list, list, list]:
    """Run the cases for --seconds: (first pass, every untraced run, traced pass).

    The first pass runs every case once, in the listed order. Further passes,
    each in a seeded random order, run every case whose last duration still
    fits in what is left of the budget, so the run ends within it instead of
    overrunning by up to a pass; they stop when no case fits. With --trace 1
    the budget keeps room for the traced pass, which then runs every case once.
    """
    rng = random.Random(args.seed)
    budget = min(args.seconds, DEADLINE_S)
    start = time.perf_counter()
    cost: dict[str, float] = {}
    untraced: list[dict] = []

    def timed(case) -> dict:
        began = time.perf_counter()
        result = runner.run(case, traced=False)
        cost[case.name] = time.perf_counter() - began
        untraced.append(result)
        return result

    first = [timed(c) for c in cases]
    if any("timeout" in r.get("problem", "") for r in first):
        return first, untraced, []
    reserve = TRACE_FACTOR * (time.perf_counter() - start) if args.trace else 0.0
    ran = True
    while ran:
        order = list(cases)
        rng.shuffle(order)
        ran = False
        for case in order:
            if time.perf_counter() - start + cost[case.name] + reserve > budget:
                continue
            ran = True
            if "timeout" in timed(case).get("problem", ""):
                return first, untraced, []
    traced = [runner.run(c, traced=True) for c in cases] if args.trace else []
    return first, untraced, traced


def measure(args) -> None:
    if not (SRC / "mvlab" / "cli.py").is_file():
        fail(f"no mvlab sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mvlab
    if not Path(mvlab.__file__).resolve().is_relative_to(SRC):
        fail(f"imported mvlab from {mvlab.__file__}, not from {SRC}")
    import checks

    env = environment(mvlab)
    base = ROOT / ".perfbench"
    workdir = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, mvlab.ACTIVE_KERNEL, checks)
        cases = workloads.prepare(args.workload, args.seed, workdir,
                                  sys.executable, runner.env, ROOT)
        first, untraced, traced = schedule(runner, cases, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = untraced + traced
    failed = sum("problem" in r for r in everything)
    by_case = summarise(untraced)
    med = statistics.median

    def total(key: str) -> float:
        return sum(med(row[key]) for row in by_case.values() if row[key])

    def median_of(key: str) -> float:
        values = [r[key] for r in untraced if key in r]
        return med(values) if values else 0.0

    solve_s = total("solve_s")
    e2e = {"setup_s": median_of("setup_s"), "solve_s": solve_s,
           "peak_rss_mb": max((r["rss_mb"] for r in untraced if "rss_mb" in r), default=0.0)}
    measured = {"setup_s": median_of("raw_setup_s"), "solve_s": total("raw_solve_s"),
                "probe_s": median_of("probe_s")}
    layers, absent = ({}, [])
    if args.trace:
        layers, absent = layer_metrics(traced)
        imports = [r["import_s"] for r in untraced if "import_s" in r]
        traced_solve = sum(r["solve_s"] for r in traced if "solve_s" in r)
        layers.update({
            "cli.import_s": med(imports) if imports else 0.0,
            "budget.exhausted_cases": sum(r.get("gap", 0) > 0 for r in first),
            "interval_gap": sum(r.get("gap", 0) for r in first),
            "failed_frac": failed / len(everything),
            "trace.solve_s": traced_solve,
            "trace.overhead_s": traced_solve - solve_s,
        })
        layers = {name: layers[name] for name in LAYER_METRICS}

    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    print(f"seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"invocations {len(everything)}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("medians per case: setup_s and solve_s at the reference host speed, then "
          "solve_s as measured and the speed probe's seconds")
    print(f"{'case':26} {'runs':>4} {'setup_s':>8} {'solve_s':>8} {'measured':>8} "
          f"{'probe_ms':>8} {'rss_mb':>7}  check")
    for name, row in by_case.items():
        cells = [f"{med(row[k]) * f:>8.3f}" if row[k] else f"{'-':>8}"
                 for k, f in (("setup_s", 1), ("solve_s", 1), ("raw_solve_s", 1),
                              ("probe_s", 1000))]
        rss_cell = f"{max(row['rss_mb']):>7.1f}" if row["rss_mb"] else f"{'-':>7}"
        print(f"{name:26} {len(row['solve_s']):>4} {' '.join(cells)} {rss_cell}  "
              f"{row['problems'][0] if row['problems'] else 'ok'}")
    for r in traced:
        t = r.get("trace")
        if t:
            top = sorted(t["self_s"].items(), key=lambda kv: -kv[1])[:4]
            print(f"traced {r['case']:19} solve {r['solve_s']:.3f}  " + "  ".join(
                f"{b} {s:.3f}" for b, s in top if s > 0))
    for name, value in e2e.items():
        print(f"{name:32} {value:.6g} {E2E_UNITS[name]}")
    for name, value in measured.items():
        print(f"{'measured ' + name:32} {value:.6g} s")
    for name, value in layers.items():
        print(f"{name:32} {value:.6g} {LAYER_METRICS[name][0]}")
    if layers:
        self_sum = sum(v for k, v in layers.items() if LAYER_METRICS[k][0] == "s"
                       and not k.startswith(("trace.", "cli.import")))
        print(f"layer self times sum to {self_sum:.4f} s; traced solve_s is "
              f"{layers['trace.solve_s']:.4f} s")
    if absent:
        print("absent (hooks no longer resolve): " + ", ".join(absent))

    metrics = ({k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layers.items()}
               if args.trace else
               {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()})
    out = Path(args.out) if args.out else (
        base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "end_to_end": e2e, "measured": measured,
        "reference_s": speed.REFERENCE_S, "per_layer": layers,
        "absent": absent, "attempted": len(everything), "failed": failed,
        "cases": untraced + traced}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(everything),
                      "failed": failed, "metrics": metrics}))


def compare(old_path: str, new_path: str) -> None:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old["env"]["kernel"] != new["env"]["kernel"]:
        fail(f"refusing to compare: ACTIVE_KERNEL is {old['env']['kernel']} in "
             f"{old_path} and {new['env']['kernel']} in {new_path}")
    if old["workload"] != new["workload"]:
        fail(f"refusing to compare workload {old['workload']} with {new['workload']}")
    print(f"{'metric':32} {'old':>12} {'new':>12} {'change':>8}")
    for section in ("end_to_end", "per_layer"):
        for name, a in old[section].items():
            b = new[section].get(name)
            if b is None:
                continue
            change = f"{(b - a) / a:+.1%}" if a else "-"
            print(f"{name:32} {a:>12.6g} {b:>12.6g} {change:>8}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file (default .perfbench/results/...)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        measure(args)
    else:
        ap.error("give --workload or --compare")


if __name__ == "__main__":
    main()
