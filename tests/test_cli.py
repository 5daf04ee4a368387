import csv
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mvlab.cli
from mvlab.hypergraphs import parse_hypergraph


SRC = str(Path(mvlab.cli.__file__).resolve().parents[1])


def run_cli(*args, env_extra=None, stdin_text=None):
    # the child imports the same mvlab as this process, however pytest was started
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mvlab.cli", *args],
        capture_output=True, text=True, env=env, input=stdin_text, timeout=300)


def test_console_script_resolves_to_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    project = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(project.read_text())["project"]["scripts"]["mvlab"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is mvlab.cli.main and callable(entry)
    assert entry(["construct", "--what", "generalized-triangle", "--k", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "6 4"


def test_compute_total_petersen():
    p = run_cli("compute", "--family", "kneser:n=5,k=2", "--param", "mu-total")
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["value"] == 0 and out["status"] == "exact"
    assert out["witness"] == []


def test_compute_table_and_csv_forms():
    table = run_cli("compute", "--family", "johnson:n=4,k=2", "--param", "mu",
                    "--format", "table")
    assert table.returncode == 0
    head, row = table.stdout.splitlines()[:2]
    assert head.split()[:3] == ["family", "variant", "value"]
    assert "johnson:n=4,k=2" in row
    csv_out = run_cli("compute", "--family", "johnson:n=4,k=2", "--param", "mu",
                      "--format", "csv")
    header, row = list(csv.reader(io.StringIO(csv_out.stdout)))[:2]
    assert header[:3] == ["family", "variant", "value"]
    assert row[:3] == ["johnson:n=4,k=2", "mutual", "5"]


def test_verify_passes_and_exit_zero():
    p = run_cli("verify", "--formula", "mut-johnson", "--n", "4..6", "--k", "2")
    assert p.returncode == 0, p.stderr
    rows = json.loads(p.stdout)
    assert [r["verdict"] for r in rows] == ["pass"] * 3
    assert all("seconds" not in r for r in rows)


def test_verify_summary_table_has_seconds():
    p = run_cli("verify", "--formula", "mut-johnson", "--n", "4", "--k", "2",
                "--summary")
    assert p.returncode == 0
    assert "seconds" in p.stdout.splitlines()[0]


def test_verify_budget_exhaustion_exit_three():
    p = run_cli("verify", "--formula", "mut-kneser", "--n", "9", "--k", "2",
                "--budget-nodes", "5")
    assert p.returncode == 3
    rows = json.loads(p.stdout)
    assert rows[0]["verdict"] == "skipped"


def test_verify_precondition_skip_keeps_exit_zero():
    p = run_cli("verify", "--formula", "mu-kneser", "--n", "7", "--k", "2")
    assert p.returncode == 0, p.stdout
    rows = json.loads(p.stdout)
    assert rows[0]["verdict"] == "skipped"
    assert rows[0]["reason"].startswith("precondition")


@pytest.mark.parametrize("argv", [
    ["lemma-binom", "--n", "1..3"],
    ["lemma-cstar", "--n", "5..7", "--k", "2"],
])
def test_clause_less_lemma_rows_keep_exit_zero(argv, capsys):
    assert mvlab.cli.main(["verify", "--formula", *argv]) == 0
    rows = json.loads(capsys.readouterr().out)
    skipped = [r for r in rows if r["verdict"] == "skipped"]
    assert skipped and all(r["oracle"] == "none" and r["reason"].startswith("precondition: ")
                           for r in skipped)
    assert all(r["verdict"] == "pass" for r in rows if r not in skipped)


def test_stdout_deterministic():
    args = ("verify", "--formula", "mut-kneser", "--n", "5..6", "--k", "2")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_construct_round_trip(tmp_path):
    out = tmp_path / "h.txt"
    p = run_cli("construct", "--what", "H_nk", "--n", "16", "--k", "3",
                "--out", str(out))
    assert p.returncode == 0
    meta = json.loads(p.stdout)
    assert meta["edges"] == 8
    h = parse_hypergraph(out.read_text())
    assert h.n == 16 and h.k == 3 and h.edge_count == 8
    tau = run_cli("tau", "--in", str(out))
    assert tau.returncode == 0
    assert json.loads(tau.stdout)["tau"] == 6


def test_tau_of_h_23_4_is_pinned(tmp_path):
    out = tmp_path / "h.txt"
    assert run_cli("construct", "--what", "H_nk", "--n", "23", "--k", "4",
                   "--out", str(out)).returncode == 0
    p = run_cli("tau", "--in", str(out))
    assert p.returncode == 0, p.stderr
    cert = json.loads(p.stdout)
    # the kernel's search tree, pinned
    assert (cert["tau"], cert["optimal"], cert["nodes_expanded"]) == (8, True, 7985)
    assert cert["transversal"] == [1, 3, 7, 9, 13, 14, 18, 19]


def test_construct_stdout_pipe_to_tau():
    built = run_cli("construct", "--what", "generalized-triangle", "--k", "4")
    assert built.returncode == 0
    assert built.stdout.splitlines()[0] == "6 4"
    tau = run_cli("tau", "--in", "-", stdin_text=built.stdout)
    assert json.loads(tau.stdout)["tau"] == 2


def _random_tau_input():
    rng = random.Random(5)
    edges = set()
    while len(edges) < 100:
        edges.add(tuple(sorted(rng.sample(range(1, 25), 4))))
    text = "24 4\n" + "".join(" ".join(map(str, e)) + "\n" for e in sorted(edges))
    return edges, text


def test_tau_honours_the_node_budget():
    edges, text = _random_tau_input()
    capped = run_cli("tau", "--in", "-", "--budget-nodes", "10", stdin_text=text)
    assert capped.returncode == 3, capped.stderr
    out = json.loads(capped.stdout)
    assert out["optimal"] is False
    assert out["nodes_expanded"] <= 10
    hit = set(out["transversal"])
    assert len(hit) == out["tau"]
    assert all(hit.intersection(e) for e in edges)
    full = run_cli("tau", "--in", "-", stdin_text=text)
    assert full.returncode == 0
    out = json.loads(full.stdout)
    assert out["optimal"] is True
    # the kernel's search tree, pinned
    assert (out["tau"], out["nodes_expanded"]) == (9, 1456)
    assert out["transversal"] == [1, 6, 8, 10, 11, 12, 14, 16, 24]


def test_tau_honours_the_seconds_budget():
    # about 45.7k nodes and 0.7 s unbudgeted; the clock stops it long before
    rng = random.Random(11)
    edges = set()
    while len(edges) < 200:
        edges.add(tuple(sorted(rng.sample(range(1, 37), 4))))
    text = "36 4\n" + "".join(" ".join(map(str, e)) + "\n" for e in sorted(edges))
    p = run_cli("tau", "--in", "-", "--budget-seconds", "0.05",
                "--budget-nodes", "10000000", stdin_text=text)
    assert p.returncode == 3, p.stderr
    out = json.loads(p.stdout)
    assert out["optimal"] is False
    assert 0 < out["nodes_expanded"] < 10_000_000
    hit = set(out["transversal"])
    assert len(hit) == out["tau"]
    assert all(hit.intersection(e) for e in edges)


# unbudgeted, compute and explore take about 0.75 s wall (exact 28), c-star
# about 9 s and turan about 23 s (both are still cut at 10^7 nodes)
_SLOW_VERBS = {
    "compute": ("compute", "--family", "bipartite-kneser:n=7,k=2", "--param", "mu"),
    "explore": ("explore", "--family", "bipartite-kneser:n=7,k=2", "--param", "mu"),
    "c-star": ("covering", "--n", "11", "--k", "3", "--c-star"),
    "turan": ("turan", "--pattern", "c4sus:k=3", "--n", "9"),
}


@pytest.fixture(scope="module")
def cli_startup_s():
    """Wall time of a CLI run that does almost no work."""
    t0 = time.monotonic()
    p = run_cli("compute", "--family", "kneser:n=5,k=2", "--param", "mu-total")
    assert p.returncode == 0, p.stderr
    return time.monotonic() - t0


@pytest.mark.parametrize("verb", sorted(_SLOW_VERBS))
def test_seconds_budget_stops_each_verb(verb, cli_startup_s):
    budget = 0.3
    t0 = time.monotonic()
    p = run_cli(*_SLOW_VERBS[verb], "--budget-seconds", str(budget))
    elapsed = time.monotonic() - t0
    assert p.returncode == 3, p.stderr
    # generous slack: co-tenants on a shared host can stall any process
    assert elapsed < cli_startup_s + budget + 1.5, (elapsed, cli_startup_s)


def test_tau_zero_node_budget_stops_at_once():
    # a zero budget expands nothing, as in every other verb; the greedy
    # transversal comes back as the upper bound
    edges, text = _random_tau_input()
    p = run_cli("tau", "--in", "-", "--budget-nodes", "0", stdin_text=text)
    assert p.returncode == 3, p.stderr
    out = json.loads(p.stdout)
    assert out["nodes_expanded"] == 0
    assert out["optimal"] is False
    hit = set(out["transversal"])
    assert len(hit) == out["tau"]
    assert all(hit.intersection(e) for e in edges)


def test_verify_mu_johnson_k2_budget_cut_is_skipped():
    # a budget-cut Turan search returns a smaller witness, not a contradiction
    # (at 100 nodes the intervals are [20, 21] and [24, 27])
    p = run_cli("verify", "--formula", "mu-johnson-k2", "--n", "8..9",
                "--budget-nodes", "100")
    assert p.returncode == 3, p.stderr
    rows = json.loads(p.stdout)
    assert [r["verdict"] for r in rows] == ["skipped", "skipped"]
    assert all(r["reason"] == "oracle beyond budget" for r in rows)


def test_turan_exact_and_interval_exit_codes():
    exact = run_cli("turan", "--pattern", "k4sus:k=2", "--n", "6")
    assert exact.returncode == 0
    assert json.loads(exact.stdout)["value"] == 12
    capped = run_cli("turan", "--pattern", "c4sus:k=3", "--n", "7",
                     "--budget-nodes", "500")
    assert capped.returncode == 3
    out = json.loads(capped.stdout)
    assert out["status"] == "interval"


def test_turan_check_containment():
    built = run_cli("construct", "--what", "complete-uniform", "--k", "2",
                    "--v", "4")
    check = run_cli("turan", "--pattern", "k4sus:k=2", "--check", "-",
                    stdin_text=built.stdout)
    assert check.returncode == 0
    out = json.loads(check.stdout)
    assert out["contains"] is True
    assert sorted(out["embedding"]["cycle_vertices"]) == [1, 2, 3, 4]


def test_covering_and_c_star():
    p = run_cli("covering", "--n", "8", "--k", "6", "--t", "3")
    assert json.loads(p.stdout)["value"] == 4
    q = run_cli("covering", "--n", "10", "--k", "2", "--c-star")
    assert q.returncode == 0
    assert json.loads(q.stdout)["value"] == 4


def test_usage_errors_are_json_on_stderr():
    bad_verb = run_cli("frobnicate")
    assert bad_verb.returncode == 2
    err = json.loads(bad_verb.stderr)
    assert err["error"]["kind"] == "usage"

    bad_family = run_cli("compute", "--family", "kneser:n=3,k=2",
                         "--param", "mu")
    assert bad_family.returncode == 2
    err = json.loads(bad_family.stderr)
    assert err["error"]["kind"] == "constraint"
    assert bad_family.stdout == ""

    bad_range = run_cli("verify", "--formula", "mut-kneser", "--n", "bogus",
                        "--k", "2")
    assert bad_range.returncode == 2
    assert json.loads(bad_range.stderr)["error"]["kind"] == "domain"

    # only verify reads --seed, so no other verb takes it
    seeded_tau = run_cli("tau", "--in", "-", "--seed", "4", stdin_text="3 2\n1 2\n")
    assert seeded_tau.returncode == 2
    assert json.loads(seeded_tau.stderr)["error"]["kind"] == "usage"


@pytest.mark.parametrize("argv, message", [
    (["construct", "--what", "generalized-triangle"], "generalized-triangle requires --k"),
    (["construct", "--what", "H_nk", "--k", "3"], "H_nk requires --n and --k"),
    (["turan", "--pattern", "c4sus:k=2"], "turan requires --n (or --check FILE)"),
    (["covering", "--n", "9", "--k", "3", "--c-star", "--t", "5"],
     "--c-star computes its own block size; drop --t"),
    (["covering", "--n", "9", "--k", "3"], "covering requires --t (or --c-star)"),
])
def test_missing_or_conflicting_options_are_usage_errors(argv, message, capsys):
    assert mvlab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"kind": "usage", "message": message}


def test_definitional_search_past_its_vertex_cap_is_a_constraint_error(capsys):
    argv = ["compute", "--family", "kneser:n=11,k=3", "--param", "mu"]
    assert mvlab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "kind": "constraint",
        "message": "definitional search supports at most 128 vertices; "
                   "kneser:n=11,k=3 has 165"}


@pytest.mark.parametrize("flag, value", [("--budget-nodes", "-5"),
                                         ("--budget-seconds", "-1"),
                                         ("--budget-seconds", "nan")])
def test_negative_or_nan_budget_is_a_usage_error(flag, value):
    # a budget below 0 would stop a search at once, and NaN would switch its
    # clock off; both are rejected before any search starts
    _, text = _random_tau_input()
    p = run_cli("tau", "--in", "-", flag, value, stdin_text=text)
    assert p.returncode == 2
    assert p.stdout == ""
    err = json.loads(p.stderr)["error"]
    assert err["kind"] == "usage" and flag in err["message"]


def test_negative_samples_is_a_usage_error(capsys):
    # a sweep cannot draw fewer than no subsets; 0 keeps only the fixed pools
    argv = ["verify", "--formula", "lemma-transversal-equiv", "--n", "5", "--k", "2"]
    assert mvlab.cli.main(argv + ["--samples", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)["error"]
    assert err["kind"] == "usage" and "--samples" in err["message"]
    assert mvlab.cli.main(argv + ["--samples", "0"]) == 0
    capsys.readouterr()


def test_unread_verify_parameter_is_a_domain_error(capsys):
    argv = ["verify", "--formula", "mut-kneser", "--n", "6", "--k", "2",
            "--samples", "5", "--family", "kneser:n=5,k=2"]
    assert mvlab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)["error"]
    assert err["kind"] == "domain" and "'family'" in err["message"]
    # --seed is read by the lemma-transversal-equiv sweep alone
    assert mvlab.cli.main(argv[:7] + ["--seed", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'seed'" in json.loads(err)["error"]["message"]


# an exact run (exit 0) and a cut one (exit 3)
@pytest.mark.parametrize("args,code", (
    (("--family", "johnson:n=5,k=2", "--param", "mu-total"), 0),
    (("--family", "kneser:n=6,k=2", "--param", "mu", "--budget-nodes", "2"), 3),
))
def test_explore_prints_what_compute_prints(args, code, capsys):
    runs = []
    for verb in ("compute", "explore"):
        runs.append((mvlab.cli.main([verb, *args]), capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == code


def test_compute_budget_exhaustion_exit_three():
    p = run_cli("compute", "--family", "kneser:n=6,k=2", "--param", "mu",
                "--budget-nodes", "2")
    assert p.returncode == 3
    assert json.loads(p.stdout)["status"] == "interval"


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_machine_formats_exclude_wall_clock(fmt):
    p = run_cli("verify", "--formula", "mut-johnson", "--n", "4", "--k", "2",
                "--format", fmt)
    assert "seconds" not in p.stdout


# one argv per verb, each giving some of the verb's own options and a common one
VERB_ARGVS = {
    "compute": ["compute", "--family", "kneser:n=7,k=2", "--param", "mu", "--format", "csv"],
    "verify": ["verify", "--formula", "mut-johnson", "--n", "5..7", "--k", "2",
               "--samples", "3", "--summary"],
    "construct": ["construct", "--what", "H_nk", "--n", "23", "--k", "4", "--out", "h.txt"],
    "turan": ["turan", "--pattern", "c4sus:k=3", "--n", "7", "--budget-nodes", "300000"],
    "covering": ["covering", "--n", "10", "--k", "3", "--c-star", "--budget-seconds", "5"],
    "tau": ["tau", "--in", "-", "--budget-nodes", "100000"],
    "explore": ["explore", "--family", "bipartite-kneser:n=7,k=2", "--param", "mu"],
}


def test_every_verb_has_an_argv():
    assert list(VERB_ARGVS) == list(mvlab.cli._VERBS)


@pytest.mark.parametrize("verb", VERB_ARGVS)
def test_one_verb_parser_matches_the_full_parser(verb, capsys):
    full, one = mvlab.cli.build_parser(), mvlab.cli.build_parser(verb)
    argv = VERB_ARGVS[verb]
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
    helps = []
    for parser in (full, one):
        with pytest.raises(SystemExit):
            parser.parse_args([verb, "-h"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith(f"usage: mvlab {verb} ")
