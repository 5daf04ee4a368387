"""The three workloads: their cases, the values each case must return, and
the seeded inputs they read.

A case is one CLI invocation. ``expect`` says what a correct run returns:
``value`` pins an exact result, ``enclosure`` is a proven interval [lo, hi]
known to hold the true value (a budgeted search may return any interval
that overlaps it, or an exact value inside it), and ``verdicts`` asks every
verify report to pass. Node counts are never pinned: search changes are
expected to move them.
"""

from __future__ import annotations

import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

TAU_GRAPHS = 12          # seeded random hypergraphs in the extremal workload
TAU_N, TAU_K, TAU_M = 24, 4, 100


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def _search() -> list[Case]:
    return [
        Case("kneser7-mu", ("compute", "--family", "kneser:n=7,k=2", "--param", "mu"),
             {"value": 16}),
        Case("kneser8-mu-outer",
             ("compute", "--family", "kneser:n=8,k=2", "--param", "mu-outer"),
             {"value": 24}),
        Case("bipartite5-mu",
             ("compute", "--family", "bipartite-kneser:n=5,k=2", "--param", "mu"),
             {"value": 8}),
        Case("kneser6-mu-dual",
             ("compute", "--family", "kneser:n=6,k=2", "--param", "mu-dual"),
             {"value": 9}),
        Case("johnson6-gp", ("compute", "--family", "johnson:n=6,k=3", "--param", "gp"),
             {"value": 6}),
        Case("verify-mut-johnson",
             ("verify", "--formula", "mut-johnson", "--n", "5..7", "--k", "2"),
             {"verdicts": 3}),
        Case("explore-bipartite7",
             ("explore", "--family", "bipartite-kneser:n=7,k=2", "--param", "mu",
              "--budget-nodes", "8000"),
             {"enclosure": (27, 42)}),
    ]


def _witness(seed: int) -> list[Case]:
    return [
        Case("verify-mu-kneser",
             ("verify", "--formula", "mu-kneser", "--n", "20..25", "--k", "2"),
             {"verdicts": 6}),
        Case("verify-kneser2-all",
             ("verify", "--formula", "kneser2-all-params", "--n", "20..22"),
             {"verdicts": 12}),
        Case("verify-mut-bipartite",
             ("verify", "--formula", "mut-bipartite", "--n", "9..12", "--k", "2"),
             {"verdicts": 4}),
        Case("verify-transversal-equiv",
             ("verify", "--formula", "lemma-transversal-equiv", "--n", "10..12",
              "--k", "2", "--samples", "200", "--seed", str(seed)),
             {"verdicts": 3}),
    ]


def _extremal(workdir: Path) -> list[Case]:
    cases = [
        Case("turan-c4sus2-n8", ("turan", "--pattern", "c4sus:k=2", "--n", "8"),
             {"value": 11}),
        Case("turan-c4sus3-n7",
             ("turan", "--pattern", "c4sus:k=3", "--n", "7", "--budget-nodes", "300000"),
             {"enclosure": (15, 35)}),
        Case("cstar-n9-k3",
             ("covering", "--n", "9", "--k", "3", "--c-star", "--budget-nodes", "300000"),
             {"enclosure": (21, 34)}),
        Case("cstar-n10-k3",
             ("covering", "--n", "10", "--k", "3", "--c-star", "--budget-nodes", "300000"),
             {"enclosure": (12, 24)}),
        Case("covering-8-5-3", ("covering", "--n", "8", "--k", "5", "--t", "3"),
             {"value": 8}),
        # the H(n, k) construction has transversal number exactly 2k
        Case("tau-h23-4", ("tau", "--in", str(workdir / "h23_4.txt")), {"value": 8}),
    ]
    for i in range(TAU_GRAPHS):
        cases.append(Case(f"tau-random-{i:02d}",
                          ("tau", "--in", str(workdir / f"random_{i:02d}.txt"))))
    return cases


WORKLOADS = {
    "search": "definitional visibility branch-and-bound: compute, a verify sweep "
              "and a budgeted explore; no covering, Turan or tau work",
    "witness": "one-shot visibility predicates and the Kneser transversal "
               "reduction on 190-300 vertex graphs; context builds and memory",
    "extremal": "covering, c-star, Turan and the tau kernel on seeded, randomly "
                "relabelled random 4-uniform hypergraphs; no visibility work",
}


def random_hypergraph_texts(seed: int) -> list[str]:
    """TAU_GRAPHS random 4-uniform hypergraphs, each under a random vertex
    relabelling drawn from the seed.

    The unlabelled graphs come from a fixed stream and only the labels from
    the seed: the kernel's branching order, and so its work, depends on the
    labels, while the seed-to-seed spread of total work is about half that
    of fresh graphs per seed (interquartile range of tau nodes over ten
    seeds: 9 % against 16 %), so one run's solve_s is steadier.
    """
    base, relabel = random.Random(2024), random.Random(seed)
    texts = []
    for _ in range(TAU_GRAPHS):
        edges: set[tuple[int, ...]] = set()
        while len(edges) < TAU_M:
            edges.add(tuple(sorted(base.sample(range(1, TAU_N + 1), TAU_K))))
        perm = list(range(1, TAU_N + 1))
        relabel.shuffle(perm)
        lines = sorted(" ".join(map(str, sorted(perm[v - 1] for v in e))) for e in edges)
        texts.append("\n".join([f"{TAU_N} {TAU_K}", *lines]) + "\n")
    return texts


def prepare(workload: str, seed: int, workdir: Path, python: str, env: dict,
            root: Path) -> list[Case]:
    """Write the workload's seeded inputs under workdir; return its cases."""
    if workload == "search":
        return _search()
    if workload == "witness":
        return _witness(seed)
    for i, text in enumerate(random_hypergraph_texts(seed)):
        (workdir / f"random_{i:02d}.txt").write_text(text, encoding="ascii")
    out = workdir / "h23_4.txt"
    subprocess.run([python, "-m", "mvlab.cli", "construct", "--what", "H_nk",
                    "--n", "23", "--k", "4", "--out", str(out)],
                   env=env, cwd=root, check=True, stdout=subprocess.DEVNULL,
                   timeout=60)
    return _extremal(workdir)
