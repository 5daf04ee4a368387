"""Layer tracing from outside the library.

Each hook names the attribute a caller looks up (``module``, ``Class.attr``
or a plain name) and replaces it with a wrapper. Spans are kept in memory as
(bucket, start, end, parent) and turned into self times when the case ends:
a span's self time is its duration minus the durations of its direct child
spans. A function reachable through several bindings (``mvlab.cli.c_star``
and ``mvlab.theorems.c_star``, ``mvlab.hypergraphs.solve_tau`` and
``mvlab.covering.solve_tau``) is hooked at each binding. A hook whose
attribute no longer exists is reported as missing, never as an error, so
that internals can be renamed or deleted without breaking the benchmark.

Counting hooks (``pair_visible``, ``can_add``) only count calls and truthy
results: they run tens of thousands of times per case, and timing each call
would swamp what it measures.
"""

from __future__ import annotations

import importlib
import time

# (bucket, module, attribute, where to read nodes expanded from the result)
SPAN_HOOKS = (
    ("cli.main", "mvlab.cli", "main", None),
    ("cli.render", "mvlab.cli", "_emit", None),
    ("families.context", "mvlab.families", "GraphContext", None),
    ("visibility.index", "mvlab.visibility", "VisibilityIndex.pairs_through", None),
    ("visibility.search", "mvlab.cli", "max_visibility_number", "nodes_expanded"),
    ("visibility.search", "mvlab.theorems", "max_visibility_number", "nodes_expanded"),
    ("visibility.search", "mvlab.visibility", "_max_monotone_bb", None),
    ("visibility.search", "mvlab.visibility", "_max_dual_exhaustive", None),
    ("visibility.canon", "mvlab.visibility", "_colex_least_witness", None),
    ("visibility.predicate", "mvlab.theorems", "is_visibility_set", None),
    ("visibility.reduction", "mvlab.theorems", "kneser_total_mv_check_fast", None),
    ("theorems", "mvlab.cli", "run_verify", None),
    # c_star's nodes are its inner covering_number's, so only the latter counts
    ("covering.search", "mvlab.cli", "c_star", None),
    ("covering.search", "mvlab.theorems", "c_star", None),
    ("covering.search", "mvlab.cli", "covering_number", "nodes_expanded"),
    ("covering.search", "mvlab.covering", "covering_number", "nodes_expanded"),
    ("covering.search", "mvlab.theorems", "covering_number", "nodes_expanded"),
    ("covering.min_edges", "mvlab.theorems", "min_edges_with_tau", None),
    ("turan.search", "mvlab.cli", "ex_uniform", "nodes_expanded"),
    ("turan.search", "mvlab.theorems", "ex_uniform", "nodes_expanded"),
    ("kernels.tau", "mvlab.hypergraphs", "solve_tau", 2),
    ("kernels.tau", "mvlab.covering", "solve_tau", 2),
    ("hypergraphs.parse", "mvlab.cli", "parse_hypergraph", None),
)

COUNT_HOOKS = (
    ("visibility.pair_visible", "mvlab.visibility", "VisibilityIndex.pair_visible"),
    ("visibility.can_add", "mvlab.visibility", "_MonotoneSearch.can_add"),
)

SPAN_KEEP = 2000  # spans written out per case; the aggregates use all of them


def _resolve(module: str, attr: str):
    """(owner, name, current value) of a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.truthy: dict[str, int] = {}
        self.nodes: dict[str, int] = {}
        self.missing: list[str] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for bucket, module, attr, nodes in SPAN_HOOKS:
            self._hook(module, attr, bucket,
                       lambda fn, b=bucket, n=nodes: self._span_wrapper(fn, b, n))
        for bucket, module, attr in COUNT_HOOKS:
            self._hook(module, attr, bucket,
                       lambda fn, b=bucket: self._count_wrapper(fn, b))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._installed):
            setattr(owner, name, value)
        self._installed.clear()

    def _hook(self, module, attr, bucket, make) -> None:
        found = _resolve(module, attr)
        if found is None:
            self.missing.append(f"{bucket}:{module}.{attr}")
            return
        owner, name, value = found
        self._installed.append(found)
        self.calls.setdefault(bucket, 0)
        setattr(owner, name, make(value))

    def _span_wrapper(self, fn, bucket: str, nodes):
        spans, stack, calls, counted = self.spans, self.stack, self.calls, self.nodes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (bucket, start, clock(), parent)
                stack.pop()
                calls[bucket] += 1
            if nodes is not None:
                got = result[nodes] if isinstance(nodes, int) else getattr(result, nodes)
                counted[bucket] = counted.get(bucket, 0) + got
            return result

        return traced

    def _count_wrapper(self, fn, bucket: str):
        calls, truthy = self.calls, self.truthy
        truthy.setdefault(bucket, 0)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[bucket] += 1
            if result:
                truthy[bucket] += 1
            return result

        return counted

    def report(self) -> dict:
        """Self seconds, calls and nodes per bucket, plus the first spans."""
        self_s = {bucket: 0.0 for bucket, *_ in SPAN_HOOKS}
        child = [0.0] * len(self.spans)
        # a child span is appended after its parent, so one reverse pass suffices
        for i in range(len(self.spans) - 1, -1, -1):
            bucket, start, end, parent = self.spans[i]
            dur = end - start
            self_s[bucket] += dur - child[i]
            if parent >= 0:
                child[parent] += dur
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "self_s": self_s,
            "calls": dict(self.calls),
            "truthy": dict(self.truthy),
            "nodes": dict(self.nodes),
            "missing": list(self.missing),
            "absent": sorted({m.split(":")[0] for m in self.missing} - set(self.calls)),
            "span_count": len(self.spans),
            "spans": [(b, round(s - t0, 6), round(e - t0, 6), p)
                      for b, s, e, p in self.spans[:SPAN_KEEP]],
        }
