"""Search budgets and interval values.

Every exact search accepts a Budget; exceeding it is not an error but
degrades the result to an interval (status "interval") with the best
proven bounds and witness. Defaults follow the CLI contract: 10^7 nodes
and 60 seconds.

Intervals are read out one way. ``IntervalResult`` gives ``exact``,
``status``, ``value`` and ``bounds`` to anything with ``lo`` and ``hi``
fields: ``Bounds`` itself and the visibility, covering, c-star and Turan
results. ``value`` raises DomainError on a proper interval, so a caller
that wants the best witness's size on a cut reads ``lo``. The transversal
certificate is not yet an interval: its ``exact`` is a field, and a cut
keeps only the upper end ``tau``.

A Budget bounds each search, not each command: every search counts its
own nodes and times itself from its own start. A command that runs
several searches may spend it once per search; for example,
``verify --formula mut-johnson --n 9..12 --k 3 --budget-seconds 0.3`` runs
four Turan searches, each cut at 0.3 s, and takes about 1.4 s. A search
that calls another as a step passes its own SearchCounters down, so the
step spends the caller's budget and counts in its nodes: the tau kernel
inside ``min_edges_with_tau``, and the sub-instance C(n-1, k-1, t-1) of a
covering search, which may spend at most half of the nodes left and
shares the caller's clock.

Counting nodes. ``SearchCounters.tick()`` counts one node: it raises once
the node cap is spent and reads the clock every ``_TIME_CHECK_STRIDE``
nodes. The three hottest loops (the covering search in
``covering._cover``, the Turan search in ``turan.ex_uniform`` and the tau
kernel ``hypergraphs.solve_tau``) expand hundreds of thousands of nodes
that each cost only a few times a method call, so they count in a local
instead. ``horizon()`` is the count such a loop may reach without
calling back: below the node cap and below the next clock reading. At
the horizon the loop calls ``catch_up(nodes)``, which stores its count,
ticks once (so it raises exactly where ``tick`` would) and returns the
next horizon. The loop writes its count back when it returns; when the
budget cuts it, ``catch_up`` has stored the count already. Every node
count, cut point and clock reading is the one a ``tick`` per node gives.
Every other search still calls ``tick()`` per node: their nodes cost far
more than the call, and a local count would only add places to forget
the write-back.

The fill of the Turan search's link-completion table (k = 3, n <= 8) is
not a node. Its entries depend only on (n - 1, pattern), like the
ex(m, C4) table, and its work is bounded by the table's
2^(C(n - 1, 2) + 1) keys. Counted, it would spend a node cap on steps
that decide no system of the search: cut searches then stopped below the
lower end of the reference search in 24 of the 60 k = 3 runs (n = 6 and
7) of ``test_swap_rule_never_lowers_a_cut_lower_end``. It reads no
clock either: the fills of the whole ex(8, k4sus_3) search take about
0.02 s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 10_000_000
    max_seconds: float = 60.0


DEFAULT_BUDGET = Budget()

# how many nodes between wall-clock checks
_TIME_CHECK_STRIDE = 2048


class BudgetExhausted(Exception):
    """Raised by SearchCounters when a Budget runs out.

    Production searches catch it and degrade their result to a proven
    interval; reference routines with no interval shape (such as
    min_edges_with_tau) let it propagate to the caller."""


class SearchCounters:
    """Node counter with periodic wall-clock checks against a Budget."""

    __slots__ = ("budget", "nodes", "_t0", "_next_check")

    def __init__(self, budget: Budget | None):
        self.budget = budget or DEFAULT_BUDGET
        self.nodes = 0
        self._t0 = time.monotonic()
        self._next_check = _TIME_CHECK_STRIDE

    def tick(self) -> None:
        """Count one node; raise instead once the node cap is spent, so
        ``nodes`` never passes ``max_nodes``."""
        if self.nodes >= self.budget.max_nodes:
            raise BudgetExhausted
        self.nodes += 1
        if self.nodes >= self._next_check:
            self._next_check = self.nodes + _TIME_CHECK_STRIDE
            if time.monotonic() - self._t0 > self.budget.max_seconds:
                raise BudgetExhausted

    def horizon(self) -> int:
        """The node count a loop counting in a local may reach without
        calling back: min(max_nodes, next clock reading - 1)."""
        return min(self.budget.max_nodes, self._next_check - 1)

    def catch_up(self, nodes: int) -> int:
        """Store a local count that reached its horizon, count one more
        node through ``tick`` (which raises as it would per node), and
        return the next horizon. The caller adds the node to its local."""
        self.nodes = nodes
        self.tick()
        return self.horizon()

    def tick_and_time(self) -> None:
        """``tick``, then read the clock now rather than at the next stride:
        for steps that each cost as much as thousands of nodes."""
        self.tick()
        if time.monotonic() - self._t0 > self.budget.max_seconds:
            raise BudgetExhausted


class IntervalResult:
    """Read-outs shared by everything that carries a proven enclosure of an
    integer quantity as ``lo`` and ``hi`` fields: ``Bounds`` and the search
    results. Defines no fields, so a dataclass mixing it in keeps its own
    field order."""

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def status(self) -> str:
        return "exact" if self.exact else "interval"

    @property
    def value(self) -> int:
        if not self.exact:
            raise DomainError(
                f"{type(self).__name__} is an interval [{self.lo}, {self.hi}]")
        return self.hi

    @property
    def bounds(self) -> Bounds:
        return Bounds(self.lo, self.hi)


@dataclass(frozen=True)
class Bounds(IntervalResult):
    """A proven enclosure [lo, hi] for an integer quantity."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty bounds [{self.lo}, {self.hi}]")

    def as_json(self):
        return self.lo if self.exact else [self.lo, self.hi]


def as_bounds(value) -> Bounds:
    """Normalize an int or Bounds to Bounds."""
    if isinstance(value, Bounds):
        return value
    return Bounds(int(value), int(value))


def bounds_agree(a, b) -> bool:
    """Two (possibly interval) values agree iff their enclosures overlap."""
    ba, bb = as_bounds(a), as_bounds(b)
    return ba.lo <= bb.hi and bb.lo <= ba.hi
