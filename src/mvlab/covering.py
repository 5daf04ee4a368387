"""Covering numbers C(n, k, t) and derived minimum-edge quantities.

C(n, k, t) is the minimum number of k-subsets of [n] (blocks) covering
every t-subset. The solver is an exact set-cover branch and bound:
branch on the colex-least uncovered t-set over the blocks containing it
(forbidding earlier siblings to partition the space), prune with
used + ceil(uncovered / C(k, t)) against the incumbent, and stop once the
incumbent meets the lower end, which is also the lower end of a cut
search. Each level runs three steps:

1. Seeds. The smallest valid cover among the complements of the doubled
   construction H(n, a), a = n-k, on c_star's shape t = 2a-1 (below) with
   a >= 3 and n >= 7a-5; the partition family (on the complement side,
   every (n-k)-set inside one of a few disjoint parts, sized by convexity
   for the fewest blocks); and, when (n-k, n-t) = (3, 4), Turan's cyclic
   construction. The seeds are functions of (n, k, t) alone. One that
   meets Schonheim's bound L(n, k, t) is returned at once.
2. Sub-instance. Each point lies in at least C(n-1, k-1, t-1) blocks, so
   C(n, k, t) >= ceil(n/k C(n-1, k-1, t-1)). The same search runs on that
   sub-instance with at most half of the nodes left, on the caller's
   counters and clock, and its proven lower end raises L(n, k, t). It is
   skipped where even its seed could not raise L, and at t = 2, where
   C(n-1, k-1, 1) is Schonheim's bound itself.
3. Search. Building each block's coverage table is one node with a clock
   reading, so the budget bounds that setup too; a cut there returns
   [lo, |seed|]. The incumbent is the seed, or the greedy cover when it
   is smaller. The root, t-set 0, branches on its first block alone: the
   blocks through t-set 0 form one orbit under the permutations of [n]
   that fix it, which act as the full symmetric group on the other n - t
   points, so some optimum holds the first.

Complementation links coverings to transversals: a k-uniform system on
[n] has transversal number >= t+1 iff the complements of its edges (as
(n-k)-blocks) cover every t-set, because a t-set misses some edge
exactly when the complementary block contains it. Hence

    c_star(n, k) := min edges of a k-uniform system on [n] with
                    transversal number >= 2k  =  C(n, n-k, 2k-1),

computed by the same engine on the complement side. A deliberately
independent reference route, min_edges_with_tau (colex DFS over edge
sets driven by the transversal kernel), is kept for duality checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .budget import Budget, BudgetExhausted, IntervalResult, SearchCounters
from .constructions import build_h_nk
from .errors import ConstraintError
from .hypergraphs import (
    Hypergraph,
    TransversalCertificate,
    greedy_cover,
    hypergraph,
    solve_tau,
    transversal_number,
)
from .subsets import colex_rank, k_subset_masks, k_subsets_of_mask, members_of


def schonheim_bound(n: int, k: int, t: int) -> int:
    """Schonheim's lower bound for C(n, k, t): L(n, k, t) =
    ceil(n/k L(n-1, k-1, t-1)) with L(., ., 0) = 1. A block through a fixed
    point covers, once the point is dropped, (t-1)-sets of the other n - 1
    points with a (k-1)-block, so each point lies in at least
    L(n-1, k-1, t-1) blocks. Never below the counting bound."""
    _validate_cover_params(n, k, t)
    lower = 1
    for d in range(t - 1, -1, -1):
        lower = -(-(n - d) * lower // (k - d))
    return lower


def _validate_cover_params(n: int, k: int, t: int) -> None:
    if not 1 <= t <= k <= n:
        raise ConstraintError(f"covering needs 1 <= t <= k <= n, got n={n}, k={k}, t={t}")


@dataclass(frozen=True)
class CoveringCertificate(IntervalResult):
    """C(n, k, t) as a proven enclosure [lo, hi], with hi blocks that
    cover every t-subset. The blocks are the first cover of that size
    found (a seed or the search's incumbent), not a canonical one."""

    n: int
    k: int
    t: int
    lo: int
    hi: int
    blocks: tuple[int, ...]  # block masks attaining hi
    nodes_expanded: int

    def block_members(self) -> list[tuple[int, ...]]:
        return [members_of(b) for b in self.blocks]

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "value": self.bounds.as_json(),
            "status": self.status,
            "blocks": [list(m) for m in self.block_members()],
            "nodes_expanded": self.nodes_expanded,
        }


def covering_number(n: int, k: int, t: int, budget: Budget | None = None
                    ) -> CoveringCertificate:
    """Exact C(n, k, t) with witness blocks, or a proven interval on budget."""
    _validate_cover_params(n, k, t)
    if k == n:
        return CoveringCertificate(n, k, t, 1, 1, ((1 << n) - 1,), 0)
    if k == t:
        blocks = tuple(k_subset_masks(n, k))
        return CoveringCertificate(n, k, t, len(blocks), len(blocks), blocks, 0)
    counters = SearchCounters(budget)
    lo, blocks = _cover(n, k, t, counters)
    return CoveringCertificate(n, k, t, lo, len(blocks), tuple(blocks), counters.nodes)


def _cover(n: int, k: int, t: int, counters: SearchCounters) -> tuple[int, list[int]]:
    """A proven lower end for C(n, k, t), 1 <= t < k < n, and sorted blocks
    attaining the upper end. Spends ``counters`` and returns when its budget
    runs out, so the caller's node count holds all of this work."""
    lower = schonheim_bound(n, k, t)
    universe = list(k_subset_masks(n, t))
    # the smallest valid seed, the first listed on a tie: a check costs a
    # pass over the t-sets, so seeds are checked smallest first
    candidates = sorted(_built_in_seeds(n, k, t), key=len)
    seed = next(filter(None, (_valid_seed(s, universe) for s in candidates)))
    if len(seed) <= lower:
        # the seed meets the lower end, so it is optimal: nothing to search
        return lower, seed
    # C(n-1, k-1, 1) is Schonheim's bound itself, so a sub-instance raises
    # the lower end only from t = 3 on, and only if its seed leaves room
    if t > 2 and -(-n * min(map(len, _built_in_seeds(n - 1, k - 1, t - 1))) // k) > lower:
        lower = max(lower, -(-n * _sub_instance_lower(n, k, t, counters) // k))
        if len(seed) <= lower:
            return lower, seed
    uidx = {m: i for i, m in enumerate(universe)}
    blocks = list(k_subset_masks(n, k))
    cover = []  # coverage bitmask over universe indices, per block
    blocks_for: list[list] = [[] for _ in universe]
    try:
        # building a block's coverage is one node of the search, and costs
        # enough to read the clock at each
        for bi, b in enumerate(blocks):
            counters.tick_and_time()
            c = 0
            for tm in k_subsets_of_mask(b, t):
                i = uidx[tm]
                c |= 1 << i
                blocks_for[i].append(bi)
            cover.append(c)
    except BudgetExhausted:
        # cut during setup: the seed covers every t-subset
        return lower, seed
    # Root symmetry: only the root branches on t-set 0. A block through it
    # is t-set 0 plus k - t of the other n - t points, which the
    # permutations fixing t-set 0 permute as the full symmetric group. So
    # some optimum holds the first block, and a later one could only tie
    # (ties never replace the incumbent).
    blocks_for[0] = blocks_for[0][:1]
    full = (1 << len(universe)) - 1
    per_block = comb(k, t)

    # incumbent: the seed, or the greedy cover when smaller (block index =
    # colex rank)
    best = sorted(greedy_cover(dict(enumerate(cover)), full))
    if len(seed) <= len(best):
        best = [colex_rank(b) for b in seed]
    best_size = len(best)
    # one entry per block, (index, bit, the t-sets it leaves uncovered), shared
    # by its C(k, t) t-sets' lists: an entry per slot would set c_star's peak RSS
    entries = [(bi, 1 << bi, full ^ c) for bi, c in enumerate(cover)]
    blocks_for = [[entries[bi] for bi in row] for row in blocks_for]

    sols: list[list[int]] = [best]
    # the search counts its nodes in ``nodes`` up to ``horizon`` and calls
    # back only there (see the budget module)
    catch_up = counters.catch_up
    nodes = horizon = 0

    def rec(uncov: int, chosen: list[int], forbidden: int) -> None:
        # A node is entered only once its own checks have passed: it was
        # counted, some t-set is uncovered and the counting bound does not
        # prune it. Most children fail the bound, so the loop runs each
        # child's checks itself, in the order a call would: stop once the
        # incumbent meets the lower end, count, cover, take a leaf, then
        # bound. A child of size s passes the bound,
        # s + ceil(|left| / C(k, t)) < best_size,
        # iff |left| <= C(k, t) (best_size - s - 1).
        nonlocal best_size, nodes, horizon
        size = len(chosen) + 1
        limit = per_block * (best_size - size - 1)
        for bi, bit, away in blocks_for[(uncov & -uncov).bit_length() - 1]:
            if forbidden & bit:
                continue
            if nodes >= horizon:
                horizon = catch_up(nodes)
            nodes += 1
            left = uncov & away
            if not left:
                if size < best_size:
                    best_size = size
                    sols[0] = chosen + [bi]
                    if best_size <= lower:   # the incumbent meets the lower end
                        return
                    limit = per_block * (best_size - size - 1)
            elif left.bit_count() <= limit:
                chosen.append(bi)
                rec(left, chosen, forbidden)
                chosen.pop()
                if best_size <= lower:
                    return
                limit = per_block * (best_size - size - 1)
            forbidden |= bit

    status_exact = True
    try:
        # the root covers nothing, and passes the counting bound since
        # lower, Schonheim's bound or above, is below best_size
        if best_size > lower:
            counters.tick()
            nodes, horizon = counters.nodes, counters.horizon()
            rec(full, [], 0)
            counters.nodes = nodes
    except BudgetExhausted:
        status_exact = False

    best = sols[0]
    return (len(best) if status_exact else lower), sorted(blocks[bi] for bi in best)


def _sub_instance_lower(n: int, k: int, t: int, counters: SearchCounters) -> int:
    """The proven lower end of C(n-1, k-1, t-1), searched on at most half
    the nodes ``counters`` has left and on its clock. Each point lies in at
    least C(n-1, k-1, t-1) blocks of a C(n, k, t) cover, so n times this
    value over k bounds C(n, k, t) from below."""
    outer = counters.budget
    share = (outer.max_nodes - counters.nodes) // 2
    counters.budget = Budget(counters.nodes + share, outer.max_seconds)
    try:
        return _cover(n - 1, k - 1, t - 1, counters)[0]
    finally:
        counters.budget = outer


def _built_in_seeds(n: int, k: int, t: int) -> list[tuple[int, ...]]:
    """Constructed covers for C(n, k, t), each a tuple of distinct k-subsets
    of [n], listed in the order that breaks a tie:

    - on c_star's shape, t = 2a-1 with a = n-k >= 3 and n >= 7a-5, the
      complements of the doubled construction H(n, a);
    - the partition family, which there has 2a blocks, fewer than H, from
      n = 2a^2 on;
    - Turan's cyclic construction when blocks miss 3 points and t-sets
      miss 4."""
    a = n - k
    seeds = []
    if t == 2 * a - 1 and a >= 3 and n >= 7 * a - 5:
        full = (1 << n) - 1
        seeds.append(tuple(full ^ e for e in build_h_nk(n, a).edges))
    seeds.append(_partition_seed(n, k, t))
    if (n - k, n - t) == (3, 4):
        seeds.append(_turan_seed(n))
    return seeds


def _partition_seed(n: int, k: int, t: int) -> tuple[int, ...]:
    """Complements of every a-set inside one of p disjoint parts, a = n - k.

    Part i has d_i + a - 1 points with d_1 + ... + d_p = t + 1. A t-set
    leaves an a-set of part i outside it unless it takes d_i points of that
    part, and it cannot do so in every part, so each t-set lies in the
    complement of some a-set of the family. The cost C(d + a - 1, a) is
    convex in d and 0 at d = 0, so the most parts that fit in [n], each
    with a near-equal d_i, give the fewest blocks."""
    a = n - k
    p = t + 1 if a == 1 else min(t + 1, (n - t - 1) // (a - 1))
    full = (1 << n) - 1
    out = []
    start = 0
    for i in range(p):
        size = (t + 1) // p + (i < (t + 1) % p) + a - 1
        part = ((1 << size) - 1) << start
        out.extend(full ^ s for s in k_subsets_of_mask(part, a))
        start += size
    return tuple(out)


def _turan_seed(n: int) -> tuple[int, ...]:
    """Complements of Turan's triples on [n], split into three classes by
    residue mod 3: a triple inside one class, or two points in class i and
    one in class i + 1 (mod 3). Every 4-set of [n] holds one."""
    full = (1 << n) - 1
    out = []
    for tri in k_subset_masks(n, 3):
        per_class = [0, 0, 0]
        for x in members_of(tri):
            per_class[x % 3] += 1
        if 3 in per_class or any(per_class[i] == 2 and per_class[(i + 1) % 3] == 1
                                 for i in range(3)):
            out.append(full ^ tri)
    return tuple(out)


def _valid_seed(seed: tuple[int, ...], universe: list[int]) -> list[int] | None:
    """The seed's blocks, sorted, if they cover every t-subset in
    ``universe``, else None. Checked without the coverage tables, so a
    search cut while building them can still return the seed."""
    if all(any(tm & b == tm for b in seed) for tm in universe):
        return sorted(seed)
    return None


# ----------------------------------------------------------------------
# minimum edges for a forced transversal number


@dataclass(frozen=True)
class CStarCertificate(IntervalResult):
    """Minimum edge count of a k-uniform system on [n] with transversal
    number >= 2k, with the witness system and its solved transversal. The
    witness is the complement of the first cover found by the covering
    search, not a canonical one."""

    n: int
    k: int
    lo: int
    hi: int
    witness: Hypergraph
    witness_tau: TransversalCertificate
    nodes_expanded: int

    def as_json(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "value": self.bounds.as_json(),
            "status": self.status,
            "edges": [list(m) for m in self.witness.edge_members()],
            "witness_tau": self.witness_tau.tau,
            "nodes_expanded": self.nodes_expanded,
        }
        if not self.witness_tau.exact:
            out["witness_tau_optimal"] = False
        return out


def c_star(n: int, k: int, budget: Budget | None = None) -> CStarCertificate:
    """Minimum edges of a k-uniform system on [n] with transversal number 2k.

    Requires n >= 3k and k >= 2 (below 3k no k-uniform system on [n]
    reaches transversal number 2k). Computed as C(n, n-k, 2k-1) on the
    complement side, whose seeds include the complements of H(n, k) at
    k >= 3 from n = 7k-5 on. The witness returned is the k-uniform edge
    system, re-validated by the transversal kernel on a budget of its own.
    When that budget cuts the check, ``witness_tau.exact`` is False and
    ``witness_tau.tau`` only bounds the transversal number from above.
    """
    if k < 2:
        raise ConstraintError(f"c_star needs k >= 2, got {k}")
    if n < 3 * k:
        raise ConstraintError(f"c_star needs n >= 3k = {3 * k}, got n={n}")
    cert = covering_number(n, n - k, 2 * k - 1, budget)
    full = (1 << n) - 1
    edges = tuple(sorted(full ^ b for b in cert.blocks))
    witness = Hypergraph(n, edges)
    tau_cert = transversal_number(witness, budget)
    return CStarCertificate(n, k, cert.lo, cert.hi, witness, tau_cert, cert.nodes_expanded)


def min_edges_with_tau(n: int, k: int, tau_target: int,
                       budget: Budget | None = None) -> tuple[int, Hypergraph, int]:
    """Reference search: least m with a k-uniform, m-edge system on [n] of
    transversal number >= tau_target.

    Colex DFS over edge subsets with the prune tau(chosen) + slack <
    target, every tau solved by the transversal kernel. Deliberately
    independent of the covering engine; used to check the duality
    C(n, n-k, t) = min edges with tau >= t+1. Returns (m, witness,
    nodes). The kernel calls count on this search's counters, so ``budget``
    (``DEFAULT_BUDGET`` when None) bounds them too and ``nodes`` counts
    their nodes. Raises BudgetExhausted on an exhausted budget (this is a
    reference routine, not a production path; it has no interval shape
    to degrade to).
    """
    if k < 1 or n < k:
        raise ConstraintError(f"need 1 <= k <= n, got n={n}, k={k}")
    if tau_target < 1:
        raise ConstraintError("tau_target must be >= 1")
    t = tau_target - 1
    if t > n - k:
        raise ConstraintError(
            f"no k-uniform system on [{n}] has transversal number {tau_target}")
    candidates = list(k_subset_masks(n, k))
    lb = max(tau_target, schonheim_bound(n, n - k, t) if t >= 1 else 1)
    counters = SearchCounters(budget)
    found: list[list[int]] = []

    def dfs(start: int, chosen: list[int], m: int) -> bool:
        counters.tick()
        current_tau = 0
        if chosen:
            current_tau, _, _, complete = solve_tau(chosen, counters)
            if not complete:     # cut inside the kernel: tau is only an upper bound
                raise BudgetExhausted
        slack = m - len(chosen)
        if current_tau + slack < tau_target:
            return False
        if not slack:
            found.append(list(chosen))
            return True
        for i in range(start, len(candidates)):
            if len(candidates) - i < slack:
                break
            chosen.append(candidates[i])
            if dfs(i + 1, chosen, m):
                chosen.pop()
                return True
            chosen.pop()
        return False

    for m in range(lb, len(candidates) + 1):
        if dfs(0, [], m):
            witness = hypergraph(n, found[0])
            return m, witness, counters.nodes
    raise ConstraintError(
        f"no k-uniform system on [{n}] reaches transversal number {tau_target}")
