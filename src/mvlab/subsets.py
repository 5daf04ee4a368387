"""Single-word bitmask subsets of a ground set {1, ..., n} with n <= 64.

Every finite set handled by this package is a subset of [n] = {1, ..., n}
stored as a Python int whose bit i-1 encodes membership of element i.
Subsets of the same size are ordered colexicographically, which coincides
with numeric order of the masks; this gives cheap, canonical ranking,
unranking and enumeration.

The colex rank of a k-set {c1 < c2 < ... < ck} (1-based elements) is
sum over i of C(c_i - 1, i). Unranking inverts this greedily from the
largest element down.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import ConstraintError, DomainError

MAX_GROUND_SET = 64


def mask_of(members: "list[int] | tuple[int, ...] | set[int]", n: int) -> int:
    """Bitmask of a collection of 1-based elements, validated against [n]."""
    bits = 0
    for x in members:
        if not 1 <= x <= n:
            raise DomainError(f"element {x} outside ground set [1..{n}]")
        bits |= 1 << (x - 1)
    return bits


def members_of(bits: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a bitmask."""
    return tuple(i + 1 for i in bit_indices(bits))


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bits of ``bits`` as single-bit masks, ascending."""
    while bits:
        low = bits & -bits
        yield low
        bits ^= low


def bit_indices(bits: int) -> list[int]:
    """The 0-based positions of the set bits of ``bits``, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def colex_rank(bits: int) -> int:
    """Rank of a k-set among all k-subsets in colex order (0-based)."""
    rank = 0
    i = 0
    while bits:
        low = bits & -bits
        i += 1
        rank += comb(low.bit_length() - 1, i)
        bits ^= low
    return rank


def k_subset_masks(n: int, k: int) -> Iterator[int]:
    """All k-subsets of [n] as masks, in colex (= numeric) order.

    Uses Gosper's hack to step to the next mask with the same popcount.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    limit = 1 << n
    v = (1 << k) - 1
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)


def k_subsets_of_mask(pool: int, k: int) -> Iterator[int]:
    """All k-subsets of the set encoded by ``pool``, in colex order: the
    k-subsets of its positions, as ``k_subset_masks`` walks them, mapped
    onto its ascending elements. The map keeps colex order because it
    keeps the order of the elements."""
    elems = list(iter_bits(pool))
    for positions in k_subset_masks(len(elems), k):
        mask = 0
        while positions:
            low = positions & -positions
            mask |= elems[low.bit_length() - 1]
            positions ^= low
        yield mask


@dataclass(frozen=True, order=True)
class KSubset:
    """A k-subset of [n], compared and sorted by (n, colex of mask).

    ``bits`` is the canonical representation; ``members()`` gives sorted
    1-based elements for serialization.
    """

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise ConstraintError(f"ground set size {self.n} outside 1..{MAX_GROUND_SET}")
        if self.bits < 0 or self.bits >> self.n:
            raise DomainError(f"mask {self.bits:#x} not within ground set [1..{self.n}]")

    @classmethod
    def from_members(cls, members, n: int) -> "KSubset":
        return cls(n, mask_of(members, n))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        return members_of(self.bits)

    def complement(self) -> "KSubset":
        return KSubset(self.n, ((1 << self.n) - 1) ^ self.bits)

    def __repr__(self):
        return f"KSubset({set(self.members()) or '{}'} of [{self.n}])"


class MaskOrbits:
    """Orbits of S_n, permuting [n], on candidate masks over [n].

    The searches that use symmetry pick candidates, each a subset of [n],
    into a set X, and are defined by relations among sets alone: graph
    distances in the three families, or the t-sets a block covers. So a
    permutation of [n] maps each solution to one of the same size. The
    atoms of X are the nonempty regions its members cut [n] into. The
    permutations that map each atom to itself are exactly those that fix
    each member of X, a union of atoms; they form G_X, which therefore
    maps the solutions that extend X to one another. G_X moves a
    candidate's part in each atom onto any same-size subset of that atom
    and nowhere else, so, the candidates being closed under G_X, the orbit
    of candidate i is the candidates u with |u & a| = |masks[i] & a| for
    every atom a. A search may decide a whole orbit as it decides one
    member (orbital branching: Ostrowski, Linderoth, Rossi and Smriglio,
    Math. Programming 2011). Pruning toward the colex-least representative
    (Margot, Math. Programming 2002) also keeps the candidates 0..w, as
    ``cut_by_prefix`` does. Once every atom is a single element, each
    orbit is one candidate and the operations return at once. The tables
    cached per atom and per w belong to the one search that owns them.
    """

    def __init__(self, masks: tuple[int, ...], n: int):
        self.masks = masks
        self.n = n
        # per atom a, the candidates u by |u & a|
        self._by_count: dict[int, list[int]] = {}
        # per w, the runs of [n] that keep the candidates 0..w
        self._prefix_blocks: dict[int, tuple[int, ...]] = {}

    def refine(self, atoms: tuple[int, ...], member: int) -> tuple[int, ...]:
        """The atoms of X + {member}, given those of X: each atom's parts
        inside and outside ``member``, the empty ones left out."""
        if len(atoms) == self.n:
            return atoms
        out = []
        for a in atoms:
            inside = a & member
            if inside and inside != a:
                out += (inside, a ^ inside)
            else:
                out.append(a)
        return tuple(out)

    def orbit(self, i: int, atoms: tuple[int, ...]) -> int:
        """The mask of candidate i's orbit under the permutations that map
        each of ``atoms`` to itself, read off the count tables."""
        if len(atoms) == self.n:
            return 1 << i
        mi, by_count = self.masks[i], self._by_count
        orbit = -1
        for a in atoms:
            counts = by_count.get(a)
            if counts is None:
                counts = by_count[a] = [0] * (a.bit_count() + 1)
                for u, mu in enumerate(self.masks):
                    counts[(mu & a).bit_count()] |= 1 << u
            orbit &= counts[(mi & a).bit_count()]
        return orbit

    def cut_by_prefix(self, atoms: tuple[int, ...], w: int) -> tuple[int, ...]:
        """The cells where ``atoms`` meet the prefix blocks of w: the runs
        of [n] such that swapping neighbours e, e + 1 of one run sends each
        of the candidates 0..w to one of them, and so onto them. A
        permutation that maps each cell to itself is a product of such
        swaps and keeps each atom. Colex order within each size class makes
        the one test serve both sides of the bipartite Kneser family."""
        if len(atoms) == self.n:
            return atoms
        blocks = self._prefix_blocks.get(w)
        if blocks is None:
            prefix = self.masks[:w + 1]
            kept = set(prefix)
            runs, run = [], 1
            for e in range(self.n - 1):
                pair = 3 << e
                if all(m ^ pair in kept for m in prefix if (m & pair).bit_count() == 1):
                    run |= pair
                else:
                    runs.append(run)
                    run = 2 << e
            runs.append(run)
            blocks = self._prefix_blocks[w] = tuple(runs)
        return tuple(cell for b in blocks for a in atoms if (cell := a & b))
