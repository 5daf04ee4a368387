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
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bits of ``bits`` as single-bit masks, ascending."""
    while bits:
        low = bits & -bits
        yield low
        bits ^= low


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

    def intersection_size(self, other: "KSubset") -> int:
        return (self.bits & other.bits).bit_count()

    def isdisjoint(self, other: "KSubset") -> bool:
        return not self.bits & other.bits

    def __repr__(self):
        return f"KSubset({set(self.members()) or '{}'} of [{self.n}])"
