import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab.errors import DomainError
from mvlab.subsets import (
    KSubset,
    MaskOrbits,
    colex_rank,
    k_subset_masks,
    k_subsets_of_mask,
    mask_of,
    members_of,
)


def test_mask_members_round_trip():
    for members in ([1], [2, 5], [1, 2, 3], [4, 7, 9]):
        m = mask_of(members, 9)
        assert members_of(m) == tuple(members)


def test_mask_of_rejects_out_of_range():
    with pytest.raises(DomainError):
        mask_of([0], 5)
    with pytest.raises(DomainError):
        mask_of([6], 5)
    assert mask_of([2, 2], 5) == mask_of([2], 5)  # sets collapse duplicates


def test_k_subset_masks_enumeration():
    for n in range(1, 9):
        for k in range(0, n + 1):
            masks = list(k_subset_masks(n, k))
            assert len(masks) == math.comb(n, k)
            assert all(m.bit_count() == k for m in masks)
            assert masks == sorted(masks)
            assert len(set(masks)) == len(masks)


def test_colex_rank_unrank_inverse():
    # k_subset_masks is the unranking: its r-th mask has rank r
    for n in range(1, 10):
        for k in range(0, n + 1):
            for r, m in enumerate(k_subset_masks(n, k)):
                assert colex_rank(m) == r


def test_colex_order_matches_reversed_tuple_order():
    # colex on masks = lexicographic on reversed member tuples
    n, k = 7, 3
    tuples = sorted(itertools.combinations(range(1, n + 1), k),
                    key=lambda t: t[::-1])
    masks = [mask_of(list(t), n) for t in tuples]
    assert masks == list(k_subset_masks(n, k))


def test_k_subsets_of_mask():
    # every pool on 7 elements and every k, out of range included: the
    # k-subsets in numeric (= colex) order
    for pool in range(1 << 7):
        elems = [1 << i for i in range(7) if pool >> i & 1]
        for k in range(-1, 9):
            expected = sorted(sum(c) for c in itertools.combinations(elems, k)) if k >= 0 else []
            assert list(k_subsets_of_mask(pool, k)) == expected, (pool, k)


def test_ksubset_operations():
    a = KSubset.from_members([1, 3], 5)
    b = KSubset.from_members([2, 4], 5)
    c = KSubset.from_members([3, 5], 5)
    assert a.size == 2
    assert a.members() == (1, 3)
    assert a.complement().members() == (2, 4, 5)
    assert not a.bits & b.bits
    assert (a.bits & c.bits).bit_count() == 1
    assert KSubset(5, a.bits) == a


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_orbits_match_every_atom_preserving_permutation(data):
    # covering's shape: the k-subsets of [n] through a set T (T empty for
    # every k-subset; a t-set at the covering root), with atoms cut by T
    # and then by random members; the orbit of a block is its image under
    # every permutation of [n] that maps each atom to itself
    n = data.draw(st.integers(2, 7), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    full = (1 << n) - 1
    t = data.draw(st.integers(0, k - 1), label="t")
    through = data.draw(st.sampled_from(list(k_subset_masks(n, t))), label="T")
    blocks = tuple(b for b in k_subset_masks(n, k) if b & through == through)
    orbits = MaskOrbits(blocks, n)
    atoms = orbits.refine((full,), through)
    for member in data.draw(st.lists(st.integers(0, full), max_size=4), label="X"):
        atoms = orbits.refine(atoms, member)
    assert sum(atoms) == full and all(atoms)
    i = data.draw(st.integers(0, len(blocks) - 1), label="block")
    index = {b: j for j, b in enumerate(blocks)}
    expected = 0
    for p in itertools.permutations(range(n)):
        images = [sum(1 << p[e] for e in range(n) if m >> e & 1) for m in (*atoms, blocks[i])]
        if images[:-1] == list(atoms):
            expected |= 1 << index[images[-1]]
    assert orbits.orbit(i, atoms) == expected
