"""Property tests: the classification does not see the choice of lattice basis,
origin or flat order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torichk import (DeformationMatrix, Flat, FlatArrangement, Normal,
                     classification_report, translate)

PALETTES = {
    2: [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
        (1, 0, -1), (1, -1, 0)],
}
OFFSETS = (-1.0, -0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0, 0.5, 1.0)


@st.composite
def moved_arrangements(draw):
    """(arrangement, the same flats moved, perm): moved flat j is flat perm[j]
    in another Z-basis of the lattice and translated."""
    n = draw(st.sampled_from((2, 3)))
    flats = draw(st.lists(
        st.tuples(st.sampled_from(PALETTES[n]), st.tuples(*[st.sampled_from(OFFSETS)] * 3)),
        min_size=2, max_size=7, unique=True))
    arr = FlatArrangement(n, tuple(Flat(Normal(u), lam) for u, lam in flats))

    # A = signed permutation times elementary row operations, det A = +-1
    A = np.eye(n, dtype=int)[draw(st.permutations(range(n)))]
    A *= np.array(draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)))[:, None]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3)):
        A[i] += draw(st.sampled_from((-1, 1))) * A[j]
    # u.x = (A u).(A^-T x): same offsets on the normals A u
    rebased = FlatArrangement(n, tuple(
        Flat(Normal(tuple(int(v) for v in A @ f.normal.entries)), f.offsets, f.mass)
        for f in arr.flats))

    shift = draw(st.lists(st.sampled_from(OFFSETS), min_size=3 * n, max_size=3 * n))
    t = np.array(shift[:n])
    w = np.array(shift[n:2 * n]) + 1j * np.array(shift[2 * n:])
    shifted = translate(rebased, t, w)

    perm = draw(st.permutations(range(len(arr.flats))))
    moved = FlatArrangement(n, tuple(shifted.flats[k] for k in perm))
    return arr, moved, perm


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(moved_arrangements())
def test_classification_invariant_under_basis_translation_and_permutation(case):
    arr, moved, perm = case
    B = DeformationMatrix.zero(arr.dimension)
    want = classification_report(arr, B)
    got = classification_report(moved, B)
    assert got.smooth == want.smooth
    assert got.flat_factor_l == want.flat_factor_l
    assert len(got.strata) == len(want.strata)
    assert sorted((tuple(sorted(perm[k] for k in s.active)), s.rank) for s in got.strata) == \
        sorted((s.active, s.rank) for s in want.strata)
