"""Property tests: the classification does not see the choice of lattice basis,
origin or flat order, and the potential does not see the origin or the sign
in which a flat is given."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torichk import (DeformationMatrix, Flat, FlatArrangement, Point3n,
                     classification_report, eval_F, eval_Phi, translate)

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
    arr = FlatArrangement(n, tuple(Flat(u, lam) for u, lam in flats))

    # A = signed permutation times elementary row operations, det A = +-1
    A = np.eye(n, dtype=int)[draw(st.permutations(range(n)))]
    A *= np.array(draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)))[:, None]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3)):
        A[i] += draw(st.sampled_from((-1, 1))) * A[j]
    # u.x = (A u).(A^-T x): same offsets on the normals A u
    rebased = FlatArrangement(n, tuple(
        Flat(tuple(int(v) for v in A @ f.normal), f.offsets, f.mass)
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


MASSES = (0.5, 1.0, 2.0)
COORDS = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def arrangements_and_points(draw):
    """(arrangement with B = 0, a point (x, z) at least 0.05 from every flat
    and branch locus, a translation (t, w))."""
    n = draw(st.sampled_from((2, 3)))
    flats = draw(st.lists(
        st.tuples(st.sampled_from(PALETTES[n]), st.tuples(*[st.sampled_from(OFFSETS)] * 3),
                  st.sampled_from(MASSES)),
        min_size=1, max_size=5, unique_by=lambda f: (f[0], f[1])))
    arr = FlatArrangement(n, tuple(Flat(u, lam, a) for u, lam, a in flats))
    c = np.array(draw(st.lists(COORDS, min_size=3 * n, max_size=3 * n)))
    p = Point3n.from_coords(c)
    _, _, r, t = arr.svr(p.x, p.z)
    assume(r.min() >= 0.05 and t.min() >= 0.05)
    shift = np.array(draw(st.lists(COORDS, min_size=3 * n, max_size=3 * n)))
    return arr, p, shift[:n], shift[n:2 * n] + 1j * shift[2 * n:]


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(arrangements_and_points())
def test_potential_invariant_under_translation(case):
    # with B = 0, moving the flats and the point by (t, w) leaves every
    # s_k, v_k and r_k, so F and Phi, as they are up to rounding
    arr, p, t, w = case
    moved, q = translate(arr, t, w), Point3n(p.x + t, p.z + w)
    assert np.isclose(eval_F(moved, None, q), eval_F(arr, None, p), rtol=1e-12, atol=1e-12)
    assert np.allclose(eval_Phi(moved, None, q), eval_Phi(arr, None, p),
                       rtol=1e-12, atol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(arrangements_and_points(), st.data())
def test_a_flat_given_with_the_opposite_sign_evaluates_alike(case, data):
    # (-u, -lambda) cuts out the flat (u, lambda); it evaluates bit for bit alike
    arr, p, _, _ = case
    flip = data.draw(st.lists(st.booleans(), min_size=len(arr.flats), max_size=len(arr.flats)))
    negated = FlatArrangement(arr.dimension, tuple(
        Flat(tuple(-e for e in f.normal), tuple(-o for o in f.offsets), f.mass)
        if neg else f for f, neg in zip(arr.flats, flip)))
    assert eval_F(negated, None, p) == eval_F(arr, None, p)
    assert np.array_equal(eval_Phi(negated, None, p), eval_Phi(arr, None, p))
