"""Arrangement data model, strata enumeration, and classification."""

import numpy as np
import pytest

from torichk import (ArrangementError, DeformationMatrix, Flat,
                     FlatArrangement, Normal, Point3n, catalog,
                     classification_report, entry, flat_distances,
                     intersection_strata, smoothness_check, translate)


def _flat(u, lam=(0.0, 0.0, 0.0), a=1.0):
    return Flat(Normal(tuple(u)), tuple(float(v) for v in lam), a)


def _axes_n2(l2=0.25):
    return FlatArrangement(2, (_flat((1, 0)), _flat((0, 1), (l2, 0.0, 0.0))))


def test_normal_validation_messages():
    with pytest.raises(ArrangementError, match="normal must be nonzero"):
        Normal((0, 0))
    with pytest.raises(ArrangementError, match=r"normal not primitive \(gcd 2\)"):
        Normal((2, 0))
    with pytest.raises(ArrangementError, match=r"gcd 3"):
        Normal((3, -6))
    with pytest.raises(ArrangementError):
        Normal((1.5, 0))
    # integral floats are accepted and stored as ints
    assert Normal((1.0, -2.0)).entries == (1, -2)


def test_flat_sign_canonicalization():
    a = Flat(Normal((-1, 0)), (0.5, -0.25, 1.0), 2.0)
    b = Flat(Normal((1, 0)), (-0.5, 0.25, -1.0), 2.0)
    assert a.normal.entries == b.normal.entries
    assert a.offsets == b.offsets


def test_arrangement_rejects_duplicates():
    with pytest.raises(ArrangementError, match="identical"):
        FlatArrangement(1, (_flat((1,)), _flat((1,))))
    # same flat written with the opposite sign is still a duplicate
    with pytest.raises(ArrangementError, match="identical"):
        FlatArrangement(2, (
            Flat(Normal((1, 1)), (0.5, 0.0, 0.0), 1.0),
            Flat(Normal((-1, -1)), (-0.5, 0.0, 0.0), 1.0),
        ))


def test_arrangement_rejects_bad_mass_and_dimension():
    with pytest.raises(ArrangementError):
        Flat(Normal((1,)), (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ArrangementError):
        Flat(Normal((1,)), (0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ArrangementError):
        FlatArrangement(2, (_flat((1,)),))


def test_point_coords_roundtrip():
    p = Point3n(np.array([1.0, 2.0]), np.array([3.0 + 4.0j, 5.0 - 6.0j]))
    q = Point3n.from_coords(p.coords())
    assert np.array_equal(p.x, q.x)
    assert np.array_equal(p.z, q.z)
    assert p.n == 2
    # a batch (..., n) round-trips along the last axis
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 5, 6))
    b = Point3n.from_coords(w)
    assert b.x.shape == b.z.shape == (4, 5, 2) and b.n == 2
    assert np.array_equal(b.coords(), w)
    assert np.array_equal(b.coords()[1, 2], Point3n.from_coords(w[1, 2]).coords())


def test_point_batch_validation():
    with pytest.raises(ValueError, match="equal shapes"):
        Point3n(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="equal shapes"):
        Point3n(np.zeros((3, 2)), np.zeros(2))
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((5, 2))
        z = np.zeros((5, 2), dtype=complex)
        x[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Point3n(x, z)
        x[3, 1] = 0.0
        z[4, 0] = complex(0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            Point3n(x, z)
    with pytest.raises(ValueError, match="last axis"):
        Point3n.from_coords(np.zeros((4, 5)))


def test_point_keeps_a_frozen_copy_of_the_callers_arrays():
    x = np.zeros(2)
    z = np.zeros(2, dtype=complex)
    p = Point3n(x, z)
    x[0] = 1.0
    z[1] = 2.0j
    assert p.x[0] == 0.0 and p.z[1] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        p.x[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        p.z[0] = 1.0


def test_flat_distances_vanish_on_the_flat():
    arr = _axes_n2()
    p = Point3n(np.array([0.0, 0.7]), np.array([0.0j, 0.3j]))
    d = flat_distances(arr, p)
    assert d[0] == 0.0 and d[1] > 0.0


def test_svr_batched_matches_row_by_row():
    rng = np.random.default_rng(11)
    for e in catalog():
        arr = e.arrangement
        n, d = arr.dimension, len(arr.flats)
        X = rng.uniform(-3.0, 3.0, (40, n))
        Z = rng.uniform(-3.0, 3.0, (40, n)) + 1j * rng.uniform(-3.0, 3.0, (40, n))
        batched = arr.svr(X, Z)
        rows = [arr.svr(x, z) for x, z in zip(X, Z)]
        for i, part in enumerate(batched):
            assert part.shape == (40, d)
            assert np.array_equal(part, np.array([row[i] for row in rows]))
        # sr, at the |v|^2 of svr, gives svr's s and r
        s, v, r = batched
        for got, want in zip(arr.sr(X, (v * v.conj()).real), (s, r)):
            assert np.array_equal(got, want)
        assert arr.frame is arr.frame
        assert not arr.frame.U.flags.writeable


def test_strata_axes_pair():
    # two coordinate flats in n=2: two singletons and the double point
    arr = _axes_n2()
    strata = intersection_strata(arr)
    assert [s.active for s in strata] == [(0,), (1,), (0, 1)]
    assert [s.rank for s in strata] == [1, 1, 2]
    pair = strata[-1]
    assert np.allclose(pair.witness.x, [0.0, 0.25])
    assert np.allclose(pair.witness.z, 0.0)


def test_strata_witness_lies_on_exactly_the_active_flats():
    arr = entry("n2-unimodular").arrangement
    tol = 1e-9
    for s in intersection_strata(arr):
        d = flat_distances(arr, s.witness)
        for k in range(len(arr.flats)):
            if k in s.active:
                assert d[k] <= tol
            else:
                assert d[k] > 1e-6


def test_strata_closed_index_sets_n2_unimodular():
    arr = entry("n2-unimodular").arrangement
    strata = intersection_strata(arr)
    assert [s.active for s in strata] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert [s.rank for s in strata] == [1, 1, 1, 2, 2, 2]


def test_strata_parallel_flats_do_not_intersect():
    arr = FlatArrangement(1, (_flat((1,)), _flat((1,), (1.0, 0.0, 0.0))))
    assert [s.active for s in intersection_strata(arr)] == [(0,), (1,)]


def test_strata_coincident_subsets_not_duplicated():
    # three flats through one point: a single rank-2 stratum, no pair strata
    arr = FlatArrangement(2, (_flat((1, 0)), _flat((0, 1)), _flat((1, 1))))
    strata = intersection_strata(arr)
    assert [s.active for s in strata] == [(0,), (1,), (2,), (0, 1, 2)]


def test_strata_permutation_invariance():
    base = entry("n2-unimodular").arrangement
    perm = FlatArrangement(2, (base.flats[2], base.flats[0], base.flats[1]))
    got = {tuple(sorted(base.flats.index(perm.flats[k]) for k in s.active))
           for s in intersection_strata(perm)}
    want = {s.active for s in intersection_strata(base)}
    assert got == want


def test_smoothness_designed_to_fail():
    arr = entry("n2-nonsmooth").arrangement
    smooth, failing = smoothness_check(arr)
    assert not smooth
    assert failing.active == (0, 1)
    from torichk import lattice
    rows = [arr.flats[k].normal.entries for k in failing.active]
    assert lattice.invariant_factors(rows) == [1, 2]


def test_smoothness_gl2z_invariance():
    # right-multiplying every normal by a unimodular matrix is a lattice
    # automorphism: verdicts and stratum counts must not change
    rng = np.random.default_rng(20260815)
    cases = [entry("n2-unimodular").arrangement,
             entry("n2-nonsmooth").arrangement]
    for arr in cases:
        want_smooth, _ = smoothness_check(arr)
        want_count = len(intersection_strata(arr))
        for _ in range(5):
            M = np.eye(2, dtype=int)
            for _ in range(4):
                S = np.eye(2, dtype=int)
                i, j = rng.choice(2, 2, replace=False)
                S[i, j] = int(rng.integers(-2, 3))
                M = M @ S
            flats = tuple(
                Flat(Normal(tuple(int(c) for c in (np.array(f.normal.entries) @ M))),
                     f.offsets, f.mass)
                for f in arr.flats)
            moved = FlatArrangement(2, flats)
            got_smooth, _ = smoothness_check(moved)
            assert got_smooth == want_smooth
            assert len(intersection_strata(moved)) == want_count


def test_deformation_matrix_validation():
    with pytest.raises(ArrangementError, match="symmetric"):
        DeformationMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ArrangementError, match="semidefinite"):
        DeformationMatrix([[-1.0]])
    assert DeformationMatrix.zero(3).order == 0
    assert DeformationMatrix([[1.0, 0.0], [0.0, 0.0]]).order == 1
    assert DeformationMatrix([[2.0, 1.0], [1.0, 2.0]]).order == 2


def test_classification_flat_factor_counts():
    # no flats: nothing pins the torus, l = n
    rep = classification_report(FlatArrangement(2, ()), DeformationMatrix.zero(2))
    assert rep.flat_factor_l == 2 and not rep.simply_connected
    # one flat in n=2: max rank 1, one surviving circle factor
    rep = classification_report(
        FlatArrangement(2, (_flat((1, 0)),)), DeformationMatrix.zero(2))
    assert rep.flat_factor_l == 1 and not rep.simply_connected
    # rank-2 stratum: simply connected
    rep = classification_report(_axes_n2(), DeformationMatrix.zero(2))
    assert rep.flat_factor_l == 0 and rep.simply_connected


def test_classification_cone_criterion():
    rep = classification_report(
        FlatArrangement(2, (_flat((1, 0)), _flat((0, 1)))),
        DeformationMatrix.zero(2))
    assert rep.cone_over_3sasakian
    # an offset moves a flat off the origin: no cone
    rep = classification_report(_axes_n2(0.25), DeformationMatrix.zero(2))
    assert not rep.cone_over_3sasakian
    # deformation kills the cone
    rep = classification_report(
        FlatArrangement(2, (_flat((1, 0)), _flat((0, 1)))),
        DeformationMatrix([[1.0, 0.0], [0.0, 0.0]]))
    assert not rep.cone_over_3sasakian
    # more flats than n cannot be a cone even through the origin
    rep = classification_report(
        FlatArrangement(1, (_flat((1,)),)), DeformationMatrix.zero(1))
    assert rep.cone_over_3sasakian
    rep = classification_report(
        entry("eguchi-hanson").arrangement, DeformationMatrix.zero(1))
    assert not rep.cone_over_3sasakian


def test_classification_report_on_nonsmooth():
    e = entry("n2-nonsmooth")
    rep = classification_report(e.arrangement, e.deformation)
    assert rep.smooth is False
    assert rep.failing_stratum is not None
    assert rep.simply_connected is None


def test_translate_moves_strata_with_the_arrangement():
    arr = entry("n2-unimodular").arrangement
    t = np.array([0.3, -0.7])
    w = np.array([0.2 + 0.1j, -0.4 + 0.9j])
    moved = translate(arr, t, w)
    before = intersection_strata(arr)
    after = intersection_strata(moved)
    assert [s.active for s in before] == [s.active for s in after]
    for b, a in zip(before, after):
        shifted = b.witness.shifted(t, w)
        assert np.allclose(a.witness.x, shifted.x, atol=1e-8) or \
            max(flat_distances(moved, shifted)[k] for k in b.active) < 1e-8
    rep_a = classification_report(arr, DeformationMatrix.zero(2))
    rep_b = classification_report(moved, DeformationMatrix.zero(2))
    assert rep_a.as_dict().keys() == rep_b.as_dict().keys()
    for key in ("smooth", "simply_connected", "flat_factor_l",
                "volume_growth_exponent"):
        assert rep_a.as_dict()[key] == rep_b.as_dict()[key]
