"""Arrangement data model, strata enumeration, and classification."""

import dataclasses
import functools
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from torichk import (ArrangementError, DeformationMatrix, Flat,
                     FlatArrangement, Point3n, arrangement, catalog,
                     classification_report, cli, entry, flat_distances,
                     dump_arrangement, intersection_strata, lattice,
                     parse_arrangement, translate)
from torichk.config import DEFAULT


def _flat(u, lam=(0.0, 0.0, 0.0), a=1.0):
    return Flat(tuple(u), tuple(float(v) for v in lam), a)


def _axes_n2(l2=0.25):
    return FlatArrangement(2, (_flat((1, 0)), _flat((0, 1), (l2, 0.0, 0.0))))


def test_normal_validation_messages():
    with pytest.raises(ArrangementError, match="normal must be nonzero"):
        _flat((0, 0))
    with pytest.raises(ArrangementError, match=r"normal not primitive \(gcd 2\)"):
        _flat((2, 0))
    with pytest.raises(ArrangementError, match=r"gcd 3"):
        _flat((3, -6))
    # int() truncates a numpy float32, a string is no number and a bool is no
    # integer (although True == 1): none is integral
    for u in ((1.5, 0), (np.float32(1.5), 0), (np.float32("inf"), 1), ("1", 0), (None, 1),
              (True, False), (np.bool_(True), 0), (1, np.bool_(False))):
        with pytest.raises(ArrangementError, match="normal entries must be integers"):
            _flat(u)
    # integral floats are accepted and stored as ints
    normal = _flat((1.0, -2.0)).normal
    assert normal == (1, -2) and all(type(e) is int for e in normal)


def test_flat_sign_canonicalization():
    a = Flat((-1, 0), (0.5, -0.25, 1.0), 2.0)
    b = Flat((1, 0), (-0.5, 0.25, -1.0), 2.0)
    assert a.normal == b.normal
    assert a.offsets == b.offsets


def test_arrangement_rejects_duplicates():
    with pytest.raises(ArrangementError, match="identical"):
        FlatArrangement(1, (_flat((1,)), _flat((1,))))
    # same flat written with the opposite sign is still a duplicate
    with pytest.raises(ArrangementError, match="identical"):
        FlatArrangement(2, (
            Flat((1, 1), (0.5, 0.0, 0.0), 1.0),
            Flat((-1, -1), (-0.5, 0.0, 0.0), 1.0),
        ))


def test_arrangement_rejects_bad_mass_and_dimension():
    with pytest.raises(ArrangementError):
        Flat((1,), (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ArrangementError):
        Flat((1,), (0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ArrangementError):
        FlatArrangement(2, (_flat((1,)),))


@pytest.mark.parametrize("dimension", [1.5, "2", True, np.bool_(True), 0, -1, None,
                                       float("nan"), float("inf")])
def test_arrangement_refuses_a_dimension_int_would_change(dimension):
    # int() alone would truncate 1.5 to 1 and read "2" as 2 and True as 1
    with pytest.raises(ArrangementError, match="dimension must be a positive integer"):
        FlatArrangement(dimension, ())


@pytest.mark.parametrize("dimension", [2, 2.0, np.int64(2)])
def test_arrangement_takes_an_integral_dimension(dimension):
    arr = FlatArrangement(dimension, ())
    assert arr.dimension == 2 and type(arr.dimension) is int


def test_point_coords_roundtrip():
    p = Point3n(np.array([1.0, 2.0]), np.array([3.0 + 4.0j, 5.0 - 6.0j]))
    q = Point3n.from_coords(p.coords())
    assert np.array_equal(p.x, q.x)
    assert np.array_equal(p.z, q.z)
    assert p.x.shape == p.z.shape == (2,)
    # a batch (..., n) round-trips along the last axis
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 5, 6))
    b = Point3n.from_coords(w)
    assert b.x.shape == b.z.shape == (4, 5, 2)
    assert np.array_equal(b.coords(), w)
    assert np.array_equal(b.coords()[1, 2], Point3n.from_coords(w[1, 2]).coords())
    # so does the sign of every zero: each pattern of +-0.0 in the second
    # coordinate of each block (x, Re z, Im z), next to nonzero first ones
    w = np.tile([1.5, 0.0, -2.0, 0.0, 0.25, 0.0], (8, 1))
    w[:, 1::2] = np.array(np.meshgrid(*[[0.0, -0.0]] * 3, indexing="ij")).reshape(3, -1).T
    for q in (w, w[5], w[-1]):
        assert np.array_equal(Point3n.from_coords(q).coords().view(np.int64), q.view(np.int64))


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
    d = flat_distances(arr, p.x, p.z)
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
        s, _, r, t = batched
        assert np.array_equal(t, s + r)
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
    # at offsets of size 1e9 the witness of stratum (2,) of the three
    # concurrent flats lies up to ~1e-6 from its own flat: the bound scales
    a, b = np.random.default_rng(5).uniform(-1e9, 1e9, (2, 3))
    concurrent = FlatArrangement(2, (_flat((1, 0), a), _flat((0, 1), b),
                                     _flat((1, 1), a + b)))
    for arr in (entry("n2-unimodular").arrangement, concurrent):
        for s in intersection_strata(arr):
            d = flat_distances(arr, s.witness.x, s.witness.z)
            scale = max(1.0, max(abs(o) for k in s.active for o in arr.flats[k].offsets))
            for k in range(len(arr.flats)):
                if k in s.active:
                    assert d[k] <= DEFAULT.on_flat * scale
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
    report = classification_report(arr)
    assert not report.smooth
    failing = report.failing_stratum
    assert failing.active == (0, 1)
    from torichk import lattice
    rows = [arr.flats[k].normal for k in failing.active]
    assert lattice.invariant_factors(rows) == [1, 2]


def test_smoothness_gl2z_invariance():
    # right-multiplying every normal by a unimodular matrix is a lattice
    # automorphism: verdicts and stratum counts must not change
    rng = np.random.default_rng(20260815)
    cases = [entry("n2-unimodular").arrangement,
             entry("n2-nonsmooth").arrangement]
    for arr in cases:
        want_smooth = classification_report(arr).smooth
        want_count = len(intersection_strata(arr))
        for _ in range(5):
            M = np.eye(2, dtype=int)
            for _ in range(4):
                S = np.eye(2, dtype=int)
                i, j = rng.choice(2, 2, replace=False)
                S[i, j] = int(rng.integers(-2, 3))
                M = M @ S
            flats = tuple(
                Flat(tuple(int(c) for c in (np.array(f.normal) @ M)),
                     f.offsets, f.mass)
                for f in arr.flats)
            moved = FlatArrangement(2, flats)
            assert classification_report(moved).smooth == want_smooth
            assert len(intersection_strata(moved)) == want_count


def test_deformation_matrix_validation():
    with pytest.raises(ArrangementError, match="symmetric"):
        DeformationMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ArrangementError, match="semidefinite"):
        DeformationMatrix([[-1.0]])
    assert DeformationMatrix.zero(3).order == 0
    assert DeformationMatrix([[1.0, 0.0], [0.0, 0.0]]).order == 1
    assert DeformationMatrix([[2.0, 1.0], [1.0, 2.0]]).order == 2


def test_deformation_matrix_of_takes_none_arrays_and_matrices():
    B = DeformationMatrix([[1.0, 0.0], [0.0, 0.0]])
    assert DeformationMatrix.of(B, 2) is B
    # None is one cached zero matrix per n, so it costs no eigh per call
    assert DeformationMatrix.of(None, 2) is DeformationMatrix.of(None, 2)
    assert DeformationMatrix.of(None, 2).order == 0
    assert not DeformationMatrix.of(None, 2).entries.any()
    assert DeformationMatrix.of([[2.0, 1.0], [1.0, 2.0]], 2).order == 2
    with pytest.raises(ArrangementError, match="semidefinite"):
        DeformationMatrix.of([[-1.0]], 1)
    with pytest.raises(ArrangementError, match="is 2x2, expected 1x1"):
        DeformationMatrix.of(B, 1)
    with pytest.raises(ArrangementError, match="is 1x1, expected 2x2"):
        DeformationMatrix.of(np.zeros((1, 1)), 2)


def test_every_entry_point_takes_b_in_the_same_three_forms():
    arr = entry("n2-unimodular").arrangement
    want = classification_report(arr, DeformationMatrix.zero(2)).as_dict()
    assert classification_report(arr, None).as_dict() == want
    assert classification_report(arr, np.zeros((2, 2))).as_dict() == want
    assert classification_report(arr, np.eye(2)).taub_nut_order == 2
    with pytest.raises(ArrangementError, match="expected 2x2"):
        classification_report(arr, np.eye(3))
    assert "B" not in dump_arrangement(arr, np.zeros((2, 2)))
    assert dump_arrangement(arr, np.eye(2))["B"] == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ArrangementError, match="expected 2x2"):
        dump_arrangement(arr, np.eye(1))


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
        shifted = Point3n(b.witness.x + t, b.witness.z + w)
        assert np.allclose(a.witness.x, shifted.x, atol=1e-8) or \
            max(flat_distances(moved, shifted.x, shifted.z)[k] for k in b.active) < 1e-8
    rep_a = classification_report(arr, DeformationMatrix.zero(2))
    rep_b = classification_report(moved, DeformationMatrix.zero(2))
    assert rep_a.as_dict().keys() == rep_b.as_dict().keys()
    for key in ("smooth", "simply_connected", "flat_factor_l",
                "volume_growth_exponent"):
        assert rep_a.as_dict()[key] == rep_b.as_dict()[key]


# --------------------------------------------------------------------------
# the strata enumerator against its reference

def _reference_strata(arr):
    """The breadth-first enumeration that solves every candidate subset.

    Returns ([(active, rank, witness)], number of candidates examined).
    """
    d = len(arr.flats)
    rng = np.random.default_rng(DEFAULT.default_seed)
    tol = DEFAULT.on_flat
    found = {}
    examined = 0
    frontier = []

    def atol(idx):
        return tol * arrangement._offset_scale(arr, idx)

    for k in range(d):
        pt = arrangement._solve_flat_system(arr, [k], atol([k]))
        closed = arrangement._closure(arr, [k], pt, atol([k]))
        if closed not in found:
            found[closed] = pt
            frontier.append(closed)
    while frontier:
        next_frontier = []
        for S in frontier:
            for j in range(d):
                if j in S:
                    continue
                examined += 1
                cand = sorted(set(S) | {j})
                pt = arrangement._solve_flat_system(arr, cand, atol(cand))
                if pt is None:
                    continue
                closed = arrangement._closure(arr, cand, pt, atol(cand))
                if closed not in found:
                    found[closed] = pt
                    next_frontier.append(closed)
        frontier = next_frontier
    strata = []
    for S in sorted(found, key=lambda s: (len(s), s)):
        _, sv, vt = np.linalg.svd(arr.frame.U[list(S)])
        rank = int(np.sum(sv > 1e-11 * max(1.0, sv[0])))
        witness = arrangement._witness(arr, S, arrangement._stratum_point(arr, S)[:2],
                                       vt[rank:].T, rng, tol)
        rows = [arr.flats[k].normal for k in S]
        strata.append((S, len(lattice.invariant_factors(rows)), witness))
    return strata, examined


def _assert_matches_reference(arr):
    """Same strata as the reference, in the same order, witnesses bit for bit;
    or the same ArrangementError.  Returns whether strata were compared."""
    try:
        want, _ = _reference_strata(arr)
    except ArrangementError as exc:
        with pytest.raises(ArrangementError, match=f"^{exc}$"):
            intersection_strata(arr)
        return False
    got = intersection_strata(arr)
    assert [(s.active, s.rank) for s in got] == [(S, rank) for S, rank, _ in want]
    for s, (_, _, w) in zip(got, want):
        assert np.array_equal(s.witness.x, w.x) and np.array_equal(s.witness.z, w.z)
    return True


@functools.cache
def _workloads():
    """The benchmark's workload module: the classify-strata family and its palettes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _family():
    """The 20 base arrangements of the classify-strata workload."""
    return [parse_arrangement(doc)[0] for doc in _workloads().base_family()]

# moves off a consistent intersection: inside the solve's tolerance, just past
# it, past it but inside the screen's margin, and far past both
_NUDGES = (3e-10, 3e-9, 2e-6, 1e-3)


def _random_dependent_arrangement(rng, n):
    """Flats with dependent normals through two anchor points, some nudged off
    them, plus flats at unrelated offsets."""
    offsets, palette = _workloads().OFFSETS, _workloads().PALETTES[n]
    anchors = [rng.choice(offsets, (3, n)) for _ in range(2)]
    flats = {}
    d = int(rng.integers(n + 2, n + 6))
    while len(flats) < d:
        u = palette[rng.integers(len(palette))]
        kind = rng.integers(3)
        if kind == 0:
            lam = rng.choice(offsets, 3)
        else:
            lam = anchors[rng.integers(2)] @ np.array(u, dtype=float)
            if kind == 2:
                lam[rng.integers(3)] += rng.choice(_NUDGES)
        flats.setdefault((u, tuple(lam)), _flat(u, lam))
    return FlatArrangement(n, tuple(flats.values()))


def test_strata_match_the_reference_on_catalog_and_family():
    for arr in [e.arrangement for e in catalog()] + _family():
        assert _assert_matches_reference(arr)


def test_strata_match_the_reference_on_random_dependent_arrangements():
    rng = np.random.default_rng(8)
    compared = 0
    for n in (2, 3):
        for _ in range(30):
            compared += _assert_matches_reference(_random_dependent_arrangement(rng, n))
    # a nudge below the witness clearance can leave no witness; most cases compare strata
    assert compared >= 45


def test_strata_in_the_tolerance_band_take_the_least_squares_path(monkeypatch):
    # flat 2 passes 3e-9 from the point of flats 0 and 1, past the tolerance
    # 1.5e-9 of that pair but inside the screen's margin; the least-squares
    # point of all three lies within tolerance of each, so (0, 1, 2) is a
    # stratum besides the three pairs.  The normal of 2 lies in the span of
    # 0 and 1, so only least squares can find it.
    arr = FlatArrangement(2, (_flat((1, 1), (0.5, 0.5, -1 / 3)),
                              _flat((1, -1), (-0.5, 1.5, -1 / 3)),
                              _flat((1, 2), (1.0, 3e-9, -1 / 3))))
    calls = Counter()
    _count_calls(monkeypatch, calls, np.linalg, "lstsq")
    strata = intersection_strata(arr)
    assert [(s.active, s.rank) for s in strata] == [
        ((0,), 1), ((1,), 1), ((2,), 1), ((0, 1), 2), ((0, 2), 2), ((1, 2), 2), ((0, 1, 2), 2)]
    assert calls["lstsq"] > 0
    assert _assert_matches_reference(arr)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "flat 3 lies 1.4999999e-9 from the point of flats 0 and 1, against the pair's "
    "tolerance 1.5e-9; which side of it the flat lands on depends on the rounding "
    "of the path that reaches the candidate, so the enumerator lists both (0, 1) and "
    "(0, 1, 3) where the least-squares reference lists only (0, 1, 3)"))
def test_a_flat_on_the_tolerance_edge_leaves_one_stratum():
    arr = FlatArrangement(2, (_flat((1, 1), (0.5, -1 / 3, 1.5)),
                              _flat((1, -1), (0.5, -0.3333333303333333, 0.5)),
                              _flat((0, 1), (1.0, 1 / 3, 1 / 3)),
                              _flat((1, 2), (0.5, -1 / 3, 2.0))))
    assert _assert_matches_reference(arr)


def _all_test_arrangements():
    """The catalog, the family and the random dependent arrangements of the
    reference test, in the same draws."""
    rng = np.random.default_rng(8)
    return ([e.arrangement for e in catalog()] + _family()
            + [_random_dependent_arrangement(rng, n) for n in (2, 3) for _ in range(30)])


def test_stratum_points_are_least_squares_points_and_witnesses_sit_on_their_flats(monkeypatch):
    # c fixed before measuring: each stratum's point, as the enumerator uses
    # it, is the min-norm least-squares point of its active flats to within
    # c eps times their offset scale
    c, eps = 64, np.finfo(float).eps
    compared = 0
    for arr in _all_test_arrangements():
        f = arr.frame
        with monkeypatch.context() as m:
            # the witness of each stratum is its point itself
            m.setattr(arrangement, "_witness", lambda arr, S, base, null, rng, tol: Point3n(*base))
            points = intersection_strata(arr)
        for s in points:
            idx = list(s.active)
            scale = max(1.0, float(f.sizes[idx].max()))
            x = np.linalg.lstsq(f.U[idx], f.l1[idx], rcond=None)[0]
            z = np.linalg.lstsq(f.U[idx].astype(complex), f.lc[idx], rcond=None)[0]
            assert np.abs(s.witness.x - x).max() <= c * eps * scale
            assert np.abs(s.witness.z - z).max() <= c * eps * scale
        try:
            strata = intersection_strata(arr)
        except ArrangementError as exc:
            # a nudge below the witness clearance can leave no witness
            assert str(exc) == "could not find a witness avoiding the other flats"
            continue
        compared += 1
        assert [s.active for s in strata] == [s.active for s in points]
        for s in strata:
            scale = max(1.0, float(f.sizes[list(s.active)].max()))
            on = flat_distances(arr, s.witness.x, s.witness.z) <= DEFAULT.on_flat * scale
            assert tuple(np.flatnonzero(on).tolist()) == s.active
    assert compared >= 45 + len(catalog()) + len(_family())


def _count_calls(monkeypatch, calls, owner, name):
    inner = getattr(owner, name)

    def counted(*args, **kw):
        calls[name] += 1
        return inner(*args, **kw)
    monkeypatch.setattr(owner, name, counted)


def test_one_svd_per_stratum_no_lstsq_and_one_smith_form_per_normal_set(monkeypatch):
    # each stratum takes one SVD of its normals, which extends it by every
    # flat at once: the family has no extension left for least squares; strata
    # with the same active normals (parallel or translated flats) share one
    # Smith form within an enumeration
    calls = Counter()
    _count_calls(monkeypatch, calls, np.linalg, "svd")
    _count_calls(monkeypatch, calls, np.linalg, "lstsq")
    _count_calls(monkeypatch, calls, lattice, "smith_normal_form")
    strata = normal_sets = 0
    for arr in _family():
        report = classification_report(arr, DeformationMatrix.zero(arr.dimension))
        strata += len(report.strata)
        normal_sets += len({tuple(arr.flats[k].normal for k in s.active)
                            for s in report.strata})
    assert normal_sets < strata
    assert calls == {"svd": strata, "smith_normal_form": normal_sets}


def test_one_point_per_stratum(monkeypatch):
    # solves, closures and witness candidates stay raw arrays; only each
    # stratum's witness is a validated Point3n
    calls = Counter()
    _count_calls(monkeypatch, calls, Point3n, "__init__")
    strata = sum(len(intersection_strata(arr)) for arr in _family())
    assert calls == {"__init__": strata}


def test_strata_subset_limit_counts_every_candidate(capsys, monkeypatch):
    arr = entry("n2-unimodular").arrangement
    _, k = _reference_strata(arr)
    monkeypatch.setattr(arrangement, "DEFAULT",
                        dataclasses.replace(DEFAULT, strata_subset_limit=k))
    assert len(intersection_strata(arr)) == 6
    message = f"strata enumeration exceeded {k - 1} candidate subsets"
    monkeypatch.setattr(arrangement, "DEFAULT",
                        dataclasses.replace(DEFAULT, strata_subset_limit=k - 1))
    with pytest.raises(ArrangementError, match=f"^{message}$"):
        intersection_strata(arr)
    code = cli.run_cli(["classify", "n2-unimodular"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_strata_at_large_offsets_are_not_duplicated():
    # three flats through one point, far from the origin: the residuals of the
    # solve and the closure both scale with the offsets
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(-1e9, 1e9, (2, 3))
        arr = FlatArrangement(2, (_flat((1, 0), a), _flat((0, 1), b), _flat((1, 1), a + b)))
        assert [s.active for s in intersection_strata(arr)] == [(0,), (1,), (2,), (0, 1, 2)]
