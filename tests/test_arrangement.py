"""Arrangement data model, strata enumeration, and classification."""

import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from itertools import compress
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


def test_svr_by_flat_is_svr_flat_major():
    # the same bits as svr, transposed: the catalog, and an n = 3 arrangement
    # of seven flats whose products sum three coordinates; one row, a few,
    # and a growth ray block's worth
    rng = np.random.default_rng(12)
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, -1), (1, 1, 1), (2, -1, 3)]
    n3 = FlatArrangement(3, [Flat(u, tuple(rng.uniform(-1.0, 1.0, 3)), 0.5 + k)
                             for k, u in enumerate(normals)])
    for arr in [e.arrangement for e in catalog()] + [n3]:
        n, d = arr.dimension, len(arr.flats)
        for rows in (1, 7, 16384):
            X = rng.uniform(-3.0, 3.0, (rows, n)) * 10.0 ** rng.uniform(-4, 4, (rows, 1))
            Z = X[::-1] * rng.uniform(-2.0, 2.0, (rows, n)) + 1j * rng.uniform(-3.0, 3.0, (rows, n))
            for got, want in zip(arr.svr_by_flat(X, Z), arr.svr(X, Z)):
                assert got.shape == (d, rows)
                assert np.array_equal(np.ascontiguousarray(got.T).view(np.int64),
                                      want.view(np.int64))


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


def test_deformation_matrix_clips_a_small_negative_eigenvalue():
    # eigenvalue -5e-13: within the tolerance, so clipped to 0, not refused
    B = DeformationMatrix([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
    assert B.order == 1
    assert np.array_equal(B.entries, B.entries.T)
    assert np.linalg.eigvalsh(B.entries).min() >= 0.0


def test_deformation_matrix_symmetrizes_finite_sums_bit_for_bit_and_refuses_an_overflow():
    rng = np.random.default_rng(4)
    for scale in (1e-300, 1.0, 1e300, 1e307):
        m = rng.uniform(0.5, 1.0, (3, 3))
        a = (m @ m.T + np.eye(3)) * scale
        a[0, 1] *= 1.0 + 1e-15  # within the symmetry tolerance, so averaged
        assert np.array_equal(DeformationMatrix(a).entries, 0.5 * (a + a.T))
    for big in ([[1e308]], [[1.7e308, 0.0], [0.0, 1.0]], [[8e307, -1e308], [-1e308, 8e307]]):
        with pytest.raises(ArrangementError, match="symmetric part overflows"):
            DeformationMatrix(big)


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

def _reference_point(arr, S):
    """The min-norm point (x, z) of the flats S and a basis null (n, n - rank)
    of the nullspace of their normals, from one SVD of those normals alone."""
    f = arr.frame
    idx = list(S)
    w, sv, vt = np.linalg.svd(f.U[idx])
    rank = int(np.count_nonzero(sv > 1e-11 * max(1.0, sv[0])))
    pinv = (vt[:rank].T / sv[:rank]) @ w[:, :rank].T
    return pinv @ f.l1[idx], pinv @ f.lc[idx], vt[rank:].T


def _reference_witness(arr, active, x, z, null, rng, tol):
    """The point (x, z) of the flats active, perturbed off every other flat
    along null, one draw at a time."""
    others = [j for j in range(len(arr.flats)) if j not in active]
    m = null.shape[1]
    if m == 0 or not others:
        return Point3n(x, z)
    for _ in range(64):
        c = rng.uniform(-1.0, 1.0, 3 * m)  # the draws for x, Re z and Im z in turn
        cand = x + null @ c[:m], z + null @ (c[m:2 * m] + 1j * c[2 * m:])
        if (flat_distances(arr, *cand)[others] > 1e3 * tol).all():
            return Point3n(*cand)
    raise ArrangementError("could not find a witness avoiding the other flats")


def _offset_scale(arr, idx):
    """max(1, largest |offset| of the flats idx): residuals up to tol times
    this count as zero."""
    return float(arr.frame.sizes[idx].max(initial=1.0))


def _reference_strata(arr, frontiers=None):
    """The breadth-first enumeration that solves every candidate subset.

    Returns ([(active, rank, witness)], number of candidates examined), and
    appends each frontier in turn to the list frontiers, if given.
    """
    d = len(arr.flats)
    rng = np.random.default_rng(DEFAULT.default_seed)
    tol = DEFAULT.on_flat
    found = {}
    examined = 0
    frontier = []

    def atol(idx):
        return tol * _offset_scale(arr, idx)

    for k in range(d):
        pt = arrangement._solve_flat_system(arr, [k], atol([k]))
        closed = arrangement._closure(arr, [k], pt, atol([k]))
        if closed not in found:
            found[closed] = pt
            frontier.append(closed)
    while frontier:
        if frontiers is not None:
            frontiers.append(frontier)
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
        witness = _reference_witness(arr, S, *_reference_point(arr, S), rng, tol)
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


# the classify-strata workload's seeds whose moved family is pinned; a change
# that moves these outputs, or the strata digests below, on purpose
# regenerates both files with
#
#     PYTHONPATH=src python tests/test_arrangement.py
#
# and says which digests moved and why
FAMILY_SEEDS = (1, 2)
FAMILY_DIGESTS = Path(__file__).resolve().parent / "family_digests.json"


def _moved_family(seed):
    """The family as the classify-strata workload moves it at `seed`:
    [(name, document, the document with its flats permuted)], drawn from one
    rng in the workload's order."""
    wl = _workloads()
    rng = np.random.default_rng(seed)
    docs = [wl.moved(doc, rng) for doc in wl.base_family()]
    out = []
    for i, doc in enumerate(docs):
        perm = rng.permutation(len(doc["flats"]))
        out.append((f"family-{i}@{seed}", doc,
                    dict(doc, flats=[doc["flats"][k] for k in perm])))
    return out


def _family_digests(workdir):
    """{case: {command: sha256 of its exit code and stdout}} of classify and
    validate on every moved family arrangement and its permutation."""
    out = {}
    for seed in FAMILY_SEEDS:
        for name, doc, permuted in _moved_family(seed):
            out[name] = {}
            for suffix, d in (("", doc), (" (permuted)", permuted)):
                path = Path(workdir) / "arrangement.json"
                path.write_text(json.dumps(d), encoding="utf-8")
                for cmd in ("classify", "validate"):
                    buf = io.StringIO()
                    with redirect_stdout(buf):
                        code = cli.run_cli([cmd, str(path)])
                    out[name][cmd + suffix] = hashlib.sha256(
                        f"{code}\n{buf.getvalue()}".encode()).hexdigest()
    return out

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


# the strata of the catalog and of the random dependent generator at these
# seeds, 60 arrangements per seed and n, are pinned like the family's
# digests and regenerated with them
STRATA_SEEDS = (1, 2)
STRATA_DIGESTS = Path(__file__).resolve().parent / "strata_digests.json"


def _strata_digest(arrangements):
    """sha256 of each arrangement's strata in turn: the active sets, invariant
    factors and witness x and z bytes, or the ArrangementError's text."""
    h = hashlib.sha256()
    for arr in arrangements:
        try:
            for s in intersection_strata(arr):
                h.update(f"{s.active} {s.invariant_factors}\n".encode())
                h.update(s.witness.x.tobytes() + s.witness.z.tobytes())
        except ArrangementError as exc:
            h.update(f"error: {exc}\n".encode())
        h.update(b"\n")
    return h.hexdigest()


def _strata_digests():
    out = {"catalog": _strata_digest(e.arrangement for e in catalog())}
    for seed in STRATA_SEEDS:
        rng = np.random.default_rng(seed)
        for n in (2, 3):
            out[f"random-dependent@{seed} n={n}"] = _strata_digest(
                _random_dependent_arrangement(rng, n) for _ in range(60))
    return out


def test_strata_of_the_catalog_and_random_dependent_arrangements_match_the_pinned_digests():
    # about one draw in ten ends in "could not find a witness avoiding the
    # other flats", so the digests pin that error path as well
    want = json.loads(STRATA_DIGESTS.read_text(encoding="utf-8"))
    assert _strata_digests() == want


def test_strata_match_the_reference_on_catalog_and_family():
    for arr in [e.arrangement for e in catalog()] + _family():
        assert _assert_matches_reference(arr)


def test_strata_match_the_reference_on_the_moved_family():
    # a change of lattice basis makes normals larger than the base family's
    for seed in FAMILY_SEEDS:
        for _, doc, permuted in _moved_family(seed):
            for d in (doc, permuted):
                assert _assert_matches_reference(parse_arrangement(d)[0])


def test_classify_and_validate_of_the_moved_family_match_the_pinned_digests(tmp_path):
    want = json.loads(FAMILY_DIGESTS.read_text(encoding="utf-8"))
    assert _family_digests(tmp_path) == want


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
            m.setattr(arrangement, "_witnesses", lambda arr, strata, rng, tol: [
                Point3n(x, z) for _, x, z, _ in strata])
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


def test_one_svd_per_frontier_and_size_no_lstsq_and_one_smith_form_per_normal_set(monkeypatch):
    # each frontier takes one stacked SVD per size |S| of its strata, whose
    # rows are those strata, and extends every stratum by every flat at once:
    # the family has no extension left for least squares; strata with the
    # same active normals (parallel or translated flats) share one Smith
    # form within an enumeration
    calls = Counter()
    frontiers = []  # (the frontier, the (rows, |S|) of each SVD it takes)
    _count_calls(monkeypatch, calls, np.linalg, "lstsq")
    _count_calls(monkeypatch, calls, lattice, "smith_normal_form")
    svd, points = np.linalg.svd, arrangement._frontier_points

    def stacked_svd(a, *args, **kw):
        frontiers[-1][1].append(a.shape[:2])
        return svd(a, *args, **kw)

    def frontier_points(arr, frontier):
        frontiers.append((list(frontier), []))
        return points(arr, frontier)
    monkeypatch.setattr(np.linalg, "svd", stacked_svd)
    monkeypatch.setattr(arrangement, "_frontier_points", frontier_points)
    strata = normal_sets = 0
    for arr in _family():
        report = classification_report(arr, DeformationMatrix.zero(arr.dimension))
        strata += len(report.strata)
        normal_sets += len({tuple(arr.flats[k].normal for k in s.active)
                            for s in report.strata})
    assert normal_sets < strata
    assert calls == {"smith_normal_form": normal_sets}
    for frontier, shapes in frontiers:
        sizes = Counter(len(S) for S in frontier)
        assert sorted(shapes) == sorted((rows, size) for size, rows in sizes.items())
    assert sum(len(frontier) for frontier, _ in frontiers) == strata
    assert len(frontiers) <= sum(len(shapes) for _, shapes in frontiers) < strata


class _CountedProducts(np.ndarray):
    """An array view that counts the matrix products it takes part in."""
    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kw):
        if ufunc is np.matmul:
            _CountedProducts.products += 1
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kw)


def test_one_extension_per_frontier_group_and_no_product_per_stratum(monkeypatch):
    # the singletons take one _extend call, and each frontier one per group
    # of its strata with the same (|S|, rank); G = P_J P^T is one Gram
    # product over the group at every null width, with no matrix product per
    # stratum; the closures still make the frontiers, in their order, of the
    # reference, which extends one stratum at a time
    frontiers, singletons = [], []  # [(frontier, its groups)], [the singletons' calls]
    widths = Counter()  # null width -> strata extended
    extend, points = arrangement._extend, arrangement._frontier_points

    def counted_extend(arr, idx, todo, s, v, P, pinv, tol):
        before = _CountedProducts.products
        out = extend(arr, idx, todo, s, v, P.view(_CountedProducts), pinv, tol)
        assert _CountedProducts.products == before
        widths[P.shape[2]] += len(idx)
        (frontiers[-1][1] if frontiers else singletons).append(
            sorted(map(tuple, idx.tolist())))
        return out

    def frontier_points(arr, frontier):
        frontiers.append((list(frontier), []))
        return points(arr, frontier)
    for arr in [entry("eguchi-hanson").arrangement] + _family():
        want = intersection_strata(arr)
        frontiers.clear()
        singletons.clear()
        with monkeypatch.context() as m:
            m.setattr(arrangement, "_extend", counted_extend)
            m.setattr(arrangement, "_frontier_points", frontier_points)
            got = intersection_strata(arr)
        assert [(s.active, s.invariant_factors) for s in got] == [
            (s.active, s.invariant_factors) for s in want]
        assert all(np.array_equal(a.witness.x, b.witness.x)
                   and np.array_equal(a.witness.z, b.witness.z) for a, b in zip(got, want))
        rank = {s.active: s.rank for s in got}
        assert singletons == [[()]]
        ref = []
        _reference_strata(arr, ref)
        assert [frontier for frontier, _ in frontiers] == ref
        for frontier, groups in frontiers:
            want_groups = {}
            for S in frontier:
                want_groups.setdefault((len(S), rank[S]), []).append(S)
            assert sorted(groups) == sorted(sorted(g) for g in want_groups.values())
    assert widths[0] and widths[1] and widths[2]


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


def test_witness_draws_refused_64_times_end_in_the_same_error(monkeypatch):
    # flat 2 runs 1e-7 from flat 1, inside the witness clearance 1e3 on_flat:
    # every draw of stratum (1,) is refused, round after round, while the
    # other strata take their first
    arr = FlatArrangement(2, (_flat((0, 1)), _flat((1, 0)), _flat((1, 0), (1e-7, 0.0, 0.0))))
    tol = DEFAULT.on_flat
    assert not _assert_matches_reference(arr)
    strata = [(S, *_reference_point(arr, S)) for S in [(0,), (1,), (2,), (0, 1), (0, 2)]]
    draws, rounds = arrangement._witness_draws, []

    def counted(arr, strata, c, tol):
        rounds.append(len(strata))
        return draws(arr, strata, c, tol)
    monkeypatch.setattr(arrangement, "_witness_draws", counted)
    message = "^could not find a witness avoiding the other flats$"
    with pytest.raises(ArrangementError, match=message):
        arrangement._witnesses(arr, strata, np.random.default_rng(3), tol)
    assert rounds == [3] + [2] * 63  # (1,) and (2,) refuse each other's clearance
    with pytest.raises(ArrangementError, match=message):
        for S, x, z, null in strata:
            _reference_witness(arr, S, x, z, null, np.random.default_rng(3), tol)


def test_refused_witness_draws_are_redrawn_in_later_rounds(monkeypatch):
    # a patched rule refuses, besides, every draw whose first uniform is
    # positive, about half of them: each round draws the pending strata in
    # one rng call, the strata accepted in the first round keep their slice
    # of it, and the refused ones draw again until every stratum has a
    # witness that sits on exactly its active flats
    draws, tol = arrangement._witness_draws, DEFAULT.on_flat
    rounds, refused, redrawn = [], Counter(), 0

    def refusing(arr, strata, c, tol):
        cx, cz, ok = draws(arr, strata, c, tol)
        start = np.cumsum([0] + [3 * null.shape[1] for *_, null in strata])[:-1]
        rounds.append((strata, c, cx, cz, ok & (c[start] <= 0.0)))
        refused.update((c[start] > 0.0).tolist())
        return rounds[-1][2:]
    monkeypatch.setattr(arrangement, "_witness_draws", refusing)
    for arr in [entry("n2-unimodular").arrangement] + _family()[:4]:
        f = arr.frame
        strata = [(S, *_reference_point(arr, S)) for S, _, _ in _reference_strata(arr)[0]]
        rounds.clear()
        points = arrangement._witnesses(arr, strata, np.random.default_rng(5), tol)
        assert len(points) == len(strata)
        for p, (S, *_) in zip(points, strata):
            scale = max(1.0, float(f.sizes[list(S)].max()))
            dist = flat_distances(arr, p.x, p.z)
            assert tuple(np.flatnonzero(dist <= DEFAULT.on_flat * scale).tolist()) == S
            assert (np.delete(dist, S) > 1e3 * tol).all()
        assert len(rounds) <= 64 and rounds[-1][4].all()
        redrawn += len(rounds) > 1
        first, c, cx, cz, ok = rounds[0]
        assert np.array_equal(c, np.random.default_rng(5).uniform(-1.0, 1.0, c.size))
        by_active = {S: p for (S, *_), p in zip(strata, points)}
        for (S, *_), x, z in compress(zip(first, cx, cz), ok):
            assert np.array_equal(by_active[S].x, x) and np.array_equal(by_active[S].z, z)
    assert redrawn and refused[True] > 50 and refused[False] > 50


def test_strata_at_large_offsets_are_not_duplicated():
    # three flats through one point, far from the origin: the residuals of the
    # solve and the closure both scale with the offsets
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(-1e9, 1e9, (2, 3))
        arr = FlatArrangement(2, (_flat((1, 0), a), _flat((0, 1), b), _flat((1, 1), a + b)))
        assert [s.active for s in intersection_strata(arr)] == [(0,), (1,), (2,), (0, 1, 2)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        FAMILY_DIGESTS.write_text(json.dumps(_family_digests(workdir), sort_keys=True,
                                             indent=2) + "\n", encoding="utf-8")
    STRATA_DIGESTS.write_text(json.dumps(_strata_digests(), sort_keys=True,
                                         indent=2) + "\n", encoding="utf-8")
