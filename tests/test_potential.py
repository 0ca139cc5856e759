"""Potential, Hessian blocks, metric assembly, and the Legendre chart."""

import dataclasses
import math

import numpy as np
import pytest

from torichk import (DEFAULT, ArrangementError, BranchLocusError, DeformationMatrix,
                     DifferentiationError, DomainEscapeError, EvaluationError, Flat,
                     FlatArrangement, KahlerChartPoint, NoConvergenceError,
                     OnFlatError, Point3n, SamplingError, entry, eval_F, eval_F_z,
                     eval_Phi, eval_connection, eval_metric, legendre_solve,
                     phi_batch, potential, quotient_metric, reconstruct_F_from_K,
                     translate, verify)
from torichk.catalog import catalog

FLAT_H = entry("flat-H")
CYL = entry("flat-cylinder")
EH = entry("eguchi-hanson")
N2 = entry("n2-unimodular")

ALL = [FLAT_H, CYL, entry("taub-nut"), EH, entry("multi-EH-3"),
       N2, entry("n2-unimodular-tn1")]


def _pt(x, z):
    return Point3n(np.atleast_1d(np.asarray(x, dtype=float)),
                   np.atleast_1d(np.asarray(z, dtype=complex)))


def _sample(e, rng, count=20, clearance=0.5, box=3.0):
    """Points staying `clearance` away from every flat of e.arrangement."""
    arr = e.arrangement
    n = arr.dimension
    out = []
    while len(out) < count:
        x = rng.uniform(-box, box, n)
        z = rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n)
        p = _pt(x, z)
        if not len(arr.flats):
            out.append(p)
            continue
        U = arr.frame.U
        s = U @ p.x - np.array([f.offsets[0] for f in arr.flats])
        v = U @ p.z - np.array([complex(f.offsets[1], f.offsets[2])
                                for f in arr.flats])
        r = np.hypot(s, np.abs(v))
        norms = np.linalg.norm(U, axis=1)
        if (r / norms).min() >= clearance and (s + r).min() >= clearance:
            out.append(p)
    return out


# -- frozen anchors ----------------------------------------------------------

def test_value_anchor_single_flat():
    # s = 1, r = 1: a (s ln(s + r) - r) = ln 2 - 1
    got = eval_F(FLAT_H.arrangement, None, _pt(1.0, 0.0))
    assert got == pytest.approx(math.log(2.0) - 1.0, abs=1e-15)


def test_value_anchor_quadratic_part():
    # no flats: F = 2 x B x - Re(z B conj(z))
    got = eval_F(CYL.arrangement, CYL.deformation, _pt(2.0, 1.0 + 1.0j))
    assert got == pytest.approx(2.0 * 4.0 - 2.0, abs=1e-15)


def test_phi_anchors():
    phi = eval_Phi(FLAT_H.arrangement, None, _pt(1.0, 0.0))
    assert phi[0, 0] == pytest.approx(0.25, abs=1e-15)
    phi = eval_Phi(FLAT_H.arrangement, None, _pt(0.0, 2.0))
    assert phi[0, 0] == pytest.approx(0.125, abs=1e-15)
    phi = eval_Phi(CYL.arrangement, CYL.deformation, _pt(-1.7, 0.4j))
    assert phi[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_connection_anchors():
    # s = 0, v = 1: C = conj(v) / (2 r (s + r)) = 1/2
    Ca = eval_connection(FLAT_H.arrangement, None, _pt(0.0, 1.0))
    assert Ca[0, 0] == pytest.approx(0.5, abs=1e-15)
    Cb = eval_connection(FLAT_H.arrangement, None, _pt(0.0, 1.0j))
    assert Cb[0, 0] == pytest.approx(-0.5j, abs=1e-15)
    # B never enters the mixed block
    C2 = eval_connection(FLAT_H.arrangement, DeformationMatrix([[3.0]]),
                         _pt(0.0, 1.0))
    assert np.array_equal(Ca, C2)


def test_legendre_anchor_no_flats():
    # grad equation 4 B x = 2 (u + conj(u)) gives x = 1, K = -2 - |z|^2
    sol = legendre_solve(CYL.arrangement, CYL.deformation, [1.0], [1.5])
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.K == pytest.approx(-4.25, abs=1e-10)
    sol = legendre_solve(CYL.arrangement, CYL.deformation, [0.5 + 2.0j], [1.0j])
    assert sol.x[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.K == pytest.approx(2.0 * 0.25 - 1.0 - 2.0 * 0.5, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_flats_is_the_empty_sum(n):
    # every sum over flats is empty: F, Phi and C are the B terms alone
    rng = np.random.default_rng(40 + n)
    arr = FlatArrangement(n, ())
    A = rng.normal(size=(n, n))
    B = A @ A.T + np.eye(n)
    Bm = DeformationMatrix(B).entries
    x = rng.normal(size=(4, n))
    z = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    p = Point3n(x, z)
    assert np.array_equal(eval_Phi(arr, B, p), np.broadcast_to(Bm, (4, n, n)))
    assert np.array_equal(eval_connection(arr, B, p), np.zeros((4, n, n), dtype=complex))
    F = (2.0 * np.einsum("ki,ij,kj->k", x, Bm, x)
         - np.einsum("ki,ij,kj->k", z, Bm, z.conj()).real)
    assert np.allclose(eval_F(arr, B, p), F, rtol=1e-13, atol=1e-13)
    assert np.allclose(eval_F_z(arr, B, p), -(z.conj() @ Bm), rtol=1e-13, atol=1e-13)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    tau = 2.0 * (u + u.conj()).real
    sol = legendre_solve(arr, B, u, z[0])
    assert np.allclose(sol.x, np.linalg.solve(Bm, tau) / 4.0, rtol=1e-12, atol=1e-12)

    pts = verify.sample_points(arr, 5, np.random.default_rng(1))
    assert pts.x.shape == (5, n) and np.all(np.abs(pts.x) <= 2.0)
    charts = verify.sample_chart_points(arr, B, 5, np.random.default_rng(1))
    assert np.allclose(charts.x, np.linalg.solve(Bm, 4.0 * charts.u.real.T).T / 4.0,
                       rtol=1e-12, atol=1e-12)
    reports = verify.run_checks(arr, B, seed=3)
    assert reports and all(r.passed for r in reports), [r.as_dict() for r in reports]


def test_no_flats_with_a_singular_B_raises():
    # B = diag(1, 0): Phi = B is singular, so the metric and the chart fail
    arr, B = FlatArrangement(2, ()), np.diag([1.0, 0.0])
    p = _pt([0.3, -0.2], [0.1 + 0.2j, -0.4j])
    assert np.array_equal(eval_Phi(arr, B, p), B)
    with pytest.raises(ValueError, match="not positive definite"):
        eval_metric(arr, B, p)
    with pytest.raises(NoConvergenceError):
        legendre_solve(arr, B, [0.3, 0.1], [0.1, 0.2])
    with pytest.raises(SamplingError):
        verify.sample_chart_points(arr, B, 4, np.random.default_rng(1))
    with pytest.raises(SamplingError):
        verify.run_checks(arr, B, seed=3)


# -- derivative cross-checks -------------------------------------------------

def test_phi_matches_value_hessian():
    rng = np.random.default_rng(7)
    h = 1e-4
    for e in (FLAT_H, EH, N2):
        arr, B = e.arrangement, e.deformation
        n = arr.dimension
        for p in _sample(e, rng, count=6):
            phi = eval_Phi(arr, B, p)
            hess = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    ei = np.zeros(n)
                    ej = np.zeros(n)
                    ei[i] = h
                    ej[j] = h
                    hess[i, j] = (
                        eval_F(arr, B, _pt(p.x + ei + ej, p.z))
                        - eval_F(arr, B, _pt(p.x + ei - ej, p.z))
                        - eval_F(arr, B, _pt(p.x - ei + ej, p.z))
                        + eval_F(arr, B, _pt(p.x - ei - ej, p.z))) / (4.0 * h * h)
            assert np.abs(phi - 0.25 * hess).max() <= 1e-6 * max(
                1.0, np.abs(phi).max())


def test_eval_F_z_matches_wirtinger_differences():
    rng = np.random.default_rng(8)
    h = 1e-5
    for e in (FLAT_H, EH, N2, CYL):
        arr, B = e.arrangement, e.deformation
        n = arr.dimension
        for p in _sample(e, rng, count=5):
            g = eval_F_z(arr, B, p)
            for l in range(n):
                ee = np.zeros(n, dtype=complex)
                ee[l] = h
                da = (eval_F(arr, B, _pt(p.x, p.z + ee))
                      - eval_F(arr, B, _pt(p.x, p.z - ee))) / (2.0 * h)
                db = (eval_F(arr, B, _pt(p.x, p.z + 1j * ee))
                      - eval_F(arr, B, _pt(p.x, p.z - 1j * ee))) / (2.0 * h)
                # dF/dz = (d/dRe - i d/dIm)/2
                assert g[l] == pytest.approx(0.5 * (da - 1j * db), abs=2e-7)


def test_connection_matches_mixed_differences():
    rng = np.random.default_rng(9)
    h = 1e-4
    for e in (FLAT_H, N2):
        arr, B = e.arrangement, e.deformation
        n = arr.dimension
        for p in _sample(e, rng, count=4):
            C = eval_connection(arr, B, p)
            for j in range(n):
                for l in range(n):
                    ex = np.zeros(n)
                    ex[j] = h
                    ez = np.zeros(n, dtype=complex)
                    ez[l] = h

                    def dz(x):
                        da = (eval_F(arr, B, _pt(x, p.z + ez))
                              - eval_F(arr, B, _pt(x, p.z - ez))) / (2 * h)
                        db = (eval_F(arr, B, _pt(x, p.z + 1j * ez))
                              - eval_F(arr, B, _pt(x, p.z - 1j * ez))) / (2 * h)
                        return 0.5 * (da - 1j * db)

                    fd = (dz(p.x + ex) - dz(p.x - ex)) / (2.0 * h)
                    assert abs(C[j, l] - fd) <= 5e-6


# -- structural identities ---------------------------------------------------

def test_additivity_over_disjoint_union():
    rng = np.random.default_rng(10)
    a1 = FlatArrangement(1, (Flat((1,), (-1.0, 0.0, 0.0), 1.0),))
    a2 = FlatArrangement(1, (Flat((1,), (1.0, 0.0, 0.0), 1.0),))
    both = FlatArrangement(1, a1.flats + a2.flats)
    B1 = DeformationMatrix([[0.5]])
    B2 = DeformationMatrix([[0.25]])
    Bsum = DeformationMatrix([[0.75]])
    for _ in range(10):
        p = _pt(rng.uniform(2, 4), rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        total = eval_F(a1, B1, p) + eval_F(a2, B2, p)
        assert eval_F(both, Bsum, p) == pytest.approx(total, rel=1e-14)
        phi_total = eval_Phi(a1, B1, p) + eval_Phi(a2, B2, p) - eval_Phi(
            FlatArrangement(1, ()), None, p)
        assert np.allclose(eval_Phi(both, Bsum, p), phi_total, atol=1e-14)


def test_translation_equivariance():
    rng = np.random.default_rng(11)
    arr = EH.arrangement
    t = np.array([0.6])
    w = np.array([-0.3 + 0.8j])
    moved = translate(arr, t, w)
    for p in _sample(EH, rng, count=8):
        q = Point3n(p.x + t, p.z + w)
        assert eval_F(arr, None, p) == pytest.approx(
            eval_F(moved, None, q), rel=1e-13)
        assert np.allclose(eval_Phi(arr, None, p), eval_Phi(moved, None, q),
                           atol=1e-13)
        assert np.allclose(
            eval_connection(arr, None, p),
            eval_connection(moved, None, q), atol=1e-13)
        assert np.allclose(eval_metric(arr, None, p),
                           eval_metric(moved, None, q), atol=1e-12)


def test_metric_block_structure():
    rng = np.random.default_rng(12)
    for e in ALL:
        arr, B = e.arrangement, e.deformation
        n = arr.dimension
        for p in _sample(e, rng, count=4):
            g = eval_metric(arr, B, p)
            phi = eval_Phi(arr, B, p)
            assert np.allclose(g, g.T, atol=0)
            # x rows carry no fiber correction
            assert np.allclose(g[:n, :n], phi, atol=1e-14)
            assert np.allclose(g[:n, n:], 0.0, atol=1e-14)
            # fiber block is Phi^{-1}
            assert np.allclose(g[3 * n:, 3 * n:], np.linalg.inv(phi),
                               atol=1e-10)
            # volume density collapses to det(Phi)^2
            assert np.linalg.det(g) == pytest.approx(
                np.linalg.det(phi) ** 2, rel=1e-8)
            ev = np.linalg.eigvalsh(g)
            assert ev.min() > 0


def test_quotient_metric_is_three_phi_blocks():
    rng = np.random.default_rng(13)
    for e in (CYL, N2):
        arr, B = e.arrangement, e.deformation
        n = arr.dimension
        for p in _sample(e, rng, count=3):
            q = quotient_metric(arr, B, p)
            phi = eval_Phi(arr, B, p)
            want = np.zeros((3 * n, 3 * n))
            for b in range(3):
                want[b * n:(b + 1) * n, b * n:(b + 1) * n] = phi
            assert np.array_equal(q, want)
    # with no flats there is no connection, so the quotient blocks equal
    # the top-left of the full metric
    p = _pt(0.3, -1.2 + 0.1j)
    g = eval_metric(CYL.arrangement, CYL.deformation, p)
    q = quotient_metric(CYL.arrangement, CYL.deformation, p)
    assert np.allclose(g[:3, :3], q, atol=1e-15)


def test_phi_positive_definite_everywhere_sampled():
    rng = np.random.default_rng(14)
    for e in ALL:
        for p in _sample(e, rng, count=10, clearance=0.05):
            ev = np.linalg.eigvalsh(eval_Phi(e.arrangement, e.deformation, p))
            assert ev.min() > 0


def test_phi_batch_matches_pointwise():
    rng = np.random.default_rng(15)
    for e in (EH, N2):
        arr, B = e.arrangement, e.deformation
        pts = _sample(e, rng, count=6)
        X = np.stack([p.x for p in pts])
        Z = np.stack([p.z for p in pts])
        batch = phi_batch(arr, B, X, Z)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], eval_Phi(arr, B, p), atol=1e-14)


@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_phi_batch_rows_do_not_depend_on_the_batch(e):
    # the growth integrator screens T rounds with a one-ray batch and relies
    # on each row coming out exactly as it does in the full batch
    arr, B = e.arrangement, e.deformation
    n = arr.dimension
    rng = np.random.default_rng(16)
    X = rng.normal(scale=50.0, size=(300, n))
    Z = rng.normal(scale=50.0, size=(300, n)) + 1j * rng.normal(scale=50.0, size=(300, n))
    full = phi_batch(arr, B, X, Z)
    for rows in ([0], [299], [7, 3], list(range(0, 300, 7))):
        assert np.array_equal(phi_batch(arr, B, X[rows], Z[rows]), full[rows])


def _near_locus_batch(arr, rng, count=120):
    """Generic points plus points 1e-8..1e-2 from a flat or from the branch
    cut s_k + r_k = 0, all of them off every locus: x, z (N, n) and each
    point's least r_k or s_k + r_k."""
    n = arr.dimension
    X = rng.uniform(-3.0, 3.0, (count, n))
    Z = rng.uniform(-3.0, 3.0, (count, n)) + 1j * rng.uniform(-3.0, 3.0, (count, n))
    if len(arr.flats):
        U, l1, lc = arr.frame[:3]
        k = rng.integers(len(arr.flats), size=count)
        foot = U[k] / (U[k] ** 2).sum(axis=1)[:, None]
        eps = 10.0 ** rng.uniform(-8.0, -2.0, (count, 1))
        # on flat k plus a small step, or on its cut (s_k < 0, v_k = 0) plus one
        back = np.where(rng.random((count, 1)) < 0.5, 0.0, -rng.uniform(0.5, 2.0, (count, 1)))
        X[::2] = ((l1[k] + back[:, 0])[:, None] * foot + eps * rng.normal(size=(count, n)))[::2]
        Z[::2] = (lc[k][:, None] * foot + eps * (rng.normal(size=(count, n))
                                                 + 1j * rng.normal(size=(count, n))))[::2]
    _, _, r, t = arr.svr(X, Z)
    gap = np.minimum(r, t).min(axis=1, initial=np.inf)
    return X[gap > 1e-9], Z[gap > 1e-9], gap[gap > 1e-9]


@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_batched_evaluators_match_row_by_row(e):
    arr, B = e.arrangement, e.deformation
    n = arr.dimension
    X, Z, gap = _near_locus_batch(arr, np.random.default_rng(18))
    if len(arr.flats):
        assert (gap < 1e-4).sum() >= 10
    X, Z = X[:2 * (len(X) // 2)], Z[:2 * (len(X) // 2)]
    evaluators = {
        "phi": lambda p: eval_Phi(arr, B, p),
        "connection": lambda p: eval_connection(arr, B, p),
        "metric": lambda p: eval_metric(arr, B, p),
        "quotient": lambda p: quotient_metric(arr, B, p),
        "F_z": lambda p: eval_F_z(arr, B, p),
    }
    batch = Point3n(X, Z)
    # two leading axes take the same code as one
    grid = Point3n(X.reshape(2, -1, n), Z.reshape(2, -1, n))
    for name, fn in evaluators.items():
        rows = np.array([fn(Point3n(x, z)) for x, z in zip(X, Z)])
        assert np.array_equal(fn(batch), rows), name
        assert np.array_equal(fn(grid), rows.reshape((2, -1) + rows.shape[1:])), name
    assert np.array_equal(phi_batch(arr, B, X, Z), eval_Phi(arr, B, batch))


def test_batched_evaluators_raise_if_any_row_is_on_a_locus():
    arr = EH.arrangement
    X = np.array([[0.0], [3.0], [1.0], [0.5]])
    Z = np.array([[1.0], [0.5j], [0.0], [2.0]])
    # row 2 lies on flat 1 (x = 1, z = 0)
    with pytest.raises(OnFlatError) as exc:
        eval_Phi(arr, None, Point3n(X, Z))
    assert exc.value.index == 1 and exc.value.distance == 0.0
    with pytest.raises(OnFlatError):
        eval_metric(arr, None, Point3n(X, Z))
    with pytest.raises(OnFlatError) as exc:
        eval_F(arr, None, Point3n(X, Z))
    assert exc.value.index == 1
    with pytest.raises(OnFlatError) as exc:
        eval_F_z(arr, None, Point3n(X, Z))
    assert exc.value.index == 1
    # row 2 on the cut of flat 1 (s < 0, v = 0): Phi is defined, the connection is not
    X = X.copy()
    X[2, 0] = 0.0
    phi = eval_Phi(arr, None, Point3n(X, Z))
    assert phi.shape == (4, 1, 1)
    with pytest.raises(BranchLocusError) as exc:
        eval_connection(arr, None, Point3n(X, Z))
    assert exc.value.index == 1
    with pytest.raises(BranchLocusError):
        eval_metric(arr, None, Point3n(X, Z))
    with pytest.raises(BranchLocusError) as exc:
        eval_F(arr, None, Point3n(X, Z))
    assert exc.value.index == 1
    with pytest.raises(BranchLocusError) as exc:
        eval_F_z(arr, None, Point3n(X, Z))
    assert exc.value.index == 1


def test_eval_metric_shares_one_svr_and_keeps_the_error_order(monkeypatch):
    # Phi and the connection read one svr and one domain test: the on-flat
    # test first, then the branch test, each naming the flat and value that
    # eval_Phi and eval_connection name alone
    arr = EH.arrangement
    X = np.array([[0.0], [3.0], [1.0], [0.5]])
    Z = np.array([[1.0], [0.5j], [0.25], [2.0]])
    svr, calls = FlatArrangement.svr, []

    def counting(self, *args, **kwargs):
        calls.append(1)
        return svr(self, *args, **kwargs)

    monkeypatch.setattr(FlatArrangement, "svr", counting)
    g = eval_metric(arr, None, Point3n(X, Z))
    assert len(calls) == 1 and g.shape == (4, 4, 4)
    # row 2 on flat 1 (x = 1, z = 0), then on its cut (s < 0, v = 0)
    Z[2, 0] = 0.0
    on_flat = Point3n(X, Z)
    X[2, 0] = 0.0
    on_cut = Point3n(X, Z)
    for p, alone, error in ((on_flat, eval_Phi, OnFlatError),
                            (on_cut, eval_connection, BranchLocusError)):
        with pytest.raises(error) as want:
            alone(arr, None, p)
        with pytest.raises(error) as got:
            eval_metric(arr, None, p)
        assert vars(got.value) == vars(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_batched_eval_F_matches_row_by_row(e):
    arr, B = e.arrangement, e.deformation
    n = arr.dimension
    X, Z, _ = _near_locus_batch(arr, np.random.default_rng(19))
    X, Z = X[:2 * (len(X) // 2)], Z[:2 * (len(X) // 2)]
    rows = [eval_F(arr, B, Point3n(x, z)) for x, z in zip(X, Z)]
    assert all(type(v) is float for v in rows)
    assert np.array_equal(eval_F(arr, B, Point3n(X, Z)), rows)
    grid = eval_F(arr, B, Point3n(X.reshape(2, -1, n), Z.reshape(2, -1, n)))
    assert np.array_equal(grid, np.reshape(rows, (2, -1)))


def test_eval_F_refuses_finite_terms_whose_sum_overflows():
    # at B = 5e307, 2 x^T B x passes float64 at x = 3 (in einsum, which does
    # not warn, or in its doubling) but not at x = 0.5
    arr = FlatArrangement(1, (Flat((1,), (0.0, 0.0, 0.0), 1.0),))
    B = DeformationMatrix([[5e307]])
    assert math.isfinite(eval_F(arr, B, _pt(0.5, 0.1j)))
    for x in (1.5, 3.0):
        with pytest.raises(EvaluationError, match="^master potential F overflows at a "
                                                  "finite point: with B up to 5.000e[+]307"):
            eval_F(arr, B, Point3n(np.array([[0.5], [x]]), np.array([[0.1j], [0.1j]])))


# -- Legendre chart round trips ----------------------------------------------

def test_legendre_consistency_on_curved_entries():
    rng = np.random.default_rng(16)
    for e in (FLAT_H, EH, N2):
        arr, B = e.arrangement, e.deformation
        n = arr.dimension
        for _ in range(6):
            u = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-3, 3, n)
            z = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
            try:
                sol = legendre_solve(arr, B, u, z)
            except NoConvergenceError:
                pytest.fail("Newton failed on a generic chart point")
            # the defining equation holds at the solution
            tau = 2.0 * (u + u.conj()).real
            p = Point3n(sol.x, z)
            U = arr.frame.U
            s = U @ sol.x - np.array([f.offsets[0] for f in arr.flats])
            v = U @ p.z - np.array([complex(f.offsets[1], f.offsets[2])
                                    for f in arr.flats])
            r = np.hypot(s, np.abs(v))
            grad = (arr.frame.a * np.log(s + r)) @ U + 4.0 * (B.entries @ sol.x)
            assert np.abs(grad - tau).max() <= 1e-8
            assert sol.K == pytest.approx(
                eval_F(arr, B, p) - float(tau @ sol.x), rel=1e-12)


def test_reconstruct_inverts_the_chart():
    rng = np.random.default_rng(17)
    calls = []
    for e in (FLAT_H, EH):
        arr, B = e.arrangement, e.deformation

        def kahler(U, Z, _arr=arr, _B=B):
            calls.append(len(U))
            return np.array([legendre_solve(_arr, _B, u, z).K for u, z in zip(U, Z)])

        for _ in range(4):
            u = rng.uniform(-1, 1, 1) + 0j
            z = rng.uniform(-2, 2, 1) + 1j * rng.uniform(-2, 2, 1)
            calls.clear()
            rec = reconstruct_F_from_K(kahler, u, z)
            # one stacked call: the 6n distinct nodes of both five-point
            # stencils, then the chart point
            assert calls == [6 * arr.dimension + 1]
            sol = legendre_solve(arr, B, u, z)
            assert np.abs(rec.x - sol.x).max() <= 1e-8
            want = eval_F(arr, B, Point3n(sol.x, np.atleast_1d(z)))
            assert rec.value == pytest.approx(want, abs=1e-8)


# -- the stacked Newton kernel ------------------------------------------------
#
# potential._newton solves a stack of (u, z) rows as one Newton iteration with
# per-row masks.  The scalar loop below, one solve per call, is the Legendre
# solver it replaced; it is kept as the reference each row must reproduce bit
# for bit.

def _scalar_grad_x(arr, Bm, x, z):
    U, a = arr.frame.U, arr.frame.a
    s, _, r, t = arr.svr(x, z)
    if t.size and t.min() <= 0.0:
        return None, None
    g = 4.0 * (Bm @ x)
    if t.size:
        g = g + (a * np.log(t)) @ U
    val = float(np.sum(a * (s * np.log(t) - r))) if t.size else 0.0
    val += 2.0 * float(x @ Bm @ x) - float((z @ Bm @ z.conj()).real)
    return g, val


def _scalar_legendre_solve(arr, B, u, z, x0=None):
    cfg = potential.DEFAULT  # the table the stacked kernel reads, patched or not
    n = arr.dimension
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    Bm = DeformationMatrix.of(B, n).entries
    tau = 2.0 * (u + u.conj()).real
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    grad, fval = _scalar_grad_x(arr, Bm, x, z)
    if grad is None:
        raise DomainEscapeError("initial point lies outside the potential's domain")
    grad = grad - tau
    fval = fval - float(tau @ x)
    for it in range(1, cfg.newton_max_iter + 1):
        res = float(np.abs(grad).max()) if n else 0.0
        if res <= cfg.newton_residual:
            _, _, r, t = arr.svr(x, z)
            potential._check_domain(r, t)
            return KahlerChartPoint(u=u, z=z, x=x, K=fval, residual=res, iterations=it - 1)
        hess = 4.0 * eval_Phi(arr, B, Point3n(x, z))
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise NoConvergenceError(res, it - 1) from None
        slope = float(grad @ step)
        noise = 4e-12 * max(1.0, abs(fval))
        alpha = 1.0
        accepted = False
        for _ in range(60):
            trial = x + alpha * step
            g_new, f_new = _scalar_grad_x(arr, Bm, trial, z)
            if g_new is not None and (f_new - float(tau @ trial)
                                      <= fval + cfg.armijo * alpha * slope + noise):
                x = trial
                grad = g_new - tau
                fval = f_new - float(tau @ trial)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if g_new is None:
                raise DomainEscapeError(
                    "line search blocked by the domain boundary; "
                    "the requested fiber point is outside the chart")
            raise NoConvergenceError(float(np.abs(grad).max()), it)
    raise NoConvergenceError(float(np.abs(grad).max()), cfg.newton_max_iter)


def _assert_rows_match(arr, B, u, z, x0, solve):
    """The stacked kernel on (u, z, x0) against solve(u_k, z_k, x0_k) row by row."""
    x, K, res, its = potential._newton(arr, B, u, z, x0)
    rows = [solve(arr, B, uk, zk, x0=xk) for uk, zk, xk in zip(u, z, x0)]
    assert np.array_equal(x, [sol.x for sol in rows])
    assert np.array_equal(K, [sol.K for sol in rows])
    assert np.array_equal(its, [sol.iterations for sol in rows])
    assert np.array_equal(res, [sol.residual for sol in rows])


def _random_arrangement(rng, n, d):
    """d flats with small integer normals in R^n and a general PSD B."""
    flats = []
    while len(flats) < d:
        normal = tuple(int(c) for c in rng.integers(-2, 3, n))
        if not any(normal):
            continue
        try:
            flat = Flat(normal, tuple(rng.uniform(-1.0, 1.0, 3)), float(rng.uniform(0.5, 2.0)))
            FlatArrangement(n, tuple(flats) + (flat,))
        except ArrangementError:  # not primitive, or a duplicate
            continue
        flats.append(flat)
    A = rng.normal(size=(n, n))
    return FlatArrangement(n, tuple(flats)), DeformationMatrix(0.2 * A @ A.T)


@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_stencil_solves_equal_the_scalar_loop(e, monkeypatch):
    # every stack that the roundtrip and chart-Hessian stencils solve
    arr, B = e.arrangement, e.deformation
    stacks = []

    def recording(arr, B, u, z, x):
        stacks.append((u, z, np.broadcast_to(x, u.shape)))
        return potential._newton(arr, B, u, z, x)

    monkeypatch.setattr(verify, "_newton", recording)
    for chart in verify.sample_chart_points(arr, B, 4, np.random.default_rng(31)):
        verify._roundtrip_residual(arr, B, chart)
        verify._k_blocks(arr, B, chart)
    n = arr.dimension
    assert [len(u) for u, _, _ in stacks] == [6 * n + 1, 6 * n] * 4
    for u, z, x0 in stacks:
        _assert_rows_match(arr, B, u, z, x0, _scalar_legendre_solve)


@pytest.mark.parametrize("solve", [legendre_solve, _scalar_legendre_solve],
                         ids=["single-row", "scalar-loop"])
def test_stack_rows_equal_their_single_row_solves(solve):
    rng = np.random.default_rng(32)
    cases = [(e.arrangement, e.deformation) for e in (EH, N2)]
    cases += [_random_arrangement(rng, 3, 5) for _ in range(3)]
    for arr, B in cases:
        n = arr.dimension
        # cold starts from spread-out points: rows stop at different iterations
        u = rng.uniform(-1.0, 1.0, (24, n)) + 0j
        z = rng.uniform(-2.0, 2.0, (24, n)) + 1j * rng.uniform(-2.0, 2.0, (24, n))
        _assert_rows_match(arr, B, u, z, np.zeros((24, n)), solve)
        # a warm-started stencil around one chart point
        chart = legendre_solve(arr, B, u[0], z[0])
        E = 1e-3 * np.eye(n)
        U = np.concatenate([chart.u + E, chart.u - E, np.broadcast_to(chart.u, (n, n))])
        Z = np.concatenate([np.broadcast_to(chart.z, (2 * n, n)), chart.z + 1j * E])
        _assert_rows_match(arr, B, U, Z, np.broadcast_to(chart.x, U.shape), solve)


def _row_errors(arr, B, u, z, x0):
    """The error each row raises when the scalar reference solves it alone, or None."""
    errors = []
    for uk, zk, xk in zip(u, z, x0):
        try:
            _scalar_legendre_solve(arr, B, uk, zk, x0=xk)
        except (EvaluationError, NoConvergenceError, DomainEscapeError) as exc:
            errors.append(exc)
        else:
            errors.append(None)
    return errors


def _same_error(a, b):
    return type(a) is type(b) and a.args == b.args and vars(a) == vars(b)


def test_a_failing_stack_raises_the_error_of_a_failing_row(monkeypatch):
    # the stack stops at the first row to fail, which need not be its first
    # failing row in order (verify._stacked picks the error a check raises);
    # a one-row stack raises exactly the scalar reference's error
    arr = FLAT_H.arrangement
    # on the cut z = 0 the solution is x = exp(4 u) / 2; among these rows two
    # converge, and the others start outside the domain, end on the flat or
    # need more than ten iterations
    u = np.array([[0.2], [-5.5], [0.1], [-6.5], [0.3], [2.5], [-6.0]]) + 0j
    z = np.array([[0.0], [0.0], [0.0], [0.0], [0.2], [0.0], [0.0]]) + 0j
    x0 = np.array([[0.5], [1e-3], [-5.0], [1e-2], [2.0], [1e-2], [1e-9]])
    kinds = set()
    rng = np.random.default_rng(33)
    orders = [[k] for k in range(7)] + [rng.permutation(7)[:rng.integers(2, 8)]
                                        for _ in range(12)]
    with monkeypatch.context() as m:
        m.setattr(potential, "DEFAULT", dataclasses.replace(DEFAULT, newton_max_iter=10))
        for order in orders:
            errors = _row_errors(arr, None, u[order], z[order], x0[order])
            failing = [e for e in errors if e is not None]
            if not failing:
                _assert_rows_match(arr, None, u[order], z[order], x0[order],
                                   _scalar_legendre_solve)
                continue
            with pytest.raises((EvaluationError, NoConvergenceError, DomainEscapeError)) as exc:
                potential._newton(arr, None, u[order], z[order], x0[order])
            kinds.add(type(exc.value))
            assert any(_same_error(exc.value, want) for want in failing), order
    assert kinds == {DomainEscapeError, OnFlatError, NoConvergenceError}
    # a singular Hessian: one flat in R^2 and B = 0 leave Phi rank one, and
    # the row-by-row fallback stops at the first row
    arr = FlatArrangement(2, (Flat((1, 0), (0.0, 0.0, 0.0), 1.0),))
    u = np.array([[0.2, 0.1], [0.4, -0.3], [-0.1, 0.2]]) + 0j
    z = np.array([[1.0, 0.5j], [0.5, 1.0], [2.0j, -1.0]])
    want = _row_errors(arr, None, u, z, np.zeros((3, 2)))
    assert all(isinstance(e, NoConvergenceError) and e.iterations == 0 for e in want)
    assert want[0].residual != want[1].residual
    with pytest.raises(NoConvergenceError) as exc:
        potential._newton(arr, None, u, z, np.zeros((3, 2)))
    assert _same_error(exc.value, want[0])


# -- failure modes -----------------------------------------------------------

def test_on_flat_raises():
    with pytest.raises(OnFlatError):
        eval_F(FLAT_H.arrangement, None, _pt(0.0, 0.0))
    with pytest.raises(OnFlatError):
        eval_Phi(FLAT_H.arrangement, None, _pt(0.0, 0.0))


def test_branch_locus_raises():
    # s < 0, v = 0: log branch cut
    with pytest.raises(BranchLocusError):
        eval_F(FLAT_H.arrangement, None, _pt(-1.0, 0.0))
    with pytest.raises(BranchLocusError):
        eval_metric(FLAT_H.arrangement, None, _pt(-1.0, 0.0))
    # same x is fine once z moves off the cut
    eval_F(FLAT_H.arrangement, None, _pt(-1.0, 1.0))


def test_domain_escape_raises():
    with pytest.raises(DomainEscapeError):
        legendre_solve(FLAT_H.arrangement, None, [0.1], [0.0],
                       x0=np.array([-5.0]))


def test_no_convergence_raises(monkeypatch):
    monkeypatch.setattr(potential, "DEFAULT", dataclasses.replace(DEFAULT, newton_max_iter=1))
    with pytest.raises(NoConvergenceError) as exc:
        legendre_solve(EH.arrangement, None, [2.0], [0.5 + 0.5j])
    assert exc.value.iterations == 1
    assert exc.value.residual > 0


def test_reconstruct_takes_a_stack_of_chart_points():
    # one kahler call with the stencils of every point; each result equals
    # that point's own, and one unstable point fails the stack
    shapes = []

    def kahler(u, z):
        shapes.append(u.shape)
        a = (u + np.conj(u)).real
        return (a ** 3).sum(axis=-1) + (z * z.conj()).real.sum(axis=-1) * a[..., 0]

    rng = np.random.default_rng(33)
    u = rng.uniform(-1, 1, (2, 3, 2)) + 0j
    z = rng.uniform(-1, 1, (2, 3, 2)) + 1j * rng.uniform(-1, 1, (2, 3, 2))
    rec = reconstruct_F_from_K(kahler, u, z)
    assert shapes[0] == (2, 3, 13, 2)
    assert rec.value.shape == (2, 3) and rec.x.shape == (2, 3, 2)
    for idx in np.ndindex(2, 3):
        one = reconstruct_F_from_K(kahler, u[idx], z[idx])
        assert rec.value[idx] == one.value and np.array_equal(rec.x[idx], one.x)

    def wiggly_at_0_7(u, z):
        a = (u + np.conj(u)).real.sum(axis=-1)
        return a + 1e-3 * np.sin(1e6 * a) * (np.abs(a - 1.4) < 0.1)

    with pytest.raises(DifferentiationError, match="did not stabilize"):
        reconstruct_F_from_K(wiggly_at_0_7, [[0.3 + 0j], [0.7 + 0j]], [[0j], [0j]])
    assert reconstruct_F_from_K(wiggly_at_0_7, [[0.3 + 0j]], [[0j]]).value.shape == (1,)


def test_reconstruct_rejects_unstable_samples():
    # high-frequency ripple: the two stencil spacings cannot agree
    def wiggly(u, z):
        a = (u + np.conj(u)).real.sum(axis=-1)
        return a + 1e-3 * np.sin(1e6 * a)

    with pytest.raises(DifferentiationError, match="did not stabilize"):
        reconstruct_F_from_K(wiggly, [0.3 + 0.0j], [0.0 + 0.0j])


def test_reconstruct_refuses_a_nan_sample():
    # a NaN K at one spacing-h node makes the gap between the two spacings
    # NaN, which fails the stability test rather than passing it
    def nan_at_u_plus_h(u, z):
        k = ((u + np.conj(u)).real ** 3).sum(axis=-1)
        k[..., 1] = np.nan
        return k

    with pytest.raises(DifferentiationError, match="did not stabilize"):
        reconstruct_F_from_K(nan_at_u_plus_h, [0.3 + 0j], [0j])
