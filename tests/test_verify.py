"""Residual estimators and the check harness."""

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

from torichk import (DEFAULT, ArrangementError, DeformationMatrix, Flat, FlatArrangement,
                     KahlerChartPoint, Point3n,
                     SamplingError, StencilClippedError, catalog, entry, eval_F,
                     eval_metric, eval_Phi, legendre_solve)
from torichk import (arrangement, classification_report, intersection_strata, potential,
                     verify)
from torichk.verify import (ResidualReport, growth_fit, hessian_identity_residual,
                            phi_harmonic_residual, polyharmonic_residual,
                            ricci_residual, run_checks, sample_points,
                            sp_condition_residual)

EH = entry("eguchi-hanson")
FLAT_H = entry("flat-H")
CYL = entry("flat-cylinder")
TN = entry("taub-nut")


def _pt(x, z):
    return Point3n(np.atleast_1d(np.asarray(x, dtype=float)),
                   np.atleast_1d(np.asarray(z, dtype=complex)))


# -- samplers -----------------------------------------------------------------
#
# sample_points draws its candidates in blocks.  The one-at-a-time loop below
# is the reference: the same points, the same rng state afterwards (which
# polyharmonic's directions and the classification check go on to use) and
# the same SamplingError at the same budget.

def _sample_points_one_at_a_time(arr, count, rng, clearance=0.25):
    n = arr.dimension
    scale = verify._box_scale(arr)
    out = []
    for _ in range(200 * count):
        if len(out) == count:
            break
        x = rng.uniform(-scale, scale, n)
        z = rng.uniform(-scale, scale, n) + 1j * rng.uniform(-scale, scale, n)
        if arr.flats:
            _, _, r, t = arr.svr(x, z)
            if min(float((r / arr.frame.norms).min()), float(t.min())) < clearance:
                continue
        out.append(Point3n(x, z))
    if len(out) < count:
        raise SamplingError("rejection sampling failed to reach the requested count")
    return out


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_block_sampler_draws_what_the_one_at_a_time_loop_draws(name):
    arr = entry(name).arrangement
    for count in (1, 5, 50, 100):
        for clearance in (0.25, 0.35):
            seed = [count, int(100 * clearance)]
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_points(arr, count, got_rng, clearance=clearance)
            want = _sample_points_one_at_a_time(arr, count, want_rng, clearance=clearance)
            assert len(got) == len(want) == count
            for p, q in zip(got, want):
                assert np.array_equal(p.x, q.x) and np.array_equal(p.z, q.z)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_samplers_return_one_stack_whose_slices_measure_as_their_samples():
    arr, B = EH.arrangement, EH.deformation
    pts = sample_points(arr, 4, np.random.default_rng(218), clearance=0.35)
    assert isinstance(pts, Point3n) and pts.x.shape == (4, 1) and len(pts) == 4
    charts = verify.sample_chart_points(arr, B, 3, np.random.default_rng(219))
    assert isinstance(charts, KahlerChartPoint) and len(charts) == 3
    assert charts.u.shape == charts.z.shape == charts.x.shape == (3, 1)
    assert charts.K.shape == charts.residual.shape == charts.iterations.shape == (3,)
    v = np.ones(1)
    for i in range(len(pts)):
        one = pts[i:i + 1]
        assert len(one) == 1 and np.array_equal(one.x, pts.x[i:i + 1])
        assert np.array_equal(ricci_residual(arr, B, one), [ricci_residual(arr, B, pts[i])])
        assert np.array_equal(polyharmonic_residual(arr, B, one, v),
                              [polyharmonic_residual(arr, B, pts[i], v)])
        assert np.array_equal(phi_harmonic_residual(arr, B, one, v),
                              [phi_harmonic_residual(arr, B, pts[i], v)])
    for i in range(len(charts)):
        # each row is the sampler's own cold solve of that candidate
        alone = legendre_solve(arr, B, charts.u[i], charts.z[i])
        assert np.array_equal(charts.x[i], alone.x) and charts.K[i] == alone.K
        assert charts.residual[i] == alone.residual
        assert charts.iterations[i] == alone.iterations
        one = charts[i:i + 1]
        assert len(one) == 1
        assert np.array_equal(sp_condition_residual(arr, B, one),
                              [sp_condition_residual(arr, B, charts[i])])


def test_a_single_point_or_chart_is_not_a_stack():
    point = _pt(0.3, 0.2j)
    chart = legendre_solve(EH.arrangement, None, [0.3 + 0j], [0.5 - 0.2j])
    for single in (point, chart):
        with pytest.raises(TypeError, match="single"):
            len(single)
        for index in (0, slice(0, 1)):
            with pytest.raises(TypeError, match="single"):
                single[index]


@pytest.mark.parametrize("count, clearance", [(3, 1e6), (20, 3.2)])
def test_block_sampler_fails_at_the_same_budget(count, clearance):
    # nothing is clear enough, or too little is: both exhaust 200 * count draws
    arr = FLAT_H.arrangement
    got_rng, want_rng = np.random.default_rng(217), np.random.default_rng(217)
    with pytest.raises(SamplingError):
        sample_points(arr, count, got_rng, clearance=clearance)
    with pytest.raises(SamplingError):
        _sample_points_one_at_a_time(arr, count, want_rng, clearance=clearance)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    draws = np.random.default_rng(217)
    draws.uniform(size=200 * count * 3 * arr.dimension)
    assert got_rng.bit_generator.state == draws.bit_generator.state


# -- triharmonicity -----------------------------------------------------------

def test_polyharmonic_small_on_catalog_entries():
    rng = np.random.default_rng(200)
    for e in (FLAT_H, EH, entry("n2-unimodular")):
        arr, B = e.arrangement, e.deformation
        for p in sample_points(arr, 10, rng, clearance=0.4):
            v = verify.rational_direction(arr.dimension, rng)
            assert polyharmonic_residual(arr, B, p, v) < 1e-5


def test_polyharmonic_direction_scaling_invariance():
    # the plane and its arc-length parametrization depend only on v / |v|
    rng = np.random.default_rng(201)
    p = sample_points(EH.arrangement, 1, rng, clearance=0.5)[0]
    v = np.array([1.0])
    r0 = polyharmonic_residual(EH.arrangement, EH.deformation, p, v)
    assert polyharmonic_residual(EH.arrangement, EH.deformation, p, -v) == r0
    assert polyharmonic_residual(EH.arrangement, EH.deformation, p, 2 * v) == r0
    n2 = entry("n2-unimodular")
    p2 = sample_points(n2.arrangement, 1, rng, clearance=0.5)[0]
    w = np.array([2.0, -1.0])
    r1 = polyharmonic_residual(n2.arrangement, n2.deformation, p2, w)
    assert polyharmonic_residual(n2.arrangement, n2.deformation, p2, -w) == r1
    assert polyharmonic_residual(n2.arrangement, n2.deformation, p2, 2 * w) == r1


def test_polyharmonic_truncation_halves_with_step():
    rng = np.random.default_rng(202)
    p = sample_points(EH.arrangement, 1, rng, clearance=0.6)[0]
    v = np.array([1.0])
    coarse = polyharmonic_residual(EH.arrangement, None, p, v, step=2e-2)
    fine = polyharmonic_residual(EH.arrangement, None, p, v, step=1e-2)
    # second-order stencil: halving the step cuts the residual by about 4
    assert coarse > 1e-8
    assert coarse / fine >= 3.0


# -- chart (Legendre) residuals ------------------------------------------------

def test_chart_residuals_vanish_without_flats():
    # no flats, B = 1: K is exactly quadratic, so every identity is sharp
    sol = legendre_solve(CYL.arrangement, CYL.deformation, [0.7 + 0.2j], [1.1 - 0.4j])
    assert hessian_identity_residual(CYL.arrangement, CYL.deformation, sol) < 1e-7
    assert sp_condition_residual(CYL.arrangement, CYL.deformation, sol) < 1e-7


def test_chart_residuals_small_on_curved_entries():
    rng = np.random.default_rng(203)
    for e in (FLAT_H, TN, EH):
        arr, B = e.arrangement, e.deformation
        charts = verify.sample_chart_points(arr, B, 5, rng)
        for sol in charts:
            assert hessian_identity_residual(arr, B, sol) < 1e-4
            assert sp_condition_residual(arr, B, sol) < 1e-4


def test_sp_condition_n2():
    rng = np.random.default_rng(204)
    e = entry("n2-unimodular")
    charts = verify.sample_chart_points(e.arrangement, e.deformation, 4, rng)
    for sol in charts:
        assert sp_condition_residual(e.arrangement, e.deformation, sol) < 1e-4


def test_sp_condition_truncation_halves_with_step(monkeypatch):
    # at n = 1 sp_condition_residual is |K_uu-bar K_zz-bar - K_uz-bar K_zu-bar - 1|;
    # the first chart with min(r, s + r) >= 0.5: the sampler's candidates
    # draw the same numbers whether or not they are accepted
    charts = verify.sample_chart_points(EH.arrangement, None, 10, np.random.default_rng(205))
    _, _, r, t = EH.arrangement.svr(charts.x, charts.z)
    sol = charts[int(np.flatnonzero(np.minimum(r, t).min(axis=1) >= 0.5)[0])]
    residuals = []
    for step in (2e-2, 1e-2):
        monkeypatch.setattr(verify, "DEFAULT", dataclasses.replace(DEFAULT, fd_step=step))
        residuals.append(sp_condition_residual(EH.arrangement, None, sol))
    coarse, fine = residuals
    assert coarse > 1e-7
    assert coarse / fine >= 3.0


# -- curvature ----------------------------------------------------------------

def test_ricci_flat_metric_without_flats():
    # constant metric: every Christoffel symbol is zero up to roundoff
    assert ricci_residual(CYL.arrangement, CYL.deformation,
                          _pt(0.4, -0.3 + 0.8j)) < 1e-8


def test_ricci_small_on_gravitational_instantons():
    rng = np.random.default_rng(206)
    for e in (FLAT_H, TN, EH):
        pts = sample_points(e.arrangement, 3, rng, clearance=0.5)
        for p in pts:
            assert ricci_residual(e.arrangement, e.deformation, p) < 1e-3


def test_ricci_requires_stencil_clearance():
    with pytest.raises(StencilClippedError, match="clearance"):
        ricci_residual(FLAT_H.arrangement, None, _pt(1e-3, 5e-4j))


def test_ricci_truncation_ratio():
    rng = np.random.default_rng(207)
    p = sample_points(EH.arrangement, 1, rng, clearance=0.8)[0]
    coarse = ricci_residual(EH.arrangement, None, p, step=4e-3)
    fine = ricci_residual(EH.arrangement, None, p, step=2e-3)
    assert coarse > 1e-8
    assert coarse / fine >= 3.0


# -- harmonicity of Phi -------------------------------------------------------

def test_phi_anchor_values():
    # single unit-mass center: Phi = 1/(4 r)
    assert eval_Phi(FLAT_H.arrangement, None, _pt(2.0, 0.0))[0, 0] == \
        pytest.approx(0.125, abs=1e-15)
    # two centers at distance 2, midpoint: 1/4 + 1/4, plus the constant b
    got = eval_Phi(EH.arrangement, DeformationMatrix([[0.25]]), _pt(0.0, 1e-30))
    # the midpoint of the segment lies on neither flat but r_k = 1 for both
    assert got[0, 0] == pytest.approx(0.75, rel=1e-12)


def test_phi_harmonic_residuals():
    # Phi is constant without flats, so its Laplacian vanishes exactly
    assert phi_harmonic_residual(CYL.arrangement, CYL.deformation,
                                 _pt(1.0, 2.0 + 3.0j), [1.0]) == 0.0
    assert phi_harmonic_residual(FLAT_H.arrangement, None, _pt(0.7, 0.3 - 0.4j), [1.0]) < 1e-6
    assert phi_harmonic_residual(EH.arrangement, None, _pt(0.2, 0.5 + 0.1j), [-2.0]) < 1e-6
    n2 = entry("n2-unimodular")
    p = Point3n(np.array([0.37, -0.58]), np.array([-0.21 + 0.13j, 0.44 - 0.09j]))
    for v in ([1.0, 0.0], [2.0, -1.0]):
        assert phi_harmonic_residual(n2.arrangement, n2.deformation, p, v) < 1e-6


# -- one evaluator call per stencil ------------------------------------------
#
# The residuals evaluate each finite-difference stencil in one batched call.
# The pointwise loops below, which evaluate one node per call, are kept as
# the reference those residuals must reproduce bit for bit.

def _pointwise_hessian(f, w, h):
    w = np.asarray(w, dtype=float)
    m = w.size
    f0 = f(w)
    H = np.empty((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (f(w + ei) - 2.0 * f0 + f(w - ei)) / (h * h)
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(w + ei + ej) - f(w + ei - ej) - f(w - ei + ej) + f(w - ei - ej)
            ) / (4.0 * h * h)
    return H


def _pointwise_laplacian3(f, c, h):
    c = np.asarray(c, dtype=float)
    total = -6.0 * f(c)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        total += f(c + e) + f(c - e)
    return total / (h * h)


def _pointwise_phi_fd(arr, B, p):
    phi = eval_Phi(arr, B, p)

    def f(w):
        return eval_F(arr, B, Point3n(w, p.z))

    h = DEFAULT.phi_fd_step
    Hx = (4.0 * _pointwise_hessian(f, p.x, h) - _pointwise_hessian(f, p.x, 2.0 * h)) / 3.0
    return np.abs(phi - 0.25 * Hx).max() / max(np.abs(phi).max(), 1e-12)


def _pointwise_polyharmonic(arr, B, p, v, step):
    vhat = v / np.linalg.norm(v)

    def f(c):
        return eval_F(arr, B, Point3n(p.x + c[0] * vhat,
                                      p.z + (c[1] + 1j * c[2]) * vhat))

    return abs(_pointwise_laplacian3(f, np.zeros(3), step))


def _pointwise_christoffel(gfun, w, h, base, total):
    g0 = gfun(w)
    ginv = np.linalg.inv(g0)
    dg = np.zeros((total, total, total))
    for c in range(base):
        e = np.zeros(base)
        e[c] = h
        dg[c] = (gfun(w + e) - gfun(w - e)) / (2.0 * h)
    T = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.einsum("ad,dbc->abc", ginv, T)


def _pointwise_ricci(arr, B, p, step):
    n = arr.dimension
    base, total = 3 * n, 4 * n

    def gfun(w):
        return eval_metric(arr, B, Point3n.from_coords(w))

    def gamma_at(w):
        return _pointwise_christoffel(gfun, w, step, base, total)

    w0 = p.coords()
    G0 = gamma_at(w0)
    dG = np.zeros((base, total, total, total))
    for c in range(base):
        e = np.zeros(base)
        e[c] = step
        dG[c] = (gamma_at(w0 + e) - gamma_at(w0 - e)) / (2.0 * step)
    trace = np.einsum("mml->l", G0)
    ric = np.zeros((total, total))
    for nu in range(total):
        for sig in range(total):
            val = sum(dG[mu][mu, nu, sig] for mu in range(base))
            if nu < base:
                val -= sum(dG[nu][mu, mu, sig] for mu in range(total))
            val += float(trace @ G0[:, nu, sig])
            val -= float(np.einsum("ml,lm->", G0[:, nu, :], G0[:, :, sig]))
            ric[nu, sig] = val
    return float(np.abs(ric).max())


def _centers(arr):
    """The flats' offsets (l1, l2, l3), one row per flat, (d, 3)."""
    return np.array([f.offsets for f in arr.flats], dtype=float).reshape(-1, 3)


def _pointwise_phi_harmonic(arr, B, p, v, step):
    vhat = v / np.linalg.norm(v)

    def f(c):
        return eval_Phi(arr, B, Point3n(p.x + c[0] * vhat,
                                        p.z + (c[1] + 1j * c[2]) * vhat))

    c = np.zeros(3)
    lap = (4.0 * _pointwise_laplacian3(f, c, step)
           - _pointwise_laplacian3(f, c, 2.0 * step)) / 3.0
    return np.abs(lap).max()


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_stencil_residuals_equal_the_pointwise_loops(name):
    # each point alone, then all of them as one stack, which must give every
    # point's residual bit for bit
    e = entry(name)
    arr, B = e.arrangement, e.deformation
    rng = np.random.default_rng(214)
    stack = sample_points(arr, 3, rng, clearance=0.35)
    pts = [stack[i] for i in range(len(stack))]
    dirs = [verify.rational_direction(arr.dimension, rng) for _ in pts]
    want = [_pointwise_phi_fd(arr, B, p) for p in pts]
    assert [verify._phi_fd_residual(arr, B, p) for p in pts] == want
    assert np.array_equal(verify._phi_fd_residual(arr, B, stack), want)
    for h in (DEFAULT.poly_step, 2 * DEFAULT.poly_step):
        want = [_pointwise_polyharmonic(arr, B, p, v, h) for p, v in zip(pts, dirs)]
        assert [polyharmonic_residual(arr, B, p, v, h) for p, v in zip(pts, dirs)] == want
        assert np.array_equal(polyharmonic_residual(arr, B, stack, np.stack(dirs), h), want)
    for h in (DEFAULT.curvature_step, 2 * DEFAULT.curvature_step):
        want = [_pointwise_ricci(arr, B, p, h) for p in pts]
        assert [ricci_residual(arr, B, p, h) for p in pts] == want
        assert np.array_equal(ricci_residual(arr, B, stack, h), want)
    for h in (DEFAULT.harmonic_step, 2 * DEFAULT.harmonic_step):
        want = [_pointwise_phi_harmonic(arr, B, p, v, h) for p, v in zip(pts, dirs)]
        assert [phi_harmonic_residual(arr, B, p, v, h) for p, v in zip(pts, dirs)] == want
        assert np.array_equal(phi_harmonic_residual(arr, B, stack, np.stack(dirs), h), want)


def _pointwise_monge_ampere(arr, B, chart):
    # numpy's scalar complex arithmetic, one chart at a time
    kuu, kuz, kzu, kzz = verify._k_blocks(arr, B, chart)
    det = kuu[0, 0] * kzz[0, 0] - kuz[0, 0] * kzu[0, 0]
    return abs(det - 1.0)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_chart_residuals_of_a_stack_equal_each_chart_alone(name):
    e = entry(name)
    arr, B = e.arrangement, e.deformation
    stack = verify.sample_chart_points(arr, B, 4, np.random.default_rng(216))
    charts = [stack[i] for i in range(len(stack))]
    residuals = [sp_condition_residual, hessian_identity_residual,
                 verify._roundtrip_residual]
    for residual in residuals:
        assert np.array_equal(residual(arr, B, stack), [residual(arr, B, c) for c in charts])


@pytest.mark.parametrize("name", [e.name for e in catalog() if e.arrangement.dimension == 1])
def test_monge_ampere_is_the_sp_condition_at_n_1(name):
    # Sp(1, C) = SL(2, C): M^T J M = det(M) J for every 2 x 2 matrix M, so
    # sp_condition_residual measures the Monge-Ampere equation det M = 1
    e = entry(name)
    arr, B = e.arrangement, e.deformation
    for seed in (1, 2, 3):
        stack = verify.sample_chart_points(arr, B, 20, np.random.default_rng(seed))
        det = np.array([_pointwise_monge_ampere(arr, B, stack[i]) for i in range(len(stack))])
        assert np.abs(det - sp_condition_residual(arr, B, stack)).max() <= 1e-12


def test_one_evaluator_call_per_stencil(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eval_F", "eval_Phi", "eval_metric"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    for e in (EH, entry("n2-unimodular")):
        arr, B = e.arrangement, e.deformation
        p = sample_points(arr, 1, np.random.default_rng(215), clearance=0.5)[0]
        calls.clear()
        polyharmonic_residual(arr, B, p, np.ones(arr.dimension))
        assert calls == ["eval_F"]
        calls.clear()
        ricci_residual(arr, B, p)
        assert calls == ["eval_metric"]
        calls.clear()
        verify._phi_fd_residual(arr, B, p)
        # Phi itself, then one call per Hessian of the Richardson pair
        assert calls == ["eval_Phi", "eval_F", "eval_F"]
        calls.clear()
        phi_harmonic_residual(arr, B, p, np.ones(arr.dimension))
        # both Laplacian stencils of the Richardson pair
        assert calls == ["eval_Phi"]


def test_chart_stencils_make_one_stacked_solve(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(arr, B, p, *args, **kwargs):
            # the shape of the u stack, or of the points
            calls.append((name, np.shape(getattr(p, "x", p))))
            return fn(arr, B, p, *args, **kwargs)
        return wrapper

    for name in ("_newton", "eval_F_z", "legendre_solve"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    for e in (EH, entry("n2-unimodular")):
        arr, B = e.arrangement, e.deformation
        n = arr.dimension
        chart = legendre_solve(arr, B, [0.3 + 0j] * n, [0.5 - 0.2j] * n)
        calls.clear()
        sp_condition_residual(arr, B, chart)
        # the 6n gradient points, then F_z at their solutions
        assert calls == [("_newton", (6 * n, n)), ("eval_F_z", (6 * n, n))]
        calls.clear()
        verify._roundtrip_residual(arr, B, chart)
        # the 6n distinct nodes of both five-point stencils and the chart point
        assert calls == [("_newton", (6 * n + 1, n))]
        # a stack of three charts: still one solve, with every chart's points
        stack = verify.sample_chart_points(arr, B, 3, np.random.default_rng(5))
        calls.clear()
        sp_condition_residual(arr, B, stack)
        assert calls == [("_newton", (18 * n, n)), ("eval_F_z", (3, 6 * n, n))]
        calls.clear()
        verify._roundtrip_residual(arr, B, stack)
        assert calls == [("_newton", (3 * (6 * n + 1), n))]


# evaluator and Newton calls of one run of each check, whatever its sample count
_CHECK_CALLS = {
    # Phi at the samples, then one call per Hessian of the Richardson pair
    "phi-fd": ["eval_Phi", "eval_F", "eval_F"],
    # one Laplacian stencil at h, one at 2h
    "polyharmonic": ["eval_F", "eval_F"],
    "hessian-identity": ["_newton", "eval_F_z", "eval_Phi"],
    "sp-condition": ["_newton", "eval_F_z"],
    "ricci": ["eval_metric", "eval_metric"],
    # one Richardson Laplacian pair at h, one at 2h
    "phi-harmonic": ["eval_Phi", "eval_Phi"],
    # both five-point stencils of every chart, then F at the charts
    "roundtrip": ["_newton", "eval_F"],
    "classification": ["eval_Phi"],
}


@pytest.mark.parametrize("name", ["eguchi-hanson", "n2-unimodular"])
def test_each_check_makes_one_stacked_call_per_stencil(name, monkeypatch):
    calls = []

    def counting(fn_name, fn):
        def wrapper(*args, **kwargs):
            calls.append(fn_name)
            return fn(*args, **kwargs)
        return wrapper

    for fn_name in ("eval_F", "eval_Phi", "eval_metric", "eval_F_z", "_newton"):
        monkeypatch.setattr(verify, fn_name, counting(fn_name, getattr(verify, fn_name)))
    e = entry(name)
    n1 = e.arrangement.dimension == 1
    n1_only = {"hessian-identity", "ricci"}
    for check, want in _CHECK_CALLS.items():
        if not n1 and check in n1_only:
            continue
        if not n1 and check == "classification":
            want = []  # sampled facts are n = 1 only; the report's facts need no evaluator
        calls.clear()
        (rep,) = run_checks(e.arrangement, e.deformation, checks=[check], seed=1,
                            expected={"phi_constant": 0.0} if n1 else {"smooth": True})
        assert calls == want, check
        assert rep.samples >= 1


def _points_near_flats(arr, gap):
    # a clear point, then one `gap` from flat 1, then one on flat 0
    centers = _centers(arr)
    x3 = np.array([centers[0] + [0.3, 0.5, 0.2],
                   centers[1] + [gap, 0.0, 0.0],
                   centers[0]])
    return Point3n.from_coords(x3)


@pytest.mark.parametrize("check, gap", [("polyharmonic", 5e-10), ("ricci", 5e-3)])
def test_a_failing_sample_raises_what_the_per_item_loop_raises(check, gap, monkeypatch):
    # the stacked call fails on the worst point, the last one; the check
    # raises the error of the first failing point, as measuring one point
    # at a time does
    arr, B = EH.arrangement, EH.deformation
    pts = _points_near_flats(arr, gap)
    monkeypatch.setattr(verify, "sample_points", lambda *args, **kwargs: pts)
    v = np.ones(1)
    measure = {"polyharmonic": lambda p: polyharmonic_residual(arr, B, p, v),
               "ricci": lambda p: ricci_residual(arr, B, p)}[check]
    with pytest.raises(Exception) as first:
        for i in range(len(pts)):
            measure(pts[i])
    with pytest.raises(type(first.value)) as stacked:
        measure(pts)
    assert stacked.value.args != first.value.args
    with pytest.raises(type(first.value)) as got:
        run_checks(arr, B, checks=[check], seed=1)
    assert got.value.args == first.value.args


@pytest.mark.parametrize("check, first_failing", [("roundtrip", 0), ("sp-condition", 1)])
def test_a_failing_chart_raises_what_the_per_chart_loop_raises(check, first_failing,
                                                              monkeypatch):
    # with Newton cut to two iterations, the charts' stencil stacks stop
    # short, each with its own residual; the check raises the error of the
    # first chart that fails alone, whichever row the stacked solve stops at
    arr, B = TN.arrangement, TN.deformation
    charts = verify.sample_chart_points(arr, B, 4, np.random.default_rng(0))
    monkeypatch.setattr(verify, "sample_chart_points", lambda *args: charts)
    monkeypatch.setattr(potential, "DEFAULT",
                        dataclasses.replace(DEFAULT, newton_max_iter=2))
    measure = {"roundtrip": verify._roundtrip_residual,
               "sp-condition": sp_condition_residual}[check]
    errors = []
    for i in range(len(charts)):
        try:
            measure(arr, B, charts[i:i + 1])
        except Exception as exc:
            errors.append((i, exc))
    assert errors[0][0] == first_failing
    first = errors[0][1]
    assert len({e.args for _, e in errors}) > 1  # the charts fail differently
    with pytest.raises(type(first)) as got:
        run_checks(arr, B, checks=[check], seed=1)
    assert got.value.args == first.args


def test_a_stack_that_fails_only_as_a_stack_raises_its_own_error():
    # every item passes alone, so no item's error can stand for the stack's
    calls = []

    def residual(a):
        calls.append(len(a))
        if len(a) > 1:
            raise ValueError("the stack fails")
        return np.zeros(len(a))

    with pytest.raises(ValueError, match="the stack fails"):
        verify._stacked(residual, (np.arange(3.0),))
    assert calls == [3, 1, 1, 1]


def _record_runs(monkeypatch):
    """The names of the checks that run, in order, from now on."""
    ran = []
    for name, check in verify._CHECKS.items():
        def recording(*args, _name=name, _measure=check.measure):
            ran.append(_name)
            return _measure(*args)
        monkeypatch.setitem(verify._CHECKS, name, dataclasses.replace(check, measure=recording))
    return ran


def test_unknown_expectations_are_refused_before_any_check_runs(monkeypatch):
    ran = _record_runs(monkeypatch)
    for checks in (None, ["phi-fd", "classification"]):
        with pytest.raises(ValueError, match="unknown expectation 'bogus_key'"):
            run_checks(FLAT_H.arrangement, FLAT_H.deformation, checks=checks,
                       expected={"bogus_key": 1})
    assert ran == []
    # without the classification check the expectations are not read
    run_checks(FLAT_H.arrangement, FLAT_H.deformation, checks=["phi-fd"],
               expected={"bogus_key": 1})
    assert ran == ["phi-fd"]


def test_classification_without_expectations_is_refused_before_any_check_runs(monkeypatch):
    # with nothing to compare it would pass with no mismatch and certify nothing
    ran = _record_runs(monkeypatch)
    for expected in (None, {}):
        for checks in (["classification"], ["phi-fd", "classification"]):
            with pytest.raises(ValueError, match="'classification' compares expected values"):
                run_checks(FLAT_H.arrangement, FLAT_H.deformation, checks=checks,
                           expected=expected)
    assert ran == []


@pytest.mark.parametrize("key", ["phi_constant", "phi_radial_coefficient"])
def test_sampled_facts_are_refused_at_n_2_before_any_check_runs(monkeypatch, key):
    # both are measured on Phi's only entry at n = 1; at n = 2 they compared Phi_00
    ran = _record_runs(monkeypatch)
    n2 = entry("n2-unimodular")
    for checks in (None, ["phi-fd", "classification"]):
        with pytest.raises(ValueError, match=f"expectation '{key}' is measured at n = 1 only"):
            run_checks(n2.arrangement, n2.deformation, checks=checks, expected={key: 1.0})
    assert ran == []


@pytest.mark.parametrize("checks, message", [
    (["phi-fd", "polyharmonic", "phi-fd"], "check 'phi-fd' is selected more than once"),
    (["phi-fd", "bogus"], "unknown check 'bogus'"),
    (["phi-fd", "ricci"], "check 'ricci' does not apply to this arrangement"),
    # a string would be read letter by letter, as the unknown check 'p'
    ("phi-fd", "expected a list of check names, got the string 'phi-fd'"),
])
def test_bad_selections_are_refused_before_any_check_runs(monkeypatch, checks, message):
    ran = _record_runs(monkeypatch)
    n2 = entry("n2-unimodular")
    with pytest.raises(ValueError, match=message):
        run_checks(n2.arrangement, n2.deformation, checks=checks)
    assert ran == []


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_phi_harmonic_passes_at_seeds_1_to_10(name):
    e = entry(name)
    for seed in range(1, 11):
        (rep,) = run_checks(e.arrangement, e.deformation, checks=["phi-harmonic"], seed=seed)
        assert rep.passed, (seed, rep.max_residual, rep.detail)
        assert rep.detail["order_ok"]


def test_phi_harmonic_fails_where_phi_is_not_harmonic(monkeypatch):
    # 1e-4 |x|^2 has Laplacian 2e-4 on every plane p + R^3 (x) v, v a unit vector
    eval_phi = verify.eval_Phi

    def perturbed(arr, B, p):
        return eval_phi(arr, B, p) + 1e-4 * (p.x ** 2).sum(axis=-1)[..., None, None]

    monkeypatch.setattr(verify, "eval_Phi", perturbed)
    (rep,) = run_checks(EH.arrangement, EH.deformation, checks=["phi-harmonic"], seed=1)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(2e-4, rel=1e-3)


# -- volume growth ------------------------------------------------------------

def test_growth_exponents_match_classification():
    rng = np.random.default_rng(208)
    radii = np.geomspace(60.0, 960.0, 7)
    base = _pt(0.0, 1e-3j)
    for e, want in ((FLAT_H, 4.0), (TN, 3.0)):
        fit = growth_fit(e.arrangement, e.deformation, base, radii,
                         rng=np.random.default_rng(rng.integers(2**32)))
        assert fit.exponent == pytest.approx(want, abs=0.2)
        assert fit.std_error <= 0.2
        assert fit.volumes.shape == radii.shape
        assert np.all(np.diff(fit.volumes) > 0)


def test_growth_invariant_under_common_rescaling():
    # scaling every mass and B by the same factor leaves the exponent alone
    from torichk import Flat
    radii = np.geomspace(60.0, 960.0, 7)
    base = _pt(0.0, 1e-3j)
    scaled_arr = FlatArrangement(1, tuple(
        Flat(f.normal, f.offsets, 4.0 * f.mass) for f in TN.arrangement.flats))
    scaled_B = DeformationMatrix(4.0 * TN.deformation.entries)
    e1 = growth_fit(TN.arrangement, TN.deformation, base, radii,
                    rng=np.random.default_rng(209)).exponent
    e2 = growth_fit(scaled_arr, scaled_B, base, radii,
                    rng=np.random.default_rng(209)).exponent
    assert abs(e1 - e2) <= 0.1


def _nan_fit(arr, B, base, radii, samples=4096, rng=None):
    return verify.GrowthFit(exponent=4.0, std_error=math.nan, radii=np.asarray(radii),
                            volumes=np.ones(len(radii)), samples=samples)


def test_growth_gates_fail_on_a_nan_std_error(monkeypatch):
    monkeypatch.setattr(verify, "growth_fit", _nan_fit)
    (rep,) = run_checks(FLAT_H.arrangement, FLAT_H.deformation, checks=["growth"])
    assert not rep.passed


def test_growth_needs_a_sample_per_batch():
    base = _pt(0.0, 0j)
    with pytest.raises(ValueError, match="samples must be at least 8"):
        growth_fit(EH.arrangement, None, base, [60.0, 120.0, 240.0], samples=7)
    fit = growth_fit(EH.arrangement, None, base, [60.0, 120.0, 240.0], samples=8)
    assert math.isfinite(fit.std_error)


def _fibonacci(m):
    # z_i = 1 - (2i + 1) / m at azimuth i pi (3 - sqrt 5), unrotated
    i = np.arange(m)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z ** 2)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _fit_directions(monkeypatch, e, **kwargs):
    """growth_fit at the growth check's radii, and the directions its chunks got."""
    seen = []
    chunk = verify._growth_chunk

    def recording(arr, B, base_coords, dirs, radii):
        seen.append(dirs.copy())
        return chunk(arr, B, base_coords, dirs, radii)

    monkeypatch.setattr(verify, "_growth_chunk", recording)
    n = e.arrangement.dimension
    fit = growth_fit(e.arrangement, e.deformation, _pt(np.zeros(n), np.zeros(n)),
                     GROWTH_RADII, **kwargs)
    return fit, np.concatenate(seen)


def test_n1_growth_directions_are_eight_rotated_fibonacci_lattices(monkeypatch):
    fit, dirs = _fit_directions(monkeypatch, EH, rng=np.random.default_rng(217))
    assert fit.samples == len(dirs) == 512
    rotations = []
    for b in range(8):
        lattice, ref = dirs[b::8], _fibonacci(64)
        np.testing.assert_allclose(lattice @ lattice.T, ref @ ref.T, rtol=0, atol=1e-13)
        rot = np.linalg.lstsq(ref, lattice, rcond=None)[0].T  # lattice = ref @ rot.T
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), rtol=0, atol=1e-13)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-13)
        rotations.append(rot)
    for i in range(8):
        for j in range(i):
            assert np.abs(rotations[i] - rotations[j]).max() > 1e-3


def test_n1_growth_directions_with_an_odd_count(monkeypatch):
    # 10 directions are lattices of 2, 2, 1, 1, 1, 1, 1 and 1 points
    fit, dirs = _fit_directions(monkeypatch, EH, samples=10, rng=np.random.default_rng(218))
    assert [len(dirs[b::8]) for b in range(8)] == [2, 2, 1, 1, 1, 1, 1, 1]
    for b in range(8):
        lattice, ref = dirs[b::8], _fibonacci(len(dirs[b::8]))
        np.testing.assert_allclose(lattice @ lattice.T, ref @ ref.T, rtol=0, atol=1e-13)
    assert fit.samples == 10
    assert math.isfinite(fit.std_error)


@pytest.mark.parametrize("name", ["eguchi-hanson", "multi-EH-3"])
def test_growth_std_error_is_honest_over_seeds(name):
    # the exponent's spread over seeds 1-10 of the growth check is within 3
    # times the median standard error it reports (the lattice batches are
    # independent randomizations; a shared rotation would shrink the
    # reported error far below the spread)
    e = entry(name)
    reps = [run_checks(e.arrangement, e.deformation, checks=["growth"], seed=seed)[0]
            for seed in range(1, 11)]
    assert all(rep.samples == 512 for rep in reps)
    spread = np.std([rep.detail["exponent"] for rep in reps], ddof=1)
    assert spread <= 3.0 * np.median([rep.detail["std_error"] for rep in reps])


def test_growth_directions_above_n1_are_drawn_as_before(monkeypatch):
    # above n = 1 the default is 4096 uniformly random directions, normalized
    # Gaussian rows drawn in one call; the n = 2 growth digests rest on it
    seen = []

    def stub(arr, B, base_coords, dirs, radii):
        seen.append(dirs.copy())
        return np.ones((len(dirs), len(radii)))

    monkeypatch.setattr(verify, "_growth_chunk", stub)
    e = entry("n2-unimodular")
    fit = growth_fit(e.arrangement, e.deformation, _pt(np.zeros(2), np.zeros(2)),
                     GROWTH_RADII, rng=np.random.default_rng(219))
    want = np.random.default_rng(219).standard_normal((4096, 6))
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert fit.samples == 4096
    assert np.array_equal(np.concatenate(seen), want)


@pytest.mark.parametrize("name", ["taub-nut", "n2-unimodular"])
def test_growth_does_not_depend_on_the_ray_block_and_starts_no_thread(name, monkeypatch):
    # every row of phi_batch, eigvalsh, det and cumsum is independent of its
    # block, so any block size gives the same bits; 600 samples are chunks of
    # 512 and 88 directions, so blocks of 7 and 32 end part-full
    def no_thread(self):
        raise AssertionError("growth_fit started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    e = entry(name)
    n = e.arrangement.dimension
    fits = []
    for block in (1, 7, 32, 512):
        monkeypatch.setattr(verify, "RAY_BLOCK", block)
        fits.append(growth_fit(e.arrangement, e.deformation, _pt(np.zeros(n), np.zeros(n)),
                               GROWTH_RADII, samples=600, rng=np.random.default_rng(5)))
    for fit in fits[1:]:
        assert np.array_equal(fit.volumes, fits[0].volumes)
        assert fit.exponent == fits[0].exponent
        assert fit.std_error == fits[0].std_error


def test_growth_validates_radii():
    base = _pt(0.0, 1e-3j)
    with pytest.raises(ValueError, match="increasing"):
        growth_fit(FLAT_H.arrangement, None, base, [10.0, 5.0])
    with pytest.raises(ValueError, match="increasing"):
        growth_fit(FLAT_H.arrangement, None, base, [100.0])


def _unscreened_growth_chunk(arr, B, base_coords, dirs, radii):
    """The growth chunk without probe screening: every T round integrates
    all of dirs.  Kept as the reference the screened loop must reproduce."""
    n = arr.dimension
    rmax = float(radii[-1])
    nodes = verify.RAY_NODES
    T = max(rmax, 4.0)
    for _ in range(80):
        t = np.geomspace(1e-4, T, nodes)
        P = base_coords[None, None, :] + t[None, :, None] * dirs[:, None, :]
        flatP = P.reshape(-1, 3 * n)
        X = flatP[:, :n]
        Z = flatP[:, n:2 * n] + 1j * flatP[:, 2 * n:]
        phi = verify.phi_batch(arr, B, X, Z).reshape(dirs.shape[0], nodes, n, n)
        speed2 = (np.einsum("di,dtij,dj->dt", dirs[:, :n], phi, dirs[:, :n])
                  + np.einsum("di,dtij,dj->dt", dirs[:, n:2 * n], phi, dirs[:, n:2 * n])
                  + np.einsum("di,dtij,dj->dt", dirs[:, 2 * n:], phi, dirs[:, 2 * n:]))
        speed = np.sqrt(speed2)
        if n == 1:
            lam_min = phi[:, :, 0, 0]
            detphi = phi[:, :, 0, 0]
        else:
            lam_min = np.linalg.eigvalsh(phi)[..., 0]
            detphi = np.linalg.det(phi)
        dt = np.diff(t)
        L = np.empty_like(speed)
        L[:, 0] = speed[:, 0] * t[0]
        L[:, 1:] = 0.5 * (speed[:, 1:] + speed[:, :-1]) * dt[None, :]
        np.cumsum(L, axis=1, out=L)
        fiber = math.pi * math.sqrt(n) / np.sqrt(lam_min)
        proxy = np.maximum.accumulate(L + fiber, axis=1)
        if proxy[:, -1].min() >= rmax:
            break
        T *= 1.8
    else:
        raise RuntimeError("radial integration range failed to cover the largest radius")

    integrand = detphi * t[None, :] ** (3 * n - 1)
    Vc = np.empty_like(integrand)
    Vc[:, 0] = integrand[:, 0] * t[0] / (3.0 * n)
    Vc[:, 1:] = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * dt[None, :]
    np.cumsum(Vc, axis=1, out=Vc)

    out = np.empty((dirs.shape[0], radii.size))
    for j, R in enumerate(radii):
        idx = (proxy < R).sum(axis=1)
        idx = np.clip(idx, 1, nodes - 1)
        lo = idx - 1
        rows = np.arange(dirs.shape[0])
        p_lo = proxy[rows, lo]
        p_hi = proxy[rows, idx]
        v_lo = Vc[rows, lo]
        v_hi = Vc[rows, idx]
        span = np.log(p_hi) - np.log(p_lo)
        frac = np.clip((np.log(R) - np.log(p_lo)) / np.where(span > 0, span, 1.0), 0.0, 1.0)
        vals = v_lo * (v_hi / v_lo) ** frac
        vals = np.where(proxy[:, 0] >= R, 0.0, vals)
        out[:, j] = vals
    return out


GROWTH_RADII = np.geomspace(60.0, 960.0, 9)


@pytest.mark.parametrize("name", [e.name for e in catalog()
                                  if e.arrangement.dimension == 1]
                         + ["n2-unimodular"])
def test_growth_screening_reproduces_unscreened_loop(name, monkeypatch):
    # the reference integrates each whole chunk in one phi_batch call; 600
    # samples off the origin are chunks of 512 and 88 directions, and the
    # second ends in a partial ray block of 24
    e = entry(name)
    arr, B = e.arrangement, e.deformation
    n = arr.dimension
    off_origin = Point3n.from_coords(np.resize([0.3, -0.2, 0.1, 0.25, -0.15, 0.05], 3 * n))
    for base, samples in ((_pt(np.zeros(n), np.zeros(n)), 512), (off_origin, 600)):
        def fit():
            return growth_fit(arr, B, base, GROWTH_RADII, samples=samples,
                              rng=np.random.default_rng(212))

        with monkeypatch.context() as m:
            blocked = fit()
            m.setattr(verify, "_growth_chunk", _unscreened_growth_chunk)
            reference = fit()
        assert np.array_equal(blocked.volumes, reference.volumes)
        assert blocked.exponent == reference.exponent
        assert blocked.std_error == reference.std_error


def test_growth_chunk_integrates_all_rays_once(monkeypatch):
    # failed T rounds are caught by a single RAY_NODES-node probe ray, so the
    # 512-direction chunk is integrated in full exactly once, at the final T,
    # as blocks of RAY_BLOCK directions
    nodes = verify.RAY_NODES
    calls = []
    phi_batch = verify.phi_batch

    def recording(arr, B, X, Z):
        calls.append((X.copy(), Z.copy()))
        return phi_batch(arr, B, X, Z)

    monkeypatch.setattr(verify, "phi_batch", recording)
    dirs = np.random.default_rng(213).standard_normal((512, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = np.array([0.3, -0.2, 0.1])
    verify._growth_chunk(EH.arrangement, EH.deformation, base, dirs, GROWTH_RADII)
    blocks = 512 // verify.RAY_BLOCK
    rounds = len(calls) - blocks
    assert rounds >= 1
    assert ([len(X) for X, _ in calls]
            == [nodes] * rounds + [verify.RAY_BLOCK * nodes] * blocks)
    # the blocks hold the points base + t * d of the last round's grid, every
    # direction and node once and in order
    T = max(float(GROWTH_RADII[-1]), 4.0)
    for _ in range(rounds - 1):
        T *= 1.8
    t = np.geomspace(1e-4, T, nodes)
    P = (base + t[None, :, None] * dirs[:, None, :]).reshape(-1, 3)
    X = np.concatenate([X for X, _ in calls[rounds:]])
    Z = np.concatenate([Z for _, Z in calls[rounds:]])
    assert np.array_equal(X[:, 0], P[:, 0])
    assert np.array_equal(Z[:, 0].real, P[:, 1])
    assert np.array_equal(Z[:, 0].imag, P[:, 2])


@pytest.mark.parametrize("name", ["multi-EH-3", "n2-unimodular"])
def test_growth_chunk_working_set_does_not_grow_with_the_chunk(name):
    # one 512-direction chunk on this thread: beyond its (512, RAY_NODES) outputs
    # one ray block is alive at a time (evaluating the whole chunk in one
    # phi_batch call peaked at 46-56 MB on these entries)
    e = entry(name)
    n = e.arrangement.dimension
    dirs = np.random.default_rng(214).standard_normal((512, 3 * n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        verify._growth_chunk(e.arrangement, e.deformation, np.zeros(3 * n), dirs,
                             GROWTH_RADII)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


@pytest.mark.parametrize("name", ["multi-EH-3", "n2-unimodular"])
def test_growth_fit_working_set_is_one_chunk_and_one_ray_block(name):
    # the chunks run one after another on this thread, so the peak is one
    # chunk's two (512, RAY_NODES) float64 outputs, plus one ray block of
    # RAY_BLOCK * RAY_NODES points at most 8 bytes * (3n [X, Z] + 10d [svr's per-flat
    # arrays and temporaries] + 3n^2 [Phi, eigvalsh and det copies] + 12
    # [speed, fiber and trapezoid temporaries]) each, plus 1 MiB for the
    # directions and the per-direction volumes
    e = entry(name)
    n, d = e.arrangement.dimension, len(e.arrangement.flats)
    nodes = verify.RAY_NODES
    bound = (2 * 512 * nodes * 8 + verify.RAY_BLOCK * nodes * 8 * (3 * n + 10 * d + 3 * n * n + 12)
             + 2**20)
    tracemalloc.start()
    try:
        growth_fit(e.arrangement, e.deformation, _pt(np.zeros(n), np.zeros(n)), GROWTH_RADII,
                   samples=4096, rng=np.random.default_rng(215))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_growth_chunk_raises_sampling_error_when_rays_stay_short(monkeypatch):
    def short_rays(arr, B, base_coords, dirs, T, rmax):
        zero = np.zeros((dirs.shape[0], verify.RAY_NODES))
        return zero, zero

    monkeypatch.setattr(verify, "_rays", short_rays)
    dirs = np.eye(3)
    with pytest.raises(SamplingError, match="largest radius"):
        verify._growth_chunk(EH.arrangement, None, np.zeros(3), dirs, GROWTH_RADII)


@pytest.mark.parametrize("c, k", [(2.5, 4.0), (0.7, 3.0), (1e-3, 8.0)])
def test_growth_chunk_reads_a_power_law_exactly(monkeypatch, c, k):
    # rays whose ball volume is c * proxy^k: log-log interpolation between the
    # nodes gives c R^k at every radius (linear interpolation missed by ~1e-3)
    def power_rays(arr, B, base_coords, dirs, T, rmax):
        t = np.geomspace(1e-4, T, verify.RAY_NODES)
        t = np.broadcast_to(t, (dirs.shape[0], t.size))
        return t, c * t ** k

    monkeypatch.setattr(verify, "_rays", power_rays)
    volumes = verify._growth_chunk(EH.arrangement, None, np.zeros(3), np.eye(3), GROWTH_RADII)
    np.testing.assert_allclose(volumes, np.broadcast_to(c * GROWTH_RADII ** k, (3, 9)),
                               rtol=1e-13, atol=0)


def test_growth_reads_a_ball_volume_that_underflows_without_a_warning():
    # at mass 1e-320 the first nodes' ball volume underflows to 0, which the
    # log-log reading must not divide by (warnings are errors here)
    arr = FlatArrangement(1, (Flat((1,), (0.0, 0.0, 0.0), 1e-320),))
    with pytest.raises(ValueError, match="below the start of every sampled ray"):
        growth_fit(arr, None, _pt(0.0, 0j), [60.0, 240.0], samples=64)


def _linear_growth_chunk(arr, B, base_coords, dirs, radii):
    """The growth chunk with the ball volume linear in the proxy between
    nodes, as it was read over 512 nodes.  Kept as the reference the
    log-log reading must not fall behind."""
    proxy, volume = verify._covering_rays(arr, B, base_coords, dirs, float(radii[-1]))
    idx = np.clip([row.searchsorted(radii) for row in proxy], 1, proxy.shape[1] - 1)
    p_lo, p_hi = np.take_along_axis(proxy, idx - 1, 1), np.take_along_axis(proxy, idx, 1)
    v_lo, v_hi = np.take_along_axis(volume, idx - 1, 1), np.take_along_axis(volume, idx, 1)
    frac = np.clip((radii - p_lo) / np.where(p_hi > p_lo, p_hi - p_lo, 1.0), 0.0, 1.0)
    return np.where(proxy[:, :1] >= radii, 0.0, v_lo + frac * (v_hi - v_lo))


@pytest.mark.parametrize("name", ["flat-H", "eguchi-hanson"])
def test_growth_exponent_is_no_less_accurate_than_linear_at_512_nodes(name, monkeypatch):
    # against an 8192-node run of the linear scheme, on the same directions,
    # the RAY_NODES log-log fit errs no more than the 512-node linear one
    e = entry(name)
    nodes = verify.RAY_NODES

    def exponent(count, chunk):
        with monkeypatch.context() as m:
            m.setattr(verify, "RAY_NODES", count)
            m.setattr(verify, "RAY_BLOCK", 8)  # 8192-node blocks stay small
            m.setattr(verify, "_growth_chunk", chunk)
            return growth_fit(e.arrangement, e.deformation, _pt(0.0, 0j), GROWTH_RADII,
                              samples=256, rng=np.random.default_rng(216)).exponent

    reference = exponent(8192, _linear_growth_chunk)
    assert (abs(exponent(nodes, verify._growth_chunk) - reference)
            <= abs(exponent(512, _linear_growth_chunk) - reference))


# -- harness ------------------------------------------------------------------

def test_run_checks_default_selection():
    reports = run_checks(CYL.arrangement, CYL.deformation, seed=1)
    assert [r.check_name for r in reports] == [
        "phi-fd", "polyharmonic", "hessian-identity", "sp-condition", "ricci",
        "phi-harmonic", "growth", "roundtrip"]
    assert all(r.passed for r in reports)
    n2 = entry("n2-unimodular")
    reports = run_checks(n2.arrangement, n2.deformation, seed=1,
                         expected=n2.expected_values())
    assert [r.check_name for r in reports] == [
        "phi-fd", "polyharmonic", "sp-condition", "phi-harmonic", "roundtrip",
        "classification"]
    assert all(r.passed for r in reports)


def test_run_checks_rejects_unknown_and_inapplicable():
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(CYL.arrangement, None, checks=["no-such-check"])
    with pytest.raises(ValueError, match="does not apply"):
        run_checks(entry("n2-unimodular").arrangement, None, checks=["ricci"])
    for checks in (["classification"], None):
        with pytest.raises(ValueError, match="unknown expectation 'bogus_key'.*smooth"):
            run_checks(FLAT_H.arrangement, FLAT_H.deformation, checks=checks,
                       expected={"bogus_key": 1, "smoth": False})


def test_run_checks_takes_b_as_none_an_array_or_a_matrix():
    e = entry("n2-nonsmooth")
    reports = [run_checks(e.arrangement, B, checks=["phi-fd", "classification"], seed=2,
                          expected=e.expected_values())
               for B in (e.deformation, None, np.zeros((2, 2)))]
    dicts = [[{k: v for k, v in r.as_dict().items() if k != "wall_time_s"} for r in rep]
             for rep in reports]
    assert dicts[0] == dicts[1] == dicts[2]
    assert all(r.passed for r in reports[0])
    with pytest.raises(ArrangementError, match="expected 2x2"):
        run_checks(e.arrangement, np.zeros((1, 1)))


def test_run_checks_skips_growth_when_not_smooth():
    e = entry("n2-nonsmooth")
    reports = run_checks(e.arrangement, e.deformation, seed=3)
    assert "growth" not in [r.check_name for r in reports]


def test_report_as_dict_shape():
    rep = ResidualReport(check_name="demo", max_residual=0.5, tolerance=1.0, passed=True,
                         samples=2, wall_time_s=0.12345, detail={"k": 1})
    d = rep.as_dict()
    assert d == {"check": "demo", "max_residual": 0.5, "tolerance": 1.0,
                 "pass": True, "samples": 2, "wall_time_s": round(0.12345, 4),
                 "detail": {"k": 1}}


def test_classification_check_counts_mismatches():
    e = entry("flat-H")
    good = run_checks(e.arrangement, e.deformation, checks=["classification"],
                      expected=e.expected_values())[0]
    assert good.passed and good.max_residual == 0
    bad = run_checks(e.arrangement, e.deformation, checks=["classification"],
                     expected={"volume_growth_exponent": 17})[0]
    assert not bad.passed
    assert bad.max_residual >= 1
    assert any("volume_growth_exponent" in miss for miss in
               bad.detail["mismatches"])
    # the failing stratum's facts are tuples; a list expectation is the same value
    e = entry("n2-nonsmooth")
    got = run_checks(e.arrangement, None, checks=["classification"],
                     expected={"failing_stratum_active": [0, 1], "invariant_factors": (1, 3),
                               "stratum_count": len(intersection_strata(e.arrangement))})[0]
    assert got.detail["mismatches"] == {
        "invariant_factors": {"expected": (1, 3), "got": (1, 2)}}


def test_a_nan_residual_fails_its_check(monkeypatch):
    # max() over a list skips a NaN that is not first; the report must not
    real = verify._phi_fd_residual

    def nan_at_1(arr, B, p):
        res = real(arr, B, p).copy()
        res[1] = np.nan
        return res

    monkeypatch.setattr(verify, "_phi_fd_residual", nan_at_1)
    (rep,) = run_checks(EH.arrangement, EH.deformation, checks=["phi-fd"], seed=1)
    assert not rep.passed and math.isnan(rep.max_residual)


@pytest.mark.parametrize("coarse, fine", [
    ([1e-3, np.nan], [1e-4, 1e-4]),   # a NaN not first, at 2h
    ([1e-3, 1e-3], [1e-5, np.nan]),   # and at h
    ([np.nan, 1e-3], [1e-8, 1e-8]),   # a NaN at 2h, h at the noise floor
    ([1e-8, 1e-8], [np.nan, 1e-8]),   # a NaN at h, 2h at the noise floor
])
def test_a_nan_fails_the_step_halving_order_test(coarse, fine):
    ok, detail = verify._halving_order(np.array(coarse), np.array(fine))
    assert ok is False and detail["order_ok"] is False


@pytest.mark.parametrize("level, passed", [(5e-6, False), (1e-7, True)])
def test_a_residual_that_does_not_decay_fails_on_the_order_test_alone(monkeypatch, level,
                                                                       passed):
    # level across both steps: within the 1e-5 tolerance, but above the 1e-6
    # noise floor the step-halving ratio of 1 fails the check; below it passes
    monkeypatch.setattr(verify, "polyharmonic_residual",
                        lambda arr, B, p, v, h: np.full(len(p.x), level))
    (rep,) = run_checks(EH.arrangement, EH.deformation, checks=["polyharmonic"], seed=1)
    assert rep.max_residual == level <= rep.tolerance
    assert rep.passed is passed and rep.detail["order_ok"] is passed


def test_a_nan_sampled_fact_is_a_mismatch(monkeypatch):
    # abs(nan - want) > 1e-12 is False: a NaN Phi used to match any expectation
    monkeypatch.setattr(verify, "eval_Phi",
                        lambda arr, B, p: np.full(p.x.shape + (1,), np.nan))
    (rep,) = run_checks(CYL.arrangement, CYL.deformation, checks=["classification"],
                        seed=1, expected={"phi_constant": 1.0})
    assert not rep.passed and list(rep.detail["mismatches"]) == ["phi_constant"]


def test_sampled_facts_match_the_per_point_loop():
    # the values a failed phi_constant / phi_radial_coefficient records, against
    # a loop over the points with scalar arithmetic; the stacked r squares x
    # where the loop calls pow, so the two may differ in the last bit
    for e in catalog():
        arr, B = e.arrangement, e.deformation
        if arr.dimension != 1:
            continue
        (rep,) = run_checks(arr, B, checks=["classification"], seed=3,
                            expected={"phi_constant": -1.0, "phi_radial_coefficient": -1.0})
        rng = verify._rng_for(3, 11)
        for key in ("phi_constant", "phi_radial_coefficient"):
            pts = sample_points(arr, 5, rng)
            want = [float(eval_Phi(arr, B, pts[i])[0, 0]) for i in range(len(pts))]
            if key == "phi_radial_coefficient":
                want = [v * math.sqrt(pts[i].x[0] ** 2 + abs(pts[i].z[0]) ** 2)
                        for i, v in enumerate(want)]
            got = rep.detail["mismatches"][key]["got"]
            np.testing.assert_allclose(got, want, rtol=4.5e-16, atol=0)


def test_strata_enumerated_once_per_report_and_per_run(monkeypatch):
    real = arrangement.intersection_strata
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def fake_fit(arr, B, base, radii, samples=4096, rng=None):
        return verify.GrowthFit(exponent=4.0, std_error=0.01, radii=radii,
                                volumes=np.ones(len(radii)), samples=samples)

    monkeypatch.setattr(arrangement, "intersection_strata", counting)
    monkeypatch.setattr(verify, "growth_fit", fake_fit)
    n2 = entry("n2-unimodular")
    rep = classification_report(n2.arrangement, n2.deformation)
    assert len(calls) == 1
    assert rep.smooth and len(rep.strata) == 6
    calls.clear()
    got = run_checks(n2.arrangement, n2.deformation, checks=["classification"],
                     expected=n2.expected_values())
    assert got[0].passed and len(calls) == 1
    calls.clear()
    got = run_checks(EH.arrangement, EH.deformation, checks=["growth", "classification"],
                     expected=EH.expected_values())
    assert got[0].detail["expected"] == 4 and got[1].passed and len(calls) == 1


def test_chart_sampler_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a rejected sample")

    monkeypatch.setattr(verify, "legendre_solve", broken)
    with pytest.raises(TypeError, match="not a rejected sample"):
        verify.sample_chart_points(EH.arrangement, EH.deformation, 3,
                                   np.random.default_rng(0))
