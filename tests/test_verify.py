"""Residual estimators and the check harness."""

import math

import numpy as np
import pytest

from torichk import (DeformationMatrix, FlatArrangement, InsufficientSamplesError,
                     KahlerChartPoint, Point3n, SamplingError,
                     StencilClippedError, catalog, entry, eval_Phi,
                     legendre_solve)
from torichk import arrangement, classification_report, verify
from torichk.verify import (ResidualReport, conformal_factor_check, growth_fit,
                            hessian_identity_residual, monge_ampere_residual,
                            polyharmonic_residual, ricci_residual, run_checks,
                            sample_points, sp_condition_residual,
                            volume_growth_exponent)

EH = entry("eguchi-hanson")
FLAT_H = entry("flat-H")
CYL = entry("flat-cylinder")
TN = entry("taub-nut")


def _pt(x, z):
    return Point3n(np.atleast_1d(np.asarray(x, dtype=float)),
                   np.atleast_1d(np.asarray(z, dtype=complex)))


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
    assert monge_ampere_residual(CYL.arrangement, CYL.deformation, sol) < 1e-7
    assert hessian_identity_residual(CYL.arrangement, CYL.deformation, sol) < 1e-7
    assert sp_condition_residual(CYL.arrangement, CYL.deformation, sol) < 1e-7


def test_chart_residuals_small_on_curved_entries():
    rng = np.random.default_rng(203)
    for e in (FLAT_H, TN, EH):
        arr, B = e.arrangement, e.deformation
        charts = verify.sample_chart_points(arr, B, 5, rng)
        for sol in charts:
            assert monge_ampere_residual(arr, B, sol) < 1e-4
            assert hessian_identity_residual(arr, B, sol) < 1e-4
            assert sp_condition_residual(arr, B, sol) < 1e-4


def test_monge_ampere_rejects_higher_rank():
    with pytest.raises(ValueError, match="n=1"):
        sol = KahlerChartPoint(u=np.zeros(2, complex), z=np.zeros(2, complex),
                               x=np.zeros(2), K=0.0)
        monge_ampere_residual(entry("n2-unimodular").arrangement, None, sol)


def test_sp_condition_n2():
    rng = np.random.default_rng(204)
    e = entry("n2-unimodular")
    charts = verify.sample_chart_points(e.arrangement, e.deformation, 4, rng)
    for sol in charts:
        assert sp_condition_residual(e.arrangement, e.deformation, sol) < 1e-4


def test_monge_ampere_truncation_halves_with_step():
    rng = np.random.default_rng(205)
    sol = verify.sample_chart_points(EH.arrangement, None, 1, rng,
                                     clearance=0.5)[0]
    coarse = monge_ampere_residual(EH.arrangement, None, sol, step=2e-2)
    fine = monge_ampere_residual(EH.arrangement, None, sol, step=1e-2)
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


# -- conformal factor law -----------------------------------------------------

def test_conformal_factor_values():
    # single unit-mass center: Phi = 1/(4 r)
    assert eval_Phi(FLAT_H.arrangement, None, _pt(2.0, 0.0))[0, 0] == \
        pytest.approx(0.125, abs=1e-15)
    # two centers at distance 2, midpoint: 1/4 + 1/4, plus the constant b
    got = eval_Phi(EH.arrangement, DeformationMatrix([[0.25]]), _pt(0.0, 1e-30))
    # the midpoint of the segment lies on neither flat but r_k = 1 for both
    assert got[0, 0] == pytest.approx(0.75, rel=1e-12)


def test_conformal_factor_check_residuals():
    assert conformal_factor_check(FLAT_H.arrangement, None,
                                  [0.7, 0.3, -0.4]) < 1e-6
    assert conformal_factor_check(EH.arrangement, None,
                                  [0.2, 0.5, 0.1]) < 1e-6
    assert conformal_factor_check(CYL.arrangement, CYL.deformation,
                                  [1.0, 2.0, 3.0]) < 1e-12
    with pytest.raises(ValueError, match="n=1"):
        conformal_factor_check(entry("n2-unimodular").arrangement, None,
                               [0.0, 0.0, 0.0])


# -- volume growth ------------------------------------------------------------

def test_growth_exponents_match_classification():
    rng = np.random.default_rng(208)
    radii = np.geomspace(60.0, 960.0, 7)
    base = _pt(0.0, 1e-3j)
    for e, want in ((FLAT_H, 4.0), (TN, 3.0)):
        fit = growth_fit(e.arrangement, e.deformation, base, radii,
                         samples=2048, rng=np.random.default_rng(rng.integers(2**32)))
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
                    samples=2048, rng=np.random.default_rng(209)).exponent
    e2 = growth_fit(scaled_arr, scaled_B, base, radii,
                    samples=2048, rng=np.random.default_rng(209)).exponent
    assert abs(e1 - e2) <= 0.1


def test_growth_insufficient_samples_raises():
    # radii barely above the fiber scale: per-direction crossing jitter
    # dominates and the batch slopes disagree wildly
    base = _pt(0.0, 1e-3j)
    with pytest.raises(InsufficientSamplesError) as exc:
        volume_growth_exponent(EH.arrangement, None, base, [4.6, 5.2],
                               samples=32, rng=np.random.default_rng(210))
    assert exc.value.stderr > exc.value.limit


def test_growth_validates_radii():
    base = _pt(0.0, 1e-3j)
    with pytest.raises(ValueError, match="increasing"):
        growth_fit(FLAT_H.arrangement, None, base, [10.0, 5.0])
    with pytest.raises(ValueError, match="increasing"):
        growth_fit(FLAT_H.arrangement, None, base, [100.0])


def _unscreened_growth_chunk(arr, B, base_coords, dirs, radii, n):
    """The growth chunk without probe screening: every T round integrates
    all of dirs.  Kept as the reference the screened loop must reproduce."""
    rmax = float(radii[-1])
    nodes = 512
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
        frac = np.clip((R - p_lo) / np.where(p_hi > p_lo, p_hi - p_lo, 1.0), 0.0, 1.0)
        vals = v_lo + frac * (v_hi - v_lo)
        vals = np.where(proxy[:, 0] >= R, 0.0, vals)
        out[:, j] = vals
    return out


GROWTH_RADII = np.geomspace(60.0, 960.0, 9)


@pytest.mark.parametrize("name", [e.name for e in catalog()
                                  if e.arrangement.dimension == 1]
                         + ["n2-unimodular"])
def test_growth_screening_reproduces_unscreened_loop(name, monkeypatch):
    e = entry(name)
    arr, B = e.arrangement, e.deformation
    base = _pt(np.zeros(arr.dimension), np.zeros(arr.dimension))

    def fit():
        return growth_fit(arr, B, base, GROWTH_RADII, samples=512,
                          rng=np.random.default_rng(212))

    screened = fit()
    monkeypatch.setattr(verify, "_growth_chunk", _unscreened_growth_chunk)
    reference = fit()
    assert np.array_equal(screened.volumes, reference.volumes)
    assert screened.exponent == reference.exponent
    assert screened.std_error == reference.std_error


def test_growth_chunk_integrates_all_rays_once(monkeypatch):
    # failed T rounds are caught by a single 512-node probe ray, so the
    # 512-direction chunk is integrated in full exactly once
    sizes = []
    phi_batch = verify.phi_batch

    def counting(arr, B, X, Z):
        sizes.append(X.shape[0])
        return phi_batch(arr, B, X, Z)

    monkeypatch.setattr(verify, "phi_batch", counting)
    dirs = np.random.default_rng(213).standard_normal((512, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    verify._growth_chunk(EH.arrangement, EH.deformation, np.zeros(3), dirs,
                         GROWTH_RADII, 1)
    full = [k for k in sizes if k == 512 * 512]
    probes = [k for k in sizes if k != 512 * 512]
    assert len(full) == 1
    assert probes and all(k == 512 for k in probes)


def test_growth_chunk_raises_sampling_error_when_rays_stay_short(monkeypatch):
    def short_rays(arr, B, base_coords, dirs, T, n):
        t = np.geomspace(1e-4, T, 512)
        zero = np.zeros((dirs.shape[0], t.size))
        return t, zero, zero

    monkeypatch.setattr(verify, "_rays", short_rays)
    dirs = np.eye(3)
    with pytest.raises(SamplingError, match="largest radius"):
        verify._growth_chunk(EH.arrangement, None, np.zeros(3), dirs,
                             GROWTH_RADII, 1)


# -- harness ------------------------------------------------------------------

def test_run_checks_default_selection():
    reports = run_checks(CYL.arrangement, CYL.deformation, seed=1)
    names = [r.check_name for r in reports]
    assert "local-models" not in names
    assert "phi-fd" in names and "roundtrip" in names
    assert all(r.passed for r in reports)


def test_run_checks_rejects_unknown_and_inapplicable():
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(CYL.arrangement, None, checks=["no-such-check"])
    with pytest.raises(ValueError, match="does not apply"):
        run_checks(entry("n2-unimodular").arrangement, None, checks=["ricci"])


def test_run_checks_skips_growth_when_not_smooth():
    e = entry("n2-nonsmooth")
    reports = run_checks(e.arrangement, e.deformation, seed=3)
    assert "growth" not in [r.check_name for r in reports]


def test_report_as_dict_shape():
    rep = ResidualReport(check_name="demo", points=[], residuals=[0.25, 0.5],
                         max_residual=0.5, tolerance=1.0, passed=True,
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


def test_strata_enumerated_once_per_report_and_per_run(monkeypatch):
    real = arrangement.intersection_strata
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def fake_fit(arr, B, base, radii, samples=4096, rng=None, cfg=None):
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
