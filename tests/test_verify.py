"""Residual estimators and the check harness."""

import numpy as np
import pytest

from torichk import (DeformationMatrix, FlatArrangement, InsufficientSamplesError,
                     KahlerChartPoint, Point3n, StencilClippedError, entry,
                     eval_Phi, legendre_solve)
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
