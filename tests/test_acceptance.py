"""Release gate: one test per acceptance criterion, one printed line each."""

import time

import numpy as np

from torichk import (Point3n, catalog, classification_report, entry, eval_Phi)
from torichk import lattice, localmodel, verify


def _line(num, what, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {what}")
    assert ok, f"criterion {num} failed: {what}"


def _run_named_check(e, name, seed=0):
    reports = verify.run_checks(e.arrangement, e.deformation, checks=[name],
                                seed=seed)
    assert len(reports) == 1
    return reports[0]


def test_criterion_01_phi_closed_form_matches_fd_oracle():
    start = time.perf_counter()
    worst = 0.0
    for e in catalog():
        rep = _run_named_check(e, "phi-fd")
        assert rep.samples == 100, e.name
        assert rep.passed, (e.name, rep.max_residual)
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - start
    _line(1, f"Phi closed form vs FD Hessian, 100 pts x {len(catalog())} "
             f"entries, worst rel {worst:.2e}, {elapsed:.2f}s",
          worst <= 1e-6 and elapsed < 5.0)


def test_criterion_02_constant_and_radial_anchor_values():
    rng = np.random.default_rng(42)
    e1 = entry("flat-cylinder")
    dev_const = 0.0
    for _ in range(5):
        p = Point3n(rng.uniform(-3, 3, 1),
                    rng.uniform(-3, 3, 1) + 1j * rng.uniform(-3, 3, 1))
        dev_const = max(dev_const, abs(
            eval_Phi(e1.arrangement, e1.deformation, p)[0, 0] - 1.0))
    e2 = entry("flat-H")
    dev_rad = 0.0
    for _ in range(5):
        p = Point3n(rng.uniform(-3, 3, 1),
                    rng.uniform(-3, 3, 1) + 1j * rng.uniform(-3, 3, 1))
        r = float(np.sqrt(p.x[0] ** 2 + abs(p.z[0]) ** 2))
        dev_rad = max(dev_rad, abs(
            eval_Phi(e2.arrangement, e2.deformation, p)[0, 0] * 4.0 * r - 1.0))
    _line(2, f"constant-Phi dev {dev_const:.1e}, radial 1/(4r) dev {dev_rad:.1e}",
          dev_const <= 1e-15 and dev_rad <= 1e-14)


def test_criterion_03_polyharmonic_with_step_halving():
    worst = 0.0
    for e in catalog():
        rep = _run_named_check(e, "polyharmonic")
        assert rep.samples == 50, e.name
        assert rep.detail["order_ok"], (e.name, rep.detail)
        assert rep.passed, (e.name, rep.max_residual)
        worst = max(worst, rep.max_residual)
    _line(3, f"3-plane Laplacian of F, 50 pairs x {len(catalog())} entries, "
             f"worst {worst:.2e}, halving ratio >= 3 where resolvable",
          worst < 1e-5)


def test_criterion_04_monge_ampere_and_hessian_identity():
    rng = np.random.default_rng(44)
    worst_ma = 0.0
    worst_id = 0.0
    for name in ("flat-cylinder", "flat-H", "taub-nut", "eguchi-hanson"):
        e = entry(name)
        charts = verify.sample_chart_points(e.arrangement, e.deformation,
                                            20, rng)
        for sol in charts:
            # at n = 1, Sp(1, C) = SL(2, C): the Sp condition is det = 1
            worst_ma = max(worst_ma, verify.sp_condition_residual(
                e.arrangement, e.deformation, sol))
            worst_id = max(worst_id, verify.hessian_identity_residual(
                e.arrangement, e.deformation, sol))
    _line(4, f"Monge-Ampere det identity worst {worst_ma:.2e} (20 pts x 4 "
             f"entries), chart-Hessian identity worst {worst_id:.2e}",
          worst_ma < 1e-4 and worst_id < 1e-5)


def test_criterion_05_symplectic_condition_n2():
    rng = np.random.default_rng(45)
    e = entry("n2-unimodular")
    charts = verify.sample_chart_points(e.arrangement, e.deformation, 10, rng)
    worst = max(verify.sp_condition_residual(e.arrangement, e.deformation, sol)
                for sol in charts)
    _line(5, f"Sp block condition on rank-2 entry, 10 chart points, "
             f"worst {worst:.2e}", worst < 1e-4)


def test_criterion_06_ricci_flatness_with_order_check():
    rng = np.random.default_rng(46)
    ok = True
    msgs = []
    for name in ("flat-H", "eguchi-hanson"):
        e = entry(name)
        start = time.perf_counter()
        pts = verify.sample_points(e.arrangement, 10, rng, clearance=0.5)
        worst = max(verify.ricci_residual(e.arrangement, e.deformation, p)
                    for p in pts)
        probe = verify.sample_points(e.arrangement, 1, rng, clearance=0.8)[0]
        coarse = verify.ricci_residual(e.arrangement, e.deformation, probe,
                                       step=4e-3)
        fine = verify.ricci_residual(e.arrangement, e.deformation, probe,
                                     step=2e-3)
        ratio = coarse / fine
        elapsed = time.perf_counter() - start
        msgs.append(f"{name} worst {worst:.2e} ratio {ratio:.1f} {elapsed:.1f}s")
        ok = ok and worst < 1e-3 and ratio >= 3.0 and elapsed < 60.0
    _line(6, "Ricci residual, 10 points each: " + "; ".join(msgs), ok)


def test_criterion_07_volume_growth_exponents():
    start = time.perf_counter()
    radii = np.geomspace(60.0, 960.0, 9)
    base = Point3n(np.array([0.0]), np.array([1e-3j]))
    plan = [("flat-H", 4.0), ("eguchi-hanson", 4.0),
            ("taub-nut", 3.0), ("flat-cylinder", 3.0)]
    total_samples = 0
    ok = True
    msgs = []
    for name, want in plan:
        e = entry(name)
        fit = verify.growth_fit(e.arrangement, e.deformation, base, radii,
                                rng=np.random.default_rng(47))
        total_samples += fit.samples
        msgs.append(f"{name} {fit.exponent:.2f}")
        ok = ok and abs(fit.exponent - want) <= 0.2
    elapsed = time.perf_counter() - start
    _line(7, f"growth exponents {', '.join(msgs)} "
             f"({total_samples} samples, {elapsed:.1f}s)",
          ok and total_samples <= 10 ** 6 and elapsed < 120.0)


def test_criterion_08_classification_goldens():
    keys = ["smooth", "simply_connected", "flat_factor_l", "ale_label",
            "cone_over_3sasakian", "taub_nut_order", "volume_growth_exponent"]
    ok = True
    checked = 0
    for e in catalog():
        rep = classification_report(e.arrangement, e.deformation)
        got = rep.as_dict()
        want = e.expected_values()
        for key in keys:
            if key in want:
                ok = ok and got[key] == want[key]
                checked += 1
        if "failing_stratum_active" in want:
            ok = ok and tuple(rep.failing_stratum.active) == tuple(
                want["failing_stratum_active"])
            rows = [e.arrangement.flats[k].normal
                    for k in rep.failing_stratum.active]
            ok = ok and lattice.invariant_factors(rows) == list(
                want["invariant_factors"])
            checked += 2
    _line(8, f"classification goldens, {checked} fields over "
             f"{len(catalog())} entries incl. designed-to-fail", ok)


def test_criterion_09_local_models_and_printed_form():
    rng = np.random.default_rng(49)
    p = rng.uniform(-4.0, 4.0, (10 ** 4, 3))
    y = localmodel.chart_inverse(p)
    round_dev = float(np.abs(localmodel.orbit_chart(y) - p).max())
    membership = localmodel.variety_residual(y)
    y_bad = localmodel.chart_inverse_printed(p)
    bad_round = float(np.abs(localmodel.orbit_chart(y_bad) - p).max())
    bad_membership = localmodel.variety_residual(y_bad)
    _line(9, f"orbit chart inverse dev {round_dev:.1e}, membership "
             f"{membership:.1e} on 1e4 pts; printed form devs "
             f"{bad_round:.1e}/{bad_membership:.1e}",
          round_dev <= 1e-12 and membership <= 1e-12
          and bad_round > 0.1 and bad_membership > 0.1)


def test_criterion_10_potential_round_trip():
    worst = 0.0
    for e in catalog():
        rep = _run_named_check(e, "roundtrip")
        assert rep.samples == 20, e.name
        assert rep.passed, (e.name, rep.max_residual)
        worst = max(worst, rep.max_residual)
    _line(10, f"Legendre round trip, 20 pts x {len(catalog())} entries, "
              f"worst {worst:.2e}", worst <= 1e-8)
