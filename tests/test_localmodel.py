"""Flat local models: moment map, invariants and the orbit chart."""

import numpy as np

from torichk.localmodel import (chart_inverse, chart_inverse_printed,
                                flat_moment_map, invariants_of, orbit_chart,
                                variety_residual)


def test_chart_inverse_roundtrip():
    rng = np.random.default_rng(100)
    p = rng.uniform(-5.0, 5.0, (10000, 3))
    y = chart_inverse(p)
    assert np.abs(orbit_chart(y) - p).max() <= 1e-12
    # the image lands on the variety with nonnegative y1, y2
    assert variety_residual(y) <= 1e-10
    assert y[:, :2].min() >= 0.0


def test_chart_inverse_printed_form_fails():
    # taking y1 = p1 verbatim breaks both the round trip and the variety
    rng = np.random.default_rng(101)
    p = rng.uniform(-5.0, 5.0, (10000, 3))
    y = chart_inverse_printed(p)
    assert np.abs(orbit_chart(y) - p).max() > 0.1
    assert variety_residual(y) > 1.0


def test_invariants_land_on_variety():
    rng = np.random.default_rng(102)
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    w = rng.normal(size=20) + 1j * rng.normal(size=20)
    y = invariants_of(z, w)
    assert variety_residual(y) <= 1e-12
    # y1 y2 = y3^2 + y4^2 spelled out
    assert np.allclose(y[:, 0] * y[:, 1], y[:, 2] ** 2 + y[:, 3] ** 2,
                       atol=1e-12)


def test_orbit_chart_composes_with_moment_map():
    rng = np.random.default_rng(103)
    z = rng.normal(size=15) + 1j * rng.normal(size=15)
    w = rng.normal(size=15) + 1j * rng.normal(size=15)
    assert np.allclose(orbit_chart(invariants_of(z, w)), flat_moment_map(z, w),
                       atol=1e-13)
