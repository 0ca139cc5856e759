"""Flat local models on C^2n: moment maps, invariants and orbit charts.

Per quaternionic coordinate (z_i, w_i) the circle action e^{it}(z, w) =
(e^{it} z, e^{-it} w) has moment map mu0 and invariant polynomials

    y1 = |z|^2,  y2 = |w|^2,  y3 = Re(zw),  y4 = Im(zw),
    y1 y2 = y3^2 + y4^2,  y1, y2 >= 0,

which model a neighborhood of a fixed point of the torus action.  The orbit
chart mu0-bar (y1, y2, y3, y4) -> ((y1 - y2)/2, y3, y4) is a homeomorphism of
the variety onto R^3; its inverse is

    y1 = p1 + sqrt(p1^2 + p2^2 + p3^2),  y2 = -p1 + sqrt(...),  y3 = p2,  y4 = p3

(the unique solution of y1 - y2 = 2 p1, y1 y2 = p2^2 + p3^2 with y1, y2 >= 0;
a first component of plain "p1" fails both conditions, which the test suite
demonstrates explicitly).
"""

import numpy as np

__all__ = [
    "flat_moment_map", "invariants_of", "variety_residual", "orbit_chart",
    "chart_inverse", "chart_inverse_printed",
]


def _zw(z, w):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if z.shape != w.shape:
        raise ValueError("z and w must have the same length")
    return z, w


def flat_moment_map(z, w) -> np.ndarray:
    """mu0 per index: rows (|z|^2 - |w|^2)/2, Re(zw), Im(zw); shape (n, 3)."""
    z, w = _zw(z, w)
    zw = z * w
    return np.stack([0.5 * (np.abs(z) ** 2 - np.abs(w) ** 2), zw.real, zw.imag], axis=1)


def invariants_of(z, w) -> np.ndarray:
    """Invariant coordinates per index: rows (y1, y2, y3, y4); shape (n, 4)."""
    z, w = _zw(z, w)
    zw = z * w
    return np.stack([np.abs(z) ** 2, np.abs(w) ** 2, zw.real, zw.imag], axis=1)


def variety_residual(y) -> float:
    """Max violation of y1 y2 = y3^2 + y4^2, y1 >= 0, y2 >= 0."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    rel = np.abs(y[:, 0] * y[:, 1] - y[:, 2] ** 2 - y[:, 3] ** 2)
    neg = np.maximum(0.0, -np.minimum(y[:, 0], y[:, 1]))
    return float(np.maximum(rel, neg).max(initial=0.0))


def orbit_chart(y) -> np.ndarray:
    """mu0-bar on invariants: rows ((y1 - y2)/2, y3, y4); shape (n, 3)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return np.stack([0.5 * (y[:, 0] - y[:, 1]), y[:, 2], y[:, 3]], axis=1)


def chart_inverse(p) -> np.ndarray:
    """Inverse of the orbit chart, rows (y1, y2, y3, y4); shape (n, 4)."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    norm = np.sqrt(np.sum(p * p, axis=1))
    return np.stack([p[:, 0] + norm, -p[:, 0] + norm, p[:, 1], p[:, 2]], axis=1)


def chart_inverse_printed(p) -> np.ndarray:
    """The uncorrected first component (y1 = p1): kept only so tests can
    demonstrate it violates the inverse property and the variety relations."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    norm = np.sqrt(np.sum(p * p, axis=1))
    return np.stack([p[:, 0], -p[:, 0] + norm, p[:, 1], p[:, 2]], axis=1)
