"""The closed forms of F, Phi, C = F_xz and the 4n-metric against 50-digit
mpmath formulas.

The reference takes the same float64 inputs (exact in mpmath) and evaluates
the formulas of the potential module's docstring in 50 significant
digits, so it shares none of their floating-point path.  The bound is on the
largest entry: |closed form - reference|.max <= REL * |reference|.max.
"""

import mpmath
import numpy as np
import pytest

from torichk import (DeformationMatrix, Flat, FlatArrangement, Point3n, entry, eval_F,
                     eval_Phi, eval_connection, eval_metric)

REL = 1e-13


def _svr(f, x, z):
    """s, v, r of flat f at (x, z), in mpmath."""
    u = f.normal
    l1, l2, l3 = (mpmath.mpf(o) for o in f.offsets)
    s = mpmath.fsum(k * mpmath.mpf(xi) for k, xi in zip(u, x)) - l1
    v = mpmath.fsum(k * mpmath.mpc(zi) for k, zi in zip(u, z)) - mpmath.mpc(l2, l3)
    return s, v, mpmath.sqrt(s * s + abs(v) ** 2)


def _reference(arr, B, p):
    """F, Phi (n, n) and C (n, n) at the point p, as mpmath numbers."""
    n = arr.dimension
    Bm = [[mpmath.mpf(b) for b in row] for row in DeformationMatrix.of(B, n).entries]
    x = [mpmath.mpf(float(c)) for c in p.x]
    z = [mpmath.mpc(complex(c)) for c in p.z]
    F = mpmath.fsum(2 * Bm[i][j] * x[i] * x[j] - (Bm[i][j] * z[i] * mpmath.conj(z[j])).real
                    for i in range(n) for j in range(n))
    Phi = [[Bm[i][j] for j in range(n)] for i in range(n)]
    C = [[mpmath.mpc(0) for _ in range(n)] for _ in range(n)]
    for f in arr.flats:
        a = mpmath.mpf(f.mass)
        u = f.normal
        s, v, r = _svr(f, x, z)
        F += a * (s * mpmath.log(s + r) - r)
        for i in range(n):
            for j in range(n):
                Phi[i][j] += a * u[i] * u[j] / (4 * r)
                C[i][j] += a * u[i] * u[j] * mpmath.conj(v) / (2 * r * (s + r))
    return F, Phi, C


def _metric(Phi, C):
    """The 4n-metric Phi (+) Phi (+) Phi + W^T Phi^{-1} W with
    W = [0 | Im C/2 | Re C/2 | I], (4n, 4n) as nested lists, in mpmath."""
    n = len(Phi)
    W = mpmath.zeros(n, 4 * n)
    for i in range(n):
        for j in range(n):
            W[i, n + j] = mpmath.im(C[i][j]) / 2
            W[i, 2 * n + j] = mpmath.re(C[i][j]) / 2
        W[i, 3 * n + i] = 1
    g = W.T * mpmath.inverse(mpmath.matrix(Phi)) * W
    for b in range(3):
        for i in range(n):
            for j in range(n):
                g[b * n + i, b * n + j] += Phi[i][j]
    return g.tolist()


def _rel_error(got, want):
    """max |got - want| / max |want| over the entries, in mpmath."""
    got = np.atleast_1d(np.asarray(got)).ravel()
    want = [w for row in (want if isinstance(want, list) else [[want]]) for w in row]
    err = max(abs(mpmath.mpc(complex(g)) - w) for g, w in zip(got, want))
    return float(err / max(abs(w) for w in want))


def _point(x, z):
    return Point3n(np.array(x, dtype=float), np.array(z, dtype=complex))


def _near(center, distance):
    """A point at the given Euclidean distance from the R^3 point center,
    in a generic direction with positive x, so s > 0."""
    d = np.array([0.6, -0.48, 0.64])
    c = np.asarray(center, dtype=float) + distance * d
    return _point([c[0]], [c[1] + 1j * c[2]])


def _generic(n, seed, count=4, scale=3.0):
    rng = np.random.default_rng(seed)
    return [_point(rng.uniform(-scale, scale, n),
                   rng.uniform(-scale, scale, n) + 1j * rng.uniform(-scale, scale, n))
            for _ in range(count)]


_FAR = FlatArrangement(2, (
    Flat((1, 0), (1e6, -1e6, 1e6), 1.0),
    Flat((0, 1), (-1e6, 1e6, 1e6), 2.0),
    Flat((1, 1), (1e6, 1e6, -1e6), 0.5),
))

EH = entry("eguchi-hanson")
CASES = (
    [("eguchi-hanson-generic", EH.arrangement, EH.deformation, p) for p in _generic(1, 41)]
    + [("eguchi-hanson-1e-7", EH.arrangement, EH.deformation, _near([1.0, 0, 0], 1e-7)),
       ("eguchi-hanson-1e-6", EH.arrangement, EH.deformation, _near([1.0, 0, 0], 1e-6)),
       ("eguchi-hanson-far", EH.arrangement, EH.deformation, _point([40.0], [-30 + 5j]))]
    + [("n2-unimodular", entry("n2-unimodular").arrangement,
        entry("n2-unimodular").deformation, p) for p in _generic(2, 42)]
    + [("n2-offsets-1e6", _FAR, None, p) for p in _generic(2, 43, scale=10.0)]
)


@pytest.mark.parametrize("name, arr, B, p", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_closed_forms_match_the_50_digit_reference(name, arr, B, p):
    with mpmath.workdps(50):
        F, Phi, C = _reference(arr, B, p)
        assert _rel_error(eval_F(arr, B, p), F) <= REL
        assert _rel_error(eval_Phi(arr, B, p), Phi) <= REL
        assert _rel_error(eval_connection(arr, B, p), C) <= REL
        assert _rel_error(eval_metric(arr, B, p), _metric(Phi, C)) <= REL


# near the branch cut of flat-H (s < 0, |v| small) F, C and the metric built
# from C lose accuracy to the cancellation in s + r; the closed forms are not
# yet rewritten to avoid it
@pytest.mark.xfail(strict=True, reason="s + r cancels for s < 0 near the cut")
@pytest.mark.parametrize("x, z", [(-100.0, 1e-3), (-10.0, 0.01)])
@pytest.mark.parametrize("evaluator", [eval_F, eval_connection, eval_metric],
                         ids=["F", "C", "metric"])
def test_near_the_branch_cut_matches_the_50_digit_reference(evaluator, x, z):
    arr = entry("flat-H").arrangement
    p = _point([x], [z])
    with mpmath.workdps(50):
        F, Phi, C = _reference(arr, None, p)
        want = {eval_F: F, eval_connection: C, eval_metric: _metric(Phi, C)}[evaluator]
        assert _rel_error(evaluator(arr, None, p), want) <= REL
