"""Centered finite-difference stencils used by the verification oracles.

These are deliberately independent of the closed-form derivative code they
are used to check: plain second-order central differences on scalar
functions of a real vector.  The centres w are one point (m,) or a stack of
points (..., m); f takes the nodes of every stencil, (..., K, m), and returns
their values (..., K).  Each stencil calls it once with all of its nodes, and
a stack of centres is one call for the whole stack.
"""

import numpy as np

from .errors import DifferentiationError


def star(w, h):
    """The centre w (..., m) and its 2m neighbours, (..., 1 + 2m, m).

    Node 0 is w; nodes 1 + 2c and 2 + 2c are w + h e_c and w - h e_c.
    """
    w = np.asarray(w, dtype=float)
    m = w.shape[-1]
    E = h * np.eye(m)
    pm = np.stack([w[..., None, :] + E, w[..., None, :] - E], axis=-2)
    return np.concatenate([w[..., None, :], pm.reshape(w.shape[:-1] + (2 * m, m))], axis=-2)


def hessian(f, w, h):
    """Full symmetric Hessian of f: R^m -> R at w (..., m), (..., m, m), central differences;
    finite values whose combination overflows raise DifferentiationError."""
    S = star(w, h)
    m = S.shape[-1]
    E = h * np.eye(m)
    plus, minus = S[..., 1::2, :], S[..., 2::2, :]
    # nodes: the star of w, then (w +- e_i) +- e_j for each pair i < j
    i, j = np.triu_indices(m, 1)
    nodes = [S]
    if i.size:
        nodes += [plus[..., i, :] + E[j], plus[..., i, :] - E[j],
                  minus[..., i, :] + E[j], minus[..., i, :] - E[j]]
    vals = f(np.concatenate(nodes, axis=-2))
    fpp, fpm, fmp, fmm = np.split(vals[..., 1 + 2 * m:], 4, axis=-1)
    d = np.arange(m)
    H = np.empty(vals.shape[:-1] + (m, m))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf follows an overflow
        H[..., d, d] = (vals[..., 1:1 + 2 * m:2] - 2.0 * vals[..., :1]
                        + vals[..., 2:2 + 2 * m:2]) / (h * h)
        H[..., i, j] = H[..., j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    _refuse_overflow(H.reshape(H.shape[:-2] + (-1,)), vals, "Hessian", h)
    return H


def richardson_hessian(f, w, h):
    """(4 H(h) - H(2h)) / 3 for the Hessian H of hessian: O(h^4) truncation;
    finite Hessians whose combination overflows raise DifferentiationError."""
    fine, coarse = hessian(f, w, h), hessian(f, w, 2.0 * h)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf follows an overflow
        out = (4.0 * fine - coarse) / 3.0
    flat = out.shape[:-2] + (-1,)
    _refuse_overflow(out.reshape(flat), np.stack([fine, coarse], axis=-1).reshape(flat),
                     "Richardson Hessian", h)
    return out


def _laplacian(vals, h):
    """The 7-point Laplacian from the values on a star of step h, (..., 7) -> (...);
    finite values whose combination overflows raise DifferentiationError."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf follows an overflow
        total = -6.0 * vals[..., 0]
        for i in range(3):
            total += vals[..., 1 + 2 * i] + vals[..., 2 + 2 * i]
        total = total / (h * h)
    _refuse_overflow(total[..., None], vals, "Laplacian", h)
    return total


def _refuse_overflow(out, vals, name, h):
    """Raise DifferentiationError where a stencil's values (..., K) are all
    finite but its results (..., M) are not."""
    if (~np.isfinite(out).all(axis=-1) & np.isfinite(vals).all(axis=-1)).any():
        raise DifferentiationError(
            f"finite-difference {name} overflows at step {h:g}: the stencil values are "
            f"finite (up to {np.abs(vals).max():.3e}) but their combination is not")


def laplacian3(f, c, h):
    """7-point Laplacian of f: R^3 -> R at the centres c (..., 3)."""
    return _laplacian(f(star(c, h)), h)


def richardson_laplacian3(f, c, h):
    """(4 L(h) - L(2h)) / 3 for the 7-point Laplacian L: O(h^4) truncation.

    f gets the nodes of both stars in one call.
    """
    vals = f(np.concatenate([star(c, h), star(c, 2.0 * h)], axis=-2))
    return (4.0 * _laplacian(vals[..., :7], h) - _laplacian(vals[..., 7:], 2.0 * h)) / 3.0
