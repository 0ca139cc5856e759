"""Centered finite-difference stencils used by the verification oracles.

These are deliberately independent of the closed-form derivative code they
are used to check: plain second-order central differences on scalar
functions of a real vector.  f takes a stack of nodes (K, m) and returns
their values (K,); each stencil calls it once with all of its nodes.
"""

import numpy as np


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
    """Full symmetric Hessian of f: R^m -> R at w, central differences."""
    S = star(w, h)
    m = S.shape[-1]
    E = h * np.eye(m)
    plus, minus = S[1::2], S[2::2]
    # nodes: the star of w, then (w +- e_i) +- e_j for each pair i < j
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    nodes = [S]
    if pairs:
        i, j = np.array(pairs).T
        nodes += [plus[i] + E[j], plus[i] - E[j], minus[i] + E[j], minus[i] - E[j]]
    vals = f(np.concatenate(nodes))
    fpp, fpm, fmp, fmm = vals[1 + 2 * m:].reshape(4, len(pairs))
    H = np.empty((m, m))
    for i in range(m):
        H[i, i] = (vals[1 + 2 * i] - 2.0 * vals[0] + vals[2 + 2 * i]) / (h * h)
    for k, (i, j) in enumerate(pairs):
        H[i, j] = H[j, i] = (fpp[k] - fpm[k] - fmp[k] + fmm[k]) / (4.0 * h * h)
    return H


def _laplacian(vals, h):
    """The 7-point Laplacian from the values on a star of step h."""
    total = -6.0 * vals[0]
    for i in range(3):
        total += vals[1 + 2 * i] + vals[2 + 2 * i]
    return total / (h * h)


def laplacian3(f, c, h):
    """7-point Laplacian of f: R^3 -> R at center c."""
    return _laplacian(f(star(c, h)), h)


def richardson_laplacian3(f, c, h):
    """(4 L(h) - L(2h)) / 3 for the 7-point Laplacian L: O(h^4) truncation.

    f gets the nodes of both stars in one call.
    """
    vals = f(np.concatenate([star(c, h), star(c, 2.0 * h)]))
    return (4.0 * _laplacian(vals[:7], h) - _laplacian(vals[7:], 2.0 * h)) / 3.0
