"""Centered finite-difference stencils used by the verification oracles.

These are deliberately independent of the closed-form derivative code they
are used to check: plain second-order central differences on scalar
functions of a real vector.
"""

import numpy as np


def hessian(f, w, h):
    """Full symmetric Hessian of f: R^m -> R at w, central differences."""
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


def laplacian3(f, c, h):
    """7-point Laplacian of f: R^3 -> R at center c."""
    c = np.asarray(c, dtype=float)
    total = -6.0 * f(c)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        total += f(c + e) + f(c - e)
    return total / (h * h)
