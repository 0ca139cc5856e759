"""The stencils themselves, pinned against hand-differentiated functions."""

import numpy as np

from torichk import fd


def _quadratic(A, b):
    def f(w):
        return 0.5 * float(w @ A @ w) + float(b @ w)
    return f


def test_hessian_exact_on_quadratics():
    rng = np.random.default_rng(400)
    for m in (1, 2, 4):
        M = rng.normal(size=(m, m))
        A = M + M.T
        f = _quadratic(A, rng.normal(size=m))
        H = fd.hessian(f, rng.normal(size=m), 1e-2)
        assert np.abs(H - A).max() <= 1e-9
        assert np.array_equal(H, H.T)


def test_hessian_second_order_truncation():
    def f(w):
        return float(np.exp(w[0]) * np.cos(w[1]))

    w = np.array([0.3, -0.7])
    want = np.array([[np.exp(0.3) * np.cos(-0.7), -np.exp(0.3) * np.sin(-0.7)],
                     [-np.exp(0.3) * np.sin(-0.7), -np.exp(0.3) * np.cos(-0.7)]])
    err_c = np.abs(fd.hessian(f, w, 2e-3) - want).max()
    err_f = np.abs(fd.hessian(f, w, 1e-3) - want).max()
    assert err_c / err_f >= 3.0


def test_laplacian3_on_harmonic_and_nonharmonic():
    # 1/|w| is harmonic away from 0
    def newton(w):
        return 1.0 / float(np.linalg.norm(w))

    c = np.array([0.8, -0.4, 0.5])
    assert abs(fd.laplacian3(newton, c, 1e-3)) <= 1e-5
    # and the residual is pure truncation: quarters when the step halves
    coarse = abs(fd.laplacian3(newton, c, 2e-3))
    fine = abs(fd.laplacian3(newton, c, 1e-3))
    assert coarse / fine >= 3.5
    # |w|^2 has Laplacian exactly 6
    def square(w):
        return float(w @ w)

    assert abs(fd.laplacian3(square, c, 1e-3) - 6.0) <= 1e-7
