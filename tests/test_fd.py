"""The stencils themselves, pinned against hand-differentiated functions.

Each f takes a stack of nodes (K, m), or (..., K, m) for a stack of centres,
and returns their values (K,) or (..., K).
"""

import numpy as np
import pytest

from torichk import DifferentiationError, fd


def _quadratic(A, b):
    def f(W):
        return 0.5 * np.einsum("ki,ij,kj->k", W, A, W) + W @ b
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
    def f(W):
        return np.exp(W[:, 0]) * np.cos(W[:, 1])

    w = np.array([0.3, -0.7])
    want = np.array([[np.exp(0.3) * np.cos(-0.7), -np.exp(0.3) * np.sin(-0.7)],
                     [-np.exp(0.3) * np.sin(-0.7), -np.exp(0.3) * np.cos(-0.7)]])
    err_c = np.abs(fd.hessian(f, w, 2e-3) - want).max()
    err_f = np.abs(fd.hessian(f, w, 1e-3) - want).max()
    assert err_c / err_f >= 3.0


def test_laplacian3_on_harmonic_and_nonharmonic():
    # 1/|w| is harmonic away from 0
    def newton(W):
        return 1.0 / np.linalg.norm(W, axis=1)

    c = np.array([0.8, -0.4, 0.5])
    assert abs(fd.laplacian3(newton, c, 1e-3)) <= 1e-5
    # and the residual is pure truncation: quarters when the step halves
    coarse = abs(fd.laplacian3(newton, c, 2e-3))
    fine = abs(fd.laplacian3(newton, c, 1e-3))
    assert coarse / fine >= 3.5
    # |w|^2 has Laplacian exactly 6
    def square(W):
        return np.einsum("ki,ki->k", W, W)

    assert abs(fd.laplacian3(square, c, 1e-3) - 6.0) <= 1e-7
    # the Richardson pair cancels the O(h^2) term: far below the plain stencil
    assert abs(fd.richardson_laplacian3(newton, c, 1e-2)) <= 1e-3 * abs(
        fd.laplacian3(newton, c, 1e-2))


def test_each_stencil_calls_f_once():
    calls = []

    def f(W):
        calls.append(W.shape)
        return np.einsum("ki,ki->k", W, W)

    fd.hessian(f, np.array([0.3, -0.7, 1.1]), 1e-3)
    assert calls == [(1 + 2 * 3 + 4 * 3, 3)]
    calls.clear()
    fd.laplacian3(f, np.array([0.8, -0.4, 0.5]), 1e-3)
    assert calls == [(7, 3)]
    calls.clear()
    fd.richardson_laplacian3(f, np.array([0.8, -0.4, 0.5]), 1e-3)
    assert calls == [(14, 3)]


def test_a_stack_of_centres_is_one_call_and_each_centre_alone():
    calls = []

    def f(W):
        calls.append(W.shape)
        return np.exp(W[..., 0]) * np.cos(W[..., 1]) / (1.0 + W[..., 2] ** 2)

    C = np.random.default_rng(401).normal(size=(2, 3, 3))
    K = {fd.hessian: 1 + 2 * 3 + 4 * 3, fd.laplacian3: 7, fd.richardson_laplacian3: 14}
    for stencil, nodes in K.items():
        calls.clear()
        got = stencil(f, C, 1e-3)
        assert calls == [(2, 3, nodes, 3)]
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], stencil(f, C[idx], 1e-3))


def test_laplacian_keeps_its_bits_and_refuses_an_overflow_of_finite_values():
    # in range, the sum is the one taken without the overflow check; finite
    # values past float64 once combined raise, and a non-finite value passes
    # through as before
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(5, 7)) * 1e3
    total = -6.0 * vals[..., 0]
    for i in range(3):
        total += vals[..., 1 + 2 * i] + vals[..., 2 + 2 * i]
    assert np.array_equal(fd._laplacian(vals, 1e-2), total / 1e-4)
    big = np.full((2, 7), 1e307)
    big[0, 1:] = 0.0
    with pytest.raises(DifferentiationError, match="^finite-difference Laplacian overflows"):
        fd._laplacian(big, 1e-3)
    vals[0, 0] = np.inf
    assert np.isinf(fd._laplacian(vals, 1e-2)[0])


def test_hessian_refuses_an_overflow_of_finite_values():
    # f = c x^2 on R^2 with finite values whose second difference exceeds
    # float64; a non-finite value passes through as before
    def f(W):
        return 1e306 * W[..., 0] ** 2 + W[..., 1]

    H = fd.hessian(f, np.zeros(2), 1e-3)
    assert H[1, 1] == 0.0
    with pytest.raises(DifferentiationError, match="^finite-difference Hessian overflows"):
        fd.hessian(f, np.array([[0.0, 0.0], [10.0, 0.0]]), 1e-3)
    H = fd.hessian(lambda W: np.where(W[..., 0] > 0, np.inf, 0.0), np.zeros(2), 1e-3)
    assert not np.isfinite(H).all()


def test_richardson_hessian_keeps_its_bits_and_refuses_an_overflow():
    rng = np.random.default_rng(401)
    A = rng.normal(size=(3, 3))
    A = A + A.T
    f = _quadratic(A, rng.normal(size=3))
    w = rng.normal(size=3)
    want = (4.0 * fd.hessian(f, w, 1e-2) - fd.hessian(f, w, 2e-2)) / 3.0
    assert np.array_equal(fd.richardson_hessian(f, w, 1e-2), want)

    def g(W):  # second derivative 6e307: finite, but four times it is not
        return 3e307 * W[..., 0] ** 2

    with pytest.raises(DifferentiationError,
                       match="^finite-difference Richardson Hessian overflows at step 0.001"):
        fd.richardson_hessian(g, np.zeros(1), 1e-3)
