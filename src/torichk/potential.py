"""Potential data of a flat arrangement and the numerical Legendre transform.

Everything derives from one scalar potential on R^n x C^n,

    F(x, z) = sum_k a_k (s_k log(s_k + r_k) - r_k)
            + sum_ij B_ij (2 x_i x_j - z_i conj(z_j)),

with per-flat quantities s_k = <x,u_k> - l1_k, v_k = <z,u_k> - (l2_k + i l3_k)
and r_k = sqrt(s_k^2 + |v_k|^2) (the Euclidean-style distance data of the
flat).  One kernel, FlatArrangement.svr over the arrays FlatArrangement.frame,
computes them and t_k = s_k + r_k under the logarithm, for the evaluators and
for every trial point of the Newton line search alike.  This module alone
holds the domain rule (every r_k above DEFAULT.on_flat and, but for Phi,
every t_k above DEFAULT.branch): _check_domain raises it for every evaluator
and the Newton solver; _off_domain is its per-point mask.  With no flats
(d = 0) the same path runs: each sum over k is empty, so Phi = B and C = 0.
eval_Phi, eval_connection, eval_metric and quotient_metric take a Point3n
whose x and z have shape (..., n) and return one matrix per point,
(..., n, n) and so on; a single point is the (n,) case of the same code,
and phi_batch is Phi over plain (N, n) arrays.  eval_F takes the same
batches and returns (...), a float for a single point, and eval_F_z returns
(..., n).  F is harmonic on every affine 3-plane spanned by one copy of R^3;
all geometric quantities below are closed-form derivatives of it:

    Phi      = (1/4) F_xx          = B + (1/4) sum_k a_k u_k u_k^T / r_k
    C[j][l]  = F_{x_j z_l}         = sum_k a_k u_kj u_kl conj(v_k)
                                           / (2 r_k (s_k + r_k))
    metric   = Phi (+) Phi (+) Phi on (x, Re z, Im z)  plus
               (Phi^{-1})_ij (dy_i + A_i)(dy_j + A_j) on the torus fibers,

where the real 1-forms A_j = (i/4) sum_l (conj(C)[j][l] dcz_l - C[j][l] dz_l)
make the metric Ricci-flat (the factor pairs with Phi = F_xx/4 and the unit
fiber coefficient; see the curvature checks in the verify module).  The
Kaehler potential of the chart (u, z) is the Legendre transform

    K = F - 2 sum_i (u_i + conj(u_i)) x_i,   grad_x F = 2 (u + conj(u)),

computed by a damped Newton iteration: F is strictly convex in x wherever
Phi is positive definite, so the solve is globally convergent inside the
domain {s_k + r_k > 0 for all k}.  One kernel runs it over a stack of
(u, z) rows, each with its own convergence test, Armijo backtracking and
iteration count; every row gets the values it gets when solved alone.  A
stack stops at its first failing row and raises the error that row raises
alone; the verify module's _stacked picks which sample's error a check
raises.  legendre_solve is its single-point form.  reconstruct_F_from_K
takes a stacked chart potential, kahler(u (..., K, n), z (..., K, n)) ->
(..., K), and calls it once with every node of the stencils of every chart
point it is given, so the verify module solves the stencils of a whole
sample set of charts as one stack.

The fiber coordinates y_i are normalized to period 2*pi; volume
normalizations elsewhere depend on this choice.
"""

from dataclasses import dataclass, fields

import numpy as np

from .arrangement import DeformationMatrix, FlatArrangement, Point3n
from .config import DEFAULT
from .errors import (BranchLocusError, DifferentiationError, DomainEscapeError,
                     EvaluationError, NoConvergenceError, OnFlatError)

__all__ = [
    "Point3n", "KahlerChartPoint", "ReconstructedPotential",
    "eval_F", "eval_F_z", "eval_Phi", "eval_connection", "eval_metric",
    "quotient_metric", "legendre_solve", "reconstruct_F_from_K", "phi_batch",
]


def _check_domain(r, t, branch=True):
    """The domain rule of every evaluator, for flat data r, t (..., d) of svr.

    Raises OnFlatError if a point has r_k <= DEFAULT.on_flat, then, if branch,
    BranchLocusError if one has t_k <= DEFAULT.branch; each names the
    flat and the value at the argmin.  With no flats nothing is tested.
    """
    tests = [(r, DEFAULT.on_flat, OnFlatError)]
    if branch:
        tests.append((t, DEFAULT.branch, BranchLocusError))
    for q, tol, error in tests:
        if q.min(initial=np.inf) <= tol:
            at = np.unravel_index(np.argmin(q), q.shape)
            raise error(int(at[-1]), float(q[at]))


def _off_domain(r, t):
    """Per point (...), whether _check_domain(r, t) refuses it."""
    return ((r.min(axis=-1, initial=np.inf) <= DEFAULT.on_flat)
            | (t.min(axis=-1, initial=np.inf) <= DEFAULT.branch))


def eval_F(arr: FlatArrangement, B, p: Point3n):
    """The master potential at p: a float for a single point, (...) for a batch.

    Linear-in-x gauge terms are fixed to zero.  A point whose B terms
    overflow float64 raises EvaluationError."""
    a = arr.frame.a
    s, _, r, t = arr.svr(p.x, p.z)
    _check_domain(r, t)
    flats = np.sum(a * (s * np.log(t) - r), axis=-1)
    Bm = DeformationMatrix.of(B, arr.dimension).entries
    q1 = np.einsum("...i,ij,...j->...", p.x, Bm, p.x)
    q2 = np.einsum("...i,ij,...j->...", p.z, Bm, p.z.conj()).real
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf follows an overflow
        total = flats + (2.0 * q1 - q2)
    # a Point3n is finite, and einsum overflows without a warning, so any
    # non-finite sum of finite flat terms is an overflow of the B terms
    if (~np.isfinite(total) & np.isfinite(flats)).any():
        raise EvaluationError(f"master potential F overflows at a finite point: with B "
                              f"up to {np.abs(Bm).max():.3e}, its value exceeds float64")
    return float(total) if total.ndim == 0 else total


def eval_F_z(arr: FlatArrangement, B, p: Point3n) -> np.ndarray:
    """Wirtinger gradient dF/dz_l = -sum_k a_k (u_k)_l conj(v_k)/(2(s_k+r_k)) - (B conj(z))_l,
    (..., n) complex."""
    U, a = arr.frame.U, arr.frame.a
    _, v, r, t = arr.svr(p.x, p.z)
    _check_domain(r, t)
    Bm = DeformationMatrix.of(B, arr.dimension).entries
    w = a * v.conj() / (2.0 * t)
    # one-row gemv calls, as for a single point
    return (-(Bm @ p.z.conj()[..., None])[..., 0]
            - (w[..., None, :] @ U.astype(complex))[..., 0, :])


def _phi(arr: FlatArrangement, Bm: np.ndarray, r: np.ndarray) -> np.ndarray:
    """B + (1/4) sum_k a_k u_k u_k^T / r_k for flat distances r (..., d)."""
    U, a = arr.frame.U, arr.frame.a
    phi = np.einsum("...k,ki,kj->...ij", a / (4.0 * r), U, U)
    phi += Bm  # in place: one (..., n, n) array, not two
    return phi


def eval_Phi(arr: FlatArrangement, B, p: Point3n) -> np.ndarray:
    """Closed-form Phi(p) = B + (1/4) sum_k a_k u_k u_k^T / r_k, (..., n, n) SPD off flats."""
    _, _, r, t = arr.svr(p.x, p.z)
    _check_domain(r, t, branch=False)
    phi = _phi(arr, DeformationMatrix.of(B, arr.dimension).entries, r)
    return 0.5 * (phi + np.swapaxes(phi, -1, -2))


def eval_connection(arr: FlatArrangement, B, p: Point3n) -> np.ndarray:
    """Mixed-derivative matrix C = F_xz of F at p, complex (..., n, n); B contributes nothing."""
    U, a = arr.frame.U, arr.frame.a
    _, v, r, t = arr.svr(p.x, p.z)
    _check_domain(r, t)
    w = a * v.conj() / (2.0 * r * t)
    return np.einsum("...k,kj,kl->...jl", w, U.astype(complex), U.astype(complex))


def eval_metric(arr: FlatArrangement, B, p: Point3n) -> np.ndarray:
    """The 4n x 4n metric matrix in coordinates (x, Re z, Im z, y), (..., 4n, 4n).

    g = Phi on each of the three base blocks plus W^T Phi^{-1} W with
    W = [0 | Im C / 2 | Re C / 2 | I], the fiber term (dy + A)^2.  Raises
    BranchLocus on the connection's gauge (Dirac-string) locus, where this
    coordinate expression of the fiber form degenerates.
    """
    phi = eval_Phi(arr, B, p)
    C = eval_connection(arr, B, p)
    n = arr.dimension
    W = np.zeros(phi.shape[:-1] + (4 * n,))
    W[..., n:2 * n] = 0.5 * C.imag
    W[..., 2 * n:3 * n] = 0.5 * C.real
    W[..., 3 * n:] = np.eye(n)
    try:
        chol = np.linalg.cholesky(phi)
    except np.linalg.LinAlgError:
        raise ValueError("Phi is not positive definite at this point; "
                         "metric undefined") from None
    half = np.linalg.solve(chol, W)
    g = _three_blocks(phi, 4)
    g += np.swapaxes(half, -1, -2) @ half
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _three_blocks(phi: np.ndarray, size: int) -> np.ndarray:
    """(..., size*n, size*n) zeros with phi on the first three diagonal blocks."""
    n = phi.shape[-1]
    g = np.zeros(phi.shape[:-2] + (size * n, size * n))
    for b in range(3):
        g[..., b * n:(b + 1) * n, b * n:(b + 1) * n] = phi
    return g


def quotient_metric(arr: FlatArrangement, B, p: Point3n) -> np.ndarray:
    """Metric induced on the torus quotient: Phi (+) Phi (+) Phi, (..., 3n, 3n)."""
    return _three_blocks(eval_Phi(arr, B, p), 3)


@dataclass(frozen=True, eq=False)
class KahlerChartPoint:
    """A solved chart point: grad_x F = 2(u + conj(u)) and K = F - 2 sum (u+cu) x.

    A stack of them holds u, z, x (..., n) and K, residual, iterations (...).
    """

    u: np.ndarray
    z: np.ndarray
    x: np.ndarray
    K: float
    residual: float = 0.0
    iterations: int = 0

    def __len__(self) -> int:
        if np.ndim(self.K) == 0:
            raise TypeError("a single chart point has no length; only a stack does")
        return len(self.K)

    def __getitem__(self, i) -> "KahlerChartPoint":
        """The chart points i of the leading stack axis: an index or a slice."""
        len(self)
        return KahlerChartPoint(*(getattr(self, f.name)[i] for f in fields(self)))


def _dot(a, b):
    """Row-wise dot product of two (..., n) stacks, one dot call of a @ b per row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _legendre_objective(arr, Bm, x, vv, zbz, tau):
    """K = F - tau.x and its x-gradient at the rows x (K, n), z held fixed.

    vv (K, d) is |v|^2 and zbz (K,) is Re(z B conj(z)) at the rows' z.
    Returns (ok, grad, K, r, t), where ok (K,) marks the rows inside the
    domain (every t_k > 0), the other rows carrying placeholder values, and
    r, t (K, d) are the flat data of svr at the rows.
    Each product is a stack of the one-row BLAS calls (gemv or dot) that a
    single point makes, so no row depends on the stack it is in.
    """
    U, a = arr.frame.U, arr.frame.a
    s, _, r, t = arr.svr(x, vv=vv)
    g = 4.0 * (Bm @ x[:, :, None])[:, :, 0]
    val = 2.0 * _dot((x[:, None, :] @ Bm)[:, 0], x) - zbz
    ok = np.minimum.reduce(t, axis=1, initial=np.inf) > 0.0
    logt = np.log(t if ok.all() else np.where(ok[:, None], t, 1.0))
    g = g + ((a * logt)[:, None, :] @ U)[:, 0]
    val = np.add.reduce(a * (s * logt - r), axis=1) + val
    return ok, g - tau, val - _dot(tau, x), r, t


def _newton(arr, B, u, z, x):
    """Damped Newton for grad_x F(x, z) = 2(u + conj(u)) on each row of (K, n) stacks.

    x holds the starting points, broadcast to (K, n).  Every row runs its own
    iteration: Hessian 4 Phi at its iterate, convergence test, Armijo
    backtracking and iteration count, with the values a stack of that one
    row gives.  Returns (x, K, residual, iterations), one entry per row.
    The stack stops at its first failing row, the first to fail as the
    iterations run, and raises the error that row raises alone; the verify
    module's _stacked picks which sample's error a check raises.
    """
    n = u.shape[1]
    Bm = DeformationMatrix.of(B, n).entries
    out_x, out_K = np.empty(u.shape), np.empty(len(u))
    out_res, out_it = np.empty(len(u)), np.zeros(len(u), dtype=int)
    rows = np.arange(len(u))
    x = np.array(np.broadcast_to(x, u.shape), dtype=float)
    tau = 2.0 * (u + u.conj()).real
    zbz = _dot((z[:, None, :] @ Bm.astype(complex))[:, 0], z.conj()).real
    v = arr.svr(x, z)[1]
    vv = (v * v.conj()).real  # z is fixed per row: svr reads |v|^2 from here on
    ok, g, f, r, t = _legendre_objective(arr, Bm, x, vv, zbz, tau)
    if not ok.all():
        raise DomainEscapeError("initial point lies outside the potential's domain")
    for it in range(1, DEFAULT.newton_max_iter + 1):
        res = np.maximum.reduce(np.abs(g), axis=1)
        # Phi, the Hessian, is undefined on a flat
        stop = ((res <= DEFAULT.newton_residual)
                | (np.minimum.reduce(r, axis=1, initial=np.inf) <= DEFAULT.on_flat))
        if stop.any():
            _check_domain(r[stop], t[stop])
            j = rows[stop]
            out_x[j], out_K[j], out_res[j], out_it[j] = x[stop], f[stop], res[stop], it - 1
            if stop.all():
                break
            keep = ~stop
            rows, x, vv, zbz, tau, g, f, r, t, res = (
                col[keep] for col in (rows, x, vv, zbz, tau, g, f, r, t, res))
        phi = _phi(arr, Bm, r)
        # 4 times eval_Phi's 0.5 (phi + phi^T): scaling by 2 is exact
        hess = 2.0 * (phi + np.swapaxes(phi, 1, 2))
        try:
            step = -np.linalg.solve(hess, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # one singular row fails the whole stack: solve the rows one at a time
            step = np.zeros_like(g)
            for j in range(len(rows)):
                try:
                    step[j] = -np.linalg.solve(hess[j], g[j])
                except np.linalg.LinAlgError:
                    raise NoConvergenceError(float(res[j]), it - 1) from None
        slope = _dot(g, step)
        # allow for floating noise in F so full steps survive near the minimum
        noise = 4e-12 * np.maximum(1.0, np.abs(f))
        alpha = np.ones(len(rows))
        todo = np.ones(len(rows), dtype=bool)
        for _ in range(60):
            trial = x + alpha[:, None] * step
            inside, g_new, f_new, r_new, t_new = _legendre_objective(
                arr, Bm, trial, vv, zbz, tau)
            acc = todo & inside & (f_new <= f + DEFAULT.armijo * alpha * slope + noise)
            if acc.all():
                x, g, f, r, t = trial, g_new, f_new, r_new, t_new
                break
            x[acc], g[acc], f[acc], r[acc], t[acc] = (
                trial[acc], g_new[acc], f_new[acc], r_new[acc], t_new[acc])
            todo &= ~acc
            if not todo.any():
                break
            alpha[todo] *= 0.5
        else:
            j = todo.argmax()
            if inside[j]:
                raise NoConvergenceError(float(res[j]), it)
            raise DomainEscapeError("line search blocked by the domain boundary; "
                                    "the requested fiber point is outside the chart")
    else:
        if len(rows):  # an empty stack has no row to fail
            raise NoConvergenceError(float(np.abs(g[0]).max()), DEFAULT.newton_max_iter)
    return out_x, out_K, out_res, out_it


def legendre_solve(arr: FlatArrangement, B, u, z, x0=None) -> KahlerChartPoint:
    """Solve grad_x F(x, z) = 2(u + conj(u)) by damped Newton with Hessian 4*Phi."""
    n = arr.dimension
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if u.shape != (n,) or z.shape != (n,):
        raise ValueError(f"u and z must have length {n}")
    x, K, res, its = _newton(arr, B, u[None], z[None], 0.0 if x0 is None else x0)
    return KahlerChartPoint(u=u, z=z, x=x[0], K=float(K[0]), residual=float(res[0]),
                            iterations=int(its[0]))


@dataclass(frozen=True, eq=False)
class ReconstructedPotential:
    """F and x rebuilt from K: a float and (n,), or (...) and (..., n) for a stack."""

    value: float
    x: np.ndarray


def reconstruct_F_from_K(kahler, u, z,
                         step: float = DEFAULT.reconstruct_step) -> ReconstructedPotential:
    """Invert the Legendre transform given only a chart potential K(u, z).

    x_i = -(1/2) dK/du_i = -(1/4) dK/d(Re u_i) since K depends on u only
    through u + conj(u); then F = K + 2 sum_i (u_i + conj(u_i)) x_i.  The
    derivative uses a five-point stencil cross-validated at two spacings and
    fails loudly when the samples cannot support it.  u and z are one chart
    point (n,) or a stack of them (..., n).  kahler takes the stencil points
    u (..., K, n) and z (..., K, n) and returns their K values (..., K); it is
    called once, with the 6n + 1 distinct points u + c e_i for c in +-2h,
    +-h, +-h/2 at h = step, then u itself, of every chart point: the
    stencils at spacings h and h / 2 share the nodes u +- h e_i.  The value
    is a float for one chart point and (...) for a stack.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = u.shape[-1]
    spacings = (step, step / 2.0)
    c = step * np.array([2.0, -2.0, 1.0, -1.0, 0.5, -0.5])
    uu = u[..., None, :]
    U = np.concatenate([(uu[..., None, :] + c[:, None, None] * np.eye(n))
                        .reshape(u.shape[:-1] + (6 * n, n)), uu], axis=-2)
    k = np.asarray(kahler(U, np.repeat(z[..., None, :], U.shape[-2], axis=-2)), dtype=float)
    # the rows of c at +2s, +s, -s, -2s; each (..., 2, n): a row per spacing s
    kp2, kp1, km1, km2 = np.moveaxis(
        k[..., :-1].reshape(k.shape[:-1] + (6, n))[..., [[0, 2, 3, 1], [2, 4, 5, 3]], :], -2, 0)
    g = (-kp2 + 8.0 * kp1 - 8.0 * km1 + km2) / (12.0 * np.array(spacings)[:, None])
    g1, g2 = g[..., 0, :], g[..., 1, :]
    scale = np.maximum(1.0, np.abs(g1).max(axis=-1, initial=0.0))
    gap = np.abs(g1 - g2).max(axis=-1, initial=0.0)
    unstable = ~(gap <= 1e-6 * scale)  # a NaN gap is unstable too
    if unstable.any():
        raise DifferentiationError(
            f"chart derivative did not stabilize (step {step:.2e}: "
            f"disagreement {float(gap[unstable].flat[0]):.2e})")
    x = -0.25 * g2
    value = k[..., -1] + _dot(2.0 * (u + u.conj()).real, x)
    return ReconstructedPotential(value=float(value) if value.ndim == 0 else value, x=x)


# -- batched evaluators (volume integration hot path) -----------------------

def phi_batch(arr: FlatArrangement, B, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Phi at many points: X (N, n) real, Z (N, n) complex -> (N, n, n).

    The formula of eval_Phi without its point validation and flat checks.  The
    flat distances come from svr_by_flat, whose (d, N) layout runs each step
    over N values at a time, with the bits that svr gives."""
    return _phi(arr, DeformationMatrix.of(B, arr.dimension).entries, arr.svr_by_flat(X, Z)[2].T)
