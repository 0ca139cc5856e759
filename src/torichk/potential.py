"""Potential data of a flat arrangement and the numerical Legendre transform.

Everything derives from one scalar potential on R^n x C^n,

    F(x, z) = sum_k a_k (s_k log(s_k + r_k) - r_k)
            + sum_ij B_ij (2 x_i x_j - z_i conj(z_j)),

with per-flat quantities s_k = <x,u_k> - l1_k, v_k = <z,u_k> - (l2_k + i l3_k)
and r_k = sqrt(s_k^2 + |v_k|^2) (the Euclidean-style distance data of the
flat).  One kernel computes them: FlatArrangement.svr, over the per-flat
arrays FlatArrangement.frame that are built once per arrangement.  eval_Phi,
eval_connection, eval_metric and quotient_metric take a Point3n whose x and z
have shape (..., n) and return one matrix per point, (..., n, n) and so on;
a single point is the (n,) case of the same code, and phi_batch is Phi over
plain (N, n) arrays.  eval_F and eval_F_z take a single point.  F is
harmonic on every affine 3-plane spanned by one copy of R^3; all geometric
quantities below are closed-form derivatives of it:

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
domain {s_k + r_k > 0 for all k}.

The fiber coordinates y_i are normalized to period 2*pi; volume
normalizations elsewhere depend on this choice.
"""

from dataclasses import dataclass

import numpy as np

from .arrangement import DeformationMatrix, FlatArrangement, Point3n
from .config import DEFAULT, Tolerances
from .errors import (BranchLocusError, DifferentiationError, DomainEscapeError,
                     NoConvergenceError, OnFlatError)

__all__ = [
    "Point3n", "ConnectionForm", "KahlerChartPoint", "ReconstructedPotential",
    "eval_F", "eval_Phi", "eval_connection", "eval_metric", "quotient_metric",
    "moment_map", "legendre_solve", "reconstruct_F_from_K",
]


def _bmat(B, n: int) -> np.ndarray:
    if B is None:
        return np.zeros((n, n))
    if isinstance(B, DeformationMatrix):
        mat = B.entries
    else:
        mat = DeformationMatrix(B).entries
    if mat.shape != (n, n):
        raise ValueError(f"deformation matrix has shape {mat.shape}, expected {(n, n)}")
    return mat


def _check_off_flats(r, tol):
    """Raise OnFlatError if any point of r (..., d) lies within tol of a flat."""
    if r.size and r.min() <= tol:
        at = np.unravel_index(np.argmin(r), r.shape)
        raise OnFlatError(int(at[-1]), float(r[at]))


def _check_off_branch(s, r, tol):
    """Raise BranchLocusError if any point has s_k + r_k <= tol."""
    t = s + r
    if t.size and t.min() <= tol:
        at = np.unravel_index(np.argmin(t), t.shape)
        raise BranchLocusError(int(at[-1]), float(t[at]))


def _single(p: Point3n):
    if p.x.ndim != 1:
        raise ValueError(f"expected a single point of shape (n,), got {p.x.shape}")


def eval_F(arr: FlatArrangement, B, p: Point3n, cfg: Tolerances = DEFAULT) -> float:
    """The master potential at a single point p.  Linear-in-x gauge terms are
    fixed to zero."""
    _single(p)
    a = arr.frame.a
    s, v, r = arr.svr(p.x, p.z)
    _check_off_flats(r, cfg.on_flat)
    _check_off_branch(s, r, cfg.branch)
    total = float(np.sum(a * (s * np.log(s + r) - r))) if r.size else 0.0
    Bm = _bmat(B, arr.dimension)
    total += 2.0 * float(p.x @ Bm @ p.x) - float((p.z @ Bm @ p.z.conj()).real)
    return total


def eval_F_z(arr: FlatArrangement, B, p: Point3n, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Wirtinger gradient dF/dz_l = -sum_k a_k (u_k)_l conj(v_k)/(2(s_k+r_k)) - (B conj(z))_l
    at a single point p."""
    _single(p)
    U, a = arr.frame.U, arr.frame.a
    s, v, r = arr.svr(p.x, p.z)
    _check_off_flats(r, cfg.on_flat)
    _check_off_branch(s, r, cfg.branch)
    g = -(_bmat(B, arr.dimension) @ p.z.conj())
    if r.size:
        g = g - (a * v.conj() / (2.0 * (s + r))) @ U.astype(complex)
    return g


def _phi(arr: FlatArrangement, Bm: np.ndarray, r: np.ndarray) -> np.ndarray:
    """B + (1/4) sum_k a_k u_k u_k^T / r_k for flat distances r (..., d)."""
    if not r.shape[-1]:
        return np.broadcast_to(Bm, r.shape[:-1] + Bm.shape).copy()
    U, a = arr.frame.U, arr.frame.a
    return Bm + np.einsum("...k,ki,kj->...ij", a / (4.0 * r), U, U)


def eval_Phi(arr: FlatArrangement, B, p: Point3n, cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Closed-form Phi(p) = B + (1/4) sum_k a_k u_k u_k^T / r_k, (..., n, n) SPD off flats."""
    _, _, r = arr.svr(p.x, p.z)
    _check_off_flats(r, cfg.on_flat)
    phi = _phi(arr, _bmat(B, arr.dimension), r)
    return 0.5 * (phi + np.swapaxes(phi, -1, -2))


@dataclass(frozen=True, eq=False)
class ConnectionForm:
    """Fiber connection data: C[j][l] = F_{x_j z_l}(p).

    The real connection 1-forms entering the metric are
    A_j = (i/4) sum_l (conj(C)[j][l] d conj(z)_l - C[j][l] dz_l), i.e.
    A_j = (1/2) sum_l (Im C[j][l] d Re z_l + Re C[j][l] d Im z_l).
    """

    coefficients: np.ndarray

    def real_coefficients(self):
        """(coeff of dRe z, coeff of dIm z) as two real (..., n, n) arrays."""
        C = self.coefficients
        return 0.5 * C.imag, 0.5 * C.real


def eval_connection(arr: FlatArrangement, B, p: Point3n,
                    cfg: Tolerances = DEFAULT) -> ConnectionForm:
    """Mixed-derivative matrix C of F at p, (..., n, n); B contributes nothing."""
    U, a = arr.frame.U, arr.frame.a
    s, v, r = arr.svr(p.x, p.z)
    _check_off_flats(r, cfg.on_flat)
    _check_off_branch(s, r, cfg.branch)
    n = arr.dimension
    if r.shape[-1]:
        w = a * v.conj() / (2.0 * r * (s + r))
        C = np.einsum("...k,kj,kl->...jl", w, U.astype(complex), U.astype(complex))
    else:
        C = np.zeros(r.shape[:-1] + (n, n), dtype=complex)
    return ConnectionForm(C)


def eval_metric(arr: FlatArrangement, B, p: Point3n,
                cfg: Tolerances = DEFAULT) -> np.ndarray:
    """The 4n x 4n metric matrix in coordinates (x, Re z, Im z, y), (..., 4n, 4n).

    g = Phi on each of the three base blocks plus W^T Phi^{-1} W with
    W = [0 | Im C / 2 | Re C / 2 | I], the fiber term (dy + A)^2.  Raises
    BranchLocus on the connection's gauge (Dirac-string) locus, where this
    coordinate expression of the fiber form degenerates.
    """
    phi = eval_Phi(arr, B, p, cfg)
    wim, wre = eval_connection(arr, B, p, cfg).real_coefficients()
    n = arr.dimension
    W = np.zeros(phi.shape[:-1] + (4 * n,))
    W[..., n:2 * n] = wim
    W[..., 2 * n:3 * n] = wre
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


def quotient_metric(arr: FlatArrangement, B, p: Point3n,
                    cfg: Tolerances = DEFAULT) -> np.ndarray:
    """Metric induced on the torus quotient: Phi (+) Phi (+) Phi, (..., 3n, 3n)."""
    return _three_blocks(eval_Phi(arr, B, p, cfg), 3)


def moment_map(p: Point3n) -> np.ndarray:
    """(x_i, Re z_i, Im z_i): the identity in model coordinates."""
    return p.coords()


@dataclass(frozen=True, eq=False)
class KahlerChartPoint:
    """A solved chart point: grad_x F = 2(u + conj(u)) and K = F - 2 sum (u+cu) x."""

    u: np.ndarray
    z: np.ndarray
    x: np.ndarray
    K: float
    residual: float = 0.0
    iterations: int = 0


def _grad_x(arr, Bm, x, z):
    U, a = arr.frame.U, arr.frame.a
    s, _, r = arr.svr(x, z)
    t = s + r
    if t.size and t.min() <= 0.0:
        return None, None
    g = 4.0 * (Bm @ x)
    if t.size:
        g = g + (a * np.log(t)) @ U
    val = float(np.sum(a * (s * np.log(t) - r))) if t.size else 0.0
    val += 2.0 * float(x @ Bm @ x) - float((z @ Bm @ z.conj()).real)
    return g, val


def legendre_solve(arr: FlatArrangement, B, u, z, x0=None,
                   cfg: Tolerances = DEFAULT) -> KahlerChartPoint:
    """Solve grad_x F(x, z) = 2(u + conj(u)) by damped Newton with Hessian 4*Phi."""
    n = arr.dimension
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if u.shape != (n,) or z.shape != (n,):
        raise ValueError(f"u and z must have length {n}")
    Bm = _bmat(B, n)
    tau = 2.0 * (u + u.conj()).real

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    grad, fval = _grad_x(arr, Bm, x, z)
    if grad is None:
        raise DomainEscapeError("initial point lies outside the potential's domain")
    grad = grad - tau
    fval = fval - float(tau @ x)

    for it in range(1, cfg.newton_max_iter + 1):
        res = float(np.abs(grad).max()) if n else 0.0
        if res <= cfg.newton_residual:
            # fval is already K = F(x, z) - tau.x; only the domain checks remain
            s, _, r = arr.svr(x, z)
            _check_off_flats(r, cfg.on_flat)
            _check_off_branch(s, r, cfg.branch)
            return KahlerChartPoint(u=u, z=z, x=x, K=fval, residual=res, iterations=it - 1)
        hess = 4.0 * eval_Phi(arr, B, Point3n(x, z), cfg)
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise NoConvergenceError(res, it - 1) from None
        slope = float(grad @ step)
        # allow for floating noise in F so full steps survive near the minimum
        noise = 4e-12 * max(1.0, abs(fval))
        alpha = 1.0
        accepted = False
        for _ in range(60):
            trial = x + alpha * step
            g_new, f_new = _grad_x(arr, Bm, trial, z)
            if g_new is not None and (f_new - float(tau @ trial)
                                      <= fval + cfg.armijo * alpha * slope + noise):
                x = trial
                grad = g_new - tau
                fval = f_new - float(tau @ trial)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if g_new is None:
                raise DomainEscapeError(
                    "line search blocked by the domain boundary; "
                    "the requested fiber point is outside the chart")
            raise NoConvergenceError(float(np.abs(grad).max()), it)
    raise NoConvergenceError(float(np.abs(grad).max()), cfg.newton_max_iter)


@dataclass(frozen=True, eq=False)
class ReconstructedPotential:
    value: float
    x: np.ndarray


def reconstruct_F_from_K(kahler, u, z, step: float = DEFAULT.reconstruct_step,
                         cfg: Tolerances = DEFAULT) -> ReconstructedPotential:
    """Invert the Legendre transform given only a chart potential K(u, z).

    x_i = -(1/2) dK/du_i = -(1/4) dK/d(Re u_i) since K depends on u only
    through u + conj(u); then F = K + 2 sum_i (u_i + conj(u_i)) x_i.  The
    derivative uses a five-point stencil cross-validated at two spacings and
    fails loudly when the samples cannot support it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = u.shape[0]

    def grad_a(h):
        out = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            out[i] = (-kahler(u + 2 * h * e, z) + 8.0 * kahler(u + h * e, z)
                      - 8.0 * kahler(u - h * e, z) + kahler(u - 2 * h * e, z)) / (12.0 * h)
        return out

    g1 = grad_a(step)
    g2 = grad_a(step / 2.0)
    scale = max(1.0, float(np.abs(g1).max(initial=0.0)))
    if float(np.abs(g1 - g2).max(initial=0.0)) > 1e-6 * scale:
        raise DifferentiationError(
            f"chart derivative did not stabilize (step {step:.2e}: "
            f"disagreement {float(np.abs(g1 - g2).max()):.2e})")
    x = -0.25 * g2
    value = float(kahler(u, z)) + float((2.0 * (u + u.conj()).real) @ x)
    return ReconstructedPotential(value=value, x=x)


# -- batched evaluators (volume integration hot path) -----------------------

def phi_batch(arr: FlatArrangement, B, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Phi at many points: X (N, n) real, Z (N, n) complex -> (N, n, n).

    The formula of eval_Phi without its point validation and flat checks."""
    return _phi(arr, _bmat(B, arr.dimension), arr.svr(X, Z)[2])
