"""Numerical certification of the constructed geometry.

Each operation here measures one defining identity with a finite-difference
oracle that is independent of the closed-form code being checked:

  * polyharmonicity of F on affine 3-planes p + R^3 (x) v (7-point Laplacian),
    and the harmonicity of every entry of Phi = F_xx / 4 on the same planes,
    at every n (a Richardson pair of 7-point Laplacians);
  * the Sp(n,C) block-Hessian condition (Hessians of the numerically
    Legendre-transformed Kaehler potential); at n=1, Sp(1,C) = SL(2,C) and
    it is the Monge-Ampere equation K_uu-bar K_zz-bar - K_uz-bar K_zu-bar = 1;
  * the chart-level Hessian identities K_uu-bar = -4 (F_xx)^{-1} and
    K_uz-bar = 2 (F_xx)^{-1} F_xz-bar;
  * Ricci-flatness of the 4n-metric by nested central differences;
  * the volume-growth exponent by integration of det Phi over distance-proxy
    balls, averaged over rotated lattices of ray directions at n = 1 and
    random directions above.

Residuals converge under step refinement; a check with a step measures at it
and at twice it and requires the expected decay before passing a verdict.
"""

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import fd
from .arrangement import (DeformationMatrix, FlatArrangement, Point3n,
                          classification_report)
from .config import DEFAULT
from .errors import (DomainEscapeError, EvaluationError, NoConvergenceError,
                     SamplingError, StencilClippedError)
from .potential import (KahlerChartPoint, _newton, eval_F, eval_F_z, eval_Phi,
                        eval_connection, eval_metric, legendre_solve, phi_batch,
                        reconstruct_F_from_K)

__all__ = [
    "ResidualReport", "GrowthFit", "sample_points", "sample_chart_points",
    "polyharmonic_residual", "phi_harmonic_residual", "hessian_identity_residual",
    "sp_condition_residual", "ricci_residual",
    "growth_fit", "run_checks", "check_names",
]


@dataclass(frozen=True, eq=False)
class ResidualReport:
    check_name: str
    max_residual: float
    tolerance: float
    passed: bool
    samples: int = 0
    wall_time_s: float = 0.0
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        # everything here except wall_time_s is reproducible for a fixed seed
        return {
            "check": self.check_name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "samples": self.samples,
            "wall_time_s": round(self.wall_time_s, 4),
            "detail": self.detail,
        }


# --------------------------------------------------------------------------
# samplers

def _box_scale(arr: FlatArrangement) -> float:
    return float(arr.frame.sizes.max(initial=0.0)) + 2.0


def _clearance(arr: FlatArrangement, x, z):
    """Euclidean clearance of (x, z) (..., n) from every flat and branch locus,
    min(r/|u|, t) with t = s + r of svr, (...); infinite with no flats."""
    _, _, r, t = arr.svr(x, z)
    return np.minimum((r / arr.frame.norms).min(axis=-1, initial=np.inf),
                      t.min(axis=-1, initial=np.inf))


def _rejection_sample(count: int, block, what: str) -> list:
    """The samplers' one rejection loop: block(k) draws k candidates and returns
    the accepted ones as a tuple of arrays, concatenated over the blocks.

    A block holds as many candidates as are still missing, at most 200 * count
    in all, so the samples and rng's state are those of drawing one at a time.
    """
    budget = 200 * count
    blocks, kept, drawn = [], 0, 0
    while not blocks or (kept < count and drawn < budget):  # count = 0: one empty block
        k = min(count - kept, budget - drawn)
        blocks.append(block(k))
        kept, drawn = kept + len(blocks[-1][0]), drawn + k
    if kept < count:
        raise SamplingError(f"{what} failed to reach the requested count "
                            f"({kept} of {count} after {drawn} candidates)")
    return [np.concatenate(parts) for parts in zip(*blocks)]


def sample_points(arr: FlatArrangement, count: int, rng,
                  clearance: float = 0.25) -> Point3n:
    """A seeded batch (count, n) of points Euclidean-clear of flats and branch loci;
    each candidate draws x, then Re z, then Im z in the box."""
    scale = _box_scale(arr)

    def block(k):
        W = rng.uniform(-scale, scale, (k, 3, arr.dimension))
        x, z = W[:, 0], W[:, 1] + 1j * W[:, 2]
        keep = _clearance(arr, x, z) >= clearance
        return x[keep], z[keep]
    return Point3n(*_rejection_sample(count, block, "rejection sampling"))


def sample_chart_points(arr: FlatArrangement, B, count: int, rng) -> KahlerChartPoint:
    """A seeded stack of count solved chart points whose x-solution is clear of flats.

    Each candidate draws u in [-1, 1]^n, then Re z and Im z in the box, and is
    solved by legendre_solve alone.  The rule min(r, t) >= 0.2 (t = s + r of
    svr) bounds r itself, not r / |u|."""
    n, scale = arr.dimension, _box_scale(arr)
    h = np.array([[1.0], [scale], [scale]])

    def block(k):
        W = rng.uniform(-h, h, (k, 3, n))
        u, z = W[:, 0] + 0j, W[:, 1] + 1j * W[:, 2]
        x, K, res, its = np.zeros((k, n)), np.zeros(k), np.zeros(k), np.zeros(k, dtype=int)
        keep = np.zeros(k, dtype=bool)
        for i in range(k):
            try:
                chart = legendre_solve(arr, B, u[i], z[i])
            except (EvaluationError, NoConvergenceError, DomainEscapeError):
                continue
            x[i], K[i], res[i], its[i] = chart.x, chart.K, chart.residual, chart.iterations
            _, _, r, t = arr.svr(chart.x, z[i])
            keep[i] = np.minimum(r, t).min(initial=np.inf) >= 0.2
        return u[keep], z[keep], x[keep], K[keep], res[keep], its[keep]
    return KahlerChartPoint(*_rejection_sample(count, block, "chart sampling"))


def rational_direction(n: int, count: int, rng) -> np.ndarray:
    """count nonzero small-integer direction vectors in R^n, (count, n) float."""
    def block(k):
        V = rng.integers(-3, 4, (k, n))
        return (V[V.any(axis=-1)].astype(float),)
    return _rejection_sample(count, block, "direction sampling")[0]


# --------------------------------------------------------------------------
# residuals
#
# Each residual takes one point or chart, or a stack of them with leading
# axes (...), and returns one residual per point: a scalar, or (...).  A
# stack is measured with one evaluator call per stencil (or per Newton
# stack) for all of its points, and each of its residuals equals, bit for
# bit, the one its point gives alone.

def _plane(p: Point3n, v):
    """The 3-plane p + R^3 (x) v^ of each point of p, v^ = v / |v|, as the map from
    its arc-length coordinates C (..., K, 3) to the points (x + C_0 v^,
    z + (C_1 + i C_2) v^); v is a direction in R^n, or one per point (..., n)."""
    v = np.asarray(v, dtype=float)
    vhat = (v / np.linalg.norm(v, axis=-1, keepdims=True))[..., None, :]
    x, z = p.x[..., None, :], p.z[..., None, :]
    return lambda C: Point3n(x + C[..., :1] * vhat, z + (C[..., 1:2] + 1j * C[..., 2:]) * vhat)


def polyharmonic_residual(arr: FlatArrangement, B, p: Point3n, v,
                          step: float = DEFAULT.poly_step):
    """|Laplacian of F restricted to the 3-plane p + R^3 (x) v| at each point of p.

    v is a direction in R^n, or one per point (..., n); any nonzero scaling,
    sign included, gives the same plane and the same residual: the
    restriction is arc-length parametrized along the unit vector v / |v|.
    """
    at = _plane(p, v)
    return np.abs(fd.laplacian3(lambda C: eval_F(arr, B, at(C)),
                                np.zeros(p.x.shape[:-1] + (3,)), step))


def phi_harmonic_residual(arr: FlatArrangement, B, p: Point3n, v,
                          step: float = DEFAULT.harmonic_step):
    """max over the entries of Phi of |Laplacian on the 3-plane p + R^3 (x) v|, per point.

    F is harmonic on these planes and Phi = F_xx / 4 differentiates it with
    constant coefficients, so every entry of Phi is harmonic there too, at
    every n.  The Laplacian is a Richardson pair of 7-point stencils at steps
    step and 2 step; v is read as in polyharmonic_residual.
    """
    at = _plane(p, v)
    # the stencil nodes on the last axis: one eval_Phi call per stencil pair
    lap = fd.richardson_laplacian3(lambda C: np.moveaxis(eval_Phi(arr, B, at(C)), -3, -1),
                                   np.zeros(p.x.shape[:-1] + (3,)), step)
    return np.abs(lap).max(axis=(-2, -1))


def _solve_nodes(arr, B, chart, u, z):
    """(x, K) at the nodes u, z (..., K, n) around the charts (..., n) of a stack,
    (..., K, n) and (..., K): one Newton stack, each node warm-started at its
    chart's x."""
    n = chart.x.shape[-1]
    x0 = np.broadcast_to(chart.x[..., None, :], u.shape)
    x, K = _newton(arr, B, u.reshape(-1, n), z.reshape(-1, n), x0.reshape(-1, n))[:2]
    return x.reshape(u.shape), K.reshape(u.shape[:-1])


def _k_blocks(arr, B, chart):
    """Wirtinger blocks (K_uu-bar, K_uz-bar, K_zu-bar, K_zz-bar) via a real Hessian.

    The exact gradient of K over stacked (Re u, Re z, Im z) is differenced
    centrally: by the envelope theorem dK/du = -2x at the solved x, so
    dK/dRe u = -4x, and dK/dz = F_z at the solution.  Only first derivatives
    of K are analytic inputs here, so one central difference of this gradient
    yields Hessian blocks with far less cancellation than double differences
    of K values.  The 6n neighbours in fd.star of every chart (u, z, x each
    (n,) or (..., n)) at h = DEFAULT.fd_step are solved by _solve_nodes, and
    F_z is evaluated at them in one call.  Each block is (..., n, n).

    K is independent of Im u on the chart, so the real Hessian over
    (Re u, Re z, Im z) determines every block:
      K_uu-bar = Kaa/4, K_uz-bar = (Kac + i Kad)/4,
      K_zu-bar = (Kca - i Kda)/4,
      K_zz-bar = (Kcc + Kdd)/4 + i (Kcd - Kdc)/4.
    """
    n = chart.x.shape[-1]
    step = DEFAULT.fd_step
    S = fd.star(np.concatenate([chart.u.real, chart.z.real, chart.z.imag], axis=-1),
                step)[..., 1:, :]
    z = S[..., n:2 * n] + 1j * S[..., 2 * n:]
    x = _solve_nodes(arr, B, chart, S[..., :n], z)[0]
    fz = eval_F_z(arr, B, Point3n(x, z))
    grad = np.concatenate([-4.0 * x, 2.0 * fz.real, -2.0 * fz.imag], axis=-1)
    J = (grad[..., 0::2, :] - grad[..., 1::2, :]) / (2.0 * step)
    H = 0.5 * (J + np.swapaxes(J, -1, -2))
    a, c, d = slice(None, n), slice(n, 2 * n), slice(2 * n, None)
    Kac, Kad, Kcd = H[..., a, c], H[..., a, d], H[..., c, d]
    kuu = 0.25 * H[..., a, a]
    kuz = 0.25 * (Kac + 1j * Kad)
    kzu = 0.25 * (np.swapaxes(Kac, -1, -2) - 1j * np.swapaxes(Kad, -1, -2))
    kzz = 0.25 * (H[..., c, c] + H[..., d, d]) + 0.25j * (Kcd - np.swapaxes(Kcd, -1, -2))
    return kuu, kuz, kzu, kzz


def hessian_identity_residual(arr: FlatArrangement, B, chart):
    """Deviation in K_uu-bar = -4 (F_xx)^{-1} and K_uz-bar = 2 (F_xx)^{-1} F_xz-bar."""
    kuu, kuz, _, _ = _k_blocks(arr, B, chart)
    p = Point3n(chart.x, chart.z)
    fxx = 4.0 * eval_Phi(arr, B, p)
    fxzbar = eval_connection(arr, B, p).conj()
    inv = np.linalg.inv(fxx)
    r1 = np.abs(kuu + 4.0 * inv).max(axis=(-2, -1))
    r2 = np.abs(kuz - 2.0 * inv @ fxzbar).max(axis=(-2, -1))
    return np.maximum(r1, r2)


def sp_condition_residual(arr: FlatArrangement, B, chart):
    """max-norm of M^T J M - J for the 2n x 2n chart Hessian block matrix M."""
    n = chart.x.shape[-1]
    kuu, kuz, kzu, kzz = _k_blocks(arr, B, chart)
    M = np.block([[kuu, kuz], [kzu, kzz]])
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return np.abs(np.swapaxes(M, -1, -2) @ J @ M - J).max(axis=(-2, -1))


def _christoffel(g, h, base, total):
    """Gamma^a_{bc} from the metric on fd.star stencils, g (..., 1 + 2 base, total, total).

    The metric is constant in the trailing fiber coords.
    """
    ginv = np.linalg.inv(g[..., 0, :, :])
    dg = np.zeros(g.shape[:-3] + (total, total, total))
    dg[..., :base, :, :] = (g[..., 1:1 + 2 * base:2, :, :]
                            - g[..., 2:2 + 2 * base:2, :, :]) / (2.0 * h)
    # T_{dbc} = d_b g_{dc} + d_c g_{db} - d_d g_{bc}
    T = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, T)


def ricci_residual(arr: FlatArrangement, B, p: Point3n,
                   step: float = DEFAULT.curvature_step):
    """max |Ric_ab| of the 4n-metric by nested central differences, per point of p.

    The metric is independent of the fiber coordinates, so all derivatives
    run over the 3n base coordinates only.  Requires Euclidean clearance
    of at least `DEFAULT.stencil_clearance * step` from every flat and branch
    locus so the nested stencil stays in the domain.
    """
    n = arr.dimension
    clear = _clearance(arr, p.x, p.z)
    if np.any(clear < DEFAULT.stencil_clearance * step):
        raise StencilClippedError(
            f"flat clearance {float(np.min(clear)):.3e} below "
            f"{DEFAULT.stencil_clearance * step:.3e}")
    base = 3 * n
    total = 4 * n
    # the nested stencil: the metric at a star around every node of a star
    g = eval_metric(arr, B, Point3n.from_coords(fd.star(fd.star(p.coords(), step), step)))
    gamma = _christoffel(g, step, base, total)
    G0 = gamma[..., 0, :, :, :]
    dG = (gamma[..., 1::2, :, :, :] - gamma[..., 2::2, :, :, :]) / (2.0 * step)

    # Ric_{sn} = d_m G^m_{ns} - d_n G^m_{ms} + G^m_{ml} G^l_{ns} - G^m_{nl} G^l_{ms};
    # every sum adds in the order of a per-entry loop (summed axes ahead of
    # the entry's own, in index order; m inner, l outer in the last term), so
    # the result is that loop's bit for bit
    c = np.arange(base)
    m = np.arange(total)
    trace = np.einsum("...mml->...l", G0)
    ric = dG[..., c, c, :, :].sum(axis=-3)
    ric[..., :base, :] -= np.moveaxis(dG, -4, -2)[..., m, m, :, :].sum(axis=-3)
    ric += (np.moveaxis(G0, -3, -1)[..., None, :] @ trace[..., None, None, :, None])[..., 0, 0]
    ric -= (np.swapaxes(G0, -2, -1)[..., None]
            * np.swapaxes(G0, -3, -2)[..., :, :, None, :]).sum(axis=-4).sum(axis=-3)
    return np.abs(ric).max(axis=(-2, -1))


# --------------------------------------------------------------------------
# volume growth

@dataclass(frozen=True, eq=False)
class GrowthFit:
    exponent: float
    std_error: float
    radii: np.ndarray
    volumes: np.ndarray
    samples: int


# directions per phi_batch call in _rays: one block's points, Phi and per-flat
# temporaries stay near the CPU caches whatever the chunk size or the number of flats
RAY_BLOCK = 32
# nodes per ray in _rays; _growth_chunk interpolates log V in log R between
# them, which is exact for a power law, so 320 nodes hold the accuracy that
# 512 gave with linear interpolation
RAY_NODES = 320
# most directions growth_fit draws, at 8 (3n + len(radii)) bytes each: under
# 100 MB at n = 2 and five radii
GROWTH_MAX_SAMPLES = 2 ** 20


def _fibonacci_sphere(m):
    """The spherical Fibonacci lattice of m points on S^2, (m, 3):
    z_i = 1 - (2i + 1) / m at azimuth i pi (3 - sqrt 5)."""
    i = np.arange(m)
    z = 1.0 - (2 * i + 1) / m
    rho, phi = np.sqrt(1.0 - z * z), i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _rotation(rng):
    """A Haar-random rotation in SO(3): the Q factor of a Gaussian matrix,
    with the signs of R's diagonal moved into it, is Haar on O(3); negating
    its first column where det Q = -1 maps that to Haar on SO(3)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _growth_directions(n, samples, rng):
    """Unit directions in R^3n, (samples, 3n), one per growth ray.

    At n = 1, direction i belongs to lattice b = i % 8, the batch growth_fit
    puts it in, so the rows [b::8] are lattice b: the Fibonacci lattice of
    their count times its own Haar-random rotation, drawn from rng in b
    order.  The batches are then independent randomizations, and their
    spread gives an honest standard error.  Above n = 1 the directions are
    uniformly random.
    """
    if n > 1:
        dirs = rng.standard_normal((samples, 3 * n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs
    dirs = np.empty((samples, 3))
    for b in range(8):
        dirs[b::8] = _fibonacci_sphere(len(range(b, samples, 8))) @ _rotation(rng).T
    return dirs


def _rays(arr, B, base_coords, dirs, T, rmax):
    """Radial rays over the node grid geomspace(1e-4, T, RAY_NODES), one per direction.

    Returns the distance proxy (cumulative radial path length in the quotient
    metric plus a torus-fiber diameter bound, forced monotone) and the ball
    volume (the cumulative trapezoid integral of det Phi t^(3n-1) dt), both
    (len(dirs), RAY_NODES).  The volume is formed only up to the node after the
    proxy's crossing of rmax, the last one a radius up to rmax reads, and
    left unset past it, where a huge det Phi (B = 1e303) would overflow
    float64.  Each row depends only on its own direction.  The rays are
    evaluated in blocks of RAY_BLOCK directions, one phi_batch call each,
    written straight into the outputs; the working set beyond them is one
    block's, independent of len(dirs).
    """
    n = arr.dimension
    nodes = RAY_NODES
    t = np.geomspace(1e-4, T, nodes)
    dt = np.diff(t)
    proxy, volume = np.empty((2, dirs.shape[0], nodes))
    for lo in range(0, dirs.shape[0], RAY_BLOCK):
        d = dirs[lo:lo + RAY_BLOCK]
        # the points base + t * d, coordinate block by coordinate block
        X = np.empty((d.shape[0], nodes, n))
        Z = np.empty((d.shape[0], nodes, n), dtype=complex)
        for part, blk in ((X, 0), (Z.real, 1), (Z.imag, 2)):
            np.multiply(t[None, :, None], d[:, None, blk * n:(blk + 1) * n], out=part)
            part += base_coords[blk * n:(blk + 1) * n]
        phi = phi_batch(arr, B, X.reshape(-1, n), Z.reshape(-1, n)).reshape(
            d.shape[0], nodes, n, n)
        speed = np.sqrt(np.einsum("di,dtij,dj->dt", d[:, :n], phi, d[:, :n])
                        + np.einsum("di,dtij,dj->dt", d[:, n:2 * n], phi, d[:, n:2 * n])
                        + np.einsum("di,dtij,dj->dt", d[:, 2 * n:], phi, d[:, 2 * n:]))
        lam_min = phi[:, :, 0, 0] if n == 1 else np.linalg.eigvalsh(phi)[..., 0]
        L = proxy[lo:lo + RAY_BLOCK]
        L[:, 0] = speed[:, 0] * t[0]
        L[:, 1:] = 0.5 * (speed[:, 1:] + speed[:, :-1]) * dt[None, :]
        np.cumsum(L, axis=1, out=L)
        L += math.pi * math.sqrt(n) / np.sqrt(lam_min)  # the fiber bound
        if not (L[:, 1:] >= L[:, :-1]).all():
            np.maximum.accumulate(L, axis=1, out=L)
        m = min(max(int((L < rmax).sum(axis=1).max()), 1), nodes - 1) + 1
        detphi = phi[:, :m, 0, 0] if n == 1 else np.linalg.det(phi[:, :m])
        integrand = detphi * t[:m] ** (3 * n - 1)
        V = volume[lo:lo + RAY_BLOCK, :m]
        V[:, 0] = integrand[:, 0] * t[0] / (3.0 * n)
        V[:, 1:] = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * dt[:m - 1]
        np.cumsum(V, axis=1, out=V)
    return proxy, volume


def _covering_rays(arr, B, base_coords, dirs, rmax):
    """_rays over the first ray length T at which every direction's proxy reaches rmax.

    T starts at max(rmax, 4) and grows by 1.8x.  Each T round is screened
    first with one probe direction (the chunk's first, then the shortest one
    of the last failed full pass): when the probe falls short, the full chunk
    would fail too, so T grows without integrating the other rays.  A round
    is thus skipped only when the unscreened loop fails it as well, and the
    rays come from the same final T and the same full integration.  This
    rests on each row of phi_batch not depending on the batch it is computed
    in, which also lets _rays evaluate the chunk in blocks of RAY_BLOCK
    directions, so the working set is the two (len(dirs), RAY_NODES) arrays
    plus one block's, whatever the number of flats.
    """
    T = max(rmax, 4.0)
    probe = dirs[:1]
    for _ in range(80):
        proxy, _ = _rays(arr, B, base_coords, probe, T, rmax)
        if proxy[0, -1] >= rmax:
            proxy, volume = _rays(arr, B, base_coords, dirs, T, rmax)
            if proxy[:, -1].min() >= rmax:
                return proxy, volume
            probe = dirs[[int(np.argmin(proxy[:, -1]))]]
        T *= 1.8
    raise SamplingError("radial integration range failed to cover the largest radius")


def _growth_chunk(arr, B, base_coords, dirs, radii):
    """Per-direction ball volumes at radii, read off the rays of _covering_rays.

    The ball is measured with the distance proxy of _rays.  Between the two
    nodes around its crossing, a radius R reads the volume geometrically:
    log V is linear in log proxy, V = v_lo (v_hi / v_lo)^frac with
    frac = log(R / p_lo) / log(p_hi / p_lo).  That is exact for a power law
    V = c R^k, where linear interpolation errs by O(Delta^2) in the node
    spacing.
    """
    proxy, volume = _covering_rays(arr, B, base_coords, dirs, float(radii[-1]))
    # each radius R reads the nodes idx - 1 and idx around its crossing (the
    # proxy rows are sorted), which _rays has integrated the volume to
    idx = np.clip([row.searchsorted(radii) for row in proxy], 1, proxy.shape[1] - 1)
    p_lo, p_hi = np.take_along_axis(proxy, idx - 1, 1), np.take_along_axis(proxy, idx, 1)
    v_lo, v_hi = np.take_along_axis(volume, idx - 1, 1), np.take_along_axis(volume, idx, 1)
    log_lo = np.log(p_lo)
    span = np.log(p_hi) - log_lo
    frac = np.clip((np.log(radii) - log_lo) / np.where(span > 0, span, 1.0), 0.0, 1.0)
    # up from a volume that underflowed to 0 (a subnormal mass), linearly
    up = v_lo > 0
    ratio = np.divide(v_hi, v_lo, out=np.ones_like(v_hi), where=up)
    return np.where(proxy[:, :1] >= radii, 0.0,
                    np.where(up, v_lo * ratio ** frac, frac * v_hi))


def growth_fit(arr: FlatArrangement, B, base: Point3n, radii, samples: int | None = None,
               rng=None) -> GrowthFit:
    """Fit of the volume-growth exponent d log V / d log R over sampled rays.

    The ball volumes are averaged over the directions of _growth_directions:
    at n = 1, 8 randomly rotated spherical Fibonacci lattices; above, uniformly
    random directions.  samples defaults to 512 (8 lattices of 64) at n = 1
    and to 4096 above.  The standard error is that of the slopes fitted to
    the 8 interleaved batches of the directions, at n = 1 one lattice each.
    """
    n = arr.dimension
    if samples is None:
        samples = 512 if n == 1 else 4096
    if samples < 8:
        raise ValueError(f"samples must be at least 8 (one per batch), got {samples}")
    if samples > GROWTH_MAX_SAMPLES:
        raise ValueError(f"samples must be at most {GROWTH_MAX_SAMPLES}, got {samples}")
    radii = np.asarray(radii, dtype=float)
    if (radii.ndim != 1 or radii.size < 2 or not np.all(np.isfinite(radii))
            or np.any(np.diff(radii) <= 0) or radii[0] <= 0):
        raise ValueError("radii must be a strictly increasing sequence of finite positive numbers")
    if rng is None:
        rng = np.random.default_rng(DEFAULT.default_seed)
    dirs = _growth_directions(n, samples, rng)
    base_coords = base.coords()

    # 512-direction chunks, each with its own T rounds and node grid, in order
    per_dir = np.vstack([_growth_chunk(arr, B, base_coords, dirs[lo:lo + 512], radii)
                         for lo in range(0, samples, 512)])  # (samples, nR)

    sphere, fiber_vol = 2.0 * math.pi ** (1.5 * n) / math.gamma(1.5 * n), (2.0 * math.pi) ** n
    volumes = sphere * fiber_vol * per_dir.mean(axis=0)
    if np.any(volumes <= 0):
        below = radii[np.argmax(volumes <= 0)]
        raise ValueError(
            f"radius {below:g} (radii {radii[0]:g} to {radii[-1]:g}) is below the "
            "start of every sampled ray (its first node's distance proxy); increase radii")

    logR = np.log(radii)
    A = np.vstack([logR, np.ones_like(logR)]).T

    def slope(v):
        return float(np.linalg.lstsq(A, np.log(v), rcond=None)[0][0])

    batches = [per_dir[b::8].mean(axis=0) for b in range(8)]
    batch_slopes = [slope(sphere * fiber_vol * sel) for sel in batches if not np.any(sel <= 0)]
    stderr = (float(np.std(batch_slopes, ddof=1) / math.sqrt(len(batch_slopes)))
              if len(batch_slopes) >= 2 else float("inf"))
    return GrowthFit(exponent=slope(volumes), std_error=stderr, radii=radii,
                     volumes=volumes, samples=samples)


# --------------------------------------------------------------------------
# check harness

def _rng_for(seed, check_id):
    return np.random.default_rng([seed, check_id])


def _halving_order(coarse, fine):
    """Step-halving order test on residuals at steps 2h and h: (ok, detail); a NaN fails."""
    # below this, both steps sit at arithmetic noise (which grows as the
    # step shrinks) and the order-of-accuracy ratio is moot
    floor = 1e-6
    mx_c, mx_f = float(np.max(coarse)), float(np.max(fine))
    ratio = mx_c / mx_f if not mx_f <= floor else float("inf")
    ok = not (math.isnan(mx_c) or math.isnan(mx_f)) and (mx_c <= floor or ratio >= 3.0)
    return ok, {"coarse_max": mx_c, "step_ratio": ratio, "order_ok": ok}


def _stacked(residual, sample, *args):
    """residual(*sample, *args): one residual per item, from one stacked call.

    sample is a tuple of equal-length stacks.  When the stacked call raises,
    item i is measured again alone, as a[i:i+1] of each stack, so the error
    raised is the one the first failing item raises alone; if none fails
    alone, the stacked call's own error stands.
    """
    try:
        return residual(*sample, *args)
    except Exception:
        for i in range(len(sample[0])):
            residual(*(a[i:i + 1] for a in sample), *args)
        raise


def _sampled(sample, residual, step=None):
    """The measure of a check on a seeded sample of points or charts.

    sample(arr, B, rng) gives the sample as a tuple of equal-length stacks,
    and residual(arr, B, *sample) one residual per item, measured as one
    stack (see _stacked).  With a step, residual(arr, B, *sample, h) is
    taken at h = step and 2 * step, and the check must also pass the
    step-halving order test.
    """
    def measure(arr, B, report, expected, rng):
        stacks = sample(arr, B, rng)
        at = functools.partial(residual, arr, B)
        if step is None:
            fine, ok, detail = _stacked(at, stacks), True, {}
        else:
            fine = _stacked(at, stacks, step)
            ok, detail = _halving_order(_stacked(at, stacks, 2 * step), fine)
        return fine, detail, ok, len(fine)
    return measure


def _phi_fd_residual(arr, B, p):
    """Relative deviation of Phi from F_xx / 4 by a Richardson pair of Hessians, per point."""
    phi = eval_Phi(arr, B, p)
    z = p.z[..., None, :]

    def f(W):
        return eval_F(arr, B, Point3n(W, np.broadcast_to(z, W.shape)))

    Hx = fd.richardson_hessian(f, p.x, DEFAULT.phi_fd_step)
    return (np.abs(phi - 0.25 * Hx).max(axis=(-2, -1))
            / np.maximum(np.abs(phi).max(axis=(-2, -1)), 1e-12))


def _polyharmonic_sample(arr, B, rng):
    return sample_points(arr, 50, rng, clearance=0.35), rational_direction(arr.dimension, 50, rng)


def _roundtrip_residual(arr, B, chart):
    """|F at the chart point - F rebuilt by reconstruct_F_from_K from K alone|, per chart."""
    rec = reconstruct_F_from_K(lambda u, z: _solve_nodes(arr, B, chart, u, z)[1],
                               chart.u, chart.z)
    return np.abs(rec.value - eval_F(arr, B, Point3n(chart.x, chart.z)))


def _charts(count):
    return lambda arr, B, rng: (sample_chart_points(arr, B, count, rng),)


def _growth(arr, B, report, expected, rng):
    law = report.volume_growth_exponent
    radii = np.geomspace(60.0, 960.0, 9)
    base = Point3n(np.zeros(arr.dimension), np.zeros(arr.dimension))
    fit = growth_fit(arr, B, base, radii, rng=rng)
    return ([abs(fit.exponent - law)],
            {"exponent": fit.exponent, "expected": law, "std_error": fit.std_error,
             "volumes": fit.volumes.tolist(), "radii": fit.radii.tolist()},
            fit.std_error <= DEFAULT.growth_max_stderr, fit.samples)


# expectations measured at 5 sampled points of an n = 1 arrangement: Phi, or Phi times r
_SAMPLED_FACTS = ("phi_constant", "phi_radial_coefficient")


def _facts(report):
    """The facts an expectation may name: report.as_dict() plus stratum_count
    and the failing stratum's active flats and invariant factors (tuples, or
    None when smooth)."""
    failing = report.failing_stratum
    return dict(report.as_dict(), stratum_count=len(report.strata),
                failing_stratum_active=None if failing is None else failing.active,
                invariant_factors=None if failing is None else failing.invariant_factors)


def _check_expectation_keys(facts, expected, n):
    """Raise ValueError on an expectation that is neither a fact nor sampled,
    or that is sampled but the arrangement is not n = 1."""
    for key in expected:
        if key not in facts and key not in _SAMPLED_FACTS:
            raise ValueError(f"unknown expectation {key!r}; known: "
                             f"{', '.join(sorted(facts) + list(_SAMPLED_FACTS))}")
        if key in _SAMPLED_FACTS and n != 1:
            raise ValueError(f"expectation {key!r} is measured at n = 1 only")


def _classification(arr, B, report, expected, rng):
    """One mismatch per expected value that the report's facts or Phi contradict.

    The facts are those of _facts, and a list expectation is compared as a
    tuple.  Every other key is a sampled fact: run_checks refuses the rest
    before any check runs.  A NaN sampled value is a mismatch.
    """
    facts = _facts(report)
    mismatches = {}
    for key, want in expected.items():
        if key in facts:
            have = facts[key]
            if have != (tuple(want) if isinstance(want, list) else want):
                mismatches[key] = {"expected": want, "got": have}
            continue
        p = sample_points(arr, 5, rng)
        have = eval_Phi(arr, B, p)[:, 0, 0]
        if key == "phi_radial_coefficient":
            # |z| by hypot, as the scalar abs of one point takes it (np.abs differs)
            have = have * np.sqrt(p.x[:, 0] ** 2 + np.hypot(p.z.real, p.z.imag)[:, 0] ** 2)
        have = have.tolist()
        if not all(abs(v - want) <= 1e-12 for v in have):
            mismatches[key] = {"expected": want, "got": have}
    return ([float(len(mismatches))],
            {"mismatches": mismatches, "report": report.as_dict()}, True, 1)


@dataclass(frozen=True)
class _Check:
    """One row of _CHECKS.  run_checks times measure(arr, B, report, expected,
    _rng_for(seed, stream)) -> (residuals, detail, ok, samples) and passes it
    when ok holds and no residual exceeds tolerance or is NaN."""
    stream: int
    tolerance: float
    n1_only: bool  # the check is the n = 1 statement only
    measure: Callable


# in report order.  The tracer and the tests patch the samplers, residuals and
# growth_fit of this module, so a row looks them up by name when it runs
_CHECKS = {
    "phi-fd": _Check(1, DEFAULT.phi_fd_rel, False, _sampled(
        lambda arr, B, rng: (sample_points(arr, 100, rng),),
        lambda *a: _phi_fd_residual(*a))),
    "polyharmonic": _Check(2, DEFAULT.polyharmonic, False, _sampled(
        _polyharmonic_sample, lambda *a: polyharmonic_residual(*a), step=DEFAULT.poly_step)),
    "hessian-identity": _Check(4, DEFAULT.hessian_identity, True, _sampled(
        _charts(10), lambda *a: hessian_identity_residual(*a))),
    "sp-condition": _Check(5, DEFAULT.sp_condition, False, _sampled(
        _charts(10), lambda *a: sp_condition_residual(*a))),
    "ricci": _Check(6, DEFAULT.ricci, True, _sampled(
        lambda arr, B, rng: (sample_points(arr, 10, rng, clearance=max(
            0.35, DEFAULT.stencil_clearance * 2 * DEFAULT.curvature_step)),),
        lambda *a: ricci_residual(*a), step=DEFAULT.curvature_step)),
    "phi-harmonic": _Check(7, DEFAULT.harmonic, False, _sampled(
        _polyharmonic_sample, lambda *a: phi_harmonic_residual(*a), step=DEFAULT.harmonic_step)),
    "growth": _Check(8, DEFAULT.growth_tolerance, True, _growth),
    "roundtrip": _Check(9, DEFAULT.roundtrip, False, _sampled(
        _charts(20), lambda *a: _roundtrip_residual(*a))),
    "classification": _Check(11, 0.0, False, _classification),
}


def check_names():
    return list(_CHECKS)


def run_checks(arr: FlatArrangement, B, checks=None, seed=None,
               expected=None) -> list:
    """Run named verification checks; None selects every applicable default.

    B is None, a DeformationMatrix or an array (see DeformationMatrix.of).
    The default set excludes the n = 1 only checks at higher n, "growth" for
    non-smooth inputs and "classification" when no expectations are given.
    A selection that is a string, is empty, names an unknown check, repeats
    a check or holds an n = 1 only check at n > 1 raises ValueError before
    any check runs; so does, when "classification" is selected, an empty
    set of expectations, an expectation it does not know or an n = 1
    sampled fact at n > 1.
    """
    if seed is None:
        seed = DEFAULT.default_seed
    B = DeformationMatrix.of(B, arr.dimension)
    report = classification_report(arr, B)
    expected = expected or {}
    if isinstance(checks, str):
        raise ValueError(f"expected a list of check names, got the string {checks!r}")
    if checks is None:
        skip = {"growth": not report.smooth, "classification": not expected}
        checks = [name for name, check in _CHECKS.items()
                  if (arr.dimension == 1 or not check.n1_only) and not skip.get(name)]
    if not checks:
        raise ValueError(f"no check selected; known: {', '.join(check_names())}")
    for i, name in enumerate(checks):
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(check_names())}")
        if name in checks[:i]:
            raise ValueError(f"check {name!r} is selected more than once")
        if _CHECKS[name].n1_only and arr.dimension != 1:
            raise ValueError(f"check {name!r} does not apply to this arrangement")
    if "classification" in checks:
        if not expected:
            raise ValueError("check 'classification' compares expected values; none given")
        _check_expectation_keys(_facts(report), expected, arr.dimension)
    reports = []
    for name in checks:
        check = _CHECKS[name]
        start = time.perf_counter()
        residuals, detail, ok, samples = check.measure(
            arr, B, report, expected, _rng_for(seed, check.stream))
        # np.max, unlike max(), does not skip a NaN
        mx = float(np.max(residuals))
        reports.append(ResidualReport(
            check_name=name, max_residual=mx, tolerance=check.tolerance,
            passed=bool(ok) and mx <= check.tolerance, samples=samples,
            wall_time_s=time.perf_counter() - start, detail=detail))
    return reports
