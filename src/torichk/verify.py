"""Numerical certification of the constructed geometry.

Each operation here measures one defining identity with a finite-difference
oracle that is independent of the closed-form code being checked:

  * polyharmonicity of F on affine 3-planes (7-point Laplacian);
  * the Monge-Ampere equation for n=1 charts and the Sp(n,C) block-Hessian
    condition for general n (Hessians of the numerically Legendre-transformed
    Kaehler potential);
  * the chart-level Hessian identities K_uu-bar = -4 (F_xx)^{-1} and
    K_uz-bar = 2 (F_xx)^{-1} F_xz-bar;
  * Ricci-flatness of the 4n-metric by nested central differences;
  * the n=1 conformal-factor law Phi = b + sum a_k / (4 r_k) and its
    harmonicity;
  * the volume-growth exponent by Monte-Carlo integration of det Phi over
    distance-proxy balls.

Residuals converge under step refinement; the check runners re-measure at a
halved step and require the expected decay before passing a verdict.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fd
from .arrangement import (DeformationMatrix, FlatArrangement, Point3n,
                          classification_report)
from .config import DEFAULT, Tolerances, thread_cap
from .errors import (DomainEscapeError, EvaluationError,
                     InsufficientSamplesError, NoConvergenceError,
                     StencilClippedError)
from .potential import (eval_F, eval_F_z, eval_Phi, eval_connection,
                        eval_metric, legendre_solve, phi_batch,
                        reconstruct_F_from_K)

__all__ = [
    "ResidualReport", "GrowthFit", "sample_points", "sample_chart_points",
    "polyharmonic_residual", "monge_ampere_residual", "hessian_identity_residual",
    "sp_condition_residual", "ricci_residual", "conformal_factor_check",
    "growth_fit", "volume_growth_exponent", "run_checks", "check_names",
]


@dataclass(frozen=True, eq=False)
class ResidualReport:
    check_name: str
    points: list
    residuals: list
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
    off = arr.offset_matrix()
    return float(np.abs(off).max(initial=0.0)) + 2.0


def _clearance(arr: FlatArrangement, x, z) -> float:
    """Euclidean clearance of (x, z) from every flat and branch locus, min(r/|u|, s+r)."""
    if not arr.flats:
        return math.inf
    s, _, r = arr.svr(x, z)
    return min(float((r / arr.frame.norms).min()), float((s + r).min()))


def sample_points(arr: FlatArrangement, count: int, rng,
                  clearance: float = DEFAULT.sample_clearance) -> list:
    """Seeded random points with Euclidean clearance from flats and branch loci."""
    n = arr.dimension
    scale = _box_scale(arr)
    out = []
    for _ in range(200 * count):
        if len(out) == count:
            break
        x = rng.uniform(-scale, scale, n)
        z = rng.uniform(-scale, scale, n) + 1j * rng.uniform(-scale, scale, n)
        if _clearance(arr, x, z) < clearance:
            continue
        out.append(Point3n(x, z))
    if len(out) < count:
        raise RuntimeError("rejection sampling failed to reach the requested count")
    return out


def sample_chart_points(arr: FlatArrangement, B, count: int, rng,
                        clearance: float = 0.2,
                        cfg: Tolerances = DEFAULT) -> list:
    """Seeded random solved chart points whose x-solution is clear of flats.

    Unlike sample_points, the rule here bounds r itself, not r / |u|.
    """
    out = []
    scale = _box_scale(arr)
    for _ in range(200 * count):
        if len(out) == count:
            break
        u = rng.uniform(-1.0, 1.0, arr.dimension) + 0j
        z = rng.uniform(-scale, scale, arr.dimension) \
            + 1j * rng.uniform(-scale, scale, arr.dimension)
        try:
            chart = legendre_solve(arr, B, u, z, cfg=cfg)
        except (EvaluationError, NoConvergenceError, DomainEscapeError):
            continue
        if len(arr.flats):
            s, _, r = arr.svr(chart.x, z)
            if r.min() < clearance or (s + r).min() < clearance:
                continue
        out.append(chart)
    if len(out) < count:
        raise RuntimeError("chart sampling failed to reach the requested count")
    return out


def rational_direction(n: int, rng) -> np.ndarray:
    """Nonzero small-integer direction vector in R^n."""
    for _ in range(100):
        v = rng.integers(-3, 4, n)
        if np.any(v):
            return v.astype(float)
    raise RuntimeError("unreachable")


# --------------------------------------------------------------------------
# pointwise residuals

def polyharmonic_residual(arr: FlatArrangement, B, p: Point3n, v,
                          step: float = DEFAULT.poly_step,
                          cfg: Tolerances = DEFAULT) -> float:
    """|Laplacian of F restricted to the 3-plane p + R^3 (x) v|.

    v is a direction in R^n (any nonzero scaling, sign included, gives the
    same plane and the same residual: the restriction is arc-length
    parametrized along the unit vector v / |v|).
    """
    v = np.asarray(v, dtype=float)
    vhat = v / np.linalg.norm(v)

    def f(c):
        return eval_F(arr, B, Point3n(p.x + c[0] * vhat,
                                      p.z + (c[1] + 1j * c[2]) * vhat), cfg)

    return abs(fd.laplacian3(f, np.zeros(3), step))


def _kahler_fn(arr, B, chart, cfg):
    """K as a function of stacked (Re u, Re z, Im z), warm-started at the chart."""
    n = chart.x.shape[0]
    u0, z0 = chart.u, chart.z

    def k(w):
        u = u0 + w[:n]
        z = z0 + w[n:2 * n] + 1j * w[2 * n:]
        return legendre_solve(arr, B, u, z, x0=chart.x, cfg=cfg).K

    return k


def _k_gradient_fn(arr, B, chart, cfg):
    """Exact gradient of K over stacked (Re u, Re z, Im z).

    By the envelope theorem dK/du = -2x at the solved x, so dK/dRe u = -4x,
    and dK/dz = F_z evaluated at the solution; only first derivatives of K
    are analytic inputs here, so one central difference of this gradient
    yields Hessian blocks with far less cancellation than double differences
    of K values.
    """
    n = chart.x.shape[0]
    u0, z0 = chart.u, chart.z

    def grad(w):
        u = u0 + w[:n]
        z = z0 + w[n:2 * n] + 1j * w[2 * n:]
        sol = legendre_solve(arr, B, u, z, x0=chart.x, cfg=cfg)
        fz = eval_F_z(arr, B, Point3n(sol.x, z), cfg)
        return np.concatenate([-4.0 * sol.x, 2.0 * fz.real, -2.0 * fz.imag])

    return grad


def _k_blocks(arr, B, chart, step, cfg):
    """Wirtinger blocks (K_uu-bar, K_uz-bar, K_zu-bar, K_zz-bar) via a real Hessian.

    K is independent of Im u on the chart, so the real Hessian over
    (Re u, Re z, Im z) determines every block:
      K_uu-bar = Kaa/4, K_uz-bar = (Kac + i Kad)/4,
      K_zu-bar = (Kca - i Kda)/4,
      K_zz-bar = (Kcc + Kdd)/4 + i (Kcd - Kdc)/4.
    """
    n = chart.x.shape[0]
    grad = _k_gradient_fn(arr, B, chart, cfg)
    J = np.empty((3 * n, 3 * n))
    for i in range(3 * n):
        e = np.zeros(3 * n)
        e[i] = step
        J[i] = (grad(e) - grad(-e)) / (2.0 * step)
    H = 0.5 * (J + J.T)
    Kaa = H[:n, :n]
    Kac = H[:n, n:2 * n]
    Kad = H[:n, 2 * n:]
    Kcc = H[n:2 * n, n:2 * n]
    Kcd = H[n:2 * n, 2 * n:]
    Kdd = H[2 * n:, 2 * n:]
    kuu = 0.25 * Kaa
    kuz = 0.25 * (Kac + 1j * Kad)
    kzu = 0.25 * (Kac.T - 1j * Kad.T)
    kzz = 0.25 * (Kcc + Kdd) + 0.25j * (Kcd - Kcd.T)
    return kuu, kuz, kzu, kzz


def monge_ampere_residual(arr: FlatArrangement, B, chart,
                          step: float = DEFAULT.fd_step,
                          cfg: Tolerances = DEFAULT) -> float:
    """|K_uu-bar K_zz-bar - K_uz-bar K_zu-bar - 1| for an n=1 chart point."""
    if arr.dimension != 1:
        raise ValueError("Monge-Ampere residual is the n=1 specialization")
    kuu, kuz, kzu, kzz = _k_blocks(arr, B, chart, step, cfg)
    det = kuu[0, 0] * kzz[0, 0] - kuz[0, 0] * kzu[0, 0]
    return abs(det - 1.0)


def hessian_identity_residual(arr: FlatArrangement, B, chart,
                              step: float = DEFAULT.fd_step,
                              cfg: Tolerances = DEFAULT) -> float:
    """Deviation in K_uu-bar = -4 (F_xx)^{-1} and K_uz-bar = 2 (F_xx)^{-1} F_xz-bar."""
    kuu, kuz, _, _ = _k_blocks(arr, B, chart, step, cfg)
    p = Point3n(chart.x, chart.z)
    fxx = 4.0 * eval_Phi(arr, B, p, cfg)
    fxzbar = eval_connection(arr, B, p, cfg).coefficients.conj()
    inv = np.linalg.inv(fxx)
    r1 = np.abs(kuu + 4.0 * inv).max()
    r2 = np.abs(kuz - 2.0 * inv @ fxzbar).max()
    return float(max(r1, r2))


def sp_condition_residual(arr: FlatArrangement, B, chart,
                          step: float = DEFAULT.fd_step,
                          cfg: Tolerances = DEFAULT) -> float:
    """max-norm of M^T J M - J for the 2n x 2n chart Hessian block matrix M."""
    n = chart.x.shape[0]
    kuu, kuz, kzu, kzz = _k_blocks(arr, B, chart, step, cfg)
    M = np.block([[kuu, kuz], [kzu, kzz]])
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return float(np.abs(M.T @ J @ M - J).max())


def _metric_on_base(arr, B, cfg):
    def g(w):
        return eval_metric(arr, B, Point3n.from_coords(w), cfg)
    return g


def _christoffel(gfun, w, h, base, total):
    """Gamma^a_{bc} at w; the metric is constant in the trailing fiber coords."""
    g0 = gfun(w)
    ginv = np.linalg.inv(g0)
    dg = np.zeros((total, total, total))
    for c in range(base):
        e = np.zeros(base)
        e[c] = h
        dg[c] = (gfun(w + e) - gfun(w - e)) / (2.0 * h)
    # T_{dbc} = d_b g_{dc} + d_c g_{db} - d_d g_{bc}
    T = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.einsum("ad,dbc->abc", ginv, T)


def ricci_residual(arr: FlatArrangement, B, p: Point3n,
                   step: float = DEFAULT.curvature_step,
                   cfg: Tolerances = DEFAULT) -> float:
    """max |Ric_ab| of the 4n-metric by nested central differences.

    The metric is independent of the fiber coordinates, so all derivatives
    run over the 3n base coordinates only.  Requires Euclidean clearance
    of at least `cfg.stencil_clearance * step` from every flat and branch
    locus so the nested stencil stays in the domain.
    """
    n = arr.dimension
    clear = _clearance(arr, p.x, p.z)
    if clear < cfg.stencil_clearance * step:
        raise StencilClippedError(
            f"flat clearance {clear:.3e} below {cfg.stencil_clearance * step:.3e}")
    base = 3 * n
    total = 4 * n
    gfun = _metric_on_base(arr, B, cfg)
    w0 = p.coords()

    def gamma_at(w):
        return _christoffel(gfun, w, step, base, total)

    G0 = gamma_at(w0)
    dG = np.zeros((base, total, total, total))
    for c in range(base):
        e = np.zeros(base)
        e[c] = step
        dG[c] = (gamma_at(w0 + e) - gamma_at(w0 - e)) / (2.0 * step)

    # Ric_{sn} = d_m G^m_{ns} - d_n G^m_{ms} + G^m_{ml} G^l_{ns} - G^m_{nl} G^l_{ms}
    trace = np.einsum("mml->l", G0)
    ric = np.zeros((total, total))
    for nu in range(total):
        for sig in range(total):
            val = sum(dG[mu][mu, nu, sig] for mu in range(base))
            if nu < base:
                val -= sum(dG[nu][mu, mu, sig] for mu in range(total))
            val += float(trace @ G0[:, nu, sig])
            val -= float(np.einsum("ml,lm->", G0[:, nu, :], G0[:, :, sig]))
            ric[nu, sig] = val
    return float(np.abs(ric).max())


def conformal_factor_check(arr: FlatArrangement, B, x3,
                           step: float = DEFAULT.harmonic_step,
                           cfg: Tolerances = DEFAULT) -> float:
    """n=1 conformal-factor law: Phi = b + sum a_k/(4 |x - c_k|), harmonic off centers.

    Returns the max of (a) the deviation of eval_Phi from the closed
    multi-center form, (b) the 7-point Laplacian of Phi at the sample, and
    (c) any violation of boundedness of Phi - a_k/(4 r) near each center.
    """
    if arr.dimension != 1:
        raise ValueError("conformal factor law is the n=1 statement")
    x3 = np.asarray(x3, dtype=float)
    b = float(_bscalar(B))
    centers = arr.offset_matrix()
    masses = arr.masses()

    def phi_scalar(w):
        return float(eval_Phi(arr, B, _point_from_r3(w), cfg)[0, 0])

    dists = np.linalg.norm(centers - x3, axis=1) if len(arr.flats) else np.zeros(0)
    closed = b + float(np.sum(masses / (4.0 * dists))) if len(arr.flats) else b
    identity = abs(phi_scalar(x3) - closed)
    harmonic = abs(fd.laplacian3(phi_scalar, x3, step))

    bounded = 0.0
    direction = np.array([0.57735026919, 0.57735026919, 0.57735026919])
    for k in range(len(arr.flats)):
        others = [j for j in range(len(arr.flats)) if j != k]
        sep = min((np.linalg.norm(centers[j] - centers[k]) for j in others), default=None)
        bound = b + sum(masses[j] / (4.0 * (np.linalg.norm(centers[j] - centers[k]) - 1e-2))
                        for j in others) + 1e-9
        for t in np.geomspace(1e-6, 1e-2, 5):
            w = centers[k] + t * direction
            if sep is not None and t >= sep:
                continue
            phi_rem = phi_scalar(w) - masses[k] / (4.0 * t)
            bounded = max(bounded, max(0.0, abs(phi_rem) - bound))
    return float(max(identity, harmonic, bounded))


def _bscalar(B):
    if B is None:
        return 0.0
    mat = B.entries if isinstance(B, DeformationMatrix) else np.asarray(B, float)
    return mat[0, 0]


def _point_from_r3(w):
    return Point3n(np.array([w[0]]), np.array([w[1] + 1j * w[2]]))


# --------------------------------------------------------------------------
# volume growth

@dataclass(frozen=True, eq=False)
class GrowthFit:
    exponent: float
    std_error: float
    radii: np.ndarray
    volumes: np.ndarray
    samples: int


def _growth_chunk(arr, B, base_coords, dirs, radii, n):
    """Per-direction ball volumes: integrate det Phi along radial rays.

    The ball is measured with a distance proxy: cumulative radial path length
    in the quotient metric plus a torus-fiber diameter bound, forced monotone.
    """
    rmax = float(radii[-1])
    nodes = 512
    T = max(rmax, 4.0)
    for _ in range(80):
        t = np.geomspace(1e-4, T, nodes)
        P = base_coords[None, None, :] + t[None, :, None] * dirs[:, None, :]
        flatP = P.reshape(-1, 3 * n)
        X = flatP[:, :n]
        Z = flatP[:, n:2 * n] + 1j * flatP[:, 2 * n:]
        phi = phi_batch(arr, B, X, Z).reshape(dirs.shape[0], nodes, n, n)
        speed2 = (np.einsum("di,dtij,dj->dt", dirs[:, :n], phi, dirs[:, :n])
                  + np.einsum("di,dtij,dj->dt", dirs[:, n:2 * n], phi, dirs[:, n:2 * n])
                  + np.einsum("di,dtij,dj->dt", dirs[:, 2 * n:], phi, dirs[:, 2 * n:]))
        speed = np.sqrt(speed2)
        if n == 1:
            lam_min = phi[:, :, 0, 0]
            detphi = phi[:, :, 0, 0]
        else:
            lam_min = np.linalg.eigvalsh(phi)[..., 0]
            detphi = np.linalg.det(phi)
        dt = np.diff(t)
        L = np.empty_like(speed)
        L[:, 0] = speed[:, 0] * t[0]
        L[:, 1:] = 0.5 * (speed[:, 1:] + speed[:, :-1]) * dt[None, :]
        np.cumsum(L, axis=1, out=L)
        fiber = math.pi * math.sqrt(n) / np.sqrt(lam_min)
        proxy = np.maximum.accumulate(L + fiber, axis=1)
        if proxy[:, -1].min() >= rmax:
            break
        T *= 1.8
    else:
        raise RuntimeError("radial integration range failed to cover the largest radius")

    integrand = detphi * t[None, :] ** (3 * n - 1)
    Vc = np.empty_like(integrand)
    Vc[:, 0] = integrand[:, 0] * t[0] / (3.0 * n)
    Vc[:, 1:] = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * dt[None, :]
    np.cumsum(Vc, axis=1, out=Vc)

    out = np.empty((dirs.shape[0], radii.size))
    for j, R in enumerate(radii):
        idx = (proxy < R).sum(axis=1)
        idx = np.clip(idx, 1, nodes - 1)
        lo = idx - 1
        rows = np.arange(dirs.shape[0])
        p_lo = proxy[rows, lo]
        p_hi = proxy[rows, idx]
        v_lo = Vc[rows, lo]
        v_hi = Vc[rows, idx]
        frac = np.clip((R - p_lo) / np.where(p_hi > p_lo, p_hi - p_lo, 1.0), 0.0, 1.0)
        vals = v_lo + frac * (v_hi - v_lo)
        vals = np.where(proxy[:, 0] >= R, 0.0, vals)
        out[:, j] = vals
    return out


def growth_fit(arr: FlatArrangement, B, base: Point3n, radii, samples: int = 4096,
               rng=None, cfg: Tolerances = DEFAULT) -> GrowthFit:
    """Monte-Carlo fit of the volume-growth exponent d log V / d log R.

    The standard error is that of the slopes fitted to 8 interleaved batches
    of the directions.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0) or radii[0] <= 0:
        raise ValueError("radii must be a strictly increasing positive sequence")
    n = arr.dimension
    if rng is None:
        rng = np.random.default_rng(cfg.default_seed)
    dirs = rng.standard_normal((samples, 3 * n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base_coords = base.coords()

    chunks = []
    cap = thread_cap()
    chunk_size = 512
    pieces = [dirs[lo:lo + chunk_size] for lo in range(0, samples, chunk_size)]
    if cap == 1 or len(pieces) == 1:
        chunks = [_growth_chunk(arr, B, base_coords, piece, radii, n) for piece in pieces]
    else:
        from concurrent.futures import ThreadPoolExecutor
        workers = cap if cap is not None else min(8, len(pieces))
        with ThreadPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(
                lambda piece: _growth_chunk(arr, B, base_coords, piece, radii, n),
                pieces))
    per_dir = np.vstack(chunks)  # (samples, nR)

    sphere = 2.0 * math.pi ** (1.5 * n) / math.gamma(1.5 * n)
    fiber_vol = (2.0 * math.pi) ** n
    volumes = sphere * fiber_vol * per_dir.mean(axis=0)
    if np.any(volumes <= 0):
        raise ValueError("a requested radius is below the fiber scale; increase radii")

    logR = np.log(radii)
    A = np.vstack([logR, np.ones_like(logR)]).T
    exponent = float(np.linalg.lstsq(A, np.log(volumes), rcond=None)[0][0])

    batch_slopes = []
    for b in range(8):
        sel = per_dir[b::8].mean(axis=0)
        if np.any(sel <= 0):
            continue
        batch_slopes.append(float(np.linalg.lstsq(A, np.log(sphere * fiber_vol * sel),
                                                  rcond=None)[0][0]))
    if len(batch_slopes) >= 2:
        stderr = float(np.std(batch_slopes, ddof=1) / math.sqrt(len(batch_slopes)))
    else:
        stderr = float("inf")
    return GrowthFit(exponent=exponent, std_error=stderr, radii=radii,
                     volumes=volumes, samples=samples)


def volume_growth_exponent(arr: FlatArrangement, B, base: Point3n, radii,
                           samples: int = 4096, rng=None,
                           cfg: Tolerances = DEFAULT) -> float:
    fit = growth_fit(arr, B, base, radii, samples=samples, rng=rng, cfg=cfg)
    if fit.std_error > cfg.growth_max_stderr:
        raise InsufficientSamplesError(fit.std_error, cfg.growth_max_stderr)
    return fit.exponent


# --------------------------------------------------------------------------
# check harness

def _report(name, points, residuals, tol, start, samples=None, detail=None, ok=True):
    """A report that passes when ok holds and every residual is within tol."""
    residuals = [float(r) for r in residuals]
    mx = max(residuals) if residuals else 0.0
    return ResidualReport(
        check_name=name, points=points, residuals=residuals,
        max_residual=mx, tolerance=tol, passed=bool(ok) and mx <= tol,
        samples=samples if samples is not None else len(residuals),
        wall_time_s=time.perf_counter() - start, detail=detail or {})


def _rng_for(seed, check_id):
    return np.random.default_rng([seed, check_id])


def _halving_order(coarse, fine):
    """Step-halving order test on residuals at steps 2h and h: (ok, detail)."""
    # below this, both steps sit at arithmetic noise (which grows as the
    # step shrinks) and the order-of-accuracy ratio is moot
    floor = 1e-6
    mx_c, mx_f = max(coarse), max(fine)
    ratio = mx_c / mx_f if mx_f > floor else float("inf")
    ok = mx_c <= floor or ratio >= 3.0
    return ok, {"coarse_max": mx_c, "step_ratio": ratio, "order_ok": bool(ok)}


def _run(name, seed, check_id, tol, sample, residual, point=None, step=None):
    """The skeleton of every sampled check: timer, seeded sampler, residuals, report.

    sample(rng) gives the items, residual(item) a float and point(item) the
    Point3n recorded for it (the item itself by default).  With a step, the
    residual(item, h) is taken at h = step and 2 * step, and the check must
    also pass the step-halving order test.
    """
    start = time.perf_counter()
    items = sample(_rng_for(seed, check_id))
    points = items if point is None else [point(it) for it in items]
    if step is None:
        return _report(name, points, [residual(it) for it in items], tol, start)
    fine = [residual(it, step) for it in items]
    ok, detail = _halving_order([residual(it, 2 * step) for it in items], fine)
    return _report(name, points, fine, tol, start, detail=detail, ok=ok)


def _phi_fd_residual(arr, B, p, cfg):
    """Relative deviation of Phi from F_xx / 4 by a Richardson pair of Hessians."""
    phi = eval_Phi(arr, B, p, cfg)

    def f(w):
        return eval_F(arr, B, Point3n(w, p.z), cfg)

    # Richardson pair of central Hessians: O(h^4) truncation
    h = cfg.phi_fd_step
    Hx = (4.0 * fd.hessian(f, p.x, h) - fd.hessian(f, p.x, 2.0 * h)) / 3.0
    return np.abs(phi - 0.25 * Hx).max() / max(np.abs(phi).max(), 1e-12)


def _check_phi_fd(arr, B, seed, cfg, classification):
    return _run("phi-fd", seed, 1, cfg.phi_fd_rel,
                lambda rng: sample_points(arr, 100, rng),
                lambda p: _phi_fd_residual(arr, B, p, cfg))


def _check_polyharmonic(arr, B, seed, cfg, classification):
    def sample(rng):
        pts = sample_points(arr, 50, rng, clearance=0.35)
        return [(p, rational_direction(arr.dimension, rng)) for p in pts]

    return _run("polyharmonic", seed, 2, cfg.polyharmonic, sample,
                lambda pv, h: polyharmonic_residual(arr, B, *pv, h, cfg),
                point=lambda pv: pv[0], step=cfg.poly_step)


def _check_ricci(arr, B, seed, cfg, classification):
    clearance = max(0.35, cfg.stencil_clearance * 2 * cfg.curvature_step)
    return _run("ricci", seed, 6, cfg.ricci,
                lambda rng: sample_points(arr, 10, rng, clearance=clearance),
                lambda p, h: ricci_residual(arr, B, p, h, cfg),
                step=cfg.curvature_step)


def _check_conformal(arr, B, seed, cfg, classification):
    return _run("conformal", seed, 7, cfg.harmonic,
                lambda rng: sample_points(arr, 20, rng),
                lambda p: conformal_factor_check(arr, B, p.coords(), cfg.harmonic_step, cfg))


def _roundtrip_residual(arr, B, chart, step, cfg):
    """|F at the chart point - F rebuilt by reconstruct_F_from_K from K alone|."""
    def kfun(u, z):
        return legendre_solve(arr, B, u, z, x0=chart.x, cfg=cfg).K

    rec = reconstruct_F_from_K(kfun, chart.u, chart.z, step, cfg)
    return abs(rec.value - eval_F(arr, B, Point3n(chart.x, chart.z), cfg))


def _chart_check(name, check_id, count, residual, tol, step="fd_step"):
    """Runner of a check measured at solved chart points.

    residual(arr, B, chart, step, cfg) is measured at `count` charts; tol and
    step name the Tolerances fields of its threshold and its step.
    """
    def run(arr, B, seed, cfg, classification):
        h = getattr(cfg, step)
        return _run(name, seed, check_id, getattr(cfg, tol),
                    lambda rng: sample_chart_points(arr, B, count, rng, cfg=cfg),
                    lambda ch: residual(arr, B, ch, h, cfg),
                    point=lambda ch: Point3n(ch.x, ch.z))
    return run


def _check_growth(arr, B, seed, cfg, classification):
    start = time.perf_counter()
    rng = _rng_for(seed, 8)
    expected = classification.volume_growth_exponent
    radii = np.geomspace(60.0, 960.0, 9)
    base = Point3n(np.zeros(arr.dimension), np.zeros(arr.dimension))
    fit = growth_fit(arr, B, base, radii, samples=4096, rng=rng, cfg=cfg)
    return _report("growth", [base], [abs(fit.exponent - expected)],
                   cfg.growth_tolerance, start, samples=fit.samples,
                   detail={"exponent": fit.exponent, "expected": expected,
                           "std_error": fit.std_error,
                           "volumes": fit.volumes.tolist(),
                           "radii": fit.radii.tolist()},
                   ok=fit.std_error <= cfg.growth_max_stderr)


def _check_classification(arr, B, seed, cfg, report, expected):
    from . import lattice
    start = time.perf_counter()
    got = report.as_dict()
    mismatches = {}
    rng = _rng_for(seed, 11)

    def miss(key, want, have):
        mismatches[key] = {"expected": want, "got": have}

    for key, want in expected.items():
        if key == "failing_stratum_active":
            have = (tuple(report.failing_stratum.active)
                    if report.failing_stratum is not None else None)
            if have != tuple(want):
                miss(key, list(want), list(have or []))
        elif key == "invariant_factors":
            if report.failing_stratum is None:
                miss(key, list(want), None)
            else:
                rows = [arr.flats[k].normal.entries
                        for k in report.failing_stratum.active]
                have = tuple(lattice.invariant_factors(rows))
                if have != tuple(want):
                    miss(key, list(want), list(have))
        elif key == "stratum_count":
            have = len(report.strata)
            if have != want:
                miss(key, want, have)
        elif key == "phi_constant":
            pts = sample_points(arr, 5, rng)
            have = [float(eval_Phi(arr, B, p, cfg)[0, 0]) for p in pts]
            if any(abs(v - want) > 1e-12 for v in have):
                miss(key, want, have)
        elif key == "phi_radial_coefficient":
            pts = sample_points(arr, 5, rng)
            for p in pts:
                r = math.sqrt(p.x[0] ** 2 + abs(p.z[0]) ** 2)
                have = float(eval_Phi(arr, B, p, cfg)[0, 0]) * r
                if abs(have - want) > 1e-12:
                    miss(key, want, have)
                    break
        elif key in got:
            if got[key] != want:
                miss(key, want, got[key])
    res = [float(len(mismatches))]
    return _report("classification", [], res, 0.0, start,
                   detail={"mismatches": mismatches, "report": got})


def _check_local_models(arr, B, seed, cfg, classification):
    from . import localmodel
    start = time.perf_counter()
    rng = _rng_for(seed, 10)
    p = rng.uniform(-2.0, 2.0, (10000, 3))
    y = localmodel.chart_inverse(p)
    back = localmodel.orbit_chart(y)
    inv_res = float(np.abs(back - p).max())
    rel_res = localmodel.variety_residual(y)
    slice_samples = np.zeros((64, 1, 4))
    slice_samples[:, 0, 0] = np.linspace(0.0, 1.0, 64)
    slice_c = localmodel.bilipschitz_check(slice_samples).constant
    res = [inv_res, rel_res, abs(slice_c - 0.5)]
    return _report("local-models", [], res, cfg.local_model, start, samples=10000,
                   detail={"slice_constant": slice_c})


# name -> (runner, whether the check is the n = 1 statement only)
_CHECKS = {
    "phi-fd": (_check_phi_fd, False),
    "polyharmonic": (_check_polyharmonic, False),
    "monge-ampere": (_chart_check("monge-ampere", 3, 20, monge_ampere_residual,
                                  "monge_ampere"), True),
    "hessian-identity": (_chart_check("hessian-identity", 4, 10, hessian_identity_residual,
                                      "hessian_identity"), True),
    "sp-condition": (_chart_check("sp-condition", 5, 10, sp_condition_residual,
                                  "sp_condition"), False),
    "ricci": (_check_ricci, True),
    "conformal": (_check_conformal, True),
    "growth": (_check_growth, True),
    "roundtrip": (_chart_check("roundtrip", 9, 20, _roundtrip_residual, "roundtrip",
                               step="reconstruct_step"), False),
    "local-models": (_check_local_models, False),
}


def check_names():
    return list(_CHECKS) + ["classification"]


def run_checks(arr: FlatArrangement, B, checks=None, seed=None,
               expected=None, include_local=False,
               cfg: Tolerances = DEFAULT) -> list:
    """Run named verification checks; None selects every applicable default.

    The default set excludes "local-models" (chart-model identities are not a
    property of a particular arrangement) unless include_local is set, and
    excludes "growth" and "ricci" for non-smooth or higher-n inputs per each
    check's applicability rule.  "classification" runs whenever expectations
    are supplied.
    """
    if seed is None:
        seed = cfg.default_seed
    if B is None:
        B = DeformationMatrix.zero(arr.dimension)
    classification = classification_report(arr, B, cfg)
    reports = []
    if checks is None:
        selected = [name for name, (_, n1_only) in _CHECKS.items()
                    if (arr.dimension == 1 or not n1_only) and name != "local-models"]
        if not classification.smooth:
            selected = [s for s in selected if s != "growth"]
        if include_local:
            selected.append("local-models")
        if expected:
            selected.append("classification")
    else:
        selected = list(checks)
    for name in selected:
        if name == "classification":
            reports.append(_check_classification(arr, B, seed, cfg, classification,
                                                 expected or {}))
            continue
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(check_names())}")
        runner, n1_only = _CHECKS[name]
        if n1_only and arr.dimension != 1:
            raise ValueError(f"check {name!r} does not apply to this arrangement")
        reports.append(runner(arr, B, seed, cfg, classification))
    return reports
