"""Flat arrangements in R^(3n) and their exact classification.

An arrangement is a finite list of codimension-3 affine subspaces ("flats")
H_k = { (x, z) : <x, u_k> = l1_k, <z, u_k> = l2_k + i l3_k } with primitive
integer normals u_k, offsets (l1, l2, l3) and positive masses a_k, together
with a symmetric PSD deformation matrix B.  Classification (smoothness,
strata, isotropy, topology type) is exact integer lattice algebra: Smith
normal forms decide whether active normal sets extend to a Z-basis of Z^n.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import lattice
from .config import DEFAULT, Tolerances
from .errors import ArrangementError


def _as_readonly(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Point3n:
    """A point (x, z) in R^n x C^n, the moment-map target R^3 (x) R^n."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        if x.ndim != 1 or z.ndim != 1 or x.shape != z.shape:
            raise ValueError("x and z must be equal-length vectors")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z.view(float)))):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "x", _as_readonly(x))
        object.__setattr__(self, "z", _as_readonly(z))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def coords(self) -> np.ndarray:
        """Block coordinates (x_1..x_n, Re z_1..Re z_n, Im z_1..Im z_n)."""
        return np.concatenate([self.x, self.z.real, self.z.imag])

    @classmethod
    def from_coords(cls, w) -> "Point3n":
        w = np.asarray(w, dtype=float)
        if w.ndim != 1 or w.size % 3:
            raise ValueError("expected a flat vector of length 3n")
        n = w.size // 3
        return cls(w[:n], w[n:2 * n] + 1j * w[2 * n:])

    def shifted(self, t, w) -> "Point3n":
        return Point3n(self.x + np.asarray(t, float),
                       self.z + np.asarray(w, complex))


@dataclass(frozen=True)
class Normal:
    """Primitive integer normal vector of a flat."""

    entries: tuple

    def __post_init__(self):
        ent = []
        for e in self.entries:
            if isinstance(e, float) and not e.is_integer():
                raise ArrangementError(f"normal entries must be integers: {self.entries!r}")
            try:
                ent.append(int(e))
            except (TypeError, ValueError):
                raise ArrangementError(f"normal entries must be integers: {self.entries!r}")
        ent = tuple(ent)
        if not ent or all(e == 0 for e in ent):
            raise ArrangementError("normal must be nonzero")
        g = math.gcd(*(abs(e) for e in ent))
        if g != 1:
            raise ArrangementError(f"normal not primitive (gcd {g})")
        object.__setattr__(self, "entries", ent)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


@dataclass(frozen=True)
class Flat:
    """One codimension-3 affine flat: normal, three offsets, positive mass.

    (u, l) and (-u, -l) cut out the same flat; storage is canonicalized so
    the first nonzero normal entry is positive.
    """

    normal: Normal
    offsets: tuple
    mass: float = 1.0

    def __post_init__(self):
        off = tuple(float(v) for v in self.offsets)
        if len(off) != 3 or not all(math.isfinite(v) for v in off):
            raise ArrangementError("offsets must be three finite reals")
        mass = float(self.mass)
        if not (mass > 0 and math.isfinite(mass)):
            raise ArrangementError("mass must be positive")
        normal = self.normal
        if not isinstance(normal, Normal):
            normal = Normal(tuple(normal))
        lead = next(e for e in normal.entries if e != 0)
        if lead < 0:
            normal = Normal(tuple(-e for e in normal.entries))
            off = tuple(-v for v in off)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "mass", mass)


class FlatFrame(NamedTuple):
    """Read-only per-flat arrays: normals U (d, n), offsets l1 and
    lc = l2 + i l3, masses a and normal lengths norms = |u_k|, each (d,)."""

    U: np.ndarray
    l1: np.ndarray
    lc: np.ndarray
    a: np.ndarray
    norms: np.ndarray


@dataclass(frozen=True)
class FlatArrangement:
    dimension: int
    flats: tuple = ()

    def __post_init__(self):
        n = int(self.dimension)
        if n < 1:
            raise ArrangementError("dimension must be a positive integer")
        flats = tuple(self.flats)
        for k, f in enumerate(flats):
            if not isinstance(f, Flat):
                raise ArrangementError(f"flats[{k}] is not a Flat")
            if f.normal.dim != n:
                raise ArrangementError(
                    f"flats[{k}]: normal has length {f.normal.dim}, expected {n}")
        seen = {}
        for k, f in enumerate(flats):
            key = (f.normal.entries, f.offsets)
            if key in seen:
                raise ArrangementError(f"flats[{seen[key]}] and flats[{k}] are identical")
            seen[key] = k
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "flats", flats)

    def __len__(self) -> int:
        return len(self.flats)

    def normal_matrix(self) -> np.ndarray:
        """Stacked normals, one row per flat, shape (d, n), float."""
        if not self.flats:
            return np.zeros((0, self.dimension))
        return np.array([f.normal.entries for f in self.flats], dtype=float)

    def offset_matrix(self) -> np.ndarray:
        if not self.flats:
            return np.zeros((0, 3))
        return np.array([f.offsets for f in self.flats], dtype=float)

    def masses(self) -> np.ndarray:
        return np.array([f.mass for f in self.flats], dtype=float)

    @cached_property
    def frame(self) -> FlatFrame:
        """The per-flat arrays, built once per arrangement."""
        U = self.normal_matrix()
        lam = self.offset_matrix()
        return FlatFrame(*(_as_readonly(m) for m in (
            U, lam[:, 0].copy(), lam[:, 1] + 1j * lam[:, 2], self.masses(),
            np.linalg.norm(U, axis=1))))

    def svr(self, x, z):
        """Per-flat data at x (..., n) real and z (..., n) complex, each (..., d):

            s_k = <x,u_k> - l1_k,  v_k = <z,u_k> - lc_k,  r_k = sqrt(s_k^2 + |v_k|^2).

        Every evaluator and sampler derives its flat distances from this.
        """
        U, l1, lc = self.frame[:3]
        s = x @ U.T - l1
        v = z @ U.T - lc
        return s, v, np.sqrt(s * s + (v * v.conj()).real)


class DeformationMatrix:
    """Symmetric PSD matrix B adding the quadratic (Taub-NUT) potential term.

    order = rank(B) is the Taub-NUT order m; eigenvalues in [-tol, 0) are
    clipped to exactly 0 per the declared input contract.
    """

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ArrangementError("deformation matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ArrangementError("deformation matrix must be finite")
        scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
        if not np.allclose(mat, mat.T, atol=1e-12 * scale):
            raise ArrangementError("deformation matrix must be symmetric")
        mat = 0.5 * (mat + mat.T)
        w, v = np.linalg.eigh(mat)
        if w.size and w.min() < -1e-9 * scale:
            raise ArrangementError(
                f"deformation matrix not positive semidefinite (eigenvalue {w.min():.3e})")
        clipped = np.clip(w, 0.0, None)
        if w.size and w.min() < 0:
            mat = (v * clipped) @ v.T
            mat = 0.5 * (mat + mat.T)
        self.entries = _as_readonly(mat)
        rank_tol = 1e-10 * max(1.0, float(clipped.max()) if clipped.size else 0.0)
        self.order = int(np.count_nonzero(clipped > rank_tol))

    @classmethod
    def zero(cls, n: int) -> "DeformationMatrix":
        return cls(np.zeros((n, n)))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"DeformationMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Stratum:
    """A distinct nonempty intersection of flats, keyed by its closed index set.

    `active` is the full set of flat indices containing the intersection, so
    two different strata always have different intersections.  The witness
    lies on exactly the flats in `active`; `rank` is the rank of the integer
    span of the active normals.
    """

    active: tuple
    witness: Point3n
    rank: int

    def as_dict(self) -> dict:
        return {
            "active": list(self.active),
            "rank": self.rank,
            "witness": {
                "x": self.witness.x.tolist(),
                "z_re": self.witness.z.real.tolist(),
                "z_im": self.witness.z.imag.tolist(),
            },
        }


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    smooth: bool
    failing_stratum: Stratum | None = None
    simply_connected: bool | None = None
    flat_factor_l: int | None = None
    taub_nut_order: int | None = None
    volume_growth_exponent: int | None = None
    ale_label: int | None = None
    cone_over_3sasakian: bool | None = None
    strata: tuple = ()  # every stratum, enumerated once; not part of as_dict

    def as_dict(self) -> dict:
        return {
            "smooth": self.smooth,
            "failing_stratum": (None if self.failing_stratum is None
                                else self.failing_stratum.as_dict()),
            "simply_connected": self.simply_connected,
            "flat_factor_l": self.flat_factor_l,
            "taub_nut_order": self.taub_nut_order,
            "volume_growth_exponent": self.volume_growth_exponent,
            "ale_label": self.ale_label,
            "cone_over_3sasakian": self.cone_over_3sasakian,
        }


def flat_distances(arr: FlatArrangement, p: Point3n) -> np.ndarray:
    """Per-flat deviation |s_k| + |v_k| (exactly 0 on the flat)."""
    s, v, _ = arr.svr(p.x, p.z)
    return np.abs(s) + np.abs(v)


def on_flats(arr: FlatArrangement, p: Point3n, tol: float = DEFAULT.on_flat) -> list:
    return [int(k) for k in np.nonzero(flat_distances(arr, p) <= tol)[0]]


def _solve_flat_system(arr, subset, tol):
    """Min-norm point of the intersection of the given flats, or None.

    Solves the stacked real/complex linear systems with a rank-revealing
    least-squares solve and checks the residual against tol.
    """
    U = arr.frame.U[list(subset)]
    lam = arr.offset_matrix()[list(subset)]
    x, _, _, _ = np.linalg.lstsq(U, lam[:, 0], rcond=None)
    z, _, _, _ = np.linalg.lstsq(U.astype(complex), lam[:, 1] + 1j * lam[:, 2],
                                 rcond=None)
    res_x = np.abs(U @ x - lam[:, 0]).max(initial=0.0)
    res_z = np.abs(U @ z - (lam[:, 1] + 1j * lam[:, 2])).max(initial=0.0)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if max(res_x, res_z) > tol * scale:
        return None
    return Point3n(x, z)


def _closure(arr, subset, base_point, tol):
    """All flat indices whose flat contains the intersection through base_point."""
    U = arr.frame.U
    sub = U[list(subset)]
    dist = flat_distances(arr, base_point)
    out = []
    for j in range(len(arr.flats)):
        if j in subset:
            out.append(j)
            continue
        if dist[j] > tol:
            continue
        # containment also needs u_j in the row span of the active normals
        coef, _, _, _ = np.linalg.lstsq(sub.T, U[j], rcond=None)
        if np.abs(sub.T @ coef - U[j]).max() <= 1e-9:
            out.append(j)
    return tuple(sorted(out))


def _nullspace(U):
    _, sv, vt = np.linalg.svd(U)
    rank = int(np.sum(sv > 1e-11 * max(1.0, sv[0] if sv.size else 1.0)))
    return vt[rank:].T  # (n, n-rank)


def _witness(arr, active, base, rng, tol):
    """Perturb the min-norm intersection point off every non-active flat."""
    null = _nullspace(arr.frame.U[list(active)])
    others = [j for j in range(len(arr.flats)) if j not in active]
    if null.shape[1] == 0 or not others:
        return base
    for _ in range(64):
        cx = rng.uniform(-1.0, 1.0, null.shape[1])
        cz = rng.uniform(-1.0, 1.0, null.shape[1]) + 1j * rng.uniform(-1.0, 1.0, null.shape[1])
        cand = Point3n(base.x + null @ cx, base.z + null @ cz)
        dist = flat_distances(arr, cand)
        if all(dist[j] > 1e3 * tol for j in others):
            return cand
    raise ArrangementError("could not find a witness avoiding the other flats")


def intersection_strata(arr: FlatArrangement, cfg: Tolerances = DEFAULT,
                        rng=None) -> list:
    """Every distinct nonempty intersection of flats, as a Stratum each.

    Each intersection is reported once, tagged with its closed index set
    (all flats containing it); index subsets cutting out the same
    intersection are not listed separately.
    """
    d = len(arr.flats)
    if d == 0:
        return []
    if rng is None:
        rng = np.random.default_rng(cfg.default_seed)
    tol = cfg.on_flat

    found = {}
    examined = 0
    frontier = []
    for k in range(d):
        pt = _solve_flat_system(arr, (k,), tol)
        closed = _closure(arr, (k,), pt, tol)
        if closed not in found:
            found[closed] = pt
            frontier.append(closed)
    while frontier:
        next_frontier = []
        for S in frontier:
            for j in range(d):
                if j in S:
                    continue
                examined += 1
                if examined > cfg.strata_subset_limit:
                    raise ArrangementError(
                        f"strata enumeration exceeded {cfg.strata_subset_limit} candidate subsets")
                cand = tuple(sorted(set(S) | {j}))
                pt = _solve_flat_system(arr, cand, tol)
                if pt is None:
                    continue
                closed = _closure(arr, cand, pt, tol)
                if closed not in found:
                    found[closed] = pt
                    next_frontier.append(closed)
        frontier = next_frontier

    strata = []
    for S in sorted(found, key=lambda s: (len(s), s)):
        witness = _witness(arr, S, found[S], rng, tol)
        rows = [arr.flats[k].normal.entries for k in S]
        strata.append(Stratum(active=S, witness=witness,
                              rank=lattice.integer_rank(rows)))
    return strata


def _failing_stratum(arr, strata):
    """The first stratum whose active normals do not extend to a Z-basis."""
    for stratum in strata:
        rows = [arr.flats[k].normal.entries for k in stratum.active]
        if len(rows) > arr.dimension or not lattice.extends_to_zbasis(rows):
            return stratum
    return None


def smoothness_check(arr: FlatArrangement, cfg: Tolerances = DEFAULT):
    """(smooth, failing_stratum): Z-basis extendability of every stratum."""
    failing = _failing_stratum(arr, intersection_strata(arr, cfg))
    return failing is None, failing


def isotropy_at(arr: FlatArrangement, p: Point3n, cfg: Tolerances = DEFAULT):
    """Stabilizer data at p: active normals and the dimension of their span."""
    active = on_flats(arr, p, cfg.on_flat)
    basis = [arr.flats[k].normal for k in active]
    dim = lattice.integer_rank([n.entries for n in basis]) if basis else 0
    return basis, dim


def classify_topology(arr: FlatArrangement, B: DeformationMatrix,
                      cfg: Tolerances = DEFAULT) -> ClassificationReport:
    """Topology classification of a smooth arrangement (raises otherwise)."""
    report = classification_report(arr, B, cfg)
    if not report.smooth:
        raise ArrangementError(
            f"arrangement is not smooth: stratum {list(report.failing_stratum.active)} "
            "fails the Z-basis condition")
    return report


def classification_report(arr: FlatArrangement, B: DeformationMatrix,
                          cfg: Tolerances = DEFAULT) -> ClassificationReport:
    """Like classify_topology but reports non-smooth inputs instead of raising."""
    if B.dimension != arr.dimension:
        raise ArrangementError("deformation matrix dimension mismatch")
    strata = tuple(intersection_strata(arr, cfg))
    failing = _failing_stratum(arr, strata)
    if failing is not None:
        return ClassificationReport(smooth=False, failing_stratum=failing, strata=strata)
    n = arr.dimension
    d = len(arr.flats)
    max_rank = max((s.rank for s in strata), default=0)
    m = B.order
    ale = d - 1 if (n == 1 and m == 0 and d >= 1) else None
    through_origin = bool(np.abs(arr.offset_matrix()).max(initial=0.0) <= cfg.on_flat)
    cone = (m == 0) and (d <= n) and through_origin
    return ClassificationReport(
        smooth=True,
        failing_stratum=None,
        simply_connected=(max_rank == n),
        flat_factor_l=n - max_rank,
        taub_nut_order=m,
        volume_growth_exponent=4 * n - m,
        ale_label=ale,
        cone_over_3sasakian=cone,
        strata=strata,
    )


def translate(arr: FlatArrangement, t, w) -> FlatArrangement:
    """Arrangement translated by (t, w) in R^n x C^n."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=complex)
    flats = []
    for f in arr.flats:
        u = f.normal.as_array()
        shift = (float(u @ t), float(u @ w.real), float(u @ w.imag))
        flats.append(Flat(f.normal,
                          tuple(o + s for o, s in zip(f.offsets, shift)),
                          f.mass))
    return FlatArrangement(arr.dimension, tuple(flats))
