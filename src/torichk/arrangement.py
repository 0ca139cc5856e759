"""Flat arrangements in R^(3n) and their exact classification.

An arrangement is a finite list of codimension-3 affine subspaces ("flats")
H_k = { (x, z) : <x, u_k> = l1_k, <z, u_k> = l2_k + i l3_k } with primitive
integer normals u_k, offsets (l1, l2, l3) and positive masses a_k, together
with a symmetric PSD deformation matrix B.  Classification (smoothness,
strata, topology type) is exact integer lattice algebra: Smith
normal forms decide whether active normal sets extend to a Z-basis of Z^n.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import lattice
from .config import DEFAULT
from .errors import ArrangementError


def _as_readonly(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Point3n:
    """A point (x, z) in R^n x C^n, the moment-map target R^3 (x) R^n.

    x and z may carry leading batch axes, shape (..., n): then the object is
    a batch of points, and the evaluators of the potential module return one
    result per point along the same axes.
    """

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        # private copies: freezing the caller's own arrays would make them read-only
        x = np.array(self.x, dtype=float, ndmin=1)
        z = np.array(self.z, dtype=complex, ndmin=1)
        if x.shape != z.shape:
            raise ValueError("x and z must have equal shapes (..., n)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "x", _as_readonly(x))
        object.__setattr__(self, "z", _as_readonly(z))

    def __len__(self) -> int:
        if self.x.ndim == 1:
            raise TypeError("a single point has no length; only a batch (..., n) does")
        return len(self.x)

    def __getitem__(self, i) -> "Point3n":
        """The points i of the leading batch axis: an index or a slice."""
        len(self)
        return Point3n(self.x[i], self.z[i])

    def coords(self) -> np.ndarray:
        """Block coordinates (x_1..x_n, Re z_1..Re z_n, Im z_1..Im z_n), (..., 3n)."""
        return np.concatenate([self.x, self.z.real, self.z.imag], axis=-1)

    @classmethod
    def from_coords(cls, w) -> "Point3n":
        w = np.asarray(w, dtype=float)
        if w.ndim < 1 or w.shape[-1] % 3:
            raise ValueError("expected coordinates of length 3n along the last axis")
        n = w.shape[-1] // 3
        # filling .real and .imag keeps the sign of a zero, which re + 1j * im loses
        z = np.empty(w.shape[:-1] + (n,), dtype=complex)
        z.real, z.imag = w[..., n:2 * n], w[..., 2 * n:]
        return cls(w[..., :n], z)


@dataclass(frozen=True)
class Flat:
    """One codimension-3 affine flat: normal, three offsets, positive mass.

    The normal is a nonzero primitive integer vector, stored as a tuple of
    ints; integral floats are accepted.  (u, l) and (-u, -l) cut out the same
    flat; storage is canonicalized so the first nonzero normal entry is
    positive.
    """

    normal: tuple
    offsets: tuple
    mass: float = 1.0

    def __post_init__(self):
        # an entry is integral when int() keeps its value, whatever its type;
        # a bool is refused although True == 1
        try:
            normal = tuple(int(e) for e in self.normal)
        except (TypeError, ValueError, OverflowError):
            normal = None
        if (normal is None or normal != tuple(self.normal)
                or any(isinstance(e, (bool, np.bool_)) for e in self.normal)):
            raise ArrangementError(f"normal entries must be integers: {self.normal!r}")
        if not any(normal):
            raise ArrangementError("normal must be nonzero")
        g = math.gcd(*normal)
        if g != 1:
            raise ArrangementError(f"normal not primitive (gcd {g})")
        off = tuple(float(v) for v in self.offsets)
        if len(off) != 3 or not all(math.isfinite(v) for v in off):
            raise ArrangementError("offsets must be three finite reals")
        mass = float(self.mass)
        if not (mass > 0 and math.isfinite(mass)):
            raise ArrangementError("mass must be positive")
        if next(e for e in normal if e != 0) < 0:
            normal = tuple(-e for e in normal)
            off = tuple(-v for v in off)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "mass", mass)


class FlatFrame(NamedTuple):
    """Read-only per-flat arrays: normals U (d, n), offsets l1 and
    lc = l2 + i l3, masses a, normal lengths norms = |u_k| and offset sizes
    sizes = max(|l1_k|, |l2_k|, |l3_k|), each (d,)."""

    U: np.ndarray
    l1: np.ndarray
    lc: np.ndarray
    a: np.ndarray
    norms: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class FlatArrangement:
    dimension: int
    flats: tuple = ()

    def __post_init__(self):
        # as for a normal entry, int() must keep the value (so "2" is
        # refused); a bool is refused although True == 1
        try:
            n = int(self.dimension)
        except (TypeError, ValueError, OverflowError):
            n = 0
        if isinstance(self.dimension, (bool, np.bool_)) or n != self.dimension or n < 1:
            raise ArrangementError("dimension must be a positive integer")
        flats = tuple(self.flats)
        for k, f in enumerate(flats):
            if not isinstance(f, Flat):
                raise ArrangementError(f"flats[{k}] is not a Flat")
            if len(f.normal) != n:
                raise ArrangementError(
                    f"flats[{k}]: normal has length {len(f.normal)}, expected {n}")
        seen = {}
        for k, f in enumerate(flats):
            key = (f.normal, f.offsets)
            if key in seen:
                raise ArrangementError(f"flats[{seen[key]}] and flats[{k}] are identical")
            seen[key] = k
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "flats", flats)

    @cached_property
    def frame(self) -> FlatFrame:
        """The per-flat arrays, built once per arrangement."""
        U = np.array([f.normal for f in self.flats], dtype=float).reshape(
            -1, self.dimension)
        lam = np.array([f.offsets for f in self.flats], dtype=float).reshape(-1, 3)
        a = np.array([f.mass for f in self.flats], dtype=float)
        return FlatFrame(*(_as_readonly(m) for m in (
            U, lam[:, 0].copy(), lam[:, 1] + 1j * lam[:, 2], a,
            np.linalg.norm(U, axis=1), np.abs(lam).max(axis=1))))

    def svr(self, x, z):
        """Per-flat data at x (..., n) real and z (..., n) complex, each (..., d):

            s_k = <x,u_k> - l1_k,  v_k = <z,u_k> - lc_k,  r_k = sqrt(s_k^2 + |v_k|^2),

        and t_k = s_k + r_k under F's logarithm; every evaluator and sampler reads these.
        """
        f = self.frame
        s = x @ f.U.T - f.l1
        v = z @ f.U.T - f.lc
        r = np.sqrt(s * s + (v * v.conj()).real)
        return s, v, r, s + r  # t after r's statement: none of its temporaries is alive


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
    @cache
    def zero(cls, n: int) -> "DeformationMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def of(cls, B, n: int) -> "DeformationMatrix":
        """B as an n x n DeformationMatrix: None is the zero matrix (one per n)
        and an array is validated; any other size raises ArrangementError."""
        if B is None:
            return cls.zero(n)
        if not isinstance(B, DeformationMatrix):
            B = cls(B)
        if B.dimension != n:
            raise ArrangementError(
                f"deformation matrix is {B.dimension}x{B.dimension}, expected {n}x{n}")
        return B

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
    lies off every other flat and within on_flat times the offset scale of
    each flat in `active`, the scale being max(1, largest |offset| of the
    active flats): rounding grows with the offsets.  `invariant_factors` are
    the nonzero Smith invariant factors of the active normals (not part of
    as_dict); `rank`, the rank of their integer span, is their count.
    """

    active: tuple
    witness: Point3n
    invariant_factors: tuple

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

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


def flat_distances(arr: FlatArrangement, x, z) -> np.ndarray:
    """Per-flat deviation |s_k| + |v_k| at x (..., n) real and z (..., n)
    complex, each (..., d); exactly 0 on the flat."""
    s, v, _, _ = arr.svr(x, z)
    return np.abs(s) + np.abs(v)


def _offset_scale(arr, idx):
    """max(1, largest |offset| of the flats idx): residuals up to tol times
    this count as zero."""
    return max(1.0, float(arr.frame.sizes[idx].max()))


def _solve_flat_system(arr, idx, atol):
    """Min-norm point (x, z) of the intersection of the flats idx, or None.

    Solves the stacked real/complex linear systems with a rank-revealing
    least-squares solve and checks the residual against atol.
    """
    f = arr.frame
    U, l1, lc = f.U[idx], f.l1[idx], f.lc[idx]
    x, _, _, _ = np.linalg.lstsq(U, l1, rcond=None)
    z, _, _, _ = np.linalg.lstsq(U.astype(complex), lc, rcond=None)
    res_x = np.abs(U @ x - l1).max(initial=0.0)
    res_z = np.abs(U @ z - lc).max(initial=0.0)
    if max(res_x, res_z) > atol:
        return None
    return x, z


def _closure(arr, idx, base, atol):
    """All flat indices whose flat contains the intersection of the flats idx
    through the point base = (x, z)."""
    U = arr.frame.U
    sub = U[idx]
    out = set(idx)
    for j in np.flatnonzero(flat_distances(arr, *base) <= atol).tolist():
        if j in out:
            continue
        # containment also needs u_j in the row span of the active normals
        coef, _, _, _ = np.linalg.lstsq(sub.T, U[j], rcond=None)
        if np.abs(sub.T @ coef - U[j]).max() <= 1e-9:
            out.add(j)
    return tuple(sorted(out))


def _screen(arr, S, tol):
    """One SVD of the normals U_S of stratum S: (nullspace (n, n - rank), skip (d,)).

    skip[j]: u_j = c_j . U_S lies in the span of U_S, and |l_j - c_j . l_S|,
    which (u_j.x - l_j) - c_j . (U_S x - l_S) equals at every x, exceeds
    (1 + |c_j|_1) tol * scale a thousandfold, far beyond rounding; so no x is
    within tol * scale of all of S + {j}, and _solve_flat_system returns None.
    """
    f = arr.frame
    U, l1, lc = f.U, f.l1, f.lc
    idx = list(S)
    w, sv, vt = np.linalg.svd(U[idx])
    rank = int(np.sum(sv > 1e-11 * max(1.0, sv[0])))
    C = (U @ vt[:rank].T / sv[:rank]) @ w[:, :rank].T  # u_j ~ C[j] @ U_S, (d, k)
    in_span = np.abs(C @ U[idx] - U).max(axis=1) <= 1e-9
    gap = np.maximum(np.abs(C @ l1[idx] - l1), np.abs(C @ lc[idx] - lc))
    bound = (1e3 * tol * (1.0 + np.abs(C).sum(axis=1))
             * np.maximum(_offset_scale(arr, idx), f.sizes))
    return vt[rank:].T, in_span & (gap > bound)


def _witness(arr, active, base, null, rng, tol):
    """The point base = (x, z) on the flats active, perturbed off every other
    flat along the nullspace of the active normals, as a Point3n."""
    others = [j for j in range(len(arr.flats)) if j not in active]
    x, z = base
    if null.shape[1] == 0 or not others:
        return Point3n(x, z)
    for _ in range(64):
        cx = rng.uniform(-1.0, 1.0, null.shape[1])
        cz = rng.uniform(-1.0, 1.0, null.shape[1]) + 1j * rng.uniform(-1.0, 1.0, null.shape[1])
        cand = x + null @ cx, z + null @ cz
        if (flat_distances(arr, *cand)[others] > 1e3 * tol).all():
            return Point3n(*cand)
    raise ArrangementError("could not find a witness avoiding the other flats")


def intersection_strata(arr: FlatArrangement) -> list:
    """Every distinct nonempty intersection of flats, as a Stratum each.

    Each intersection is reported once, tagged with its closed index set
    (all flats containing it); index subsets cutting out the same
    intersection are not listed separately.

    Breadth first: each stratum S is extended by every flat j not in S, and
    each such candidate counts towards DEFAULT.strata_subset_limit; only new
    candidates that the screen of S cannot rule out are solved.  Solves and
    closures work on raw (x, z) arrays: the witnesses are the only validated
    Point3n built, one per stratum.  Strata with the same active normals
    share one Smith form.
    """
    d = len(arr.flats)
    rng = np.random.default_rng(DEFAULT.default_seed)
    tol, limit = DEFAULT.on_flat, DEFAULT.strata_subset_limit

    def solve(idx):
        atol = tol * _offset_scale(arr, idx)
        base = _solve_flat_system(arr, idx, atol)
        return None if base is None else (_closure(arr, idx, base, atol), base)

    found = {}
    nulls = {}
    solved = set()
    examined = 0
    frontier = []
    for k in range(d):
        closed, base = solve([k])
        if closed not in found:
            found[closed] = base
            frontier.append(closed)
    while frontier:
        next_frontier = []
        for S in frontier:
            nulls[S], skip = _screen(arr, S, tol)
            for j in range(d):
                if j in S:
                    continue
                examined += 1
                if examined > limit:
                    raise ArrangementError(
                        f"strata enumeration exceeded {limit} candidate subsets")
                cand = tuple(sorted(set(S) | {j}))
                if skip[j] or cand in solved:
                    continue
                solved.add(cand)
                hit = solve(list(cand))
                if hit is None:
                    continue
                closed, base = hit
                if closed not in found:
                    found[closed] = base
                    next_frontier.append(closed)
        frontier = next_frontier

    factors = {}  # active normal rows -> their invariant factors
    strata = []
    for S in sorted(found, key=lambda s: (len(s), s)):
        rows = tuple(arr.flats[k].normal for k in S)
        if rows not in factors:
            factors[rows] = tuple(lattice.invariant_factors(rows))
        strata.append(Stratum(
            active=S, witness=_witness(arr, S, found[S], nulls[S], rng, tol),
            invariant_factors=factors[rows]))
    return strata


def _failing_stratum(strata):
    """The first stratum whose active normals do not extend to a Z-basis,
    that is, do not have one invariant factor 1 per normal."""
    for stratum in strata:
        if stratum.invariant_factors != (1,) * len(stratum.active):
            return stratum
    return None


def classification_report(arr: FlatArrangement, B=None) -> ClassificationReport:
    """Smoothness and topology of the arrangement with deformation B.

    B is None, a DeformationMatrix or an array (see DeformationMatrix.of).
    A non-smooth input is reported, not refused: smooth is False and
    failing_stratum names the first stratum that fails the Z-basis test.
    """
    B = DeformationMatrix.of(B, arr.dimension)
    strata = tuple(intersection_strata(arr))
    failing = _failing_stratum(strata)
    if failing is not None:
        return ClassificationReport(smooth=False, failing_stratum=failing, strata=strata)
    n = arr.dimension
    d = len(arr.flats)
    max_rank = max((s.rank for s in strata), default=0)
    m = B.order
    ale = d - 1 if (n == 1 and m == 0 and d >= 1) else None
    through_origin = bool(arr.frame.sizes.max(initial=0.0) <= DEFAULT.on_flat)
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
        u = np.array(f.normal, dtype=float)
        shift = (float(u @ t), float(u @ w.real), float(u @ w.imag))
        flats.append(Flat(f.normal,
                          tuple(o + s for o, s in zip(f.offsets, shift)),
                          f.mass))
    return FlatArrangement(arr.dimension, tuple(flats))
