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
from itertools import chain, compress
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
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
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
            raise ArrangementError(f"mass must be {'positive' if mass <= 0 else 'finite'}")
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

    def svr(self, x, z=None, vv=None):
        """Per-flat data at x (..., n) real and z (..., n) complex, each (..., d):

            s_k = <x,u_k> - l1_k,  v_k = <z,u_k> - lc_k,  r_k = sqrt(s_k^2 + |v_k|^2),

        and t_k = s_k + r_k under F's logarithm; every evaluator and sampler reads these.
        A caller that moves x at a fixed z passes vv = |v|^2 (..., d) in place
        of z; v is then None.
        """
        f = self.frame
        return _per_flat(x @ f.U.T, f.l1, None if z is None else z @ f.U.T, f.lc, vv)

    def svr_by_flat(self, x, z):
        """svr at the rows of x (N, n) and z (N, n), flat-major: each output is (d, N).

        One pass over N values takes off each flat's offset, not N passes over d.
        The bits are svr's: U @ x.T makes the BLAS sums of x @ U.T, and for n = 1
        a broadcast makes the same single products faster than BLAS.
        """
        f = self.frame
        mul = np.multiply if self.dimension == 1 else np.matmul
        return _per_flat(mul(f.U, x.T), f.l1[:, None], mul(f.U, z.T), f.lc[:, None], None)


def _per_flat(xu, l1, zu, lc, vv):
    """s, v, r, t of FlatArrangement.svr from the products <x,u_k> and <z,u_k>."""
    s = xu - l1
    v = None if zu is None else zu - lc
    r = np.sqrt(s * s + (vv if v is None else (v * v.conj()).real))
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
        with np.errstate(over="ignore"):  # a sum past float64 is refused below
            mat = 0.5 * (mat + mat.T)
        if not np.all(np.isfinite(mat)):
            raise ArrangementError("deformation matrix too large: its symmetric part overflows")
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


def _frontier_points(arr, frontier):
    """The min-norm points of a frontier's strata S and what their extensions
    read, as stacks [(rows, idx, x, z, null, pinv, s, v, P)], one per group
    of the same (|S|, rank): rows its positions in the frontier, idx its flats.

    Per stratum, U_S = W Sigma V^T; the rank counts the singular values above
    1e-11 max(1, sigma_1), pinv = V_r Sigma_r^-1 W_r^T (n, |S|) is the
    pseudo-inverse of U_S, (x, z) = pinv (l1_S, lc_S) the min-norm point, null
    = V_{rank:}^T (n, n - rank) a basis of the nullspace of U_S, s and v those
    of svr at (x, z), each (d,), and P = U null (d, n - rank).  One SVD serves
    the strata of each |S| and one product each group of the same (|S|, rank):
    every slice of a stack is the call that a single stratum's arrays make,
    with the same layout, so the bits are those of one stratum at a time.
    """
    f = arr.frame
    out = []
    by_size = {}
    for i, S in enumerate(frontier):
        by_size.setdefault(len(S), []).append(i)
    for members in by_size.values():
        rows = np.array(members)
        idx = np.array([frontier[i] for i in members])
        w, sv, vt = np.linalg.svd(f.U[idx])
        ranks = np.count_nonzero(sv > 1e-11 * np.maximum(1.0, sv[:, :1]), axis=1)
        for rank in sorted(set(ranks.tolist())):
            sel = ranks == rank
            vr = vt[sel]
            pinv = (vr[:, :rank].transpose(0, 2, 1) / sv[sel, None, :rank]
                    ) @ w[sel][:, :, :rank].transpose(0, 2, 1)
            x = (pinv @ f.l1[idx[sel]][..., None])[..., 0]
            z = (pinv @ f.lc[idx[sel]][..., None])[..., 0]
            null = vr[:, rank:].transpose(0, 2, 1)
            s = (x[:, None, :] @ f.U.T)[:, 0] - f.l1
            v = (z[:, None, :] @ f.U.T)[:, 0] - f.lc
            out.append((rows[sel], idx[sel], x, z, null, pinv, s, v, f.U @ null))
    return out


def _extend(arr, idx, todo, s, v, P, pinv, tol):
    """The closed index sets of the candidates S + {j}, j in S's row of todo
    (k, d), of a group of strata S of one size and rank, whose flats meet
    within atol_j = tol max(1, largest |offset| of the flats S + {j}): one
    list per stratum.  idx, s, v, P and pinv are the group's stacks from
    _frontier_points.

    A flat j with P_j != 0 always meets S, at the min-norm point
    x - null P_j^T s_j / |P_j|^2 (z likewise with v_j), where flat k has
    s_k - G_jk s_j / |P_j|^2, G_jk = P_j . P_k; its closure adds the flats
    within atol_j of that point whose P_k is parallel to P_j, that is, whose
    u_k lies in the span of U_S and u_j.  These are (|J|, d) column
    operations over the group's candidates at once.  At null width 1 each
    G_jk is one product, made by one stacked outer product; past it,
    G = P_J P^T stays one product per stratum, since a stacked product's
    rows can differ from it in their last bits and G decides closures at
    the tolerance.

    A flat with u_j = c_j . U_S in the span of U_S (P_j = 0, so every flat
    at a point) is skipped when max(|s_j|, |v_j|), which differs from the
    gap |l_j - c_j . l_S| by at most |c_j|_1 times S's own residual (a few
    atol), exceeds (1 + |c_j|_1) atol_j a thousandfold: no point is within
    atol_j of every flat of S + {j}, the gap being at most (1 + |c_j|_1)
    atol_j at such a point.  The few left, near the tolerance, are solved
    and closed by least squares.
    """
    f = arr.frame
    closed = [[] for _ in todo]
    atol = tol * np.maximum(f.sizes[idx].max(axis=1, initial=1.0)[:, None], f.sizes)
    pp = np.einsum("ijm,ijm->ij", P, P)  # squared distance of u_j from the span of U_S
    off = todo & (pp > 1e-18)
    i, J = np.nonzero(off)  # candidate S_i + {j}, stratum by stratum
    if J.size:
        if P.shape[2] == 1:
            G = P[i, J] * P[i, :, 0]  # P_j . P_k, (|J|, d)
        else:
            G = np.concatenate([P[r, row] @ P[r].T for r, row in enumerate(off) if row.any()])
        c = 1.0 / pp[i, J]
        # s_k and v_k at the point of candidate j: u_k . null P_j^T = G_jk
        hit = (np.abs(s[i] - (s[i, J] * c)[:, None] * G)
               + np.abs(v[i] - (v[i, J] * c)[:, None] * G)) <= atol[i, J][:, None]
        if P.shape[2] > 1:  # else every P_k is parallel to P_j
            rest = P[i] - (G * c[:, None])[:, :, None] * P[i, J][:, None, :]
            hit &= np.einsum("jkm,jkm->jk", rest, rest) <= 1e-18
        hit[np.arange(J.size)[:, None], idx[i]] = True
        hit[np.arange(J.size), J] = True
        for r, row in zip(i.tolist(), hit.tolist()):
            closed[r].append(tuple(compress(range(len(f.U)), row)))
    K = todo & ~off
    if K.any():
        gap = np.maximum(np.abs(s), np.abs(v))
        bound = 1e3 * (1.0 + np.abs(f.U @ pinv).sum(axis=2)) * atol
        for r, j in np.argwhere(K & (gap <= bound)).tolist():
            cand = sorted(idx[r].tolist() + [j])
            base = _solve_flat_system(arr, cand, atol[r, j])
            if base is not None:
                closed[r].append(_closure(arr, cand, base, atol[r, j]))
    return closed


def _witness_draws(arr, strata, c, tol):
    """The witness candidates of strata [(active, x, z, null)] at the draws
    c, 3 m per stratum in turn (m its null width), as (x, z, ok): x + null
    c_x and z + null (c_re + i c_im), (k, n) each, and whether each lies
    farther than 1e3 tol from every flat not active, (k,).  Each group of the
    same m is a stack of the products one stratum's arrays make."""
    f = arr.frame
    widths = [null.shape[1] for *_, null in strata]
    start = np.cumsum([0] + [3 * m for m in widths])
    cx = np.empty((len(strata), arr.dimension))
    cz = np.empty_like(cx, dtype=complex)
    by_width = {}
    for i, m in enumerate(widths):
        by_width.setdefault(m, []).append(i)
    for m, rows in by_width.items():
        C = c[start[rows, None] + np.arange(3 * m)]
        null = np.stack([strata[i][3].T for i in rows]).transpose(0, 2, 1)
        cx[rows] = np.array([strata[i][1] for i in rows]) + (null @ C[:, :m, None])[..., 0]
        cz[rows] = np.array([strata[i][2] for i in rows]) + (
            null @ (C[:, m:2 * m] + 1j * C[:, 2 * m:])[..., None])[..., 0]
    s = (cx[:, None, :] @ f.U.T)[:, 0] - f.l1
    v = (cz[:, None, :] @ f.U.T)[:, 0] - f.lc
    away = np.abs(s) + np.abs(v) > 1e3 * tol
    for row, (active, *_) in zip(away, strata):
        row[list(active)] = True
    return cx, cz, away.all(axis=1)


def _witnesses(arr, strata, rng, tol):
    """The witness of each stratum of [(active, x, z, null)], as a Point3n:
    its point (x, z), perturbed off every other flat along the nullspace null
    of the active normals.

    Each stratum in turn draws 3 m uniforms in [-1, 1) from rng until its
    candidate (_witness_draws) lies off the other flats, 64 times at most.
    The first draws of all the strata come from one rng call; from the
    first refused one on, rng is wound back to it and that stratum draws
    alone, so that the draws and rng's final state are those of one stratum
    at a time.
    """
    d = len(arr.flats)
    points = [(x, z) for _, x, z, _ in strata]
    pending = [i for i, (active, _, _, null) in enumerate(strata)
               if null.shape[1] and len(active) < d]
    while pending:
        state = rng.bit_generator.state
        widths = [3 * strata[i][3].shape[1] for i in pending]
        cx, cz, ok = _witness_draws(
            arr, [strata[i] for i in pending], rng.uniform(-1.0, 1.0, sum(widths)), tol)
        first = int(np.argmin(ok)) if not ok.all() else len(pending)
        for k, i in enumerate(pending[:first]):
            points[i] = cx[k], cz[k]
        if first == len(pending):
            break
        rng.bit_generator.state = state
        rng.uniform(-1.0, 1.0, sum(widths[:first + 1]))  # up to the refused draw
        i = pending[first]
        for _ in range(63):
            cx, cz, ok = _witness_draws(
                arr, [strata[i]], rng.uniform(-1.0, 1.0, widths[first]), tol)
            if ok[0]:
                points[i] = cx[0], cz[0]
                break
        else:
            raise ArrangementError("could not find a witness avoiding the other flats")
        pending = pending[first + 1:]
    return [Point3n(x, z) for x, z in points]


def intersection_strata(arr: FlatArrangement) -> list:
    """Every distinct nonempty intersection of flats, as a Stratum each.

    Each intersection is reported once, tagged with its closed index set
    (all flats containing it); index subsets cutting out the same
    intersection are not listed separately.

    Breadth first from the whole space, one frontier at a time.  First, in
    frontier order, each stratum S gets the flats j that make S + {j} a
    candidate not yet seen; each candidate counts towards
    DEFAULT.strata_subset_limit, so the count and the error depend only on
    that order.  Then the frontier's min-norm points, nullspaces and flat
    data come as stacks (_frontier_points): one SVD per |S|, and products
    that run, slice by slice, the BLAS call one stratum would.  Each group
    of the same (|S|, rank) is extended by every flat at once (_extend),
    G = P_J P^T being one outer product at null width 1 and one product per
    stratum past it; the closures join the next frontier in frontier order.
    Only extensions by a flat whose normal lies in the span of S's normals,
    and which the screen of S cannot rule out, take a least-squares solve.
    The witness of S perturbs S's own min-norm point, so it does not depend
    on the candidate that found S; the witnesses' first draws are one rng
    call and one stacked distance test (_witnesses), and they are the only
    validated Point3n built, one per stratum.  Strata with the same active
    normals share one Smith form.
    """
    f = arr.frame
    d, n = len(arr.flats), arr.dimension
    rng = np.random.default_rng(DEFAULT.default_seed)
    tol, limit = DEFAULT.on_flat, DEFAULT.strata_subset_limit

    # the singletons extend the whole space: its point is 0 and P = U
    s, v, _, _ = arr.svr(np.zeros(n), np.zeros(n, dtype=complex))
    found = dict.fromkeys(_extend(arr, np.zeros((1, 0), dtype=int), np.ones((1, d), dtype=bool),
                                  s[None], v[None], f.U[None], None, tol)[0])
    frontier = list(found)
    solved = set()  # candidate subsets as bit masks: each is extended once
    examined = 0
    while frontier:
        todo = np.zeros((len(frontier), d), dtype=bool)
        for row, S in zip(todo, frontier):
            examined += d - len(S)
            if examined > limit:
                raise ArrangementError(
                    f"strata enumeration exceeded {limit} candidate subsets")
            bits = sum(1 << k for k in S)
            for j in range(d):
                cand = bits | 1 << j
                if cand != bits and cand not in solved:  # j not in S, S + {j} new
                    solved.add(cand)
                    row[j] = True
        closures = [None] * len(frontier)
        for rows, idx, x, z, null, pinv, s, v, P in _frontier_points(arr, frontier):
            closed = _extend(arr, idx, todo[rows], s, v, P, pinv, tol)
            for k, i in enumerate(rows.tolist()):
                found[frontier[i]] = x[k], z[k], null[k]
                closures[i] = closed[k]
        frontier = []
        for closed in chain.from_iterable(closures):
            if closed not in found:
                found[closed] = None
                frontier.append(closed)

    order = sorted(found, key=lambda s: (len(s), s))
    witnesses = _witnesses(arr, [(S, *found[S]) for S in order], rng, tol)
    factors = {}  # active normal rows -> their invariant factors
    strata = []
    for S, witness in zip(order, witnesses):
        rows = tuple(arr.flats[k].normal for k in S)
        if rows not in factors:
            factors[rows] = tuple(lattice.invariant_factors(rows))
        strata.append(Stratum(active=S, witness=witness, invariant_factors=factors[rows]))
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
