"""Workloads of the torichk benchmark.

Each workload makes its inputs from the seed when it is built.  A pass is a
fixed list of operations, `labels`; `run(i)` performs operation i (the timed
part), `result(i, raw)` collects what it produced, `digest(i, out)` hashes
that for the comparison of repeats, and `check(outputs)` judges the outputs
of one whole pass (untimed).  All calls go through the package's public
functions, looked up on the module at call time so the tracer's wrappers see
them.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

N1_ENTRIES = ("flat-cylinder", "flat-H", "taub-nut", "eguchi-hanson", "multi-EH-3")
N2_ENTRIES = ("n2-unimodular", "n2-unimodular-tn1", "n2-nonsmooth")
N2_SEEDS_PER_PASS = 6
GRID_TILE = 25   # x1 values per export-grid command

# the checks the verify workloads run; each gets a verify.<check>.s metric
VERIFY_CHECKS = ("phi-fd", "polyharmonic", "monge-ampere", "hessian-identity",
                 "sp-condition", "ricci", "conformal", "growth", "roundtrip",
                 "classification")

# classify-strata: a fixed family of base arrangements, made once from
# FAMILY_SEED.  Normals are drawn from a totally unimodular head of each
# palette (mostly smooth arrangements) or from the whole palette (mostly not).
# The workload seed moves each base arrangement by a lattice change of basis
# and a translation, so the inputs change with the seed but the work does not.
FAMILY_SEED = 20260817
PALETTES = {
    2: [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
        (1, 0, -1), (1, -1, 0)],
}
UNIMODULAR_HEAD = {2: 3, 3: 6}
OFFSETS = (-1.0, -0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0, 0.5, 1.0)
SHIFTS = (-0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0, 0.5)
# (smooth, flat_factor_l, stratum count) of each base arrangement; a change of
# lattice basis and a translation leave all three as they are
FAMILY_EXPECTED = [
    (True, 0, 17), (True, 0, 31), (True, 0, 23), (True, 1, 22), (True, 0, 28),
    (True, 0, 63), (True, 0, 33), (True, 0, 57), (True, 0, 39), (True, 0, 80),
    (False, None, 17), (False, None, 34), (False, None, 24), (False, None, 47),
    (False, None, 31), (False, None, 64), (False, None, 40), (False, None, 106),
    (False, None, 48), (True, 0, 95),
]
MASSES = (0.5, 1.0, 2.0)
REPORT_INVARIANTS = ("smooth", "simply_connected", "flat_factor_l", "taub_nut_order",
                     "volume_growth_exponent", "ale_label", "cone_over_3sasakian")
VALIDATE_INVARIANTS = ("valid", "n", "flats", "smooth")

LOCUS_TOL = 1e-8   # benchmark's own on-flat / branch distance test
WITNESS_TOL = 1e-8


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Checked:
    """What one pass produced, as the benchmark judged it."""

    attempted: int
    failed: int
    digest: str
    cases: dict = field(default_factory=dict)   # case -> digest
    wrong: list = field(default_factory=list)   # outputs that are incorrect
    layer: dict = field(default_factory=dict)   # workload-specific per-layer values


def _quiet_cli(tk, argv):
    """run_cli with its stdout captured; returns (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tk.cli.run_cli(argv)
    return code, buf.getvalue()


def _arrays(doc):
    """(U, l1, l2 + i l3, a, B) of an arrangement document, as floats."""
    n = doc["n"]
    flats = doc["flats"]
    U = np.array([f["u"] for f in flats], dtype=float).reshape(len(flats), n)
    lam = np.array([f["lambda"] for f in flats], dtype=float).reshape(len(flats), 3)
    a = np.array([f["a"] for f in flats], dtype=float)
    B = np.array(doc.get("B", np.zeros((n, n))), dtype=float)
    return U, lam[:, 0], lam[:, 1] + 1j * lam[:, 2], a, B


# --------------------------------------------------------------------------
# verify-n1 / verify-n2

class VerifyWorkload:
    """run_checks with catalog expectations on each (entry, seed) case."""

    def __init__(self, tk, entries, seeds):
        self.tk = tk
        self.cases = [(tk.entry(name), int(s)) for s in seeds for name in entries]
        self.labels = [f"{entry.name}@{seed}" for entry, seed in self.cases]

    def run(self, i):
        entry, seed = self.cases[i]
        try:
            return self.tk.verify.run_checks(entry.arrangement, entry.deformation,
                                             seed=seed, expected=entry.expected_values())
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return exc

    def result(self, i, raw):
        return raw

    def digest(self, i, reports):
        entry, seed = self.cases[i]
        if isinstance(reports, Exception):
            return digest(f"{type(reports).__name__}: {reports}")
        docs = []
        for r in reports:
            d = r.as_dict()
            del d["wall_time_s"]
            docs.append(d)
        # the verify command's document, minus the wall-clock field
        doc = {"target": entry.name, "seed": seed, "reports": docs,
               "all_passed": all(r.passed for r in reports)}
        return digest(json.dumps(doc, sort_keys=True, indent=2))

    def check(self, outputs):
        attempted = failed = 0
        cases = {}
        check_s = dict.fromkeys(VERIFY_CHECKS, 0.0)
        growth_err = margin = 0.0
        for i, reports in enumerate(outputs):
            cases[self.labels[i]] = self.digest(i, reports)
            if isinstance(reports, Exception):
                attempted += 1
                failed += 1
                continue
            attempted += len(reports)
            failed += sum(not r.passed for r in reports)
            for r in reports:
                if r.check_name in check_s:
                    check_s[r.check_name] += r.wall_time_s
                if r.tolerance > 0:
                    margin = max(margin, r.max_residual / r.tolerance)
                if r.check_name == "growth":
                    growth_err = max(growth_err, r.max_residual)
        layer = {f"verify.{name}.s": s for name, s in check_s.items()}
        layer["verify.growth_exponent_err"] = growth_err
        layer["verify.residual_margin"] = margin
        return Checked(attempted, failed, digest(json.dumps(cases, sort_keys=True)),
                       cases=cases, layer=layer)


def verify_n1(tk, seed, workdir):
    # the workload seed is the verify seed, as in `torichk verify <entry> --seed`
    return VerifyWorkload(tk, N1_ENTRIES, [seed])


def verify_n2(tk, seed, workdir):
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, N2_SEEDS_PER_PASS)
    return VerifyWorkload(tk, N2_ENTRIES, seeds)


# --------------------------------------------------------------------------
# export-grid

@dataclass
class Grid:
    target: str
    axes: list        # (name, start, stop, count)
    fixed: np.ndarray  # 3n coordinates
    out: str

    def argv(self):
        args = ["export-grid", self.target]
        for name, start, stop, count in self.axes:
            # the '=' form: argparse reads a bare negative START as a flag
            args += ["--axis", name, f"--range={start!r}:{stop!r}:{count}"]
        args += ["--fixed=" + ",".join(repr(float(v)) for v in self.fixed),
                 "--out", self.out]
        return args


def _axis_column(name, n):
    """Column of a swept axis (x<i>, rez<i> or imz<i>) among the 3n coordinates."""
    prefix = name.rstrip("0123456789")
    return {"x": 0, "rez": 1, "imz": 2}[prefix] * n + int(name[len(prefix):]) - 1


def tiles(target, axes, fixed, workdir, name):
    """The grid `axes` as export-grid commands of GRID_TILE x1 values each."""
    (axis, start, stop, count), rest = axes[0], axes[1:]
    values = np.linspace(start, stop, count)
    return [Grid(target, [(axis, float(piece[0]), float(piece[-1]), len(piece))] + rest,
                 fixed, os.path.join(workdir, f"{name}-{k}.csv"))
            for k, piece in enumerate(np.split(values, range(GRID_TILE, count, GRID_TILE)))]


class ExportGridWorkload:
    """In-process `export-grid` commands writing CSV files: two sweeps, each
    cut into tiles along x1 so that no one command runs for long."""

    def __init__(self, tk, seed, workdir):
        self.tk = tk
        rng = np.random.default_rng(seed)

        def jitter(v):
            return float(v + rng.uniform(-0.25, 0.25))

        def off_axis():
            return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5))

        self.grids = (
            tiles("multi-EH-3",
                  [("x1", jitter(-3.0), jitter(3.0), 100),
                   ("rez1", jitter(-2.5), jitter(2.5), 100)],
                  np.array([0.0, 0.0, off_axis()]), workdir, "grid-n1")
            + tiles("n2-unimodular",
                    [("x1", jitter(-2.0), jitter(2.0), 100),
                     ("rez2", jitter(-1.5), jitter(1.5), 50)],
                    np.array([0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0,
                              off_axis(), off_axis()]), workdir, "grid-n2"))
        self.docs = {g.target: tk.dump_arrangement(tk.entry(g.target).arrangement,
                                                   tk.entry(g.target).deformation)
                     for g in self.grids}
        self.labels = [f"{g.target}:{os.path.basename(g.out)}" for g in self.grids]

    def run(self, i):
        return self.tk.cli.run_cli(self.grids[i].argv())

    def result(self, i, code):
        """(exit code, CSV text or None); the file is removed for the next run."""
        out = self.grids[i].out
        if not os.path.exists(out):
            return code, None
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out)
        return code, text

    def digest(self, i, out):
        return digest(f"{out[0]}\n{out[1]}")

    def check(self, outputs):
        attempted = failed = 0
        cases = {}
        wrong = []
        for i, (grid, (code, text)) in enumerate(zip(self.grids, outputs)):
            rows = int(np.prod([c for *_, c in grid.axes]))
            attempted += rows
            cases[self.labels[i]] = self.digest(i, (code, text))
            if code != 0 or text is None:
                failed += rows
                wrong.append(f"{self.labels[i]}: export-grid exited {code}")
                continue
            bad, why = self._bad_rows(grid, text, rows)
            failed += bad
            if bad:
                wrong.append(f"{self.labels[i]}: {bad} bad rows ({why})")
        return Checked(attempted, failed, digest(json.dumps(cases, sort_keys=True)),
                       cases=cases, wrong=wrong)

    def _bad_rows(self, grid, text, rows):
        doc = self.docs[grid.target]
        n = doc["n"]
        lines = text.splitlines()
        header = ([f"x{i+1}" for i in range(n)] + [f"rez{i+1}" for i in range(n)]
                  + [f"imz{i+1}" for i in range(n)]
                  + [f"phi{i+1}{j+1}" for i in range(n) for j in range(n)]
                  + ["det_phi", "det_g"])
        if not lines or lines[0].split(",") != header or len(lines) != rows + 1:
            return rows, "header or row count"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

        # the grid the command was asked for, in meshgrid "ij" order
        want = np.tile(grid.fixed, (rows, 1))
        mesh = np.meshgrid(*[np.linspace(a, b, c) for _, a, b, c in grid.axes],
                           indexing="ij")
        for (name, *_), m in zip(grid.axes, mesh):
            want[:, _axis_column(name, n)] = m.reshape(-1)
        coords = data[:, :3 * n]
        phi = data[:, 3 * n:3 * n + n * n].reshape(rows, n, n)
        det_phi = data[:, -2]
        det_g = data[:, -1]

        # Phi = B + 1/4 sum_k a_k u_k u_k^T / r_k, computed here
        U, l1, lc, a, B = _arrays(doc)
        X = coords[:, :n]
        Z = coords[:, n:2 * n] + 1j * coords[:, 2 * n:]
        S = X @ U.T - l1
        V = Z @ U.T - lc
        R = np.sqrt(S * S + (V * V.conj()).real)
        ref = B + np.einsum("Nk,ki,kj->Nij", a / (4.0 * R), U, U)
        ref_det = np.linalg.det(ref)
        on_locus = ((R.min(axis=1, initial=np.inf) <= LOCUS_TOL)
                    | ((S + R).min(axis=1, initial=np.inf) <= LOCUS_TOL))

        nan_row = np.isnan(data[:, 3 * n:]).any(axis=1)
        with np.errstate(invalid="ignore"):
            scale = np.maximum(1.0, np.abs(ref).max(axis=(1, 2)))
            phi_err = np.abs(phi - ref).max(axis=(1, 2)) / scale
            det_err = np.abs(det_phi - ref_det) / np.maximum(1.0, np.abs(ref_det))
            g_err = np.abs(det_g - det_phi ** 2) / np.maximum(1.0, det_phi ** 2)
            value_bad = ~((phi_err <= 1e-12) & (det_err <= 1e-10) & (g_err <= 1e-9))
        faults = ((np.any(coords != want, axis=1), "coordinates off the requested grid"),
                  (nan_row & ~on_locus, "NaN off every flat and branch locus"),
                  (~nan_row & value_bad, "Phi or det_g differs from the reference"))
        bad = np.logical_or.reduce([mask for mask, _ in faults])
        return int(bad.sum()), "; ".join(why for mask, why in faults if mask.any())


# --------------------------------------------------------------------------
# classify-strata

def random_arrangement(rng, n, d, unimodular):
    """An arrangement document: d distinct flats with small rational offsets."""
    palette = PALETTES[n][:UNIMODULAR_HEAD[n]] if unimodular else PALETTES[n]
    seen = set()
    flats = []
    while len(flats) < d:
        u = palette[rng.integers(len(palette))]
        lam = tuple(float(v) for v in rng.choice(OFFSETS, 3))
        if (u, lam) in seen:
            continue
        seen.add((u, lam))
        flats.append({"u": list(u), "lambda": list(lam), "a": float(rng.choice(MASSES))})
    return {"n": n, "flats": flats}


def base_family():
    """The base arrangements: each (n, d) with n = 2, 3 and d = 6..10, from
    the unimodular head and from the whole palette."""
    rng = np.random.default_rng(FAMILY_SEED)
    return [random_arrangement(rng, 2 + i % 2, 6 + (i // 2) % 5, i < 10) for i in range(20)]


def lattice_change(rng, n):
    """A small integer matrix of determinant +-1: a signed permutation times
    two elementary row operations."""
    A = np.eye(n, dtype=int)[rng.permutation(n)] * rng.choice((-1, 1), n)[:, None]
    for _ in range(2):
        i, j = rng.choice(n, 2, replace=False)
        A[i] += int(rng.choice((-1, 1))) * A[j]
    return A


def moved(doc, rng):
    """`doc` in another lattice basis and translated: normals u -> A u, offsets
    lambda_k -> lambda_k + (A u) . t_k.  The strata, their ranks and every
    invariant of the classification are unchanged."""
    n = doc["n"]
    A = lattice_change(rng, n)
    t = rng.choice(SHIFTS, (3, n))
    flats = []
    for f in doc["flats"]:
        u = A @ np.array(f["u"])
        lam = [float(f["lambda"][k] + u @ t[k]) for k in range(3)]
        flats.append({"u": [int(v) for v in u], "lambda": lam,
                      "a": float(rng.choice(MASSES))})
    return {"n": n, "flats": flats}


@dataclass
class ClassifyCase:
    name: str
    doc: dict
    target: str         # path or catalog name, as given on the command line
    permuted: str       # path of the same flats in permuted order
    perm: list          # permuted flat j is original flat perm[j]
    expected: dict


class ClassifyWorkload:
    """In-process `classify` and `validate` on each arrangement and its permutation."""

    def __init__(self, tk, seed, workdir):
        self.tk = tk
        rng = np.random.default_rng(seed)
        sources = [(f"family-{i}", moved(doc, rng), None,
                    {"smooth": smooth, "flat_factor_l": flat, "stratum_count": strata})
                   for i, (doc, (smooth, flat, strata))
                   in enumerate(zip(base_family(), FAMILY_EXPECTED))]
        for e in tk.catalog():
            sources.append((e.name, tk.dump_arrangement(e.arrangement, e.deformation),
                            e.name, e.expected_values()))
        self.cases = []
        for name, doc, target, expected in sources:
            perm = [int(k) for k in rng.permutation(len(doc["flats"]))]
            shuffled = dict(doc, flats=[doc["flats"][k] for k in perm])
            if target is None:
                target = self._write(workdir, f"{name}.json", doc)
            permuted = self._write(workdir, f"{name}.permuted.json", shuffled)
            self.cases.append(ClassifyCase(name, doc, target, permuted, perm, expected))
        self.labels = [case.name for case in self.cases]

    @staticmethod
    def _write(workdir, fname, doc):
        path = os.path.join(workdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run(self, i):
        case = self.cases[i]
        return [_quiet_cli(self.tk, [cmd, target])
                for target in (case.target, case.permuted)
                for cmd in ("classify", "validate")]

    def result(self, i, raw):
        return raw

    def digest(self, i, results):
        return digest("".join(f"{code}\n{text}" for code, text in results))

    def check(self, outputs):
        attempted = failed = 0
        cases = {}
        wrong = []
        for i, (case, results) in enumerate(zip(self.cases, outputs)):
            attempted += len(results)
            cases[case.name] = self.digest(i, results)
            problems = self._problems(case, results)
            failed += len(problems)
            wrong += [f"{case.name}: {p}" for p in problems]
        return Checked(attempted, failed, digest(json.dumps(cases, sort_keys=True)),
                       cases=cases, wrong=wrong)

    def _problems(self, case, results):
        """One message per failed command: classify, validate, then the permuted pair."""
        try:
            (c0, cls0), (v0, val0), (c1, cls1), (v1, val1) = [
                (code, json.loads(text)) for code, text in results]
        except ValueError as exc:
            return [f"unreadable output: {exc}"] * len(results)
        problems = []
        report = cls0
        smooth = report.get("smooth")
        why = self._classify_wrong(case, c0, report, list(range(len(case.perm))))
        if why:
            problems.append(f"classify: {why}")
        if v0 != (0 if smooth else 1) or val0.get("smooth") != smooth:
            problems.append(f"validate: exit {v0}, smooth {val0.get('smooth')}")
        elif "invariant_factors" in case.expected and (
                val0.get("invariant_factors") != list(case.expected["invariant_factors"])):
            problems.append("validate: invariant factors differ from the catalog")
        why = self._classify_wrong(case, c1, cls1, case.perm)
        if not why and {k: cls1.get(k) for k in REPORT_INVARIANTS} != {
                k: report.get(k) for k in REPORT_INVARIANTS}:
            why = "report changed under a permutation of the flats"
        if not why and self._strata(cls1, case.perm) != self._strata(report, range(len(case.perm))):
            why = "strata changed under a permutation of the flats"
        if why:
            problems.append(f"classify (permuted): {why}")
        if v1 != v0 or {k: val1.get(k) for k in VALIDATE_INVARIANTS} != {
                k: val0.get(k) for k in VALIDATE_INVARIANTS}:
            problems.append("validate (permuted): verdict changed under a permutation")
        return problems

    @staticmethod
    def _strata(report, perm):
        return sorted((sorted(perm[k] for k in s["active"]), s["rank"])
                      for s in report.get("strata", []))

    def _classify_wrong(self, case, code, report, perm):
        if code != 0:
            return f"exit {code}"
        # every witness lies on exactly its active flats (this file's order)
        U, l1, lc, _, _ = _arrays(case.doc)
        order = list(perm)
        U, l1, lc = U[order], l1[order], lc[order]
        for s in report.get("strata", []):
            w = s["witness"]
            x = np.array(w["x"])
            z = np.array(w["z_re"]) + 1j * np.array(w["z_im"])
            dist = np.abs(U @ x - l1) + np.abs(U @ z - lc)
            on = set(np.nonzero(dist <= WITNESS_TOL)[0].tolist())
            if on != set(s["active"]):
                return f"witness of stratum {s['active']} lies on flats {sorted(on)}"
        for key, want in case.expected.items():
            if key in REPORT_INVARIANTS and report.get(key) != want:
                return f"{key} is {report.get(key)!r}, catalog says {want!r}"
            if key == "stratum_count" and len(report.get("strata", [])) != want:
                return f"{len(report.get('strata', []))} strata, catalog says {want}"
            if key == "failing_stratum_active" and perm == list(range(len(perm))):
                have = (report.get("failing_stratum") or {}).get("active")
                if have != list(want):
                    return f"failing stratum {have}, catalog says {list(want)}"
        return None


WORKLOADS = {
    "verify-n1": verify_n1,
    "verify-n2": verify_n2,
    "export-grid": ExportGridWorkload,
    "classify-strata": ClassifyWorkload,
}
