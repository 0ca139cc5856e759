"""Command-line surface.

Exit codes: 0 success, 1 check or verification failure, 2 input error.
All JSON output is key-sorted so runs with the same seed are byte-identical.
"""

import argparse
import json
import sys

import numpy as np

from . import verify as ver
from .catalog import catalog as catalog_entries
from .catalog import entry as catalog_entry
from .catalog import entry_names
from .arrangement import Point3n, classification_report, smoothness_check
from .config import DEFAULT
from .errors import (ArrangementError, EvaluationError,
                     InsufficientSamplesError)
from .io import dump_arrangement, load_arrangement
from .potential import eval_F, eval_Phi, eval_metric, quotient_metric

__all__ = ["main", "run_cli", "build_parser"]


def _resolve(target):
    """A path to an arrangement file, or a catalog entry name."""
    import os
    if os.path.exists(target):
        arr, B = load_arrangement(target)
        return arr, B, None
    try:
        e = catalog_entry(target)
    except KeyError:
        raise ArrangementError(
            f"{target}: no such file or catalog entry "
            f"(catalog: {', '.join(entry_names())})")
    return e.arrangement, e.deformation, e


def _parse_point(text, n, flag="--point"):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3 * n:
        raise ArrangementError(
            f"{flag} needs {3 * n} comma-separated numbers "
            f"(x_1..x_{n}, Re z_1..Re z_{n}, Im z_1..Im z_{n}), got {len(parts)}")
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ArrangementError(f"--point: {exc}") from exc
    return Point3n.from_coords(vals)


def _emit(doc):
    json.dump(doc, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="torichk",
        description="Construct, evaluate, verify, and classify toric "
                    "hyperkaehler geometries from flat-arrangement data.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a file and run the smoothness check")
    p.add_argument("target")

    p = sub.add_parser("classify", help="emit the classification report as JSON")
    p.add_argument("target")

    p = sub.add_parser("eval", help="evaluate F, Phi, and the metrics at a point")
    p.add_argument("target")
    p.add_argument("--point", required=True,
                   help="3n comma-separated coordinates (x, Re z, Im z)")

    p = sub.add_parser("verify", help="run numerical certification checks")
    p.add_argument("target")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of: " + ", ".join(ver.check_names()))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--local-models", action="store_true",
                   help="include the orbit-chart model identities")

    p = sub.add_parser("growth", help="Monte-Carlo volume-growth exponent")
    p.add_argument("target")
    p.add_argument("--radii", required=True,
                   help="comma-separated increasing radii")
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--base", default=None,
                   help="3n comma-separated base-point coordinates (default origin)")

    p = sub.add_parser("export-grid", help="sample Phi and metric data on a grid")
    p.add_argument("target")
    p.add_argument("--axis", action="append", required=True,
                   help="coordinate to sweep: x<i>, rez<i>, or imz<i> (repeatable)")
    p.add_argument("--range", action="append", required=True, dest="ranges",
                   help="START:STOP:COUNT for the matching --axis")
    p.add_argument("--fixed", default=None,
                   help="3n comma-separated coordinates for unswept axes")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")

    p = sub.add_parser("catalog", help="list the built-in examples")

    return ap


def _cmd_validate(args):
    arr, B, _ = _resolve(args.target)
    smooth, failing = smoothness_check(arr)
    doc = {
        "valid": True,
        "n": arr.dimension,
        "flats": len(arr.flats),
        "smooth": smooth,
    }
    if not smooth:
        from . import lattice
        rows = [arr.flats[k].normal.entries for k in failing.active]
        doc["failing_stratum"] = failing.as_dict()
        doc["invariant_factors"] = [int(v) for v in lattice.invariant_factors(rows)]
    _emit(doc)
    return 0 if smooth else 1


def _cmd_classify(args):
    arr, B, _ = _resolve(args.target)
    report = classification_report(arr, B)
    doc = report.as_dict()
    doc["strata"] = [s.as_dict() for s in report.strata]
    _emit(doc)
    return 0


def _cmd_eval(args):
    arr, B, _ = _resolve(args.target)
    p = _parse_point(args.point, arr.dimension)
    doc = {
        "point": p.coords().tolist(),
        "F": eval_F(arr, B, p),
        "phi": eval_Phi(arr, B, p).tolist(),
        "metric": eval_metric(arr, B, p).tolist(),
        "quotient_metric": quotient_metric(arr, B, p).tolist(),
    }
    _emit(doc)
    return 0


def _cmd_verify(args):
    arr, B, entry = _resolve(args.target)
    checks = None
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    expected = None
    if entry is not None:
        expected = entry.expected_values()
    reports = ver.run_checks(arr, B, checks=checks, seed=args.seed,
                             expected=expected,
                             include_local=args.local_models)
    doc = {
        "target": args.target,
        "seed": args.seed if args.seed is not None else DEFAULT.default_seed,
        "reports": [r.as_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _emit(doc)
    return 0 if doc["all_passed"] else 1


def _cmd_growth(args):
    arr, B, _ = _resolve(args.target)
    try:
        radii = [float(r) for r in args.radii.split(",") if r.strip()]
    except ValueError as exc:
        raise ArrangementError(f"--radii: {exc}") from exc
    if args.base is not None:
        base = _parse_point(args.base, arr.dimension, flag="--base")
    else:
        base = Point3n(np.zeros(arr.dimension), np.zeros(arr.dimension))
    seed = args.seed if args.seed is not None else DEFAULT.default_seed
    rng = np.random.default_rng(seed)
    fit = ver.growth_fit(arr, B, base, radii, samples=args.samples, rng=rng)
    doc = {
        "exponent": fit.exponent,
        "std_error": fit.std_error,
        "radii": fit.radii.tolist(),
        "volumes": fit.volumes.tolist(),
        "samples": fit.samples,
        "seed": seed,
    }
    _emit(doc)
    if fit.std_error > DEFAULT.growth_max_stderr:
        raise InsufficientSamplesError(fit.std_error, DEFAULT.growth_max_stderr)
    return 0


_AXIS_BLOCKS = {"x": 0, "rez": 1, "imz": 2}


def _axis_index(name, n):
    for prefix, block in _AXIS_BLOCKS.items():
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            i = int(name[len(prefix):])
            if 1 <= i <= n:
                return block * n + (i - 1)
    raise ArrangementError(
        f"--axis {name!r}: expected x<i>, rez<i>, or imz<i> with 1 <= i <= {n}")


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ArrangementError(f"--range {text!r}: expected START:STOP:COUNT")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ArrangementError(f"--range {text!r}: {exc}") from exc
    if count < 1:
        raise ArrangementError(f"--range {text!r}: COUNT must be positive")
    return np.linspace(start, stop, count)


def _cmd_export_grid(args):
    arr, B, _ = _resolve(args.target)
    n = arr.dimension
    if len(args.axis) != len(args.ranges):
        raise ArrangementError("each --axis needs a matching --range")
    idxs = [_axis_index(a, n) for a in args.axis]
    if len(set(idxs)) != len(idxs):
        raise ArrangementError("swept axes must be distinct")
    grids = [_parse_range(r) for r in args.ranges]
    fixed = (np.asarray(_parse_point(args.fixed, n, flag="--fixed").coords())
             if args.fixed is not None else np.zeros(3 * n))

    header = ([f"x{i+1}" for i in range(n)]
              + [f"rez{i+1}" for i in range(n)]
              + [f"imz{i+1}" for i in range(n)]
              + [f"phi{i+1}{j+1}" for i in range(n) for j in range(n)]
              + ["det_phi", "det_g"])
    rows = []
    mesh = np.meshgrid(*grids, indexing="ij")
    for flat_idx in range(mesh[0].size if mesh else 1):
        w = fixed.copy()
        for ax, m in zip(idxs, mesh):
            w[ax] = m.reshape(-1)[flat_idx]
        p = Point3n.from_coords(w)
        try:
            phi = eval_Phi(arr, B, p)
            g = eval_metric(arr, B, p)
            vals = (list(w) + [phi[i, j] for i in range(n) for j in range(n)]
                    + [float(np.linalg.det(phi)), float(np.linalg.det(g))])
        except EvaluationError:
            vals = list(w) + [float("nan")] * (n * n + 2)
        rows.append(",".join(repr(float(v)) for v in vals))

    text = "\n".join([",".join(header)] + rows) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_catalog(args):
    doc = []
    for e in catalog_entries():
        doc.append({
            "name": e.name,
            "n": e.arrangement.dimension,
            "flats": len(e.arrangement.flats),
            "taub_nut_order": e.deformation.order,
            "description": e.description,
            "arrangement": dump_arrangement(e.arrangement, e.deformation),
        })
    _emit(doc)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "growth": _cmd_growth,
    "export-grid": _cmd_export_grid,
    "catalog": _cmd_catalog,
}


def run_cli(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except ArrangementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientSamplesError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
