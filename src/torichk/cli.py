"""Command-line surface.

Exit codes: 0 success, 1 check or verification failure, 2 input error.
All JSON output is key-sorted so runs with the same seed are byte-identical,
and strict: a non-finite value (inf, nan) prints as null.
run_cli parses with one parser per process, built on its first call and
kept: parsing leaves it unchanged.
"""

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import verify as ver
from .catalog import catalog as catalog_entries
from .catalog import entry as catalog_entry
from .catalog import entry_names
from .arrangement import Point3n, classification_report
from .config import DEFAULT
from .errors import (ArrangementError, DifferentiationError, DomainEscapeError,
                     EvaluationError, NoConvergenceError, SamplingError)
from .io import dump_arrangement, load_arrangement
from .potential import _off_domain, eval_F, eval_Phi, eval_metric, quotient_metric

__all__ = ["main", "run_cli"]


def _resolve(target):
    """A path to an arrangement file, or a catalog entry name."""
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
        raise ArrangementError(f"{flag}: {exc}") from exc
    bad = next((p for p, v in zip(parts, vals) if not math.isfinite(v)), None)
    if bad is not None:
        raise ArrangementError(f"{flag}: coordinates must be finite, got {bad!r}")
    return Point3n.from_coords(vals)


_escape = json.encoder.encode_basestring_ascii  # json.dumps' string encoder


def _json(value, pad="\n"):
    """value as json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    writes it, byte for byte, but with every non-finite float as null; pad
    is the line break and indent of value's own line.

    The scalar checks come in json's order, so a bool is not an int and a
    float subclass such as numpy.float64 prints as a float; anything json
    cannot write (numpy.int64, numpy.bool_, a set) raises TypeError.  The
    containers may come first: no class is both a list or dict and a str,
    int or float.  Every dict key must be a str (json's escaper refuses any
    other), as in every document the CLI writes."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_escape(k) + ": " + _json(value[k], inner) for k in sorted(value)]) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a row of plain floats whose sum is finite (so is each), or of plain
        # ints (so no bool), is written by one map
        kinds = set(map(type, value))
        if kinds == {float} and math.isfinite(sum(value)):
            items = map(float.__repr__, value)
        elif kinds == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _emit(doc):
    """Write doc as key-sorted, indented, strict JSON, where a non-finite
    float prints as null."""
    sys.stdout.write(_json(doc) + "\n")


def _seed(text):
    """A --seed value: a non-negative integer, as numpy's generators require."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache
def _parser():
    """The parser of the torichk command line; each subcommand's run is its handler."""
    ap = argparse.ArgumentParser(
        prog="torichk",
        description="Construct, evaluate, verify, and classify toric "
                    "hyperkaehler geometries from flat-arrangement data.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a file and run the smoothness check")
    p.add_argument("target")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("classify", help="emit the classification report as JSON")
    p.add_argument("target")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate F, Phi, and the metrics at a point")
    p.add_argument("target")
    p.add_argument("--point", required=True,
                   help="3n comma-separated coordinates (x, Re z, Im z)")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("verify", help="run numerical certification checks")
    p.add_argument("target")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of: " + ", ".join(ver.check_names()))
    p.add_argument("--seed", type=_seed, default=DEFAULT.default_seed)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("growth", help="volume-growth exponent over sampled rays")
    p.add_argument("target")
    p.add_argument("--radii", required=True,
                   help="comma-separated increasing radii")
    p.add_argument("--samples", type=int, default=None,
                   help="ray directions (default 512 at n = 1, 4096 above)")
    p.add_argument("--seed", type=_seed, default=DEFAULT.default_seed)
    p.add_argument("--base", default=None,
                   help="3n comma-separated base-point coordinates (default origin)")
    p.set_defaults(run=_cmd_growth)

    p = sub.add_parser("export-grid", help="sample Phi and metric data on a grid")
    p.add_argument("target")
    p.add_argument("--axis", action="append", required=True,
                   help="coordinate to sweep: x<i>, rez<i>, or imz<i> (repeatable)")
    p.add_argument("--range", action="append", required=True, dest="ranges",
                   help="START:STOP:COUNT for the matching --axis")
    p.add_argument("--fixed", default=None,
                   help="3n comma-separated coordinates for unswept axes")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.set_defaults(run=_cmd_export_grid)

    p = sub.add_parser("catalog", help="list the built-in examples")
    p.set_defaults(run=_cmd_catalog)
    return ap


def _cmd_validate(args):
    arr, B, _ = _resolve(args.target)
    report = classification_report(arr, B)
    doc = {
        "valid": True,
        "n": arr.dimension,
        "flats": len(arr.flats),
        "smooth": report.smooth,
    }
    if not report.smooth:
        doc["failing_stratum"] = report.failing_stratum.as_dict()
        doc["invariant_factors"] = list(report.failing_stratum.invariant_factors)
    _emit(doc)
    return 0 if report.smooth else 1


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
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    expected = None
    if entry is not None:
        expected = entry.expected_values()
    reports = ver.run_checks(arr, B, checks=checks, seed=args.seed,
                             expected=expected)
    doc = {
        "target": args.target,
        "seed": args.seed,
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
    rng = np.random.default_rng(args.seed)
    fit = ver.growth_fit(arr, B, base, radii, samples=args.samples, rng=rng)
    doc = {
        "exponent": fit.exponent,
        "std_error": fit.std_error,
        "radii": fit.radii.tolist(),
        "volumes": fit.volumes.tolist(),
        "samples": fit.samples,
        "seed": args.seed,
    }
    _emit(doc)
    if not fit.std_error <= DEFAULT.growth_max_stderr:
        print(f"check failed: growth-exponent standard error {fit.std_error:.3f} "
              f"exceeds {DEFAULT.growth_max_stderr:.3f}; increase samples or radii",
              file=sys.stderr)
        return 1
    return 0


def _parse_range(text):
    """START:STOP:COUNT as (start, stop, count); _grid_axis builds its values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ArrangementError(f"--range {text!r}: expected START:STOP:COUNT")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ArrangementError(f"--range {text!r}: {exc}") from exc
    if count < 1:
        raise ArrangementError(f"--range {text!r}: COUNT must be positive")
    return start, stop, count


def _grid_axis(text, start, stop, count):
    """The values of the --range text, START:STOP:COUNT."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(start, stop, count)
    # catches nan/inf bounds and finite bounds whose step overflows
    if not np.all(np.isfinite(values)):
        raise ArrangementError(f"--range {text!r}: every grid value must be finite")
    return values


# grid points evaluated per batch; bounds the memory of large grids
GRID_BLOCK = 4096
# most values a grid may hold, N points times 3n + n^2 + 2 columns: about
# 1.2 GB at the 55-72 bytes per value that export-grid takes
GRID_VALUES = 2 ** 24


def _grid_rows(arr, B, w):
    """CSV rows for the grid points w (N, 3n): coordinates, Phi, det Phi and
    det g, with NaN values where the evaluators' domain rule refuses a point.

    The text is built column by column.  A coordinate column holds few
    distinct values, so each is formatted once, keyed by its bit pattern so
    that -0.0 and 0.0 keep their own text."""
    n = arr.dimension
    p = Point3n.from_coords(w)
    _, _, r, t = arr.svr(p.x, p.z)
    off = ~_off_domain(r, t)
    g = eval_metric(arr, B, Point3n(p.x[off], p.z[off]))
    phi = g[:, :n, :n]  # the metric's first diagonal block: Phi, evaluated once
    vals = np.full((len(w), n * n + 2), np.nan)
    vals[off] = np.column_stack([phi.reshape(-1, n * n),
                                 np.linalg.det(phi), np.linalg.det(g)])
    cols = []
    for c in w.T:
        keys, inv = np.unique(c.view(np.int64), return_inverse=True)
        text = [repr(v) for v in keys.view(float).tolist()]
        cols.append(map(text.__getitem__, inv.tolist()))
    cols += [map(repr, col) for col in vals.T.tolist()]
    return list(map(",".join, zip(*cols)))


def _cmd_export_grid(args):
    arr, B, _ = _resolve(args.target)
    n = arr.dimension
    if len(args.axis) != len(args.ranges):
        raise ArrangementError("each --axis needs a matching --range")
    # the 3n coordinate names in Point3n.coords order: the --axis values and
    # the CSV header's first columns
    names = [f"{block}{i + 1}" for block in ("x", "rez", "imz") for i in range(n)]
    for a in args.axis:
        if a not in names:
            raise ArrangementError(
                f"--axis {a!r}: expected x<i>, rez<i>, or imz<i> with 1 <= i <= {n}")
    if len(set(args.axis)) != len(args.axis):
        raise ArrangementError("--axis: swept axes must be distinct")
    idxs = [names.index(a) for a in args.axis]
    ranges = [_parse_range(r) for r in args.ranges]
    values = math.prod(count for *_, count in ranges) * (3 * n + n * n + 2)
    if values > GRID_VALUES:
        raise ArrangementError(
            f"--range: the grid would hold {values} values (points times 3n + n^2 + 2 "
            f"columns), more than {GRID_VALUES}")
    grids = [_grid_axis(text, *r) for text, r in zip(args.ranges, ranges)]
    fixed = (np.asarray(_parse_point(args.fixed, n, flag="--fixed").coords())
             if args.fixed is not None else np.zeros(3 * n))

    header = (names + [f"phi{i+1}{j+1}" for i in range(n) for j in range(n)]
              + ["det_phi", "det_g"])
    mesh = np.meshgrid(*grids, indexing="ij")
    w = np.tile(fixed, (mesh[0].size, 1))
    for ax, m in zip(idxs, mesh):
        w[:, ax] = m.reshape(-1)
    rows = [",".join(header)]
    for start in range(0, len(w), GRID_BLOCK):
        rows += _grid_rows(arr, B, w[start:start + GRID_BLOCK])

    text = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ArrangementError(f"--out: cannot write {args.out}: {exc.strerror}") from exc
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


# options whose values are coordinates or ranges and so may start with "-"
_SIGNED_VALUE_FLAGS = ("--point", "--base", "--range", "--fixed")


def _attach_signed_values(argv):
    """Rewrite "--range -3:3:5" as "--range=-3:3:5".

    argparse reads a token that starts with "-" as an option unless it is a
    plain negative number, so "-3:3:5" or "-1,0,0" would be refused as a
    value; the "=" form passes any value.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.run(args)
    except (EvaluationError, SamplingError, ValueError,
            NoConvergenceError, DomainEscapeError, DifferentiationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
