"""Arrangement file I/O.

Schema: {"n": int, "flats": [{"u": [int, ...], "lambda": [f, f, f],
"a": float}, ...], "B": [[float, ...], ...]}; "B" is optional and defaults
to the zero matrix.  Errors name the offending field (and source line for
syntax problems) so CLI diagnostics stay actionable.
"""

import json

import numpy as np

from .arrangement import DeformationMatrix, Flat, FlatArrangement, Normal
from .errors import ArrangementError

__all__ = ["load_arrangement", "parse_arrangement", "dump_arrangement"]


def load_arrangement(path):
    """Parse an arrangement file; returns (FlatArrangement, DeformationMatrix)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ArrangementError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArrangementError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return parse_arrangement(data)


def parse_arrangement(data):
    """Build (FlatArrangement, DeformationMatrix) from a decoded mapping."""
    if not isinstance(data, dict):
        raise ArrangementError("top level must be a JSON object")
    if "n" not in data:
        raise ArrangementError('missing field "n"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ArrangementError(f'field "n" must be a positive integer, got {n!r}')

    raw_flats = data.get("flats", [])
    if not isinstance(raw_flats, list):
        raise ArrangementError('field "flats" must be a list of objects')
    flats = []
    for idx, raw in enumerate(raw_flats):
        if not isinstance(raw, dict):
            raise ArrangementError(f"flats[{idx}] must be an object")
        for key in ("u", "lambda", "a"):
            if key not in raw:
                raise ArrangementError(f'flats[{idx}] missing field "{key}"')
            # true/false would read as 1/0: bool is an int (and final, so type() finds it)
            items = raw[key] if isinstance(raw[key], list) else [raw[key]]
            if bool in map(type, items):
                raise ArrangementError(f"flats[{idx}].{key} must hold numbers, not booleans")
        u = raw["u"]
        if not isinstance(u, list) or len(u) != n:
            raise ArrangementError(
                f'flats[{idx}].u must be a length-{n} integer list')
        lam = raw["lambda"]
        if not isinstance(lam, list) or len(lam) != 3:
            raise ArrangementError(
                f'flats[{idx}].lambda must be a length-3 number list')
        try:
            normal = Normal(tuple(u))
        except (ArrangementError, TypeError, ValueError) as exc:
            raise ArrangementError(f"flats[{idx}].u: {exc}") from exc
        try:
            flat = Flat(normal, tuple(float(v) for v in lam), float(raw["a"]))
        except (ArrangementError, TypeError, ValueError) as exc:
            raise ArrangementError(f"flats[{idx}]: {exc}") from exc
        flats.append(flat)

    arr = FlatArrangement(n, tuple(flats))

    if "B" in data and data["B"] is not None:
        raw_b = data["B"]
        try:
            mat = np.asarray(raw_b, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ArrangementError(f'field "B" must be an {n}x{n} matrix') from exc
        if mat.shape != (n, n):
            raise ArrangementError(
                f'field "B" must be {n}x{n}, got shape {mat.shape}')
        try:
            B = DeformationMatrix(mat)
        except ArrangementError as exc:
            raise ArrangementError(f'field "B": {exc}') from exc
    else:
        B = DeformationMatrix.zero(n)
    return arr, B


def dump_arrangement(arr: FlatArrangement, B=None) -> dict:
    """Serialize to the file schema; inverse of parse_arrangement."""
    doc = {
        "n": arr.dimension,
        "flats": [
            {
                "u": [int(e) for e in flat.normal.entries],
                "lambda": [float(v) for v in flat.offsets],
                "a": float(flat.mass),
            }
            for flat in arr.flats
        ],
    }
    mat = DeformationMatrix.of(B, arr.dimension).entries
    if np.any(mat):
        doc["B"] = [[float(v) for v in row] for row in mat]
    return doc
