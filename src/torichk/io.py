"""Arrangement file I/O.

Schema: {"n": int, "flats": [{"u": [int, ...], "lambda": [f, f, f],
"a": float}, ...], "B": [[float, ...], ...]}; "B" is optional and defaults
to the zero matrix, and any other field is refused.  Errors name the
offending field (and source line for syntax problems) so CLI diagnostics
stay actionable.
"""

import json

import numpy as np

from .arrangement import DeformationMatrix, Flat, FlatArrangement
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


def _refuse_non_numbers(field, value):
    """Raise ArrangementError naming field unless value is a number or lists of
    numbers: true/false would read as 1/0 (bool is an int) and "1" as 1.0."""
    if isinstance(value, list):
        for item in value:
            _refuse_non_numbers(field, item)
    elif isinstance(value, bool):
        raise ArrangementError(f"{field} must hold numbers, not booleans")
    elif not isinstance(value, (int, float)):
        raise ArrangementError(f"{field} must hold numbers, got {value!r}")


def _refuse_unknown_fields(where, raw, known):
    """Raise ArrangementError naming the keys of raw outside known: a misspelt
    field would otherwise be dropped and its default used."""
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise ArrangementError(
            f"{where}unknown field {', '.join(map(json.dumps, unknown))}; "
            f"known: {', '.join(map(json.dumps, known))}")


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
            _refuse_non_numbers(f"flats[{idx}].{key}", raw[key])
        u = raw["u"]
        if not isinstance(u, list) or len(u) != n:
            raise ArrangementError(
                f'flats[{idx}].u must be a length-{n} integer list')
        lam = raw["lambda"]
        if not isinstance(lam, list) or len(lam) != 3:
            raise ArrangementError(
                f'flats[{idx}].lambda must be a length-3 number list')
        try:
            flat = Flat(tuple(u), tuple(float(v) for v in lam), float(raw["a"]))
        except (ArrangementError, TypeError, ValueError) as exc:
            raise ArrangementError(f"flats[{idx}]: {exc}") from exc
        _refuse_unknown_fields(f"flats[{idx}]: ", raw, ("u", "lambda", "a"))
        flats.append(flat)

    arr = FlatArrangement(n, tuple(flats))

    if "B" in data and data["B"] is not None:
        raw_b = data["B"]
        _refuse_non_numbers('field "B"', raw_b)
        try:
            mat = np.asarray(raw_b, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ArrangementError(f'field "B" must be a {n}x{n} matrix') from exc
        if mat.shape != (n, n):
            raise ArrangementError(
                f'field "B" must be {n}x{n}, got shape {mat.shape}')
        try:
            B = DeformationMatrix(mat)
        except ArrangementError as exc:
            raise ArrangementError(f'field "B": {exc}') from exc
    else:
        B = DeformationMatrix.zero(n)
    _refuse_unknown_fields("", data, ("n", "flats", "B"))
    return arr, B


def dump_arrangement(arr: FlatArrangement, B=None) -> dict:
    """Serialize to the file schema; inverse of parse_arrangement."""
    doc = {
        "n": arr.dimension,
        "flats": [
            {
                "u": list(flat.normal),
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
