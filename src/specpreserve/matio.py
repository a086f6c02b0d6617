"""Matrix and report file formats.

The canonical matrix format is a JSON document with fields ``rows``,
``cols``, ``field`` ("real" or "complex") and ``data``, a row-major array
whose entries are [re, im] pairs; plain numbers are allowed when the field
is real.  Matrix Market files are accepted as a convenience import for
real matrices, where ecosystem support is dependable.

Machine reports are emitted through a small JSON writer that prints every
float with 17 significant digits, enough to round-trip doubles exactly.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

from .errors import FormatError

__all__ = [
    "matrix_to_payload",
    "matrix_from_payload",
    "save_matrix",
    "load_matrix",
    "complex_from_pair",
    "is_number",
    "is_integer",
    "pair_from_complex",
    "dump_json",
]


def is_number(v) -> bool:
    """Whether v is a JSON number: an int or a float, and not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_integer(v) -> bool:
    """Whether v is a JSON number with an integral value, such as 3 or 3.0."""
    return is_number(v) and v % 1 == 0


def complex_from_pair(v) -> complex:
    """Parse a scalar from a number or an [re, im] pair of numbers."""
    if is_number(v):
        return complex(v)
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(is_number, v))):
        return complex(float(v[0]), float(v[1]))
    raise FormatError(f"expected a number or [re, im] pair, got {v!r}")


def pair_from_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_payload(a) -> dict:
    """The payload of an array, real exactly when no entry has a nonzero
    imaginary part."""
    a = np.asarray(np.atleast_2d(a), dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise FormatError(f"cannot write an array of shape {a.shape} as a matrix")
    real = np.max(np.abs(a.imag), initial=0.0) == 0.0
    data = (a.real.reshape(-1) if real
            else np.stack([a.real, a.imag], axis=-1).reshape(-1, 2))
    return {"rows": a.shape[0], "cols": a.shape[1],
            "field": "real" if real else "complex", "data": data}


def matrix_from_payload(payload) -> np.ndarray:
    try:
        rows = payload["rows"]
        cols = payload["cols"]
        field = payload["field"]
        data = payload["data"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed matrix payload: {e}") from e
    if not all(is_integer(k) for k in (rows, cols)):
        raise FormatError("matrix rows and cols must be integers, "
                          f"got {rows!r}, {cols!r}")
    if not isinstance(data, list):
        raise FormatError("matrix data must be an array")
    a = np.array([complex_from_pair(v) for v in data], dtype=complex)
    rows, cols = int(rows), int(cols)
    if rows <= 0 or cols <= 0:
        raise FormatError("matrix dimensions must be positive")
    if field not in ("real", "complex"):
        raise FormatError(f"unknown field {field!r}")
    if a.size != rows * cols:
        raise FormatError(f"expected {rows * cols} entries, got {a.size}")
    if field == "real" and np.any(a.imag != 0.0):
        raise FormatError("real matrix has nonzero imaginary entries")
    a = a.reshape(rows, cols)
    return a.real if field == "real" else a


def save_matrix(path, a):
    payload = matrix_to_payload(a)
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(payload, fh)
        fh.write("\n")


def _load_matrix_market(path) -> np.ndarray:
    import scipy.io

    try:
        m = scipy.io.mmread(path)
    except Exception as e:
        raise FormatError(f"cannot read Matrix Market file {path}: {e}") from e
    a = np.asarray(m.todense() if hasattr(m, "todense") else m)
    if np.iscomplexobj(a) and np.max(np.abs(a.imag), initial=0.0) != 0.0:
        raise FormatError(
            "complex Matrix Market files are not accepted; use the canonical "
            "JSON format")
    return np.asarray(a, dtype=float)


def load_matrix(path) -> np.ndarray:
    """Load a matrix from the canonical JSON format or Matrix Market."""
    if not os.path.exists(path):
        raise FormatError(f"matrix file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(64)
    if head.lstrip().startswith(b"%%MatrixMarket") or str(path).endswith((".mtx", ".mm")):
        return _load_matrix_market(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(f"cannot parse {path}: {e}") from e
    return matrix_from_payload(payload)


# ---------------------------------------------------------------------------
# JSON emission with explicit float precision
# ---------------------------------------------------------------------------

# 17 significant digits round-trip every double
FLOAT_FMT = ".17g"


def _emit(obj, out):
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isnan(v) or np.isinf(v):
            out.write("null")
        else:
            out.write(format(v, FLOAT_FMT))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit([obj.real, obj.imag], out)
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(", ")
            out.write(json.dumps(str(k)))
            out.write(": ")
            _emit(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.write("[")
        for i, v in enumerate(seq):
            if i:
                out.write(", ")
            _emit(v, out)
        out.write("]")
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, fh):
    """Write JSON with every float at ``FLOAT_FMT``."""
    buf = io.StringIO()
    _emit(obj, buf)
    fh.write(buf.getvalue())
