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
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

__all__ = [
    "MatrixData",
    "matrix_to_payload",
    "matrix_from_payload",
    "save_matrix",
    "load_matrix",
    "complex_from_pair",
    "pair_from_complex",
    "dump_json",
]


@dataclass(frozen=True)
class MatrixData:
    """Validated file-level matrix record."""

    rows: int
    cols: int
    field: str
    entries: tuple  # row-major complex values

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise FormatError("matrix dimensions must be positive")
        if self.field not in ("real", "complex"):
            raise FormatError(f"unknown field {self.field!r}")
        entries = tuple(complex(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise FormatError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}")
        if self.field == "real" and any(e.imag != 0.0 for e in entries):
            raise FormatError("real matrix has nonzero imaginary entries")
        object.__setattr__(self, "entries", entries)

    def to_array(self) -> np.ndarray:
        a = np.array(self.entries, dtype=complex).reshape(self.rows, self.cols)
        return a.real if self.field == "real" else a

    @classmethod
    def from_array(cls, a) -> "MatrixData":
        """The record of an array, real exactly when no entry has a nonzero
        imaginary part."""
        a = np.asarray(np.atleast_2d(a), dtype=complex)
        field = "real" if np.max(np.abs(a.imag), initial=0.0) == 0.0 else "complex"
        return cls(rows=a.shape[0], cols=a.shape[1], field=field,
                   entries=tuple(complex(v) for v in a.reshape(-1)))


def complex_from_pair(v) -> complex:
    """Parse a scalar from a number or an [re, im] pair."""
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise FormatError(f"expected a number or [re, im] pair, got {v!r}")


def pair_from_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_payload(a) -> dict:
    md = MatrixData.from_array(a)
    if md.field == "real":
        data = [e.real for e in md.entries]
    else:
        data = [[e.real, e.imag] for e in md.entries]
    return {"rows": md.rows, "cols": md.cols, "field": md.field, "data": data}


def matrix_from_payload(payload) -> np.ndarray:
    try:
        rows = int(payload["rows"])
        cols = int(payload["cols"])
        field = payload["field"]
        data = payload["data"]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed matrix payload: {e}") from e
    if not isinstance(data, list):
        raise FormatError("matrix data must be an array")
    entries = [complex_from_pair(v) for v in data]
    return MatrixData(rows=rows, cols=cols, field=field,
                      entries=tuple(entries)).to_array()


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
