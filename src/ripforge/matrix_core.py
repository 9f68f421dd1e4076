"""Dense real/complex matrix container, vector norms, and CMX file I/O.

Matrices are immutable after construction and carry a provenance record
(construction name, parameters, seed for randomized draws).  The CMX
exchange format is line-oriented text with 17-significant-digit decimals,
so double-precision entries round-trip bit-exactly and files stay
diffable across implementations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFiniteEntry, ParseError

CMX_MAGIC = "#cmx 1"
GRAM_STRIP_BYTES = 32 << 20  # largest Gram strip gram_strips holds at once


@dataclass(frozen=True)
class Matrix:
    """Dense m x N matrix in double precision with provenance metadata."""

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-d, got shape {arr.shape}")
        if arr.size == 0:
            raise DimensionMismatch("matrix must have at least one row and column")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if not np.isfinite(arr).all():
            raise NonFiniteEntry("matrix entries must be finite (no NaN or inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def field_name(self) -> str:
        return "complex" if np.iscomplexobj(self.data) else "real"


def as_array(A) -> np.ndarray:
    """Accept a Matrix or a bare 2-d ndarray; return the ndarray view."""
    return A.data if isinstance(A, Matrix) else np.asarray(A)


def norm(v, exponent: float = 2) -> float:
    """(sum_i |v_i|^e)^(1/e) with |.| the complex modulus, e >= 1."""
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    v = np.asarray(v)
    return float(np.sum(np.abs(v) ** exponent) ** (1.0 / exponent))


def matvec(A, x) -> np.ndarray:
    """Dense matrix-vector product in double precision."""
    arr = as_array(A)
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"matrix is {arr.shape}, vector has shape {x.shape}")
    return arr @ x


def gram_strips(X):
    """Yield (i, X[:, i:j]^H X): the column Gram of X as consecutive full-width
    row strips, each under GRAM_STRIP_BYTES, so no N x N Gram is ever held."""
    arr = as_array(X)
    n = arr.shape[1]
    itemsize = np.result_type(arr.dtype, np.float64).itemsize
    height = max(1, GRAM_STRIP_BYTES // (n * itemsize))
    for i in range(0, n, height):
        yield i, arr[:, i:i + height].conj().T @ arr


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_cmx(A: Matrix, path) -> None:
    """Serialize a Matrix to the CMX v1 text format."""
    arr = A.data
    complex_field = np.iscomplexobj(arr)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CMX_MAGIC}\n")
        fh.write(f"field {'complex' if complex_field else 'real'}\n")
        fh.write(f"rows {arr.shape[0]}\n")
        fh.write(f"cols {arr.shape[1]}\n")
        fh.write("meta " + json.dumps(A.meta, sort_keys=True, separators=(",", ":")) + "\n")
        for row in arr:
            if complex_field:
                fh.write(" ".join(f"{_fmt(z.real)}:{_fmt(z.imag)}" for z in row))
            else:
                fh.write(" ".join(_fmt(v) for v in row))
            fh.write("\n")


def _parse_header_line(lines, idx: int, key: str) -> str:
    if idx >= len(lines):
        raise ParseError(f"missing '{key}' header", lineno=idx + 1)
    line = lines[idx]
    if not line.startswith(key + " "):
        raise ParseError(f"expected '{key} ...', got {line!r}", lineno=idx + 1)
    return line[len(key) + 1:]


def read_cmx(path) -> Matrix:
    """Parse a CMX v1 file back into a Matrix; inverse of write_cmx."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}") from e

    if not lines or lines[0] != CMX_MAGIC:
        raise ParseError(f"bad magic, expected {CMX_MAGIC!r}", lineno=1)
    field_name = _parse_header_line(lines, 1, "field")
    if field_name not in ("real", "complex"):
        raise ParseError(f"unknown field {field_name!r}", lineno=2)
    try:
        rows = int(_parse_header_line(lines, 2, "rows"))
        cols = int(_parse_header_line(lines, 3, "cols"))
    except ValueError as e:
        raise ParseError(str(e), lineno=3) from e
    if rows < 1 or cols < 1:
        raise ParseError("rows and cols must be positive", lineno=3)
    try:
        meta = json.loads(_parse_header_line(lines, 4, "meta"))
    except (ValueError, RecursionError) as e:
        raise ParseError(f"meta is not valid JSON: {e}", lineno=5) from e
    if not isinstance(meta, dict):
        raise ParseError("meta must be a JSON object", lineno=5)

    data_lines = lines[5:]
    while data_lines and data_lines[-1] == "":
        data_lines.pop()
    if len(data_lines) != rows:
        raise ParseError(f"expected {rows} data lines, found {len(data_lines)}",
                         lineno=5 + len(data_lines))

    for i, line in enumerate(data_lines):  # before allocating rows x cols
        if line.count(" ") != cols - 1:
            raise ParseError(f"expected {cols} entries, found {line.count(' ') + 1}",
                             lineno=6 + i)

    complex_field = field_name == "complex"
    out = np.empty((rows, cols), dtype=np.complex128 if complex_field else np.float64)
    for i, line in enumerate(data_lines):
        tokens = line.split(" ")
        try:
            if complex_field:
                for j, tok in enumerate(tokens):
                    re, _, im = tok.partition(":")
                    if not _:
                        raise ValueError(f"complex entry {tok!r} lacks ':'")
                    out[i, j] = complex(float(re), float(im))
            else:
                for j, tok in enumerate(tokens):
                    if ":" in tok:
                        raise ValueError(f"complex entry {tok!r} in a real matrix")
                    out[i, j] = float(tok)
        except ValueError as e:
            raise ParseError(str(e), lineno=6 + i) from e
    return Matrix(out, meta=meta)
