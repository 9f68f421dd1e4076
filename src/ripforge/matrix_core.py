"""Dense real/complex matrix container, vector norms, and CMX file I/O.

Matrices are immutable after construction and carry a provenance record
(construction name, parameters, seed for randomized draws).  The CMX
exchange format is line-oriented text with 17-significant-digit decimals,
so double-precision entries round-trip bit-exactly and files stay
diffable across implementations.

CMX I/O runs in memory bounded apart from the matrix itself, and costs
about the distinct values of a file: the explicit constructions repeat a
few roots of unity, chirps and signs.  write_cmx goes out in blocks of rows
and formats each bit pattern that a memo kept across blocks lacks.
read_cmx streams the file once, counting lines and entries and parsing
each line through a cache of the tokens already seen; it never holds the
whole text.  The memo and the cache hold at most CMX_CACHE_ENTRIES entries
each, and both step aside on mostly distinct values, such as Gaussian draws.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import InvalidParams, ParseError

CMX_MAGIC = "#cmx 1"
GRAM_STRIP_BYTES = 8 << 20   # budget of the strip-sized arrays a call allocates once
FLOAT32_SIGN_ROWS = 1 << 24  # most rows over which +-1 product sums stay exact in float32
CMX_BLOCK_PARTS = 1 << 15    # float64 parts write_cmx formats per block of rows
CMX_CACHE_ENTRIES = 1 << 14  # most tokens read_cmx, or bit patterns write_cmx, keeps at once
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b" :")


@dataclass(frozen=True)
class Matrix:
    """Dense m x N matrix in double precision with provenance metadata."""

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise InvalidParams(f"matrix must be 2-d, got shape {arr.shape}")
        if arr.size == 0:
            raise InvalidParams("matrix must have at least one row and column")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if not np.isfinite(arr).all():
            raise InvalidParams("matrix entries must be finite (no NaN or inf)")
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


def norm(v, exponent: float) -> float:
    """(sum_i |v_i|^e)^(1/e) with |.| the complex modulus, e >= 1."""
    if exponent < 1:
        raise InvalidParams(f"exponent must be >= 1, got {exponent}")
    v = np.asarray(v)
    return float(np.sum(np.abs(v) ** exponent) ** (1.0 / exponent))


def matvec(A, x) -> np.ndarray:
    """Dense matrix-vector product in double precision."""
    arr = as_array(A)
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != arr.shape[1]:
        raise InvalidParams(f"matrix is {arr.shape}, vector has shape {x.shape}")
    return arr @ x


def gram_strips(X):
    """Yield (i, X[:, i:j]^H X): the column Gram of X as consecutive full-width
    row strips, each under GRAM_STRIP_BYTES (8 MiB), so no N x N Gram is
    ever held.

    Every strip is computed into one buffer allocated once per call, so a
    strip is valid only until the next is asked for: a consumer that keeps
    one longer must copy it, and may overwrite it in place, as
    map_gram_strips does, holding one strip plus one row's temporaries.
    """
    arr = as_array(X)
    n = arr.shape[1]
    dtype = np.result_type(arr.dtype, np.float64)
    height = min(n, max(1, GRAM_STRIP_BYTES // (n * dtype.itemsize)))
    buf = np.empty((height, n), dtype=dtype)
    for i in range(0, n, height):
        yield i, np.matmul(arr[:, i:i + height].conj().T, arr, out=buf[:n - i])


def map_gram_strips(X, func):
    """Yield (i, func(S)) for each strip (i, S) of gram_strips(X), holding one
    strip plus one row's temporaries.

    func is an elementwise expression with float64 values, such as np.abs.
    It maps one row at a time into S's own buffer viewed as float64: float
    row r lies inside complex row r // 2, which has already been read.  The
    values, like S, last until the next strip and may be changed in place.
    """
    for i, strip in gram_strips(X):
        vals = strip.reshape(-1).view(np.float64)[:strip.size].reshape(strip.shape)
        for row, out in zip(strip, vals):
            out[:] = func(row)
        yield i, vals


def write_cmx(A: Matrix, path) -> None:
    """Serialize a Matrix to the CMX v1 text format.

    Rows go out in blocks of about CMX_BLOCK_PARTS float64 parts, a real
    and an imaginary part counting separately.  Every entry reads exactly
    as format(x, ".17g") of each part would give it, but each bit pattern
    is formatted only when a memo kept across the blocks lacks it; see
    _block_text for how the memo stays within CMX_CACHE_ENTRIES.
    """
    arr = A.data
    complex_field = np.iscomplexobj(arr)
    parts = arr.view(np.float64)  # complex rows read re, im, re, im, ...
    width = parts.shape[1]
    seps = np.full(width, " ", dtype=object)  # the text after each part of a row
    if complex_field:
        seps[0::2] = ":"
    seps[-1] = "\n"
    height = max(1, CMX_BLOCK_PARTS // width)
    memo = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CMX_MAGIC}\n")
        fh.write(f"field {'complex' if complex_field else 'real'}\n")
        fh.write(f"rows {arr.shape[0]}\n")
        fh.write(f"cols {arr.shape[1]}\n")
        fh.write("meta " + json.dumps(A.meta, sort_keys=True, separators=(",", ":")) + "\n")
        for i in range(0, parts.shape[0], height):
            fh.write(_block_text(parts[i:i + height], seps, memo))


def _formatted(bits: np.ndarray) -> list[str]:
    return [format(x, ".17g") for x in bits.view(np.float64).tolist()]


def _block_text(block: np.ndarray, seps: np.ndarray, memo: dict) -> str:
    """The CMX text of a block of rows of float64 parts, with one join over
    the tokens and seps, the text after each part of a row.

    Tokens are keyed by bit pattern, so -0.0 stays apart from 0.0.  memo
    maps the bit patterns of earlier blocks to their tokens; the block's new
    patterns are added, after a clear when they would take it past
    CMX_CACHE_ENTRIES.  A block that is more than half distinct values, or
    has more than the memo holds, is formatted whole and leaves it as it is.
    """
    bits, index = np.unique(block.view(np.uint64), return_inverse=True)
    if 2 * len(bits) > block.size or len(bits) > CMX_CACHE_ENTRIES:
        tokens = _formatted(bits)
    else:
        keys = bits.tolist()
        new = [k for k in keys if k not in memo]
        if len(memo) + len(new) > CMX_CACHE_ENTRIES:
            memo.clear()
            new = keys
        memo.update(zip(new, _formatted(np.array(new, dtype=np.uint64))))
        tokens = list(map(memo.__getitem__, keys))
    tokens = np.array(tokens, dtype=object)
    text = np.empty((block.shape[0], 2 * block.shape[1]), dtype=object)
    text[:, 0::2] = tokens[index.reshape(block.shape)]
    del bits, index, tokens  # before the list and the string, which are larger
    text[:, 1::2] = seps
    return "".join(text.ravel().tolist())


def _logical_lines(fh):
    """The lines of an open text file exactly as str.splitlines() of its whole
    text gives them, one physical line at a time."""
    return chain.from_iterable(map(str.splitlines, fh))


def _parse_header_line(lines, idx: int, key: str) -> str:
    if idx >= len(lines):
        raise ParseError(f"missing '{key}' header", lineno=idx + 1)
    line = lines[idx]
    if not line.startswith(key + " "):
        raise ParseError(f"expected '{key} ...', got {line!r}", lineno=idx + 1)
    return line[len(key) + 1:]


def _parse_header(lines) -> tuple[bool, int, int, dict]:
    """(complex field, rows, cols, meta) from the first five lines."""
    if not lines or lines[0] != CMX_MAGIC:
        raise ParseError(f"bad magic, expected {CMX_MAGIC!r}", lineno=1)
    field_name = _parse_header_line(lines, 1, "field")
    if field_name not in ("real", "complex"):
        raise ParseError(f"unknown field {field_name!r}", lineno=2)
    counts = []
    for idx, key in ((2, "rows"), (3, "cols")):
        try:
            counts.append(int(_parse_header_line(lines, idx, key)))
        except ValueError as e:
            raise ParseError(str(e), lineno=idx + 1) from e
    rows, cols = counts
    if rows < 1 or cols < 1:
        raise ParseError("rows and cols must be positive", lineno=3 if rows < 1 else 4)
    try:
        meta = json.loads(_parse_header_line(lines, 4, "meta"))
    except (ValueError, RecursionError) as e:
        raise ParseError(f"meta is not valid JSON: {e}", lineno=5) from e
    if not isinstance(meta, dict):
        raise ParseError("meta must be a JSON object", lineno=5)
    return field_name == "complex", rows, cols, meta


class _FloatCache(dict):
    """float(token) of each token looked up, parsed on its first lookup.

    parse() maps a line's tokens through the cache, and __missing__ parses
    and adds each miss.  Before a line that might take the cache past
    CMX_CACHE_ENTRIES, it is cleared; but if more than half the tokens
    looked up since the last clear were misses (each distinct miss adds one
    entry), it gives up, and every later line goes through plain float.  A
    line with more tokens than the cache holds does too.
    """

    def __init__(self):
        super().__init__()
        self.seen = 0           # tokens looked up since the last clear
        self.given_up = False

    def __missing__(self, token):
        value = self[token] = float(token)
        return value

    def parse(self, tokens: list[str]) -> list[float]:
        if not self.given_up and len(self) + len(tokens) > CMX_CACHE_ENTRIES:
            self.given_up = 2 * len(self) > self.seen
            self.clear()
            self.seen = 0
        if self.given_up or len(tokens) > CMX_CACHE_ENTRIES:
            return list(map(float, tokens))
        self.seen += len(tokens)
        return list(map(self.__getitem__, tokens))


def read_cmx(path) -> Matrix:
    """Parse a CMX v1 file back into a Matrix; inverse of write_cmx.

    One pass counts the data lines and entries and parses each line of cols
    entries into its row through a _FloatCache.  Errors keep a whole-text
    reader's order: not UTF-8, header, line count, first wrong entry count,
    first bad token.  A valid file spends two bytes or more on each entry,
    so rows x cols is allocated only if the file's size holds them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _logical_lines(fh)
            try:
                complex_field, rows, cols, meta = _parse_header(list(islice(lines, 5)))
            except ParseError:
                for _ in lines:  # a file that is not UTF-8 reports that first
                    pass
                raise
            seen = last = 0  # data lines read, and up to the last non-empty one
            bad = error = pairs = parts = None  # (line, entries) of the first wrong count
            if 2 * rows * cols <= os.fstat(fh.fileno()).st_size + 1:
                parts = np.empty((rows, 2 * cols if complex_field else cols))  # float64 parts
            cache = _FloatCache()
            for line in lines:
                seen += 1
                if line:
                    last = seen
                if line.count(" ") != cols - 1:
                    bad = bad or (seen, line.count(" ") + 1)
                elif bad is None and error is None and seen <= rows:
                    try:
                        if complex_field:
                            # in UTF-8 the bytes ' ' and ':' only ever encode those characters
                            pairs = pairs or b": " * (cols - 1) + b":"  # no longer than a line
                            if line.encode().translate(None, _NOT_SEPARATOR) != pairs:
                                raise ValueError("complex entries must be re:im pairs "
                                                 "separated by single spaces")
                            line = line.replace(":", " ")
                        elif ":" in line:
                            raise ValueError("complex entry in a real matrix")
                        values = cache.parse(line.split(" "))
                        if parts is not None:
                            parts[seen - 1] = values
                    except ValueError as e:
                        error = ParseError(str(e), lineno=5 + seen)
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}") from e
    if last != rows:
        raise ParseError(f"expected {rows} data lines, found {last}", lineno=5 + last)
    if bad is not None and bad[0] <= last:
        raise ParseError(f"expected {cols} entries, found {bad[1]}", lineno=5 + bad[0])
    if error is not None or parts is None:  # valid entries fit in the size, unless it reads 0
        raise error or ParseError("file size reads too small for the entries (a pipe's reads 0)")
    return Matrix(parts.view(np.complex128) if complex_field else parts, meta=meta)
