"""Dense real/complex matrix container, vector norms, and CMX file I/O.

Matrices are immutable after construction and carry a provenance record
(construction name, parameters, seed for randomized draws).  The CMX
exchange format is line-oriented text with 17-significant-digit decimals,
so double-precision entries round-trip bit-exactly and files stay
diffable across implementations.

CMX I/O runs in memory bounded apart from the matrix itself, and costs
about the distinct values of a file: the explicit constructions repeat a
few roots of unity, chirps and signs.  write_cmx goes out in blocks of rows.
It looks each block's bit patterns up in a memo of sorted keys kept across
blocks, formats only the misses, and joins the block from tokens that carry
their separator; a mostly distinct block is formatted whole by one "%.17g"
row format.  read_cmx streams the file once, counting lines and entries.
It splits runs of lines on spaces and looks each entry up whole, a re:im
pair as one token, in a cache of the entries already seen; it never holds
the whole text.  The memo and the cache hold at most CMX_CACHE_ENTRIES
entries each, and both step aside on mostly distinct values, such as
Gaussian draws: the memo per block, the cache for good.
"""

from __future__ import annotations

import json
import os
import resource
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, filterfalse, islice, repeat

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


def _refuse_beyond_memory(nbytes: int, what: str = "the construction") -> None:
    """InvalidParams, naming the bytes, when nbytes, the most that what would
    hold at once, exceeds what this process may use: the RLIMIT_AS soft
    limit if finite, else the physical memory.  This reads limits and sets
    none."""
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > limit:
        raise InvalidParams(f"{what} would hold about {nbytes} bytes at once, "
                            f"more than the {limit} bytes this process may use")


def as_array(A) -> np.ndarray:
    """Accept a Matrix or a bare 2-d ndarray; return the ndarray view."""
    return A.data if isinstance(A, Matrix) else np.asarray(A)


def norm(v, exponent: float) -> float:
    """(sum_i |v_i|^e)^(1/e) with |.| the complex modulus, e >= 1.

    Each |v_i|^e is formed unscaled, so the domain is |v_i| below about
    1.8e308^(1/e): an entry above about 1.1e77 overflows at e = 4, and
    under cli.run that exits 2 however representable the norm itself is.
    """
    if exponent < 1:
        raise InvalidParams(f"exponent must be >= 1, got {exponent}")
    v = np.asarray(v)
    return float(np.sum(np.abs(v) ** exponent) ** (1.0 / exponent))


def _scaled_norm(v) -> float:
    """l2 norm of v computed from v scaled to a largest |v_i| of 1, so no
    square under- or overflows: 0.0 only when every entry is 0, inf only
    when the norm is past float64's range.  For naming a refused norm."""
    scale = np.abs(v).max()
    if scale == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(scale * np.linalg.norm(v / scale))


def matvec(A, x) -> np.ndarray:
    """Dense matrix-vector product in double precision."""
    arr = as_array(A)
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != arr.shape[1]:
        raise InvalidParams(f"matrix is {arr.shape}, vector has shape {x.shape}")
    return arr @ x


def gram_rows(X):
    """Yield (j, G[j, j:]) for the column Gram G = X^H X: each row from its
    diagonal on, so every unordered column pair j < l is read once.

    The rows come out of strips X[:, i:i+h]^H X[:, i:] of the upper
    triangle, h under GRAM_STRIP_BYTES (8 MiB) of full-width rows, each
    computed into one buffer allocated once per call.  So no N x N Gram is
    ever held, only one strip; a yielded row lasts until the next strip.
    """
    arr = as_array(X)
    n = arr.shape[1]
    dtype = np.result_type(arr.dtype, np.float64)
    height = min(n, max(1, GRAM_STRIP_BYTES // (n * dtype.itemsize)))
    buf = np.empty(height * n, dtype=dtype)
    for i in range(0, n, height):
        rows = min(height, n - i)
        strip = np.matmul(arr[:, i:i + rows].conj().T, arr[:, i:],
                          out=buf[:rows * (n - i)].reshape(rows, n - i))
        for r, row in enumerate(strip):
            yield i + r, row[r:]


def write_cmx(A: Matrix, path) -> None:
    """Serialize a Matrix to the CMX v1 text format.

    Rows go out in blocks of about CMX_BLOCK_PARTS float64 parts, a real
    and an imaginary part counting separately.  Every entry reads exactly
    as format(x, ".17g") of each part would give it: a block of mostly
    repeated values is joined from the tokens of a _TokenMemo kept across
    the blocks, and any other block is formatted whole by one "%.17g" row
    format, which calls the same float-to-text routine.
    """
    arr = A.data
    complex_field = np.iscomplexobj(arr)
    parts = arr.view(np.float64)  # complex rows read re, im, re, im, ...
    width = parts.shape[1]
    seps = [":", " "] * (width // 2) if complex_field else [" "] * width  # after each part
    seps[-1] = "\n"
    height = max(1, CMX_BLOCK_PARTS // width)
    memo = _TokenMemo(seps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CMX_MAGIC}\n")
        fh.write(f"field {'complex' if complex_field else 'real'}\n")
        fh.write(f"rows {arr.shape[0]}\n")
        fh.write(f"cols {arr.shape[1]}\n")
        fh.write("meta " + json.dumps(A.meta, sort_keys=True, separators=(",", ":")) + "\n")
        for i in range(0, parts.shape[0], height):
            fh.write(memo.text(parts[i:i + height]))


class _TokenMemo:
    """The CMX tokens of the float64 bit patterns written so far, kept across
    the blocks of one write_cmx call.

    keys holds at most CMX_CACHE_ENTRIES patterns in ascending order, and
    tokens[k, j] is the token of keys[k] followed by the j-th of the row's
    separators, so a block is joined from one string per part.  Patterns are
    bits, so -0.0 stays apart from 0.0.
    """

    def __init__(self, seps: list[str]):
        """seps: the text after each part of a row."""
        self.row_format = "".join("%.17g" + sep for sep in seps)
        kinds = {sep: j for j, sep in enumerate(dict.fromkeys(seps))}
        self.suffixes = np.array(list(kinds), dtype=object)
        self.suffix_of = np.array([kinds[sep] for sep in seps])  # each column's separator
        self.keys = np.empty(0, dtype=np.uint64)
        self.tokens = np.empty((0, len(kinds)), dtype=object)

    def text(self, block: np.ndarray) -> str:
        """The CMX text of a block of rows of float64 parts.

        The block's distinct patterns are looked up in keys, and only the
        misses are formatted.  They are added after a clear, which keeps the
        block's own patterns, when they would take the memo past
        CMX_CACHE_ENTRIES.  A block that is more than half distinct values,
        or has more than the memo holds, is formatted whole by the row format
        and leaves the memo as it is.
        """
        bits, index = np.unique(block.view(np.uint64), return_inverse=True)
        if 2 * len(bits) > block.size or len(bits) > CMX_CACHE_ENTRIES:
            return (self.row_format * block.shape[0]) % tuple(block.ravel().tolist())
        at = np.searchsorted(self.keys, bits)
        hit = np.zeros(len(bits), dtype=bool)
        if len(self.keys):
            hit = self.keys[np.minimum(at, len(self.keys) - 1)] == bits
        if not hit.all():
            if len(self.keys) + len(bits) - np.count_nonzero(hit) > CMX_CACHE_ENTRIES:
                self.keys, self.tokens = self.keys[at[hit]], self.tokens[at[hit]]
            misses = bits[~hit]
            formatted = map(format, misses.view(np.float64).tolist(), repeat(".17g"))
            new = np.add.outer(np.array(list(formatted), dtype=object), self.suffixes)
            where = np.searchsorted(self.keys, misses)
            self.keys = np.insert(self.keys, where, misses)
            self.tokens = np.insert(self.tokens, where, new, axis=0)
            at = np.searchsorted(self.keys, bits)
        return "".join(self.tokens[at[index.reshape(block.shape)], self.suffix_of].ravel().tolist())


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


class _TokenCache(dict):
    """The value of each data token looked up, parsed on its first miss: a
    float for a real file, a complex for each re:im entry of a complex one.

    Before lines that might take it past CMX_CACHE_ENTRIES, it is cleared;
    but if more than half the tokens looked up since the last clear were
    misses (each distinct miss adds one entry), it gives up, and every later
    line goes the plain way, _line_parts.  A line with more tokens than the
    cache holds does too.
    """

    def __init__(self, complex_field: bool = False):
        super().__init__()
        self.convert = _complex_entries if complex_field else partial(map, float)
        self.seen = 0           # tokens looked up since the last clear
        self.given_up = False

    def parse(self, lines: list[str], n: int) -> list | None:
        """The values of the n single-space separated tokens of lines, each
        looked up whole; None when the lines go the plain way, or a token
        does not parse.  Misses are parsed together, and when they are most
        of the tokens, all the tokens are."""
        if not self.given_up and len(self) + n > CMX_CACHE_ENTRIES:
            self.given_up = 2 * len(self) > self.seen
            self.clear()
            self.seen = 0
        if self.given_up or n > CMX_CACHE_ENTRIES:
            return None
        self.seen += n
        tokens = " ".join(lines).split(" ")
        try:
            return list(map(self.__getitem__, tokens))
        except KeyError:
            misses = list(filterfalse(self.__contains__, tokens))
        try:
            if 2 * len(misses) > n:
                values = list(self.convert(tokens))
                self.update(zip(tokens, values))
                return values
            self.update(zip(misses, self.convert(misses)))
        except ValueError:
            return None
        return list(map(self.__getitem__, tokens))


def _complex_entries(tokens: list[str]):
    """complex(float(re), float(im)) of each re:im token; ValueError unless
    every token has exactly one ':'."""
    values = iter(_line_parts(" ".join(tokens), b": " * (len(tokens) - 1) + b":"))
    return map(complex, values, values)


def _line_parts(line: str, pairs: bytes | None) -> list[float]:
    """The float parts of a data line of single-space separated entries, each
    parsed with plain float.  A complex line, whose separators must read
    pairs (': : ... :'), gives re and im apart; a real one has pairs None.
    The ValueError of a bad line names its first fault."""
    if pairs is not None:
        # in UTF-8 the bytes ' ' and ':' only ever encode those characters
        if line.encode().translate(None, _NOT_SEPARATOR) != pairs:
            raise ValueError("complex entries must be re:im pairs separated by single spaces")
        line = line.replace(":", " ")
    elif ":" in line:
        raise ValueError("complex entry in a real matrix")
    return list(map(float, line.split(" ")))


def _parse_lines(lines: list[str], pairs: bytes | None, parts, first: int) -> ParseError | None:
    """Parse data lines first, first + 1, ... (counting from 0) into their
    rows of parts, if not None, one by one with _line_parts; the ParseError
    of the first bad line, if any."""
    for i, line in enumerate(lines, first):
        try:
            values = _line_parts(line, pairs)
        except ValueError as e:
            return ParseError(str(e), lineno=6 + i)
        if parts is not None:
            parts[i * len(values):(i + 1) * len(values)] = values
    return None


def read_cmx(path) -> Matrix:
    """Parse a CMX v1 file back into a Matrix; inverse of write_cmx.

    One pass counts the data lines and entries, and parses the lines of
    cols entries into their rows in runs of at most the _TokenCache's free
    entries: split on spaces and looked up whole in the cache while it
    pays, else part by part with plain float.  Errors keep a whole-text
    reader's order: not UTF-8, header, line count, first wrong entry count,
    a matrix beyond memory, first bad token.  A valid file spends two bytes
    or more on each entry, so rows x cols is allocated only if the file's
    size holds them and the process may hold them (_refuse_beyond_memory).
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
            bad = None  # (line, entries) of the first wrong entry count
            error = refusal = parts = entries = pairs = None
            if 2 * rows * cols <= os.fstat(fh.fileno()).st_size + 1:
                try:  # the float64 parts, and the finite mask Matrix takes of the entries
                    _refuse_beyond_memory((16 if complex_field else 8) * rows * cols + rows * cols,
                                          "the matrix")
                    parts = np.empty(rows * cols * (2 if complex_field else 1))  # row after row
                    entries = parts.view(np.complex128) if complex_field else parts
                except InvalidParams as e:
                    refusal = e
            cache = _TokenCache(complex_field)
            # runs of at most the cache's free entries, and of a sixteenth of the cache
            # (1024 tokens at the shipped bound), so a run's text and tokens stay in a
            # core's cache while the steps taken once per run are amortized
            while run := list(islice(lines, max(1, min(CMX_CACHE_ENTRIES - len(cache),
                                                        CMX_CACHE_ENTRIES // 16) // cols))):
                counts = list(map(str.count, run, repeat(" ")))
                if run[-1]:
                    last = seen + len(run)
                elif any(run):
                    last = next(seen + j for j in range(len(run), 0, -1) if run[j - 1])
                if bad is None:
                    good = len(run)
                    if counts.count(cols - 1) != good:
                        good = next(j for j, n in enumerate(counts) if n != cols - 1)
                        bad = (seen + good + 1, counts[good] + 1)
                    todo = min(good, rows - seen) if error is None and refusal is None else 0
                    if todo > 0:
                        values = cache.parse(run[:todo], todo * cols)
                        if values is not None and parts is not None:
                            entries[seen * cols:(seen + todo) * cols] = values
                        elif values is None:
                            if complex_field:
                                pairs = pairs or b": " * (cols - 1) + b":"  # no longer than a line
                            error = _parse_lines(run[:todo], pairs, parts, seen)
                seen += len(run)
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}") from e
    if last != rows:
        raise ParseError(f"expected {rows} data lines, found {last}", lineno=5 + last)
    if bad is not None and bad[0] <= last:
        raise ParseError(f"expected {cols} entries, found {bad[1]}", lineno=5 + bad[0])
    if refusal is not None:
        raise refusal
    if error is not None or parts is None:  # valid entries fit in the size, unless it reads 0
        raise error or ParseError("file size reads too small for the entries (a pipe's reads 0)")
    return Matrix(entries.reshape(rows, cols), meta=meta)
