import itertools
import json
import os
import resource

import numpy as np
import pytest

from ripforge import constructors, matrix_core
from ripforge.designs import delta_closed_form
from ripforge.errors import ParseError
from ripforge.matrix_core import CMX_MAGIC, Matrix


def _poly_value(p: int, d: int, i: int, k: int) -> int:
    """f_i(k) mod p, where polynomial i has the base-p digits of i as its
    coefficients c_0, ..., c_d, c_0 least significant."""
    coeffs = []
    while i and len(coeffs) <= d:  # the digits above the top nonzero one are zero
        i, c = divmod(i, p)
        coeffs.append(c)
    assert i == 0, "polynomial index beyond the family p^(d+1)"
    return sum(c * k**e for e, c in enumerate(coeffs)) % p


def _dense_max_pair(arr: np.ndarray, unit: bool) -> tuple[float, tuple[int, int]]:
    """max |<a_j, a_l>| over j != l from the full N x N Gram (columns
    unit-normalized when unit), and the first pair in row-major order at it."""
    gram = np.abs(arr.conj().T @ arr)
    if unit:
        norms = np.linalg.norm(arr, axis=0)
        gram = gram / np.outer(norms, norms)
    np.fill_diagonal(gram, -1)
    j, l = np.unravel_index(int(np.argmax(gram)), gram.shape)
    return gram[j, l], (int(j), int(l))


def _gram_strips(arr: np.ndarray):
    """(i, X[:, i:i+h]^H X): the column Gram of X in strips of the height h
    that map_gram_strips takes under GRAM_STRIP_BYTES, each its own product."""
    n = arr.shape[1]
    itemsize = np.result_type(arr.dtype, np.float64).itemsize
    h = min(n, max(1, matrix_core.GRAM_STRIP_BYTES // (n * itemsize)))
    for i in range(0, n, h):
        yield i, arr[:, i:i + h].conj().T @ arr


def _strip_max_pair(arr: np.ndarray, norms=None) -> tuple[float, tuple[int, int]]:
    """Running max of |<a_j, a_l>| (over norms[j] norms[l] when given) over
    _gram_strips, each |G| a separate array, and the first pair at it: the
    bits and witness that certify._max_pair must reproduce."""
    best, witness = -1.0, None
    for i, strip in _gram_strips(arr):
        vals = np.abs(strip)
        if norms is not None:
            for k, row in enumerate(vals):
                row /= norms[i + k] * norms
        rows = np.arange(len(vals))
        vals[rows, i + rows] = -1.0
        r, c = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[r, c] > best:
            best, witness = float(vals[r, c]), (i + int(r), int(c))
    return best, witness


def _strip_defect(ps, k: int) -> float:
    """Gram-sum design defect summed over _gram_strips, each |G|^(2k) a
    separate array: the bits that designs.design_defect must reproduce."""
    w = ps.weights
    gram_sum = 0.0
    for i, strip in _gram_strips(ps.points.T):
        abs2 = (strip * strip.conj()).real
        gram_sum += float(w[i:i + len(abs2)] @ abs2**k @ w)
    return gram_sum - delta_closed_form(ps.dim, k, ps.field_name)


SUBSET_RIC_CHUNK = 20_000  # subsets gathered per batched SVD


def _subset_ric(arr: np.ndarray, s: int) -> float:
    """max ||H_S||_2 over all s-subsets S, each block's norm from its SVD,
    where H is the unit-column Gram from one dense product, diagonal 0."""
    unit = arr / np.linalg.norm(arr, axis=0)
    hollow = unit.conj().T @ unit
    np.fill_diagonal(hollow, 0.0)
    subsets = itertools.combinations(range(arr.shape[1]), s)
    worst = 0.0
    while block := list(itertools.islice(subsets, SUBSET_RIC_CHUNK)):
        idx = np.array(block)
        blocks = hollow[idx[:, :, None], idx[:, None, :]]
        worst = max(worst, float(np.linalg.norm(blocks, 2, axis=(1, 2)).max()))
    return worst


def _dense_defect(ps, k: int) -> float:
    """Gram-sum design defect from the full Gram of the points."""
    gram = ps.points @ ps.points.conj().T
    return (float(ps.weights @ np.abs(gram) ** (2 * k) @ ps.weights)
            - delta_closed_form(ps.dim, k, ps.field_name))


def _grid_quadruple_sums(B: np.ndarray, x: np.ndarray) -> tuple[complex, complex]:
    """S1 and S2 over the full r^4 index grid, each index set cut out by a
    boolean mask exactly as stated, from one dense q x r^2 pair product."""
    q, r = B.shape
    prods = np.einsum("jk,jl->jkl", B.conj(), B).reshape(q, r * r)
    quad = (prods.T @ prods.conj()).reshape(r, r, r, r)   # T(k,k',l,l')
    w_left = np.outer(x.conj(), x).reshape(r * r)
    w_right = np.outer(x, x.conj()).reshape(r * r)
    weighted = np.outer(w_left, w_right).reshape(r, r, r, r) * quad

    k, kp, l, lp = np.ix_(*[np.arange(r)] * 4)
    mask1 = (k != kp) & (l != lp) & ~((k == l) & (kp == lp))
    mask2 = mask1 & ~((k == lp) & (kp == l))
    return complex(weighted[mask1].sum()), complex(weighted[mask2].sum())


def _per_b_quad_scan(arr: np.ndarray) -> tuple[int, tuple[int, int, int, int] | None]:
    """max |sum_j A_{j,a} A_{j,b} A_{j,c} A_{j,d}| over 4-subsets of a +-1
    matrix and the lexicographically smallest 4-subset at it: for each b,
    one float64 product of the rows A_a o A_b (a < b) against the pair rows
    A_c o A_d with c > b, a suffix of the whole C(N,2) x m pair table."""
    m, n = arr.shape
    if n < 4:
        return 0, None
    columns = np.ascontiguousarray(arr.T, dtype=np.float64)
    rows, cols = np.triu_indices(n, 1)                      # lexicographic pairs
    prods = columns[rows] * columns[cols]
    best_val, best = -1.0, None
    for b in range(1, n - 2):
        start = int(np.searchsorted(rows, b + 1))
        vals = np.abs((columns[:b] * columns[b]) @ prods[start:].T)
        a, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        cand = (int(a), b, int(rows[start + j]), int(cols[start + j]))
        if vals[a, j] > best_val or (vals[a, j] == best_val and cand < best):
            best_val, best = float(vals[a, j]), cand
    return int(best_val), best


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_cmx_per_entry(A: Matrix, path) -> None:
    """CMX writer that formats every entry on its own."""
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


def _read_cmx_whole_text(path) -> Matrix:
    """CMX reader over the whole text and its splitlines(), one entry at a time."""
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
    except ValueError as e:
        raise ParseError(str(e), lineno=3) from e
    try:
        cols = int(_parse_header_line(lines, 3, "cols"))
    except ValueError as e:
        raise ParseError(str(e), lineno=4) from e
    if rows < 1:
        raise ParseError("rows and cols must be positive", lineno=3)
    if cols < 1:
        raise ParseError("rows and cols must be positive", lineno=4)
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


@pytest.fixture
def poly_value():
    """Scalar oracle for the polynomial enumeration of the Weil/DeVore families."""
    return _poly_value


@pytest.fixture
def dense_max_pair():
    """Dense referee for the Gram-strip reducer behind coherence and condition (a)."""
    return _dense_max_pair


@pytest.fixture
def strip_max_pair():
    """Strip-by-strip referee, bit for bit, for the in-place Gram reducer
    behind coherence, condition (a) and exact_ric at s = 2."""
    return _strip_max_pair


@pytest.fixture
def strip_defect():
    """Strip-by-strip referee, bit for bit, for design_defect's in-place sum."""
    return _strip_defect


@pytest.fixture
def subset_ric():
    """Per-subset SVD referee for exact_ric's strip, cubic and eigensolve paths."""
    return _subset_ric


@pytest.fixture
def dense_defect():
    """Dense referee for the Gram-strip sum behind design_defect."""
    return _dense_defect


@pytest.fixture
def grid_quadruple_sums():
    """Full-grid referee for the S1/S2 sums that l4_identity takes from quadruple_tensor."""
    return _grid_quadruple_sums


@pytest.fixture
def per_b_quad_scan():
    """Per-b referee over the whole pair table for condition_b's blocked scan."""
    return _per_b_quad_scan


@pytest.fixture
def cmx_writer_referee():
    """Per-entry referee for the blocked write_cmx."""
    return _write_cmx_per_entry


@pytest.fixture(scope="session")
def cmx_reader_referee():
    """Whole-text, per-entry referee for the streaming read_cmx."""
    return _read_cmx_whole_text


@pytest.fixture(params=["default", "tiny"])
def cmx_bounds(request, monkeypatch):
    """Run once with the shipped CMX_BLOCK_PARTS and CMX_CACHE_ENTRIES and
    once with blocks of a few parts and a read cache and write memo of a few
    entries, so every test matrix spans many blocks, mostly of one row, and
    small test files reach the cache's clears and give-ups."""
    if request.param == "tiny":
        monkeypatch.setattr("ripforge.matrix_core.CMX_BLOCK_PARTS", 6)
        monkeypatch.setattr("ripforge.matrix_core.CMX_CACHE_ENTRIES", 4)
    return request.param


@pytest.fixture(params=["default", "tiny"])
def strip_budget(request, monkeypatch):
    """Run once with the shipped GRAM_STRIP_BYTES and left-block row target
    and once with a budget so small that every test-sized Gram spans many
    strips of a few rows, and every quad_blocks scan many chunks of pair rows
    and left blocks of a few b."""
    if request.param == "tiny":
        monkeypatch.setattr("ripforge.matrix_core.GRAM_STRIP_BYTES", 1000)
        monkeypatch.setattr("ripforge.certify._LEFT_BLOCK_ROWS", 8)
    return request.param


class _NumpyTripwire:
    """Stands in for numpy inside ripforge.constructors: a constructor that
    reaches numpy before its memory guard fails instead of allocating."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the memory guard")


@pytest.fixture
def memory_limit(monkeypatch):
    """Put a tripwire in place of ripforge.constructors' numpy and return
    set_limit(rlimit_as, phys_bytes), which fakes the RLIMIT_AS soft limit
    and the physical memory that the memory guard of the constructors and
    read_cmx reads."""
    monkeypatch.setattr(constructors, "np", _NumpyTripwire())

    def set_limit(rlimit_as, phys_bytes=0):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": phys_bytes // 4096}
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (rlimit_as, resource.RLIM_INFINITY))
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    return set_limit
