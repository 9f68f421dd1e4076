"""Measurement-matrix constructions.

Deterministic families:

* ``weil(p, d)``      -- p x p^(d+1) polynomial phase matrix, entries
  exp(i 2 pi k f(k) / p) / sqrt(p); coherence <= d / sqrt(p) by the Weil
  character-sum bound.
* ``alltop(m)``       -- m x m^2 translations/modulations of the cubic
  phase vector, coherence exactly 1 / sqrt(m) for prime m >= 5.
* ``devore(p, d)``    -- p^2 x p^(d+1) binary matrix of polynomial graphs,
  entries in {0, 1/sqrt(p)}, coherence <= d / p.
* ``golomb_phase(p)`` -- m x p harmonic matrix on a Golomb ruler,
  m = 6p^2 - 6p + 1, with exactly orthogonal columns and vanishing
  fourth-order column products.
* ``golomb_stacked(p)`` -- the (m+p) x p stack [(2m)^(-1/4) A ; 2^(-1/4) I]
  that embeds l2^p isometrically into l4^(m+p).
* ``composed(s, N, p)`` -- golomb_phase(p) @ weil(p, d, N), the explicit
  l2 -> l1 embedding on s-sparse vectors.

The only randomized family is ``rademacher``; it is fully determined by
its seed.  Every phase family follows one rule: the integer phase is
reduced modulo the relevant modulus n in exact int64 arithmetic
(golomb_phase refuses any p whose products j g(k) < m q ~ 18 p^4 could
reach 2^63), then looked up once in the table of n-th roots of unity
exp(i 2 pi t / n), t in [0, n).  Entries thus carry no avoidable rounding
error, and equal phases give equal bits.

Before it allocates, each constructor estimates the bytes of the arrays it
holds at once, per entry as tracemalloc measures its peak, and refuses when
that exceeds what the process may use (_refuse_beyond_memory).
"""

from __future__ import annotations

import os
import resource

import numpy as np

from .errors import InvalidParams
from .golomb import build_ruler
from .matrix_core import Matrix
from .num_theory import MAX_MODULUS, is_prime

TWO_PI = 2.0 * np.pi
# Most complex128 entries one numpy array can address; below this a p x N
# table that does not fit in memory raises MemoryError instead.
_MAX_ENTRIES = np.iinfo(np.intp).max // 16


def _refuse_beyond_memory(nbytes: int) -> None:
    """InvalidParams, naming the bytes, when nbytes exceeds what this process
    may use: the RLIMIT_AS soft limit if finite, else the physical memory.
    This reads limits and sets none."""
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > limit:
        raise InvalidParams(f"the construction would hold about {nbytes} bytes at once, "
                            f"more than the {limit} bytes this process may use")


def rademacher(m: int, n_cols: int, seed: int) -> Matrix:
    """m x N matrix of independent +-1 entries, fully determined by seed."""
    if m < 1 or n_cols < 1:
        raise InvalidParams("matrix dimensions must be positive")
    if m * n_cols > _MAX_ENTRIES:
        raise InvalidParams(f"a {m} x {n_cols} matrix has more entries than numpy can address")
    _refuse_beyond_memory(18 * m * n_cols)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(m, n_cols)).astype(np.float64) * 2.0 - 1.0
    return Matrix(data, meta={"construction": "rademacher", "m": m, "N": n_cols,
                              "seed": int(seed)})


def _unit_roots(n: int, phase: np.ndarray) -> np.ndarray:
    """exp(i 2 pi phase / n) for an integer array phase already reduced into [0, n)."""
    return np.exp(1j * TWO_PI / n * np.arange(n))[phase]


def _poly_values(p: int, d: int, n_cols: int | None, column_bytes: int) -> np.ndarray:
    """Array vals[k, j] = f_j(k) for the first n_cols degree-<=d polynomials
    (all p^(d+1) of them when n_cols is None), once the caller's estimate of
    column_bytes per column passes _refuse_beyond_memory.

    Polynomial j has coefficients (c_0, ..., c_d) given by the base-p
    digits of j, c_0 least significant: a fixed order, so re-running always
    yields the same family in the same order.
    """
    if not is_prime(p):
        raise InvalidParams(f"p={p} must be prime")
    if not 1 <= d < p:
        raise InvalidParams(f"need 1 <= d < p, got d={d}, p={p}")
    if n_cols is not None and n_cols < 1:
        raise InvalidParams("need at least one column")
    if p > MAX_MODULUS:  # keeps the int64 products below p^2 exact
        raise InvalidParams(f"p={p} exceeds the supported cap {MAX_MODULUS}")
    most = _MAX_ENTRIES // p  # most columns a p-row table can address
    wanted = most + 1 if n_cols is None else n_cols
    # place values p^e by capped multiplication, up to the first p^e >= wanted
    # or e = d+1; the digits of j < N at the places p^e >= N are all zero
    place = [1]
    while place[-1] < wanted and len(place) <= d + 1:
        place.append(place[-1] * p)
    if n_cols is None:
        if place[-1] > most:
            raise InvalidParams(f"the {p}^{d + 1} polynomials of degree <= {d} are more "
                                f"columns than numpy can address")
        n_cols = place[-1]
    elif place[-1] < n_cols:
        raise InvalidParams(f"requested {n_cols} > family size p^(d+1) = {place[-1]}")
    if n_cols > most:
        raise InvalidParams(f"a {p} x {n_cols} array is larger than numpy can address")
    _refuse_beyond_memory(column_bytes * n_cols)
    place = np.array(place[:-1], dtype=np.int64)  # the places below N
    digits = np.arange(n_cols, dtype=np.int64)[None, :] // place[:, None] % p
    k = np.arange(p, dtype=np.int64)[:, None]
    vals = np.zeros((p, n_cols), dtype=np.int64)
    for c in digits[::-1]:  # Horner, highest place first
        vals = (vals * k + c[None, :]) % p
    return vals


def weil(p: int, d: int, n_cols: int | None = None) -> Matrix:
    """Polynomial phase matrix over F_p with coherence <= d / sqrt(p).

    Rows are indexed by k in F_p, columns by the first n_cols polynomials
    of degree <= d in the fixed enumeration order (all p^(d+1) of them by
    default).  Entry (k, f) is exp(i 2 pi k f(k) / p) / sqrt(p); every
    column has unit l2 norm.
    """
    vals = _poly_values(p, d, n_cols, 34 * p)  # refuses bad p, d and N
    k = np.arange(p, dtype=np.int64)[:, None]
    phase = (k * vals) % p
    data = _unit_roots(p, phase) / np.sqrt(p)
    return Matrix(data, meta={"construction": "weil", "p": p, "d": d, "N": vals.shape[1]})


def alltop(m: int) -> Matrix:
    """Cubic phase vector under all translations and modulations.

    Column (x, y) is stored at index x*m + y; entry (j, (x, y)) equals
    exp(i 2 pi ((j+x)^3 + y j) / m) / sqrt(m).  For prime m >= 5 distinct
    columns have inner products of modulus exactly 1/sqrt(m) or 0.
    """
    if m < 5 or not is_prime(m):
        raise InvalidParams(f"m={m}: the cubic phase family needs a prime m >= 5")
    if m**3 > _MAX_ENTRIES:
        raise InvalidParams(f"an m^3 = {m**3} entry phase table is more than numpy can address")
    _refuse_beyond_memory(41 * m**3)
    j = np.arange(m, dtype=np.int64)
    x = np.arange(m, dtype=np.int64)
    y = np.arange(m, dtype=np.int64)
    cubic = (j[:, None] + x[None, :]) ** 3 % m            # (m, m) by translation
    phase = (cubic[:, :, None] + y[None, None, :] * j[:, None, None]) % m
    data = _unit_roots(m, phase).reshape(m, m * m) / np.sqrt(m)
    return Matrix(data, meta={"construction": "alltop", "m": m, "N": m * m})


def devore(p: int, d: int) -> Matrix:
    """Binary polynomial-graph matrix with entries in {0, 1/sqrt(p)}.

    Rows are indexed by (a, b) in F_p^2 (row a*p + b), columns by
    polynomials; entry ((a, b), f) is 1/sqrt(p) iff f(a) = b.  Each column
    holds exactly p nonzeros, one per a, and has unit l2 norm; two columns
    collide in at most d rows, giving coherence <= d/p.
    """
    vals = _poly_values(p, d, None, 9 * p * p + 48 * p)    # (p, p^(d+1))
    n_cols = vals.shape[1]
    data = np.zeros((p * p, n_cols), dtype=np.float64)
    cols = np.broadcast_to(np.arange(n_cols), (p, n_cols))
    rows = np.arange(p, dtype=np.int64)[:, None] * p + vals
    data[rows.ravel(), cols.ravel()] = 1.0 / np.sqrt(p)
    return Matrix(data, meta={"construction": "devore", "p": p, "d": d, "N": n_cols})


def _golomb_rows(p: int) -> int:
    """m = 6p^2 - 6p + 1, the rows of golomb_phase(p), refusing any p whose
    phase products j g(k) < m q, with q = 3p(p-1)+1, could reach 2^63."""
    q = 3 * p * (p - 1) + 1
    m = 2 * q - 1
    if m * q >= 2**63:
        raise InvalidParams(f"p={p}: the phase products reach m q = {m * q} >= 2^63")
    return m


def golomb_phase(p: int) -> Matrix:
    """Harmonic matrix on the quadratic-residue Golomb ruler.

    With m = 6p^2 - 6p + 1 and marks g(0..p-1), entry (j, k) is
    exp(i 2 pi j g(k) / m).  Because all differences g(k) - g(k') and all
    differences of differences stay inside (-m, m) and are nonzero, the
    columns are exactly orthogonal and all fourth-order column products
    over distinct ordered pairs vanish.
    """
    m = _golomb_rows(p)
    ruler = build_ruler(p)  # rejects p < 3 and composites
    _refuse_beyond_memory(26 * m * p)
    j = np.arange(m, dtype=np.int64)[:, None]
    g = np.asarray(ruler.marks, dtype=np.int64)[None, :]
    phase = j * g
    phase %= m  # in place: one m x p int64 temporary fewer
    data = _unit_roots(m, phase)
    return Matrix(data, meta={"construction": "golomb_phase", "p": p, "m": m})


def golomb_stacked(p: int) -> Matrix:
    """Stack [(2m)^(-1/4) * golomb_phase(p) ; 2^(-1/4) * I_p].

    The resulting (m+p) x p matrix M satisfies ||M x||_4 = ||x||_2 for all
    complex x: an exactly isometric embedding of l2^p into l4^(m+p).
    """
    _refuse_beyond_memory(50 * (_golomb_rows(p) + p) * p)
    top = golomb_phase(p)
    m = top.rows
    data = np.vstack([
        top.data / (2.0 * m) ** 0.25,
        np.eye(p, dtype=np.complex128) / 2.0 ** 0.25,
    ])
    return Matrix(data, meta={"construction": "golomb_stacked", "p": p, "m": m})


def _composed_degree(p: int, n_cols: int) -> int:
    """max(1, ceil(ln(N/p) / ln p)): the smallest d >= 1 with p^(d+1) >= N,
    in exact integers."""
    d, family = 1, p * p
    while family < n_cols:
        d += 1
        family *= p
    return d


def composed(s: int, n_cols: int, p: int) -> Matrix:
    """golomb_phase(p) @ weil(p, d, N): an l2 -> l1 embedding on s-sparse vectors.

    p may be any prime >= 3.  The paper takes p as the smallest prime in
    [9 s^2 ceil(ln^2 N), 18 s^2 ceil(ln^2 N)] and needs N > p^2 and p^p >= N.
    That chain first holds near N = 4.53e6 (p = 2129) at s = 1, where the
    dense 27e6 x N complex matrix would take about 1800 TiB, so p is an input.
    The degree d = ceil(ln(N/p) / ln p) is clamped to >= 1, and the clamp is
    recorded in meta.
    """
    if s < 1 or n_cols < 1:
        raise InvalidParams("need s >= 1 and N >= 1")
    if n_cols > _MAX_ENTRIES:  # also bounds the loop in _composed_degree
        raise InvalidParams(f"N={n_cols} columns are more than numpy can address")
    if p < 3 or not is_prime(p):
        raise InvalidParams(f"p={p} must be a prime >= 3")
    clamped = n_cols <= p  # ln(N/p) <= 0 would give d <= 0
    d = _composed_degree(p, n_cols)
    m = _golomb_rows(p)
    _refuse_beyond_memory(18 * m * n_cols + 26 * m * p + 34 * p * n_cols)
    left = golomb_phase(p)
    right = weil(p, d, n_cols)  # raises InvalidParams if N > p^(d+1)
    data = left.data @ right.data
    meta = {"construction": "composed", "s": s, "N": n_cols, "p": p, "d": d,
            "m": left.rows, "d_clamped": clamped}
    return Matrix(data, meta=meta)
