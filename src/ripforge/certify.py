"""Certification of measurement matrices.

A sign matrix A (entries exactly +-1) is certified through two families of
exact integer sums:

    (a)  |sum_j A_{j,k} A_{j,k'}|          <= kappa sqrt(m)   for k != k',
    (b)  |sum_j A_{j,k} A_{j,k'} A_{j,l} A_{j,l'}| <= kappa sqrt(m)
                                           for k, k', l, l' all distinct.

Both hold for a Rademacher draw with kappa = sqrt(8 ln N) except with
probability at most 1/N^2 + 1/12 <= 1/3, so the Las Vegas driver redraws
until a draw certifies; the returned matrix is always correct, only the
number of rounds is random.  A certified matrix at m >= ceil(kappa^2
delta^-2 s^4) embeds s-sparse vectors from l2 into l1 with constants
alpha m and beta m, alpha = ((1-delta)^3 / (3(1+delta)))^(1/2) and
beta = (1+delta)^(1/2), hence distortion beta/alpha <= sqrt(3)
((1+delta)/(1-delta))^(3/2).

The pair/quadruple sums of +-1 entries, and every partial sum of them
under any summation order or FMA, are integers of magnitude at most m.
So the float64 Gram strips give exact pair sums (m < 2^53), the quadruple
scan is exact in float32, which it uses while m <= 2^24
(matrix_core.FLOAT32_SIGN_ROWS), and in float64 above, and the checks
carry no tolerance.  Quadruple sums are invariant under permuting
{k, k', l, l'}, so each 4-subset a < b < c < d is scanned exactly once,
as the inner product of the pair-product columns A_a o A_b and A_c o A_d.
quad_blocks forms these C(N,4) m multiply-adds as products of left blocks
of several b, at least _LEFT_BLOCK_ROWS rows A_a o A_b, against chunks of
the lexicographic pair rows A_c o A_d; the products with c <= b that a
block shares with its later b are masked away, 13 % of the useful work at
N = 80 and 2 % at N = 192.  A chunk and its product stay under
GRAM_STRIP_BYTES (8 MiB), so the scan holds that plus O(N m) however large
C(N,2) m grows; the chunk, left block and product buffers are allocated
once per call and refilled.  The maximum over ordered quadruples is
unchanged.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import matrix_core
from .constructors import rademacher
from .errors import InvalidParams, RoundsExhausted
from .matrix_core import Matrix, as_array, map_gram_strips

SUBSEED_DERIVATION = "numpy SeedSequence((seed, round)), first uint64 word"
SAMPLER = 2         # version of _sparse_trials' seed -> sample mapping
SAMPLE_BLOCK = 2048  # most vectors _sparse_trials draws at once
RIC_SUBSET_CAP = 1_000_000  # most s-subsets exact_ric enumerates at s >= 3
LAS_VEGAS_ROUNDS = 64       # draws las_vegas makes before RoundsExhausted
_LEFT_BLOCK_ROWS = 128      # least rows A_a o A_b that quad_blocks multiplies at once


class ConditionCheck(NamedTuple):
    passed: bool
    max_sum: int
    witness: tuple[int, ...] | None
    threshold: float


@dataclass(frozen=True)
class Theorem1Bound:
    m_required: int
    alpha: float
    beta: float
    distortion_bound: float


@dataclass(frozen=True)
class CertReport:
    """Certification record for a sign matrix (single-line JSON friendly)."""

    coherence: float
    kappa: float
    threshold: float
    max_pair_sum: int
    max_quad_sum: int
    cond_a_pass: bool
    cond_b_pass: bool
    pair_witness: tuple[int, ...] | None
    quad_witness: tuple[int, ...] | None


@dataclass(frozen=True)
class ProbeReport:
    """Sampled l1/l2 ratios; the spread is a LOWER bound on true distortion."""

    trials: int
    min_ratio: float
    max_ratio: float
    empirical_distortion: float
    sampler: int


def column_norms(A) -> np.ndarray:
    """l2 norms of the columns, each in [2^-485, 2^485], or InvalidParams.

    That range is the domain of the Gram certificates: inside it no norm^2,
    norm product or Gram entry overflows float64, and no norm^2 or norm
    product is subnormal.  A column outside it is refused by name, as
    identically zero or with its norm, recomputed from the column scaled
    to a largest entry of 1.
    """
    arr = as_array(A)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(arr, axis=0)
    outside = (norms < 2.0**-485) | (norms > 2.0**485)
    if outside.any():
        j = int(np.argmax(outside))
        norm = matrix_core._scaled_norm(arr[:, j])
        if norm == 0.0:
            raise InvalidParams(f"column {j} is identically zero")
        raise InvalidParams(f"column {j} has norm {norm!r}, outside the certified "
                            "range [2^-485, 2^485]")
    return norms


def _max_pair(arr: np.ndarray, norms=None) -> tuple[float, tuple[int, int]]:
    """Largest |<a_j, a_l>| over j != l, divided by |a_j| |a_l| when norms are
    given, and the first pair in row-major order that attains it (so j < l).

    A running max over map_gram_strips, whose row map takes |G_j|, divides
    it by norms[j] * norms and sets the diagonal entry to -1, below any
    valid value; so the scan holds one strip plus one row's temporaries and
    O(N m).
    """
    def pair_values(j, row):
        vals = np.abs(row)
        if norms is not None:
            vals /= norms[j] * norms
        vals[j] = -1.0
        return vals

    best, witness = -1.0, None
    for i, vals in map_gram_strips(arr, pair_values):
        r, c = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[r, c] > best:
            best, witness = float(vals[r, c]), (i + int(r), int(c))
    return best, witness


def coherence(A) -> float:
    """max_{j != l} |<a_j, a_l>| over unit-normalized columns, in one Gram
    strip pass holding one strip plus one row's temporaries and O(N m)."""
    arr = as_array(A)
    if arr.shape[1] < 2:
        raise InvalidParams("coherence needs at least two columns")
    return _max_pair(arr, column_norms(arr))[0]


def default_kappa(n_cols: int) -> float:
    """kappa = sqrt(8 ln N); then kappa^2/2 = 4 ln N gives the union-bound margin."""
    if n_cols < 2:
        raise InvalidParams("kappa is defined for N >= 2")
    return math.sqrt(8.0 * math.log(n_cols))


def _sign_entries(A) -> np.ndarray:
    arr = as_array(A)
    if np.iscomplexobj(arr) or not np.all(np.abs(arr) == 1.0):
        raise InvalidParams("certification requires entries exactly +-1")
    return arr


def condition_a(A, kappa: float) -> ConditionCheck:
    """Exact pair-sum check |sum_j A_{j,k} A_{j,k'}| <= kappa sqrt(m)."""
    arr = _sign_entries(A)
    m, n = arr.shape
    threshold = kappa * math.sqrt(m)
    if n < 2:
        return ConditionCheck(True, 0, None, threshold)
    best, witness = _max_pair(arr)  # exact integer sums
    max_sum = int(round(best))
    return ConditionCheck(max_sum <= threshold, max_sum, witness, threshold)


def _pair_starts(n: int) -> list[int]:
    """starts[c]: index of the pair (c, c + 1) among the pairs c < d of
    range(n) in lexicographic order, so pair p is (c, c + 1 + p - starts[c])
    for starts[c] <= p < starts[c + 1]; starts[n - 1] = starts[n] = C(n, 2)."""
    return [c * (2 * n - c - 1) // 2 for c in range(n + 1)]


def _pair_rows(columns: np.ndarray, starts: list[int], p0: int, p1: int,
               out: np.ndarray) -> np.ndarray:
    """Rows A_c o A_d of the pairs p0 <= p < p1, in lexicographic pair order,
    written into out, p1 - p0 rows of columns' width and dtype."""
    for c in range(bisect.bisect_right(starts, p0) - 1, len(columns) - 1):
        lo, hi = max(p0, starts[c]), min(p1, starts[c + 1])
        if lo >= hi:
            break
        d = c + 1 + lo - starts[c]
        np.multiply(columns[d:d + hi - lo], columns[c], out=out[lo - p0:hi - p0])
    return out


def quad_blocks(arr: np.ndarray):
    """Yield (b, p0, sums): the exact sums sum_j A_{j,a} A_{j,b} A_{j,c} A_{j,d}
    of a +-1 matrix, sums[a, i] for a < b and (c, d) the pair p0 + i in
    lexicographic order.  Every 4-subset a < b < c < d is yielded exactly once.

    Consecutive b are grouped into left blocks of at least _LEFT_BLOCK_ROWS
    rows A_a o A_b; each block is multiplied once against the pair rows
    A_c o A_d with c > its first b, and each b then drops the columns with
    c <= b, one prefix of the lexicographic pairs.  Those masked products
    are the price of GEMMs with enough rows.  The pair rows are built in
    chunks so that a chunk and one block's product stay under
    GRAM_STRIP_BYTES (8 MiB), so the C(N,2) x m table is never held whole.
    The chunk, the left block and the product each go into one buffer
    allocated once per call, so a yielded sums is valid only until the
    next item.  The sums are in float32 when m <= FLOAT32_SIGN_ROWS and in
    float64 above, exact either way (see the module docstring).
    """
    m, n = arr.shape
    dtype = np.float32 if m <= matrix_core.FLOAT32_SIGN_ROWS else np.float64
    columns = np.ascontiguousarray(arr.T, dtype=dtype)      # row k: column k of A
    starts = _pair_starts(n)
    row0 = [b * (b - 1) // 2 for b in range(n - 1)]         # left row of (0, b), b-major
    blocks, b0 = [], 1                                      # [b0, b1) with b <= n - 3
    while b0 < n - 2:
        b1 = bisect.bisect_left(row0, row0[b0] + _LEFT_BLOCK_ROWS, b0 + 1, n - 2)
        blocks.append((b0, b1))
        b0 = b1
    height = max(row0[b1] - row0[b0] for b0, b1 in blocks)
    chunk = max(1, matrix_core.GRAM_STRIP_BYTES // ((m + height) * columns.itemsize))
    chunk = min(chunk, starts[n] - starts[2])
    pair_buf = np.empty((chunk, m), dtype=dtype)
    left_buf = np.empty(height * m, dtype=dtype)
    prod_buf = np.empty(height * chunk, dtype=dtype)
    for p0 in range(starts[2], starts[n], chunk):           # pairs with c >= 2
        p1 = min(p0 + chunk, starts[n])
        pairs = _pair_rows(columns, starts, p0, p1, pair_buf[:p1 - p0])
        for b0, b1 in blocks:
            q0 = max(p0, starts[b0 + 1])
            if q0 >= p1:
                break
            rows = row0[b1] - row0[b0]
            left = left_buf[:rows * m].reshape(rows, m)
            for b in range(b0, b1):
                r = row0[b] - row0[b0]
                np.multiply(columns[:b], columns[b], out=left[r:r + b])
            prod = prod_buf[:rows * (p1 - q0)].reshape(rows, p1 - q0)
            np.matmul(left, pairs[q0 - p0:].T, out=prod)
            for b in range(b0, b1):
                r, off = row0[b] - row0[b0], max(0, starts[b + 1] - q0)
                if off < prod.shape[1]:
                    yield b, q0 + off, prod[r:r + b, off:]


def condition_b(A, kappa: float) -> ConditionCheck:
    """Exact quadruple-sum check over all 4-subsets of columns.

    Vacuous for N < 4.  A running max over quad_blocks, which yields each
    4-subset sum exactly once: C(N,4) m multiply-adds plus the masked
    products of its left blocks (13 % more at N = 80, 2 % at N = 192),
    holding at most GRAM_STRIP_BYTES (8 MiB) of pair rows and products,
    allocated once per call, plus O(N m).
    The witness is the lexicographically smallest sorted 4-subset that
    attains the maximum; the order in which blocks and chunks arrive does
    not change it.
    """
    arr = _sign_entries(A)
    m, n = arr.shape
    threshold = kappa * math.sqrt(m)
    if n < 4:
        return ConditionCheck(True, 0, None, threshold)

    starts = _pair_starts(n)
    best_val = -1.0
    best: tuple[int, ...] | None = None
    for b, p0, sums in quad_blocks(arr):
        vals = np.abs(sums)  # exact integers
        a, i = np.unravel_index(int(np.argmax(vals)), vals.shape)
        val = float(vals[a, i])
        p = p0 + int(i)
        c = bisect.bisect_right(starts, p) - 1
        cand = (int(a), b, c, c + 1 + p - starts[c])
        if val > best_val or (val == best_val and cand < best):
            best_val, best = val, cand
    max_sum = int(round(best_val))
    return ConditionCheck(max_sum <= threshold, max_sum, best, threshold)


def derive_subseed(seed: int, round_idx: int) -> int:
    """Deterministic per-round sub-seed; documented so runs are replayable."""
    return int(np.random.SeedSequence((seed, round_idx)).generate_state(1, np.uint64)[0])


def las_vegas(m: int, n_cols: int, kappa: float | None = None, *,
              seed: int) -> tuple[Matrix, int]:
    """Redraw Rademacher matrices until one certifies conditions (a)-(b).

    Round t draws with derive_subseed(seed, t), so the output is
    reproducible and independent of any evaluation order.  The returned
    matrix is always certified; RoundsExhausted reports the closest
    attempt's witnesses if LAS_VEGAS_ROUNDS draws all fail, which happens
    with probability at most 3^-64 at the default kappa.
    """
    if kappa is None:
        kappa = default_kappa(n_cols)
    best_report: CertReport | None = None
    best_score = math.inf
    for t in range(1, LAS_VEGAS_ROUNDS + 1):
        sub = derive_subseed(seed, t)
        draw = rademacher(m, n_cols, sub)
        report = certify_sign_matrix(draw, kappa)
        if report.cond_a_pass and report.cond_b_pass:
            meta = dict(draw.meta)
            meta.update({"construction": "lasvegas", "kappa": kappa, "seed": int(seed),
                         "round": t, "subseed": sub, "derive": SUBSEED_DERIVATION})
            return Matrix(draw.data, meta=meta), t
        score = max(report.max_pair_sum, report.max_quad_sum)
        if score < best_score:
            best_score, best_report = score, report
    raise RoundsExhausted(f"no certified draw in {LAS_VEGAS_ROUNDS} rounds",
                          LAS_VEGAS_ROUNDS, best_report)


def theorem1_bound(kappa: float, delta: float, s: int) -> Theorem1Bound:
    """Rows needed and per-unit-m embedding constants for a certified matrix.

    m_required = ceil(kappa^2 delta^-2 s^4), exact in rational arithmetic and
    refused from 2^63 rows on; the certified two-sided bounds are
    alpha*m ||x||_2 <= ||Ax||_1 <= beta*m ||x||_2 on s-sparse x.
    As delta -> 0 the distortion bound tends to sqrt(3).
    """
    if not 0.0 < delta < 1.0:
        raise InvalidParams(f"delta={delta} must lie in (0, 1)")
    if s < 1 or kappa <= 0.0:
        raise InvalidParams("need s >= 1 and kappa > 0")
    m_required = math.ceil(Fraction(kappa) ** 2 * s**4 / Fraction(delta) ** 2)
    if m_required >= 2**63:
        raise InvalidParams("m_required = ceil(kappa^2 s^4 / delta^2) reaches 2^63 rows")
    alpha = math.sqrt((1.0 - delta) ** 3 / (3.0 * (1.0 + delta)))
    beta = math.sqrt(1.0 + delta)
    return Theorem1Bound(m_required=m_required, alpha=alpha, beta=beta,
                         distortion_bound=beta / alpha)


def _hollow_gram(arr: np.ndarray) -> np.ndarray:
    """H = A^H A over unit columns with its diagonal set to 0: the Gram entries
    that _max_pair reduces, divided by the same norms[j] * norms[l], so every
    |H_jl| is within an ulp of the value coherence maximizes.  exact_ric's
    subset cap bounds N (182 at s = 3, 71 at s = 4), so H is one product:
    the Gram strips would hold it whole too.  The rows are divided in place,
    so nothing else N x N is held beside H."""
    norms = column_norms(arr)
    hollow = arr.conj().T @ arr
    for j, row in enumerate(hollow):
        row /= norms[j] * norms
    np.fill_diagonal(hollow, 0.0)
    return hollow


def _max_triple(hollow: np.ndarray) -> float:
    """Largest spectral norm of a 3 x 3 principal block of a hollow Hermitian H.

    The block of i < j < k, with off-diagonals a = H_ij, b = H_ik, c = H_jk,
    has characteristic polynomial lambda^3 - p lambda - q, where
    p = |a|^2 + |b|^2 + |c|^2 and q = 2 Re(a c conj(b)); its largest |lambda|
    is 2 sqrt(p/3) cos(arccos(min(1, |q|/2 (3/p)^(3/2))) / 3), the min
    absorbing roundoff past 1.  Each triple is scaled by t = max(|a|, |b|, |c|)
    first, so p lies in [1, 3] and neither p nor q under- or overflows.
    Triples run anchor by anchor: for anchor i, the pairs j < k with j > i
    are a suffix of the lexicographic pair list.
    """
    n = hollow.shape[0]
    rows, cols = np.triu_indices(n, 1)
    pair_vals = hollow[rows, cols]
    pair_abs = np.abs(pair_vals)
    anchor_max = np.empty(n - 2)
    for i in range(n - 2):
        start = int(np.searchsorted(rows, i + 1))
        j, k, c, c_abs = rows[start:], cols[start:], pair_vals[start:], pair_abs[start:]
        row, row_abs = hollow[i], np.abs(hollow[i])
        t = np.maximum(np.maximum(row_abs[j], row_abs[k]), c_abs)
        scale = np.where(t > 0.0, t, 1.0)  # an all-zero block has lambda = 0
        # p >= 1 exactly when t > 0, since one term is (t/t)^2; p = 1 keeps t = 0 finite
        p = np.maximum((row_abs[j] / scale) ** 2 + (row_abs[k] / scale) ** 2
                       + (c_abs / scale) ** 2, 1.0)
        half_q = np.abs((row[j] / scale * (c / scale) * (row[k] / scale).conj()).real)
        w = 3.0 / p
        root_w = np.sqrt(w)
        r = np.minimum(half_q * w * root_w, 1.0)
        anchor_max[i] = (t * (2.0 * np.cos(np.arccos(r) / 3.0) / root_w)).max()
    return float(anchor_max.max())  # a NaN would propagate here, not be skipped


def exact_ric(A, s: int) -> float:
    """Exhaustive restricted isometry constant delta_s over all s-subsets.

    delta_s is the largest spectral norm ||H_S||_2 over s-subsets S, where H
    is the Gram of the unit-normalized columns with its diagonal set to 0.
    At s = 2 the block [[0, g], [conj(g), 0]] has eigenvalues +-|g|, so
    delta_2 = coherence(A), bit for bit, from the same Gram-strip pass and
    without the subset cap RIC_SUBSET_CAP.  At s = 3 each block's norm is the
    largest root of its characteristic cubic, in closed form.  s >= 4 takes
    batched eigensolves of the blocks H_S.  delta_1 = 0, since each 1 x 1
    block of H is 0, and needs no Gram at all.

    By interlacing and Gershgorin, mu <= delta_s <= (s - 1) mu for s >= 2,
    with mu = coherence(A), up to a relative O(eps).  For exactly orthogonal
    columns mu and delta_s are both float roundoff of the pair sums.
    """
    arr = as_array(A)
    n = arr.shape[1]
    if not 1 <= s <= n:
        raise InvalidParams(f"need 1 <= s <= {n}")
    if s == 1:
        column_norms(arr)  # a zero column has no unit direction
        return 0.0
    if s == 2:
        return _max_pair(arr, column_norms(arr))[0]
    n_subsets = math.comb(n, s)
    if n_subsets > RIC_SUBSET_CAP:
        raise InvalidParams(f"C({n},{s}) = {n_subsets} subsets exceeds the cap {RIC_SUBSET_CAP}")
    hollow = _hollow_gram(arr)
    if s == 3:
        return _max_triple(hollow)

    worst = 0.0
    subset_iter = itertools.combinations(range(n), s)
    chunk = max(1, 400_000 // (s * s))
    while True:
        block = list(itertools.islice(subset_iter, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        eigs = np.linalg.eigvalsh(hollow[idx[:, :, None], idx[:, None, :]])
        worst = max(worst, float(np.abs(eigs).max()))
    return worst


def _sparse_trials(seed: int, n: int, s: int, trials: int, complex_field: bool):
    """Yield trials random s-sparse vectors of length n as the columns of
    (n, b) blocks, b at most SAMPLE_BLOCK, all drawn from default_rng(seed).

    Each support is the positions of the s smallest of n uniforms, one row
    of a (b, n) draw per block, so it is a uniform s-subset; the nonzeros
    are one (b, s) draw of standard (real or circular complex) Gaussians.
    At s = n every vector is dense Gaussian.  This seed -> sample mapping,
    block size included, is sampler version SAMPLER.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, SAMPLE_BLOCK):
        b = min(SAMPLE_BLOCK, trials - start)
        support = np.argpartition(rng.random((b, n)), s - 1, axis=1)[:, :s]
        vals = rng.standard_normal((b, s))
        if complex_field:  # (re + 1j im) / sqrt(2), with one complex (b, s) array
            vals = vals.astype(complex)
            vals.imag = rng.standard_normal((b, s))
            vals /= math.sqrt(2)
        X = np.zeros((n, b), dtype=vals.dtype)
        X[support, np.arange(b)[:, None]] = vals
        del support, vals  # support views the whole (b, n) argpartition
        yield X


def probe_l1(A, s: int, trials: int, seed: int) -> ProbeReport:
    """Sample s-sparse vectors and report the spread of ||Ax||_1 / ||x||_2.

    Supports are uniform s-subsets, nonzeros are standard (real or
    circular complex) Gaussians, drawn by _sparse_trials (sampler version
    SAMPLER, recorded in the report).  The reported spread can only
    underestimate the true distortion, never certify it.  Each block's
    product A X is formed in column chunks under GRAM_STRIP_BYTES (8 MiB),
    into one product buffer and, for a complex A, one |A X| buffer, both
    allocated once per call.
    """
    arr = as_array(A)
    m, n = arr.shape
    if not 1 <= s <= n:
        raise InvalidParams(f"need 1 <= s <= {n}")
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    column_norms(arr)  # a zero column gives a zero ratio at s = 1
    complex_field = np.iscomplexobj(arr)

    lo, hi = math.inf, -math.inf
    dtype = np.result_type(arr.dtype, np.float64)  # of the product A X
    width = max(1, min(SAMPLE_BLOCK, trials, matrix_core.GRAM_STRIP_BYTES // (m * dtype.itemsize)))
    prod_buf = np.empty(m * width, dtype=dtype)
    abs_buf = np.empty(m * width) if complex_field else prod_buf  # |A X| in place if real
    for X in _sparse_trials(seed, n, s, trials, complex_field):
        for j in range(0, X.shape[1], width):
            chunk = X[:, j:j + width]
            size = m * chunk.shape[1]
            Y = np.matmul(arr, chunk, out=prod_buf[:size].reshape(m, -1))
            l1 = np.abs(Y, out=abs_buf[:size].reshape(m, -1)).sum(axis=0)
            ratios = l1 / np.linalg.norm(chunk, axis=0)
            lo = min(lo, float(ratios.min()))
            hi = max(hi, float(ratios.max()))
    return ProbeReport(trials=trials, min_ratio=lo, max_ratio=hi,
                       empirical_distortion=hi / lo, sampler=SAMPLER)


def certify_sign_matrix(A, kappa: float | None = None) -> CertReport:
    """Full certification record: coherence and conditions (a)-(b).  The
    embedding constants a pass implies depend only on kappa, delta and s;
    theorem1_bound gives them."""
    arr = _sign_entries(A)
    if kappa is None:
        kappa = default_kappa(arr.shape[1])
    ca = condition_a(A, kappa)
    cb = condition_b(A, kappa)
    return CertReport(
        coherence=ca.max_sum / arr.shape[0], kappa=kappa, threshold=ca.threshold,
        max_pair_sum=ca.max_sum, max_quad_sum=cb.max_sum,
        cond_a_pass=ca.passed, cond_b_pass=cb.passed,
        pair_witness=ca.witness, quad_witness=cb.witness)
