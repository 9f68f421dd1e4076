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

The pair/quadruple sums of +-1 entries are integers below 2^53, so the
float64 BLAS products used here are exact and the checks carry no
tolerance.  Quadruple sums are invariant under permuting {k, k', l, l'},
so each 4-subset a < b < c < d is scanned exactly once, as the inner
product of the pair-product columns A_a o A_b and A_c o A_d: C(N,4) m
multiply-adds in all.  The maximum over ordered quadruples is unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constructors import rademacher
from .errors import (InvalidDelta, InvalidParams, NotSignMatrix, RoundsExhausted,
                     TooLarge, ZeroColumn)
from .matrix_core import Matrix, as_array

SUBSEED_DERIVATION = "numpy SeedSequence((seed, round)), first uint64 word"


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
    delta: float | None = None
    s: int | None = None
    m_required: int | None = None
    alpha: float | None = None
    beta: float | None = None
    distortion_bound: float | None = None
    gamma_threshold: float | None = None


@dataclass(frozen=True)
class ProbeReport:
    """Sampled l1/l2 ratios; the spread is a LOWER bound on true distortion."""

    trials: int
    min_ratio: float
    max_ratio: float
    empirical_distortion: float


def coherence(A) -> float:
    """max_{j != l} |<a_j, a_l>| over unit-normalized columns."""
    arr = as_array(A)
    if arr.shape[1] < 2:
        raise InvalidParams("coherence needs at least two columns")
    norms = np.linalg.norm(arr, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumn(f"column {int(np.argmin(norms))} is identically zero")
    gram = np.abs(arr.conj().T @ arr) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def default_kappa(n_cols: int) -> float:
    """kappa = sqrt(8 ln N); then kappa^2/2 = 4 ln N gives the union-bound margin."""
    if n_cols < 2:
        raise InvalidParams("kappa is defined for N >= 2")
    return math.sqrt(8.0 * math.log(n_cols))


def _sign_entries(A) -> np.ndarray:
    arr = as_array(A)
    if np.iscomplexobj(arr) or not np.all(np.abs(arr) == 1.0):
        raise NotSignMatrix("certification requires entries exactly +-1")
    return arr


def condition_a(A, kappa: float) -> ConditionCheck:
    """Exact pair-sum check |sum_j A_{j,k} A_{j,k'}| <= kappa sqrt(m)."""
    arr = _sign_entries(A)
    m, n = arr.shape
    threshold = kappa * math.sqrt(m)
    if n < 2:
        return ConditionCheck(True, 0, None, threshold)
    gram = arr.T @ arr
    np.fill_diagonal(gram, 0.0)
    vals = np.abs(gram)
    k, kp = np.unravel_index(int(np.argmax(vals)), vals.shape)
    max_sum = int(round(vals[k, kp]))
    witness = (int(min(k, kp)), int(max(k, kp)))
    return ConditionCheck(max_sum <= threshold, max_sum, witness, threshold)


def condition_b(A, kappa: float) -> ConditionCheck:
    """Exact quadruple-sum check over all 4-subsets of columns.

    Vacuous for N < 4.  Each 4-subset a < b < c < d enters exactly one
    product: for each b, the columns A_a o A_b (a < b) against the
    pair-product columns A_c o A_d with c > b, which in lexicographic pair
    order form one contiguous suffix.  That is C(N,4) m multiply-adds.
    The witness is the lexicographically smallest sorted 4-subset that
    attains the maximum.
    """
    arr = _sign_entries(A)
    m, n = arr.shape
    threshold = kappa * math.sqrt(m)
    if n < 4:
        return ConditionCheck(True, 0, None, threshold)

    rows, cols = np.triu_indices(n, 1)                      # lexicographic pairs
    prods = arr[:, rows]                                    # (m, C(n,2))
    prods *= arr[:, cols]
    best_val = -1.0
    best: tuple[int, ...] | None = None
    for b in range(1, n - 2):
        start = int(np.searchsorted(rows, b + 1))
        vals = np.abs((arr[:, :b] * arr[:, b:b + 1]).T @ prods[:, start:])  # exact
        a, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        val = float(vals[a, j])
        cand = (int(a), b, int(rows[start + j]), int(cols[start + j]))
        if val > best_val or (val == best_val and cand < best):
            best_val, best = val, cand
    max_sum = int(round(best_val))
    return ConditionCheck(max_sum <= threshold, max_sum, best, threshold)


def derive_subseed(seed: int, round_idx: int) -> int:
    """Deterministic per-round sub-seed; documented so runs are replayable."""
    return int(np.random.SeedSequence((seed, round_idx)).generate_state(1, np.uint64)[0])


def las_vegas(m: int, n_cols: int, kappa: float | None = None,
              max_rounds: int = 64, seed: int = 0) -> tuple[Matrix, int]:
    """Redraw Rademacher matrices until one certifies conditions (a)-(b).

    Round t draws with derive_subseed(seed, t), so the output is
    reproducible and independent of any evaluation order.  The returned
    matrix is always certified; RoundsExhausted reports the closest
    attempt's witnesses if the budget runs out.
    """
    if max_rounds < 1:
        raise InvalidParams("max_rounds must be >= 1")
    if kappa is None:
        kappa = default_kappa(n_cols)
    best_report: CertReport | None = None
    best_score = math.inf
    for t in range(1, max_rounds + 1):
        sub = derive_subseed(seed, t)
        draw = rademacher(m, n_cols, sub)
        ca = condition_a(draw, kappa)
        cb = condition_b(draw, kappa)
        if ca.passed and cb.passed:
            meta = dict(draw.meta)
            meta.update({"construction": "lasvegas", "kappa": kappa, "seed": int(seed),
                         "round": t, "subseed": sub, "derive": SUBSEED_DERIVATION})
            return Matrix(draw.data, meta=meta), t
        score = max(ca.max_sum, cb.max_sum)
        if score < best_score:
            best_score = score
            best_report = CertReport(
                coherence=ca.max_sum / m, kappa=kappa, threshold=ca.threshold,
                max_pair_sum=ca.max_sum, max_quad_sum=cb.max_sum,
                cond_a_pass=ca.passed, cond_b_pass=cb.passed,
                pair_witness=ca.witness, quad_witness=cb.witness)
    raise RoundsExhausted(f"no certified draw in {max_rounds} rounds",
                          rounds=max_rounds, best=best_report)


def theorem1_bound(kappa: float, delta: float, s: int) -> Theorem1Bound:
    """Rows needed and per-unit-m embedding constants for a certified matrix.

    m_required = ceil(kappa^2 delta^-2 s^4); the certified two-sided bounds
    are alpha*m ||x||_2 <= ||Ax||_1 <= beta*m ||x||_2 on s-sparse x.
    As delta -> 0 the distortion bound tends to sqrt(3).
    """
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta={delta} must lie in (0, 1)")
    if s < 1 or kappa <= 0.0:
        raise InvalidParams("need s >= 1 and kappa > 0")
    m_required = math.ceil(kappa**2 / delta**2 * s**4)
    alpha = math.sqrt((1.0 - delta) ** 3 / (3.0 * (1.0 + delta)))
    beta = math.sqrt(1.0 + delta)
    return Theorem1Bound(m_required=m_required, alpha=alpha, beta=beta,
                         distortion_bound=beta / alpha)


def exact_ric(A, s: int, max_subsets: int = 1_000_000) -> float:
    """Exhaustive restricted isometry constant delta_s over all s-subsets.

    Columns are unit-normalized first; the result is the largest spectral
    deviation |eig - 1| of any s x s column Gram block.  Strictly below
    s * coherence(A) whenever s >= 2.
    """
    arr = as_array(A)
    n = arr.shape[1]
    if not 1 <= s <= n:
        raise InvalidParams(f"need 1 <= s <= {n}")
    n_subsets = math.comb(n, s)
    if n_subsets > max_subsets:
        raise TooLarge(f"C({n},{s}) = {n_subsets} subsets exceeds the cap {max_subsets}")
    norms = np.linalg.norm(arr, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumn(f"column {int(np.argmin(norms))} is identically zero")
    unit = arr / norms
    gram = unit.conj().T @ unit

    worst = 0.0
    subset_iter = itertools.combinations(range(n), s)
    chunk = max(1, 400_000 // (s * s))
    while True:
        block = list(itertools.islice(subset_iter, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        grams = gram[idx[:, :, None], idx[:, None, :]]
        eigs = np.linalg.eigvalsh(grams)
        worst = max(worst, float(np.abs(eigs - 1.0).max()))
    return worst


def probe_l1(A, s: int, trials: int, seed: int) -> ProbeReport:
    """Sample s-sparse vectors and report the spread of ||Ax||_1 / ||x||_2.

    Supports are uniform s-subsets, nonzeros are standard (real or
    circular complex) Gaussians.  The reported spread can only
    underestimate the true distortion, never certify it.
    """
    arr = as_array(A)
    n = arr.shape[1]
    if not 1 <= s <= n:
        raise InvalidParams(f"need 1 <= s <= {n}")
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    rng = np.random.default_rng(seed)
    complex_field = np.iscomplexobj(arr)
    dtype = np.complex128 if complex_field else np.float64

    lo, hi = math.inf, -math.inf
    block_size = 2048
    for start in range(0, trials, block_size):
        b = min(block_size, trials - start)
        X = np.zeros((n, b), dtype=dtype)
        for i in range(b):
            support = rng.choice(n, size=s, replace=False)
            if complex_field:
                vals = (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / math.sqrt(2)
            else:
                vals = rng.standard_normal(s)
            X[support, i] = vals
        ratios = np.abs(arr @ X).sum(axis=0) / np.linalg.norm(X, axis=0)
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    return ProbeReport(trials=trials, min_ratio=lo, max_ratio=hi,
                       empirical_distortion=hi / lo)


def certify_sign_matrix(A, kappa: float | None = None, delta: float | None = None,
                        s: int | None = None,
                        gamma_threshold: float | None = None) -> CertReport:
    """Full certification record: coherence, conditions (a)-(b), and, when
    delta and s are supplied, the implied embedding constants."""
    arr = _sign_entries(A)
    if kappa is None:
        kappa = default_kappa(arr.shape[1])
    ca = condition_a(A, kappa)
    cb = condition_b(A, kappa)
    bound = theorem1_bound(kappa, delta, s) if delta is not None and s is not None else None
    return CertReport(
        coherence=ca.max_sum / arr.shape[0], kappa=kappa, threshold=ca.threshold,
        max_pair_sum=ca.max_sum, max_quad_sum=cb.max_sum,
        cond_a_pass=ca.passed, cond_b_pass=cb.passed,
        pair_witness=ca.witness, quad_witness=cb.witness,
        delta=delta, s=s,
        m_required=bound.m_required if bound else None,
        alpha=bound.alpha if bound else None,
        beta=bound.beta if bound else None,
        distortion_bound=bound.distortion_bound if bound else None,
        gamma_threshold=gamma_threshold)
