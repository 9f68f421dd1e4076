"""Output checks that do not depend on the code they check.

Every check recomputes what a job claims from first principles: its own
CMX parser, its own Golomb marks, Weil/Alltop/DeVore phases and
polynomial digits, int64 sign sums, and explicit moment matrices.  Only
numpy and the standard library are used; nothing from ``ripforge`` is
imported here.  A check raises ``CheckFailed`` with a reason; returning
normally means the output passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

ENTRY_TOL = 1e-13          # |entry - exact phase| for unit-modulus entries
VALUE_RTOL = 1e-12         # reported float vs the same float recomputed here
IDENTITY_GATE = 1e-8       # the CLI's absolute gate for verify identities
ISOMETRY_RTOL = 1e-10      # ||Mx||_4 vs ||x||_2
EMBEDDING_SLACK = 1e-9     # relative slack on m/sqrt(2) <= ratio <= m
DEFECT_TOL = 1e-12         # zero / nonnegative design defects
MOMENT_TOL = 1e-10         # Gram-sum defect vs explicit moment matrix
QUAD_SAMPLES = 20_000      # seeded 4-subsets checked above N = 32
FULL_QUAD_MAX_N = 32       # full 4-subset enumeration up to this N
OWN_VECTORS = 16           # vectors drawn by the benchmark per norm check


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- CMX, parsed independently -----------------------------------------------

@dataclass(frozen=True)
class Cmx:
    field: str
    meta: dict
    data: np.ndarray


def parse_cmx(path) -> Cmx:
    """Parse a CMX v1 file and require a bit-exact text round trip.

    Every entry must be written as the 17-significant-digit rendering of
    the double it parses to, so text -> double -> text is the identity and
    the file pins each double exactly.  Reads line by line, so the
    checker's memory stays near the size of the parsed matrix.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        require(fh.readline() == "#cmx 1\n", f"{path}: bad magic")
        heads = {}
        for key in ("field", "rows", "cols", "meta"):
            head, sep, value = fh.readline().partition(" ")
            require(head == key and sep == " " and value.endswith("\n"),
                    f"{path}: expected a '{key} ...' header line")
            heads[key] = value[:-1]
        field = heads["field"]
        require(field in ("real", "complex"), f"{path}: unknown field {field!r}")
        rows, cols = int(heads["rows"]), int(heads["cols"])
        require(rows >= 1 and cols >= 1, f"{path}: empty shape")
        meta = json.loads(heads["meta"])
        per_entry = 2 if field == "complex" else 1
        out = np.empty((rows, cols * per_entry))
        for i in range(rows):
            line = fh.readline()
            require(line.endswith("\n"), f"{path}: {rows} newline-terminated data lines expected")
            line = line[:-1]
            require(line.count(":") == (cols if per_entry == 2 else 0),
                    f"{path}: data line {i + 1} does not hold {cols} {field} entries")
            toks = line.replace(":", " ").split(" ")
            require(len(toks) == cols * per_entry,
                    f"{path}: data line {i + 1} holds {len(toks)} numbers, expected {cols * per_entry}")
            values = list(map(float, toks))
            require([format(v, ".17g") for v in values] == toks,
                    f"{path}: line {i + 1} has an entry that is not the 17-digit rendering of its double")
            out[i] = values
        require(fh.read() == "", f"{path}: text after the {rows} data lines")
    return Cmx(field, meta, out.view(np.complex128) if per_entry == 2 else out)


# -- exact constructions, recomputed -----------------------------------------

def golomb_marks(p: int) -> list[int]:
    return [2 * p * k + (k * k) % p for k in range(p)]


def golomb_rows(p: int) -> int:
    return 6 * p * p - 6 * p + 1


def distinct_differences(marks) -> bool:
    diffs = [a - b for a in marks for b in marks if a != b]
    return len(diffs) == len(set(diffs))


def unit_phase(phase: np.ndarray, modulus: int) -> np.ndarray:
    """exp(2 pi i phase / modulus) through cos/sin of exact integer phases."""
    angle = (2.0 * math.pi / modulus) * phase.astype(np.float64)
    return np.cos(angle) + 1j * np.sin(angle)


def golomb_matrix(p: int) -> np.ndarray:
    m = golomb_rows(p)
    j = np.arange(m, dtype=np.int64)[:, None]
    g = np.array(golomb_marks(p), dtype=np.int64)[None, :]
    return unit_phase((j * g) % m, m)


def poly_digits(p: int, d: int, n_cols: int) -> np.ndarray:
    """Coefficients (c_0..c_d) of polynomial i = base-p digits of i, shape (n, d+1)."""
    i = np.arange(n_cols, dtype=np.int64)[:, None]
    return (i // p ** np.arange(d + 1, dtype=np.int64)[None, :]) % p


def poly_values(p: int, d: int, n_cols: int) -> np.ndarray:
    """vals[k, i] = f_i(k) mod p, evaluated term by term (not by Horner)."""
    coeffs = poly_digits(p, d, n_cols)
    k = np.arange(p, dtype=np.int64)
    powers = np.stack([(k ** t) % p for t in range(d + 1)], axis=1)   # (p, d+1)
    return (powers @ coeffs.T) % p


def weil_matrix(p: int, d: int, n_cols: int) -> np.ndarray:
    k = np.arange(p, dtype=np.int64)[:, None]
    return unit_phase((k * poly_values(p, d, n_cols)) % p, p) / math.sqrt(p)


def alltop_matrix(m: int) -> np.ndarray:
    j = np.arange(m, dtype=np.int64)[:, None, None]
    x = np.arange(m, dtype=np.int64)[None, :, None]
    y = np.arange(m, dtype=np.int64)[None, None, :]
    phase = ((j + x) ** 3 + y * j) % m
    return unit_phase(phase.reshape(m, m * m), m) / math.sqrt(m)


def devore_matrix(p: int, d: int) -> np.ndarray:
    n_cols = p ** (d + 1)
    out = np.zeros((p * p, n_cols))
    rows = np.arange(p, dtype=np.int64)[:, None] * p + poly_values(p, d, n_cols)
    out[rows, np.arange(n_cols)[None, :]] = 1.0 / math.sqrt(p)
    return out


def composed_degree(p: int, n_cols: int) -> int:
    d = 1
    while p ** (d + 1) < n_cols:
        d += 1
    return d


def max_entry_error(got: np.ndarray, want: np.ndarray) -> float:
    require(got.shape == want.shape, f"shape {got.shape} != {want.shape}")
    return float(np.max(np.abs(got - want)))


def exact_coherence(arr: np.ndarray, block: int = 256) -> float:
    """max |<a_j, a_l>| / (|a_j| |a_l|) over j != l, in column blocks."""
    unit = arr / np.linalg.norm(arr, axis=0)
    best = 0.0
    n = unit.shape[1]
    for start in range(0, n, block):
        g = np.abs(unit[:, start:start + block].conj().T @ unit)
        g[np.arange(g.shape[0]), start + np.arange(g.shape[0])] = 0.0
        best = max(best, float(g.max()))
    return best


# -- sign matrices ------------------------------------------------------------

def kappa_auto(n_cols: int) -> float:
    return math.sqrt(8.0 * math.log(n_cols))


def sign_ints(cmx: Cmx) -> np.ndarray:
    require(cmx.field == "real", "sign matrix must be real")
    require(bool(np.all(np.abs(cmx.data) == 1.0)), "sign matrix has an entry other than +-1")
    return cmx.data.astype(np.int64)


def quad_sum(a: np.ndarray, idx) -> int:
    require(len(set(idx)) == 4 and all(0 <= i < a.shape[1] for i in idx),
            f"quadruple witness {idx} is not four distinct columns")
    return abs(int(np.sum(a[:, idx[0]] * a[:, idx[1]] * a[:, idx[2]] * a[:, idx[3]])))


def max_pair_sum(a: np.ndarray) -> int:
    gram = a.T @ a
    np.fill_diagonal(gram, 0)
    return int(np.abs(gram).max())


def max_quad_sum_full(a: np.ndarray) -> int:
    """Max |4-column product sum| over all 4-subsets, in int64."""
    n = a.shape[1]
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    prods = a[:, pairs[:, 0]] * a[:, pairs[:, 1]]
    sums = np.abs(prods.T @ prods)
    disjoint = ((pairs[:, 0, None] != pairs[None, :, 0]) & (pairs[:, 0, None] != pairs[None, :, 1])
                & (pairs[:, 1, None] != pairs[None, :, 0]) & (pairs[:, 1, None] != pairs[None, :, 1]))
    return int(sums[disjoint].max())


def max_quad_sum_sampled(a: np.ndarray, rng: np.random.Generator,
                         samples: int = QUAD_SAMPLES, chunk: int = 500) -> int:
    n = a.shape[1]
    best = 0
    for start in range(0, samples, chunk):
        b = min(chunk, samples - start)
        idx = np.argsort(rng.random((b, n)), axis=1)[:, :4]          # distinct columns
        prod = a[:, idx[:, 0]] * a[:, idx[:, 1]] * a[:, idx[:, 2]] * a[:, idx[:, 3]]
        best = max(best, int(np.abs(prod.sum(axis=0)).max()))
    return best


def max_quad_sum_checked(a: np.ndarray, rng: np.random.Generator) -> int:
    if a.shape[1] <= FULL_QUAD_MAX_N:
        return max_quad_sum_full(a)
    return max_quad_sum_sampled(a, rng)


def theorem1(kappa: float, delta: float, s: int) -> dict:
    alpha = math.sqrt((1.0 - delta) ** 3 / (3.0 * (1.0 + delta)))
    beta = math.sqrt(1.0 + delta)
    return {"m_required": math.ceil(kappa ** 2 / delta ** 2 * s ** 4), "alpha": alpha,
            "beta": beta, "distortion_bound": beta / alpha}


# -- spherical designs --------------------------------------------------------

def sphere_moment(n: int, k: int, field: str) -> float:
    """Average of |<x, y>|^(2k) over the unit sphere."""
    value = 1.0
    for i in range(1, k + 1):
        value *= (2 * i - 1) / (n + 2 * i - 2) if field == "real" else i / (n + i - 1)
    return value


def explicit_defect_k1(points: np.ndarray, weights: np.ndarray) -> float:
    """|| sum_i w_i x_i x_i* - I/n ||_F^2 from the materialized moment matrix."""
    n = points.shape[1]
    moment = (points.T * weights) @ points.conj()
    dev = moment - np.eye(n) / n
    return float(np.sum(np.abs(dev) ** 2))
