"""Weighted spherical designs and their link to l2 -> l2k embeddings.

For unit vectors x_1..x_N with weights tau_i >= 0 summing to one, the
moment tensor sum_i tau_i (x_i x_i*)^(tensor k) deviates from its uniform
sphere average D by

    || sum_i tau_i (x_i x_i*)^k - D ||_2^2
        = sum_{i,j} tau_i tau_j |<x_i, x_j>|^(2k) - delta_{n,2k},

where delta_{n,2k} is the sphere average of |<x, y>|^(2k):

    real:     (2k-1)(2k-3)...1 / ((n+2k-2)(n+2k-4)...n)
    complex:  k! / ((n+k-1)(n+k-2)...n)

Nonnegativity of the left side is exactly the Sidelnikov inequality, and
a defect of zero characterizes a weighted 2k-design.  The defect of the
point set read off a matrix's rows tracks the matrix's l2 -> l2k
embedding error through three mutually convertible epsilons:

    design defect eps2  <->  tensor deviation eps3 = sqrt(eps2)
    tensor deviation    -->  embedding error eps1 = eps3 / delta
    embedding error     -->  design defect eps2 = 4 eps1 delta  (eps1 <= 1/2)

The moment tensor D is never materialized for k >= 2 (it has n^(2k)
entries); every defect is computed through the Gram-sum identity above,
which the explicit k = 1 computation independently verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matrix_core
from .errors import InvalidParams, ParseError, RipforgeError
from .matrix_core import Matrix, as_array, gram_rows, read_cmx, write_cmx

UNIT_TOL = 1e-12
FIELDS = ("real", "complex")


@dataclass(frozen=True)
class WeightedPointSet:
    """Unit-sphere points x_i (rows) with a probability weight vector."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        w = np.asarray(self.weights, dtype=np.float64)
        if pts.ndim != 2 or pts.size == 0:
            raise InvalidParams("points must form a nonempty N x n array")
        if w.shape != (pts.shape[0],):
            raise InvalidParams("need one weight per point")
        dtype = np.complex128 if np.iscomplexobj(pts) else np.float64
        pts = np.ascontiguousarray(pts, dtype=dtype)
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise InvalidParams("points and weights must be finite (no NaN or inf)")
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
            raise InvalidParams("points must lie on the unit sphere (tol 1e-12)")
        if np.any(w < 0.0):
            raise InvalidParams("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > UNIT_TOL:
            raise InvalidParams("weights must sum to 1 (tol 1e-12)")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def field_name(self) -> str:
        return "complex" if np.iscomplexobj(self.points) else "real"


@dataclass(frozen=True)
class EpsilonChain:
    """A consistent (eps1, eps2, eps3) triple derived from a design defect."""

    eps1: float
    eps2: float
    eps3: float

    @classmethod
    def from_defect(cls, eps2: float, n: int, k: int, field: str) -> "EpsilonChain":
        eps3 = math.sqrt(max(eps2, 0.0))
        return cls(eps1=eps3 / delta_closed_form(n, k, field), eps2=max(eps2, 0.0),
                   eps3=eps3)


def _check_field(field: str) -> str:
    if field not in FIELDS:
        raise InvalidParams(f"field must be one of {FIELDS}, got {field!r}")
    return field


def delta_closed_form(n: int, k: int, field: str) -> float:
    """Sphere average of |<x, y>|^(2k), as an exact rational in double precision."""
    _check_field(field)
    if n < 1 or k < 1:
        raise InvalidParams("need n >= 1 and k >= 1")
    if field == "real":
        value = Fraction(1)
        for i in range(1, k + 1):
            value *= Fraction(2 * i - 1, n + 2 * i - 2)
    else:
        value = Fraction(1)
        for i in range(1, k + 1):
            value *= Fraction(i, n + i - 1)
    return float(value)


def delta_monte_carlo(n: int, k: int, field: str, samples: int,
                      seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the sphere average of |<x, y>|^(2k).

    By rotation invariance the average is independent of x, so x is fixed
    to the first basis vector and y is sampled as a normalized standard
    Gaussian (independent real and imaginary parts in the complex case), in
    chunks of at most GRAM_STRIP_BYTES (8 MiB) of complex draws.  Returns
    (estimate, standard error).
    """
    _check_field(field)
    if n < 1 or k < 1:
        raise InvalidParams("need n >= 1 and k >= 1")
    if samples < 2:
        raise InvalidParams("need at least 2 samples")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    chunk = max(1, matrix_core.GRAM_STRIP_BYTES // (16 * n))
    remaining = samples
    while remaining > 0:
        b = min(chunk, remaining)
        y = rng.standard_normal((b, n))
        if field == "complex":
            y = y + 1j * rng.standard_normal((b, n))
        vals = (np.abs(y[:, 0]) / np.linalg.norm(y, axis=1)) ** (2 * k)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        remaining -= b
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(var / samples)


def design_defect(ps: WeightedPointSet, k: int) -> float:
    """Gram-sum defect sum_{i,j} tau_i tau_j |<x_i,x_j>|^(2k) - delta_{n,2k}.

    Nonnegative up to roundoff (Sidelnikov); zero iff the weighted set is
    a 2k-design.  Row j of gram_rows adds w_j (w_j v_jj + 2 v_j[j+1:] . w[j+1:]),
    v = |G|^(2k): each pair read once, in one strip and O(N n), never N x N.
    """
    if k < 1:
        raise InvalidParams("need k >= 1")
    w = ps.weights
    gram_sum = 0.0  # added in row order; sum() compensates from Python 3.12 on
    for j, row in gram_rows(ps.points.T):
        v = (row * row.conj()).real ** k
        gram_sum += float(w[j] * (w[j] * v[0] + 2.0 * (v[1:] @ w[j + 1:])))
    return gram_sum - delta_closed_form(ps.dim, k, ps.field_name)


def tensor_defect_explicit(ps: WeightedPointSet) -> float:
    """|| sum_i tau_i x_i x_i* - I/n ||_F^2, materializing the k = 1 moment matrix.

    Only k = 1 admits a small explicit average (I/n); the function checks
    its result against design_defect(ps, 1) within 1e-10 and raises if the
    two disagree, serving as an independent verification of the Gram-sum
    identity.
    """
    n = ps.dim
    if n > 64:
        raise InvalidParams(f"explicit moment matrix capped at n <= 64, got n={n}")
    moment = np.einsum("i,it,iu->tu", ps.weights, ps.points, ps.points.conj())
    dev = moment - np.eye(n) / n
    explicit = float(np.sum((dev * dev.conj()).real))
    via_gram = design_defect(ps, 1)
    if abs(explicit - via_gram) > 1e-10:
        raise RipforgeError(
            f"moment identity violated: explicit {explicit!r} vs gram {via_gram!r}")
    return explicit


def matrix_to_design(A, k: int) -> tuple[WeightedPointSet, float]:
    """Rows of A, normalized, weighted by ||a_i||^(2k) / S with S the total.

    Returns (point set, S).  An exact l2 -> l2k isometry turns into a
    zero-defect 2k-design under this map.  S must be positive and finite in
    float64.  A zero row is refused, and so is a row whose squares
    underflow, by its norm computed from the row scaled to a largest entry
    of 1.
    """
    if k < 1:
        raise InvalidParams("need k >= 1")
    arr = as_array(A)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):  # a zero row, or one whose squares underflow
        i = int(np.argmin(norms))
        norm = matrix_core._scaled_norm(arr[i])
        if norm == 0.0:
            raise InvalidParams(f"row {i} is identically zero")
        raise InvalidParams(f"row {i} has norm {norm!r}, whose square underflows float64")
    points = arr / norms[:, None]
    with np.errstate(over="ignore", under="ignore"):
        powers = norms ** (2 * k)
        total = float(powers.sum())
    if not 0.0 < total < math.inf:  # the norms^(2k) underflow to 0 or overflow
        raise InvalidParams(f"the power sum S = sum_i ||a_i||^(2k) at k={k} is {total}, "
                            "not a positive finite float64")
    return WeightedPointSet(points, powers / total), total


def write_design(ps: WeightedPointSet, path, meta: dict) -> None:
    """Serialize a point set as a CMX matrix (rows = points), its weights and
    the entries of meta in the file's meta."""
    meta = {"kind": "pointset", "weights": [float(w) for w in ps.weights], **meta}
    write_cmx(Matrix(ps.points, meta=meta), path)


def read_design(path) -> WeightedPointSet:
    """Inverse of write_design."""
    mat = read_cmx(path)
    try:
        weights = np.asarray(mat.meta.get("weights"), dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        weights = None
    if weights is None or weights.shape != (mat.rows,):
        raise ParseError("meta must carry one number per row in 'weights'")
    return WeightedPointSet(mat.data, weights)
