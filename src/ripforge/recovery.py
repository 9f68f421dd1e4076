"""Sparse recovery by iterative hard thresholding.

The iteration x <- H_s(x + mu A*(y - Ax)) with step mu = 1 / ||A||_2^2
projects a gradient step onto the s-sparse set; H_s keeps the s entries
of largest modulus, breaking ties toward the lowest index so runs are
reproducible.  Residuals may oscillate; only the final residual decides
convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams
from .matrix_core import as_array

IHT_ITERATIONS = 500  # most steps iht takes
IHT_TOL = 1e-10       # relative residual ||y - Ax|| / ||y|| at which iht stops


@dataclass
class RecoveryResult:
    estimate: np.ndarray
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False


def hard_threshold(v: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-modulus entries (lowest index wins ties)."""
    if s <= 0:
        return np.zeros_like(v)
    if s >= v.shape[0]:
        return v.copy()
    order = np.argsort(-np.abs(v), kind="stable")
    out = np.zeros_like(v)
    out[order[:s]] = v[order[:s]]
    return out


def iht(A, y, s: int) -> RecoveryResult:
    """Recover an s-sparse x from y ~ Ax; stops when ||y - Ax|| <= IHT_TOL ||y||
    or after IHT_ITERATIONS steps."""
    arr = as_array(A)
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != arr.shape[0]:
        raise InvalidParams(f"matrix is {arr.shape}, y has shape {y.shape}")
    if s < 0:
        raise InvalidParams(f"need s >= 0, got {s}")
    spectral_sq = np.linalg.norm(arr, 2) ** 2
    if spectral_sq == 0.0:
        raise InvalidParams("zero matrix cannot be inverted")
    mu = 1.0 / spectral_sq

    x = np.zeros(arr.shape[1], dtype=np.result_type(arr, y))
    y_norm = float(np.linalg.norm(y))
    history: list[float] = []
    converged = False
    residual = y - arr @ x
    for iterations in range(1, IHT_ITERATIONS + 1):
        x = hard_threshold(x + mu * (arr.conj().T @ residual), s)
        residual = y - arr @ x
        res_norm = float(np.linalg.norm(residual))
        history.append(res_norm)
        if res_norm <= IHT_TOL * y_norm:
            converged = True
            break
    return RecoveryResult(estimate=x, iterations=iterations,
                          residual_history=history, converged=converged)
