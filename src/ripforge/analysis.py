"""Norm identities and inequalities for unimodular matrices.

For B in C^(q x r) with |B_{j,k}| = 1 and any x in C^r, expanding
|(Bx)_j|^2 and |(Bx)_j|^4 gives exact identities

    ||Bx||_2^2 = q ||x||_2^2
                 + sum_{k != k'} P(k,k') conj(x_k) x_{k'},
    ||Bx||_4^4 = 2 ||x||_2^2 ||Bx||_2^2 - q ||x||_4^4 + S1
               = 2 ||x||_2^2 ||Bx||_2^2 - q ||x||_4^4
                 + sum_{k != k'} Q(k,k') conj(x_k)^2 x_{k'}^2 + S2,

with pair sums P(k,k') = sum_j conj(B_{j,k}) B_{j,k'} and
Q(k,k') = sum_j conj(B_{j,k})^2 B_{j,k'}^2.  S1 runs over ordered pairs
of ordered pairs (k != k') != (l != l'); S2 additionally excludes the
swapped coincidence (k != k') = (l' != l).  quadruple_tensor holds the
x-independent part of S1 and S2: the inner sums over j on the S1 index
set, accumulated by blocks of rows, with no symmetry shortcuts.  Each
sum is then two products of that tensor with weights built from x, so
one tensor serves every vector checked against the same matrix.

The l1 floor ||y||_1 >= ||y||_2^3 / ||y||_4^2 (Holder with exponents
3 and 3/2 applied to |y_i|^(2/3) * |y_i)^(4/3)) turns an upper l4 bound
into a lower l1 bound; it is how orthogonality plus vanishing fourth-order
products yield two-sided l1 embedding constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .matrix_core import as_array, matvec, norm

UNIMODULAR_TOL = 1e-12
MAX_QUARTIC_COLS = 32
QUAD_BLOCK_ROWS = 256  # rows of B per block of pair products in quadruple_tensor


@dataclass(frozen=True)
class IdentityReport:
    """Direct norm value vs. formula value(s), with the quadruple sums."""

    direct_value: float
    formula_value: float
    sigma1: complex
    sigma2: complex
    abs_gap: float
    formula_value_split: float | None = None
    abs_gap_split: float | None = None


def _check_unimodular(B: np.ndarray) -> None:
    dev = float(np.max(np.abs(np.abs(B) - 1.0)))
    if dev > UNIMODULAR_TOL:
        raise InvalidParams(f"entry modulus deviates from 1 by {dev:.3e}")


def _check_x(B: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] != B.shape[1]:
        raise InvalidParams(f"matrix has {B.shape[1]} columns, x has shape {x.shape}")
    return x


def _power_sum(v: np.ndarray, e: int) -> float:
    """sum_i |v_i|^e for e = 2 or 4, with no root taken, added by math.fsum."""
    sq = v.real**2 + v.imag**2
    return math.fsum(sq if e == 2 else sq * sq)


def l2_identity(B, x) -> IdentityReport:
    """Check ||Bx||_2^2 against its pair-sum expansion, with P = B^H B formed here."""
    B = np.asarray(as_array(B), dtype=np.complex128)
    _check_unimodular(B)
    x = _check_x(B, x)
    q, r = B.shape

    direct = _power_sum(B @ x, 2)
    weights = np.outer(x.conj(), x)
    off_diag = ~np.eye(r, dtype=bool)
    formula = q * _power_sum(x, 2) + ((B.conj().T @ B) * weights)[off_diag].sum()
    return IdentityReport(direct_value=direct,
                          formula_value=float(formula.real),
                          sigma1=0j, sigma2=0j,
                          abs_gap=float(abs(direct - formula)))


def quadruple_tensor(B) -> np.ndarray:
    """T(k,k',l,l') = sum_j conj(B_{j,k}) B_{j,k'} B_{j,l} conj(B_{j,l'}) on the
    S1 index set, zero elsewhere, as an r^2 x r^2 array indexed by (k,k'), (l,l').

    T does not depend on x: build it once and pass it to l4_identity for
    every vector.  It is accumulated over blocks of QUAD_BLOCK_ROWS rows, so
    the q x r^2 pair products are never all held at once.
    """
    B = np.asarray(as_array(B), dtype=np.complex128)
    _check_unimodular(B)
    q, r = B.shape
    if r > MAX_QUARTIC_COLS:
        raise InvalidParams(f"quadruple enumeration is quartic; r={r} > {MAX_QUARTIC_COLS}")
    tensor = np.zeros((r * r, r * r), dtype=np.complex128)
    for i in range(0, q, QUAD_BLOCK_ROWS):
        block = B[i:i + QUAD_BLOCK_ROWS]
        prods = np.einsum("jk,jl->jkl", block.conj(), block).reshape(len(block), r * r)
        tensor += prods.T @ prods.conj()
    quad = tensor.reshape(r, r, r, r)
    diag = np.arange(r)
    quad[diag, diag] = 0                                  # k = k'
    quad[:, :, diag, diag] = 0                            # l = l'
    tensor[np.arange(r * r), np.arange(r * r)] = 0        # (k,k') = (l,l')
    return tensor


def _tensor_sums(tensor: np.ndarray, x: np.ndarray) -> tuple[complex, complex]:
    """S1 and S2 from quadruple_tensor: S1 weights every entry, S2 drops the
    swapped coincidences (l,l') = (k',k), whose weight is conj(x_k)^2 x_{k'}^2."""
    r = x.shape[0]
    if tensor.shape != (r * r, r * r):
        raise InvalidParams(f"tensor has shape {tensor.shape}, x needs {(r * r, r * r)}")
    w_left = np.outer(x.conj(), x).reshape(r * r)
    sigma1 = complex(w_left @ (tensor @ w_left.conj()))
    k, kp = np.indices((r, r))
    swapped = tensor.reshape(r, r, r, r)[k, kp, kp, k]   # zero where k = k'
    return sigma1, sigma1 - complex((np.outer(x.conj() ** 2, x**2) * swapped).sum())


def l4_identity(B, x, tensor) -> IdentityReport:
    """Check ||Bx||_4^4 against both quadruple-sum expansions.

    `formula_value` uses the S1 form, `formula_value_split` the form that
    isolates the squared-pair sum and S2; both gaps are reported.  Both sums
    come from `tensor`, which is quadruple_tensor(B): it does not depend on
    x and is quartic in the columns, so a caller checking many vectors
    builds it once.  Q is formed here.
    """
    B = np.asarray(as_array(B), dtype=np.complex128)
    _check_unimodular(B)
    x = _check_x(B, x)
    q, r = B.shape

    y = B @ x
    direct = _power_sum(y, 4)
    common = 2.0 * _power_sum(x, 2) * _power_sum(y, 2) - q * _power_sum(x, 4)
    sigma1, sigma2 = _tensor_sums(tensor, x)

    w_sq = np.outer(x.conj() ** 2, x**2)
    off_diag = ~np.eye(r, dtype=bool)
    pair_term = (((B.conj() ** 2).T @ (B**2)) * w_sq)[off_diag].sum()

    via_s1 = common + sigma1
    via_s2 = common + pair_term + sigma2
    return IdentityReport(direct_value=direct,
                          formula_value=float(via_s1.real),
                          sigma1=sigma1, sigma2=sigma2,
                          abs_gap=float(abs(direct - via_s1)),
                          formula_value_split=float(via_s2.real),
                          abs_gap_split=float(abs(direct - via_s2)))


def holder_floor(y) -> float:
    """Lower bound ||y||_2^3 / ||y||_4^2 <= ||y||_1, tight for flat vectors."""
    y = np.asarray(y)
    n4 = norm(y, 4)
    if n4 == 0.0:
        raise InvalidParams("the l1 floor is undefined for the zero vector")
    return norm(y, 2) ** 3 / n4**2


def embedding_ratios(A, x) -> tuple[float, float, float]:
    """(||Ax||_1, ||Ax||_2, ||Ax||_4) each divided by ||x||_2."""
    x = np.asarray(x)
    nx = norm(x, 2)
    if nx == 0.0:
        raise InvalidParams("embedding ratios are undefined for x = 0")
    y = matvec(A, x)
    return norm(y, 1) / nx, norm(y, 2) / nx, norm(y, 4) / nx
