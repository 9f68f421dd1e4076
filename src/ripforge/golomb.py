"""Golomb rulers from shifted quadratic residues.

For a prime p >= 3 the marks g(k) = 2pk + (k^2 mod p), k in [0, p-1],
fit inside [0, q-1] with q = 3p(p-1)+1 and have all ordered pairwise
differences distinct.  A quadratic range is optimal up to constants:
the p(p-1) distinct differences must fit inside [-q+1, q-1], forcing
2q-1 >= p(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParams
from .num_theory import is_prime


@dataclass(frozen=True)
class GolombRuler:
    p: int
    marks: tuple[int, ...]
    q: int


def build_ruler(p: int) -> GolombRuler:
    """Construct the p-mark quadratic-residue ruler with range q = 3p(p-1)+1."""
    if p < 3 or not is_prime(p):
        raise InvalidParams(f"p={p}: ruler construction needs a prime p >= 3")
    marks = tuple(2 * p * k + k * k % p for k in range(p))
    return GolombRuler(p=p, marks=marks, q=3 * p * (p - 1) + 1)


def verify_ruler(marks: Sequence[int]) -> bool:
    """True iff all ordered pairwise differences of the marks are distinct.

    Sorting the n(n-1) differences and checking adjacent entries costs
    O(n^2 log n) instead of comparing all pairs of pairs.
    """
    diffs = sorted(a - b for i, a in enumerate(marks) for j, b in enumerate(marks) if i != j)
    return all(diffs[i] != diffs[i + 1] for i in range(len(diffs) - 1))
