"""Primality for the finite-field constructions.

is_prime uses a fixed Miller-Rabin witness set that is provably correct
for all 64-bit inputs, so it is deterministic.  The polynomial families
weil and devore refuse primes above MAX_MODULUS: below it their int64
products of two residues stay exact, and above it the Golomb ruler's
Python loop over p marks is out of reach.
"""

from __future__ import annotations

# Strong-pseudoprime witnesses; deterministic for all n < 3.317e24,
# which covers the full 64-bit range (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_MODULUS = 2**31 - 1


def is_prime(n: int) -> bool:
    """Deterministic primality test for nonnegative 64-bit integers."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
