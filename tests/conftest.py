import pytest


def _poly_value(p: int, d: int, i: int, k: int) -> int:
    """f_i(k) mod p, where polynomial i has the base-p digits of i as its
    coefficients c_0, ..., c_d, c_0 least significant."""
    coeffs = [i // p**e % p for e in range(d + 1)]
    return sum(c * k**e for e, c in enumerate(coeffs)) % p


@pytest.fixture
def poly_value():
    """Scalar oracle for the polynomial enumeration of the Weil/DeVore families."""
    return _poly_value
