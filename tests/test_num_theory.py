import pytest

from ripforge.num_theory import is_prime


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_values():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(37)


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division(n), n


@pytest.mark.parametrize("n,expected", [
    (2**31 - 1, True),          # Mersenne prime M31
    (2**61 - 1, True),          # Mersenne prime M61
    (2**67 - 1, False),         # M67 = 193707721 * 761838257287
    (561, False),               # Carmichael number
    (3215031751, False),        # strong pseudoprime to bases 2,3,5,7
])
def test_is_prime_64bit_edge_cases(n, expected):
    assert is_prime(n) == expected
