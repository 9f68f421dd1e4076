import pytest

from ripforge.errors import InvalidModulus, NoPrimeInRange
from ripforge.num_theory import is_prime, prime_in_range


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


def test_prime_in_range_examples():
    assert prime_in_range(10, 20) == 11
    assert prime_in_range(9, 18) == 11
    with pytest.raises(NoPrimeInRange):
        prime_in_range(24, 28)
    with pytest.raises(ValueError):
        prime_in_range(20, 10)
    with pytest.raises(InvalidModulus):  # 2^31 + 11 is prime but above MAX_MODULUS
        prime_in_range(2**31, 2**31 + 100)


def test_bertrand_interval_always_contains_a_prime():
    for a in range(1, 2000):
        assert prime_in_range(a, 2 * a) <= 2 * a
    import random
    rnd = random.Random(0)
    for _ in range(200):
        a = rnd.randrange(2000, 10**6)
        p = prime_in_range(a, 2 * a)
        assert a <= p <= 2 * a and is_prime(p)


def test_prime_in_range_returns_smallest():
    assert prime_in_range(2, 100) == 2
    assert prime_in_range(90, 100) == 97
