import pytest
from hypothesis import given, strategies as st

from ripforge.errors import InvalidParams
from ripforge.golomb import build_ruler, verify_ruler
from ripforge.num_theory import is_prime

PRIMES_TO_101 = [p for p in range(3, 102) if is_prime(p)]


def naive_all_differences_distinct(marks):
    """O(n^4) oracle: compare every ordered pair of ordered pairs."""
    n = len(marks)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for a in pairs:
        for b in pairs:
            if a != b and marks[a[0]] - marks[a[1]] == marks[b[0]] - marks[b[1]]:
                return False
    return True


def test_build_ruler_examples():
    r3 = build_ruler(3)
    assert r3.marks == (0, 7, 13) and r3.q == 19
    r5 = build_ruler(5)
    assert r5.marks == (0, 11, 24, 34, 41) and r5.q == 61


def test_build_ruler_rejects_bad_moduli():
    with pytest.raises(InvalidParams, match=r"p=2: ruler construction needs a prime p >= 3"):
        build_ruler(2)
    with pytest.raises(InvalidParams, match=r"p=9: ruler construction needs a prime p >= 3"):
        build_ruler(9)


def test_verify_ruler_examples():
    assert verify_ruler([0, 7, 13])
    assert not verify_ruler([0, 1, 2])  # 1-0 == 2-1
    assert verify_ruler([0, 11, 24, 34, 41])
    assert verify_ruler([0, 1, 4, 9, 11])  # a known optimal 5-mark ruler


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=2, max_size=7,
                unique=True))
def test_verify_ruler_matches_naive_oracle(marks):
    assert verify_ruler(marks) == naive_all_differences_distinct(marks)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_construction_is_a_ruler_for_all_desk_primes(p):
    ruler = build_ruler(p)
    assert verify_ruler(ruler.marks)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_range_bound_and_density(p):
    ruler = build_ruler(p)
    assert all(0 <= g <= ruler.q - 1 for g in ruler.marks)
    assert list(ruler.marks) == sorted(ruler.marks)
    assert ruler.marks[-1] == max(ruler.marks)
    # 2q - 1 is the row count of the phase matrix built on this ruler,
    # and no ruler with p marks can beat quadratic range.
    assert 2 * ruler.q - 1 == 6 * p * p - 6 * p + 1
    assert 2 * ruler.q - 1 >= p * (p - 1)
