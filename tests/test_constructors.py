import re
import resource
import tracemalloc

import numpy as np
import pytest

from ripforge.constructors import (alltop, composed, devore, golomb_phase,
                                   golomb_stacked, rademacher, weil)
from ripforge.errors import InvalidParams
from ripforge.golomb import build_ruler
from ripforge.matrix_core import read_cmx, write_cmx


# -- rademacher ----------------------------------------------------------------

def test_rademacher_deterministic_and_signed():
    a = rademacher(2, 2, seed=0)
    b = rademacher(2, 2, seed=0)
    assert np.array_equal(a.data, b.data)
    assert a.meta["seed"] == 0
    big = rademacher(100, 50, seed=3)
    assert np.all(big.data**2 == 1.0)


def test_rademacher_mean_law_of_large_numbers():
    entries = rademacher(1000, 1000, seed=12).data
    assert -0.01 < entries.mean() < 0.01


# -- weil ----------------------------------------------------------------------

def test_weil_shape_and_moduli():
    mat = weil(3, 1)
    assert mat.data.shape == (3, 9)
    assert np.allclose(np.abs(mat.data), 1 / np.sqrt(3), atol=1e-15)
    assert np.allclose(np.linalg.norm(mat.data, axis=0), 1.0, atol=1e-12)


def test_weil_zero_polynomial_column_is_flat():
    mat = weil(5, 2)
    np.testing.assert_allclose(mat.data[:, 0], np.full(5, 1 / np.sqrt(5)), atol=1e-15)


def test_weil_rejects_large_degree():
    with pytest.raises(InvalidParams):
        weil(3, 3)
    with pytest.raises(InvalidParams):
        weil(4, 1)
    with pytest.raises(InvalidParams, match=r"requested 10 > family size p\^\(d\+1\) = 9"):
        weil(3, 1, 10)


def test_polynomial_families_refuse_oversized_input(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("an array was allocated before the input was refused")

    monkeypatch.setattr(np, "arange", no_allocation)
    big = 2147483659  # the smallest prime above MAX_MODULUS
    with pytest.raises(InvalidParams, match="p=2147483659 exceeds the supported cap 2147483647"):
        weil(big, 1, 1)
    with pytest.raises(InvalidParams, match="p=2147483659 exceeds the supported cap 2147483647"):
        devore(big, 1)
    with pytest.raises(InvalidParams):  # 101^10 columns: no index can address them
        weil(101, 9)
    with pytest.raises(InvalidParams):
        devore(101, 9)
    with pytest.raises(InvalidParams):  # refused without forming p^(d+1), 20 Mbit here
        weil(1000003, 1000002)
    with pytest.raises(InvalidParams, match=r"> family size p\^\(d\+1\) = "):
        weil(101, 10, 101**11 + 1)


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 2), (7, 2)])
def test_weil_coherence_within_character_sum_bound(p, d):
    mat = weil(p, d).data
    gram = np.abs(mat.conj().T @ mat)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= d / np.sqrt(p) + 1e-12


def test_weil_entries_match_formula(poly_value):
    # (101, 10, 30): p^d exceeds int64, so the digits must not overflow;
    # (100003, 20000, 5): only the places p^e below N are computed
    for p, d, n in [(3, 2, 10), (5, 2, 125), (7, 1, 30), (101, 10, 30), (100003, 20000, 5)]:
        mat = weil(p, d, n)
        assert mat.data.shape == (p, n)
        phase = np.array([[k * poly_value(p, d, j, k) % p for j in range(n)]
                          for k in range(p)])
        expected = np.exp(2j * np.pi * phase / p) / np.sqrt(p)
        assert np.abs(mat.data - expected).max() < 1e-15, (p, d, n)
        if d < p - 1:  # then k f(k) on F_p determines f: distinct polynomials, columns
            assert len({col.tobytes() for col in mat.data.T}) == n


# -- alltop ---------------------------------------------------------------------

def test_alltop_coherence_and_moduli():
    mat = alltop(5)
    assert mat.data.shape == (5, 25)
    assert np.allclose(np.abs(mat.data), 1 / np.sqrt(5), atol=1e-15)
    gram = np.abs(mat.data.conj().T @ mat.data)
    np.fill_diagonal(gram, 0.0)
    assert abs(gram.max() - 1 / np.sqrt(5)) < 1e-12


def test_alltop_rejects_bad_m():
    with pytest.raises(InvalidParams):
        alltop(4)
    with pytest.raises(InvalidParams):
        alltop(3)


# -- devore -----------------------------------------------------------------------

def test_devore_layout():
    mat = devore(3, 2)
    assert mat.data.shape == (9, 27)
    # column of the zero polynomial has nonzeros exactly at rows (a, 0)
    col0 = mat.data[:, 0]
    nz = np.flatnonzero(col0)
    assert list(nz) == [0, 3, 6]
    assert np.allclose(col0[nz], 1 / np.sqrt(3))
    # every column: exactly p nonzeros, unit norm
    assert np.all((mat.data > 0).sum(axis=0) == 3)
    assert np.allclose(np.linalg.norm(mat.data, axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2)])
def test_devore_coherence_bound(p, d):
    mat = devore(p, d).data
    gram = np.abs(mat.T @ mat)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= d / p + 1e-12


def test_devore_rejects_bad_params():
    with pytest.raises(InvalidParams):
        devore(3, 3)


# -- golomb phase matrix ---------------------------------------------------------

def test_golomb_phase_shape_and_zero_row():
    mat = golomb_phase(3)
    assert mat.data.shape == (37, 3)
    assert np.array_equal(mat.data[0], np.ones(3, dtype=complex))
    assert golomb_phase(5).data.shape == (121, 5)
    with pytest.raises(InvalidParams, match=r"p=2: ruler construction needs a prime p >= 3"):
        golomb_phase(2)
    # m q = (6p^2 - 6p + 1)(3p^2 - 3p + 1) bounds every phase j g(k); it first
    # reaches 2^63 at p = 26756, so int64 phases are refused from there on
    assert (6 * 26755**2 - 6 * 26755 + 1) * (3 * 26755**2 - 3 * 26755 + 1) < 2**63
    for p in (26759, 2147483647):  # the first prime past the bound, and MAX_MODULUS
        for make in (golomb_phase, golomb_stacked, lambda p: composed(1, 10, p=p)):
            with pytest.raises(InvalidParams, match="2\\^63"):
                make(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_golomb_phase_columns_exactly_orthogonal(p):
    mat = golomb_phase(p)
    m = mat.rows
    gram = mat.data.conj().T @ mat.data
    assert np.abs(gram - m * np.eye(p)).max() <= 1e-9
    # the geometric sums vanish because every difference of marks is
    # nonzero mod m -- check that integer fact directly
    marks = build_ruler(p).marks
    for k in range(p):
        for kp in range(p):
            if k != kp:
                assert (marks[k] - marks[kp]) % m != 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_golomb_phase_fourth_order_products_vanish(p):
    mat = golomb_phase(p).data
    m, _ = mat.shape
    marks = build_ruler(p).marks
    pairs = [(k, kp) for k in range(p) for kp in range(p) if k != kp]
    for a in pairs:
        for b in pairs:
            if a == b:
                continue
            total = np.sum(mat[:, a[0]].conj() * mat[:, a[1]]
                           * mat[:, b[0]] * mat[:, b[1]].conj())
            assert abs(total) <= 1e-9
            diff = (marks[a[0]] - marks[a[1]]) - (marks[b[0]] - marks[b[1]])
            assert diff % m != 0 and -m < diff < m


def test_golomb_phase_l2_energy():
    mat = golomb_phase(5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = np.linalg.norm(mat.data @ x) ** 2
        assert lhs == pytest.approx(121 * np.linalg.norm(x) ** 2, rel=1e-12)


# -- stacked isometry -------------------------------------------------------------

def test_golomb_stacked_structure():
    mat = golomb_stacked(3)
    assert mat.data.shape == (40, 3)
    np.testing.assert_array_equal(mat.data[-3:], np.eye(3) / 2**0.25)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_golomb_stacked_exact_l4_isometry(p):
    mat = golomb_stacked(p)
    rng = np.random.default_rng(p)
    X = rng.standard_normal((p, 100)) + 1j * rng.standard_normal((p, 100))
    Y = mat.data @ X
    l4 = (np.abs(Y) ** 4).sum(axis=0) ** 0.25
    l2 = np.linalg.norm(X, axis=0)
    assert np.max(np.abs(l4 - l2) / l2) <= 1e-10


# -- composed ----------------------------------------------------------------------

def test_composed_desk_scale_instance(poly_value):
    mat = composed(1, 20, p=3)
    assert mat.data.shape == (37, 20)
    assert mat.meta == {"construction": "composed", "s": 1, "N": 20, "p": 3, "d": 2,
                        "m": 37, "d_clamped": False}
    assert composed(2, 400, p=7).meta == {
        "construction": "composed", "s": 2, "N": 400, "p": 7, "d": 3, "m": 253,
        "d_clamped": False}

    # oracle: evaluate the closed-form entry sum directly
    marks = build_ruler(3).marks
    m = 37
    rng = np.random.default_rng(0)
    for _ in range(60):
        j = int(rng.integers(m))
        fi = int(rng.integers(20))
        expected = sum(
            np.exp(2j * np.pi * (j * marks[k] / m + k * poly_value(3, 2, fi, k) / 3))
            for k in range(3)) / np.sqrt(3)
        assert abs(mat.data[j, fi] - expected) <= 1e-10 * abs(expected) + 1e-12


def test_composed_equals_factor_product():
    mat = composed(1, 20, p=3)
    prod = golomb_phase(3).data @ weil(3, 2, 20).data
    np.testing.assert_allclose(mat.data, prod, rtol=1e-12, atol=0)


def test_composed_row_consistency_with_matvec():
    mat = composed(1, 20, p=3)
    left = golomb_phase(3).data
    right = weil(3, 2, 20).data
    for j in (0, 5, 36):
        np.testing.assert_allclose(mat.data[j], left[j] @ right, rtol=1e-12)


def test_composed_degree_clamped_when_n_small():
    mat = composed(1, 3, p=5)
    assert mat.meta["d"] == 1 and mat.meta["d_clamped"] is True


def test_composed_degree_is_exact_at_powers_of_p():
    # ceil(ln(N/p) / ln p) at N = p^(d+1) is d; a float log rounded it up
    for p, n, d in ((5, 625, 3), (5, 626, 4), (3, 9, 1), (3, 10, 2)):
        assert composed(1, n, p=p).meta["d"] == d, (p, n)


def test_composed_rejects_composite_p():
    with pytest.raises(InvalidParams, match="p=4 must be a prime"):
        composed(1, 20, p=4)


# -- phase kernel -------------------------------------------------------------------

def _direct_phase_matrix(family, arg, poly_value):
    """exp(i 2 pi phase / n) evaluated directly, phase reduced mod n in int64."""
    if family == "golomb_phase":
        n = 6 * arg * arg - 6 * arg + 1
        marks = np.array(build_ruler(arg).marks, dtype=np.int64)
        phase = np.arange(n, dtype=np.int64)[:, None] * marks[None, :] % n
        return np.exp(1j * 2 * np.pi / n * phase)
    if family == "alltop":
        n = arg
        t = np.arange(n, dtype=np.int64)
        j, x, y = t[:, None, None], t[None, :, None], t[None, None, :]
        phase = ((j + x) ** 3 % n + y * j) % n
        return np.exp(1j * 2 * np.pi / n * phase).reshape(n, n * n) / np.sqrt(n)
    n, d = arg
    vals = np.array([[poly_value(n, d, i, k) for i in range(n ** (d + 1))]
                     for k in range(n)], dtype=np.int64)
    phase = np.arange(n, dtype=np.int64)[:, None] * vals % n
    return np.exp(1j * 2 * np.pi / n * phase) / np.sqrt(n)


@pytest.mark.parametrize("family,arg", [
    ("golomb_phase", 3), ("golomb_phase", 19), ("golomb_phase", 37),
    ("weil", (5, 2)), ("weil", (13, 2)), ("alltop", 5), ("alltop", 47),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_phase_kernel_is_bit_identical_to_direct_formula(family, arg, poly_value):
    # compared with a formula evaluated here, not a stored hash: complex exp
    # comes from the platform's libm
    if family == "golomb_phase":
        mat = golomb_phase(arg)
    elif family == "alltop":
        mat = alltop(arg)
    else:
        mat = weil(*arg)
    expected = _direct_phase_matrix(family, arg, poly_value)
    assert mat.data.tobytes() == expected.tobytes()


# -- meta provenance ---------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: rademacher(4, 6, seed=9),
    lambda: weil(3, 1),
    lambda: golomb_phase(3),
    lambda: composed(1, 20, p=3),
])
def test_constructor_meta_round_trips_through_cmx(make, tmp_path):
    mat = make()
    path = tmp_path / "m.cmx"
    write_cmx(mat, path)
    back = read_cmx(path)
    assert back.meta == mat.meta
    assert np.array_equal(back.data, mat.data)


# -- memory guard ------------------------------------------------------------------

BUILDS = {"rademacher": lambda: rademacher(1000, 200, seed=1), "weil": lambda: weil(13, 2),
          "weil-N": lambda: weil(31, 2, 2000), "alltop": lambda: alltop(31),
          "devore": lambda: devore(7, 2), "golomb": lambda: golomb_phase(31),
          "golomb-stacked": lambda: golomb_stacked(13),
          "composed": lambda: composed(1, 200, p=7)}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_constructors_refuse_beyond_memory_before_allocating(name, memory_limit, monkeypatch):
    # refused under a finite RLIMIT_AS, and under physical memory when it is unlimited,
    # before numpy is touched; the estimate covers the tracemalloc peak of the build
    estimates = set()
    for rlimit_as, phys, limit in ((0, 1 << 40, 0), (resource.RLIM_INFINITY, 8192, 8192)):
        memory_limit(rlimit_as, phys)
        with pytest.raises(InvalidParams, match=f"more than the {limit} bytes this process "
                                                "may use") as err:
            BUILDS[name]()
        estimates.add(int(re.search(r"would hold about (\d+) bytes", str(err.value))[1]))
    monkeypatch.undo()
    BUILDS[name]()  # numpy's first-call allocations are not the build's
    tracemalloc.start()
    try:
        mat = BUILDS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (nbytes,) = estimates
    assert mat.data.nbytes < peak <= nbytes <= 1.5 * peak, (peak, nbytes)
