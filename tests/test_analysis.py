import numpy as np
import pytest

from ripforge.analysis import (embedding_ratios, holder_floor, l2_identity, l4_identity,
                               quadruple_tensor)
from ripforge.constructors import golomb_phase
from ripforge.errors import InvalidParams
from ripforge.matrix_core import norm


def random_unimodular(rng, q, r):
    return np.exp(2j * np.pi * rng.random((q, r)))


def random_x(rng, r):
    return rng.standard_normal(r) + 1j * rng.standard_normal(r)


def quadruple_sums_loop_oracle(B, x):
    """Pure-Python enumeration of S1 and S2, straight from their index sets."""
    q, r = B.shape
    s1 = 0j
    s2 = 0j
    for k in range(r):
        for kp in range(r):
            if k == kp:
                continue
            for l in range(r):
                for lp in range(r):
                    if l == lp or (k, kp) == (l, lp):
                        continue
                    inner = sum(B[j, k].conjugate() * B[j, kp] * B[j, l]
                                * B[j, lp].conjugate() for j in range(q))
                    term = inner * x[k].conjugate() * x[kp] * x[l] * x[lp].conjugate()
                    s1 += term
                    if (k, kp) != (lp, l):
                        s2 += term
    return s1, s2


def test_l2_identity_scalar_case():
    rep = l2_identity(np.ones((1, 1)), np.array([2.0 - 1.0j]))
    assert rep.direct_value == pytest.approx(5.0)
    assert rep.formula_value == pytest.approx(5.0)
    assert rep.abs_gap <= 1e-15


def test_l4_identity_scalar_case():
    rep = l4_identity(np.ones((1, 1)), np.array([2.0 - 1.0j]), quadruple_tensor(np.ones((1, 1))))
    assert rep.sigma1 == 0j and rep.sigma2 == 0j
    assert rep.direct_value == pytest.approx(25.0)
    assert rep.formula_value == pytest.approx(2 * 25.0 - 25.0)
    assert rep.abs_gap <= 1e-12


def test_identities_on_golomb_phase_matrix():
    mat = golomb_phase(3)
    rng = np.random.default_rng(0)
    tensor = quadruple_tensor(mat)
    for _ in range(25):
        x = random_x(rng, 3)
        assert l2_identity(mat, x).abs_gap <= 1e-9
        rep = l4_identity(mat, x, tensor)
        assert rep.abs_gap <= 1e-8 and rep.abs_gap_split <= 1e-8


def test_identities_on_random_unimodular():
    rng = np.random.default_rng(1)
    B = random_unimodular(rng, 6, 5)
    tensor = quadruple_tensor(B)
    for _ in range(100):
        x = random_x(rng, 5)
        rep = l4_identity(B, x, tensor)
        assert rep.abs_gap <= 1e-9 and rep.abs_gap_split <= 1e-9
        assert l2_identity(B, x).abs_gap <= 1e-9


def test_identity_gaps_at_contract_scale():
    rng = np.random.default_rng(2)
    B = random_unimodular(rng, 200, 16)
    tensor = quadruple_tensor(B)
    for _ in range(5):
        x = random_x(rng, 16)
        rep = l4_identity(B, x, tensor)
        assert rep.abs_gap <= 1e-8 and rep.abs_gap_split <= 1e-8
        assert l2_identity(B, x).abs_gap <= 1e-8


def test_quadruple_sums_match_loop_oracle(grid_quadruple_sums):
    rng = np.random.default_rng(3)
    B = random_unimodular(rng, 4, 4)
    x = random_x(rng, 4)
    s1_oracle, s2_oracle = quadruple_sums_loop_oracle(B, x)
    rep = l4_identity(B, x, quadruple_tensor(B))
    for s1, s2 in (grid_quadruple_sums(B, x), (rep.sigma1, rep.sigma2)):
        assert abs(s1 - s1_oracle) <= 1e-10
        assert abs(s2 - s2_oracle) <= 1e-10
    # the split form ties the two sums together through the squared-pair term
    assert rep.formula_value == pytest.approx(rep.formula_value_split, abs=1e-9)


def test_hoisted_tensor_agrees_with_oracle(grid_quadruple_sums):
    # golomb(19) spans several row blocks of the tensor; golomb(5) is the block
    # of golomb_stacked(5) that l4_identity accepts (the stack is not unimodular);
    # golomb columns are orthogonal, so only the random matrix, whose pair sums
    # are not zero, shows an unmasked k = k' or l = l' entry
    rng = np.random.default_rng(6)
    unimodular = random_unimodular(np.random.default_rng(7), 600, 10)
    for B in (golomb_phase(19).data, golomb_phase(5).data, unimodular):
        tensor = quadruple_tensor(B)
        for _ in range(8):
            x = random_x(rng, B.shape[1])
            s1, s2 = grid_quadruple_sums(B, x)
            hoisted = l4_identity(B, x, tensor)
            scale = 1e-12 * hoisted.direct_value
            assert abs(hoisted.sigma1 - s1) <= scale
            assert abs(hoisted.sigma2 - s2) <= scale
            assert hoisted.abs_gap <= 1e-8 and hoisted.abs_gap_split <= 1e-8


def test_identity_preconditions():
    unimodular = "entry modulus deviates from 1 by 5.000e-01"
    with pytest.raises(InvalidParams, match="entry modulus deviates from 1 by 1.000e"):
        l2_identity(np.array([[1.0, 0.0]]), np.ones(2))
    with pytest.raises(InvalidParams, match=unimodular):  # a tensor of the right width
        l4_identity(np.array([[0.5]]), np.ones(1), np.zeros((1, 1)))
    rng = np.random.default_rng(4)
    wide = random_unimodular(rng, 2, 33)
    with pytest.raises(InvalidParams, match="quadruple enumeration is quartic; r=33 > 32"):
        l4_identity(wide, np.ones(33), quadruple_tensor(wide))
    with pytest.raises(InvalidParams, match="quadruple enumeration is quartic; r=33 > 32"):
        quadruple_tensor(random_unimodular(rng, 2, 33))
    with pytest.raises(InvalidParams, match=unimodular):
        quadruple_tensor(np.array([[0.5]]))
    with pytest.raises(InvalidParams, match=r"tensor has shape \(4, 4\), x needs \(9, 9\)"):
        l4_identity(np.ones((2, 3)), np.ones(3), quadruple_tensor(np.ones((2, 2))))
    with pytest.raises(InvalidParams, match=r"matrix has 2 columns, x has shape \(3,\)"):
        l2_identity(np.ones((2, 2)), np.ones(3))


def test_holder_floor_examples():
    assert holder_floor([1.0, 1.0]) == pytest.approx(2.0, rel=1e-15)
    assert holder_floor([3.0, 4.0]) == pytest.approx(125 / np.sqrt(337), rel=1e-14)
    assert holder_floor([3.0, 4.0]) <= 7.0
    assert holder_floor([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(InvalidParams, match="the l1 floor is undefined for the zero vector"):
        holder_floor(np.zeros(3))


def test_holder_floor_below_l1_in_bulk():
    rng = np.random.default_rng(5)
    ys = rng.standard_normal((100_000, 6)) + 1j * rng.standard_normal((100_000, 6))
    l1 = np.abs(ys).sum(axis=1)
    l2 = np.linalg.norm(ys, axis=1)
    l4 = (np.abs(ys) ** 4).sum(axis=1) ** 0.25
    floors = l2**3 / l4**2
    assert np.all(floors <= l1 * (1 + 1e-12))


def test_holder_floor_tight_on_constant_modulus():
    rng = np.random.default_rng(6)
    for _ in range(50):
        y = 2.5 * np.exp(2j * np.pi * rng.random(8))
        assert abs(holder_floor(y) - norm(y, 1)) <= 1e-12 * norm(y, 1)


def test_embedding_ratios_on_golomb_phase():
    mat = golomb_phase(3)
    m = 37
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = random_x(rng, 3)
        r1, r2, r4 = embedding_ratios(mat, x)
        assert r2 == pytest.approx(np.sqrt(m), rel=1e-10)
        assert m / np.sqrt(2) - 1e-9 <= r1 <= m + 1e-9
        assert r4 <= (2 * m) ** 0.25 + 1e-9


def test_embedding_ratios_errors():
    mat = golomb_phase(3)
    with pytest.raises(InvalidParams, match="embedding ratios are undefined for x = 0"):
        embedding_ratios(mat, np.zeros(3))
    with pytest.raises(InvalidParams, match=r"matrix is \(37, 3\), vector has shape \(4,\)"):
        embedding_ratios(mat, np.ones(4))
