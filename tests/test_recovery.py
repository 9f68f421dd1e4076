import numpy as np
import pytest

from ripforge.certify import las_vegas
from ripforge.errors import InvalidParams
from ripforge.matrix_core import Matrix
from ripforge.recovery import hard_threshold, iht


def sparse_signal(rng, n, s):
    x = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    x[support] = rng.standard_normal(s)
    return x


def test_hard_threshold_keeps_largest_with_low_index_ties():
    v = np.array([1.0, -1.0, 1.0])
    out = hard_threshold(v, 2)
    assert np.array_equal(out, np.array([1.0, -1.0, 0.0]))
    assert np.array_equal(hard_threshold(v, 0), np.zeros(3))
    assert np.array_equal(hard_threshold(v, 5), v)


def test_iht_trivial_cases():
    mat, _ = las_vegas(32, 8, seed=0)
    # s = 0 keeps the zero vector; converged only for y = 0
    res = iht(mat, np.ones(32), 0)
    assert np.array_equal(res.estimate, np.zeros(8))
    assert not res.converged
    res0 = iht(mat, np.zeros(32), 2)
    assert res0.converged and res0.iterations == 1
    assert np.array_equal(res0.estimate, np.zeros(8))
    with pytest.raises(InvalidParams, match=r"matrix is \(32, 8\), y has shape \(5,\)"):
        iht(mat, np.ones(5), 2)
    with pytest.raises(InvalidParams, match="need s >= 0, got -1"):
        iht(mat, np.ones(32), -1)
    with pytest.raises(InvalidParams, match="zero matrix cannot be inverted"):
        iht(Matrix(np.zeros((32, 8))), np.ones(32), 2)


def test_iht_estimate_is_always_s_sparse():
    rng = np.random.default_rng(3)
    mat = Matrix(rng.standard_normal((20, 30)))
    for s in (1, 3, 7):
        res = iht(mat, rng.standard_normal(20), s)
        assert np.count_nonzero(res.estimate) <= s


def test_iht_recovers_on_certified_matrix():
    mat, _ = las_vegas(256, 16, seed=1)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x0 = sparse_signal(rng, 16, 2)
        res = iht(mat, mat.data @ x0, 2)
        assert np.linalg.norm(res.estimate - x0) <= 1e-6 * np.linalg.norm(x0)
        assert res.converged


def test_certified_beats_broken_matrix():
    mat, _ = las_vegas(256, 16, seed=2)
    broken = np.array(mat.data)
    broken[:, 1::2] = broken[:, 0::2]   # duplicate every even column into the next
    rng = np.random.default_rng(11)
    trials = 40
    good = bad = 0
    for _ in range(trials):
        x0 = sparse_signal(rng, 16, 2)
        y_good = mat.data @ x0
        y_bad = broken @ x0
        good += (np.linalg.norm(iht(mat, y_good, 2).estimate - x0)
                 <= 1e-6 * np.linalg.norm(x0))
        bad += (np.linalg.norm(iht(Matrix(broken), y_bad, 2).estimate - x0)
                <= 1e-6 * np.linalg.norm(x0))
    assert good > bad
    assert good == trials
