import itertools
import math

import numpy as np
import pytest

from ripforge.certify import (CertReport, certify_sign_matrix, coherence, condition_a,
                              condition_b, default_kappa, derive_subseed, exact_ric,
                              las_vegas, probe_l1, theorem1_bound)
from ripforge.constructors import alltop, golomb_phase, rademacher, weil
from ripforge.errors import (InvalidDelta, InvalidParams, NotSignMatrix,
                             RoundsExhausted, TooLarge, ZeroColumn)
from ripforge.matrix_core import Matrix


def test_coherence_examples():
    assert coherence(Matrix(np.eye(4))) == pytest.approx(0.0, abs=1e-14)
    assert coherence(alltop(5)) == pytest.approx(1 / np.sqrt(5), abs=1e-12)
    assert coherence(weil(5, 2)) <= 2 / np.sqrt(5) + 1e-12
    with pytest.raises(ZeroColumn):
        coherence(Matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_coherence_normalizes_columns():
    # scaling columns must not change the value
    base = rademacher(16, 4, seed=0).data.astype(float)
    scaled = base * np.array([1.0, 2.0, 0.5, 7.0])
    assert coherence(Matrix(scaled)) == pytest.approx(coherence(Matrix(base)), rel=1e-12)


def test_default_kappa():
    assert default_kappa(16) == pytest.approx(math.sqrt(8 * math.log(16)), rel=1e-15)
    assert default_kappa(16) == pytest.approx(4.7096, abs=1e-4)
    # kappa^2 / 2 = 4 ln N is exactly the union-bound margin
    n = 1000
    assert default_kappa(n) ** 2 / 2 == pytest.approx(4 * math.log(n), rel=1e-14)
    with pytest.raises(InvalidParams):
        default_kappa(1)


def test_condition_a_examples():
    ortho = Matrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
    check = condition_a(ortho, kappa=0.1)
    assert check.passed and check.max_sum == 0

    dup = Matrix(np.hstack([np.ones((100, 1)), np.ones((100, 1))]))
    check = condition_a(dup, kappa=5.0)
    assert not check.passed
    assert check.max_sum == 100 and check.threshold == pytest.approx(50.0)
    assert check.witness == (0, 1)

    with pytest.raises(NotSignMatrix):
        condition_a(Matrix(np.array([[0.5, 1.0]])), kappa=1.0)


def test_condition_a_pass_rate_over_seeds():
    kappa = default_kappa(16)
    passes = sum(condition_a(rademacher(64, 16, seed=t), kappa).passed
                 for t in range(200))
    assert passes >= 0.9 * 200


def test_condition_a_matches_integer_oracle():
    mat = rademacher(37, 8, seed=5)
    arr = mat.data.astype(np.int64)
    expected = 0
    for k in range(8):
        for kp in range(k + 1, 8):
            expected = max(expected, abs(int(np.sum(arr[:, k] * arr[:, kp]))))
    assert condition_a(mat, kappa=1.0).max_sum == expected


def test_condition_b_vacuous_below_four_columns():
    mat = rademacher(16, 3, seed=0)
    check = condition_b(mat, kappa=1.0)
    assert check.passed and check.max_sum == 0 and check.witness is None


def test_condition_b_hadamard_product_counterexample():
    # columns with c1 o c2 = c3 o c4 push the quadruple sum to m
    rng = np.random.default_rng(0)
    c2 = rng.choice([-1.0, 1.0], size=100)
    cols = np.column_stack([np.ones(100), c2, -np.ones(100), -c2])
    check = condition_b(Matrix(cols), kappa=5.0)
    assert not check.passed
    assert check.max_sum == 100
    assert check.witness == (0, 1, 2, 3)


def test_condition_b_matches_subset_loop_oracle():
    # small m makes ties common, which pins down the witness rule
    cases = [(21, 7, 9)] + [(m, n, seed) for m in (8, 12, 21)
                            for n in range(4, 13) for seed in range(3)]
    for m, n, seed in cases:
        mat = rademacher(m, n, seed=seed)
        arr = mat.data.astype(np.int64)
        expected, witness = 0, None
        for quad in itertools.combinations(range(n), 4):     # lexicographic order
            total = abs(int(np.sum(arr[:, quad[0]] * arr[:, quad[1]]
                                   * arr[:, quad[2]] * arr[:, quad[3]])))
            if witness is None or total > expected:
                expected, witness = total, quad
        check = condition_b(mat, kappa=1.0)
        assert (check.max_sum, check.witness) == (expected, witness), (m, n, seed)
        report = certify_sign_matrix(mat, kappa=1.0)
        assert report.max_quad_sum == expected and report.quad_witness == witness
        assert report.coherence == report.max_pair_sum / m, (m, n, seed)


def test_condition_b_failure_rate_within_union_bound():
    kappa = default_kappa(16)
    failures = sum(not condition_b(rademacher(64, 16, seed=t), kappa).passed
                   for t in range(500))
    assert failures / 500 <= 1 / 12 + 0.05


def test_las_vegas_succeeds_and_is_deterministic():
    mat1, rounds1 = las_vegas(64, 16, max_rounds=50, seed=1)
    mat2, rounds2 = las_vegas(64, 16, max_rounds=50, seed=1)
    assert rounds1 == rounds2
    assert np.array_equal(mat1.data, mat2.data)
    assert mat1.meta["construction"] == "lasvegas"
    assert mat1.meta["subseed"] == derive_subseed(1, rounds1)
    # the certificate is genuine
    kappa = default_kappa(16)
    assert condition_a(mat1, kappa).passed and condition_b(mat1, kappa).passed


def test_las_vegas_mean_rounds():
    rounds = [las_vegas(64, 16, max_rounds=50, seed=t)[1] for t in range(100)]
    assert sum(rounds) / len(rounds) <= 1.5


def test_las_vegas_retries_after_failed_round():
    # seed 573 is the first master seed whose round-1 draw violates the
    # conditions at these parameters; the driver must move to round 2
    mat, rounds = las_vegas(64, 16, max_rounds=50, seed=573)
    assert rounds == 2
    assert mat.meta["round"] == 2
    assert mat.meta["subseed"] == derive_subseed(573, 2)
    kappa = default_kappa(16)
    assert condition_a(mat, kappa).passed and condition_b(mat, kappa).passed


def test_las_vegas_rounds_exhausted():
    # kappa sqrt(m) < 1 cannot dominate a +-1 sum over odd m
    with pytest.raises(RoundsExhausted) as err:
        las_vegas(1, 16, kappa=0.01, max_rounds=5, seed=0)
    assert err.value.rounds == 5
    assert isinstance(err.value.best, CertReport)
    assert err.value.best.max_pair_sum >= 1


def test_theorem1_bound_values():
    bound = theorem1_bound(default_kappa(32), 0.5, 2)
    assert bound.m_required == 1775
    assert bound.alpha == pytest.approx(math.sqrt(0.5**3 / (3 * 1.5)), rel=1e-15)
    assert bound.beta == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert bound.distortion_bound == pytest.approx(bound.beta / bound.alpha, rel=1e-15)
    # the distortion bound tends to sqrt(3) as delta -> 0
    assert theorem1_bound(1.0, 1e-12, 1).distortion_bound == pytest.approx(
        math.sqrt(3), rel=1e-9)
    with pytest.raises(InvalidDelta):
        theorem1_bound(1.0, 1.0, 2)
    with pytest.raises(InvalidDelta):
        theorem1_bound(1.0, 0.0, 2)


def test_exact_ric_examples():
    assert exact_ric(Matrix(np.eye(5)), 2) == pytest.approx(0.0, abs=1e-12)

    dup = np.column_stack([np.ones(4), np.ones(4), np.array([1.0, -1, 1, -1])])
    assert exact_ric(Matrix(dup), 2) == pytest.approx(1.0, rel=1e-12)

    wl = weil(5, 2)
    assert exact_ric(wl, 2) < 2 * coherence(wl)

    with pytest.raises(TooLarge):
        exact_ric(Matrix(np.ones((2, 50)) - 2 * np.eye(2, 50)), 5)
    with pytest.raises(InvalidParams):
        exact_ric(Matrix(np.eye(3)), 4)


def test_exact_ric_below_s_times_coherence():
    for mat in (alltop(5), weil(3, 2)):
        assert exact_ric(mat, 2) < 2 * coherence(mat)
        assert exact_ric(mat, 3) < 3 * coherence(mat)


def test_probe_l1_dense_on_golomb_phase():
    mat = golomb_phase(3)
    report = probe_l1(mat, 3, trials=500, seed=0)
    m = 37
    assert report.min_ratio >= m / np.sqrt(2) * (1 - 1e-10)
    assert report.max_ratio <= m * (1 + 1e-10)
    assert report.empirical_distortion <= np.sqrt(2) + 1e-9
    assert report.empirical_distortion >= 1.0


def test_probe_l1_single_column_activation():
    # with unit l2 columns the 1-sparse ratio is exactly the column l1 norm
    mat = weil(3, 1)
    col_l1 = np.abs(mat.data).sum(axis=0)
    report = probe_l1(mat, 1, trials=300, seed=1)
    assert report.min_ratio == pytest.approx(col_l1.min(), rel=1e-12)
    assert report.max_ratio == pytest.approx(col_l1.max(), rel=1e-12)


def test_certify_sign_matrix_report():
    mat, _ = las_vegas(64, 16, max_rounds=50, seed=4)
    report = certify_sign_matrix(mat, delta=0.5, s=2)
    assert report.cond_a_pass and report.cond_b_pass
    assert report.kappa == pytest.approx(default_kappa(16))
    assert report.coherence == pytest.approx(report.max_pair_sum / 64)
    assert report.m_required == math.ceil(report.kappa**2 / 0.25 * 16)
    assert report.distortion_bound == pytest.approx(report.beta / report.alpha)
