import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ripforge import certify, matrix_core
from ripforge.certify import (CertReport, ConditionCheck, certify_sign_matrix, coherence,
                              condition_a, condition_b, default_kappa, derive_subseed,
                              exact_ric, las_vegas, probe_l1, theorem1_bound)
from ripforge.constructors import (alltop, devore, golomb_phase, golomb_stacked,
                                   rademacher, weil)
from ripforge.errors import InvalidParams, RoundsExhausted
from ripforge.matrix_core import Matrix


def test_coherence_examples():
    assert coherence(Matrix(np.eye(4))) == pytest.approx(0.0, abs=1e-14)
    assert coherence(alltop(5)) == pytest.approx(1 / np.sqrt(5), abs=1e-12)
    assert coherence(weil(5, 2)) <= 2 / np.sqrt(5) + 1e-12
    with pytest.raises(InvalidParams, match="column 1 is identically zero"):
        coherence(Matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_coherence_normalizes_columns():
    # scaling columns must not change the value
    base = rademacher(16, 4, seed=0).data.astype(float)
    scaled = base * np.array([1.0, 2.0, 0.5, 7.0])
    assert coherence(Matrix(scaled)) == pytest.approx(coherence(Matrix(base)), rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda: weil(5, 1), lambda: weil(7, 1), lambda: alltop(11), lambda: devore(5, 2),
    lambda: rademacher(64, 12, 3), lambda: golomb_phase(7), lambda: golomb_stacked(5)],
    ids=["weil5", "weil7", "alltop11", "devore5", "rademacher", "golomb7", "stacked5"])
def test_gram_certificates_keep_their_bits_or_refuse_under_scaling(build):
    # 2^k A has the Gram certificates of A; float64 holds them bit for bit while every
    # column norm stays in [2^-485, 2^485], and outside it they must be refused
    arr = build().data
    values = lambda mat: (coherence(mat), exact_ric(mat, 2), exact_ric(mat, 3))
    exact = values(Matrix(arr))
    refused = 0
    for k in (-600, -520, -500, -400, 400, 500, 520, 600):
        try:
            assert values(Matrix(arr * 2.0**k)) == exact, k
        except InvalidParams as exc:
            assert "outside the certified range [2^-485, 2^485]" in str(exc)
            assert abs(k) >= 500, k
            refused += 1
    assert refused >= 4


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
    assert check.witness == (0, 1)  # a pair, even when every pair sum is 0

    dup = Matrix(np.hstack([np.ones((100, 1)), np.ones((100, 1))]))
    check = condition_a(dup, kappa=5.0)
    assert not check.passed
    assert check.max_sum == 100 and check.threshold == pytest.approx(50.0)
    assert check.witness == (0, 1)

    # one column has no pairs: the check passes vacuously
    column = Matrix(np.resize([1.0, -1.0], (9, 1)))
    assert condition_a(column, kappa=2.0) == ConditionCheck(True, 0, None, 6.0)

    with pytest.raises(InvalidParams, match=r"certification requires entries exactly \+-1"):
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


GALLERY = [(weil, (5, 2)), (weil, (13, 2)), (alltop, (47,)), (devore, (13, 2)),
           (golomb_stacked, (23,))]
SIGN_DRAWS = [(37, 8, 5), (8, 40, 1), (9, 41, 2), (64, 16, 3), (21, 33, 4), (4, 30, 6)]


def test_gram_kernel_matches_dense_referees(strip_budget, dense_max_pair):
    for make, args in GALLERY:
        mat = make(*args)
        assert coherence(mat) == pytest.approx(dense_max_pair(mat.data, unit=True)[0],
                                               abs=1e-15), (make.__name__, args)
    for m, n, seed in SIGN_DRAWS:  # small m: many tied pair sums, across strips
        draw = rademacher(m, n, seed)
        assert coherence(draw) == pytest.approx(dense_max_pair(draw.data, unit=True)[0],
                                                abs=1e-15), (m, n, seed)
        check = condition_a(draw, kappa=1.0)
        want = dense_max_pair(draw.data.astype(np.int64), unit=False)
        assert (check.max_sum, check.witness) == want, (m, n, seed)


def _odd_shapes():
    """Real and complex draws of odd shapes: one strip taller than the row
    chunk with a ragged last chunk under the shipped budget, and many strips
    of a row or two under the tiny one."""
    rng = np.random.default_rng(11)
    out = []
    for m, n in ((7, 37), (5, 301), (3, 2), (1, 19)):
        real = rng.standard_normal((m, n))
        out += [real, real + 1j * rng.standard_normal((m, n))]
    return out


def test_gram_reducer_matches_strip_referee_bit_for_bit(strip_budget, strip_max_pair):
    # the job-sized gallery spans strips of 238, 237 and 477 rows at the shipped budget
    cases = _odd_shapes() + [rademacher(*draw).data for draw in SIGN_DRAWS]
    if strip_budget == "default":
        cases += [make(*args).data for make, args in GALLERY]
    for arr in cases:
        norms = certify.column_norms(arr)
        want = strip_max_pair(arr, norms)
        assert certify._max_pair(arr, norms) == want, arr.shape
        assert certify._max_pair(arr) == strip_max_pair(arr), arr.shape
        assert coherence(Matrix(arr)) == want[0], arr.shape
        assert exact_ric(Matrix(arr), 2) == want[0], arr.shape
    for m, n, seed in SIGN_DRAWS:
        draw = rademacher(m, n, seed)
        best, pair = strip_max_pair(draw.data)
        check = condition_a(draw, kappa=1.0)
        assert (check.max_sum, check.witness) == (int(round(best)), pair), (m, n, seed)


GRAM_ROWS, GRAM_COLS = 5, 1001  # the Gram spans several strips at either budget


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("budget", [1 << 20, 4 << 20])
def test_gram_consumers_hold_one_strip(monkeypatch, strip_max_pair, budget):
    # allowed: one strip, one row's values and temporaries, and O(N m); a |G|
    # beside the strip, or a strip kept alive into the next product, is a budget more
    m, n = GRAM_ROWS, GRAM_COLS
    monkeypatch.setattr("ripforge.matrix_core.GRAM_STRIP_BYTES", budget)
    slack = 2 * n * 16 + 2 * n * m * 16
    rng = np.random.default_rng(3)
    real = rng.standard_normal((m, n))
    for arr in (real, real + 1j * rng.standard_normal((m, n))):
        mu, peak = _traced_peak(lambda: coherence(Matrix(arr)))
        assert peak <= budget + slack, (arr.dtype, peak)
        assert mu == strip_max_pair(arr, certify.column_norms(arr))[0]
        hollow, peak = _traced_peak(lambda: certify._hollow_gram(arr))  # exact_ric, s >= 3
        assert peak <= hollow.nbytes + budget + 2 * n * m * 16, (arr.dtype, peak)
    draw = rademacher(m, n, seed=3)
    check, peak = _traced_peak(lambda: condition_a(draw, kappa=1.0))
    assert peak <= budget + slack, peak
    best, pair = strip_max_pair(draw.data)
    assert (check.max_sum, check.witness) == (int(round(best)), pair)


def test_coherence_of_the_w13_workload_holds_one_strip(strip_max_pair):
    # the gram-cert shape at the shipped budget: strips of 238 rows of 2197 columns
    arr = weil(13, 2).data
    m, n = arr.shape
    mu, peak = _traced_peak(lambda: coherence(arr))
    assert peak <= matrix_core.GRAM_STRIP_BYTES + 2 * n * 16 + 2 * n * m * 16, peak
    assert mu == strip_max_pair(arr, certify.column_norms(arr))[0]


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


def test_condition_b_matches_subset_loop_oracle(strip_budget):
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


def test_condition_b_float64_path_matches_float32_path(monkeypatch):
    # the cases of the subset-loop oracle test, whose float32 answers it
    # checks, and sizes whose scans span several left blocks
    cases = [(21, 7, 9)] + [(m, n, seed) for m in (8, 12, 21)
                            for n in range(4, 13) for seed in range(3)]
    cases += [(21, n, seed) for n in (33, 64) for seed in range(2)]
    mats = [rademacher(m, n, seed=seed) for m, n, seed in cases]
    want = [condition_b(mat, kappa=1.0)[1:3] for mat in mats]
    monkeypatch.setattr("ripforge.matrix_core.FLOAT32_SIGN_ROWS", 7)  # below every m
    for mat, case, expected in zip(mats, cases, want):
        assert condition_b(mat, kappa=1.0)[1:3] == expected, case


def test_condition_b_matches_per_b_scan_referee(strip_budget, per_b_quad_scan):
    # N = 13 fits one left block at the shipped row target, 20 to 80 span
    # several; the tiny budget splits the pair rows into many chunks
    cases = [(m, n, seed) for m in (8, 21, 1775) for n in (13, 20, 33) for seed in range(3)]
    cases += [(8, 64, 0), (8, 80, 1), (21, 64, 2), (1775, 80, 3)]
    for m, n, seed in cases:
        mat = rademacher(m, n, seed=seed)
        check = condition_b(mat, kappa=1.0)
        assert (check.max_sum, check.witness) == per_b_quad_scan(mat.data), (m, n, seed)


@pytest.mark.parametrize("budget", [1 << 20, 4 << 20])
def test_condition_b_holds_one_chunk_of_pair_rows(monkeypatch, per_b_quad_scan, budget):
    # the whole C(64,2) x 1775 float32 pair table is 6.8 MiB; what may be held
    # is one chunk of it with its product, under the budget, the transposed
    # columns, and a left block of at most about 2N rows
    m, n = 1775, 64
    monkeypatch.setattr("ripforge.matrix_core.GRAM_STRIP_BYTES", budget)
    mat = rademacher(m, n, seed=5)
    tracemalloc.start()
    try:
        check = condition_b(mat, kappa=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + 5 * n * m * np.dtype(np.float32).itemsize, peak
    assert (check.max_sum, check.witness) == per_b_quad_scan(mat.data)


def test_condition_b_counterexample_sums_to_m_at_two_to_the_twenty():
    # c1 o c2 = c3 o c4 makes the 4-subset sum m = 2^20, exact in float32
    m = 1 << 20
    c2 = np.random.default_rng(1).choice([-1.0, 1.0], size=m)
    cols = np.column_stack([np.ones(m), c2, -np.ones(m), -c2])
    check = condition_b(Matrix(cols), kappa=5.0)
    assert (check.max_sum, check.witness, check.passed) == (m, (0, 1, 2, 3), False)


def test_condition_b_failure_rate_within_union_bound():
    kappa = default_kappa(16)
    failures = sum(not condition_b(rademacher(64, 16, seed=t), kappa).passed
                   for t in range(500))
    assert failures / 500 <= 1 / 12 + 0.05


def test_las_vegas_succeeds_and_is_deterministic():
    mat1, rounds1 = las_vegas(64, 16, seed=1)
    mat2, rounds2 = las_vegas(64, 16, seed=1)
    assert rounds1 == rounds2
    assert np.array_equal(mat1.data, mat2.data)
    assert mat1.meta["construction"] == "lasvegas"
    assert mat1.meta["subseed"] == derive_subseed(1, rounds1)
    # the certificate is genuine
    kappa = default_kappa(16)
    assert condition_a(mat1, kappa).passed and condition_b(mat1, kappa).passed


def test_las_vegas_mean_rounds():
    rounds = [las_vegas(64, 16, seed=t)[1] for t in range(100)]
    assert sum(rounds) / len(rounds) <= 1.5


def test_las_vegas_retries_after_failed_round():
    # seed 573 is the first master seed whose round-1 draw violates the
    # conditions at these parameters; the driver must move to round 2
    mat, rounds = las_vegas(64, 16, seed=573)
    assert rounds == 2
    assert mat.meta["round"] == 2
    assert mat.meta["subseed"] == derive_subseed(573, 2)
    kappa = default_kappa(16)
    assert condition_a(mat, kappa).passed and condition_b(mat, kappa).passed


def test_las_vegas_rounds_exhausted():
    # kappa sqrt(m) < 1 cannot dominate a +-1 sum over odd m
    with pytest.raises(RoundsExhausted) as err:
        las_vegas(1, 16, kappa=0.01, seed=0)
    assert err.value.rounds == certify.LAS_VEGAS_ROUNDS == 64
    assert isinstance(err.value.best, CertReport)
    assert err.value.best.max_pair_sum >= 1


def test_las_vegas_best_is_the_report_of_the_best_round():
    m, n, kappa, seed = 64, 8, 0.01, 3  # round 14 scores lowest; round 19 ties it later
    with pytest.raises(RoundsExhausted) as err:
        las_vegas(m, n, kappa=kappa, seed=seed)
    reports = [certify_sign_matrix(rademacher(m, n, derive_subseed(seed, t)), kappa)
               for t in range(1, certify.LAS_VEGAS_ROUNDS + 1)]
    scores = [max(r.max_pair_sum, r.max_quad_sum) for r in reports]
    assert len(set(scores)) > 1  # the rounds differ, so the choice is tested
    assert err.value.best == reports[scores.index(min(scores))]


def test_theorem1_bound_values():
    bound = theorem1_bound(default_kappa(32), 0.5, 2)
    assert bound.m_required == 1775
    assert bound.alpha == pytest.approx(math.sqrt(0.5**3 / (3 * 1.5)), rel=1e-15)
    assert bound.beta == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert bound.distortion_bound == pytest.approx(bound.beta / bound.alpha, rel=1e-15)
    # the distortion bound tends to sqrt(3) as delta -> 0; kappa keeps m_required below 2^63
    assert theorem1_bound(1e-3, 1e-12, 1).distortion_bound == pytest.approx(
        math.sqrt(3), rel=1e-9)
    with pytest.raises(InvalidParams, match=r"delta=1.0 must lie in \(0, 1\)"):
        theorem1_bound(1.0, 1.0, 2)
    with pytest.raises(InvalidParams, match=r"delta=0.0 must lie in \(0, 1\)"):
        theorem1_bound(1.0, 0.0, 2)
    # m_required is exact: 4 * 3^36 needs 60 bits, more than a double holds
    assert theorem1_bound(1.0, 0.5, 3**9).m_required == 4 * 3**36
    assert theorem1_bound(1.0, 0.5, 2**15).m_required == 2**62
    with pytest.raises(InvalidParams, match=r"reaches 2\^63 rows"):
        theorem1_bound(2.0, 0.5, 2**15)


def test_exact_ric_examples():
    assert exact_ric(Matrix(np.eye(5)), 2) == pytest.approx(0.0, abs=1e-12)

    dup = np.column_stack([np.ones(4), np.ones(4), np.array([1.0, -1, 1, -1])])
    assert exact_ric(Matrix(dup), 2) == pytest.approx(1.0, rel=1e-12)

    wl = weil(5, 2)
    assert exact_ric(wl, 2) < 2 * coherence(wl)

    with pytest.raises(InvalidParams, match=r"C\(50,5\) = 2118760 subsets exceeds the cap"):
        exact_ric(Matrix(np.ones((2, 50)) - 2 * np.eye(2, 50)), 5)
    with pytest.raises(InvalidParams):
        exact_ric(Matrix(np.eye(3)), 4)


def test_exact_ric_at_one_builds_no_gram(monkeypatch):
    def no_gram(*args):
        raise AssertionError("delta_1 needs no Gram")
    monkeypatch.setattr(certify, "_hollow_gram", no_gram)
    monkeypatch.setattr(certify, "map_gram_strips", no_gram)
    assert exact_ric(weil(5, 2), 1) == 0.0
    assert exact_ric(Matrix(np.ones((1, 1_000_001))), 1) == 0.0  # no subset cap
    with pytest.raises(InvalidParams, match="column 1 is identically zero"):
        exact_ric(Matrix(np.array([[1.0, 0.0], [2.0, 0.0]])), 1)


def test_exact_ric_below_s_times_coherence():
    for mat in (alltop(5), weil(3, 2)):
        assert exact_ric(mat, 2) < 2 * coherence(mat)
        assert exact_ric(mat, 3) < 3 * coherence(mat)


REFEREE_SUBSETS = 350_000  # weil(5,2) at s = 3 has C(125,3) = 317 750


def _gaussians():
    rng = np.random.default_rng(17)
    return [Matrix(rng.standard_normal((6, 14))),
            Matrix(rng.standard_normal((5, 13)) + 1j * rng.standard_normal((5, 13)))]


def test_exact_ric_matches_subset_referee(subset_ric):
    cases = ([make(*args) for make, args in GALLERY]
             + [rademacher(*draw) for draw in SIGN_DRAWS] + _gaussians())
    for mat in cases:
        mu = coherence(mat)
        assert exact_ric(mat, 2) == mu  # delta_2 = mu, from the same strips
        for s in range(1, 5):
            if math.comb(mat.cols, s) > REFEREE_SUBSETS:
                continue
            delta = exact_ric(mat, s)
            assert abs(delta - subset_ric(mat.data, s)) <= 1e-13, (mat.meta, s)
            if s == 1:
                assert delta == 0.0
            elif mu >= 1e-8:  # below that, mu is roundoff of orthogonal columns
                assert mu <= delta * (1 + 1e-12), (mat.meta, s)
            assert delta <= (s - 1) * mu * (1 + 1e-12), (mat.meta, s)


def test_exact_ric_hollow_gram_spans_strips(strip_budget, subset_ric):
    for mat in _gaussians() + [weil(3, 2)]:  # several strips under the tiny budget
        for s in (3, 4):
            assert abs(exact_ric(mat, s) - subset_ric(mat.data, s)) <= 1e-13, (mat.meta, s)


def test_exact_ric_cubic_is_gershgorin_tight_on_weil():
    mat = weil(5, 2)
    assert exact_ric(mat, 3) == pytest.approx(2 * coherence(mat), rel=1e-15)


def test_exact_ric_within_coherence_bounds_on_orthogonal_columns(strip_budget):
    """Golomb columns are exactly orthogonal, so mu and delta_s are roundoff;
    the hollow Gram keeps delta_s within (s - 1) mu all the same."""
    for mat in (golomb_phase(7), golomb_phase(13), golomb_phase(31), golomb_stacked(23)):
        mu = coherence(mat)
        for s in (2, 3, 4):
            assert exact_ric(mat, s) <= (s - 1) * mu * (1 + 1e-12), (mat.meta, s)


@pytest.mark.parametrize("t", [1e-160, 1e-200, 1e-300])
def test_exact_ric_cubic_at_extreme_magnitudes(t):
    # columns e1, e2 + t e1, e3 + t e2: H is a path with weights t, so
    # delta_3 = sqrt(2) t, while p = 2 t^2 underflows unless scaled
    mat = Matrix(np.array([[1.0, t, 0.0], [0.0, 1.0, t], [0.0, 0.0, 1.0]]))
    mu, delta = coherence(mat), exact_ric(mat, 3)
    assert math.isfinite(delta)
    assert mu * (1 - 1e-12) <= delta <= 2 * mu * (1 + 1e-12)
    assert delta == pytest.approx(math.sqrt(2) * t, rel=1e-14)


def test_exact_ric_cubic_on_orthonormal_columns():
    mat = Matrix(np.eye(5))
    assert exact_ric(mat, 3) == 0.0 == coherence(mat)


def test_exact_ric_subset_cap(monkeypatch, subset_ric):
    monkeypatch.setattr(certify, "RIC_SUBSET_CAP", 9)
    rng = np.random.default_rng(9)
    with pytest.raises(InvalidParams, match=r"C\(5,3\) = 10 subsets exceeds the cap 9"):
        exact_ric(Matrix(rng.standard_normal((4, 5))), 3)
    data = rng.standard_normal((4, 4))  # C(4,3) = 4
    assert abs(exact_ric(Matrix(data), 3) - subset_ric(data, 3)) <= 1e-13


def test_exact_ric_at_two_has_no_subset_cap():
    mat = rademacher(16, 1500, seed=8)  # C(1500,2) = 1 124 250 pairs
    assert math.comb(1500, 2) > 1_000_000
    assert exact_ric(mat, 2) == coherence(mat)
    with pytest.raises(InvalidParams, match=r"C\(1500,3\) = 561375500 subsets exceeds the cap"):
        exact_ric(mat, 3)


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


def test_probe_supports_are_uniform_s_subsets():
    n, s, draws = 5, 2, 100_000
    blocks = list(certify._sparse_trials(12, n, s, draws, complex_field=False))
    assert [X.shape[1] for X in blocks] == [2048] * 48 + [1696]  # the sampler's blocks
    X = np.concatenate(blocks, axis=1)
    nonzero = X != 0.0
    assert (nonzero.sum(axis=0) == s).all()  # s distinct indices per trial
    subsets, counts = np.unique(nonzero.T, axis=0, return_counts=True)
    assert len(subsets) == math.comb(n, s)
    p = 1 / math.comb(n, s)
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 4 * sigma), counts


@pytest.mark.parametrize("complex_field", [False, True])
def test_probe_sampler_edges(complex_field):
    one, = certify._sparse_trials(4, 6, 1, 500, complex_field)
    full, = certify._sparse_trials(4, 6, 6, 500, complex_field)
    assert ((one != 0).sum(axis=0) == 1).all()
    assert set(np.nonzero(one)[0]) == set(range(6))
    assert (full != 0).all()
    assert one.dtype == full.dtype == (np.complex128 if complex_field else np.float64)


def test_probe_l1_single_column_on_real_matrix():
    # at s = 1 every ratio is a column l1 norm, for any column scaling
    data = np.random.default_rng(5).standard_normal((40, 6)) * np.arange(1.0, 7.0)
    col_l1 = np.abs(data).sum(axis=0)
    report = probe_l1(Matrix(data), 1, trials=300, seed=2)
    assert report.min_ratio == pytest.approx(col_l1.min(), rel=1e-12)
    assert report.max_ratio == pytest.approx(col_l1.max(), rel=1e-12)
    assert report.sampler == certify.SAMPLER == 2


def _dense_probe(arr: np.ndarray, s: int, trials: int, seed: int) -> tuple[float, float]:
    """Smallest and largest l1/l2 ratio of probe_l1's trials, each block's
    product A X formed whole."""
    ratios = []
    for X in certify._sparse_trials(seed, arr.shape[1], s, trials, np.iscomplexobj(arr)):
        ratios.append(np.abs(arr @ X).sum(axis=0) / np.linalg.norm(X, axis=0))
    ratios = np.concatenate(ratios)
    return float(ratios.min()), float(ratios.max())


def test_probe_l1_chunks_match_dense_referee(strip_budget):
    # under the tiny budget the real product runs in chunks of a few
    # columns and the complex ones in single columns
    rng = np.random.default_rng(6)
    for mat in (golomb_phase(3), weil(5, 1), Matrix(rng.standard_normal((40, 9)))):
        for seed in range(8):  # a skipped trial shows once it holds an extreme
            report = probe_l1(mat, 2, trials=2100, seed=seed)  # two blocks of trials
            lo, hi = _dense_probe(mat.data, 2, 2100, seed)
            assert report.min_ratio == pytest.approx(lo, rel=1e-12), (mat.meta, seed)
            assert report.max_ratio == pytest.approx(hi, rel=1e-12), (mat.meta, seed)


@pytest.mark.parametrize("budget", [1 << 20, 4 << 20])
def test_probe_l1_holds_one_product_chunk(monkeypatch, budget):
    # allowed: one column chunk's product A X under the budget, its |A X| of
    # half that beside it when A is complex, and O(N) per trial of one block;
    # a whole block's product is 32 MiB real and 64 MiB complex here
    m, n, trials = 2048, 8, 2100
    monkeypatch.setattr("ripforge.matrix_core.GRAM_STRIP_BYTES", budget)
    slack = 3 * n * 2048 * 16  # under a budget, so a second product cannot hide in it
    rng = np.random.default_rng(7)
    real = rng.standard_normal((m, n))
    for mat in (Matrix(real), Matrix(real + 1j * rng.standard_normal((m, n)))):
        report, peak = _traced_peak(lambda: probe_l1(mat, 2, trials, seed=1))
        held = budget * 3 // 2 if mat.field_name == "complex" else budget
        assert peak <= held + slack, (mat.field_name, peak)
        lo, hi = _dense_probe(mat.data, 2, trials, 1)
        assert report.min_ratio == pytest.approx(lo, rel=1e-12), mat.field_name
        assert report.max_ratio == pytest.approx(hi, rel=1e-12), mat.field_name


def test_certify_sign_matrix_report():
    mat, _ = las_vegas(64, 16, seed=4)
    report = certify_sign_matrix(mat)
    assert len(dataclasses.fields(report)) == 9  # the certificate only; no Theorem 1
    assert report.cond_a_pass and report.cond_b_pass
    assert report.kappa == pytest.approx(default_kappa(16))
    assert report.coherence == pytest.approx(report.max_pair_sum / 64)
    bound = theorem1_bound(report.kappa, 0.5, 2)
    assert bound.m_required == math.ceil(report.kappa**2 / 0.25 * 16)
    assert bound.distortion_bound == pytest.approx(bound.beta / bound.alpha)
