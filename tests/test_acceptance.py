"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ripforge.analysis import l2_identity, l4_identity, quadruple_tensor
from ripforge.certify import (coherence, condition_b, default_kappa, exact_ric,
                              las_vegas, probe_l1, theorem1_bound)
from ripforge.constructors import (alltop, composed, devore, golomb_phase,
                                   golomb_stacked, weil)
from ripforge.designs import (delta_closed_form, delta_monte_carlo, design_defect,
                              matrix_to_design, tensor_defect_explicit)
from ripforge.golomb import build_ruler, verify_ruler
from ripforge.matrix_core import Matrix
from ripforge.num_theory import is_prime
from ripforge.recovery import iht


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{name}]: FAIL", flush=True)
        raise
    print(f"criterion {num:2d} [{name}]: PASS", flush=True)


def complex_gaussians(rng, n, count):
    return rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))


@pytest.fixture(scope="module")
def certified_1775():
    """The criterion-9 instance: N=32, s=2, delta=0.5, m = ceil(k^2 d^-2 s^4)."""
    kappa = default_kappa(32)
    bound = theorem1_bound(kappa, 0.5, 2)
    assert bound.m_required == 1775
    start = time.perf_counter()
    mat, rounds = las_vegas(bound.m_required, 32, kappa=kappa, seed=2026)
    elapsed = time.perf_counter() - start
    return mat, bound, elapsed


def test_criterion_1_golomb_rulers():
    with criterion(1, "golomb rulers for all primes up to 101"):
        start = time.perf_counter()
        for p in range(3, 102):
            if is_prime(p):
                ruler = build_ruler(p)
                assert verify_ruler(ruler.marks)
                assert ruler.q == 3 * p * (p - 1) + 1
        assert time.perf_counter() - start < 1.0


def test_criterion_2_exact_l4_isometry():
    with criterion(2, "exact l2 -> l4 isometry of the stacked matrix"):
        rng = np.random.default_rng(1)
        for p in (3, 5, 7):
            mat = golomb_stacked(p)
            X = complex_gaussians(rng, p, 1000)
            Y = mat.data @ X
            l4 = (np.abs(Y) ** 4).sum(axis=0) ** 0.25
            l2 = np.linalg.norm(X, axis=0)
            assert np.max(np.abs(l4 - l2)) <= 1e-10 * np.min(l2) + 1e-10 * np.max(l2)
            assert np.all(np.abs(l4 - l2) <= 1e-10 * l2)


def test_criterion_3_l1_embedding_bounds():
    with criterion(3, "two-sided l1 embedding of the phase matrix"):
        rng = np.random.default_rng(2)
        for p in (3, 5, 7):
            mat = golomb_phase(p)
            m = mat.rows
            X = complex_gaussians(rng, p, 1000)
            r1 = np.abs(mat.data @ X).sum(axis=0) / np.linalg.norm(X, axis=0)
            assert np.all(r1 >= m / np.sqrt(2) * (1 - 1e-12))
            assert np.all(r1 <= m * (1 + 1e-12))
            empirical = r1.max() / r1.min()
            print(f"    p={p}: empirical distortion {empirical:.6f}", flush=True)
            assert empirical <= np.sqrt(2) + 1e-9


def test_criterion_4_column_orthogonality():
    with criterion(4, "phase-matrix column orthogonality"):
        rng = np.random.default_rng(3)
        for p in (3, 5, 7):
            mat = golomb_phase(p)
            m = mat.rows
            X = complex_gaussians(rng, p, 1000)
            energy = (np.abs(mat.data @ X) ** 2).sum(axis=0)
            target = m * np.linalg.norm(X, axis=0) ** 2
            assert np.max(np.abs(energy - target) / target) <= 1e-10


def test_criterion_5_norm_identity_oracle():
    with criterion(5, "l2/l4 norm identities on random unimodular matrices"):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = int(rng.integers(1, 51))
            r = int(rng.integers(1, 11))
            B = np.exp(2j * np.pi * rng.random((q, r)))
            x = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            assert l2_identity(B, x).abs_gap <= 1e-8
            rep = l4_identity(B, x, quadruple_tensor(B))
            assert rep.abs_gap <= 1e-8 and rep.abs_gap_split <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_6_holder_floor():
    with criterion(6, "l1 floor from l2 and l4 norms"):
        rng = np.random.default_rng(5)
        ys = rng.standard_normal((100_000, 8)) + 1j * rng.standard_normal((100_000, 8))
        l1 = np.abs(ys).sum(axis=1)
        l2 = np.linalg.norm(ys, axis=1)
        l4 = (np.abs(ys) ** 4).sum(axis=1) ** 0.25
        assert np.all(l2**3 / l4**2 <= l1 * (1 + 1e-12))
        # equality on constant-modulus vectors
        flat = 1.7 * np.exp(2j * np.pi * rng.random((1000, 8)))
        l1f = np.abs(flat).sum(axis=1)
        l2f = np.linalg.norm(flat, axis=1)
        l4f = (np.abs(flat) ** 4).sum(axis=1) ** 0.25
        assert np.max(np.abs(l2f**3 / l4f**2 - l1f) / l1f) <= 1e-12


def test_criterion_7_coherence_gallery():
    with criterion(7, "coherence of the deterministic families"):
        for m in (5, 7, 11):
            mat = alltop(m)
            assert abs(coherence(mat) - 1 / math.sqrt(m)) <= 1e-10
            assert exact_ric(mat, 2) < 2 * coherence(mat)
        for p, d in ((3, 1), (5, 2), (7, 2)):
            mat = weil(p, d)
            assert coherence(mat) <= d / math.sqrt(p) + 1e-12
            assert exact_ric(mat, 2) < 2 * coherence(mat)
        for p, d in ((3, 2), (5, 2)):
            mat = devore(p, d)
            assert coherence(mat) <= d / p + 1e-12
            assert exact_ric(mat, 2) < 2 * coherence(mat)


def test_criterion_8_las_vegas_statistics():
    with criterion(8, "Las Vegas certification statistics at N=16, m=64"):
        start = time.perf_counter()
        kappa = default_kappa(16)
        total_rounds = 0
        failed_rounds = 0
        for seed in range(500):
            _, rounds = las_vegas(64, 16, kappa=kappa, seed=seed)
            total_rounds += rounds
            failed_rounds += rounds - 1
        failure_rate = failed_rounds / total_rounds
        mean_rounds = total_rounds / 500
        print(f"    failure rate {failure_rate:.4f}, mean rounds {mean_rounds:.3f}",
              flush=True)
        assert failure_rate <= 1 / 3 + 0.05
        assert mean_rounds <= 1.6
        assert time.perf_counter() - start < 120.0


def test_criterion_9_theorem_envelope(certified_1775):
    with criterion(9, "certified embedding envelope at N=32, s=2, m=1775"):
        mat, bound, _ = certified_1775
        kappa = default_kappa(32)
        start = time.perf_counter()
        check_b = condition_b(mat, kappa)
        cond_b_seconds = time.perf_counter() - start
        assert check_b.passed
        assert cond_b_seconds < 60.0

        report = probe_l1(mat, 2, trials=10_000, seed=7)
        m = mat.rows
        print(f"    ratios in [{report.min_ratio:.2f}, {report.max_ratio:.2f}], "
              f"envelope [{bound.alpha * m:.2f}, {bound.beta * m:.2f}], "
              f"cond(b) {cond_b_seconds * 1e3:.0f} ms", flush=True)
        assert report.min_ratio >= bound.alpha * m
        assert report.max_ratio <= bound.beta * m


def test_criterion_10_designs():
    with criterion(10, "sphere moments, design defects, Sidelnikov"):
        # (i) closed forms vs Monte Carlo at 1e6 samples
        for n in range(1, 5):
            for k in range(1, 4):
                for field in ("real", "complex"):
                    est, se = delta_monte_carlo(n, k, field, samples=1_000_000,
                                                seed=2026)
                    target = delta_closed_form(n, k, field)
                    assert abs(est - target) <= 3 * se + 1e-12
        # (ii) stacked-matrix designs are exact 4-designs
        for p in (3, 5):
            ps, total = matrix_to_design(golomb_stacked(p), 2)
            assert abs(total - p * (p + 1) / 2) <= 1e-10
            assert design_defect(ps, 2) <= 1e-10
            assert design_defect(ps, 2) >= -1e-10
        # (iii) Sidelnikov nonnegativity on random point sets
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.choice([2, 3, 5]))
            k = int(rng.choice([1, 2, 3]))
            count = int(rng.integers(1, 8))
            pts = rng.standard_normal((count, n))
            if rng.integers(2):
                pts = pts + 1j * rng.standard_normal((count, n))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            w = rng.random(count)
            from ripforge.designs import WeightedPointSet
            ps = WeightedPointSet(pts, w / w.sum())
            assert design_defect(ps, k) >= -1e-10
        # (iv) explicit moment matrix agrees with the Gram-sum defect at k=1
        rng = np.random.default_rng(9)
        for _ in range(50):
            pts = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            w = rng.random(6)
            from ripforge.designs import WeightedPointSet
            ps = WeightedPointSet(pts, w / w.sum())
            assert abs(tensor_defect_explicit(ps) - design_defect(ps, 1)) <= 1e-10


def test_criterion_11_composed_construction(poly_value):
    with criterion(11, "composed construction at p=3, N=20, s=1"):
        mat = composed(1, 20, p=3)
        product = golomb_phase(3).data @ weil(3, 2, 20).data
        assert np.max(np.abs(mat.data - product)) <= 1e-10 * np.max(np.abs(product))

        # direct evaluation of the entry formula
        marks = build_ruler(3).marks
        m = 37
        j = np.arange(m)[:, None]
        direct = np.zeros((m, 20), dtype=complex)
        for col in range(20):
            for k in range(3):
                direct[:, col:col + 1] += np.exp(
                    2j * np.pi * (j * marks[k] / m + k * poly_value(3, 2, col, k) / 3.0))
        direct /= np.sqrt(3)
        assert np.max(np.abs(mat.data - direct)) <= 1e-10 * np.max(np.abs(direct))

        report = probe_l1(mat, 1, trials=10_000, seed=10)
        print(f"    1-sparse empirical distortion {report.empirical_distortion:.6f}",
              flush=True)
        assert report.empirical_distortion <= 2.0


def test_criterion_12_recovery_demo(certified_1775):
    with criterion(12, "sparse recovery on certified vs broken matrix"):
        mat, _, _ = certified_1775
        broken_data = np.array(mat.data)
        broken_data[:, 1::2] = broken_data[:, 0::2]
        broken = Matrix(broken_data)

        rng = np.random.default_rng(11)
        recovered = recovered_broken = 0
        for _ in range(100):
            x0 = np.zeros(32)
            support = rng.choice(32, size=2, replace=False)
            x0[support] = rng.standard_normal(2)
            for matrix, counter in ((mat, "good"), (broken, "bad")):
                res = iht(matrix, matrix.data @ x0, 2)
                ok = np.linalg.norm(res.estimate - x0) <= 1e-6 * np.linalg.norm(x0)
                if counter == "good":
                    recovered += ok
                else:
                    recovered_broken += ok
        print(f"    certified {recovered}/100, broken {recovered_broken}/100",
              flush=True)
        assert recovered >= 95
        assert recovered_broken < 50
        assert recovered > recovered_broken
