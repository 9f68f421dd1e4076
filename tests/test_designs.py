import math
import tracemalloc

import numpy as np
import pytest

from ripforge import matrix_core
from ripforge.constructors import alltop, devore, golomb_stacked, rademacher, weil
from ripforge.designs import (EpsilonChain, WeightedPointSet, delta_closed_form,
                              delta_monte_carlo, design_defect, matrix_to_design,
                              read_design, tensor_defect_explicit, write_design)
from ripforge.errors import InvalidParams, ParseError
from ripforge.matrix_core import Matrix, write_cmx


def epsilon_chain(direction: str, input_eps: float, n: int | None = None,
                  k: int | None = None, field: str | None = None) -> float:
    """Convert between embedding error (1), design defect (2), tensor
    deviation (3): the referee for EpsilonChain.from_defect.

    "2to3": eps3 = sqrt(eps2); "3to1": eps1 = eps3 / delta_{n,2k};
    "1to2": eps2 = 4 eps1 delta_{n,2k}, valid only for eps1 <= 1/2.
    """
    if input_eps < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if direction == "2to3":
        return math.sqrt(input_eps)
    if direction in ("3to1", "1to2"):
        if n is None or k is None or field is None:
            raise ValueError(f"direction {direction!r} needs n, k and field")
        delta = delta_closed_form(n, k, field)
        if direction == "3to1":
            return input_eps / delta
        if input_eps > 0.5:
            raise ValueError("the 1 -> 2 conversion requires eps1 <= 1/2")
        return 4.0 * input_eps * delta
    raise ValueError(f"unknown direction {direction!r}")


def random_point_set(rng, n_points, dim, complex_field):
    pts = rng.standard_normal((n_points, dim))
    if complex_field:
        pts = pts + 1j * rng.standard_normal((n_points, dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    w = rng.random(n_points)
    return WeightedPointSet(pts, w / w.sum())


def test_delta_closed_form_examples():
    assert delta_closed_form(2, 1, "real") == pytest.approx(0.5, rel=0)
    assert delta_closed_form(1, 7, "real") == 1.0
    assert delta_closed_form(3, 2, "complex") == pytest.approx(1 / 6, rel=1e-15)
    # real n=3, k=2: 3 / (n (n+2)) = 1/5
    assert delta_closed_form(3, 2, "real") == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(InvalidParams):
        delta_closed_form(0, 1, "real")
    with pytest.raises(InvalidParams):
        delta_closed_form(2, 1, "quaternionic")


@pytest.mark.parametrize("n,k,field", [(2, 1, "real"), (3, 2, "complex"),
                                       (1, 3, "real"), (4, 2, "real")])
def test_delta_monte_carlo_agrees_with_closed_form(n, k, field):
    estimate, stderr = delta_monte_carlo(n, k, field, samples=200_000, seed=0)
    target = delta_closed_form(n, k, field)
    if n == 1:
        assert estimate == pytest.approx(1.0, abs=1e-12) and stderr <= 1e-12
    else:
        assert abs(estimate - target) <= 3 * stderr


def test_delta_monte_carlo_refusals():
    with pytest.raises(InvalidParams, match="need n >= 1 and k >= 1"):
        delta_monte_carlo(0, 1, "real", samples=10, seed=0)
    with pytest.raises(InvalidParams, match="need at least 2 samples"):
        delta_monte_carlo(3, 1, "real", samples=1, seed=0)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_delta_monte_carlo_draws_under_the_strip_budget():
    # one chunk's complex draw is at most a budget; its real and imaginary
    # parts and their sum stay under two and a half
    _, peak = _traced_peak(lambda: delta_monte_carlo(256, 1, "complex", samples=5000, seed=0))
    assert peak <= 2.5 * matrix_core.GRAM_STRIP_BYTES, peak


def test_point_set_validation():
    good = WeightedPointSet(np.eye(3), np.ones(3) / 3)
    assert good.dim == 3 and good.field_name == "real"
    with pytest.raises(InvalidParams, match="points must lie on the unit sphere"):
        WeightedPointSet(2 * np.eye(3), np.ones(3) / 3)
    with pytest.raises(InvalidParams, match="weights must sum to 1"):
        WeightedPointSet(np.eye(3), np.array([0.5, 0.5, 0.5]))
    with pytest.raises(InvalidParams, match="weights must be nonnegative"):
        WeightedPointSet(np.eye(2), np.array([1.5, -0.5]))
    with pytest.raises(InvalidParams, match="points and weights must be finite"):
        WeightedPointSet(np.array([[1.0, 0.0], [np.nan, 0.0]]), np.ones(2) / 2)
    with pytest.raises(InvalidParams, match="points and weights must be finite"):
        WeightedPointSet(np.eye(2), np.array([np.nan, 1.0]))
    with pytest.raises(InvalidParams, match="points must form a nonempty N x n array"):
        WeightedPointSet(np.ones(3), np.ones(3) / 3)
    with pytest.raises(InvalidParams, match="need one weight per point"):
        WeightedPointSet(np.eye(3), np.ones(2) / 2)


def test_design_defect_single_point():
    for k in (1, 2, 3):
        ps = WeightedPointSet(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
        assert design_defect(ps, k) == pytest.approx(
            1.0 - delta_closed_form(3, k, "real"), rel=1e-14)


def test_design_defect_orthonormal_basis_is_tight_2_design():
    for n in (2, 3, 5):
        ps = WeightedPointSet(np.eye(n, dtype=complex), np.ones(n) / n)
        assert abs(design_defect(ps, 1)) <= 1e-14


def test_design_defect_from_stacked_isometry():
    ps, total = matrix_to_design(golomb_stacked(3), 2)
    assert total == pytest.approx(6.0, abs=1e-10)    # p (p+1) / 2
    assert design_defect(ps, 2) <= 1e-10
    assert design_defect(ps, 2) >= -1e-10


def test_sidelnikov_nonnegativity(dense_defect):
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.choice([2, 3, 5]))
        k = int(rng.choice([1, 2, 3]))
        ps = random_point_set(rng, int(rng.integers(1, 8)), n, bool(rng.integers(2)))
        assert design_defect(ps, k) >= -1e-10
        assert design_defect(ps, k) == pytest.approx(dense_defect(ps, k), abs=1e-14)


def test_design_defect_matches_dense_referee(strip_budget, dense_defect):
    gallery = [weil(5, 2), weil(13, 2), alltop(47), devore(13, 2), golomb_stacked(23),
               rademacher(40, 7, seed=1), rademacher(9, 5, seed=2)]
    for mat in gallery:
        for k in (1, 2):
            ps, _ = matrix_to_design(mat, k)
            assert design_defect(ps, k) == pytest.approx(dense_defect(ps, k), abs=1e-14), \
                (mat.meta, k)


def test_design_defect_matches_strip_referee_bit_for_bit(strip_budget, strip_defect):
    # odd point counts and dimensions: one strip taller than the row chunk with a
    # ragged last chunk under the shipped budget, strips of a row or two under the tiny one
    rng = np.random.default_rng(5)
    sets = [random_point_set(rng, n_points, dim, complex_field)
            for n_points, dim in ((37, 5), (301, 3), (1, 4), (2, 7))
            for complex_field in (False, True)]
    if strip_budget == "default":  # 18 strips of 171 rows and one of 169
        sets += [matrix_to_design(golomb_stacked(23), 2)[0], matrix_to_design(devore(13, 2), 1)[0]]
    for ps in sets:
        for k in (1, 2, 3):
            assert design_defect(ps, k) == strip_defect(ps, k), (ps.points.shape, k)


@pytest.mark.parametrize("budget", [1 << 20, 4 << 20])
def test_design_defect_holds_one_strip(monkeypatch, strip_defect, budget):
    # allowed: one strip, one row's |g|^(2k) with its complex temporaries, and
    # O(N n); the strip's conjugate, product or power beside it is a budget more
    n_points, dim = 1001, 5
    monkeypatch.setattr("ripforge.matrix_core.GRAM_STRIP_BYTES", budget)
    slack = 2 * n_points * 16 + 2 * n_points * dim * 16
    rng = np.random.default_rng(4)
    for complex_field in (False, True):
        ps = random_point_set(rng, n_points, dim, complex_field)
        for k in (1, 2):
            defect, peak = _traced_peak(lambda: design_defect(ps, k))
            assert peak <= budget + slack, (complex_field, k, peak)
            assert defect == strip_defect(ps, k)


def test_design_defect_of_the_ps23_workload_holds_one_strip(strip_defect):
    # the gram-cert shape at the shipped budget: strips of 171 rows of 3060 points
    ps = matrix_to_design(golomb_stacked(23), 2)[0]
    n_points, dim = ps.points.shape
    defect, peak = _traced_peak(lambda: design_defect(ps, 2))
    assert peak <= matrix_core.GRAM_STRIP_BYTES + 2 * n_points * 16 + 2 * n_points * dim * 16, peak
    assert defect == strip_defect(ps, 2)


def test_tensor_defect_explicit_agrees_with_gram_sum():
    rng = np.random.default_rng(1)
    ps = random_point_set(rng, 5, 3, complex_field=True)
    assert tensor_defect_explicit(ps) == pytest.approx(design_defect(ps, 1), abs=1e-12)
    basis = WeightedPointSet(np.eye(4), np.ones(4) / 4)
    assert tensor_defect_explicit(basis) <= 1e-14
    with pytest.raises(InvalidParams, match="explicit moment matrix capped at n <= 64, got n=65"):
        tensor_defect_explicit(WeightedPointSet(np.eye(65), np.ones(65) / 65))


def test_matrix_to_design_identity_rows():
    ps, total = matrix_to_design(np.eye(4), 1)
    assert np.allclose(ps.weights, 0.25)
    assert total == pytest.approx(4.0)
    with pytest.raises(InvalidParams, match="row 1 is identically zero"):
        matrix_to_design(np.array([[1.0, 0.0], [0.0, 0.0]]), 1)


def test_epsilon_chain_conversions():
    assert epsilon_chain("2to3", 0.04) == pytest.approx(0.2, rel=1e-15)
    assert epsilon_chain("3to1", 0.0, n=3, k=2, field="complex") == 0.0
    # eps1 = eps3 / delta
    assert epsilon_chain("3to1", 0.05, n=3, k=2, field="complex") == pytest.approx(
        0.05 * 6, rel=1e-14)
    # eps2 = 4 eps1 delta
    assert epsilon_chain("1to2", 0.3, n=3, k=2, field="complex") == pytest.approx(
        4 * 0.3 / 6, rel=1e-14)
    with pytest.raises(ValueError, match="eps1 <= 1/2"):
        epsilon_chain("1to2", 0.6, n=3, k=2, field="complex")
    with pytest.raises(ValueError, match="needs n, k and field"):
        epsilon_chain("3to1", 0.1)
    with pytest.raises(ValueError, match="unknown direction"):
        epsilon_chain("sideways", 0.1)


def test_epsilon_chain_dataclass_consistency():
    chain = EpsilonChain.from_defect(0.04, n=3, k=2, field="complex")
    assert chain.eps3 == pytest.approx(0.2)
    assert chain.eps1 == pytest.approx(0.2 * 6)
    assert chain.eps2 == 0.04
    assert chain.eps3 == epsilon_chain("2to3", chain.eps2)
    assert chain.eps1 == epsilon_chain("3to1", chain.eps3, n=3, k=2, field="complex")


def test_design_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    ps = random_point_set(rng, 6, 3, complex_field=True)
    path = tmp_path / "ps.cmx"
    write_design(ps, path, {"k": 2})
    back = read_design(path)
    assert np.array_equal(back.points, ps.points)
    assert np.array_equal(back.weights, ps.weights)

    # one number per row, each within float range
    for weights in (None, 5, [0.5] * 5, ["a"] * 6, [[1]] * 6, {"a": 1}, [10**400] * 6):
        write_cmx(Matrix(ps.points, meta={"weights": weights}), path)
        with pytest.raises(ParseError):
            read_design(path)
