import numpy as np
import pytest

from ripforge.constructors import golomb_stacked
from ripforge.designs import (EpsilonChain, WeightedPointSet, delta_closed_form,
                              delta_monte_carlo, design_defect, epsilon_chain,
                              matrix_to_design, read_design, tensor_defect_explicit,
                              write_design)
from ripforge.errors import (EpsilonOutOfRange, InvalidParams, InvalidPointSet,
                             UnsupportedK, ZeroRow)


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


def test_point_set_validation():
    good = WeightedPointSet(np.eye(3), np.ones(3) / 3)
    assert good.dim == 3 and good.field_name == "real"
    with pytest.raises(InvalidPointSet):
        WeightedPointSet(2 * np.eye(3), np.ones(3) / 3)      # not unit
    with pytest.raises(InvalidPointSet):
        WeightedPointSet(np.eye(3), np.array([0.5, 0.5, 0.5]))   # sums to 1.5
    with pytest.raises(InvalidPointSet):
        WeightedPointSet(np.eye(2), np.array([1.5, -0.5]))   # negative weight
    with pytest.raises(InvalidPointSet):
        WeightedPointSet(np.array([[1.0, 0.0], [np.nan, 0.0]]), np.ones(2) / 2)
    with pytest.raises(InvalidPointSet):
        WeightedPointSet(np.eye(2), np.array([np.nan, 1.0]))


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


def test_sidelnikov_nonnegativity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.choice([2, 3, 5]))
        k = int(rng.choice([1, 2, 3]))
        ps = random_point_set(rng, int(rng.integers(1, 8)), n, bool(rng.integers(2)))
        assert design_defect(ps, k) >= -1e-10


def test_tensor_defect_explicit_agrees_with_gram_sum():
    rng = np.random.default_rng(1)
    ps = random_point_set(rng, 5, 3, complex_field=True)
    assert tensor_defect_explicit(ps) == pytest.approx(design_defect(ps, 1), abs=1e-12)
    basis = WeightedPointSet(np.eye(4), np.ones(4) / 4)
    assert tensor_defect_explicit(basis) <= 1e-14
    with pytest.raises(UnsupportedK):
        tensor_defect_explicit(ps, k=2)


def test_matrix_to_design_identity_rows():
    ps, total = matrix_to_design(np.eye(4), 1)
    assert np.allclose(ps.weights, 0.25)
    assert total == pytest.approx(4.0)
    with pytest.raises(ZeroRow):
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
    with pytest.raises(EpsilonOutOfRange):
        epsilon_chain("1to2", 0.6, n=3, k=2, field="complex")
    with pytest.raises(InvalidParams):
        epsilon_chain("3to1", 0.1)  # needs n, k, field
    with pytest.raises(InvalidParams):
        epsilon_chain("sideways", 0.1)


def test_epsilon_chain_dataclass_consistency():
    chain = EpsilonChain.from_defect(0.04, n=3, k=2, field="complex")
    assert chain.eps3 == pytest.approx(0.2)
    assert chain.eps1 == pytest.approx(0.2 * 6)
    assert chain.eps2 == 0.04


def test_design_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    ps = random_point_set(rng, 6, 3, complex_field=True)
    path = tmp_path / "ps.cmx"
    write_design(ps, path, extra_meta={"k": 2})
    back = read_design(path)
    assert np.array_equal(back.points, ps.points)
    assert np.array_equal(back.weights, ps.weights)
