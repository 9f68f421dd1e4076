import numpy as np
import pytest

from ripforge.designs import delta_closed_form


def _poly_value(p: int, d: int, i: int, k: int) -> int:
    """f_i(k) mod p, where polynomial i has the base-p digits of i as its
    coefficients c_0, ..., c_d, c_0 least significant."""
    coeffs = []
    while i and len(coeffs) <= d:  # the digits above the top nonzero one are zero
        i, c = divmod(i, p)
        coeffs.append(c)
    assert i == 0, "polynomial index beyond the family p^(d+1)"
    return sum(c * k**e for e, c in enumerate(coeffs)) % p


def _dense_max_pair(arr: np.ndarray, unit: bool) -> tuple[float, tuple[int, int]]:
    """max |<a_j, a_l>| over j != l from the full N x N Gram (columns
    unit-normalized when unit), and the first pair in row-major order at it."""
    gram = np.abs(arr.conj().T @ arr)
    if unit:
        norms = np.linalg.norm(arr, axis=0)
        gram = gram / np.outer(norms, norms)
    np.fill_diagonal(gram, -1)
    j, l = np.unravel_index(int(np.argmax(gram)), gram.shape)
    return gram[j, l], (int(j), int(l))


def _dense_defect(ps, k: int) -> float:
    """Gram-sum design defect from the full Gram of the points."""
    gram = ps.points @ ps.points.conj().T
    return (float(ps.weights @ np.abs(gram) ** (2 * k) @ ps.weights)
            - delta_closed_form(ps.dim, k, ps.field_name))


@pytest.fixture
def poly_value():
    """Scalar oracle for the polynomial enumeration of the Weil/DeVore families."""
    return _poly_value


@pytest.fixture
def dense_max_pair():
    """Dense referee for the Gram-strip reducer behind coherence and condition (a)."""
    return _dense_max_pair


@pytest.fixture
def dense_defect():
    """Dense referee for the Gram-strip sum behind design_defect."""
    return _dense_defect


@pytest.fixture(params=["default", "tiny"])
def strip_budget(request, monkeypatch):
    """Run once with the shipped GRAM_STRIP_BYTES and once with a budget so
    small that every test-sized Gram spans many strips of a few rows."""
    if request.param == "tiny":
        monkeypatch.setattr("ripforge.matrix_core.GRAM_STRIP_BYTES", 1000)
    return request.param
