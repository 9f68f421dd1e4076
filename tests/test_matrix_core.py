import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ripforge.constructors import golomb_phase, weil
from ripforge.errors import DimensionMismatch, NonFiniteEntry, ParseError
from ripforge.matrix_core import Matrix, matvec, norm, read_cmx, write_cmx


def test_norm_examples():
    assert norm([3, 4], 2) == pytest.approx(5.0, abs=0)
    assert norm(np.ones(17), 1) == pytest.approx(17.0)
    assert norm([3, 4], 4) == pytest.approx(337.0**0.25, rel=1e-15)
    assert norm([3 + 4j], 2) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        norm([1.0], 0.5)


@given(hnp.arrays(np.float64, st.integers(1, 12),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_norm_monotone_in_exponent(v):
    assert norm(v, 1) >= norm(v, 2) - 1e-9 * max(1.0, norm(v, 1))
    assert norm(v, 2) >= norm(v, 4) - 1e-9 * max(1.0, norm(v, 2))


def test_matvec_examples():
    ident = Matrix(np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(matvec(ident, x), x)
    assert np.array_equal(matvec(Matrix(np.zeros((2, 2))), np.ones(2)), np.zeros(2))
    a2 = golomb_phase(3)
    col0 = matvec(a2, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(col0, a2.data[:, 0])
    assert np.allclose(np.abs(col0), 1.0)
    with pytest.raises(DimensionMismatch):
        matvec(ident, np.ones(4))


def test_matvec_promotes_real_matrix_to_complex_vector():
    ident = Matrix(np.eye(2))
    x = np.array([1 + 2j, -1j])
    out = matvec(ident, x)
    assert out.dtype == np.complex128
    assert np.array_equal(out, x)


def test_matrix_is_immutable_and_2d():
    mat = Matrix(np.eye(2))
    with pytest.raises(ValueError):
        mat.data[0, 0] = 5.0
    with pytest.raises(DimensionMismatch):
        Matrix(np.ones(3))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(NonFiniteEntry):
            Matrix(np.array([[1.0, bad]]))


def test_cmx_round_trip_identity(tmp_path):
    path = tmp_path / "eye.cmx"
    mat = Matrix(np.eye(2), meta={"construction": "identity"})
    write_cmx(mat, path)
    back = read_cmx(path)
    assert np.array_equal(back.data, mat.data)
    assert back.meta == mat.meta
    assert back.field_name == "real"


def test_cmx_round_trip_weil_meta(tmp_path):
    path = tmp_path / "w.cmx"
    mat = weil(3, 1)
    write_cmx(mat, path)
    back = read_cmx(path)
    assert np.array_equal(back.data, mat.data)  # bit-exact
    assert back.meta == mat.meta
    assert back.field_name == "complex"


def test_cmx_round_trip_many_random_matrices(tmp_path):
    path = tmp_path / "r.cmx"
    rng = np.random.default_rng(0)
    for i in range(1000):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        data = rng.standard_normal(shape) * 10.0 ** rng.integers(-200, 200)
        if i % 2:
            data = data + 1j * rng.standard_normal(shape)
        write_cmx(Matrix(data), path)
        assert np.array_equal(read_cmx(path).data, data)


@settings(max_examples=60)
@given(hnp.arrays(np.complex128, (3, 2),
                  elements=st.complex_numbers(allow_nan=False, allow_infinity=False,
                                              max_magnitude=1e150)))
def test_cmx_round_trip_hypothesis(tmp_path_factory, z):
    path = tmp_path_factory.mktemp("cmx") / "h.cmx"
    write_cmx(Matrix(z), path)
    assert np.array_equal(read_cmx(path).data, z.astype(np.complex128))


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_cmx_parse_errors(tmp_path):
    path = tmp_path / "bad.cmx"

    _write_lines(path, ["#notcmx"])
    with pytest.raises(ParseError):
        read_cmx(path)

    # rows=2 but 3 data lines
    _write_lines(path, ["#cmx 1", "field real", "rows 2", "cols 1", "meta {}",
                        "1", "2", "3"])
    with pytest.raises(ParseError):
        read_cmx(path)

    # wrong entry count in a data line
    _write_lines(path, ["#cmx 1", "field real", "rows 1", "cols 2", "meta {}", "1"])
    with pytest.raises(ParseError):
        read_cmx(path)

    # complex token inside a real matrix
    _write_lines(path, ["#cmx 1", "field real", "rows 1", "cols 1", "meta {}", "1:2"])
    with pytest.raises(ParseError):
        read_cmx(path)

    # meta is not JSON
    _write_lines(path, ["#cmx 1", "field real", "rows 1", "cols 1", "meta nope", "1"])
    with pytest.raises(ParseError) as err:
        read_cmx(path)
    assert err.value.lineno == 5


def test_cmx_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_cmx(tmp_path / "absent.cmx")
