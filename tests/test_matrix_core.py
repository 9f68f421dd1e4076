import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ripforge import matrix_core
from ripforge.cli import run
from ripforge.certify import las_vegas
from ripforge.constructors import (alltop, composed, devore, golomb_phase, golomb_stacked,
                                   rademacher, weil)
from ripforge.errors import InvalidParams, ParseError, RipforgeError
from ripforge.matrix_core import Matrix, map_gram_strips, matvec, norm, read_cmx, write_cmx


def test_norm_examples():
    assert norm([3, 4], 2) == pytest.approx(5.0, abs=0)
    assert norm(np.ones(17), 1) == pytest.approx(17.0)
    assert norm([3, 4], 4) == pytest.approx(337.0**0.25, rel=1e-15)
    assert norm([3 + 4j], 2) == pytest.approx(5.0)
    with pytest.raises(InvalidParams, match="exponent must be >= 1, got 0.5"):
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
    with pytest.raises(InvalidParams, match=r"matrix is \(3, 3\), vector has shape \(4,\)"):
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
    with pytest.raises(InvalidParams, match=r"matrix must be 2-d, got shape \(3,\)"):
        Matrix(np.ones(3))
    with pytest.raises(InvalidParams, match="matrix must have at least one row and column"):
        Matrix(np.ones((0, 3)))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(InvalidParams, match="matrix entries must be finite"):
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

    # meta is not JSON (too deep, an int past Python's digit limit), or not an object
    for meta in ("nope", "[" * 100_000, "1" * 5000, "5", "[]"):
        _write_lines(path, ["#cmx 1", "field real", "rows 1", "cols 1", f"meta {meta}", "1"])
        with pytest.raises(ParseError) as err:
            read_cmx(path)
        assert err.value.lineno == 5

    # a header that is cut short, misspelled, or names an unknown field
    for lines, message, lineno in (
            (["#cmx 1", "field real"], "missing 'rows' header", 3),
            (["#cmx 1", "field real", "rowz 1", "cols 1", "meta {}", "1"], "rowz", 3),
            (["#cmx 1", "field quaternion", "rows 1", "cols 1", "meta {}", "1"],
             "unknown field 'quaternion'", 2)):
        _write_lines(path, lines)
        with pytest.raises(ParseError, match=message) as err:
            read_cmx(path)
        assert err.value.lineno == lineno

    # a column count no array can hold is refused from the token count
    _write_lines(path, ["#cmx 1", "field real", "rows 1", "cols 100000000000000000000",
                        "meta {}", "1"])
    with pytest.raises(ParseError, match="entries") as err:
        read_cmx(path)
    assert err.value.lineno == 6

    # not UTF-8
    path.write_bytes(b"#cmx 1\nfield real\nrows 1\ncols 1\nmeta {}\n\xff\n")
    with pytest.raises(ParseError, match="UTF-8"):
        read_cmx(path)


_HEADER = b"#cmx 1\nfield real\nrows 1\ncols 2\nmeta {}\n"
_CMX_TEXT = st.builds(
    lambda field, rows, cols, meta, lines: "\n".join(
        ["#cmx 1", f"field {field}", f"rows {rows}", f"cols {cols}", f"meta {meta}", *lines]),
    st.sampled_from(["real", "complex"]),
    st.one_of(st.integers(-1, 3).map(str), st.just(str(10**20)), st.text(max_size=3)),
    st.one_of(st.integers(-1, 3).map(str), st.just(str(10**20)), st.text(max_size=3)),
    st.one_of(st.sampled_from(["{}", '{"k": [1, 2]}', "5", "[]", "null", "NaN", "{"]),
              st.text(max_size=8)),
    st.lists(st.lists(st.one_of(st.sampled_from(["1", "-0.5", "1:2", "0:-1e-300", "nan",
                                                 "1e400", "", ":", "1:2:3", "0x1"]),
                                st.text(max_size=4)), max_size=4).map(" ".join),
             max_size=4),
).map(lambda text: text.encode("utf-8"))


def _read_outcome(read, path):
    """What a reader makes of a file: the matrix bits and meta, or the error
    type and line number."""
    try:
        mat = read(path)
    except RipforgeError as e:
        return type(e), getattr(e, "lineno", None)
    return mat.field_name, mat.data.shape, mat.data.tobytes(), mat.meta


# cmx_bounds sets a module constant once per test, which every example shares
_ONE_FIXTURE_STATE = settings(max_examples=400, deadline=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


@_ONE_FIXTURE_STATE
@given(st.one_of(st.binary(max_size=120), st.binary(max_size=40).map(_HEADER.__add__),
                 _CMX_TEXT))
def test_read_cmx_parses_or_raises_ripforge_error(tmp_path_factory, cmx_bounds,
                                                  cmx_reader_referee, raw):
    path = tmp_path_factory.mktemp("fuzz") / "f.cmx"
    path.write_bytes(raw)
    assert _read_outcome(read_cmx, path) == _read_outcome(cmx_reader_referee, path)


# every line boundary that str.splitlines() knows
_TERMINATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]
_FLOAT_TOKEN = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g"))
_ODD_TOKEN = st.sampled_from(["1:2:3", "1:", ":", "", "nan", "1e400", "0x1", "1_0", "\t1", "1\xa0",
                              "-0", "1\x0c", "2\u20283", "1\r2", "1:2\x85"])


@st.composite
def _near_valid_cmx(draw):
    """A CMX text that is valid or one edit away, with mixed line terminators,
    trailing blank lines and sometimes no final newline."""
    complex_field = draw(st.booleans())
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    value = (st.tuples(_FLOAT_TOKEN, _FLOAT_TOKEN).map(":".join) if complex_field
             else _FLOAT_TOKEN)
    token = st.one_of(value, value, value, value, value, _ODD_TOKEN)
    lines = ["#cmx 1", f"field {'complex' if complex_field else 'real'}", f"rows {rows}",
             f"cols {cols}", "meta {}"]
    lines += [" ".join(draw(st.lists(token, min_size=cols, max_size=cols)))
              for _ in range(draw(st.sampled_from([rows, rows, rows, rows - 1, rows + 1])))]
    lines += [""] * draw(st.integers(0, 2))
    ends = draw(st.lists(st.one_of(st.just("\n"), st.sampled_from(_TERMINATORS)),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


_DATA_1x1 = b"#cmx 1\nfield real\nrows 1\ncols 1\nmeta {}\n"
_DATA_1x2 = b"#cmx 1\nfield real\nrows 1\ncols 2\nmeta {}\n"
_HUGE_HEADER = b"#cmx 1\nfield complex\nrows 1099511627776\ncols 1099511627776\nmeta {}\n"


@_ONE_FIXTURE_STATE
@given(_near_valid_cmx())
@example(_DATA_1x1 + b"1\n\n")                                     # trailing blank line
@example(_DATA_1x2 + b"1\x0c 2\n")                                 # form feed splits the line
@example(b"#cmx 1\nfield real\nrows 2\ncols 1\nmeta {}\n1\xe2\x80\xa82\n")  # U+2028 too
@example(b"#cmx 1\nfield complex\nrows 1\ncols 2\nmeta {}\n1:2:3 4\n")
@example(_DATA_1x2.replace(b"\n", b"\r\n") + b"1 2\r\n")          # CRLF
@example(_DATA_1x2.replace(b"\n", b"\r") + b"1 2\r")                # lone CR
@example(_DATA_1x2 + b"-0 5e-324")                                  # no final newline
@example(b"#notcmx\n" + b"1\n" * 9000 + b"\xff\n")                    # not UTF-8 wins
@example(b"#cmx 1\nfield real\nrows 3\ncols 1\nmeta {}\nx\n1\n")      # line count beats token
@example(b"#cmx 1\nfield real\nrows 2\ncols 2\nmeta {}\nx 1\n1\n")    # entry count beats token
@example(_HUGE_HEADER + b"1\n")                                       # no rows x cols allocated
@example(b"#cmx 1\nfield real\nrows 2\ncols 60\nmeta {}\n"
         + b" ".join([b"1"] * 60) + b"\n" + b" " * 59 + b"\n")        # empty tokens, no allocation
def test_read_cmx_agrees_with_whole_text_referee(tmp_path_factory, cmx_bounds,
                                                 cmx_reader_referee, raw):
    path = tmp_path_factory.mktemp("diff") / "f.cmx"
    path.write_bytes(raw)
    assert _read_outcome(read_cmx, path) == _read_outcome(cmx_reader_referee, path)


def test_read_cmx_allocates_the_matrix_only_when_the_file_size_holds_it(tmp_path, monkeypatch,
                                                                          capsys):
    path = tmp_path / "huge.cmx"
    path.write_bytes(_HUGE_HEADER + b"1:1\n")  # 2^40 x 2^40 over one data line
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="expected 1099511627776 data lines") as err:
            read_cmx(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.lineno == 6 and peak < 1 << 20

    # a pipe streams a valid file but its size reads 0, too small for any entry
    write_cmx(weil(3, 1), path)
    stat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(stat(fd)[:6] + (0,) + stat(fd)[7:]))
    message = "file size reads too small for the entries (a pipe's reads 0)"
    with pytest.raises(ParseError, match=re.escape(message)):
        read_cmx(path)
    assert run(["certify", "coherence", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _writer_cases():
    """The constructor gallery, and matrices built around formatting edge cases."""
    yield from (golomb_phase(5), golomb_phase(23), golomb_stacked(5), weil(5, 2), weil(13, 2),
                alltop(7), devore(5, 2), rademacher(9, 7, seed=1),
                composed(1, 20, p=3), las_vegas(64, 8, seed=1)[0])
    rng = np.random.default_rng(5)
    tiny = 2.2250738585072014e-308
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0),
                     1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.1, 1 / 3,
                     1e16, 1e17, np.finfo(np.float64).max, -1e-300])
    real = rng.permutation(np.resize(edge, 60)).reshape(4, 15)
    yield Matrix(real)
    yield Matrix(real + 1j * rng.permutation(real.ravel()).reshape(real.shape))
    width = matrix_core.CMX_BLOCK_PARTS // 2 + 3  # a complex row wider than one block
    wide = rng.choice(edge, width) + 1j * rng.standard_normal(width)
    yield Matrix(wide[None, :])
    yield Matrix(np.vstack([wide.real, wide.real[::-1]]))


def _memo_sizes(monkeypatch) -> list:
    """The (entries, least bit pattern) of write_cmx's memo after each block."""
    sizes, block_text = [], matrix_core._block_text

    def spy(block, seps, memo):
        text = block_text(block, seps, memo)
        sizes.append((len(memo), min(memo, default=None)))
        return text

    monkeypatch.setattr(matrix_core, "_block_text", spy)
    return sizes


def test_write_cmx_matches_per_entry_referee(tmp_path, monkeypatch, cmx_bounds,
                                             cmx_writer_referee):
    path, want = tmp_path / "blocked.cmx", tmp_path / "referee.cmx"
    sizes = _memo_sizes(monkeypatch)
    for mat in _writer_cases():
        write_cmx(mat, path)
        cmx_writer_referee(mat, want)
        assert path.read_bytes() == want.read_bytes(), mat.meta or mat.data.shape
    assert max(n for n, _ in sizes) <= matrix_core.CMX_CACHE_ENTRIES


def test_write_cmx_memo_hits_clears_and_skips_within_its_bound(tmp_path, monkeypatch, cmx_bounds,
                                                               cmx_writer_referee):
    bound = matrix_core.CMX_CACHE_ENTRIES
    width = max(matrix_core.CMX_BLOCK_PARTS + 3, 4 * bound + 4)  # each row longer than a block
    values = np.arange(1, 2 * bound + 2) / 7                       # positive: bits rise with them
    first, second = values[:bound], values[bound:2 * bound]
    rows = [values[:bound + 1],  # more distinct patterns than the memo holds: skipped
            first, first,        # misses, then hits
            second]              # no room: cleared, then misses
    mat = Matrix(np.vstack([np.resize(row, width) for row in rows]))
    sizes = _memo_sizes(monkeypatch)
    write_cmx(mat, tmp_path / "blocked.cmx")
    cmx_writer_referee(mat, tmp_path / "referee.cmx")
    assert (tmp_path / "blocked.cmx").read_bytes() == (tmp_path / "referee.cmx").read_bytes()
    least = values.view(np.uint64)
    assert sizes == [(0, None), (bound, least[0]), (bound, least[0]), (bound, least[bound])]


def _real_cmx(path, lines: list[list[str]]) -> None:
    header = ["#cmx 1", "field real", f"rows {len(lines)}", f"cols {len(lines[0])}", "meta {}"]
    path.write_text("\n".join(header + [" ".join(line) for line in lines]) + "\n")


def _cache_after(lines: list[list[str]]) -> tuple[matrix_core._FloatCache, int]:
    """The cache read_cmx would hold after parsing these lines, and how often
    it was cleared; it never holds more than CMX_CACHE_ENTRIES."""
    cache, clears = matrix_core._FloatCache(), 0
    for line in lines:
        before = len(cache)
        assert cache.parse(line) == [float(t) for t in line]
        clears += len(cache) < before
        assert len(cache) <= matrix_core.CMX_CACHE_ENTRIES
    return cache, clears


def test_float_cache_parses_a_line_by_its_share_of_misses():
    cache = matrix_core._FloatCache()
    assert cache.parse(["1", "2", "1"]) == [1.0, 2.0, 1.0]  # two misses, then a hit
    assert cache.parse(["1", "2", "-0"]) == [1.0, 2.0, -0.0]  # one miss: __missing__
    assert cache.parse(["-0", "2", "1"]) == [-0.0, 2.0, 1.0]  # all hits
    assert sorted(cache) == ["-0", "1", "2"] and cache.seen == 9 and not cache.given_up


def test_read_cmx_late_bad_token_after_warm_or_given_up_cache(tmp_path, cmx_bounds,
                                                              cmx_reader_referee):
    bound = matrix_core.CMX_CACHE_ENTRIES
    n = 2 * bound + 20  # lines of two tokens: the cache fills twice over
    rng = np.random.default_rng(8)
    repeating = [[str(k % (bound + 1))] * 2 for k in range(n)]  # half hits: cleared, kept
    distinct = [[format(v, ".17g") for v in rng.standard_normal(2)] for _ in range(n)]
    late = n - 3
    for lines, given_up in ((repeating, False), (distinct, True)):
        cache, clears = _cache_after(lines[:late])
        assert cache.given_up == given_up
        assert given_up or (clears >= 1 and len(cache) > 0)
        path = tmp_path / "late.cmx"
        _real_cmx(path, lines[:late] + [["1", "1x"]] + lines[late + 1:])
        assert (_read_outcome(read_cmx, path) == _read_outcome(cmx_reader_referee, path)
                == (ParseError, 6 + late))


def test_read_cmx_keeps_negative_zero_apart_from_zero(tmp_path, cmx_bounds, cmx_reader_referee):
    lines = [["0", "-0", "0.0", "-0.0"], ["-0", "0", "-0e5", "0e-5"]] * 5
    path = tmp_path / "zeros.cmx"
    _real_cmx(path, lines)
    mat = read_cmx(path)
    assert _read_outcome(read_cmx, path) == _read_outcome(cmx_reader_referee, path)
    assert not mat.data.any()
    assert np.array_equal(np.signbit(mat.data), [[t[0] == "-" for t in line] for line in lines])


def test_gram_strips_tile_the_gram(monkeypatch):
    rng = np.random.default_rng(0)
    real = rng.standard_normal((5, 23))
    shipped = matrix_core.GRAM_STRIP_BYTES
    for arr in (real, real + 1j * rng.standard_normal((5, 23))):
        row_bytes = 23 * arr.itemsize
        for budget in (shipped, 1000, 1):  # one strip, a few rows each, one row each
            monkeypatch.setattr(matrix_core, "GRAM_STRIP_BYTES", budget)
            height = min(23, max(1, budget // row_bytes))
            seen = []
            strips, bases = [], []
            for i, vals in map_gram_strips(Matrix(arr), lambda j, g: seen.append(j) or np.abs(g)):
                strips.append((i, vals.copy()))  # each valid until the next
                bases.append(vals.base)
            assert seen == list(range(23))
            assert bases[0] is not None
            assert all(base is bases[0] for base in bases)  # one buffer per call
            assert bases[0].nbytes <= max(budget, row_bytes)
            assert [i for i, _ in strips] == list(range(0, 23, height))
            for i, vals in strips:
                assert vals.shape == (min(height, 23 - i), 23)
            gram = np.vstack([vals for _, vals in strips])
            assert np.abs(gram - np.abs(arr.conj().T @ arr)).max() <= 1e-12


def test_map_gram_strips_maps_each_entry_as_a_whole_strip_would(strip_budget):
    # the rows of a strip, each written over it as float64, give every entry the
    # bits of the expression on the whole strip X[:, i:i+h]^H X
    rng = np.random.default_rng(2)
    exprs = [np.abs] + [lambda g, k=k: (g * g.conj()).real ** k for k in (1, 2, 3)]
    for m, n in ((7, 37), (5, 301), (3, 1)):
        real = rng.standard_normal((m, n))
        for arr in (real, real + 1j * rng.standard_normal((m, n))):
            height = min(n, max(1, matrix_core.GRAM_STRIP_BYTES // (n * arr.itemsize)))
            for func in exprs:
                got = [(i, vals.copy()) for i, vals in map_gram_strips(arr, lambda j, g: func(g))]
                assert [i for i, _ in got] == list(range(0, n, height))
                for i, vals in got:
                    want = func(arr[:, i:i + height].conj().T @ arr)
                    assert vals.dtype == np.float64 and np.array_equal(vals, want), arr.dtype


def test_cmx_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_cmx(tmp_path / "absent.cmx")
