import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

import ripforge
import ripforge.cli
from ripforge.cli import run
from ripforge.constructors import golomb_stacked, rademacher, weil
from ripforge.designs import matrix_to_design, write_design
from ripforge.matrix_core import Matrix, read_cmx, write_cmx


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    assert out.count("\n") == 0, "report must be a single line"
    return code, json.loads(out)


def test_construct_golomb(tmp_path, capsys):
    path = str(tmp_path / "a.cmx")
    code, report = run_json(capsys, ["construct", "golomb", "--p", "5", "-o", path])
    assert code == 0
    assert (report["rows"], report["cols"]) == (121, 5)
    mat = read_cmx(path)
    assert mat.data.shape == (121, 5)
    assert mat.meta["construction"] == "golomb_phase"


def test_design_delta(capsys):
    code, report = run_json(capsys, ["design", "delta", "--n", "3", "--k", "2",
                                     "--field", "complex"])
    assert code == 0
    assert report["delta"] == pytest.approx(1 / 6, rel=1e-15)


def test_certify_cond_failure_reports_witness(tmp_path, capsys):
    dup = np.array(rademacher(100, 4, seed=0).data)
    dup[:, 1] = dup[:, 0]
    path = str(tmp_path / "dup.cmx")
    write_cmx(Matrix(dup), path)
    code, report = run_json(capsys, ["certify", "cond", path, "--kappa", "5"])
    assert code == 1
    assert report["cond_a_pass"] is False
    assert report["pair_witness"] == [0, 1]
    assert report["max_pair_sum"] == 100


def test_certify_cond_pass_and_constants(tmp_path, capsys):
    path = str(tmp_path / "lv.cmx")
    code, _ = run_json(capsys, ["construct", "lasvegas", "--m", "64", "--N", "16",
                                "--seed", "1", "-o", path])
    assert code == 0
    code, report = run_json(capsys, ["certify", "cond", path, "--kappa", "auto",
                                     "--delta", "0.5", "--s", "2"])
    assert code == 0
    assert report["cond_a_pass"] and report["cond_b_pass"]
    assert "alpha" in report and "m_required" in report


def test_certify_cond_delta_and_s_go_together(tmp_path, capsys):
    path = str(tmp_path / "r.cmx")
    assert run(["construct", "rademacher", "--m", "16", "--N", "4", "--seed", "0",
                "-o", path]) == 0
    capsys.readouterr()
    for extra, message in ((["--delta", "0.5"], "--delta and --s must be given together"),
                           (["--s", "2"], "--delta and --s must be given together"),
                           (["--kappa", "-1"], "a finite number > 0, got '-1'"),
                           (["--kappa", "abc"], "a finite number > 0, got 'abc'")):
        assert run(["certify", "cond", path, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_certify_cond_refuses_non_sign_matrix(tmp_path, capsys):
    path = str(tmp_path / "w.cmx")
    assert run(["construct", "weil", "--p", "3", "--d", "1", "-o", path]) == 0
    capsys.readouterr()
    code = run(["certify", "cond", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["swizzle"]) == 2
    assert run(["probe", "x.cmx", "--s", "1", "--trials", "5"]) == 2  # --seed missing
    assert run(["construct", "rademacher", "--m", "4", "--N", "4",
                "--seed", "-3", "-o", "x.cmx"]) == 2
    phase = str(tmp_path / "a.cmx")
    assert run(["construct", "golomb", "--p", "5", "-o", phase]) == 0
    for prop in ("identities", "isometry", "embedding"):   # zero trials check nothing
        assert run(["verify", prop, phase, "--seed", "1", "--trials", "0"]) == 2
    for family in (["weil", "--p", "2147483659", "--d", "1", "--N", "1"],  # p above the cap
                   ["devore", "--p", "2147483659", "--d", "1"],
                   ["weil", "--p", "101", "--d", "9"],      # 101^10 columns
                   ["weil", "--p", "2147483647", "--d", "2147483646"],
                   ["golomb", "--p", "2147483647"],         # int64 phases overflow
                   ["golomb-stacked", "--p", "2147483647"],
                   ["composed", "--s", "1", "--N", "10", "--p", "2147483647"],
                   ["composed", "--s", "1", "--N", "1" + "0" * 400, "--p", "3"]):
        assert run(["construct", *family, "-o", str(tmp_path / "w.cmx")]) == 2
    # a non-finite threshold certifies nothing; Theorem 1 needs kappa > 0
    for kappa in ("nan", "inf", "0", "-1"):
        assert run(["construct", "lasvegas", "--m", "64", "--N", "16", "--kappa", kappa,
                    "--seed", "1", "-o", str(tmp_path / "k.cmx")]) == 2
    capsys.readouterr()


def test_each_invalid_input_exits_2_with_its_message(tmp_path, capsys):
    zero_col = np.array(rademacher(16, 8, seed=0).data)
    zero_col[:, 3] = 0.0
    zero_row = np.array(rademacher(4, 3, seed=0).data)
    zero_row[1] = 0.0
    files = {"zcol": Matrix(zero_col), "zrow": Matrix(zero_row), "w3": weil(3, 1),
             "w7": weil(7, 2), "half": Matrix(np.full((4, 3), 0.5)),
             "r33": rademacher(4, 33, seed=0), "s8": rademacher(16, 8, seed=0),
             "gs3": golomb_stacked(3)}
    path = {name: str(tmp_path / f"{name}.cmx") for name in files}
    for name, mat in files.items():
        write_cmx(mat, path[name])
    path["nan"] = str(tmp_path / "nan.cmx")
    Path(path["nan"]).write_text("#cmx 1\nfield real\nrows 2\ncols 2\nmeta {}\n1 nan\n0 1\n")
    path["off"] = str(tmp_path / "off.cmx")
    Path(path["off"]).write_text('#cmx 1\nfield real\nrows 2\ncols 2\n'
                                 'meta {"weights": [0.5, 0.5]}\n1 0\n0 2\n')
    for name, text in (("one", "rows 3\ncols 1\nmeta {}\n1\n2\n3\n"),
                       ("cols_abc", "rows 1\ncols abc\nmeta {}\n1\n"),
                       ("cols_0", "rows 1\ncols 0\nmeta {}\n1\n"),
                       ("diag", "rows 2\ncols 2\nmeta {}\n1e200 0\n0 1e200\n"),
                       ("diag100", "rows 2\ncols 2\nmeta {}\n1e100 0\n0 1e100\n"),
                       ("tiny", "rows 2\ncols 3\nmeta {}\n1e-200 1e-200 0\n0 1e-200 1e-200\n"),
                       ("tiny_zero", "rows 2\ncols 3\nmeta {}\n0 0 0\n0 1e-200 1e-200\n")):
        path[name] = str(tmp_path / f"{name}.cmx")
        Path(path[name]).write_text("#cmx 1\nfield real\n" + text)
    out = str(tmp_path / "out.cmx")
    huge_m = "m_required = ceil(kappa^2 s^4 / delta^2) reaches 2^63 rows"
    huge_mn = ["--m", "100000000000", "--N", "100000000000", "--seed", "1", "-o", out]
    unaddressable = "a 100000000000 x 100000000000 matrix has more entries than numpy can address"
    outside = "outside the certified range [2^-485, 2^485]"
    power_sum = "the power sum S = sum_i ||a_i||^(2k) at k={} is {}, not a positive finite float64"
    table = [
        (["certify", "coherence", path["zcol"]], "column 3 is identically zero"),
        (["design", "from-matrix", path["zrow"], "--k", "1", "-o", out],
         "row 1 is identically zero"),
        (["certify", "cond", path["w3"]], "certification requires entries exactly +-1"),
        (["verify", "identities", path["half"], "--seed", "1"],
         "entry modulus deviates from 1 by 5.000e-01"),
        (["verify", "identities", path["r33"], "--seed", "1"],
         "quadruple enumeration is quartic; r=33 > 32"),
        (["certify", "coherence", path["nan"]], "matrix entries must be finite (no NaN or inf)"),
        (["design", "defect", path["off"], "--k", "1"],
         "points must lie on the unit sphere (tol 1e-12)"),
        (["certify", "ric", path["w7"], "--s", "3"],
         "C(343,3) = 6666891 subsets exceeds the cap 1000000"),
        (["construct", "golomb", "--p", "2", "-o", out],
         "p=2: ruler construction needs a prime p >= 3"),
        (["certify", "cond", path["s8"], "--delta", "0.5", "--s", str(10**100)], huge_m),
        (["certify", "cond", path["s8"], "--delta", "1e-200", "--s", "2"], huge_m),
        (["certify", "cond", path["s8"], "--kappa", "1e300", "--delta", "0.5", "--s", "2"],
         huge_m),
        (["construct", "rademacher", *huge_mn], unaddressable),
        (["construct", "lasvegas", *huge_mn], unaddressable),
        # every ||a_i|| < 1, so each power underflows and S is 0; each ||a_i|| = sqrt(3): inf
        (["design", "from-matrix", path["gs3"], "--k", "100000", "-o", out],
         power_sum.format(100000, 0.0)),
        (["design", "from-matrix", path["w3"], "--k", "100000", "-o", out],
         power_sum.format(100000, "inf")),
        (["certify", "coherence", path["one"]], "coherence needs at least two columns"),
        (["certify", "cond", path["s8"], "--delta", "0.5", "--s", "0"],
         "need s >= 1 and kappa > 0"),
        (["construct", "weil", "--p", "5", "--d", "1", "--N", "0", "-o", out],
         "need at least one column"),
        (["construct", "weil", "--p", "1009", "--d", "6", "--N", str(10**15), "-o", out],
         "a 1009 x 1000000000000000 array is larger than numpy can address"),
        (["certify", "coherence", path["cols_abc"]],
         "line 4: invalid literal for int() with base 10: 'abc'"),
        (["certify", "coherence", path["cols_0"]], "line 4: rows and cols must be positive"),
        # squares of 1e200 overflow: column norms leave the Gram certificates' range,
        # and ||Mx||_4 leaves float64's
        (["probe", path["diag"], "--s", "1", "--trials", "5", "--seed", "1"],
         f"column 0 has norm 1e+200, {outside}"),
        (["verify", "embedding", path["diag"], "--seed", "1"],
         f"column 0 has norm 1e+200, {outside}"),
        (["verify", "isometry", path["diag"], "--seed", "1", "--trials", "3"],
         "float64 cannot hold a result: overflow encountered in power"),
        # ||Mx||_4 ~ 1e100 is a float64, but |y_i|^4 ~ 1e400 is not: l4's documented domain
        (["verify", "isometry", path["diag100"], "--seed", "1", "--trials", "3"],
         "float64 cannot hold a result: overflow encountered in power"),
        # the squares of 1e-200 underflow, so each row's norm reads 0; only a row of
        # zeros is called zero, and the other is named by its norm
        (["design", "from-matrix", path["tiny"], "--k", "1", "-o", out],
         "row 0 has norm 1.414213562373095e-200, whose square underflows float64"),
        (["design", "from-matrix", path["tiny_zero"], "--k", "1", "-o", out],
         "row 0 is identically zero"),
    ]
    # [[t, t, 0], [0, t, t]] has mu = 1/sqrt(2) and delta_3 = 1; float64 holds neither
    # at these scales, so each Gram certificate is refused, not misreported
    for t in ("1e154", "1e200", "1e-160", "1e-200"):
        scaled = str(tmp_path / f"t{t}.cmx")
        Path(scaled).write_text(f"#cmx 1\nfield real\nrows 2\ncols 3\nmeta {{}}\n"
                                f"{t} {t} 0\n0 {t} {t}\n")
        for check in (["coherence"], ["ric", "--s", "2"], ["ric", "--s", "3"]):
            table.append((["certify", check[0], scaled, *check[1:]],
                          f"column 0 has norm {float(t)!r}, {outside}"))
    capsys.readouterr()
    for argv, message in table:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
    assert not Path(out).exists()


def test_a_float_fault_or_a_nan_in_a_report_exits_2(tmp_path, capsys, monkeypatch):
    import ripforge.certify

    diag = tmp_path / "diag.cmx"
    write_cmx(Matrix(np.diag([1e200, 1e200])), diag)
    assert run(["recover", str(diag), "--s", "1", "--seed", "1"]) == 2  # squares ||A||_2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch("error: float64 cannot hold a result: overflow encountered in [^\n]*\n",
                        captured.err), captured.err

    monkeypatch.setattr(ripforge.certify, "coherence", lambda A: float("nan"))
    path = tmp_path / "r.cmx"
    write_cmx(rademacher(4, 3, seed=0), path)
    assert run(["certify", "coherence", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: float64 cannot hold a result: the report holds a NaN or inf\n"


def test_constructors_refuse_before_allocating(tmp_path, capsys, memory_limit):
    # numpy inside constructors is a tripwire, so a missing guard fails here instead
    # of allocating: weil(61, 3) would fill a 61 x 61^4 int64 table (6.29 GiB) first
    out = str(tmp_path / "out.cmx")
    memory_limit(3 << 30)
    assert run(["construct", "weil", "--p", "61", "--d", "3", "-o", out]) == 2
    captured = capsys.readouterr()
    asked = re.fullmatch(r"error: the construction would hold about (\d+) bytes at once, "
                         r"more than the 3221225472 bytes this process may use\n", captured.err)
    assert captured.out == "" and asked, captured.err
    assert int(asked[1]) > 16 * 61 * 61**4  # more than the complex matrix alone
    memory_limit(resource.RLIM_INFINITY, 1 << 60)  # a limit the guard cannot hit
    assert run(["construct", "alltop", "--m", "1000000007", "-o", out]) == 2
    assert capsys.readouterr().err == ("error: an m^3 = 1000000021000000147000000343 entry "
                                       "phase table is more than numpy can address\n")
    assert not Path(out).exists()


def test_missing_file_exits_2(capsys):
    assert run(["certify", "coherence", "/nonexistent/matrix.cmx"]) == 2
    assert "error" in capsys.readouterr().err


def test_help_exists_for_every_subcommand(capsys):
    assert run(["--help"]) == 0
    families = ["golomb", "golomb-stacked", "weil", "alltop", "devore",
                "rademacher", "lasvegas", "composed"]
    leaves = ([["construct", f] for f in families]
              + [["certify", c] for c in ("coherence", "cond", "ric")]
              + [["verify", v] for v in ("identities", "isometry", "embedding")]
              + [["design", d] for d in ("delta", "defect", "from-matrix")]
              + [["probe"], ["recover"]])
    for argv in leaves:
        assert run(argv + ["--help"]) == 0
        assert capsys.readouterr().out  # help text lands on stdout


def test_lasvegas_exhaustion_exits_1(capsys):
    # m = 1 puts every pair sum at 1 > 0.01: each of the default 64 rounds fails
    code, report = run_json(capsys, ["construct", "lasvegas", "--m", "1", "--N", "16",
                                     "--kappa", "0.01", "--seed", "0",
                                     "-o", "/tmp/never.cmx"])
    assert code == 1
    assert report["rounds"] == 64
    assert report["max_pair_sum"] >= 1


def test_seeded_output_is_byte_identical(tmp_path, capsys):
    path = str(tmp_path / "lv.cmx")
    assert run(["construct", "lasvegas", "--m", "64", "--N", "16", "--seed", "5",
                "-o", path]) == 0
    stacked = str(tmp_path / "gs.cmx")
    assert run(["construct", "golomb-stacked", "--p", "5", "-o", stacked]) == 0
    capsys.readouterr()
    for argv in (["probe", path, "--s", "2", "--trials", "200", "--seed", "11"],
                 ["verify", "isometry", stacked, "--seed", "11", "--trials", "100"],
                 ["recover", path, "--s", "2", "--seed", "11"]):
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        assert json.loads(first)["sampler"] == 2, argv


@pytest.mark.parametrize("family", ["golomb", "rademacher"])
def test_verify_embedding_ratios_are_probe_at_full_sparsity(tmp_path, capsys, family):
    # both draw through one sampler, so at s = N and one seed they see the same vectors
    path = str(tmp_path / "a.cmx")
    params = ["--p", "7"] if family == "golomb" else ["--m", "24", "--N", "6", "--seed", "3"]
    assert run(["construct", family, *params, "-o", path]) == 0
    n = json.loads(capsys.readouterr().out)["cols"]
    run(["verify", "embedding", path, "--seed", "5", "--trials", "2100"])  # two blocks
    embedding = json.loads(capsys.readouterr().out)
    assert run(["probe", path, "--s", str(n), "--trials", "2100", "--seed", "5"]) == 0
    probe = json.loads(capsys.readouterr().out)
    for key in ("min_ratio", "max_ratio"):
        assert embedding[key] == pytest.approx(probe[key], rel=1e-12, abs=0), key


def test_verify_commands(tmp_path, capsys):
    stacked = str(tmp_path / "m.cmx")
    phase = str(tmp_path / "a.cmx")
    assert run(["construct", "golomb-stacked", "--p", "3", "-o", stacked]) == 0
    assert run(["construct", "golomb", "--p", "3", "-o", phase]) == 0
    capsys.readouterr()

    code, report = run_json(capsys, ["verify", "isometry", stacked, "--seed", "1",
                                     "--trials", "100"])
    assert code == 0 and report["pass"] is True

    code, report = run_json(capsys, ["verify", "embedding", phase, "--seed", "1",
                                     "--trials", "100"])
    assert code == 0 and report["empirical_distortion"] <= np.sqrt(2) + 1e-9

    code, report = run_json(capsys, ["verify", "identities", phase, "--seed", "1",
                                     "--trials", "4"])
    assert code == 0 and report["l4_checked"] is True
    # each gap over the ||Bx||_2^2 or ||Bx||_4^4 it checks: float roundoff
    assert 0.0 < report["max_rel_gap"] < 1e-12 and report["max_gap"] <= report["tolerance"]

    # l4 is quartic in the columns; wider matrices are refused, not skipped
    wide = str(tmp_path / "g37.cmx")
    assert run(["construct", "golomb", "--p", "37", "-o", wide]) == 0
    capsys.readouterr()
    assert run(["verify", "identities", wide, "--seed", "1", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "r=37 > 32" in captured.err

    # a random sign matrix is not an embedding with these constants
    bad = str(tmp_path / "bad.cmx")
    assert run(["construct", "rademacher", "--m", "16", "--N", "4", "--seed", "0",
                "-o", bad]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["verify", "embedding", bad, "--seed", "2"])
    assert code == 1 and report["pass"] is False


@pytest.mark.parametrize("family, p, prop, trials", [("golomb", 37, "embedding", 200),
                                                     ("golomb-stacked", 31, "isometry", 1000)])
def test_verify_takes_one_product_per_vector(tmp_path, capsys, family, p, prop, trials):
    # the file read and one vector's product fit 2.5 matrices and a MiB; a product
    # over a block of vectors holds megabytes of the tall complex result besides
    path = str(tmp_path / "a.cmx")
    assert run(["construct", family, "--p", str(p), "-o", path]) == 0
    capsys.readouterr()
    matrix_bytes = read_cmx(path).data.nbytes
    tracemalloc.start()
    try:
        code = run(["verify", prop, path, "--seed", "1", "--trials", str(trials)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["trials"] == trials
    assert peak <= 2.5 * matrix_bytes + (1 << 20), (peak, matrix_bytes)


def test_certify_ric_within_its_coherence_bound(tmp_path, capsys):
    # golomb columns are exactly orthogonal: mu and delta_s are both roundoff
    path = str(tmp_path / "g.cmx")
    assert run(["construct", "golomb", "--p", "7", "-o", path]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["certify", "ric", path, "--s", "2"])
    assert code == 0
    assert report["delta_s"] == report["coherence"] <= report["s_mu_bound"]
    mu = report["coherence"]
    code, report = run_json(capsys, ["certify", "ric", path, "--s", "3"])
    assert code == 0
    assert report["delta_s"] <= 2 * report["coherence"] * (1 + 1e-12)
    assert report["delta_s"] <= report["s_mu_bound"]
    code, report = run_json(capsys, ["certify", "coherence", path])
    assert code == 0 and report["coherence"] == mu
    # alltop's coherence is exactly 1/sqrt(m)
    alltop = str(tmp_path / "a.cmx")
    assert run(["construct", "alltop", "--m", "7", "-o", alltop]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["certify", "coherence", alltop])
    assert code == 0
    assert report["coherence"] == pytest.approx(1 / np.sqrt(7), rel=1e-14)


def test_verify_identities_passes_at_every_seed(tmp_path, capsys):
    # p = 31 is the widest golomb file the quartic check accepts; its gaps are
    # roundoff of values near 1.5e7 and must stay under the gate at any seed
    path = str(tmp_path / "g31.cmx")
    assert run(["construct", "golomb", "--p", "31", "-o", path]) == 0
    capsys.readouterr()
    for seed in range(1, 9):
        code, report = run_json(capsys, ["verify", "identities", path, "--seed", str(seed),
                                         "--trials", "16"])
        assert code == 0 and report["max_gap"] <= 1e-8, seed


def test_composed_without_override_exits_2(tmp_path, capsys):
    code = run(["construct", "composed", "--s", "1", "--N", "20",
                "-o", str(tmp_path / "c.cmx")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--p" in err
    assert not (tmp_path / "c.cmx").exists()


def test_recover_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "lv.cmx")
    assert run(["construct", "lasvegas", "--m", "128", "--N", "16", "--seed", "2",
                "-o", path]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["recover", path, "--s", "2", "--seed", "3"])
    assert code == 0
    assert report["recovered"] is True and report["rel_error"] <= 1e-6


def test_recover_refuses_bad_sparsity_and_tolerance(tmp_path, capsys):
    path = str(tmp_path / "r.cmx")
    assert run(["construct", "rademacher", "--m", "32", "--N", "8", "--seed", "0",
                "-o", path]) == 0
    capsys.readouterr()
    for s in ("9", "-1", "0"):              # outside [1, N]: no support to draw
        assert run(["recover", path, "--s", s, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--s must lie in [1, 8]" in captured.err
    for flag in ("--tol", "--max-iter"):    # iht's stopping rule is fixed
        assert run(["recover", path, "--s", "2", "--seed", "1", flag, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err


def test_design_pipeline(tmp_path, capsys):
    stacked = str(tmp_path / "m.cmx")
    points = str(tmp_path / "ps.cmx")
    assert run(["construct", "golomb-stacked", "--p", "3", "-o", stacked]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["design", "from-matrix", stacked, "--k", "2",
                                     "-o", points])
    assert code == 0
    assert report["S"] == pytest.approx(6.0, abs=1e-10)
    code, report = run_json(capsys, ["design", "defect", points, "--k", "2"])
    assert code == 0
    assert abs(report["defect"]) <= 1e-10


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.cmx")
    argv = ["construct", "golomb", "--p", "3", "-o", path]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert ripforge.cli.build_parser() is ripforge.cli.build_parser()

    # builders look the constructor up when they run, so a later patch (as a
    # tracer installs) is what the next call reaches
    real, calls = ripforge.constructors.golomb_phase, []
    monkeypatch.setattr(ripforge.constructors, "golomb_phase",
                        lambda p: calls.append(p) or real(p))
    assert run(["construct", "golomb", "--p", "5", "-o", path]) == 0
    assert calls == [5]

    # a usage error leaves the shared parser as it was for the next call
    assert run(["construct", "golomb", "--p", "x", "-o", path]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(argv) == 0
    assert capsys.readouterr().out == first and calls == [5, 3]


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "g3.cmx"
    env = dict(os.environ)
    src = str(Path(ripforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ripforge", "construct", "golomb",
                           "--p", "3", "-o", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"] == 37
    assert read_cmx(path).data.shape == (37, 3)


def test_import_reaches_every_submodule():
    env = dict(os.environ)
    src = str(Path(ripforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import ripforge; "
            "print(ripforge.certify.coherence.__name__, "
            "ripforge.constructors.golomb_phase.__name__); "
            "print(' '.join(sorted(ripforge.__all__)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "coherence golomb_phase",
        "analysis certify cli constructors designs errors golomb matrix_core "
        "num_theory recovery"]


def test_non_finite_matrix_exits_2(tmp_path, capsys):
    header = ["#cmx 1", "field real"]
    nan_path = tmp_path / "nan.cmx"
    nan_path.write_text("\n".join(header + ["rows 2", "cols 2", "meta {}",
                                            "1 nan", "0 1"]) + "\n")
    inf_path = tmp_path / "inf.cmx"
    inf_path.write_text("\n".join(header + ["rows 2", "cols 3", "meta {}",
                                            "1 inf 0", "0 1 1"]) + "\n")
    assert run(["certify", "coherence", str(nan_path)]) == 2
    assert run(["certify", "ric", str(inf_path), "--s", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err

    zero_path = tmp_path / "zero.cmx"
    zero_path.write_text("\n".join(header + ["rows 2", "cols 2", "meta {}",
                                             "0 0", "0 0"]) + "\n")
    one_zero_path = tmp_path / "one_zero.cmx"
    one_zero_path.write_text("\n".join(header + ["rows 2", "cols 2", "meta {}",
                                                 "1 0", "1 0"]) + "\n")
    assert run(["probe", str(zero_path), "--s", "1", "--trials", "10", "--seed", "0"]) == 2
    assert run(["verify", "embedding", str(zero_path), "--seed", "0"]) == 2
    assert run(["probe", str(one_zero_path), "--s", "1", "--trials", "50",
                "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("identically zero") == 3


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    import ripforge.certify

    def coherence(A):
        raise MemoryError("Unable to allocate 13.2 GiB for an array with shape "
                          "(29791, 29791) and data type complex128")

    monkeypatch.setattr(ripforge.certify, "coherence", coherence)
    path = tmp_path / "r.cmx"
    write_cmx(rademacher(4, 3, seed=0), path)
    assert run(["certify", "coherence", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of memory" in captured.err and "(29791, 29791)" in captured.err


# -- the exit contract over drawn argv -------------------------------------------
# Sizes are small or far beyond memory, never in between: a medium size such as
# 10^9 rows would really allocate.  Work counts (--trials, --seed, and --k where it
# loops k times) come from their own short list.  --p for golomb, golomb-stacked,
# composed and devore leaves out 61, weil always gets --N, and devore --d stops at
# 2: these families turn small parameters into megabytes (golomb(61) has 21961
# rows, devore(61, 1) 3721 x 3721 entries, weil(13, 5) 13 x 13^6).
SMALL = ["0", "-1", "1", "2", "3", "5", "7", "13"]
HUGE = [str(2**40), str(10**12), str(10**40), "nan", "inf", "abc"]
SIZE = SMALL + ["61"] + HUGE
PRIME = SMALL + HUGE
COUNT = ["0", "-1", "1", "2", "64"]
REAL = ["0.5", "0", "1", "-1", "1e-200", "1e300", "nan", "inf", "abc"]
FILE, OUT = object(), object()  # drawn from the contract files and output paths

# subcommand -> leaf -> [(flag, values, always given)]; a flag of None is positional
GRAMMAR = {
    "construct": {
        "golomb": [("--p", PRIME, True)],
        "golomb-stacked": [("--p", PRIME, True)],
        "weil": [("--p", SIZE, True), ("--d", SIZE, True), ("--N", SIZE, True)],
        "alltop": [("--m", SIZE, True)],
        "devore": [("--p", PRIME, True), ("--d", ["0", "-1", "1", "2"] + HUGE, True)],
        "rademacher": [("--m", SIZE, True), ("--N", SIZE, True), ("--seed", COUNT, True)],
        "lasvegas": [("--m", SIZE, True), ("--N", SIZE, True), ("--seed", COUNT, True),
                     ("--kappa", ["auto"] + REAL, False)],
        "composed": [("--s", SIZE, True), ("--N", SIZE, True), ("--p", PRIME, True)],
    },
    "certify": {
        "coherence": [(None, FILE, True)],
        "cond": [(None, FILE, True), ("--kappa", ["auto"] + REAL, False),
                 ("--delta", REAL, False), ("--s", SIZE, False)],
        "ric": [(None, FILE, True), ("--s", SIZE, True)],
    },
    "probe": {None: [(None, FILE, True), ("--s", SIZE, True), ("--trials", COUNT, True),
                     ("--seed", COUNT, True)]},
    "verify": {prop: [(None, FILE, True), ("--seed", COUNT, True), ("--trials", COUNT, False)]
               for prop in ("identities", "isometry", "embedding")},
    "design": {
        "delta": [("--n", SIZE, True), ("--k", COUNT, True),
                  ("--field", ["real", "complex", "abc"], True)],
        "defect": [(None, FILE, True), ("--k", COUNT, True)],  # delta loops k times
        "from-matrix": [(None, FILE, True), ("--k", SIZE + COUNT, True), ("-o", OUT, True)],
    },
    "recover": {None: [(None, FILE, True), ("--s", SIZE, True), ("--seed", COUNT, True)]},
}
for _leaf in GRAMMAR["construct"].values():
    _leaf.append(("-o", OUT, True))


@pytest.fixture(scope="module")
def contract_paths(tmp_path_factory):
    """The files and output paths the contract draws from: a tiny valid CMX,
    a truncated one, an empty file, a NaN entry, entries of 1e200 and of 1e-200, a design
    file and a missing path; an output path, and one in a missing directory."""
    root = tmp_path_factory.mktemp("contract")
    sign = rademacher(7, 5, seed=0)
    write_cmx(sign, root / "valid.cmx")
    text = (root / "valid.cmx").read_text()
    (root / "truncated.cmx").write_text(text[:len(text) * 2 // 3])
    (root / "empty.cmx").write_text("")
    (root / "nan.cmx").write_text("#cmx 1\nfield real\nrows 2\ncols 2\nmeta {}\n1 nan\n0 1\n")
    write_cmx(Matrix(1e200 * sign.data), root / "huge.cmx")  # finite, but squares overflow
    (root / "tiny.cmx").write_text("#cmx 1\nfield real\nrows 2\ncols 3\nmeta {}\n"
                                   "1e-200 1e-200 0\n0 1e-200 1e-200\n")  # squares underflow
    write_design(matrix_to_design(sign, 1)[0], root / "design.cmx", {})
    files = [str(root / name) for name in ("valid.cmx", "truncated.cmx", "empty.cmx",
                                           "nan.cmx", "huge.cmx", "tiny.cmx", "design.cmx",
                                           "missing.cmx")]
    return files, [str(root / "out.cmx"), str(root / "absent" / "out.cmx")]


def _no_constant(name):
    raise AssertionError(f"{name} in a JSON report")


@pytest.mark.parametrize("command", sorted(GRAMMAR))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_exit_contract(contract_paths, command, data):
    files, outputs = contract_paths
    leaf = data.draw(st.sampled_from(sorted(GRAMMAR[command], key=str)), label="leaf")
    argv = [command] + ([leaf] if leaf else [])
    for flag, values, always in GRAMMAR[command][leaf]:
        if always or data.draw(st.booleans()):
            values = files if values is FILE else outputs if values is OUT else values
            argv += ([flag] if flag else []) + [data.draw(st.sampled_from(values))]
    note(f"argv: {argv}")
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err and "Warning" not in out + err
    if code == 2:
        assert out == ""
        assert re.fullmatch(r"error: [^\n]*\n|usage: ripforge .*\nripforge [^\n]*: error: [^\n]*\n",
                            err, re.S), err
    else:
        assert code in (0, 1)
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out, parse_constant=_no_constant), dict)
