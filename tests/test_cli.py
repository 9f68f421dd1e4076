import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ripforge
from ripforge.cli import run
from ripforge.constructors import rademacher, weil
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
             "r33": rademacher(4, 33, seed=0), "s8": rademacher(16, 8, seed=0)}
    path = {name: str(tmp_path / f"{name}.cmx") for name in files}
    for name, mat in files.items():
        write_cmx(mat, path[name])
    path["nan"] = str(tmp_path / "nan.cmx")
    Path(path["nan"]).write_text("#cmx 1\nfield real\nrows 2\ncols 2\nmeta {}\n1 nan\n0 1\n")
    path["off"] = str(tmp_path / "off.cmx")
    Path(path["off"]).write_text('#cmx 1\nfield real\nrows 2\ncols 2\n'
                                 'meta {"weights": [0.5, 0.5]}\n1 0\n0 2\n')
    out = str(tmp_path / "out.cmx")
    huge_m = "m_required = ceil(kappa^2 s^4 / delta^2) reaches 2^63 rows"
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
    ]
    capsys.readouterr()
    for argv, message in table:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
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
