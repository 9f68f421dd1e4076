import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ripforge
from ripforge.cli import run
from ripforge.constructors import rademacher
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
    for kappa in ("nan", "inf"):       # a non-finite threshold certifies nothing
        assert run(["construct", "lasvegas", "--m", "64", "--N", "16", "--kappa", kappa,
                    "--seed", "1", "-o", str(tmp_path / "k.cmx")]) == 2
    capsys.readouterr()


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
    code, report = run_json(capsys, ["construct", "lasvegas", "--m", "1", "--N", "16",
                                     "--kappa", "0.01", "--max-rounds", "3",
                                     "--seed", "0", "-o", "/tmp/never.cmx"])
    assert code == 1
    assert report["rounds"] == 3
    assert report["max_pair_sum"] >= 1


def test_seeded_output_is_byte_identical(tmp_path, capsys):
    path = str(tmp_path / "lv.cmx")
    assert run(["construct", "lasvegas", "--m", "64", "--N", "16", "--seed", "5",
                "-o", path]) == 0
    capsys.readouterr()
    argv = ["probe", path, "--s", "2", "--trials", "200", "--seed", "11"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


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


def test_composed_without_override_exits_2(capsys):
    code = run(["construct", "composed", "--s", "1", "--N", "20", "-o", "/tmp/c.cmx"])
    err = capsys.readouterr().err
    assert code == 2
    assert "p_override" in err


def test_recover_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "lv.cmx")
    assert run(["construct", "lasvegas", "--m", "128", "--N", "16", "--seed", "2",
                "-o", path]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["recover", path, "--s", "2", "--seed", "3"])
    assert code == 0
    assert report["recovered"] is True and report["rel_error"] <= 1e-6


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
