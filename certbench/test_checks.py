"""The benchmark's own tests: every output check passes on real output and
fails on a deliberately corrupted one.

    python3 -m pytest certbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
from ripforge import cli  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(job: jobs.Job) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(job.argv)) == 0
    return out.getvalue()


def passes(job: jobs.Job, stdout: str, seed: int = 1) -> bool:
    return jobs.run_check(job, stdout, jobs.Context(seed)) is None


def tamper(stdout: str, **fields) -> str:
    report = json.loads(stdout)
    report.update(fields)
    return json.dumps(report, sort_keys=True) + "\n"


def edit_token(path: str, row: int, col: int, edit) -> None:
    """Replace entry (row, col) of a CMX file by edit(token)."""
    lines = Path(path).read_text().split("\n")
    toks = lines[5 + row].split(" ")
    toks[col] = edit(toks[col])
    lines[5 + row] = " ".join(toks)
    Path(path).write_text("\n".join(lines))


def flip_sign(tok: str) -> str:
    return tok[1:] if tok.startswith("-") else "-" + tok


def rotate(tok: str, angle: float = 1e-9) -> str:
    re_, im = (float(x) for x in tok.split(":"))
    z = complex(re_, im) * complex(math.cos(angle), math.sin(angle))
    return f"{z.real:.17g}:{z.imag:.17g}"


def truncate_line(path: str, row: int) -> None:
    lines = Path(path).read_text().split("\n")
    lines[5 + row] = lines[5 + row].rsplit(" ", 1)[0]
    Path(path).write_text("\n".join(lines))


# -- sign-cert ----------------------------------------------------------------

@pytest.fixture
def sign32(work):
    job = jobs.construct_lasvegas(1775, 32, 7, "lv.cmx")
    return job, run(job)


def test_lasvegas_construct_checked(sign32):
    job, out = sign32
    assert passes(job, out)
    assert not passes(job, tamper(out, kappa=5.0))
    assert not passes(job, tamper(out, rounds_used=0))
    edit_token("lv.cmx", 3, 4, lambda tok: "0.5")          # not a sign entry
    assert not passes(job, out)


def test_lasvegas_truncated_line_fails(sign32):
    job, out = sign32
    truncate_line("lv.cmx", 10)
    assert not passes(job, out)


def test_cond_checked_against_int64_sums(sign32):
    cond = jobs.certify_cond("lv.cmx")
    out = run(cond)
    assert passes(cond, out)
    rep = json.loads(out)
    assert not passes(cond, tamper(out, max_quad_sum=rep["max_quad_sum"] - 2))
    assert not passes(cond, tamper(out, max_pair_sum=rep["max_pair_sum"] + 2))
    assert not passes(cond, tamper(out, cond_b_pass=False))
    assert not passes(cond, tamper(out, alpha=rep["alpha"] * 1.001))
    assert not passes(cond, tamper(out, m_required=rep["m_required"] - 1))
    others = [i for i in range(32) if i not in rep["quad_witness"]][:4]
    assert not passes(cond, tamper(out, quad_witness=others))


def test_cond_flipped_sign_at_witness_fails(sign32):
    cond = jobs.certify_cond("lv.cmx")
    out = run(cond)
    edit_token("lv.cmx", 0, json.loads(out)["quad_witness"][0], flip_sign)
    assert not passes(cond, out)


def test_probe_and_recover_checked(sign32):
    probe = jobs.probe("lv.cmx", 2000, 3)
    out = run(probe)
    assert passes(probe, out)
    alpha_m = checks.theorem1(checks.kappa_auto(32), 0.5, 2)["alpha"] * 1775
    assert not passes(probe, tamper(out, min_ratio=alpha_m * 0.99))
    assert not passes(probe, tamper(out, empirical_distortion=2.0))
    assert not passes(probe, tamper(out, trials=1999))
    rec = jobs.recover("lv.cmx", 9)
    out = run(rec)
    assert passes(rec, out)
    assert not passes(rec, tamper(out, rel_error=1e-3))
    assert not passes(rec, tamper(out, recovered=False))


# -- phase-verify -------------------------------------------------------------

def test_golomb_construct_checked(work):
    job = jobs.construct_golomb(5, "g.cmx")
    out = run(job)
    assert passes(job, out)
    assert not passes(job, tamper(out, rows=120))
    edit_token("g.cmx", 7, 2, rotate)
    assert not passes(job, out)


def test_cmx_round_trip_is_bit_exact(work):
    job = jobs.construct_golomb(5, "g.cmx")
    out = run(job)
    edit_token("g.cmx", 0, 0, lambda tok: "1.0:0.0")       # same double, not canonical text
    with pytest.raises(checks.CheckFailed):
        checks.parse_cmx("g.cmx")
    assert not passes(job, out)


def test_golomb_truncated_line_fails(work):
    job = jobs.construct_golomb(5, "g.cmx")
    out = run(job)
    truncate_line("g.cmx", 120)
    assert not passes(job, out)


def test_stacked_and_isometry_checked(work):
    job = jobs.construct_golomb_stacked(5, "gs.cmx")
    out = run(job)
    assert passes(job, out)
    iso = jobs.verify_isometry("gs.cmx", 1, 50)
    iso_out = run(iso)
    assert passes(iso, iso_out)
    assert not passes(iso, tamper(iso_out, max_rel_deviation=1e-9))
    edit_token("gs.cmx", 3, 1, lambda tok: rotate(tok, 1e-5))
    assert not passes(job, out)
    assert not passes(iso, iso_out)                         # the benchmark's own vectors


def test_identities_checked(work):
    run(jobs.construct_golomb(5, "g.cmx"))
    job = jobs.verify_identities("g.cmx", 1, 2)
    out = run(job)
    assert passes(job, out)
    assert not passes(job, tamper(out, l4_checked=False))
    assert not passes(job, tamper(out, max_gap=2e-8))


def test_embedding_checked(work):
    run(jobs.construct_golomb(5, "g.cmx"))
    job = jobs.verify_embedding("g.cmx", 5, 1, 50)
    out = run(job)
    assert passes(job, out)
    assert not passes(job, tamper(out, min_ratio=121 / math.sqrt(2) * 0.99))
    assert not passes(job, tamper(out, lower_bound=80.0))


def test_composed_checked(work):
    job = jobs.construct_composed(1, 20, 3, "c.cmx")
    out = run(job)
    assert passes(job, out)
    edit_token("c.cmx", 4, 7, rotate)
    assert not passes(job, out)


# -- gram-cert ----------------------------------------------------------------

@pytest.mark.parametrize("make, corrupt", [
    (lambda: jobs.construct_weil(5, 2, "w.cmx"), rotate),
    (lambda: jobs.construct_alltop(11, "w.cmx"), rotate),
    (lambda: jobs.construct_devore(5, 2, "w.cmx"), lambda tok: "0" if tok != "0" else "1"),
])
def test_exact_constructs_checked(work, make, corrupt):
    job = make()
    out = run(job)
    assert passes(job, out)
    edit_token("w.cmx", 1, 3, corrupt)
    assert not passes(job, out)


def test_coherence_checked(work):
    run(jobs.construct_alltop(11, "a.cmx"))
    run(jobs.construct_weil(5, 2, "w.cmx"))
    alltop = jobs.certify_coherence("a.cmx", 1 / math.sqrt(11), exact=True)
    weil = jobs.certify_coherence("w.cmx", 2 / math.sqrt(5))
    a_out, w_out = run(alltop), run(weil)
    assert passes(alltop, a_out) and passes(weil, w_out)
    assert not passes(alltop, tamper(a_out, coherence=0.31))
    assert not passes(weil, tamper(w_out, coherence=json.loads(w_out)["coherence"] * 0.999))
    assert not passes(weil, tamper(w_out, coherence=float("nan")))


def test_ric_checked(work):
    run(jobs.construct_weil(5, 2, "w.cmx"))
    job = jobs.certify_ric("w.cmx", 3)
    out = run(job)
    assert passes(job, out)
    mu = json.loads(out)["coherence"]
    assert not passes(job, tamper(out, delta_s=2.5 * mu))
    assert not passes(job, tamper(out, delta_s=0.5 * mu))
    assert not passes(job, tamper(out, coherence=mu * 1.01))


def test_design_zero_defect_checked(work):
    run(jobs.construct_golomb_stacked(5, "gs.cmx"))
    conv = jobs.design_from_matrix("gs.cmx", 2, "ps.cmx", total=15.0)
    conv_out = run(conv)
    assert passes(conv, conv_out)
    defect = jobs.design_defect("ps.cmx", 2, zero=True)
    out = run(defect)
    assert passes(defect, out)
    assert not passes(defect, tamper(out, defect=1e-6))
    assert not passes(defect, tamper(out, defect=-1e-6))
    assert not passes(defect, tamper(out, delta=0.1))
    assert not passes(conv, tamper(conv_out, S=15.5))
    meta_line = Path("ps.cmx").read_text().split("\n")[4]
    meta = json.loads(meta_line[5:])
    meta["weights"][0] *= 1.001
    text = Path("ps.cmx").read_text().replace(meta_line, "meta " + json.dumps(meta))
    Path("ps.cmx").write_text(text)
    assert not passes(conv, conv_out)


def test_design_k1_defect_matches_moment_matrix(work):
    run(jobs.construct_devore(5, 2, "d.cmx"))
    run(jobs.design_from_matrix("d.cmx", 1, "psd.cmx"))
    job = jobs.design_defect("psd.cmx", 1, zero=False)
    out = run(job)
    assert passes(job, out)
    assert json.loads(out)["defect"] > 1e-3                 # not a 2-design
    assert not passes(job, tamper(out, defect=json.loads(out)["defect"] + 1e-8))


def test_report_must_be_one_json_line(work):
    run(jobs.construct_weil(5, 2, "w.cmx"))
    job = jobs.certify_ric("w.cmx", 2)
    out = run(job)
    assert not passes(job, out + out)
    assert not passes(job, out.replace('"s": 2', '"s": NaN'))


# -- tracing --------------------------------------------------------------------

def test_tracing_keeps_stdout_and_restores_functions(work):
    from ripforge import certify, constructors
    job = jobs.construct_lasvegas(1775, 32, 7, "lv.cmx")
    cond = jobs.certify_cond("lv.cmx")
    plain = [run(job), run(cond)]
    original = certify.condition_b
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert certify.condition_b is not original
        assert constructors.golomb_phase.__wrapped__ is not None
        traced = []
        for j in (job, cond):
            span = tracer.open(f"cli.{j.subcommand}")
            traced.append(run(j))
            tracer.close(span)
    finally:
        tracer.uninstall()
    assert certify.condition_b is original
    assert traced == plain
    layers = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert layers["certify.las_vegas.rounds"] == json.loads(plain[0])["rounds_used"]
    assert layers["certify.condition_b.quads_per_s"] > 0
    assert 0 <= layers["cli.self_s"] <= layers["cli.construct.s"] + layers["cli.certify.s"]
    assert all(v >= 0 for k, v in layers.items() if k.endswith(".s"))
