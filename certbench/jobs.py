"""The three workloads: fixed job lists, each job with its own output check.

A job is one argv for ``ripforge.cli.run``.  Files are named relative to
the workload's working directory.  Sizes are fixed; the workload seed
only picks the seeds handed to the program (Las Vegas, probe, verify,
recover) and the vectors and 4-subsets the checks draw for themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import (DEFECT_TOL, EMBEDDING_SLACK, ENTRY_TOL, IDENTITY_GATE, ISOMETRY_RTOL,
                    MOMENT_TOL, OWN_VECTORS, CheckFailed, Cmx, alltop_matrix, close,
                    composed_degree, devore_matrix, distinct_differences, exact_coherence,
                    explicit_defect_k1, file_digest, golomb_marks, golomb_matrix, golomb_rows,
                    kappa_auto, max_entry_error, max_pair_sum, max_quad_sum_checked,
                    parse_cmx, quad_sum, require, sign_ints, sphere_moment, theorem1,
                    weil_matrix)

SIGN_ROWS = 1775                 # m at which N = 32, s = 2, delta = 0.5 is certified
SIGN_COLS = (32, 64, 80)
PROBE_TRIALS = {32: 10_000, 64: 4_000, 80: 4_000}
DELTA, SPARSITY = 0.5, 2


class Context:
    """Per-process state of the checks: parsed files and memoized references."""

    def __init__(self, seed: int):
        self.seed = seed
        self._memo: dict = {}

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def matrix(self, path) -> Cmx:
        return self.memo(("cmx", file_digest(path)), lambda: parse_cmx(path))

    def derived(self, name: str, path, compute):
        """A reference value computed once per distinct file content."""
        return self.memo((name, file_digest(path)), compute)

    def rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *tag])


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[dict, Context], None]
    outputs: tuple[str, ...] = ()

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    setup_jobs: list[Job] = field(default_factory=list)   # input generation, untimed


def expect(report: dict, **fields) -> None:
    for key, want in fields.items():
        got = report.get(key)
        if isinstance(want, float):
            require(isinstance(got, (int, float)) and close(got, want),
                    f"{key}={got!r}, expected {want!r}")
        else:
            require(got == want and type(got) is type(want), f"{key}={got!r}, expected {want!r}")


def argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def own_vectors(ctx: Context, tag: int, n: int) -> np.ndarray:
    """OWN_VECTORS complex Gaussian columns drawn by the benchmark, not the program."""
    rng = ctx.rng(tag)
    return rng.standard_normal((n, OWN_VECTORS)) + 1j * rng.standard_normal((n, OWN_VECTORS))


# -- sign-cert ----------------------------------------------------------------

def construct_lasvegas(m: int, n: int, seed: int, out: str) -> Job:
    def check(rep, ctx):
        expect(rep, construction="lasvegas", rows=m, cols=n, field="real", path=out,
               kappa=kappa_auto(n))
        rounds = rep.get("rounds_used")
        require(isinstance(rounds, int) and rounds >= 1, f"rounds_used={rounds!r}")
        cmx = ctx.matrix(out)
        a = sign_ints(cmx)
        require(a.shape == (m, n), f"file shape {a.shape}")
        require(cmx.meta.get("round") == rounds and cmx.meta.get("seed") == seed,
                f"file meta {cmx.meta} does not match round {rounds}, seed {seed}")
        threshold = kappa_auto(n) * math.sqrt(m)
        require(max_pair_sum(a) <= threshold, "a pair sum exceeds kappa sqrt(m)")
        worst = ctx.derived("quad", out, lambda: max_quad_sum_checked(a, ctx.rng(n)))
        require(worst <= threshold, f"a quadruple sum {worst} exceeds kappa sqrt(m)")
    return Job(argv("construct", "lasvegas", "--m", m, "--N", n, "--kappa", "auto",
                    "--seed", seed, "-o", out), check, (out,))


def certify_cond(path: str) -> Job:
    def check(rep, ctx):
        a = sign_ints(ctx.matrix(path))
        m, n = a.shape
        kappa = kappa_auto(n)
        expect(rep, kappa=kappa, threshold=kappa * math.sqrt(m), cond_a_pass=True,
               cond_b_pass=True, delta=DELTA, s=SPARSITY, **theorem1(kappa, DELTA, SPARSITY))
        pair, quad = rep.get("max_pair_sum"), rep.get("max_quad_sum")
        require(isinstance(pair, int) and isinstance(quad, int), "sums must be integers")
        require(max(pair, quad) <= kappa * math.sqrt(m), "reported sum above the threshold")
        k, kp = rep["pair_witness"]
        require(0 <= k < n and 0 <= kp < n and k != kp and abs(int(a[:, k] @ a[:, kp])) == pair,
                f"pair sum at witness {(k, kp)} is not {pair}")
        require(max_pair_sum(a) == pair, "max_pair_sum is not the maximum pair sum")
        require(quad_sum(a, rep["quad_witness"]) == quad,
                f"quadruple sum at witness {rep['quad_witness']} is not {quad}")
        worst = ctx.derived("quad", path, lambda: max_quad_sum_checked(a, ctx.rng(n)))
        require(worst <= quad, f"a 4-subset sums to {worst} > reported max {quad}")
        if n <= 32:
            require(worst == quad, f"full enumeration gives {worst}, reported {quad}")
        expect(rep, coherence=pair / m)
    return Job(argv("certify", "cond", path, "--kappa", "auto", "--delta", DELTA,
                    "--s", SPARSITY), check)


def probe(path: str, trials: int, seed: int) -> Job:
    def check(rep, ctx):
        a = ctx.matrix(path).data
        m, n = a.shape
        lo, hi = rep.get("min_ratio"), rep.get("max_ratio")
        require(all(isinstance(v, float) and math.isfinite(v) for v in (lo, hi))
                and 0.0 < lo <= hi, f"ratios {lo!r}, {hi!r}")
        expect(rep, trials=trials, empirical_distortion=hi / lo)
        bound = theorem1(kappa_auto(n), DELTA, SPARSITY)
        if m >= bound["m_required"]:        # Theorem 1 applies: every ratio in [alpha m, beta m]
            require(bound["alpha"] * m <= lo and hi <= bound["beta"] * m,
                    f"ratios [{lo}, {hi}] leave [alpha m, beta m]")
        else:                               # |(Ax)_j| <= ||x||_1 <= sqrt(s) ||x||_2
            require(hi <= m * math.sqrt(SPARSITY), f"max ratio {hi} above m sqrt(s)")
    return Job(argv("probe", path, "--s", SPARSITY, "--trials", trials, "--seed", seed), check)


def recover(path: str, seed: int) -> Job:
    def check(rep, ctx):
        expect(rep, s=SPARSITY, converged=True, recovered=True)
        err, its, res = rep.get("rel_error"), rep.get("iterations"), rep.get("final_residual")
        require(isinstance(err, float) and 0.0 <= err <= 1e-6, f"rel_error={err!r}")
        require(isinstance(its, int) and 1 <= its <= 500, f"iterations={its!r}")
        require(isinstance(res, float) and math.isfinite(res) and res >= 0.0,
                f"final_residual={res!r}")
    return Job(argv("recover", path, "--s", SPARSITY, "--seed", seed), check)


def sign_cert(seed: int) -> Workload:
    jobs = []
    for n in SIGN_COLS:
        path = f"lv{n}.cmx"
        jobs += [construct_lasvegas(SIGN_ROWS, n, 1000 * seed + n, path),
                 certify_cond(path),
                 probe(path, PROBE_TRIALS[n], 1000 * seed + n + 1),
                 recover(path, 1000 * seed + n + 2)]
    return Workload("sign-cert", jobs)


# -- phase-verify -------------------------------------------------------------

def check_golomb_entries(data: np.ndarray, p: int) -> None:
    m = golomb_rows(p)
    marks = golomb_marks(p)
    require(distinct_differences(marks), f"marks for p={p} repeat a difference")
    seen = np.rint(np.angle(data[1]) * m / (2 * math.pi)).astype(np.int64) % m
    require(seen.tolist() == marks, "row 1 does not carry the Golomb marks")
    err = max_entry_error(data, golomb_matrix(p))
    require(err <= ENTRY_TOL, f"entry off its exact phase by {err:.3e}")
    gram = data.conj().T @ data
    off = float(np.max(np.abs(gram - m * np.eye(p))))
    require(off <= 1e-12 * m, f"columns not orthogonal with norm^2 m (dev {off:.3e})")


def construct_golomb(p: int, out: str) -> Job:
    def check(rep, ctx):
        expect(rep, construction="golomb_phase", rows=golomb_rows(p), cols=p,
               field="complex", path=out)
        check_golomb_entries(ctx.matrix(out).data, p)
    return Job(argv("construct", "golomb", "--p", p, "-o", out), check, (out,))


def construct_golomb_stacked(p: int, out: str) -> Job:
    def check(rep, ctx):
        m = golomb_rows(p)
        expect(rep, construction="golomb_stacked", rows=m + p, cols=p, field="complex",
               path=out)
        data = ctx.matrix(out).data
        require(data.shape == (m + p, p), f"file shape {data.shape}")
        check_golomb_entries(data[:m] * (2.0 * m) ** 0.25, p)
        want = np.vstack([golomb_matrix(p) / (2.0 * m) ** 0.25, np.eye(p) / 2.0 ** 0.25])
        err = max_entry_error(data, want)
        require(err <= ENTRY_TOL, f"stacked entry off by {err:.3e}")
    return Job(argv("construct", "golomb-stacked", "--p", p, "-o", out), check, (out,))


def construct_composed(s: int, n: int, p: int, out: str) -> Job:
    def check(rep, ctx):
        m, d = golomb_rows(p), composed_degree(p, n)
        expect(rep, construction="composed", rows=m, cols=n, field="complex", path=out)
        cmx = ctx.matrix(out)
        require(cmx.meta.get("p") == p and cmx.meta.get("d") == d,
                f"meta {cmx.meta} does not record p={p}, d={d}")
        err = max_entry_error(cmx.data, golomb_matrix(p) @ weil_matrix(p, d, n))
        require(err <= 1e-11, f"composed entry off by {err:.3e}")
        l1 = np.abs(cmx.data).sum(axis=0)   # unit-norm Weil columns: ||A w||_1 in [m/sqrt2, m]
        require(bool(np.all(l1 >= m / math.sqrt(2) * (1 - EMBEDDING_SLACK)))
                and bool(np.all(l1 <= m * (1 + EMBEDDING_SLACK))),
                "a column's l1 norm leaves [m/sqrt(2), m]")
    return Job(argv("construct", "composed", "--s", s, "--N", n, "--p", p, "-o", out),
               check, (out,))


def verify_identities(path: str, seed: int, trials: int) -> Job:
    def check(rep, ctx):
        expect(rep, property="identities", trials=trials, l4_checked=True,
               tolerance=IDENTITY_GATE, **{"pass": True})
        gap = rep.get("max_gap")
        require(isinstance(gap, float) and 0.0 <= gap <= IDENTITY_GATE, f"max_gap={gap!r}")
    return Job(argv("verify", "identities", path, "--seed", seed, "--trials", trials), check)


def verify_isometry(path: str, seed: int, trials: int) -> Job:
    def check(rep, ctx):
        expect(rep, property="isometry", trials=trials, tolerance=ISOMETRY_RTOL,
               **{"pass": True})
        dev = rep.get("max_rel_deviation")
        require(isinstance(dev, float) and 0.0 <= dev <= ISOMETRY_RTOL,
                f"max_rel_deviation={dev!r}")
        data = ctx.matrix(path).data
        x = own_vectors(ctx, 1, data.shape[1])
        l4 = np.sum(np.abs(data @ x) ** 4, axis=0) ** 0.25
        l2 = np.linalg.norm(x, axis=0)
        worst = float(np.max(np.abs(l4 - l2) / l2))
        require(worst <= ISOMETRY_RTOL, f"||Mx||_4 vs ||x||_2 off by {worst:.3e}")
    return Job(argv("verify", "isometry", path, "--seed", seed, "--trials", trials), check)


def verify_embedding(path: str, p: int, seed: int, trials: int) -> Job:
    def check(rep, ctx):
        m = golomb_rows(p)
        lo_bound, hi_bound = m / math.sqrt(2), float(m)
        expect(rep, property="embedding", trials=trials, lower_bound=lo_bound,
               upper_bound=hi_bound, **{"pass": True})
        lo, hi = rep.get("min_ratio"), rep.get("max_ratio")
        require(isinstance(lo, float) and isinstance(hi, float)
                and lo >= lo_bound * (1 - EMBEDDING_SLACK) and hi <= hi_bound * (1 + EMBEDDING_SLACK)
                and lo <= hi, f"ratios [{lo!r}, {hi!r}] leave [m/sqrt(2), m]")
        expect(rep, empirical_distortion=hi / lo)
        data = ctx.matrix(path).data
        x = own_vectors(ctx, 2, p)
        ratio = np.abs(data @ x).sum(axis=0) / np.linalg.norm(x, axis=0)
        require(bool(np.all(ratio >= lo_bound * (1 - EMBEDDING_SLACK)))
                and bool(np.all(ratio <= hi_bound * (1 + EMBEDDING_SLACK))),
                "own vector leaves the l1 embedding bounds")
    return Job(argv("verify", "embedding", path, "--seed", seed, "--trials", trials), check)


def phase_verify(seed: int) -> Workload:
    return Workload("phase-verify", [
        construct_golomb(19, "g19.cmx"),
        construct_golomb(37, "g37.cmx"),
        construct_golomb_stacked(31, "gs31.cmx"),
        construct_composed(2, 400, 7, "comp.cmx"),
        verify_identities("g19.cmx", 1000 * seed + 1, 4),
        verify_isometry("gs31.cmx", 1000 * seed + 2, 1000),
        verify_embedding("g37.cmx", 37, 1000 * seed + 3, 200),
    ])


# -- gram-cert ----------------------------------------------------------------

def construct_exact(family: str, params: dict, rows: int, want: Callable[[], np.ndarray],
                    out: str, field_name: str = "complex") -> Job:
    """A Weil/Alltop/DeVore construct checked entry by entry against `want`."""
    def check(rep, ctx):
        expect(rep, construction=family, rows=rows, field=field_name, path=out)
        ref = want()
        expect(rep, cols=ref.shape[1])
        err = max_entry_error(ctx.matrix(out).data, ref)
        require(err <= ENTRY_TOL, f"{family} entry off by {err:.3e}")
    flags = [x for key, value in params.items() for x in (f"--{key}", value)]
    return Job(argv("construct", family, *flags, "-o", out), check, (out,))


def construct_weil(p: int, d: int, out: str) -> Job:
    return construct_exact("weil", {"p": p, "d": d}, p, lambda: weil_matrix(p, d, p ** (d + 1)), out)


def construct_alltop(m: int, out: str) -> Job:
    return construct_exact("alltop", {"m": m}, m, lambda: alltop_matrix(m), out)


def construct_devore(p: int, d: int, out: str) -> Job:
    return construct_exact("devore", {"p": p, "d": d}, p * p, lambda: devore_matrix(p, d), out,
                           "real")


def certify_coherence(path: str, bound: float, exact: bool = False) -> Job:
    """Coherence equal to the benchmark's blocked computation and within `bound`
    (equal to it when `exact`)."""
    def check(rep, ctx):
        data = ctx.matrix(path).data
        expect(rep, rows=data.shape[0], cols=data.shape[1])
        mu = rep.get("coherence")
        require(isinstance(mu, float), f"coherence={mu!r}")
        ref = ctx.derived("coherence", path, lambda: exact_coherence(data))
        require(close(mu, ref), f"coherence {mu!r} != recomputed {ref!r}")
        require(close(mu, bound) if exact else mu <= bound * (1 + 1e-12),
                f"coherence {mu!r} against bound {bound!r}")
    return Job(argv("certify", "coherence", path), check)


def certify_ric(path: str, s: int) -> Job:
    def check(rep, ctx):
        data = ctx.matrix(path).data
        mu = ctx.derived("coherence", path, lambda: exact_coherence(data))
        expect(rep, s=s, coherence=mu, s_mu_bound=s * mu)
        delta = rep.get("delta_s")
        require(isinstance(delta, float) and mu * (1 - 1e-12) <= delta <= (s - 1) * mu * (1 + 1e-12),
                f"delta_s={delta!r} outside [mu, (s-1) mu] with mu={mu!r}")
    return Job(argv("certify", "ric", path, "--s", s), check)


def design_from_matrix(src: str, k: int, out: str, total: float | None = None) -> Job:
    def check(rep, ctx):
        data = ctx.matrix(src).data
        norms = np.linalg.norm(data, axis=1)
        powers = norms ** (2 * k)
        s_sum = float(powers.sum())
        expect(rep, k=k, n_points=data.shape[0], dim=data.shape[1], S=s_sum, path=out)
        if total is not None:
            expect(rep, S=total)
        ps = ctx.matrix(out)
        require(ps.meta.get("kind") == "pointset" and ps.meta.get("k") == k
                and ps.meta.get("source") == src, f"point-set meta {ps.meta}")
        w = np.asarray(ps.meta.get("weights"), dtype=np.float64)
        require(w.shape == (data.shape[0],), "one weight per point")
        require(float(np.max(np.abs(w - powers / s_sum) / (powers / s_sum))) <= 1e-12,
                "weights are not ||a_i||^(2k) / S")
        require(abs(float(w.sum()) - 1.0) <= 1e-12, "weights do not sum to 1")
        err = max_entry_error(ps.data, data / norms[:, None])
        require(err <= 1e-15, f"points are not the normalized rows (off by {err:.3e})")
    return Job(argv("design", "from-matrix", src, "--k", k, "-o", out), check, (out,))


def design_defect(path: str, k: int, zero: bool) -> Job:
    def check(rep, ctx):
        ps = ctx.matrix(path)
        n_points, dim = ps.data.shape
        expect(rep, k=k, n_points=n_points, dim=dim, field=ps.field,
               delta=sphere_moment(dim, k, ps.field))
        defect = rep.get("defect")
        require(isinstance(defect, float) and defect >= -DEFECT_TOL,
                f"defect {defect!r} below zero (Sidelnikov)")
        if zero:
            require(abs(defect) <= DEFECT_TOL, f"defect {defect!r} of an exact design")
        if k == 1:
            w = np.asarray(ps.meta["weights"], dtype=np.float64)
            ref = ctx.derived("moment", path, lambda: explicit_defect_k1(ps.data, w))
            require(abs(defect - ref) <= MOMENT_TOL,
                    f"defect {defect!r} != explicit moment-matrix value {ref!r}")
    return Job(argv("design", "defect", path, "--k", k), check)


def gram_cert(seed: int) -> Workload:
    return Workload("gram-cert", setup_jobs=[
        construct_weil(7, 2, "w7.cmx"),        # both under 10 ms: input generation
        construct_weil(5, 2, "w5.cmx"),
    ], jobs=[
        construct_weil(13, 2, "w13.cmx"),
        construct_alltop(47, "a47.cmx"),
        construct_devore(13, 2, "d13.cmx"),
        construct_golomb_stacked(23, "gs23.cmx"),
        certify_coherence("w13.cmx", 2 / math.sqrt(13)),
        certify_coherence("a47.cmx", 1 / math.sqrt(47), exact=True),
        certify_coherence("d13.cmx", 2 / 13),
        certify_ric("w7.cmx", 2),
        certify_ric("w5.cmx", 3),
        design_from_matrix("gs23.cmx", 2, "ps23.cmx", total=23 * 24 / 2),
        design_defect("ps23.cmx", 2, zero=True),
        design_from_matrix("d13.cmx", 1, "psd13.cmx"),
        design_defect("psd13.cmx", 1, zero=False),
    ])


WORKLOADS = {"sign-cert": sign_cert, "phase-verify": phase_verify, "gram-cert": gram_cert}


def run_check(job: Job, stdout: str, ctx: Context) -> str | None:
    """None when the job's output passes its check, else the reason."""
    try:
        report = json_line(stdout)
        job.check(report, ctx)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _reject_constant(name: str):
    raise CheckFailed(f"report holds {name}, which is not JSON")


def json_line(stdout: str) -> dict:
    lines = stdout.splitlines()
    require(len(lines) == 1, f"expected one JSON line on stdout, got {len(lines)}")
    report = json.loads(lines[0], parse_constant=_reject_constant)
    require(isinstance(report, dict), "report is not a JSON object")
    return report
