"""Command-line surface.

Every subcommand prints a single-line JSON report on stdout and
diagnostics on stderr, and exits with 0 (success / check passed),
1 (certification or verification failed) or 2 (invalid input, including
a request too large for memory and a result that float64 cannot hold).  All
randomized paths take an explicit --seed and reproduce byte-identical
output for identical seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, certify, constructors, designs, matrix_core, recovery
from .errors import InvalidParams, RipforgeError, RoundsExhausted

IDENTITY_TOL = 1e-8
ISOMETRY_RTOL = 1e-10
EMBEDDING_SLACK = 1e-9
RECOVERY_TOL = 1e-6


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _json_line(report: dict) -> str:
    try:
        return json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:  # allow_nan=False refuses NaN and inf
        raise FloatingPointError("the report holds a NaN or inf") from None


def _kappa_value(text: str, n_cols: int) -> float:
    if text == "auto":
        return certify.default_kappa(n_cols)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidParams(f"--kappa must be 'auto' or a finite number > 0, got {text!r}")
    return value


# -- construct ----------------------------------------------------------------

def _lasvegas(args) -> tuple:
    kappa = _kappa_value(args.kappa, args.N)
    mat, rounds = certify.las_vegas(args.m, args.N, kappa=kappa, seed=args.seed)
    return mat, {"rounds_used": rounds, "kappa": kappa}


def _cmd_construct(args) -> tuple[dict, bool]:
    mat, extra = args.build(args)  # the leaf's builder: (matrix, extra report fields)
    matrix_core.write_cmx(mat, args.output)
    return {"construction": mat.meta.get("construction"), "rows": mat.rows, "cols": mat.cols,
            "field": mat.field_name, "path": args.output, **extra}, True


# -- certify ------------------------------------------------------------------

def _cmd_certify(args) -> tuple[dict, bool]:
    mat = matrix_core.read_cmx(args.file)
    if args.check == "coherence":
        mu = certify.coherence(mat)
        return {"coherence": mu, "rows": mat.rows, "cols": mat.cols}, True
    if args.check == "ric":
        delta_s = certify.exact_ric(mat, args.s)
        # delta_2 = mu: one strip pass
        mu = delta_s if args.s == 2 else certify.coherence(mat)
        return {"s": args.s, "delta_s": delta_s, "coherence": mu,
                "s_mu_bound": args.s * mu}, True
    if (args.delta is None) != (args.s is None):
        raise InvalidParams("--delta and --s must be given together")
    kappa = _kappa_value(args.kappa, mat.cols)
    bound = {}
    if args.delta is not None:  # Theorem 1 needs kappa, delta and s, not A: check before the scan
        bound = {"delta": args.delta, "s": args.s,
                 **asdict(certify.theorem1_bound(kappa, args.delta, args.s))}
    report = certify.certify_sign_matrix(mat, kappa=kappa)
    return {**asdict(report), **bound}, report.cond_a_pass and report.cond_b_pass


# -- probe --------------------------------------------------------------------

def _cmd_probe(args) -> tuple[dict, bool]:
    mat = matrix_core.read_cmx(args.file)
    report = certify.probe_l1(mat, args.s, args.trials, args.seed)
    out = asdict(report)
    out["note"] = "sampled spread is a lower bound on the true distortion"
    return out, True


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> tuple[dict, bool]:
    mat = matrix_core.read_cmx(args.file)
    # dense Gaussian vectors, the s = N draws of the one sampler; each gets its own
    # matrix-vector product, since a threaded multi-column product on a tall
    # complex matrix stays megabytes more resident
    vectors = (x for X in certify._sparse_trials(args.seed, mat.cols, mat.cols, args.trials,
                                                 mat.field_name == "complex") for x in X.T)
    common = {"property": args.property, "trials": args.trials, "sampler": certify.SAMPLER}

    if args.property == "identities":
        max_gap = max_rel_gap = 0.0
        tensor = analysis.quadruple_tensor(mat)  # independent of x and quartic: once per run
        for x in vectors:
            rep = analysis.l2_identity(mat, x)
            max_gap = max(max_gap, rep.abs_gap)
            max_rel_gap = max(max_rel_gap, rep.abs_gap / rep.direct_value)
            rep = analysis.l4_identity(mat, x, tensor)
            gap = max(rep.abs_gap, rep.abs_gap_split)
            max_gap = max(max_gap, gap)
            max_rel_gap = max(max_rel_gap, gap / rep.direct_value)
        ok = max_gap <= IDENTITY_TOL
        return {**common, "max_gap": max_gap, "max_rel_gap": max_rel_gap, "l4_checked": True,
                "tolerance": IDENTITY_TOL, "pass": ok}, ok

    # isometry: ||Mx||_4 = ||x||_2; embedding: m/sqrt(2) ||x||_2 <= ||Ax||_1 <= m ||x||_2
    isometry = args.property == "isometry"
    if not isometry:
        certify.column_norms(mat)  # a zero column violates the lower bound at x = e_j
    lo, hi = math.inf, -math.inf
    for x in vectors:
        nx = matrix_core.norm(x, 2)
        ny = matrix_core.norm(matrix_core.matvec(mat, x), 4 if isometry else 1)
        ratio = abs(ny - nx) / nx if isometry else ny / nx
        lo, hi = min(lo, ratio), max(hi, ratio)
    if isometry:
        ok = hi <= ISOMETRY_RTOL
        return {**common, "max_rel_deviation": hi, "tolerance": ISOMETRY_RTOL, "pass": ok}, ok
    m = mat.rows
    ok = lo >= m / math.sqrt(2) * (1 - EMBEDDING_SLACK) and hi <= m * (1 + EMBEDDING_SLACK)
    return {**common, "min_ratio": lo, "max_ratio": hi, "lower_bound": m / math.sqrt(2),
            "upper_bound": float(m), "empirical_distortion": hi / lo, "pass": ok}, ok


# -- design -------------------------------------------------------------------

def _cmd_design(args) -> tuple[dict, bool]:
    if args.task == "delta":
        return {"n": args.n, "k": args.k, "field": args.field,
                "delta": designs.delta_closed_form(args.n, args.k, args.field)}, True
    if args.task == "defect":
        ps = designs.read_design(args.file)
        defect = designs.design_defect(ps, args.k)
        return {"k": args.k, "n_points": ps.n_points, "dim": ps.dim,
                "field": ps.field_name, "defect": defect,
                "delta": designs.delta_closed_form(ps.dim, args.k, ps.field_name)}, True
    # from-matrix
    ps, total = designs.matrix_to_design(matrix_core.read_cmx(args.file), args.k)
    designs.write_design(ps, args.output, {"k": args.k, "source": args.file})
    return {"k": args.k, "n_points": ps.n_points, "dim": ps.dim, "S": total,
            "path": args.output}, True


# -- recover ------------------------------------------------------------------

def _cmd_recover(args) -> tuple[dict, bool]:
    mat = matrix_core.read_cmx(args.file)
    if not 1 <= args.s <= mat.cols:
        raise InvalidParams(f"--s must lie in [1, {mat.cols}], got {args.s}")
    x0 = next(certify._sparse_trials(args.seed, mat.cols, args.s, 1,
                                     mat.field_name == "complex"))[:, 0]
    y = mat.data @ x0
    result = recovery.iht(mat, y, args.s)
    rel_error = float(np.linalg.norm(result.estimate - x0) / np.linalg.norm(x0))
    ok = rel_error <= RECOVERY_TOL
    return {"s": args.s, "iterations": result.iterations, "converged": result.converged,
            "rel_error": rel_error, "recovered": ok,
            "final_residual": result.residual_history[-1], "sampler": certify.SAMPLER}, ok


# -- parser -------------------------------------------------------------------

@functools.cache  # one parser per process: parse_args fills a fresh namespace each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripforge",
        description="Construct measurement matrices and certify their "
                    "restricted-isometry and embedding properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser(
        "construct", help="build a matrix and write it as a CMX file",
        description="Build a measurement matrix and write it to a CMX file.")
    conf = con.add_subparsers(dest="family", required=True)

    c = conf.add_parser("golomb", description="Harmonic matrix on a Golomb ruler: "
                        "m x p with m = 6p^2-6p+1, exactly orthogonal columns, and "
                        "two-sided l1 embedding constants m/sqrt(2) and m.")
    c.add_argument("--p", type=int, required=True, help="prime >= 3")
    c.set_defaults(build=lambda a: (constructors.golomb_phase(a.p), {}))
    c = conf.add_parser("golomb-stacked", description="Stack [(2m)^(-1/4) A; 2^(-1/4) I]: "
                        "an exactly isometric embedding of l2^p into l4^(m+p).")
    c.add_argument("--p", type=int, required=True, help="prime >= 3")
    c.set_defaults(build=lambda a: (constructors.golomb_stacked(a.p), {}))
    c = conf.add_parser("weil", description="Polynomial phase matrix over F_p; "
                        "coherence at most d/sqrt(p) by the Weil character-sum bound.")
    c.add_argument("--p", type=int, required=True, help="prime")
    c.add_argument("--d", type=int, required=True, help="max polynomial degree, 1 <= d < p")
    c.add_argument("--N", type=int, default=None, help="columns (default: all p^(d+1))")
    c.set_defaults(build=lambda a: (constructors.weil(a.p, a.d, a.N), {}))
    c = conf.add_parser("alltop", description="Cubic phase vector under all "
                        "translations/modulations; coherence exactly 1/sqrt(m).")
    c.add_argument("--m", type=int, required=True, help="prime >= 5")
    c.set_defaults(build=lambda a: (constructors.alltop(a.m), {}))
    c = conf.add_parser("devore", description="Binary polynomial-graph matrix with "
                        "entries in {0, 1/sqrt(p)}; coherence at most d/p.")
    c.add_argument("--p", type=int, required=True, help="prime")
    c.add_argument("--d", type=int, required=True, help="max polynomial degree, 1 <= d < p")
    c.set_defaults(build=lambda a: (constructors.devore(a.p, a.d), {}))
    c = conf.add_parser("rademacher", description="Seeded +-1 matrix; the basic "
                        "randomized draw behind the Las Vegas certification.")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--seed", type=_nonneg_int, required=True)
    c.set_defaults(build=lambda a: (constructors.rademacher(a.m, a.N, a.seed), {}))
    c = conf.add_parser("lasvegas", description="Redraw Rademacher matrices until one "
                        "certifies the pair/quadruple sum conditions at level kappa; "
                        "the output is always certified, only the round count is random.")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--kappa", default="auto", help="'auto' = sqrt(8 ln N), or a number")
    c.add_argument("--seed", type=_nonneg_int, required=True)
    c.set_defaults(build=_lasvegas)
    c = conf.add_parser("composed", description="Golomb-ruler phase matrix times Weil "
                        "matrix: an explicit l2 -> l1 embedding on s-sparse vectors.")
    c.add_argument("--s", type=int, required=True, help="target sparsity")
    c.add_argument("--N", type=int, required=True, help="ambient dimension (columns)")
    c.add_argument("--p", type=int, required=True, help="prime >= 3")
    c.set_defaults(build=lambda a: (constructors.composed(a.s, a.N, a.p), {}))
    for p_ in conf.choices.values():
        p_.add_argument("-o", "--output", required=True, help="output CMX path")
    con.set_defaults(handler=_cmd_construct)

    cer = sub.add_parser("certify", help="coherence / sign-matrix conditions / exact RIC",
                         description="Certify matrix properties by exact computation.")
    cerf = cer.add_subparsers(dest="check", required=True)
    c = cerf.add_parser("coherence", description="Largest |<a_j, a_l>| over "
                        "unit-normalized column pairs, computed exhaustively.")
    c.add_argument("file")
    c = cerf.add_parser("cond", description="Exact pair and quadruple +-1 column sums "
                        "against the threshold kappa sqrt(m); a pass certifies two-sided "
                        "l1 embedding constants on sparse vectors.")
    c.add_argument("file")
    c.add_argument("--kappa", default="auto", help="'auto' = sqrt(8 ln N), or a number")
    c.add_argument("--delta", type=float, default=None,
                   help="with --s, also report embedding constants for this delta in (0,1)")
    c.add_argument("--s", type=int, default=None, help="with --delta, the sparsity")
    c = cerf.add_parser("ric", description="Exact restricted isometry constant delta_s, "
                        "the largest spectral norm of an s x s block of the unit-column "
                        "Gram with its diagonal removed, over all s-subsets: delta_2 is "
                        "the coherence mu, delta_3 the largest root of each block's "
                        "characteristic cubic, delta_1 = 0, and s >= 4 batched "
                        "eigensolves.  "
                        "mu <= delta_s <= (s-1) mu for s >= 2 (interlacing and "
                        "Gershgorin); for orthogonal columns both are float roundoff.")
    c.add_argument("file")
    c.add_argument("--s", type=int, required=True)
    cer.set_defaults(handler=_cmd_certify)

    pro = sub.add_parser("probe", help="sample l1/l2 ratios on sparse vectors",
                         description="Sample s-sparse vectors and report the spread of "
                         "||Ax||_1 / ||x||_2 (a lower bound on the true distortion).  "
                         "The report's 'sampler' names the version of the seed -> sample "
                         "mapping; a seed reproduces its samples only within one version.")
    pro.add_argument("file")
    pro.add_argument("--s", type=int, required=True)
    pro.add_argument("--trials", type=int, required=True)
    pro.add_argument("--seed", type=_nonneg_int, required=True)
    pro.set_defaults(handler=_cmd_probe)

    ver = sub.add_parser("verify", help="check identities / isometry / embedding bounds",
                         description="Verify analytic properties on dense Gaussian "
                         "vectors, drawn by probe's sampler at s = N: the report's "
                         "'sampler' names its version, and a seed reproduces its samples "
                         "only within one version.")
    verf = ver.add_subparsers(dest="property", required=True)
    for name, text, trials in (
            ("identities", "Check the exact l2/l4 norm expansions for a unimodular matrix "
             "of at most 32 columns on random vectors (gap <= 1e-8).", 16),
            ("isometry", "Check ||Mx||_4 = ||x||_2 on random vectors to relative 1e-10.", 1000),
            ("embedding", "Check m/sqrt(2) ||x||_2 <= ||Ax||_1 <= m ||x||_2 on random "
             "vectors.", 1000)):
        c = verf.add_parser(name, description=text)
        c.add_argument("file")
        c.add_argument("--seed", type=_nonneg_int, required=True)
        c.add_argument("--trials", type=_positive_int, default=trials)
    ver.set_defaults(handler=_cmd_verify)

    des = sub.add_parser("design", help="sphere moments and weighted design defects",
                         description="Weighted spherical designs: closed-form sphere "
                         "moments, design defects, and matrix-to-design conversion.")
    desf = des.add_subparsers(dest="task", required=True)
    c = desf.add_parser("delta", description="Closed-form sphere average of "
                        "|<x, y>|^(2k) in dimension n, real or complex.")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--field", choices=("real", "complex"), required=True)
    c = desf.add_parser("defect", description="Gram-sum design defect of a stored "
                        "weighted point set; zero iff it is a 2k-design.")
    c.add_argument("file")
    c.add_argument("--k", type=int, required=True)
    c = desf.add_parser("from-matrix", description="Convert matrix rows into a weighted "
                        "point set (weights ||a_i||^(2k) / S) and store it.")
    c.add_argument("file")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("-o", "--output", required=True)
    des.set_defaults(handler=_cmd_design)

    rec = sub.add_parser("recover", help="iterative hard thresholding demo",
                         description="Draw a random s-sparse vector, measure it with the "
                         "stored matrix, and recover it by iterative hard thresholding.  "
                         "The vector is the first trial probe's sampler draws at this "
                         "seed; the report's 'sampler' names its version, and a seed "
                         "reproduces its vector only within one version.")
    rec.add_argument("file")
    rec.add_argument("--s", type=int, required=True)
    rec.add_argument("--seed", type=_nonneg_int, required=True)
    rec.set_defaults(handler=_cmd_recover)

    return parser


def run(argv=None) -> int:
    """Dispatch argv; returns the exit code without calling sys.exit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        # a float64 fault in a handler, or a NaN or inf in its report, is invalid input
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                report, ok = args.handler(args)
            except RoundsExhausted as exc:
                fields = ("max_pair_sum", "max_quad_sum", "pair_witness", "quad_witness",
                          "threshold")
                report = {"error": str(exc), "rounds": exc.rounds,
                          **{key: getattr(exc.best, key) for key in fields}}
                ok = False
            line = _json_line(report)
    except (RipforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: float64 cannot hold a result: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the shape and bytes asked for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
