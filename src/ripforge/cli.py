"""Command-line surface.

Every subcommand prints a single-line JSON report on stdout and
diagnostics on stderr, and exits with 0 (success / check passed),
1 (certification or verification failed) or 2 (invalid input).  All
randomized paths take an explicit --seed and reproduce byte-identical
output for identical seeds.

Heavy imports happen inside the handlers so that the RIPFORGE_THREADS
cap (applied in main() before anything numerical loads) can take effect
on the BLAS thread pools.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import RipforgeError, RoundsExhausted

IDENTITY_TOL = 1e-8
ISOMETRY_RTOL = 1e-10
EMBEDDING_SLACK = 1e-9
RECOVERY_TOL = 1e-6


def _apply_thread_cap() -> None:
    cap = os.environ.get("RIPFORGE_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


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


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, allow_nan=False, default=_json_default))


def _json_default(obj):
    import numpy as np
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _kappa_value(text: str, n_cols: int) -> float:
    from .certify import default_kappa
    if text == "auto":
        return default_kappa(n_cols)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise RipforgeError(f"--kappa must be 'auto' or a finite number, got {text!r}")
    return value


def _random_vector(rng, n: int, complex_field: bool):
    import numpy as np
    if complex_field:
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return rng.standard_normal(n)


# -- construct ----------------------------------------------------------------

def _cmd_construct(args) -> tuple[dict, bool]:
    from . import constructors
    from .certify import las_vegas
    from .matrix_core import write_cmx

    extra: dict = {}
    if args.family == "golomb":
        mat = constructors.golomb_phase(args.p)
    elif args.family == "golomb-stacked":
        mat = constructors.golomb_stacked(args.p)
    elif args.family == "weil":
        mat = constructors.weil(args.p, args.d, args.N)
    elif args.family == "alltop":
        mat = constructors.alltop(args.m)
    elif args.family == "devore":
        mat = constructors.devore(args.p, args.d)
    elif args.family == "rademacher":
        mat = constructors.rademacher(args.m, args.N, args.seed)
    elif args.family == "lasvegas":
        kappa = _kappa_value(args.kappa, args.N)
        mat, rounds = las_vegas(args.m, args.N, kappa=kappa,
                                max_rounds=args.max_rounds, seed=args.seed)
        extra = {"rounds_used": rounds, "kappa": kappa}
    else:  # composed
        mat = constructors.composed(args.s, args.N, p_override=args.p)
    write_cmx(mat, args.output)
    report = {"construction": mat.meta.get("construction"), "rows": mat.rows,
              "cols": mat.cols, "field": mat.field_name, "path": args.output}
    report.update(extra)
    return report, True


# -- certify ------------------------------------------------------------------

def _cmd_certify(args) -> tuple[dict, bool]:
    from dataclasses import asdict
    from .certify import certify_sign_matrix, coherence, exact_ric
    from .matrix_core import read_cmx

    mat = read_cmx(args.file)
    if args.check == "coherence":
        return {"coherence": coherence(mat), "rows": mat.rows, "cols": mat.cols}, True
    if args.check == "ric":
        mu = coherence(mat)
        delta_s = exact_ric(mat, args.s)
        return {"s": args.s, "delta_s": delta_s, "coherence": mu,
                "s_mu_bound": args.s * mu}, True
    kappa = _kappa_value(args.kappa, mat.cols)
    report = certify_sign_matrix(mat, kappa=kappa, delta=args.delta, s=args.s)
    out = {k: v for k, v in asdict(report).items() if v is not None}
    return out, report.cond_a_pass and report.cond_b_pass


# -- probe --------------------------------------------------------------------

def _cmd_probe(args) -> tuple[dict, bool]:
    from dataclasses import asdict
    from .certify import probe_l1
    from .matrix_core import read_cmx

    report = probe_l1(read_cmx(args.file), args.s, args.trials, args.seed)
    out = asdict(report)
    out["note"] = "sampled spread is a lower bound on the true distortion"
    return out, True


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> tuple[dict, bool]:
    import numpy as np
    from .analysis import l2_identity, l4_identity
    from .matrix_core import matvec, norm, read_cmx

    mat = read_cmx(args.file)
    rng = np.random.default_rng(args.seed)
    complex_field = mat.field_name == "complex"

    if args.property == "identities":
        max_gap = 0.0
        for _ in range(args.trials):
            x = _random_vector(rng, mat.cols, complex_field)
            max_gap = max(max_gap, l2_identity(mat, x).abs_gap)
            rep = l4_identity(mat, x)
            max_gap = max(max_gap, rep.abs_gap, rep.abs_gap_split)
        ok = max_gap <= IDENTITY_TOL
        return {"property": "identities", "trials": args.trials, "max_gap": max_gap,
                "l4_checked": True, "tolerance": IDENTITY_TOL, "pass": ok}, ok

    if args.property == "isometry":
        worst = 0.0
        for _ in range(args.trials):
            x = _random_vector(rng, mat.cols, complex_field)
            nx = norm(x, 2)
            worst = max(worst, abs(norm(matvec(mat, x), 4) - nx) / nx)
        ok = worst <= ISOMETRY_RTOL
        return {"property": "isometry", "trials": args.trials,
                "max_rel_deviation": worst, "tolerance": ISOMETRY_RTOL, "pass": ok}, ok

    # embedding: m/sqrt(2) ||x||_2 <= ||Ax||_1 <= m ||x||_2
    m = mat.rows
    lo, hi = np.inf, -np.inf
    for _ in range(args.trials):
        x = _random_vector(rng, mat.cols, complex_field)
        r1 = norm(matvec(mat, x), 1) / norm(x, 2)
        lo, hi = min(lo, r1), max(hi, r1)
    ok = lo >= m / np.sqrt(2) * (1 - EMBEDDING_SLACK) and hi <= m * (1 + EMBEDDING_SLACK)
    return {"property": "embedding", "trials": args.trials, "min_ratio": lo,
            "max_ratio": hi, "lower_bound": m / np.sqrt(2), "upper_bound": float(m),
            "empirical_distortion": hi / lo, "pass": ok}, ok


# -- design -------------------------------------------------------------------

def _cmd_design(args) -> tuple[dict, bool]:
    from .designs import (delta_closed_form, design_defect, matrix_to_design,
                          read_design, write_design)

    if args.task == "delta":
        return {"n": args.n, "k": args.k, "field": args.field,
                "delta": delta_closed_form(args.n, args.k, args.field)}, True
    if args.task == "defect":
        ps = read_design(args.file)
        defect = design_defect(ps, args.k)
        return {"k": args.k, "n_points": ps.n_points, "dim": ps.dim,
                "field": ps.field_name, "defect": defect,
                "delta": delta_closed_form(ps.dim, args.k, ps.field_name)}, True
    # from-matrix
    from .matrix_core import read_cmx
    ps, total = matrix_to_design(read_cmx(args.file), args.k)
    write_design(ps, args.output, extra_meta={"k": args.k, "source": args.file})
    return {"k": args.k, "n_points": ps.n_points, "dim": ps.dim, "S": total,
            "path": args.output}, True


# -- recover ------------------------------------------------------------------

def _cmd_recover(args) -> tuple[dict, bool]:
    import numpy as np
    from .matrix_core import read_cmx
    from .recovery import iht

    mat = read_cmx(args.file)
    rng = np.random.default_rng(args.seed)
    support = rng.choice(mat.cols, size=args.s, replace=False)
    x0 = np.zeros(mat.cols,
                  dtype=np.complex128 if mat.field_name == "complex" else np.float64)
    x0[support] = _random_vector(rng, args.s, mat.field_name == "complex")
    y = mat.data @ x0
    result = iht(mat, y, args.s, max_iter=args.max_iter, tol=args.tol)
    rel_error = float(np.linalg.norm(result.estimate - x0) / np.linalg.norm(x0))
    ok = rel_error <= RECOVERY_TOL
    return {"s": args.s, "iterations": result.iterations, "converged": result.converged,
            "rel_error": rel_error, "recovered": ok,
            "final_residual": result.residual_history[-1]}, ok


# -- parser -------------------------------------------------------------------

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
    c = conf.add_parser("golomb-stacked", description="Stack [(2m)^(-1/4) A; 2^(-1/4) I]: "
                        "an exactly isometric embedding of l2^p into l4^(m+p).")
    c.add_argument("--p", type=int, required=True, help="prime >= 3")
    c = conf.add_parser("weil", description="Polynomial phase matrix over F_p; "
                        "coherence at most d/sqrt(p) by the Weil character-sum bound.")
    c.add_argument("--p", type=int, required=True, help="prime")
    c.add_argument("--d", type=int, required=True, help="max polynomial degree, 1 <= d < p")
    c.add_argument("--N", type=int, default=None, help="columns (default: all p^(d+1))")
    c = conf.add_parser("alltop", description="Cubic phase vector under all "
                        "translations/modulations; coherence exactly 1/sqrt(m).")
    c.add_argument("--m", type=int, required=True, help="prime >= 5")
    c = conf.add_parser("devore", description="Binary polynomial-graph matrix with "
                        "entries in {0, 1/sqrt(p)}; coherence at most d/p.")
    c.add_argument("--p", type=int, required=True, help="prime")
    c.add_argument("--d", type=int, required=True, help="max polynomial degree, 1 <= d < p")
    c = conf.add_parser("rademacher", description="Seeded +-1 matrix; the basic "
                        "randomized draw behind the Las Vegas certification.")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--seed", type=_nonneg_int, required=True)
    c = conf.add_parser("lasvegas", description="Redraw Rademacher matrices until one "
                        "certifies the pair/quadruple sum conditions at level kappa; "
                        "the output is always certified, only the round count is random.")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--kappa", default="auto", help="'auto' = sqrt(8 ln N), or a number")
    c.add_argument("--max-rounds", type=int, default=64)
    c.add_argument("--seed", type=_nonneg_int, required=True)
    c = conf.add_parser("composed", description="Golomb-ruler phase matrix times Weil "
                        "matrix: an explicit l2 -> l1 embedding on s-sparse vectors "
                        "with distortion at most 2 in its feasible regime.")
    c.add_argument("--s", type=int, required=True, help="target sparsity")
    c.add_argument("--N", type=int, required=True, help="ambient dimension (columns)")
    c.add_argument("--p", type=int, default=None,
                   help="prime override when the asymptotic parameter chain is infeasible")
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
                   help="also report embedding constants for this delta in (0,1)")
    c.add_argument("--s", type=int, default=None, help="sparsity for the constants")
    c = cerf.add_parser("ric", description="Exact restricted isometry constant delta_s "
                        "by exhaustive enumeration of s x s column Gram blocks.")
    c.add_argument("file")
    c.add_argument("--s", type=int, required=True)
    cer.set_defaults(handler=_cmd_certify)

    pro = sub.add_parser("probe", help="sample l1/l2 ratios on sparse vectors",
                         description="Sample s-sparse vectors and report the spread of "
                         "||Ax||_1 / ||x||_2 (a lower bound on the true distortion).")
    pro.add_argument("file")
    pro.add_argument("--s", type=int, required=True)
    pro.add_argument("--trials", type=int, required=True)
    pro.add_argument("--seed", type=_nonneg_int, required=True)
    pro.set_defaults(handler=_cmd_probe)

    ver = sub.add_parser("verify", help="check identities / isometry / embedding bounds",
                         description="Verify analytic properties on random vectors.")
    verf = ver.add_subparsers(dest="property", required=True)
    c = verf.add_parser("identities", description="Check the exact l2/l4 norm expansions "
                        "for a unimodular matrix of at most 32 columns on random "
                        "vectors (gap <= 1e-8).")
    c.add_argument("file")
    c.add_argument("--seed", type=_nonneg_int, required=True)
    c.add_argument("--trials", type=_positive_int, default=16)
    c = verf.add_parser("isometry", description="Check ||Mx||_4 = ||x||_2 on random "
                        "vectors to relative 1e-10.")
    c.add_argument("file")
    c.add_argument("--seed", type=_nonneg_int, required=True)
    c.add_argument("--trials", type=_positive_int, default=1000)
    c = verf.add_parser("embedding", description="Check m/sqrt(2) ||x||_2 <= ||Ax||_1 "
                        "<= m ||x||_2 on random vectors.")
    c.add_argument("file")
    c.add_argument("--seed", type=_nonneg_int, required=True)
    c.add_argument("--trials", type=_positive_int, default=1000)
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
                         "stored matrix, and recover it by iterative hard thresholding.")
    rec.add_argument("file")
    rec.add_argument("--s", type=int, required=True)
    rec.add_argument("--seed", type=_nonneg_int, required=True)
    rec.add_argument("--max-iter", type=int, default=500)
    rec.add_argument("--tol", type=float, default=1e-10)
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
        report, ok = args.handler(args)
    except RoundsExhausted as exc:
        best = exc.best
        report = {"error": str(exc), "rounds": exc.rounds}
        if best is not None:
            report.update({"max_pair_sum": best.max_pair_sum,
                           "max_quad_sum": best.max_quad_sum,
                           "pair_witness": best.pair_witness,
                           "quad_witness": best.quad_witness,
                           "threshold": best.threshold})
        _emit(report)
        return 1
    except (RipforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report)
    return 0 if ok else 1


def main() -> None:
    _apply_thread_cap()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
