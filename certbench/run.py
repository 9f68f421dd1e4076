"""Time-to-certificate benchmark for ripforge.

    python3 certbench/run.py --workload sign-cert --seed 1 --seconds 25 --trace 0

Starts fresh workload processes (worker.py) with the BLAS thread count
fixed, measures set-up several times, and prints one JSON line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details of each run (every pass time, failures, the
reports of the warm-up pass) go to ``.certbench/`` at the repository
root.  See certbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".certbench"
WORKLOADS = ("sign-cert", "phase-verify", "gram-cert")
SETUP_PROBES = 6           # set-up-only processes, besides the measuring one
TIME_LIMIT_S = 170.0
THREAD_VARS = ("RIPFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {name: unit for names, unit in (
    (("matrix_core.write_cmx.s", "matrix_core.read_cmx.s", "matrix_core.matvec.s",
      "matrix_core.norm.s", "constructors.golomb_phase.s", "constructors.golomb_stacked.s",
      "constructors.composed.s", "golomb.build_ruler.s", "constructors.weil.s",
      "constructors.alltop.s", "constructors.devore.s", "num_theory.enumerate_polys.s",
      "constructors.rademacher.s", "certify.condition_b.s", "certify.condition_a.s",
      "certify.las_vegas.s", "certify.probe_l1.s", "certify.coherence.s",
      "certify.exact_ric.s", "analysis.l2_identity.s", "analysis.l4_identity.s",
      "designs.matrix_to_design.s", "designs.write_design.s", "designs.read_design.s",
      "designs.design_defect.s", "recovery.iht.s", "cli.construct.s", "cli.certify.s",
      "cli.probe.s", "cli.verify.s", "cli.design.s", "cli.recover.s", "cli.self_s",
      "cli.import_s", "bench.trace_overhead_s"), "s"),
    (("matrix_core.write_cmx.mib", "matrix_core.read_cmx.mib", "certify.coherence.gram_mib",
      "analysis.l4_identity.tensor_mib", "designs.design_defect.gram_mib"), "MiB"),
    (("certify.condition_b.quads_per_s", "certify.probe_l1.trials_per_s",
      "certify.exact_ric.subsets_per_s"), "1/s"),
    (("certify.las_vegas.rounds", "recovery.iht.iterations", "bench.blas_threads"), "count"),
) for name in names}


def blas_threads() -> int:
    """At most two threads, and never more than the cores this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def launch(args: list[str], env: dict, cwd: Path, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return (launch time, its JSON line)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=cwd,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return t0, json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    threads = blas_threads()
    env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            t0, probe = launch([*common, "--setup-only"], env, work, deadline)
            setups.append((probe["ready"] - t0, probe["import_s"]))
        t0, run = launch([*common, "--seconds", str(seconds), "--trace", str(int(trace)),
                          "--spans", str(OUT / f"spans-{tag}.jsonl")], env, work, deadline)
        setups.append((run["ready"] - t0, run["import_s"]))
        _, verdicts = launch([*common, "--check"], env, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed, failures = run["failed"], list(run["failures"])
    for part, reasons in verdicts.items():
        for i, reason in enumerate(reasons):
            if reason is not None:
                failures.append(f"{part} job {i}: {reason}")
                failed += run["matched"][i] if part == "jobs" else 0
    correct = run["deterministic"] and not any(r for rs in verdicts.values() for r in rs)
    if trace:
        metrics = dict(run["layers"])
        metrics["cli.import_s"] = statistics.median(s[1] for s in setups)
        metrics["bench.trace_overhead_s"] = run["trace_overhead_s"]
        metrics["bench.blas_threads"] = threads
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(s[0] for s in setups),
                   "pass_s": statistics.median(run["pass_s"]),
                   "peak_rss_mib": run["peak_rss_mib"]}
        units = END_TO_END
    result = {"correct": correct, "attempted": int(run["attempted"]), "failed": int(failed),
              "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                          for name, unit in units.items()}}
    detail = dict(run, setup_s=[s[0] for s in setups], import_s=[s[1] for s in setups],
                  blas_threads=threads, seconds=seconds, failures=failures)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ripforge" / "cli.py").is_file():
        print(f"error: no ripforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in detail["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
