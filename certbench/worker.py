"""One workload process: set up, warm up, then time whole passes over the job list.

Started by run.py with the BLAS thread count already fixed in its
environment.  Prints one JSON line with its measurements on stdout; the
jobs' own stdout and stderr are captured in memory.  Every pass must
reproduce the warm-up pass's stdout and files byte for byte; those
outputs are then checked by ``--check``, a separate process, so the
checks' memory and time stay out of the measured process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3             # untraced passes per run, at least
MIN_TRACED_PASSES = 2      # traced and untraced passes each, in a traced run
PASS_BUDGET_S = 150.0      # stop starting passes after this, whatever the run length
OUTPUTS = "outputs.json"   # warm-up stdout of every job, for the checking process
HANDLER_MODULES = ("cli", "constructors", "certify", "matrix_core", "analysis", "designs",
                   "recovery")


def import_program():
    """Import the CLI and every module its handlers load; return (cli, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    mods = [importlib.import_module(f"ripforge.{name}") for name in HANDLER_MODULES]
    elapsed = time.perf_counter() - t0
    origin = Path(mods[0].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"ripforge was imported from {origin}, not from {SRC}")
    return mods[0], elapsed


class Runner:
    """Runs passes over a workload's jobs and compares every output with the
    warm-up pass; the outputs themselves are checked in a separate process."""

    def __init__(self, cli, jobs, digest):
        self.cli, self.jobs, self._digest = cli, jobs, digest
        self.first: list = [None] * len(jobs)    # (exit code, stdout, file digests)
        self.matched = [0] * len(jobs)           # runs that reproduced the warm-up output
        self.attempted = self.failed = 0
        self.deterministic = True
        self.failures: list[str] = []

    def call(self, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.run(list(argv))
            except Exception:      # an uncaught error ends a CLI process with exit 1
                traceback.print_exc()
                rc = 1
        if tracer:
            tracer.close(span)
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    def judge(self, i, job, rc, stdout, stderr) -> None:
        self.attempted += 1
        seen = (rc, stdout, tuple(self._digest(p) for p in job.outputs) if rc == 0 else ())
        if self.first[i] is None:
            self.first[i] = seen
        if rc != 0:
            reason = f"exit {rc}: {stderr.strip()[-300:]}"
        elif seen != self.first[i]:
            reason = "stdout or files differ from the warm-up pass"
            self.deterministic = False
        else:
            self.matched[i] += 1
            return
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{' '.join(job.argv)}: {reason}")

    def run_pass(self, tracer=None) -> float:
        gc.collect()
        busy = 0.0
        for i, job in enumerate(self.jobs):
            rc, stdout, stderr, dt = self.call(job.argv, tracer)
            busy += dt
            self.judge(i, job, rc, stdout, stderr)
        return busy


def check_outputs(workload_name: str, seed: int) -> dict:
    """Check the recorded stdout and the files left in the working directory."""
    sys.path.insert(0, str(HERE))
    import jobs
    workload = jobs.WORKLOADS[workload_name](seed)
    with open(OUTPUTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    ctx = jobs.Context(seed)
    verdicts = {}
    for part, job_list in (("setup", workload.setup_jobs), ("jobs", workload.jobs)):
        verdicts[part] = [None if stdout is None else jobs.run_check(job, stdout, ctx)
                          for job, stdout in zip(job_list, recorded[part])]
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--check", action="store_true", help="check a finished run's outputs")
    args = ap.parse_args(argv)

    if args.check:
        print(json.dumps(check_outputs(args.workload, args.seed)))
        return 0

    cli, import_s = import_program()
    sys.path.insert(0, str(HERE))
    import checks
    import jobs
    import tracing

    workload = jobs.WORKLOADS[args.workload](args.seed)
    runner = Runner(cli, workload.jobs, checks.file_digest)
    setup_out = []
    for job in workload.setup_jobs:
        rc, stdout, stderr, _ = runner.call(job.argv)
        if rc:
            raise SystemExit(f"input generation failed: {' '.join(job.argv)}: exit {rc}: {stderr}")
        setup_out.append(stdout)
    ready = time.monotonic()
    result = {"ready": ready, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    t0 = time.perf_counter()
    runner.run_pass()                                   # warm-up, untimed
    result["warmup_s"] = time.perf_counter() - t0
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        if tracer and len(traced) < len(plain):
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_metrics(tracer.spans, first, len(tracer.spans)))
        else:
            plain.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        enough = (len(plain) >= MIN_PASSES if not tracer
                  else min(len(plain), len(traced)) >= MIN_TRACED_PASSES)
        if (enough and elapsed >= args.seconds) or elapsed >= PASS_BUDGET_S:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer and args.spans:
        tracer.dump(args.spans)
    outputs = [first[1] if first[0] == 0 else None for first in runner.first]
    with open(OUTPUTS, "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_out, "jobs": outputs}, fh)
    result.update(
        pass_s=plain, traced_pass_s=traced, attempted=runner.attempted, failed=runner.failed,
        matched=runner.matched, deterministic=runner.deterministic, failures=runner.failures,
        peak_rss_mib=peak, outputs=outputs,
        layers=tracing.median_metrics(layers, sorted({k for p in layers for k in p})))
    if traced:
        result["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
