"""Benchmark of the nabext command line.

    python3 perfbench/run.py --workload census-orbits --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One client drives ``nabext.cli.main`` in-process, in a closed loop: each op
starts when the previous one returns, and census calls pass ``--jobs 1``.
The program is imported from ``src/`` of the checkout this file sits in, and
only ever receives the input files the benchmark generates from ``--seed``.
Every op's answer is compared with the one recorded in ``reference.json``.

With ``--trace 0`` the workload's job repeats for ``--seconds`` and the run
reports end-to-end metrics, each timing taken from every op's best call of the
run (see ``timed_run``).  With ``--trace 1`` the job runs once untraced and
then once more with every layer wrapped in spans (see ``spans.py``); the run
reports per-layer metrics.  The last line of stdout is the JSON result;
``--workload all`` runs every workload in a fresh interpreter and prints
their summaries.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import answers
import inputs
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPS = 15
MIN_JOBS = 2  # every op gets at least two calls, however short --seconds is
VERBS = ("census", "mc-check", "gauge-series", "gauge-closed", "build-extension", "equiv-check", "extract-cocycle")
SCAN = ("classify.enumerate_cocycles", "classify.enumerate_extensions")


def probe_ms() -> float:
    """A fixed pure-Python loop; its time tracks the speed of the host."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def invoke(main, argv):
    """One CLI call: (exit code, stdout, stderr).  An uncaught exception is a
    failed op, not a failed run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = f"uncaught {type(exc).__name__}"
            print(exc, file=err)
    return rc, out.getvalue(), err.getvalue()


def import_program():
    src = ROOT / "src"
    if not (src / "nabext" / "cli.py").is_file():
        raise ImportError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import nabext.cli

    if Path(nabext.cli.__file__).resolve().parent != (src / "nabext").resolve():
        raise ImportError(f"nabext was imported from {nabext.cli.__file__}, not {src}")
    return nabext.cli


class Runner:
    """Runs jobs and scores every op against the recorded answers."""

    def __init__(self, main, reference):
        self.main = main
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def job(self, ops, tracer=None):
        """Run one job; returns (wall seconds, per-op seconds, stdout bytes)."""
        results = []
        clock = time.perf_counter
        start = clock()
        for n, op in enumerate(ops):
            t = clock()
            if tracer is None:
                outcome = invoke(self.main, op.argv)
            else:
                tracer.op = n
                outcome = tracer.call(f"cli.{op.verb}", invoke, self.main, op.argv)
            results.append((op, outcome, clock() - t))
        wall = clock() - start
        for op, (rc, out, err), _ in results:
            self.attempted += 1
            why = answers.matches(self.reference.get(op.key), op.verb, rc, out)
            if why:
                self.failed += 1
                print(f"perfbench: {op.key}: {why}; stderr: {err.strip()[-300:]}", file=sys.stderr)
        return wall, [dt for _, _, dt in results], sum(len(out) for _, (_, out, _), _ in results)


def setup_seconds(workload) -> float:
    """Import ``nabext`` and parse the workload's files in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src")]
    cmd += [f"{kind}={path}" for kind, path in workload.setup_files]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def timed_run(workload, runner, seconds: int):
    """End-to-end metrics, tracing off: (metrics, sample counts, extra figures).

    Each op's time is its best call of the run.  On a shared host the same
    call runs up to 1.8 times slower for seconds or minutes at a time, with CPU
    time equal to wall time; such a slowdown comes from the host, not the
    program, and the best of several calls leaves it out.  The job's time is
    the sum of its ops' times, and the percentiles are over the job's ops."""
    setups, walls, best = [], [], {}
    probes = [probe_ms()]
    start = time.perf_counter()
    while True:
        # set-up samples are spread over the run, so that they meet the same
        # host speed as the jobs rather than that of one moment
        while len(setups) < SETUP_REPS and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPS:
            setups.append(setup_seconds(workload))
        wall, lats, _ = runner.job(workload.ops)
        walls.append(wall)
        for op, dt in zip(workload.ops, lats):
            best[op.key] = min(dt, best.get(op.key, dt))
        if len(walls) >= MIN_JOBS and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    probes.append(probe_ms())
    while len(setups) < SETUP_REPS:
        setups.append(setup_seconds(workload))
    times = [best[op.key] for op in workload.ops]
    metrics = {
        "wall_s": (sum(times), "s"),
        "op_p50_ms": (percentile(times, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(times, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": (1 - runner.failed / runner.attempted, "ratio"),
    }
    calls = f"best of >= {len(walls)} calls each"
    samples = {
        "wall_s": f"{len(times)} ops, {calls}",
        "op_p50_ms": f"{len(times)} ops, {calls}",
        "op_p90_ms": f"{len(times)} ops, {len(times) - math.ceil(0.9 * len(times))} above, {calls}",
        "setup_s": f"{SETUP_REPS} interpreters",
        "peak_rss_mb": "1 process",
        "ok_rate": f"{runner.attempted} ops",
    }
    extra = {
        "host.probe_ms": statistics.median(probes),
        "fail_rate": runner.failed / runner.attempted,
        "job_median_s": statistics.median(walls),
    }
    return metrics, samples, extra


def traced_run(workload, runner, reference, spans_path: Path):
    """Per-layer metrics: one job untraced, then the same job traced."""
    ops = workload.ops
    probes = [probe_ms()]
    plain_wall, _, _ = runner.job(ops)
    probes.append(probe_ms())
    tracer = Tracer()
    try:
        absent = tracer.install()
        wall, _, out_bytes = runner.job(ops, tracer)
    finally:
        tracer.uninstall()
    probes.append(probe_ms())
    for name in absent:
        print(f"perfbench: trace target {name} is absent; reported with zero calls", file=sys.stderr)
    tracer.write(spans_path)

    metrics = tracer.layer_metrics()
    durations = tracer.durations()
    for verb in VERBS:
        times = durations.get(f"cli.{verb}", [])
        metrics[f"cli.{verb}.p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    decoded = metrics["classify.candidate.calls"][0]
    cocycles = sum(len(reference[op.key]["result"]["cocycles"]) for op in ops if op.verb == "census")
    metrics["classify.cocycle_yield"] = (cocycles / decoded if decoded else 0.0, "ratio")
    scan = sum(sum(durations.get(name, [])) for name in SCAN)
    metrics["classify.scan_share"] = (scan / wall, "ratio")
    metrics["io_json.report_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    metrics["trace.absent"] = (len(absent), "count")
    metrics["host.probe_ms"] = (statistics.median(probes), "ms")

    # inclusive share of the traced wall time, for the summary only
    shares = {name: sum(times) / wall for name, times in durations.items() if not name.startswith("cli.")}
    return metrics, shares


def run_all(args) -> int:
    """Every workload in its own interpreter, so peaks stay apart."""
    status = 0
    for name in inputs.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, timeout=600).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        cli = import_program()
        reference = answers.load_reference()
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = inputs.build(args.workload, args.seed, workdir)
    runner = Runner(cli.main, reference)

    try:
        if args.trace:
            metrics, shares = traced_run(workload, runner, reference, workdir / "spans.tsv")
            print(f"{args.workload} seed {args.seed}: traced; spans in {workdir / 'spans.tsv'}")
            for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
                print(f"  {name:<36} {share:7.1%} of traced wall_s (inclusive)")
            samples = {}
        else:
            metrics, samples, extra = timed_run(workload, runner, args.seconds)
            print(f"{args.workload} seed {args.seed}: untraced, {args.seconds} s")
            for name, value in extra.items():
                print(f"  {name:<36} {value:.4f}")
    except subprocess.SubprocessError as exc:
        print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}  {samples.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
