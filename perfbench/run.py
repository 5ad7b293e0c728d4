"""Benchmark of the deltachannel command line, end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from src/, not
installed.  Set-up is timed in fresh child processes; the workload then
runs in this process, one thread, in whole rounds until the timed work
reaches S seconds.  A round sweeps the grid line by line and queries a
sample of its rows; each line and each query is timed at its fastest.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the same rounds are followed by one
traced round and the selftest's checks, traced, and the per-layer metrics,
and the spans go to perfbench/out/trace-<workload>-seed<N>.json.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("point_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe(args: argparse.Namespace) -> int:
    """Child process: import the program, build the inputs, report each part's seconds."""
    parts = {}
    mark = time.perf_counter()

    def lap(part):
        nonlocal mark
        now = time.perf_counter()
        parts[part] = now - mark
        mark = now

    import numpy  # noqa: F401
    lap("numpy")
    import scipy.integrate  # noqa: F401
    lap("scipy")
    import mpmath  # noqa: F401
    lap("mpmath")
    sys.path.insert(0, str(SRC))
    import deltachannel.cli  # noqa: F401
    lap("deltachannel")
    import workloads
    workloads.build(args.workload, args.seed, args.probe)
    lap("inputs")
    print(json.dumps(parts), flush=True)
    return 0


def measure_setup(args: argparse.Namespace, workdir: Path) -> list[tuple[float, dict]]:
    """(seconds from spawn to inputs built, per-part seconds) for each probe."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe", str(workdir)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {code}")
        samples.append((elapsed, json.loads(line)))
    return samples


def traced_round(runner, checks: tuple[str, ...] | None = None) -> tuple[dict, dict]:
    """One more round under the tracer, then each selftest check (all by
    default) on its own; returns (per-layer metrics, trace document)."""
    from reference import SELFTEST_CHECKS, check_selftest
    from tracing import Tracer
    import deltachannel

    untraced_run_s = runner.best_run_s()
    tracer = Tracer()
    tracer.install()
    check_s = {}
    try:
        first = len(tracer.spans)
        runner.command()
        middle = len(tracer.spans)
        runner.points()
        stop = len(tracer.spans)
        for check in SELFTEST_CHECKS if checks is None else checks:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                report = deltachannel.selftest(only=[check])
                check_s[check] = time.perf_counter() - start
            runner.problems += check_selftest(report, (check,))
            if report["passed"] is not True:
                runner.problems.append(f"selftest --only {check} did not pass")
        end = len(tracer.spans)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics((first, middle), (middle, stop), (stop, end))
    metrics["sweep.output_bytes"] = runner.output_bytes
    for check, seconds in check_s.items():
        metrics[f"selftest.{check}.s"] = seconds
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_s"] = runner.last_run_s() - untraced_run_s
    document = {
        "workload": runner.w.name,
        "missing": tracer.missing,
        "span_fields": ["name", "start", "end", "parent", "info"],
        "command_spans": [first, middle],
        "point_spans": [middle, stop],
        "selftest_spans": [stop, end],
        "spans": tracer.spans,
    }
    return metrics, document


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deltachannel" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'deltachannel'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.probe is not None:
        return probe(args)

    import workloads
    from tracing import PER_LAYER, SETUP_PARTS

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(args, workdir)
        sys.path.insert(0, str(SRC))
        from deltachannel import cli

        runner = workloads.Runner(workloads.build(args.workload, args.seed, workdir), cli)
        rounds = 0
        while rounds == 0 or runner.timed_s < args.seconds:
            runner.round()
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(s for s, _ in setup),
            "run_s": runner.best_run_s(),
            "point_ms": 1e3 * runner.best_point_s(),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        if args.trace:
            values, document = traced_round(runner)
            for part in SETUP_PARTS:
                values[f"setup.{part}_s"] = statistics.median(parts[part] for _, parts in setup)
            units = {name: unit for name, unit, _ in PER_LAYER}
            document["metrics"] = values
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(document), encoding="utf-8")
            print(f"trace written to {trace_path.relative_to(ROOT)}")
            for name in document["missing"]:
                print(f"missing: {name} no longer exists; its metrics are left out", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {runner.attempted} operations, "
          f"{runner.failed} failed, {len(runner.problems)} check failures")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
