"""Self-check of the benchmark: its checks reject corrupted outputs, and every
workload runs end to end at a tiny size, plain and traced.

    python3 perfbench/selfcheck.py

Exits 0 when every item passes, 1 otherwise.  Takes about ten seconds.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deltachannel import cli  # noqa: E402

failures: list[str] = []
# Every selftest check but field_oracle_grid, which takes about 15 s: the
# checks the traced rounds here run.
FAST_CHECKS = ("gamma_identities", "channel_soundness", "capacity_optimizer")


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def rejects(check, rows, what: str) -> None:
    expect(bool(check(rows)), f"rejects {what}")


def corrupted(rows: list[dict], index: int, **changes) -> list[dict]:
    out = copy.deepcopy(rows)
    for key, change in changes.items():
        out[index][key] = change(out[index][key])
    return out


def tiny_runner(name: str, workdir: Path) -> workloads.Runner:
    runner = workloads.Runner(workloads.build(name, 7, workdir, tiny=True), cli)
    runner.round()
    expect(not runner.problems, f"{name}: a tiny round passes its checks {runner.problems[:3]}")
    expect(runner.attempted > 0 and runner.failed == 0,
           f"{name}: {runner.attempted} operations attempted, {runner.failed} failed")
    return runner


def check_corruptions(vacuum: workloads.Runner, thermal: workloads.Runner) -> None:
    vac_rows, th_rows = vacuum.rows, thermal.rows
    vac_ref, th_ref = reference.FieldReference(None), reference.FieldReference(2.0)
    field_check = lambda ref: lambda rows: reference.check_field_rows(rows, ref)  # noqa: E731
    expect(not field_check(vac_ref)(vac_rows) and not field_check(th_ref)(th_rows), "clean rows pass")
    i = next(k for k, r in enumerate(vac_rows) if r["nu_b"] > 1e-3 and r["delta_ab"] != 0.0)
    rejects(field_check(vac_ref), corrupted(vac_rows, i, delta_ab=lambda v: v * (1 + 1e-9)), "delta_ab off by 1e-9 relative")
    rejects(field_check(vac_ref), corrupted(vac_rows, i, nu_b=lambda v: v * (1 + 1e-9)), "nu_b off by 1e-9 relative")
    rejects(field_check(vac_ref), corrupted(vac_rows, i, nu_ab_minus=lambda v: v * (1 - 1e-9)), "nu_ab_minus off by 1e-9 relative")
    rejects(field_check(vac_ref), corrupted(vac_rows, i, c_closed=lambda v: v + 1e-10), "c_closed off by 1e-10")
    rejects(field_check(th_ref), corrupted(th_rows, 0, nu_ab_plus=lambda v: v * (1 + 1e-9)), "thermal nu_ab_plus off by 1e-9 relative")
    rejects(field_check(th_ref), corrupted(th_rows, 1, nu_a=lambda v: v * (1 + 1e-9)), "thermal nu_a off by 1e-9 relative")
    rejects(reference.check_thermal_below_vacuum, corrupted(th_rows, 0, nu_a=lambda v: 1.0), "a thermal nu above its vacuum value")
    rejects(reference.check_oracle, corrupted(th_rows, 0, oracle_residual=lambda v: 2e-6), "oracle_residual of 2e-6")
    rejects(reference.check_oracle, corrupted(th_rows, 0, oracle_residual=lambda v: math.nan), "a NaN oracle_residual")
    row = vac_rows[i]
    point = {k: row[k] for k in ("lambda_a", "lambda_b", "L", "dtau", "nu_a", "nu_b", "nu_ab_plus", "nu_ab_minus", "delta_ab", "c_closed", "status")}
    expect(not reference.check_point(point, row), "a point equal to its row passes")
    rejects(lambda p: reference.check_point(p[0], row), [dict(point, delta_ab=math.nextafter(row["delta_ab"], 0.0))], "a point 1 ulp from its row")
    grid = lambda rows: reference.check_grid(rows, vacuum.w.grid)  # noqa: E731
    expect(not grid(vac_rows), "rows on their grid pass")
    rejects(grid, corrupted(vac_rows, 3, lambda_b=lambda v: v * (1 + 1e-9)), "a row at the wrong grid point")
    rejects(grid, vac_rows[:-1], "a missing row")
    weak = [{"lambda_a": 0.1 if k < 16 else 1.0, "lambda_b": k % 16, "c_closed": 0.02 if k == 0 else 0.5} for k in range(32)]
    weak.append({"lambda_a": 1.0, "lambda_b": 0, "c_closed": 0.99})
    rejects(reference.check_fig1_figure, weak, "a weak-Alice column reaching 0.02")
    rejects(reference.check_fig1_figure, [dict(r, c_closed=min(r["c_closed"], 0.9)) for r in weak[1:]], "a figure without its near-perfect corner")
    report = {"passed": True, "checks": [{"name": n, "passed": True} for n in reference.SELFTEST_CHECKS[:3]]}
    rejects(reference.check_selftest, report, "a selftest report with a check missing")


def check_tracing(workdir: Path) -> None:
    layer = {name: (unit, better) for name, unit, better in tracing.PER_LAYER}
    for name in workloads.NAMES:
        runner = workloads.Runner(workloads.build(name, 7, workdir, tiny=True), cli)
        runner.round()
        metrics, document = run.traced_round(runner, FAST_CHECKS)
        produced = set(metrics) | {f"setup.{part}_s" for part in tracing.SETUP_PARTS}
        skipped = {f"selftest.{c}.s" for c in reference.SELFTEST_CHECKS if c not in FAST_CHECKS}
        expect(produced == set(layer) - skipped and not document["missing"],
               f"{name}: traced round reports every per-layer metric {sorted(produced ^ (set(layer) - skipped))}")
        expect(all(span is not None for span in document["spans"]), f"{name}: every span closed")
        expect(not runner.problems, f"{name}: traced round passes its checks")
    runner = workloads.Runner(workloads.build("fig1_vacuum", 7, workdir, tiny=True), cli)
    runner.round()
    gone = tuple((m, a + "_renamed" if n == "field.quad" else a, n) for m, a, n in tracing.TARGETS)
    tracer = tracing.Tracer(gone)
    tracer.install()
    try:
        runner.command()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics((0, len(tracer.spans)), (0, 0), (0, 0))
    expect(tracer.missing == ["field.quad"] and "field.quad.calls" not in metrics,
           "a wrapped name that no longer exists is reported missing, not zero")
    expect(cli.main.__name__ == "main" and "traced" not in repr(cli.main), "uninstall restores the originals")


def check_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES), "BENCHMARK.json lists the workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json lists the end-to-end metrics run.py prints")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
           "BENCHMARK.json lists the per-layer metrics the traced run prints")


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=HERE))
    try:
        vacuum = tiny_runner("fig1_vacuum", workdir)
        thermal = tiny_runner("thermal_geometry_oracle", workdir)
        check_corruptions(vacuum, thermal)
        check_tracing(workdir)
        check_benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failures" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
