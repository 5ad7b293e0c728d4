"""The benchmark's workloads: their inputs, one round of each, and its checks.

A round sweeps the workload's grid through deltachannel.cli.main, one
`deltachannel sweep` per line, then runs `deltachannel point` on a sample
of the grid's rows with the workload's flags.  Every call is timed;
checking is not.  Rows are checked against the independent references in
reference.py on the first round, and every later round must write the
same bytes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

NAMES = ("fig1_vacuum", "thermal_geometry_oracle")
FIG1_AXIS = 24
FIG1_POINTS = 24
TINY_POINTS = 4


def _axis(lo: float, hi: float, count: int, scale: str) -> list[float]:
    if scale == "log":
        return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


@dataclass
class Workload:
    """A grid swept line by line through deltachannel.cli.main, one `sweep`
    per value of the outer axis, what its rows must be, and the rows that
    are queried again with `point`."""

    name: str
    commands: list[list[str]]
    outputs: list[Path]
    point_flags: list[str] = field(default_factory=list)
    beta: float | None = None
    grid: list[dict] = field(default_factory=list)
    point_rows: list[int] = field(default_factory=list)
    checks: tuple = ()


def _sweep(name, workdir, fixed, axes, fmt, flags, point_flags, beta, checks) -> Workload:
    """A two-axis grid as one single-axis sweep per outer value: writes their
    configs and lists the rows they must produce, in row-major order."""
    (outer, *o), (inner, lo, hi, n, scale) = axes
    head = ["schema_version = 1", *(f"{k} = {v}" for k, v in fixed.items())]
    tail = [f"axis.{inner} = {lo!r}, {hi!r}, {n}, {scale}", f"format = {fmt}"]
    commands, outputs, grid = [], [], []
    for k, u in enumerate(_axis(*o)):
        config = workdir / f"{name}-{k}.cfg"
        config.write_text("\n".join([*head, f"{outer} = {u!r}", *tail]) + "\n", encoding="utf-8")
        commands.append(["sweep", "--config", str(config), *flags])
        outputs.append(workdir / f"{name}-{k}.{fmt}")
        grid += [{outer: u, inner: v} for v in _axis(lo, hi, n, scale)]
    return Workload(
        name=name,
        commands=commands,
        outputs=outputs,
        point_flags=point_flags,
        beta=beta,
        grid=grid,
        checks=checks,
    )


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """The workload's inputs.  Grids are fixed; the seed draws the point sample.

    tiny shrinks every grid and sample so that a workload runs in about a
    second, for the benchmark's self-check.
    """
    rng = random.Random(seed)
    if name == "fig1_vacuum":
        n = 8 if tiny else FIG1_AXIS
        checks = (reference.check_fig1_figure,) if not tiny else ()
        w = _sweep(name, workdir, {"L": 6.0, "dtau": 6.0},
                   [("lambda_a", 0.1, 1000.0, n, "log"), ("lambda_b", 0.1, 1000.0, n, "log")],
                   "csv", [], [], None, checks)
        w.point_rows = rng.sample(range(len(w.grid)), TINY_POINTS if tiny else FIG1_POINTS)
    elif name == "thermal_geometry_oracle":
        axes = ([("L", 4.0, 8.0, 2, "linear"), ("dtau", 0.0, 4.0, 2, "linear")] if tiny
                else [("L", 0.0, 8.0, 3, "linear"), ("dtau", 0.0, 8.0, 3, "linear")])
        checks = (reference.check_oracle, reference.check_thermal_below_vacuum)
        w = _sweep(name, workdir, {"lambda_a": 10.0, "lambda_b": 1.0, "beta": 2.0}, axes,
                   "json", ["--oracle"], ["--beta", "2.0", "--oracle"], 2.0, checks)
        w.point_rows = list(range(len(w.grid)))
        rng.shuffle(w.point_rows)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return w


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_rows(data: bytes, fmt: str) -> list[dict]:
    """Sweep rows as dicts of floats (NaN for an empty cell) plus status."""
    if fmt == "csv":
        header, *lines = data.decode("utf-8").splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    else:
        rows = json.loads(data)["rows"]
    return [
        {k: v if k == "status" else (math.nan if v is None else float(v)) for k, v in row.items()}
        for row in rows
    ]


def point_row(record: dict) -> dict:
    """A point record laid out as a sweep row."""
    inputs, capacity = record["inputs"], record.get("capacity", {})
    row = {key: inputs[key] for key in ("lambda_a", "lambda_b", "L", "dtau")}
    row.update(record.get("field_statistics", {}))
    row["status"] = record["status"]
    if "c_closed" in capacity:
        row["c_closed"] = capacity["c_closed"]
    if "oracle_residual" in record:
        row["oracle_residual"] = record["oracle_residual"]
    return row


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Runner:
    """Runs rounds of one workload and keeps their timings, counts and problems."""

    def __init__(self, workload: Workload, cli):
        self.w = workload
        self.cli = cli  # looked up on every call, so that a tracer's wrapper is seen
        self.run_s: list[list[float]] = [[] for _ in workload.commands]
        self.point_s: dict[int, list[float]] = {i: [] for i in workload.point_rows}
        self.output_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: list[bytes] = []
        self.rows: list[dict] = []
        self._reference = reference.FieldReference(workload.beta)

    def round(self) -> None:
        self.command()
        self.points()

    def command(self) -> None:
        """Every line's sweep, in order."""
        data = []
        for k, (command, output) in enumerate(zip(self.w.commands, self.w.outputs)):
            start = time.perf_counter()
            code = self.cli.main([*command, "--output", str(output)])
            self.run_s[k].append(time.perf_counter() - start)
            if code != 0:
                self.problems.append(f"sweep of line {k} exited with {code}")
                return
            data.append(output.read_bytes())
        self.output_bytes = sum(map(len, data))
        if not self._first:
            self._first = data
            fmt = self.w.outputs[0].suffix[1:]
            self.rows = [row for line in data for row in parse_rows(line, fmt)]
            self.problems += reference.check_grid(self.rows, self.w.grid)
            ok = [row for row in self.rows if row["status"] == "ok"]  # the others count as failed
            self.problems += reference.check_field_rows(ok, self._reference)
            for check in self.w.checks:
                self.problems += check(ok)
        elif data != self._first:
            self.problems.append("sweep output differs from the first round's bytes")
        self.attempted += len(self.rows)
        self.failed += sum(row["status"] != "ok" for row in self.rows)

    def points(self) -> None:
        for i in self.w.point_rows:
            row = self.rows[i]
            argv = ["point", "--lambda-a", repr(row["lambda_a"]), "--lambda-b", repr(row["lambda_b"]),
                    "--L", repr(row["L"]), "--dtau", repr(row["dtau"]), *self.w.point_flags]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                start = time.perf_counter()
                code = self.cli.main(argv)
                self.point_s[i].append(time.perf_counter() - start)
            self.attempted += 1
            record = json.loads(printed.getvalue()) if code == 0 else {}
            if record.get("status") != "ok":
                self.failed += 1
                continue
            self.problems += reference.check_point(point_row(record), row)

    @property
    def timed_s(self) -> float:
        return sum(map(sum, self.run_s)) + sum(map(sum, self.point_s.values()))

    def best_run_s(self) -> float:
        """The whole grid's sweep time: each line's fastest sweep, summed."""
        return sum(map(min, self.run_s))

    def last_run_s(self) -> float:
        """The last round's sweep time."""
        return sum(times[-1] for times in self.run_s)

    def best_point_s(self) -> float:
        """The median over the point sample of each point's fastest query."""
        return statistics.median(min(times) for times in self.point_s.values())
