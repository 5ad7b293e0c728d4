"""Command-line front end: sweep, point, selftest subcommands.

Exit codes: 0 success, 1 selftest failure, 2 usage or config error,
3 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .errors import ConfigError
from .selftest import selftest
from .sweep import format_csv, format_json, json_ready, parse_config, point_query, run_sweep

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _check_output_dir(path: str | None) -> None:
    """Reject unwritable output locations before any computation starts."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory {parent!r} does not exist")


def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{flag}: expected x,y,z, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag}: expected three numbers, got {text!r}") from None
    return (x, y, z)


def _emit(payload: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltachannel",
        description="Delta-switched detector-pair channel: sweeps, point "
        "queries, and the built-in invariant suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a config-driven parameter grid")
    sweep.add_argument("--config", required=True, help="path to a key = value config file")
    sweep.add_argument("--output", help="result file path (overrides the config)")
    sweep.add_argument("--format", choices=("csv", "json"), help="result format (overrides the config)")
    sweep.add_argument("--oracle", action="store_true", help="add quadrature cross-check residuals")
    sweep.add_argument("--optimize", action="store_true", help="run the brute-force optimizer per point")

    point = sub.add_parser("point", help="print one parameter point as JSON")
    point.add_argument("--lambda-a", type=float, default=1.0, help="Alice coupling (default 1)")
    point.add_argument("--lambda-b", type=float, default=1.0, help="Bob coupling (default 1)")
    point.add_argument("--L", type=float, default=6.0, help="detector separation (default 6)")
    point.add_argument("--dtau", type=float, default=6.0, help="switching delay (default 6)")
    point.add_argument("--eta", type=float, default=1.0, help="coupling scale eta/sigma, multiplies both couplings (default 1)")
    point.add_argument("--beta", type=float, default=None, help="inverse temperature; omit for the vacuum")
    point.add_argument("--phase-a", type=float, default=0.0, help="Alice switch phase (default 0)")
    point.add_argument("--phase-b", type=float, default=0.0, help="Bob switch phase (default 0)")
    point.add_argument("--bob", default="0,0,1", help="Bob Bloch vector x,y,z (default 0,0,1)")
    point.add_argument("--alice", default="1,0,0", help="Alice input Bloch vector x,y,z (default 1,0,0)")
    point.add_argument("--oracle", action="store_true", help="add the quadrature cross-check residual")
    point.add_argument("--optimize", action="store_true", help="add the brute-force capacity")
    point.add_argument("--output", help="write the JSON record here instead of stdout")

    check = sub.add_parser("selftest", help="run the built-in invariant suite")
    check.add_argument("--output", help="write the JSON report here as well as stdout")
    check.add_argument(
        "--only",
        action="append",
        metavar="CHECK",
        help="run only the named check (repeatable)",
    )
    return parser


def _run_sweep(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    overrides = {}
    if args.output is not None:
        overrides["output"] = args.output
    if args.format is not None:
        overrides["format"] = args.format
    if args.oracle:
        overrides["oracle"] = True
    if args.optimize:
        overrides["optimizer"] = True
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    _check_output_dir(cfg.output)
    rows = run_sweep(cfg)
    if cfg.output is None:
        payload = format_csv(rows) if cfg.format == "csv" else format_json(rows)
        sys.stdout.write(payload)
    return EXIT_OK


def _run_point(args: argparse.Namespace) -> int:
    _check_output_dir(args.output)
    record = point_query(
        lambda_a=args.lambda_a,
        lambda_b=args.lambda_b,
        separation=args.L,
        delay=args.dtau,
        eta_over_sigma=args.eta,
        beta=args.beta,
        bob=_parse_triple(args.bob, "--bob"),
        alice=_parse_triple(args.alice, "--alice"),
        phase_a=args.phase_a,
        phase_b=args.phase_b,
        oracle=args.oracle,
        optimizer=args.optimize,
    )
    _emit(json.dumps(json_ready(record), indent=2, allow_nan=False) + "\n", args.output)
    return EXIT_OK


def _run_selftest(args: argparse.Namespace) -> int:
    _check_output_dir(args.output)
    report = selftest(only=args.only)
    payload = json.dumps(json_ready(report), indent=2, allow_nan=False) + "\n"
    sys.stdout.write(payload)
    if args.output is not None:
        _emit(payload, args.output)
    return EXIT_OK if report["passed"] else EXIT_SELFTEST_FAIL


# parse_args leaves the parser unchanged, so one serves every call of main
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "point":
            return _run_point(args)
        return _run_selftest(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
