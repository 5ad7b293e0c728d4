"""Spans around deltachannel's public functions, recorded from outside the package.

A Tracer replaces each target function with a wrapper wherever a
deltachannel module holds it (the modules import each other's functions by
name, so the module that defines a function is not the only one that calls
it), records one span per call and puts the originals back on uninstall.
A span is (name, start, end, parent index, info); info carries the
geometry of a cross-integral request or the Holevo evaluations a brute
force spent.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import sys
import time

from reference import SELFTEST_CHECKS

# (module, attribute, span name).  field.quad is scipy's quad as field.py
# binds it; field.mpmath_quad is mpmath.quad, which field.py calls through
# the mpmath module.
TARGETS = (
    ("deltachannel.cli", "main", "cli.main"),
    ("deltachannel.sweep", "run_sweep", "sweep.run_sweep"),
    ("deltachannel.sweep", "evaluate_point", "sweep.evaluate_point"),
    ("deltachannel.sweep", "format_csv", "sweep.format_csv"),
    ("deltachannel.sweep", "format_json", "sweep.format_json"),
    ("deltachannel.sweep", "point_query", "sweep.point_query"),
    ("deltachannel.field", "assemble_statistics", "field.assemble_statistics"),
    ("deltachannel.field", "wightman_cross_quadrature", "field.wightman_cross_quadrature"),
    ("deltachannel.field", "norm_sq_quadrature", "field.norm_sq_quadrature"),
    ("deltachannel.field", "quad", "field.quad"),
    ("mpmath", "quad", "field.mpmath_quad"),
    ("deltachannel.weyl", "gammas_from_statistics", "weyl.gammas_from_statistics"),
    ("deltachannel.channel", "apply", "channel.apply"),
    ("deltachannel.channel", "output_bloch_affine", "channel.output_bloch_affine"),
    ("deltachannel.channel", "choi_matrix", "channel.choi_matrix"),
    ("deltachannel.capacity", "capacity_bruteforce", "capacity.capacity_bruteforce"),
    ("deltachannel.capacity", "holevo_chi", "capacity.holevo_chi"),
    ("deltachannel.capacity", "capacity_closed_form", "capacity.capacity_closed_form"),
    ("deltachannel.selftest", "selftest", "selftest.selftest"),
)

SETUP_PARTS = ("numpy", "scipy", "mpmath", "deltachannel", "inputs")

# Spans that no workload's sweep reaches: their figures are read over the
# selftest checks that end a traced run, every other figure over the sweeps.
SELFTEST_SPANS = (
    "weyl.gammas_from_statistics",
    "channel.apply",
    "channel.output_bloch_affine",
    "channel.choi_matrix",
    "capacity.capacity_bruteforce",
    "capacity.holevo_chi",
    "selftest.selftest",
)

# Per-layer metrics read straight from the spans: (span, figure), where the
# figure is calls, s (total seconds) or self_s (seconds minus child spans).
SPAN_FIGURES = (
    *((span, figure) for span in (
        "field.assemble_statistics",
        "field.wightman_cross_quadrature",
        "field.norm_sq_quadrature",
        "field.quad",
        "field.mpmath_quad",
        "weyl.gammas_from_statistics",
        "channel.apply",
        "channel.output_bloch_affine",
        "channel.choi_matrix",
        "capacity.capacity_bruteforce",
        "capacity.holevo_chi",
        "capacity.capacity_closed_form",
    ) for figure in ("calls", "s")),
    ("sweep.evaluate_point", "calls"),
    ("sweep.evaluate_point", "self_s"),
    ("sweep.run_sweep", "self_s"),
    ("sweep.format_csv", "s"),
    ("sweep.format_json", "s"),
    ("cli.main", "self_s"),
    ("selftest.selftest", "self_s"),
)
FIGURE_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Every per-layer metric: (name, unit, better).
PER_LAYER = (
    *((f"{span}.{figure}", FIGURE_UNITS[figure], "lower") for span, figure in SPAN_FIGURES),
    ("field.integrals_per_geometry", "ratio", "lower"),
    ("capacity.holevo_evals", "count", "lower"),
    ("capacity.holevo_evals_per_s", "1/s", "higher"),
    ("sweep.point_query.calls", "count", "lower"),
    ("sweep.point_query.s", "s", "lower"),
    ("sweep.output_bytes", "bytes", "lower"),
    *((f"selftest.{check}.s", "s", "lower") for check in SELFTEST_CHECKS),
    *((f"setup.{part}_s", "s", "lower") for part in SETUP_PARTS),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        for module_name, attr, name in self.targets:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name)
            holders = [module] + [
                m for key, m in sys.modules.items()
                if key.split(".")[0] == "deltachannel" and m is not module
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of_call = _geometry_key if name == "field.wightman_cross_quadrature" else None
        info_of_result = _iterations if name == "capacity.capacity_bruteforce" else None

        def traced(*args, **kwargs):
            info = info_of_call(*args, **kwargs) if info_of_call else None
            index = len(spans)
            spans.append(None)  # reserved, so that spans stay in call order
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, info)
            if info_of_result:
                spans[index] = (name, start, end, parent, info_of_result(result))
            return result

        return traced

    def totals(self, first: int, stop: int) -> dict:
        """calls, total seconds and self seconds per span name, over spans[first:stop]."""
        child_time = [0.0] * stop
        for name, start, end, parent, _ in self.spans[first:stop]:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for index in range(first, stop):
            name, start, end, _, _ = self.spans[index]
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child_time[index])
        return out

    def metrics(self, command: tuple[int, int], points: tuple[int, int], selftest: tuple[int, int]) -> dict:
        """The span-derived per-layer metrics: module figures over the
        workload's sweeps, point_query figures over its point queries, and
        the figures of SELFTEST_SPANS over the selftest checks.  Figures of a
        missing target are left out, not reported as zero."""
        totals = {name: figures for name, figures in self.totals(*command).items() if name not in SELFTEST_SPANS}
        totals.update((name, figures) for name, figures in self.totals(*selftest).items() if name in SELFTEST_SPANS)
        present = lambda name: name not in self.missing  # noqa: E731
        out = {}
        for span, figure in SPAN_FIGURES:
            if present(span):
                calls, seconds, own = totals.get(span, (0, 0.0, 0.0))
                out[f"{span}.{figure}"] = {"calls": calls, "s": seconds, "self_s": own}[figure]
        if present("field.wightman_cross_quadrature"):
            keys = [info for name, *_, info in self.spans[command[0]:command[1]]
                    if name == "field.wightman_cross_quadrature"]
            out["field.integrals_per_geometry"] = len(keys) / len(set(keys)) if keys else 0.0
        if present("capacity.capacity_bruteforce"):
            evals = sum(info for name, *_, info in self.spans[selftest[0]:selftest[1]]
                        if name == "capacity.capacity_bruteforce")
            seconds = totals.get("capacity.capacity_bruteforce", (0, 0.0, 0.0))[1]
            out["capacity.holevo_evals"] = evals
            out["capacity.holevo_evals_per_s"] = evals / seconds if seconds else 0.0
        if present("sweep.point_query"):
            calls, seconds, _ = self.totals(*points).get("sweep.point_query", (0, 0.0, 0.0))
            out["sweep.point_query.calls"], out["sweep.point_query.s"] = calls, seconds
        return out


def _geometry_key(f_a, f_b, geom, state=None):
    beta = state.beta if state is not None and state.is_thermal else None
    return (geom.separation, geom.delay, beta)


def _iterations(result):
    return result.iterations
