"""The benchmark's tracer wraps library functions by name; each must exist.

perfbench/tracing.py reports a target it cannot find only as `missing` in a
traced run, so a rename in the library would silently drop its per-layer
metrics.  The tracer module is imported as it stands and not modified.
"""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import pathlib

from deltachannel.capacity import CapacityResult
from deltachannel.field import VACUUM, PairGeometry, SmearingSpec, thermal

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling reference.py
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    assert tracing.TARGETS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_traced_result_field_exists():
    # the tracer reads CapacityResult.iterations as capacity.holevo_evals;
    # a rename would crash a traced run rather than report `missing`
    assert "iterations" in {f.name for f in dataclasses.fields(CapacityResult)}


def test_traced_geometry_attributes_exist(monkeypatch):
    # the tracer keys each cross integral by geom.separation, geom.delay and
    # state.beta (read through state.is_thermal); a rename would crash a
    # traced run rather than report `missing`
    tracing = _load("tracing", monkeypatch)
    f = SmearingSpec(coupling=1.0)
    geom = PairGeometry(1, 2)
    assert tracing._geometry_key(f, f, geom, thermal(2.0)) == (1.0, 2.0, 2.0)
    assert tracing._geometry_key(f, f, geom, VACUUM)[2] is None
