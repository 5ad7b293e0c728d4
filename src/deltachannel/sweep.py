"""Parameter sweeps: config parsing, grid evaluation, deterministic output.

The config format is flat `key = value` text with `#` comments and a
mandatory schema_version.  Sweep results are written as CSV or JSON with
shortest round-trip float formatting and a fixed column order, so a given
config always produces byte-identical files.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .capacity import capacity_bruteforce, capacity_closed_form
from .channel import ChannelParams, QubitState, apply
from .errors import ConfigError, ConsistencyError, QuadratureError
from .field import (
    FieldStatistics,
    PairGeometry,
    SmearingSpec,
    VACUUM,
    assemble_statistics,
    commutator_closed,
    cross_real_closed,
    norm_sq_closed,
    pair_prefactor,
    self_norm_closed,
    self_norm_j,
    thermal,
    wightman_cross_quadrature,
)
from .selftest import RESIDUAL_FLOOR

SCHEMA_VERSION = 1

COLUMNS = (
    "lambda_a",
    "lambda_b",
    "L",
    "dtau",
    "nu_a",
    "nu_b",
    "nu_ab_plus",
    "nu_ab_minus",
    "delta_ab",
    "c_closed",
    "c_bruteforce",
    "gap",
    "oracle_residual",
    "status",
)

AXIS_NAMES = ("lambda_a", "lambda_b", "L", "dtau", "r_b")


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: name, range, point count, and linear or log spacing."""

    name: str
    lo: float
    hi: float
    count: int
    scale: str

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"unknown axis {self.name!r}; choose from {AXIS_NAMES}")
        if self.count < 1:
            raise ConfigError(f"axis {self.name}: count must be >= 1")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise ConfigError(f"axis {self.name}: need finite min <= max")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis {self.name}: scale must be linear or log")
        if self.scale == "log" and self.lo <= 0.0:
            raise ConfigError(f"axis {self.name}: log spacing requires min > 0")

    def values(self) -> list[float]:
        if self.count == 1:
            return [float(self.lo)]
        if self.scale == "log":
            return [float(v) for v in np.geomspace(self.lo, self.hi, self.count)]
        return [float(v) for v in np.linspace(self.lo, self.hi, self.count)]


@dataclass(frozen=True)
class SweepConfig:
    """Fixed parameters, up to two axes, and output options for one sweep."""

    eta_over_sigma: float = 1.0
    lambda_a: float = 1.0
    lambda_b: float = 1.0
    separation: float = 6.0
    delay: float = 6.0
    beta: float | None = None
    bob_bloch: tuple[float, float, float] = (0.0, 0.0, 1.0)
    r_b: float | None = None
    phase_a: float = 0.0
    phase_b: float = 0.0
    axes: tuple[AxisSpec, ...] = ()
    output: str | None = None
    format: str = "csv"
    oracle: bool = False
    optimizer: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.eta_over_sigma) and self.eta_over_sigma > 0.0):
            raise ConfigError(f"eta_over_sigma must be > 0, got {self.eta_over_sigma!r}")
        for name in ("lambda_a", "lambda_b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be >= 0, got {v!r}")
        if not (math.isfinite(self.separation) and self.separation >= 0.0):
            raise ConfigError(f"L must be >= 0, got {self.separation!r}")
        if not math.isfinite(self.delay):
            raise ConfigError(f"dtau must be finite, got {self.delay!r}")
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ConfigError(f"beta must be > 0, got {self.beta!r}")
        if len(self.bob_bloch) != 3 or not all(math.isfinite(c) for c in self.bob_bloch):
            raise ConfigError(f"bob_bloch must be a finite 3-vector, got {self.bob_bloch!r}")
        r_b_used = self.r_b is not None or any(a.name == "r_b" for a in self.axes)
        if r_b_used and all(c == 0.0 for c in self.bob_bloch):
            raise ConfigError("r_b scaling needs a nonzero bob_bloch direction")
        if self.r_b is not None and not 0.0 <= self.r_b <= 1.0:
            raise ConfigError(f"r_b must lie in [0, 1], got {self.r_b!r}")
        for axis in self.axes:
            if axis.name == "r_b" and not 0.0 <= axis.lo <= axis.hi <= 1.0:
                raise ConfigError(f"axis r_b must lie in [0, 1], got {axis.lo!r} to {axis.hi!r}")
        if not (math.isfinite(self.phase_a) and math.isfinite(self.phase_b)):
            raise ConfigError("phases must be finite")
        if len(self.axes) > 2:
            raise ConfigError(f"at most 2 axes are supported, got {len(self.axes)}")
        seen = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ConfigError(f"axis {axis.name!r} given twice")
            seen.add(axis.name)
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_SCALAR_KEYS = {
    "eta_over_sigma": float,
    "lambda_a": float,
    "lambda_b": float,
    "L": float,
    "dtau": float,
    "beta": float,
    "r_b": float,
    "phase_a": float,
    "phase_b": float,
}
_FIELD_FOR_KEY = {"L": "separation", "dtau": "delay"}


def _parse_bool(value: str, where: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {value!r}")


def _parse_float(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def parse_config_text(text: str) -> SweepConfig:
    """Parse the flat key = value config grammar into a SweepConfig."""
    fields: dict = {}
    axes: list[AxisSpec] = []
    seen: set[str] = set()
    schema_version = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        seen.add(key)
        where = f"{where} ({key})"
        if key == "schema_version":
            schema_version = value
        elif key in _SCALAR_KEYS:
            fields[_FIELD_FOR_KEY.get(key, key)] = _parse_float(value, where)
        elif key == "bob_bloch":
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 3:
                raise ConfigError(f"{where}: expected three comma-separated numbers")
            fields["bob_bloch"] = tuple(_parse_float(p, where) for p in parts)
        elif key in ("oracle", "optimizer"):
            fields[key] = _parse_bool(value, where)
        elif key == "format":
            fields["format"] = value
        elif key == "output":
            fields["output"] = value
        elif key.startswith("axis."):
            name = key[len("axis."):]
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 4:
                raise ConfigError(f"{where}: expected min,max,count,scale")
            try:
                count = int(parts[2])
            except ValueError:
                raise ConfigError(f"{where}: count must be an integer") from None
            axes.append(
                AxisSpec(
                    name=name,
                    lo=_parse_float(parts[0], where),
                    hi=_parse_float(parts[1], where),
                    count=count,
                    scale=parts[3],
                )
            )
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    if schema_version is None:
        raise ConfigError("missing required key schema_version")
    if schema_version != str(SCHEMA_VERSION):
        raise ConfigError(
            f"unsupported schema_version {schema_version!r}; this build reads {SCHEMA_VERSION}"
        )
    return SweepConfig(axes=tuple(axes), **fields)


def parse_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _resolve_bob(bob_bloch: tuple[float, float, float], r_b: float | None) -> QubitState:
    if r_b is None:
        return QubitState(*bob_bloch)
    norm = math.sqrt(sum(c * c for c in bob_bloch))
    return QubitState(*(r_b * c / norm for c in bob_bloch))


def evaluate_point(
    lambda_a: float,
    lambda_b: float,
    separation: float,
    delay: float,
    eta_over_sigma: float = 1.0,
    beta: float | None = None,
    bob: QubitState = QubitState(0.0, 0.0, 1.0),
    phase_a: float = 0.0,
    phase_b: float = 0.0,
    oracle: bool = False,
    optimizer: bool = False,
) -> dict:
    """One sweep row as a column -> value mapping.

    Failures past input validation never raise.  A failed quadrature sets
    status quadrature_error: the field-dependent columns go NaN, unless
    only the --oracle integral failed, which blanks just oracle_residual.
    An overflow or an out-of-domain value sets status domain_error with
    every computed column NaN.
    """
    return _evaluate(lambda_a, lambda_b, separation, delay, eta_over_sigma, beta, bob,
                     phase_a, phase_b, oracle, optimizer)[0]


def _evaluate(lambda_a, lambda_b, separation, delay, eta_over_sigma, beta, bob,
              phase_a, phase_b, oracle, optimizer) -> tuple[dict, FieldStatistics | None]:
    """evaluate_point's row, with the statistics it was computed from (None
    where they failed)."""
    row = dict.fromkeys(COLUMNS, math.nan)
    row.update(lambda_a=lambda_a, lambda_b=lambda_b, L=separation, dtau=delay, status="ok")
    factors = (("lambda_a", lambda_a), ("lambda_b", lambda_b), ("eta_over_sigma", eta_over_sigma))
    for name, value in factors:
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    geom = PairGeometry(separation, delay)
    state = VACUUM if beta is None else thermal(beta)
    stats = None
    computed: dict = {}
    try:
        # a product of valid factors can still overflow: that is the row's failure
        f_a = SmearingSpec(coupling=lambda_a * eta_over_sigma)
        f_b = SmearingSpec(coupling=lambda_b * eta_over_sigma)
        stats = assemble_statistics(f_a, f_b, geom, state)
        computed.update(
            nu_a=stats.nu_a,
            nu_b=stats.nu_b,
            nu_ab_plus=stats.nu_ab_plus,
            nu_ab_minus=stats.nu_ab_minus,
            delta_ab=stats.delta_ab,
            c_closed=capacity_closed_form(stats.nu_b, bob.r, stats.delta_ab),
        )
        if optimizer:
            result = capacity_bruteforce(ChannelParams(stats, phase_a, phase_b, bob))
            computed.update(c_bruteforce=result.c_bruteforce, gap=result.gap)
        if oracle:
            computed["oracle_residual"] = _oracle_residual(f_a, f_b, geom, state, stats)
    except QuadratureError:
        row["status"] = "quadrature_error"
    except (OverflowError, ValueError, ConsistencyError):
        row["status"] = "domain_error"
        return row, None
    row.update(computed)
    return row, stats


def _oracle_residual(f_a, f_b, geom, state, stats) -> float:
    """Largest disagreement between the closed forms and the quadrature.

    One cross integral and one J(0, 0, beta) integral, in every state: the
    commutator, relatively; both norms, relatively, from the one J(0, 0,
    beta); and Re W(f_A, f_B) as the absolute difference in Re J over
    J(0, 0, beta), which is Delta Re W / sqrt(n_a n_b), so a zero crossing
    of Re J cannot inflate it.  In the vacuum J(0, 0) = 1.  A norm whose
    closed form and quadrature overflow to the same infinity agrees; any
    other undefined term makes the residual NaN.
    """
    w_cross = wightman_cross_quadrature(f_a, f_b, geom, state)
    d_closed = commutator_closed(f_a, f_b, geom)
    terms = [abs(d_closed - (-2.0 * w_cross.imag)) / max(abs(d_closed), RESIDUAL_FLOOR)]
    j0 = self_norm_j(state)
    j0_closed = self_norm_closed(state)
    for f in (f_a, f_b):
        closed = norm_sq_closed(f) * j0_closed
        quad = pair_prefactor(f, f) * j0
        terms.append(0.0 if closed == quad else abs(closed - quad) / max(closed, RESIDUAL_FLOOR))
    pref = pair_prefactor(f_a, f_b)
    # below the smallest normal float W = pref J keeps fewer than 53 bits,
    # and W / pref no longer carries Re J (off by 0.27 at couplings 20 and
    # 5e-324)
    if pref >= sys.float_info.min:
        re_j = cross_real_closed(geom.separation, geom.delay, state.beta)
        terms.append(abs(re_j - w_cross.real / pref) / j0_closed)
    # np.max propagates NaN where the builtin max would drop it
    return float(np.max(terms))


def grid_overrides(cfg: SweepConfig) -> list[dict]:
    """Per-row axis overrides in row-major order (first axis outermost)."""
    if not cfg.axes:
        return [{}]
    value_lists = [axis.values() for axis in cfg.axes]
    overrides = []
    if len(cfg.axes) == 1:
        for v in value_lists[0]:
            overrides.append({cfg.axes[0].name: v})
        return overrides
    for outer in value_lists[0]:
        for inner in value_lists[1]:
            overrides.append({cfg.axes[0].name: outer, cfg.axes[1].name: inner})
    return overrides


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """Evaluate the whole grid in order and write the result file if cfg.output is set."""
    rows = [
        evaluate_point(
            lambda_a=overrides.get("lambda_a", cfg.lambda_a),
            lambda_b=overrides.get("lambda_b", cfg.lambda_b),
            separation=overrides.get("L", cfg.separation),
            delay=overrides.get("dtau", cfg.delay),
            eta_over_sigma=cfg.eta_over_sigma,
            beta=cfg.beta,
            bob=_resolve_bob(cfg.bob_bloch, overrides.get("r_b", cfg.r_b)),
            phase_a=cfg.phase_a,
            phase_b=cfg.phase_b,
            oracle=cfg.oracle,
            optimizer=cfg.optimizer,
        )
        for overrides in grid_overrides(cfg)
    ]
    if cfg.output is not None:
        payload = format_csv(rows) if cfg.format == "csv" else format_json(rows)
        with open(cfg.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    return rows


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def format_csv(rows: list[dict]) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in COLUMNS))
    return "\n".join(lines) + "\n"


def json_ready(value):
    """A copy of value for strict JSON: every float NaN becomes None (null)."""
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def format_json(rows: list[dict]) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "rows": [{c: r[c] for c in COLUMNS} for r in rows]}
    return json.dumps(json_ready(doc), indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# single-point query
# ---------------------------------------------------------------------------

def point_query(
    lambda_a: float,
    lambda_b: float,
    separation: float,
    delay: float,
    eta_over_sigma: float = 1.0,
    beta: float | None = None,
    bob: tuple[float, float, float] = (0.0, 0.0, 1.0),
    alice: tuple[float, float, float] = (1.0, 0.0, 0.0),
    phase_a: float = 0.0,
    phase_b: float = 0.0,
    oracle: bool = False,
    optimizer: bool = False,
) -> dict:
    """Everything the library knows about a single parameter point.

    The sweep-row fields reproduce a run_sweep row for the same point
    exactly; on top of those come the combined channel coefficients, the
    output eigenvalues for the given Alice input, and capacity details.
    """
    bob_state = QubitState(*bob)
    alice_state = QubitState(*alice)
    row, stats = _evaluate(lambda_a, lambda_b, separation, delay, eta_over_sigma, beta,
                           bob_state, phase_a, phase_b, oracle, optimizer)
    record: dict = {"schema_version": SCHEMA_VERSION, "status": row["status"]}
    record["inputs"] = {
        "lambda_a": lambda_a,
        "lambda_b": lambda_b,
        "L": separation,
        "dtau": delay,
        "eta_over_sigma": eta_over_sigma,
        "beta": beta,
        "bob_bloch": list(bob),
        "alice_bloch": list(alice),
        "phase_a": phase_a,
        "phase_b": phase_b,
    }
    if row["status"] != "ok":
        return record
    record["field_statistics"] = {
        "nu_a": stats.nu_a,
        "nu_b": stats.nu_b,
        "nu_ab_plus": stats.nu_ab_plus,
        "nu_ab_minus": stats.nu_ab_minus,
        "delta_ab": stats.delta_ab,
    }
    params = ChannelParams(stats, phase_a, phase_b, bob_state)
    record["combined_coefficients"] = {
        "c_keep": 0.5 + 0.5 * params.a,
        "c_flip": 0.5 - 0.5 * params.a,
        "c_comm_imag": -0.5 * params.b,
    }
    out = apply(params, alice_state)
    record["eigenvalues"] = {"p_plus": out.eigenvalues[0], "p_minus": out.eigenvalues[1]}
    capacity_block = {
        "c_closed": row["c_closed"],
        "q_ea_lower": row["c_closed"] / 2.0,
        "nu_eff": stats.nu_b * bob_state.r,
    }
    if optimizer:
        capacity_block["c_bruteforce"] = row["c_bruteforce"]
        capacity_block["gap"] = row["gap"]
    record["capacity"] = capacity_block
    if oracle:
        record["oracle_residual"] = row["oracle_residual"]
    return record
