"""Parameter sweeps: config parsing, grid evaluation, deterministic output.

The config format is flat `key = value` text with `#` comments and a
mandatory schema_version.  Sweep rows are formatted as CSV or JSON with
shortest round-trip float formatting and a fixed column order, so a given
config always produces byte-identical output; the CLI writes it.  The JSON
writer walks a document once and writes the bytes of
json.dumps(doc, indent=2, allow_nan=False), with NaN as null.

A sweep splits each row's work by what it depends on:
- per sweep, once: the field state and its J(0, 0, beta), and Bob's state
  with the two lengths (p, r_perp) that the capacity reads at phase_b;
  on an r_b axis Bob is resolved per row instead;
- per geometry: PairGeometry's validation, the cached Re J and the
  commutator's geometry factors, and with --oracle the residual (or its
  QuadratureError), taken again only when (L, dtau) differs from the
  previous row's, so that in row-major order each inner coupling line is
  one run of a single geometry;
- per row: the coupling products, the validated FieldStatistics, the
  capacity's contraction and two entropies, and then the row dict, built
  once in column order from the values computed.
evaluate_point and point_query run the same row kernel on a one-row grid,
so each reproduces its sweep row bit for bit.  format_csv writes the
rows column by column: each numeric column is read out and formatted in
one pass, and the cells are then joined row by row.
"""
from __future__ import annotations

import codecs
import decimal
import itertools
import math
import operator
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .capacity import bob_lengths, capacity_and_nu_eff, capacity_bruteforce
from .channel import ChannelParams, QubitState, apply
from .errors import ConfigError, ConsistencyError, QuadratureError
from .field import (
    FieldStatistics,
    FieldStateSpec,
    PairGeometry,
    check_nonnegative,
    cross_real_closed,
    geometry_terms,
    oracle_residual,
    statistics_from_terms,
)

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
# the FieldStatistics fields, as row columns
STATISTICS_COLUMNS = COLUMNS[4:9]

AXIS_NAMES = ("lambda_a", "lambda_b", "L", "dtau", "r_b")
# the decimal precision of a log axis's arithmetic (see AxisSpec.values)
LOG_AXIS_DIGITS = 40
FORMATS = ("csv", "json")
# each numeric config key's rule, as "must ...": a fixed value and both
# ends of its axis keep the same one
_NONNEGATIVE = ("be >= 0", lambda v: 0.0 <= v < math.inf)
_FINITE = ("be finite", math.isfinite)
_KEY_RULES = {
    "eta_over_sigma": _NONNEGATIVE,
    "lambda_a": _NONNEGATIVE,
    "lambda_b": _NONNEGATIVE,
    "L": _NONNEGATIVE,
    "dtau": _FINITE,
    "beta": ("be > 0", lambda v: 0.0 < v < math.inf),
    "r_b": ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "phase_a": _FINITE,
    "phase_b": _FINITE,
}
# the SweepConfig field of a config key, where the two differ
_FIELD_FOR_KEY = {"L": "separation", "dtau": "delay"}


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
        rule, ok = _KEY_RULES[self.name]
        if not (ok(self.lo) and ok(self.hi)):
            raise ConfigError(f"axis {self.name} must {rule}, got {self.lo!r} to {self.hi!r}")
        # a span past the float range would overflow a linear axis's step
        if not math.isfinite(self.hi - self.lo):
            raise ConfigError(f"axis {self.name}: max - min must be finite, got {self.lo!r} to {self.hi!r}")

    def values(self) -> list[float]:
        """The axis's points, both ends exact.  A log axis steps by
        exp(ln(hi / lo) / (count - 1)) and multiplies up from lo, every
        operation in decimal at LOG_AXIS_DIGITS digits, each point then
        rounded to the nearest float: decimal's exp, ln, division and
        multiplication are correctly rounded by its specification, so the
        bits are the same on every platform.  A linear axis takes
        numpy.linspace's recipe and bits: i * step + lo with step =
        (hi - lo) / (count - 1), or (i / (count - 1)) * (hi - lo) + lo
        where that step is 0."""
        n = self.count - 1
        if not n:
            return [float(self.lo)]
        if self.scale == "log":
            ctx = decimal.Context(prec=LOG_AXIS_DIGITS)
            point = decimal.Decimal(self.lo)
            step = ctx.exp(ctx.divide(ctx.ln(ctx.divide(decimal.Decimal(self.hi), point)), n))
            points = [float(self.lo)]
            for _ in range(n - 1):
                point = ctx.multiply(point, step)
                points.append(float(point))
        else:
            delta = self.hi - self.lo
            step = delta / n
            if step:
                points = [i * step + self.lo for i in range(n)]
            else:
                # numpy's branch for a step that underflows to 0
                points = [i / n * delta + self.lo for i in range(n)]
        return [*points, float(self.hi)]


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
        for key, (rule, ok) in _KEY_RULES.items():
            v = getattr(self, _FIELD_FOR_KEY.get(key, key))
            # beta and r_b may be None: the vacuum, and unused
            if v is not None and not ok(v):
                raise ConfigError(f"{key} must {rule}, got {v!r}")
        if len(self.bob_bloch) != 3 or not all(math.isfinite(c) for c in self.bob_bloch):
            raise ConfigError(f"bob_bloch must be a finite 3-vector, got {self.bob_bloch!r}")
        if self.r_b is not None or any(a.name == "r_b" for a in self.axes):
            if all(c == 0.0 for c in self.bob_bloch):
                raise ConfigError("r_b scaling needs a nonzero bob_bloch direction")
        else:
            # without r_b, bob_bloch is Bob's state itself, not a direction
            try:
                QubitState(*self.bob_bloch)
            except ValueError:
                raise ConfigError(f"bob_bloch {self.bob_bloch!r} leaves the unit ball; "
                                  "only with r_b is it a direction of any length") from None
        if len(self.axes) > 2:
            raise ConfigError(f"at most 2 axes are supported, got {len(self.axes)}")
        seen = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ConfigError(f"axis {axis.name!r} given twice")
            seen.add(axis.name)
        if self.format not in FORMATS:
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

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


def parse_triple(text: str, where: str) -> tuple[float, float, float]:
    """x,y,z of bob_bloch, --bob or --alice; where names the line or flag."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected three comma-separated numbers, got {text!r}")
    return tuple(_parse_float(p.strip(), where) for p in parts)


def parse_config_text(text: str, **overrides) -> SweepConfig:
    """Parse the flat key = value config grammar into a SweepConfig.

    overrides are SweepConfig fields that replace the config's values, as
    the CLI's flags do; every key of the text is still checked."""
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
        elif key in _KEY_RULES:
            fields[_FIELD_FOR_KEY.get(key, key)] = _parse_float(value, where)
        elif key == "bob_bloch":
            fields["bob_bloch"] = parse_triple(value, where)
        elif key in ("oracle", "optimizer"):
            fields[key] = _parse_bool(value, where)
        elif key == "format":
            # checked here, so that a --format flag never hides a bad key
            if value not in FORMATS:
                raise ConfigError(f"{where}: format must be csv or json, got {value!r}")
            fields[key] = value
        elif key == "output":
            fields[key] = value
        elif key.startswith("axis."):
            name = key[len("axis."):]
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 4:
                raise ConfigError(f"{where}: expected min,max,count,scale")
            try:
                count = int(parts[2])
            except ValueError:
                raise ConfigError(f"{where}: count must be an integer") from None
            lo, hi = (_parse_float(p, where) for p in parts[:2])
            axes.append(AxisSpec(name, lo, hi, count, parts[3]))
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    if schema_version is None:
        raise ConfigError("missing required key schema_version")
    if schema_version != str(SCHEMA_VERSION):
        raise ConfigError(
            f"unsupported schema_version {schema_version!r}; this build reads {SCHEMA_VERSION}"
        )
    return SweepConfig(axes=tuple(axes), **{**fields, **overrides})


def parse_config(path: str, **overrides) -> SweepConfig:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    # drop the byte-order mark that some editors write first; the offset in
    # a decoding error still counts the file's bytes from its start
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = bom + exc.start
        raise ConfigError(f"config {path!r} is not UTF-8: byte {data[at]:#04x} at offset {at}") from None
    return parse_config_text(text, **overrides)


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _resolve_bob(bob_bloch: tuple[float, float, float], r_b: float | None) -> QubitState:
    if r_b is None:
        return QubitState(*bob_bloch)
    square = sum(c * c for c in bob_bloch)
    if not sys.float_info.min <= square < math.inf:
        # the sum of squares under- or overflows: dividing by the largest
        # component first brings it into [1, 3] and keeps the direction
        top = max(map(abs, bob_bloch))
        bob_bloch = tuple(c / top for c in bob_bloch)
        square = sum(c * c for c in bob_bloch)
    norm = math.sqrt(square)
    return QubitState(*(r_b * c / norm for c in bob_bloch))


# a domain_error row: every computed cell NaN; the row fills in its inputs
_DOMAIN_ERROR_ROW = dict.fromkeys(COLUMNS, math.nan) | {"status": "domain_error"}


class _Rows:
    """One sweep's row kernel: the per-sweep invariants, Bob (given at
    construction, or by set_bob before each row on an r_b axis), the last
    geometry's terms and oracle residual, and the per-row arithmetic of
    the module docstring."""

    __slots__ = ("eta", "state", "j0", "phase_a", "phase_b", "oracle", "optimizer",
                 "bob", "p", "r_perp", "place", "geom", "terms", "checked")

    def __init__(self, eta_over_sigma: float, beta: float | None, bob: QubitState | None,
                 phase_a: float, phase_b: float, oracle: bool, optimizer: bool):
        check_nonnegative("eta_over_sigma", eta_over_sigma)
        if not (math.isfinite(phase_a) and math.isfinite(phase_b)):
            raise ValueError("phases must be finite")
        self.eta = eta_over_sigma
        self.state = FieldStateSpec(beta)
        self.j0 = cross_real_closed(0.0, 0.0, beta)
        self.phase_a, self.phase_b = phase_a, phase_b
        self.oracle, self.optimizer = oracle, optimizer
        # the (L, dtau) of geom; terms are its geometry_terms and checked its
        # (oracle_residual, status), each None until taken
        self.place = None
        if bob is not None:
            self.set_bob(bob)

    def set_bob(self, bob: QubitState) -> None:
        self.bob = bob
        self.p, self.r_perp = bob_lengths(self.phase_b, bob)

    def row(self, lambda_a: float, lambda_b: float, separation: float,
            delay: float) -> tuple[dict, FieldStatistics | None, float]:
        """(row, its FieldStatistics, Bob's nu_eff w); a domain_error row
        gives None and NaN."""
        check_nonnegative("lambda_a", lambda_a)
        check_nonnegative("lambda_b", lambda_b)
        if (separation, delay) != self.place:
            self.geom = PairGeometry(separation, delay)
            self.place, self.terms, self.checked = (separation, delay), None, None
        c_bruteforce = gap = residual = math.nan
        status = "ok"
        try:
            if self.terms is None:
                # Re J can overflow (beta ~ 1e21 with |dtau +- L| past beta):
                # terms stay None, so every row of that geometry fails alike
                self.terms = geometry_terms(self.geom, self.state)
            # a product of valid factors can still overflow: that is the row's failure
            c_a, c_b = lambda_a * self.eta, lambda_b * self.eta
            check_nonnegative("coupling", c_a)
            check_nonnegative("coupling", c_b)
            stats = statistics_from_terms(c_a, c_b, self.terms, self.j0)
            c_closed, w = capacity_and_nu_eff(stats.nu_b, stats.delta_ab, self.p, self.r_perp)
            if self.optimizer:
                result = capacity_bruteforce(ChannelParams(stats, self.phase_a, self.phase_b, self.bob))
                c_bruteforce, gap = result.c_bruteforce, result.gap
            if self.oracle:
                if self.checked is None:
                    # the residual reads no coupling: one per geometry, and
                    # a QuadratureError fails every row of it alike
                    try:
                        self.checked = oracle_residual(self.geom, self.state), "ok"
                    except QuadratureError:
                        self.checked = math.nan, "quadrature_error"
                residual, status = self.checked
        except (OverflowError, ValueError, ConsistencyError):
            return ({**_DOMAIN_ERROR_ROW, "lambda_a": lambda_a, "lambda_b": lambda_b,
                     "L": separation, "dtau": delay}, None, math.nan)
        return {"lambda_a": lambda_a, "lambda_b": lambda_b, "L": separation, "dtau": delay,
                "nu_a": stats.nu_a, "nu_b": stats.nu_b, "nu_ab_plus": stats.nu_ab_plus,
                "nu_ab_minus": stats.nu_ab_minus, "delta_ab": stats.delta_ab,
                "c_closed": c_closed, "c_bruteforce": c_bruteforce, "gap": gap,
                "oracle_residual": residual, "status": status}, stats, w


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
    """One sweep row as a column -> value mapping: run_sweep's row
    arithmetic on a one-row grid.

    Failures past input validation never raise.  An --oracle integral that
    misses its error target sets status quadrature_error and blanks only
    oracle_residual: the statistics are closed form and keep their values.
    An overflow or an out-of-domain value sets status domain_error with
    every computed column NaN.
    """
    rows = _Rows(eta_over_sigma, beta, bob, phase_a, phase_b, oracle, optimizer)
    return rows.row(lambda_a, lambda_b, separation, delay)[0]


def grid_points(cfg: SweepConfig) -> Iterator[tuple]:
    """Each row's (lambda_a, lambda_b, L, dtau, r_b), in row-major order
    (first axis outermost): an axis's values, or else the config's.  A
    value stays the same object from row to row while it does not change,
    which format_csv uses."""
    axes = {axis.name: axis.values() for axis in cfg.axes}
    order = [*axes, *(name for name in AXIS_NAMES if name not in axes)]
    lists = [axes[name] if name in axes else [getattr(cfg, _FIELD_FOR_KEY.get(name, name))]
             for name in order]
    in_place = operator.itemgetter(*map(order.index, AXIS_NAMES))
    return map(in_place, itertools.product(*lists))


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """Evaluate the whole grid in order; the rows, unformatted and unwritten.

    Bob is resolved once, unless r_b is an axis; row-major order makes
    each line of an inner coupling axis one run of a single geometry."""
    bob_axis = any(axis.name == "r_b" for axis in cfg.axes)
    bob = None if bob_axis else _resolve_bob(cfg.bob_bloch, cfg.r_b)
    rows = _Rows(cfg.eta_over_sigma, cfg.beta, bob, cfg.phase_a, cfg.phase_b, cfg.oracle,
                 cfg.optimizer)
    out = []
    for lambda_a, lambda_b, separation, delay, r_b in grid_points(cfg):
        if bob_axis:
            rows.set_bob(_resolve_bob(cfg.bob_bloch, r_b))
        out.append(rows.row(lambda_a, lambda_b, separation, delay)[0])
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# a row's numeric cells, in column order
_NUMERIC_CELLS = operator.itemgetter(*COLUMNS[:-1])


def _cells(column) -> list[str]:
    """repr(float(v)) for each v of a column; a v that is the previous
    cell's object takes that cell's string."""
    cells, last, text = [], object(), ""
    for v in column:
        if v is not last:
            last, text = v, repr(float(v))
        cells.append(text)
    return cells


def format_csv(rows: list[dict]) -> str:
    """The rows as CSV: a header, then each numeric cell as repr(float(v))
    and the status.  Each numeric column is formatted in one pass, which
    formats a run of one object once: a fixed input, or the NaN of the
    columns a row does not compute."""
    columns = map(_cells, zip(*map(_NUMERIC_CELLS, rows)))
    lines = map(",".join, zip(*columns, [row["status"] for row in rows]))
    return "\n".join([",".join(COLUMNS), *lines]) + "\n"


def _json(value, pad: str) -> str:
    """value as json.dumps(value, indent=2, allow_nan=False) writes it at
    indentation pad, except that a NaN float is null."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:
            return "null"
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str raises TypeError here
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json(doc) -> str:
    """Strict JSON for sweep rows, a point record or a selftest report.
    json.dumps would need a NaN -> null pass first; the two took 76 us on
    a point --beta 2 --oracle record and 91 us on a 3-row sweep document,
    against 40 and 48 us here (the fastest of 40 runs, 2-core Xeon, Python
    3.11), a quarter of such a cached thermal point's ~140 us in process.
    """
    return _json(doc, "") + "\n"


def format_json(rows: list[dict]) -> str:
    return to_json({"schema_version": SCHEMA_VERSION,
                    "rows": [{c: r[c] for c in COLUMNS} for r in rows]})


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
    output eigenvalues for the given Alice input, and capacity details.  A
    quadrature_error record keeps all of them, with oracle_residual NaN; a
    domain_error record carries only its status and inputs.
    """
    bob_state = QubitState(*bob)
    alice_state = QubitState(*alice)
    rows = _Rows(eta_over_sigma, beta, bob_state, phase_a, phase_b, oracle, optimizer)
    row, stats, nu_eff = rows.row(lambda_a, lambda_b, separation, delay)
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
    if row["status"] == "domain_error":
        return record
    record["field_statistics"] = {name: row[name] for name in STATISTICS_COLUMNS}
    params = ChannelParams(stats, phase_a, phase_b, bob_state)
    record["combined_coefficients"] = {
        "c_keep": 0.5 + 0.5 * params.a,
        "c_flip": 0.5 - 0.5 * params.a,
        "c_comm_imag": -0.5 * params.b,
    }
    out = apply(params, alice_state)
    p_plus, p_minus = out.eigenvalues
    record["eigenvalues"] = {"p_plus": p_plus, "p_minus": p_minus}
    capacity_block = {
        "c_closed": row["c_closed"],
        "q_ea_lower": row["c_closed"] / 2.0,
        "nu_eff": nu_eff,
    }
    if optimizer:
        capacity_block["c_bruteforce"] = row["c_bruteforce"]
        capacity_block["gap"] = row["gap"]
    record["capacity"] = capacity_block
    if oracle:
        record["oracle_residual"] = row["oracle_residual"]
    return record
