"""Config parsing, sweep output formats, exit codes, determinism."""
from __future__ import annotations

import dataclasses
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import deltachannel.field as field
import deltachannel.sweep as sweep
import deltachannel.weyl as weyl
from conftest import re_j_reference, stdlib_json
from deltachannel.capacity import Ensemble, capacity_bruteforce, holevo_chi
from deltachannel.channel import ChannelParams, QubitState, choi_matrix
from deltachannel.cli import main
from deltachannel.errors import ConfigError, ConsistencyError
from deltachannel.field import PairGeometry, SmearingSpec, assemble_statistics
from deltachannel.selftest import selftest
from deltachannel.sweep import (
    AxisSpec,
    COLUMNS,
    STATISTICS_COLUMNS,
    SweepConfig,
    evaluate_point,
    format_csv,
    format_json,
    grid_overrides,
    parse_config_text,
    point_query,
    run_sweep,
    to_json,
)

BASE_CONFIG = """\
# two-axis sweep with fixed geometry
schema_version = 1
eta_over_sigma = 1.0
lambda_a = 2.0     # overridden by the axis below
L = 6.0
dtau = 6.0
phase_a = 0.3
phase_b = 0.7
bob_bloch = 0, 0, 1
axis.lambda_a = 0.5, 2.0, 3, linear
axis.lambda_b = 0.1, 10, 2, log
format = csv
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_full():
    cfg = parse_config_text(BASE_CONFIG)
    assert cfg.separation == 6.0
    assert cfg.delay == 6.0
    assert cfg.phase_a == 0.3
    assert cfg.bob_bloch == (0.0, 0.0, 1.0)
    assert [a.name for a in cfg.axes] == ["lambda_a", "lambda_b"]
    assert cfg.axes[1].scale == "log"
    assert cfg.format == "csv"
    assert cfg.beta is None
    assert cfg.output is None


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("not a key value pair", "line 2"),
        ("unknown_key = 3", "unknown_key"),
        ("lambda_a = abc", "expected a number"),
        ("axis.lambda_a = 1, 2, 3", "min,max,count,scale"),
        ("axis.lambda_a = 1, 2, two, linear", "integer"),
        ("axis.bogus = 1, 2, 3, linear", "unknown axis"),
        ("axis.lambda_a = -1, 2, 3, log", "log spacing"),
        ("axis.lambda_a = 2, 1, 3, linear", "min <= max"),
        ("axis.lambda_a = 1, 2, 0, linear", "count"),
        ("oracle = maybe", "boolean"),
        ("bob_bloch = 1, 2", "three"),
        ("bob_bloch = 1, x, 0", "expected a number"),
        ("format = yaml", "format"),
    ],
)
def test_parse_config_rejects_bad_lines(line, fragment):
    text = f"schema_version = 1\n{line}\n"
    with pytest.raises(ConfigError, match=fragment.replace(",", ".")):
        parse_config_text(text)


def test_parse_config_requires_schema_version():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config_text("lambda_a = 1\n")
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config_text("schema_version = 7\n")


def test_parse_config_rejects_duplicates_and_extra_axes():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("schema_version = 1\nlambda_a = 1\nlambda_a = 2\n")
    text = (
        "schema_version = 1\n"
        "axis.lambda_a = 1, 2, 2, linear\n"
        "axis.lambda_b = 1, 2, 2, linear\n"
        "axis.dtau = 1, 2, 2, linear\n"
    )
    with pytest.raises(ConfigError, match="at most 2"):
        parse_config_text(text)
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(
            "schema_version = 1\n"
            "axis.lambda_a = 1, 2, 2, linear\n"
            "axis.lambda_a = 3, 4, 2, linear\n"
        )
    repeated = AxisSpec("lambda_a", 1.0, 2.0, 2, "linear")
    with pytest.raises(ConfigError, match="twice"):
        SweepConfig(axes=(repeated, repeated))


def test_sweep_config_validation():
    for eta in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="eta_over_sigma must be >= 0"):
            SweepConfig(eta_over_sigma=eta)
    with pytest.raises(ConfigError):
        SweepConfig(lambda_a=-1.0)
    with pytest.raises(ConfigError):
        SweepConfig(beta=-1.0)
    with pytest.raises(ConfigError):
        SweepConfig(r_b=0.5, bob_bloch=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        SweepConfig(r_b=1.5)


def test_axis_values_spacing():
    lin = AxisSpec("dtau", 0.0, 12.0, 5, "linear")
    assert lin.values() == [0.0, 3.0, 6.0, 9.0, 12.0]
    log = AxisSpec("lambda_a", 0.1, 1000.0, 5, "log")
    assert np.allclose(log.values(), [0.1, 1.0, 10.0, 100.0, 1000.0], rtol=1e-12)
    single = AxisSpec("r_b", 0.3, 0.9, 1, "linear")
    assert single.values() == [0.3]
    assert all(isinstance(v, float) for v in log.values())


# ---------------------------------------------------------------------------
# sweep evaluation and serialization
# ---------------------------------------------------------------------------

def test_grid_row_major_order():
    cfg = parse_config_text(BASE_CONFIG)
    points = grid_overrides(cfg)
    assert len(points) == 6
    assert points[0]["lambda_a"] == points[1]["lambda_a"] == 0.5
    assert points[0]["lambda_b"] < points[1]["lambda_b"]
    assert [p["lambda_a"] for p in points] == [0.5, 0.5, 1.25, 1.25, 2.0, 2.0]


def test_sweep_rows_match_single_point_evaluation():
    cfg = parse_config_text(BASE_CONFIG)
    rows = run_sweep(cfg)
    lone = evaluate_point(
        lambda_a=1.25, lambda_b=0.1, separation=6.0, delay=6.0,
        phase_a=0.3, phase_b=0.7,
    )
    row = rows[2]
    for column in COLUMNS:
        left, right = row[column], lone[column]
        if isinstance(left, float):
            assert repr(left) == repr(right)
        else:
            assert left == right


def test_point_query_reproduces_sweep_row():
    cfg = parse_config_text(BASE_CONFIG)
    row = run_sweep(cfg)[4]
    record = point_query(
        lambda_a=2.0, lambda_b=0.1, separation=6.0, delay=6.0,
        phase_a=0.3, phase_b=0.7,
    )
    assert record["status"] == "ok"
    assert record["capacity"]["c_closed"] == row["c_closed"]
    assert record["field_statistics"]["nu_b"] == row["nu_b"]
    assert record["field_statistics"]["delta_ab"] == row["delta_ab"]


@pytest.mark.parametrize("beta", [None, 2.0])
def test_quadrature_error_point_matches_the_sweep_row(beta):
    # point once printed only status and inputs here, though the sweep row
    # keeps its statistics and c_closed: quad misses Re J's target at L = 1000
    (row,) = run_sweep(SweepConfig(separation=1000.0, delay=0.0, beta=beta, oracle=True))
    record = point_query(1.0, 1.0, 1000.0, 0.0, beta=beta, oracle=True)
    assert row["status"] == record["status"] == "quadrature_error"
    assert record["field_statistics"] == {name: row[name] for name in STATISTICS_COLUMNS}
    assert record["capacity"]["c_closed"] == row["c_closed"]
    assert {"combined_coefficients", "eigenvalues"} <= set(record)
    assert math.isnan(record["oracle_residual"])


def test_zero_eta_sweep_row_matches_point(tmp_path, capsys):
    # a sweep config once rejected eta_over_sigma = 0, which point --eta 0
    # and a zero lambda_a accept
    out = tmp_path / "rows.json"
    cfg = write_config(tmp_path, "schema_version = 1\neta_over_sigma = 0\nformat = json\n")
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
    (row,) = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert main(["point", "--eta", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert row["status"] == record["status"] == "ok"
    assert record["field_statistics"] == {name: row[name] for name in STATISTICS_COLUMNS}
    assert row["c_closed"] == record["capacity"]["c_closed"] == 0.0


def test_point_query_runs_the_optimizer_once_inside_the_row(monkeypatch):
    cfg = dataclasses.replace(parse_config_text(BASE_CONFIG), optimizer=True)
    row = run_sweep(cfg)[4]
    calls = []

    def counted(params):
        calls.append(params)
        return capacity_bruteforce(params)

    monkeypatch.setattr(sweep, "capacity_bruteforce", counted)
    record = point_query(lambda_a=2.0, lambda_b=0.1, separation=6.0, delay=6.0,
                         phase_a=0.3, phase_b=0.7, optimizer=True)
    assert len(calls) == 1
    assert record["capacity"]["c_bruteforce"] == row["c_bruteforce"]
    assert record["capacity"]["gap"] == row["gap"]

    # a failing optimizer is the row's failure, as in a sweep, not an exception
    def failing(params):
        raise ConsistencyError("brute force exceeds the closed form")

    monkeypatch.setattr(sweep, "capacity_bruteforce", failing)
    record = point_query(lambda_a=2.0, lambda_b=0.1, separation=6.0, delay=6.0, optimizer=True)
    assert record["status"] == "domain_error"


def test_csv_format_exact():
    rows = [dict.fromkeys(COLUMNS, math.nan)]
    rows[0].update(lambda_a=0.1, lambda_b=1.0, L=6.0, dtau=0.5, status="ok")
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "0.1"
    assert cells[3] == "0.5"
    assert cells[4] == "nan"
    assert cells[-1] == "ok"
    assert text.endswith("\n")
    assert "\r" not in text


def test_json_format_nan_becomes_null():
    rows = [dict.fromkeys(COLUMNS, math.nan)]
    rows[0].update(lambda_a=0.1, lambda_b=1.0, L=6.0, dtau=0.5, status="ok")
    doc = json.loads(format_json(rows))
    assert doc["schema_version"] == 1
    assert doc["rows"][0]["nu_a"] is None
    assert doc["rows"][0]["lambda_a"] == 0.1


def test_csv_writes_library_callers_cells_as_floats():
    # an int and an np.float64 cell are written as repr(float(v))
    row = dict.fromkeys(COLUMNS, math.nan)
    row.update(lambda_a=3, lambda_b=np.float64(0.1), L=np.float64(1e-320), dtau=-0, status="ok")
    cells = format_csv([row]).splitlines()[1].split(",")
    assert cells[:4] == ["3.0", "0.1", "1e-320", "0.0"]
    assert cells[-1] == "ok" and len(cells) == len(COLUMNS)


# floats the shortest repr must get right, and NaN, written as null
JSON_FLOATS = st.one_of(
    st.floats(allow_infinity=False),
    st.sampled_from([math.nan, 0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e308,
                     1.7976931348623157e308, 0.30000000000000004, 1 / 3, -2.718281828459045]),
)
JSON_LEAVES = st.one_of(
    JSON_FLOATS,
    JSON_FLOATS.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t", "caf\u00e9", "\U0001f600", ""]),
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=30,
)


@given(JSON_DOCS)
@example({})
@example([])
@example({"rows": [], "a": {"b": ()}, "\u00e9\"\\": [math.nan, -0.0, 5e-324]})
def test_to_json_writes_the_stdlib_bytes(doc):
    assert to_json(doc) == stdlib_json(doc)


def test_to_json_writes_library_documents_as_the_stdlib_does():
    rows = run_sweep(parse_config_text(BASE_CONFIG))
    assert format_json(rows) == stdlib_json({"schema_version": 1,
                                              "rows": [{c: r[c] for c in COLUMNS} for r in rows]})
    for record in (point_query(1.0, 1.0, 6.0, 6.0, beta=2.0, oracle=True, optimizer=True),
                   point_query(1e300, 1e300, 6.0, 6.0), selftest(only=["gamma_identities"])):
        assert to_json(record) == stdlib_json(record)


@pytest.mark.parametrize("value", [math.inf, -math.inf, np.float64(math.inf)])
def test_to_json_refuses_infinities(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        to_json({"rows": [1.0, value]})


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_to_json_takes_only_str_keys(key):
    # the stdlib would write these keys as strings; no library document has one
    with pytest.raises(TypeError):
        to_json({"inputs": {key: 0.0}})


def test_sweep_survives_quadrature_failure(monkeypatch):
    def bad_quad(func, a, b, **kwargs):
        return 0.5, 1.0, {}

    def bad_trapezoid(sep, delay):
        return 0.5, 1.0

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle calls no mpmath.quad")

    monkeypatch.setattr(field, "quad", bad_quad)
    monkeypatch.setattr(field, "_commutator_trapezoid", bad_trapezoid)
    monkeypatch.setattr(mpmath, "quad", refuse)
    # statistics never integrate, so only the --oracle integral can fail
    text = "schema_version = 1\nbeta = 2\naxis.lambda_a = 1, 2, 2, linear\n"
    rows = run_sweep(dataclasses.replace(parse_config_text(text), oracle=True))
    plain = run_sweep(parse_config_text(text))
    assert len(rows) == 2
    for row, expected in zip(rows, plain):
        assert row["status"] == "quadrature_error"
        assert math.isnan(row["oracle_residual"])
        assert row["lambda_a"] in (1.0, 2.0)
        for column in ("nu_a", "nu_b", "nu_ab_plus", "nu_ab_minus", "delta_ab", "c_closed"):
            assert math.isfinite(row[column])
            assert row[column] == expected[column]


def test_vacuum_sweep_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a vacuum sweep without --oracle must not integrate")

    monkeypatch.setattr(field, "quad", refuse)
    monkeypatch.setattr(field, "_commutator_trapezoid", refuse)
    monkeypatch.setattr(mpmath, "quad", refuse)
    rows = run_sweep(parse_config_text(BASE_CONFIG))
    assert len(rows) == 6
    assert all(row["status"] == "ok" for row in rows)


def test_thermal_sweep_needs_no_quadrature(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a thermal sweep without --oracle must not integrate")

    monkeypatch.setattr(field, "quad", refuse)
    monkeypatch.setattr(field, "_commutator_trapezoid", refuse)
    monkeypatch.setattr(mpmath, "quad", refuse)
    # (0, 8) is a geometry whose Im J cancels in float64
    text = BASE_CONFIG.replace("L = 6.0", "L = 0.0").replace("dtau = 6.0", "dtau = 8.0")
    rows = run_sweep(parse_config_text(text + "beta = 2\n"))
    assert len(rows) == 6
    assert all(row["status"] == "ok" for row in rows)
    assert main(["point", "--beta", "2", "--L", "0", "--dtau", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_thermal_oracle_row_integrates_each_geometry_once(monkeypatch):
    calls = []
    integral = field._radial_integral
    trapezoid = field._commutator_trapezoid
    trapezoids = []

    def counted(L, dtau, beta):
        calls.append((L, dtau, beta))
        return integral(L, dtau, beta)

    def counted_trapezoid(L, dtau):
        trapezoids.append((L, dtau))
        return trapezoid(L, dtau)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle's Im J is the trapezoid rule's, not mpmath.quad's")

    monkeypatch.setattr(field, "_radial_integral", counted)
    monkeypatch.setattr(field, "_commutator_trapezoid", counted_trapezoid)
    monkeypatch.setattr(mpmath, "quad", refuse)
    # the cross integral's Im J, the commutator part, is state independent,
    # so the trapezoid rule takes no beta; J(0, 0, 2) has dtau = 0 and no Im J
    row = evaluate_point(10.0, 1.0, 0.0, 8.0, beta=2.0, oracle=True)
    assert row["status"] == "ok"
    assert row["oracle_residual"] < 1e-6
    assert calls == [(0.0, 8.0, 2.0), (0.0, 0.0, 2.0)]
    assert trapezoids == [(0.0, 8.0)]
    # J(0, 0, 2) is integrated once per state: a second row integrates
    # only its own geometry
    calls.clear()
    trapezoids.clear()
    row = evaluate_point(10.0, 1.0, 6.0, 6.0, beta=2.0, oracle=True)
    assert row["status"] == "ok"
    assert calls == [(6.0, 6.0, 2.0)]
    assert trapezoids == [(6.0, 6.0)]


def test_thermal_oracle_row_sums_its_series_once(monkeypatch):
    # the residual reuses the statistics' Re J, and J(0, 0, 2) stays cached
    # beside each row's own Re J: one series per row
    series = field.kms_sine_transform
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return series(*args, **kwargs)

    field.cross_real_closed(0.0, 0.0, 2.0)
    monkeypatch.setattr(field, "kms_sine_transform", counted)
    for sep, delay in ((6.0, 6.0), (4.0, 8.0)):
        calls.clear()
        row = evaluate_point(10.0, 1.0, sep, delay, beta=2.0, oracle=True)
        assert row["status"] == "ok"
        assert calls == [(2.0,)]


def _counted_integrals(monkeypatch) -> list:
    calls = []
    integral = field._radial_integral

    def counted(L, dtau, beta):
        calls.append((L, dtau, beta))
        return integral(L, dtau, beta)

    monkeypatch.setattr(field, "_radial_integral", counted)
    return calls


ORACLE_COUPLING_CONFIG = """\
schema_version = 1
L = {L}
dtau = {dtau}
axis.lambda_a = 0.1, 1000, 4, log
axis.lambda_b = 0.1, 1000, 4, log
oracle = true
"""


@pytest.mark.parametrize("beta", [None, 2.0])
def test_oracle_coupling_sweep_integrates_its_geometry_once(monkeypatch, beta):
    # the couplings are a prefactor: 16 rows share the cross J and J(0, 0, beta)
    calls = _counted_integrals(monkeypatch)
    text = ORACLE_COUPLING_CONFIG.format(L=6.0, dtau=6.0) + (f"beta = {beta}\n" if beta else "")
    rows = run_sweep(parse_config_text(text))
    assert len(rows) == 16
    assert all(row["status"] == "ok" and row["oracle_residual"] < 1e-6 for row in rows)
    assert calls == [(6.0, 6.0, beta), (0.0, 0.0, beta)]
    # a later point query of a row integrates nothing and gives its bits
    calls.clear()
    row = rows[6]
    record = point_query(row["lambda_a"], row["lambda_b"], 6.0, 6.0, beta=beta, oracle=True)
    assert calls == []
    assert record["status"] == "ok"
    assert record["oracle_residual"].hex() == row["oracle_residual"].hex()
    assert record["capacity"]["c_closed"].hex() == row["c_closed"].hex()
    for name in STATISTICS_COLUMNS:
        assert record["field_statistics"][name].hex() == row[name].hex()


@pytest.mark.parametrize("beta", [None, 2.0])
def test_geometry_axis_inside_a_coupling_axis_integrates_each_geometry_once(monkeypatch, beta):
    # the last axis runs innermost, so each dtau comes back after the other
    # two: only a cache that holds all three integrates each once
    calls = _counted_integrals(monkeypatch)
    text = ("schema_version = 1\nL = 6.0\naxis.lambda_a = 0.1, 1000, 3, log\n"
            "axis.dtau = 2, 6, 3, linear\noracle = true\n") + (f"beta = {beta}\n" if beta else "")
    rows = run_sweep(parse_config_text(text))
    assert [row["dtau"] for row in rows] == [2.0, 4.0, 6.0] * 3
    assert all(row["status"] == "ok" for row in rows)
    assert calls == [(6.0, 2.0, beta), (0.0, 0.0, beta), (6.0, 4.0, beta), (6.0, 6.0, beta)]
    # the closed form too: its three Re J and J(0, 0, beta), once each
    assert field.cross_real_closed.cache_info().misses == 4


@pytest.mark.parametrize("beta", [None, 2.0])
def test_oracle_failure_is_integrated_once_per_geometry(monkeypatch, beta):
    # quad misses Re J's target at (1000, 1): the cross integral fails once,
    # each later row raises the remembered failure, and J(0, 0, beta) is
    # never asked for
    calls = _counted_integrals(monkeypatch)
    text = ORACLE_COUPLING_CONFIG.format(L=1000.0, dtau=1.0) + (f"beta = {beta}\n" if beta else "")
    rows = run_sweep(parse_config_text(text))
    assert len(rows) == 16
    assert all(row["status"] == "quadrature_error" for row in rows)
    assert all(math.isnan(row["oracle_residual"]) for row in rows)
    assert calls == [(1000.0, 1.0, beta)]
    # each raise is a new error with the first one's message and estimate
    f = SmearingSpec(coupling=1.0)
    errors = []
    for _ in range(2):
        with pytest.raises(field.QuadratureError) as excinfo:
            field.wightman_cross_quadrature(f, f, PairGeometry(1000.0, 1.0), field.FieldStateSpec(beta))
        errors.append(excinfo.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1]) and "L=1000.0, dtau=1.0" in str(errors[0])
    assert errors[0].estimate == errors[1].estimate > 0.0
    assert calls == [(1000.0, 1.0, beta)]


def test_matsubara_past_the_float_range_warns_nothing():
    # at beta = 5e-324 every Matsubara frequency is inf, and so is |x| at
    # L = dtau = 1.7e308: inf - inf once leaked a RuntimeWarning, which
    # python -W error raised out of the row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = evaluate_point(700.0, 6.0, 1.7e308, 1.7e308, beta=5e-324)
    assert row["status"] == "domain_error"


@pytest.mark.parametrize("beta", ["5e-324", "2e-308"])
def test_subnormal_beta_is_a_quiet_domain_error(beta, capsys):
    # 2 pi / beta overflows: the series' NaN or inf once leaked numpy
    # RuntimeWarnings to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["point", "--beta", beta]) == 0
        record = json.loads(capsys.readouterr().out)
        rows = [evaluate_point(1.0, 1.0, sep, delay, beta=float(beta))
                for sep, delay in ((0.0, 0.0), (0.01, 3.0), (30.0, 0.0), (1e20, 6.0))]
    assert [str(w.message) for w in caught] == []
    assert record["status"] == "domain_error"
    assert all(row["status"] == "domain_error" for row in rows)
    assert capsys.readouterr().err == ""


def test_thermal_row_at_large_separation_is_typed():
    # quad warns at L = 1000; the row once raised ValueError and ended the
    # sweep, then was quadrature_error; the closed form needs no quadrature
    for delay in (0.0, 1.0):
        row = evaluate_point(1.0, 1.0, 1000.0, delay, beta=2.0)
        assert row["status"] == "ok"
        assert row["L"] == 1000.0
        # far from the light cone Re J is pi / (2 beta L) (1 + sign(L - |dtau|))
        n = 1.0 / (4.0 * math.pi**2)
        j0 = field.cross_real_closed(0.0, 0.0, 2.0)
        re_w = n * math.pi / 2000.0
        assert np.isclose(row["nu_ab_plus"], math.exp(-2.0 * (2.0 * n * j0 + 2.0 * re_w)), rtol=1e-14)


@pytest.mark.parametrize("sep, delay, beta",
                         [(1e12, -1e12, 1e6), (1e13, -1e13, 3e6), (1e300, -1e300, 1e8)])
def test_thermal_row_far_out_on_the_light_cone_sums_few_terms(monkeypatch, sep, delay, beta):
    # x = dtau + L is 0 and x = dtau - L is huge: sized for both at once, one
    # series once took about 3.18 beta Matsubara terms (0.5 s and 298 MB at
    # beta = 1e6, a MemoryError at 1e8); each argument now takes its own route
    terms = []
    for name, position in (("_matsubara", 4), ("_images", 2)):
        def counted(*args, _series=getattr(field, name), _position=position):
            terms.append(args[_position])
            return _series(*args)
        monkeypatch.setattr(field, name, counted)
    field.cross_real_closed.cache_clear()
    row = evaluate_point(1.0, 1.0, sep, delay, beta=beta)
    assert row["status"] == "ok"
    assert terms and max(terms) <= 10**4


# lambda = (1, 1) and (L, dtau) = (0.5, 1.5).  c_closed was once the tuned
# channel's 0.00449 for both Bob states: (1, 0, 0) at phase_b = 0 lies on his
# flip axis, a replacement channel of capacity 0, and (0.6, 0, 0.8) at
# phase_b = 0.3 has c_bruteforce 0.00330
@pytest.mark.parametrize("bob, phase_b", [("1,0,0", "0"), ("0.6,0,0.8", "0.3")])
def test_untuned_bob_rows_report_their_own_channel_capacity(tmp_path, capsys, bob, phase_b):
    assert main(["point", "--lambda-a", "1", "--lambda-b", "1", "--L", "0.5", "--dtau", "1.5",
                 "--bob", bob, "--phase-b", phase_b, "--optimize"]) == 0
    capacity = json.loads(capsys.readouterr().out)["capacity"]
    cfg = tmp_path / "row.cfg"
    cfg.write_text(f"schema_version = 1\nL = 0.5\ndtau = 1.5\nbob_bloch = {bob}\n"
                   f"phase_b = {phase_b}\noptimizer = true\nformat = json\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["c_closed"] == capacity["c_closed"] == 2.0 * capacity["q_ea_lower"]
    for record in (capacity, row):
        assert abs(record["c_closed"] - record["c_bruteforce"]) <= 1e-12
    if bob == "1,0,0":
        assert capacity["c_closed"] == capacity["q_ea_lower"] == 0.0


def test_vacuum_row_once_lost_to_quadrature_is_ok():
    # the radial quadrature of Re J fails its error target here; the closed
    # form does not need it
    sep, delay = 214.20875074641043, -0.11863217375195079
    row = evaluate_point(1.0, 1.0, sep, delay)
    assert row["status"] == "ok"
    re_j = re_j_reference(sep, delay)
    with mpmath.workdps(50):
        n = 1 / (4 * mpmath.pi**2)
        plus = float(mpmath.exp(-2 * (2 * n + 2 * n * re_j)))
        minus = float(mpmath.exp(-2 * (2 * n - 2 * n * re_j)))
        nu = float(mpmath.exp(-2 * n))
    assert np.isclose(row["nu_ab_plus"], plus, rtol=1e-14, atol=0.0)
    assert np.isclose(row["nu_ab_minus"], minus, rtol=1e-14, atol=0.0)
    assert np.isclose(row["nu_b"], nu, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("lambda_b", [1e160])
def test_overflowing_row_is_a_domain_error(lambda_b):
    # the prefactor lambda_a lambda_b / (4 pi^2) overflows, and with it
    # delta_ab: no limit is clean, and the row is typed instead of raising
    row = evaluate_point(1e160, lambda_b, 6.0, 6.0)
    assert row["status"] == "domain_error"
    assert (row["lambda_a"], row["lambda_b"], row["L"], row["dtau"]) == (1e160, lambda_b, 6.0, 6.0)
    assert all(math.isnan(row[c]) for c in COLUMNS[4:-1])


@pytest.mark.parametrize("lambda_a", [1e155, 1e160, 1e300])
@pytest.mark.parametrize("beta", [None, 2.0])
def test_coupling_past_overflow_takes_its_limit(lambda_a, beta):
    # coupling**2 overflows in norm_sq_closed past ~1.3e154; the norm is
    # then inf and nu_a is 0.0, as it already was at 1.3e154
    row = evaluate_point(lambda_a, 1.0, 6.0, 6.0, beta=beta)
    below = evaluate_point(1.3e154, 1.0, 6.0, 6.0, beta=beta)
    assert row["status"] == below["status"] == "ok"
    assert row["nu_a"] == row["nu_ab_plus"] == row["nu_ab_minus"] == 0.0
    assert below["nu_a"] == below["nu_ab_plus"] == below["nu_ab_minus"] == 0.0
    assert row["nu_b"] == below["nu_b"]
    assert math.isfinite(row["delta_ab"]) and math.isfinite(row["c_closed"])
    # both norm routes overflow to inf there, which the oracle counts as agreement
    checked = evaluate_point(lambda_a, 1.0, 6.0, 6.0, beta=beta, oracle=True)
    assert checked["status"] == "ok"
    assert 0.0 <= checked["oracle_residual"] < 1e-12


def test_sweep_keeps_its_other_rows_past_a_domain_error(tmp_path):
    rows_with = tmp_path / "with.csv"
    rows_without = tmp_path / "without.csv"
    with_bad = write_config(tmp_path, "schema_version = 1\nlambda_b = 1e160\naxis.lambda_a = 1, 1e160, 3, log\n")
    assert main(["sweep", "--config", with_bad, "--output", str(rows_with)]) == 0
    without_bad = write_config(tmp_path, "schema_version = 1\nlambda_b = 1e160\naxis.lambda_a = 1, 1e80, 2, log\n")
    assert main(["sweep", "--config", without_bad, "--output", str(rows_without)]) == 0
    lines = rows_with.read_text(encoding="utf-8").splitlines()
    assert lines[:3] == rows_without.read_text(encoding="utf-8").splitlines()
    assert lines[3].startswith("1e+160,") and lines[3].endswith(",domain_error")


def test_overflowing_coupling_product_is_the_rows_failure(tmp_path, capsys):
    # eta_over_sigma * lambda_a overflows to inf in one row; the sweep once
    # stopped with exit code 2 before writing any row
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, "schema_version = 1\neta_over_sigma = 1e10\naxis.lambda_a = 1, 1e300, 2, log\n")
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
    header, first, second = out.read_text(encoding="utf-8").splitlines()
    assert first.startswith("1.0,") and first.endswith(",ok")
    assert second.startswith("1e+300,") and second.endswith(",domain_error")
    # a point whose inputs are invalid on their own is still a usage error
    for argv in (["--lambda-a", "-1"], ["--lambda-b", "inf"], ["--eta", "-1", "--lambda-a", "0"]):
        assert main(["point", *argv]) == 2
        assert "must be finite and >= 0" in capsys.readouterr().err
    assert main(["point", "--phase-b", "inf"]) == 2
    assert "phases must be finite" in capsys.readouterr().err
    assert main(["point", "--eta", "1e10", "--lambda-a", "1e300"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "domain_error"


def test_failed_oracle_keeps_the_row_statistics():
    # quad misses Re J's error target at L = 1000, and Re J has no other
    # route; the closed-form statistics and capacity stand, only the
    # residual is lost
    row = evaluate_point(1.0, 1.0, 1000.0, 0.0, oracle=True)
    plain = evaluate_point(1.0, 1.0, 1000.0, 0.0)
    assert row["status"] == "quadrature_error"
    for column in ("nu_a", "nu_b", "nu_ab_plus", "nu_ab_minus", "delta_ab", "c_closed"):
        assert math.isfinite(row[column])
        assert row[column] == plain[column]
    assert math.isnan(row["oracle_residual"])


@pytest.mark.parametrize("delay", [1.0, 8.0, 12.0])
def test_oracle_past_the_node_cap_is_a_quadrature_error(monkeypatch, delay):
    # at L = 1e9 the commutator's trapezoid rule would need about 5e9 nodes,
    # so it refuses without integrating; a coarser rule once returned an
    # aliased Im J with a small error estimate, and the row was ok with
    # oracle_residual 0.03 to 24
    def refuse(*args, **kwargs):
        raise AssertionError("past the node cap the rule must not integrate")

    monkeypatch.setattr(mpmath, "exp", refuse)
    row = evaluate_point(10.0, 1.0, 1e9, delay, oracle=True)
    plain = evaluate_point(10.0, 1.0, 1e9, delay)
    assert row["status"] == "quadrature_error"
    assert math.isnan(row["oracle_residual"])
    assert all(row[c] == plain[c] for c in ("nu_ab_plus", "nu_ab_minus", "delta_ab", "c_closed"))


@pytest.mark.parametrize("beta", [None, 2.0])
def test_oracle_where_the_integrand_overflows_is_a_quadrature_error(monkeypatch, beta):
    # at L = dtau = 1e308 the integrand's k L is inf, and sin(inf) once raised
    # ValueError inside quad: the row was domain_error with every column NaN
    def refuse(*args, **kwargs):
        raise AssertionError("an integrand that cannot be evaluated must not be integrated")

    monkeypatch.setattr(field, "quad", refuse)
    row = evaluate_point(1.0, 1.0, 1e308, 1e308, beta=beta, oracle=True)
    plain = evaluate_point(1.0, 1.0, 1e308, 1e308, beta=beta)
    assert plain["status"] == "ok"
    assert row["status"] == "quadrature_error"
    assert math.isnan(row["oracle_residual"])
    assert all(row[c] == plain[c] for c in ("nu_a", "nu_b", "nu_ab_plus", "nu_ab_minus",
                                            "delta_ab", "c_closed"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [None, 2.0])
@pytest.mark.parametrize("sep, delay", [(6.0, 1e300), (1e300, 6.0)])
def test_rows_far_outside_the_light_cone_take_their_limit(sep, delay, beta):
    # the commutator's (a - L)^2 overflowed, and the thermal Re J came out
    # NaN: both made the row domain_error
    row = evaluate_point(1.0, 1.0, sep, delay, beta=beta)
    assert row["status"] == "ok"
    assert row["delta_ab"] == 0.0


@pytest.mark.parametrize("beta", [None, 2.0])
@pytest.mark.parametrize("sep, delay", [(60.0, 1.0), (100.0, 1.0), (300.0, 50.0), (700.0, 8.0)])
def test_oracle_is_ok_at_large_separation(sep, delay, beta):
    # these rows were quadrature_error: quad meets Re J's target, and Im J,
    # which cancels in float64 here, is the trapezoid rule's
    row = evaluate_point(10.0, 1.0, sep, delay, beta=beta, oracle=True)
    assert row["status"] == "ok"
    assert row["oracle_residual"] < 1e-6


def test_library_paths_do_not_need_the_gamma_route(monkeypatch, tmp_path, capsys):
    def refuse(stats):
        raise AssertionError("the correlator route is for verification only")

    # _raw_gammas too, so that a copy of the function bound elsewhere refuses
    monkeypatch.setattr(weyl, "gammas_from_statistics", refuse)
    monkeypatch.setattr(weyl, "_raw_gammas", refuse)
    cfg = write_config(tmp_path, "schema_version = 1\nlambda_a = 10\n")
    assert main(["sweep", "--config", cfg, "--optimize"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",ok")
    assert main(["point", "--lambda-a", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    stats = assemble_statistics(SmearingSpec(coupling=10.0), SmearingSpec(coupling=1.0),
                                PairGeometry(6.0, 6.0))
    params = ChannelParams(stats, 0.3, 0.7, QubitState(0.0, 0.0, 1.0))
    plus, minus = QubitState(1.0, 0.0, 0.0), QubitState(-1.0, 0.0, 0.0)
    assert holevo_chi(params, Ensemble(((0.5, plus), (0.5, minus)))) > 0.0
    assert choi_matrix(params).shape == (4, 4)


def test_zero_coupling_row_has_zero_capacity():
    row = evaluate_point(lambda_a=0.0, lambda_b=0.0, separation=6.0, delay=6.0)
    assert row["status"] == "ok"
    assert row["c_closed"] == 0.0
    assert row["delta_ab"] == 0.0


def test_oracle_residual_column():
    row = evaluate_point(lambda_a=1.0, lambda_b=1.0, separation=6.0, delay=6.0,
                         oracle=True)
    assert row["oracle_residual"] < 1e-6
    thermal_row = evaluate_point(lambda_a=1.0, lambda_b=1.0, separation=6.0,
                                 delay=6.0, beta=1.0, oracle=True)
    assert thermal_row["oracle_residual"] < 1e-6
    off = evaluate_point(lambda_a=1.0, lambda_b=1.0, separation=6.0, delay=6.0)
    assert math.isnan(off["oracle_residual"])


def test_undefined_oracle_term_makes_the_residual_nan(monkeypatch):
    # the builtin max once dropped a NaN term and reported the others
    monkeypatch.setattr(field, "self_norm_j", lambda state: math.nan)
    for beta in (None, 2.0):
        row = evaluate_point(10.0, 1.0, 6.0, 6.0, beta=beta, oracle=True)
        assert math.isnan(row["oracle_residual"])


def test_rows_and_selftest_share_one_residual(monkeypatch):
    # a row's oracle_residual and selftest's grid are scored by the one rule
    monkeypatch.setattr(field, "residual", lambda *args: math.nan)
    row = evaluate_point(1.0, 1.0, 6.0, 6.0, oracle=True)
    assert math.isnan(row["oracle_residual"])
    (check,) = selftest(only=["field_oracle_grid"])["checks"]
    assert not check["passed"]
    assert math.isnan(check["detail"]["max_residual"])


@pytest.mark.parametrize("separation", [5e-324, 1e-20])
def test_small_separation_row_is_ok_and_agrees_with_oracle(separation):
    # a subnormal L once raised "delta_ab must be finite" and aborted the
    # sweep; L = 1e-20 reported delta_ab = 0.0 against the quadrature
    row = evaluate_point(1.0, 1.0, separation, 1.0, oracle=True)
    assert row["status"] == "ok"
    assert math.isfinite(row["delta_ab"]) and row["delta_ab"] != 0.0
    assert row["oracle_residual"] < 1e-6


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------

def write_config(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, BASE_CONFIG)
    code = main(["sweep", "--config", cfg, "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("lambda_a,")
    assert len(lines) == 7


def test_cli_sweep_stdout_json(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    code = main(["sweep", "--config", cfg, "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 6


def test_cli_point_json_roundtrip(capsys):
    code = main([
        "point", "--lambda-a", "1", "--lambda-b", "1",
        "--L", "6", "--dtau", "6", "--oracle",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert np.isclose(record["field_statistics"]["delta_ab"], 5.2911e-3,
                      rtol=1e-4, atol=0.0)
    assert record["oracle_residual"] < 1e-6


def test_cli_point_zero_couplings(capsys):
    code = main(["point", "--lambda-a", "0", "--lambda-b", "0"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["capacity"]["c_closed"] == 0.0


def test_cli_point_thermal_lowers_nu_b(capsys):
    code = main(["point", "--beta", "1.0"])
    assert code == 0
    warm = json.loads(capsys.readouterr().out)
    code = main(["point"])
    assert code == 0
    cold = json.loads(capsys.readouterr().out)
    assert warm["field_statistics"]["nu_b"] < cold["field_statistics"]["nu_b"]


def test_cli_exit_codes(tmp_path, capsys):
    missing_cfg = str(tmp_path / "absent.cfg")
    assert main(["sweep", "--config", missing_cfg]) == 2
    assert "error" in capsys.readouterr().err

    bad = write_config(tmp_path, "schema_version = 1\nbogus = 1\n")
    assert main(["sweep", "--config", bad]) == 2
    assert "bogus" in capsys.readouterr().err

    good = write_config(tmp_path, BASE_CONFIG)
    missing_dir = str(tmp_path / "no_such_dir" / "out.csv")
    assert main(["sweep", "--config", good, "--output", missing_dir]) == 2
    capsys.readouterr()

    # parent exists but the target is a directory: I/O failure, not config
    assert main(["sweep", "--config", good, "--output", str(tmp_path)]) == 3
    capsys.readouterr()

    assert main(["point", "--bob", "1,2"]) == 2
    err = capsys.readouterr().err
    assert "--bob" in err and "three" in err
    assert main(["point", "--alice", "1,x,0"]) == 2
    err = capsys.readouterr().err
    assert "--alice" in err and "number" in err
    assert main(["point", "--bob", "0.9,0.9,0.9"]) == 2
    capsys.readouterr()

    assert main(["selftest", "--output", missing_dir]) == 2
    capsys.readouterr()

    # an empty output path is a usage error, found before any row is computed
    empty_key = tmp_path / "empty_output.cfg"
    empty_key.write_text(BASE_CONFIG + "output =\n", encoding="utf-8")
    for argv in (["sweep", "--config", good, "--output", ""], ["sweep", "--config", str(empty_key)],
                 ["point", "--output", ""], ["selftest", "--output", ""]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "output path is empty" in captured.err and captured.out == "", argv

    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_cli_usage_errors_show_the_command_given(capsys):
    # a command's flags are read by its own parser, which names itself
    assert main(["point", "--bogus", "1"]) == 2
    err = capsys.readouterr().err
    assert "--bogus" in err and err.startswith("usage: deltachannel point ")
    for argv in ([], ["nosuch"], ["--bogus"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("usage: deltachannel [-h]"), argv
    assert main(["--help"]) == 0
    assert "{sweep,point,selftest}" in capsys.readouterr().out
    assert main(["point", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: deltachannel point ")


def test_cli_reads_sys_argv_without_an_argv(monkeypatch, capsys):
    assert main(["point", "--lambda-a", "0.5"]) == 0
    given = capsys.readouterr().out
    monkeypatch.setattr("sys.argv", ["deltachannel", "point", "--lambda-a", "0.5"])
    assert main() == 0
    assert capsys.readouterr().out == given
    monkeypatch.setattr("sys.argv", ["deltachannel", "point", "--bogus"])
    assert main() == 2
    assert capsys.readouterr().err.startswith("usage: deltachannel point ")


def test_cli_sweep_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    # a leading BOM once made line 1 an unknown key '\ufeffschema_version'
    rows = []
    for name, encoding in (("plain.cfg", "utf-8"), ("bom.cfg", "utf-8-sig")):
        path = tmp_path / name
        path.write_text(BASE_CONFIG, encoding=encoding)
        assert main(["sweep", "--config", str(path)]) == 0
        rows.append(capsys.readouterr().out)
    assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    assert rows[0] == rows[1]
    assert len(rows[0].splitlines()) == 7


def test_cli_sweep_flags_override_config_keys(tmp_path, capsys):
    keyed, flagged = tmp_path / "keyed.csv", tmp_path / "flagged.json"
    cfg = write_config(tmp_path, f"schema_version = 1\noutput = {keyed}\nformat = csv\n"
                                 "oracle = true\noptimizer = true\n")
    # with no flag given, the config's output, oracle and optimizer hold
    assert main(["sweep", "--config", cfg]) == 0
    assert capsys.readouterr().out == ""
    header, row = keyed.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["oracle_residual"] != "nan"
    assert cells["c_bruteforce"] != "nan"
    # --output and --format override both keys
    keyed.unlink()
    assert main(["sweep", "--config", cfg, "--output", str(flagged), "--format", "json"]) == 0
    assert capsys.readouterr().out == ""
    assert not keyed.exists()
    (doc_row,) = json.loads(flagged.read_text(encoding="utf-8"))["rows"]
    assert doc_row["oracle_residual"] is not None
    assert doc_row["c_bruteforce"] is not None


def test_cli_selftest_single_check_passes(capsys):
    code = main(["selftest", "--only", "gamma_identities"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["gamma_identities"]


def test_cli_selftest_unknown_check(capsys):
    assert main(["selftest", "--only", "nonsense"]) == 2
    assert "unknown selftest checks" in capsys.readouterr().err


def test_cli_selftest_catches_corrupted_formula(monkeypatch, capsys):
    # negative control for the whole reporting chain: corrupt a correlator,
    # the selftest must fail and the process must exit nonzero
    original = weyl._raw_gammas

    def corrupted(stats):
        g_cccc, g_ssss, g_cssc, g_sccs, g_scsc, g_sscc = original(stats)
        return g_cccc, g_ssss, g_sccs, g_cssc, g_scsc, g_sscc

    monkeypatch.setattr(weyl, "_raw_gammas", corrupted)
    code = main(["selftest", "--only", "gamma_identities"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["passed"] is False
    assert report["checks"][0]["passed"] is False


@pytest.mark.parametrize("axis", [
    "-1, 1, 3, linear",  # once exited 0, flipping Bob's state at r_b = -1
    "0.5, 2, 3, linear",  # once stopped mid-sweep: the Bloch vector left the unit ball
])
def test_cli_sweep_rejects_an_r_b_axis_outside_the_unit_interval(tmp_path, capsys, monkeypatch, axis):
    def no_row(*args, **kwargs):
        raise AssertionError("a row ran before the config was rejected")

    monkeypatch.setattr(sweep, "evaluate_point", no_row)
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, f"schema_version = 1\naxis.r_b = {axis}\n")
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 2
    assert "axis r_b must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bob, unit", [
    ("1e-200, 0, 0", "1, 0, 0"),  # once a ZeroDivisionError traceback: the square underflowed
    ("1e200, 1e200, 0", "1, 1, 0"),  # once Bob (0, 0, 0) with status ok: the square overflowed
])
def test_cli_sweep_scales_a_bob_direction_whose_square_leaves_the_float_range(tmp_path, capsys, bob, unit):
    rows = []
    for direction in (bob, unit):
        cfg = write_config(tmp_path, f"schema_version = 1\nlambda_a = 10\nphase_b = 0.7\n"
                                     f"bob_bloch = {direction}\nr_b = 0.5\nformat = json\n")
        assert main(["sweep", "--config", cfg]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        rows.append(row)
    scaled, reference = rows
    assert scaled["status"] == "ok"
    assert reference["c_closed"] > 0.0
    assert abs(scaled["c_closed"] - reference["c_closed"]) <= 1e-15
