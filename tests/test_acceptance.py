"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; each test also prints its measured margin.
"""
from __future__ import annotations

import json
import math
import random
import time

import numpy as np

import deltachannel.field as field
from deltachannel.capacity import capacity_bruteforce, capacity_closed_form
from deltachannel.channel import ChannelParams, QubitState, choi_matrix
from deltachannel.cli import main
from deltachannel.field import (
    PairGeometry,
    _norm_sq,
    assemble_statistics,
    commutator_closed,
)
from deltachannel.selftest import (
    FIELD_TOL,
    GRID_DELAYS,
    GRID_SEPARATIONS,
    IDENTITY_TOL,
    PSD_TOL,
    ROUTE_TOL,
    SAMPLES,
    THERMAL_BETAS,
    THERMAL_GEOMETRIES,
    optimizer_gate,
    random_bloch,
    random_statistics,
    selftest,
)
from deltachannel.sweep import parse_config_text, run_sweep

PPT_TOL = 1e-10
LAMBDA_A_STAR = 494.788589023863  # solves 2 * delta_ab = pi/2 at lambda_b = 0.3
C_CLOSED_STAR = 0.976751352600931  # frozen independent evaluation at that point

FIG1_CONFIG = """\
schema_version = 1
eta_over_sigma = 1.0
L = 6.0
dtau = 6.0
bob_bloch = 0, 0, 1
axis.lambda_a = 0.1, 1000, 64, log
axis.lambda_b = 0.1, 1000, 64, log
format = csv
"""

# --oracle at 9 geometries: (0, 0), 6 of field_oracle_grid's 16 vacuum
# geometries, and at beta = 2 its thermal (6, 6)
ORACLE_GRID_CONFIG = """\
schema_version = 1
L = 6.0
dtau = 6.0
axis.L = 0, 6, 3, linear
axis.dtau = 0, 6, 3, linear
oracle = true
"""


def _registry_detail(name: str) -> dict:
    """Run one check of the selftest registry and return its detail."""
    (check,) = selftest(only=[name])["checks"]
    assert check["passed"], check["detail"]
    return check["detail"]


def _star_params() -> ChannelParams:
    stats = assemble_statistics(LAMBDA_A_STAR, 0.3, PairGeometry(6.0, 6.0))
    return ChannelParams(stats=stats, phase_a=0.0, phase_b=0.0,
                         bob_initial=QubitState(0.0, 0.0, 1.0))


def test_criterion_01_closed_form_vs_quadrature_grid(monkeypatch):
    calls = []
    integral = field._radial_integral

    def counted(L, dtau, beta):
        calls.append((L, dtau, beta))
        return integral(L, dtau, beta)

    monkeypatch.setattr(field, "_radial_integral", counted)
    started = time.perf_counter()
    detail = _registry_detail("field_oracle_grid")
    elapsed = time.perf_counter() - started
    assert detail["points"] == len(GRID_SEPARATIONS) * len(GRID_DELAYS)
    # J(0, 0) once, then each of the 16 geometries once
    assert calls[0] == (0.0, 0.0, None)
    assert len(set(calls[:17])) == 17 and all(beta is None for *_, beta in calls[:17])
    # then per beta J(0, 0, beta) and each thermal geometry once
    thermal = len(THERMAL_BETAS) * (1 + len(THERMAL_GEOMETRIES))
    assert len(calls) == 17 + thermal == len(set(calls))
    assert detail["thermal_points"] == len(THERMAL_BETAS) * len(THERMAL_GEOMETRIES)
    assert detail["max_residual"] < FIELD_TOL
    assert detail["route_max_difference"] <= ROUTE_TOL
    assert elapsed < 60.0
    print(f"criterion 01 PASS: max residual {detail['max_residual']:.3e} in {elapsed:.1f} s")


def test_criterion_01_integrates_whatever_the_oracle_cached(monkeypatch):
    # --oracle sweeps over some of the grid's geometries, in the vacuum and
    # at one of its betas, leave their J cached; the check still integrates
    # J(0, 0) and each of its geometries itself
    for beta in ("", "beta = 2\n"):
        rows = run_sweep(parse_config_text(ORACLE_GRID_CONFIG + beta))
        assert all(row["status"] == "ok" for row in rows)
    # a sweep's J(0, 0, beta) is its (0, 0) row's cross J
    assert field.oracle_j.cache_info().currsize == 2 * 9
    calls = []
    integral = field._radial_integral

    def counted(L, dtau, beta):
        calls.append((L, dtau, beta))
        return integral(L, dtau, beta)

    monkeypatch.setattr(field, "_radial_integral", counted)
    detail = _registry_detail("field_oracle_grid")
    assert calls[0] == (0.0, 0.0, None)
    vacuum = {(sep, delay, None) for sep in GRID_SEPARATIONS for delay in GRID_DELAYS}
    assert set(calls[1:17]) == vacuum
    thermal = {(sep, delay, beta) for beta in THERMAL_BETAS
               for sep, delay in ((0.0, 0.0),) + THERMAL_GEOMETRIES}
    assert set(calls[17:]) == thermal and len(calls) == 17 + len(thermal)
    assert detail["max_residual"] < FIELD_TOL


def test_criterion_02_unit_coupling_values():
    norm = _norm_sq(1.0)
    nu = math.exp(-2.0 * norm)
    assert abs(norm - 1.0 / (4.0 * math.pi**2)) <= 1e-10
    assert abs(nu - math.exp(-1.0 / (2.0 * math.pi**2))) <= 1e-6
    assert abs(nu - 0.950601) <= 1e-6
    print(f"criterion 02 PASS: norm {norm!r}, nu {nu!r}")


def test_criterion_03_gamma_identities_1000_random():
    detail = _registry_detail("gamma_identities")
    assert detail["samples"] == SAMPLES == 1000
    assert detail["max_violation"] <= IDENTITY_TOL
    print(f"criterion 03 PASS: max identity violation {detail['max_violation']:.3e}")


def test_criterion_04_channel_soundness_1000_random():
    detail = _registry_detail("channel_soundness")
    assert detail["samples"] == SAMPLES == 1000
    assert detail["max_trace_defect"] <= PSD_TOL
    assert detail["min_output_eigenvalue"] >= -PSD_TOL
    assert detail["max_eigen_mismatch"] <= PSD_TOL
    assert detail["min_choi_eigenvalue"] >= -PSD_TOL
    # the partial transpose has the Choi spectrum (see channel.choi_matrix),
    # so selftest reports it once; LAPACK checks it on 1000 channels of
    # selftest's samplers
    rng = random.Random(20260820)
    min_ppt = math.inf
    for _ in range(SAMPLES):
        params = ChannelParams(random_statistics(rng), rng.uniform(0.0, 2.0 * math.pi),
                               rng.uniform(0.0, 2.0 * math.pi), random_bloch(rng))
        transposed = choi_matrix(params).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        min_ppt = min(min_ppt, float(np.linalg.eigvalsh(transposed)[0]))
    assert min_ppt >= -PPT_TOL
    print(
        "criterion 04 PASS: trace defect "
        f"{detail['max_trace_defect']:.3e}, eigen mismatch {detail['max_eigen_mismatch']:.3e}, "
        f"min output eigenvalue {detail['min_output_eigenvalue']:.3e}, "
        f"min PPT eigenvalue {min_ppt:.3e}"
    )


def test_criterion_05_capacity_optimality_grid():
    started = time.perf_counter()
    couplings = [float(v) for v in np.geomspace(0.1, 1000.0, 5)]
    results = []
    for lam_a in couplings:
        for lam_b in couplings:
            stats = assemble_statistics(lam_a, lam_b, PairGeometry(6.0, 6.0))
            params = ChannelParams(stats=stats, phase_a=0.3, phase_b=0.7,
                                   bob_initial=QubitState(0.0, 0.0, 1.0))
            results.append(capacity_bruteforce(params))
    elapsed = time.perf_counter() - started
    assert all(optimizer_gate(result) for result in results)
    assert elapsed < 600.0
    worst_gap = max(result.gap for result in results)
    worst_excess = max(result.c_bruteforce - result.c_closed for result in results)
    print(
        f"criterion 05 PASS: max |gap| {worst_gap:.3e}, max excess "
        f"{worst_excess:.3e}, {elapsed:.1f} s for 25 points"
    )


def test_criterion_06_high_capacity_corner():
    unit_delta = commutator_closed(1.0, 1.0, PairGeometry(6.0, 6.0))
    lam_a = (math.pi / 4.0) / (0.3 * unit_delta)
    assert np.isclose(lam_a, LAMBDA_A_STAR, rtol=1e-12, atol=0.0)
    stats = assemble_statistics(lam_a, 0.3, PairGeometry(6.0, 6.0))
    assert abs(stats.nu_b - 0.99545) <= 5e-6
    assert np.isclose(2.0 * stats.delta_ab, math.pi / 2.0, rtol=1e-12, atol=0.0)
    c_closed = capacity_closed_form(stats.nu_b, stats.delta_ab, 0.0, QubitState(0.0, 0.0, 1.0))
    assert abs(c_closed - 0.9767) <= 1e-3
    assert np.isclose(c_closed, C_CLOSED_STAR, rtol=1e-12, atol=0.0)
    print(f"criterion 06 PASS: c_closed {c_closed!r} at lambda_a {lam_a!r}")


def test_criterion_07_zero_capacity_cases():
    up = QubitState(0.0, 0.0, 1.0)

    simultaneous = assemble_statistics(10.0, 1.0, PairGeometry(6.0, 0.0))
    silent_alice = assemble_statistics(0.0, 1.0, PairGeometry(6.0, 6.0))
    coupled = assemble_statistics(10.0, 1.0, PairGeometry(6.0, 6.0))
    cases = (
        ("dtau = 0", ChannelParams(stats=simultaneous, phase_a=0.0, phase_b=0.0, bob_initial=up)),
        ("lambda_a = 0", ChannelParams(stats=silent_alice, phase_a=0.0, phase_b=0.0, bob_initial=up)),
        ("r_b = 0", ChannelParams(stats=coupled, phase_a=0.0, phase_b=0.0,
                                  bob_initial=QubitState(0.0, 0.0, 0.0))),
    )
    for label, params in cases:
        result = capacity_bruteforce(params)
        assert result.c_closed == 0.0, label
        assert result.c_bruteforce <= 1e-6, label
    print("criterion 07 PASS: all three zero cases exact / below 1e-6")


def test_criterion_08_gap_independence():
    lam_a, lam_b = 10.0, 1.0
    geom = PairGeometry(6.0, 6.0)
    up = QubitState(0.0, 0.0, 1.0)

    reference = assemble_statistics(lam_a, lam_b, geom)

    # the switch phases Omega * tau_0 do reach the channel, but not the
    # Bob-pure capacity: brute force stays within 1e-3 across phase choices
    values = []
    for phase_a, phase_b in ((0.0, 0.0), (0.3, 0.7), (1.234, 2.345), (4.0, 5.5)):
        params = ChannelParams(stats=reference, phase_a=phase_a, phase_b=phase_b,
                               bob_initial=up)
        result = capacity_bruteforce(params)
        assert result.c_closed == capacity_closed_form(
            reference.nu_b, reference.delta_ab, 0.0, up
        )
        values.append(result.c_bruteforce)
    spread = max(values) - min(values)
    assert spread <= 1e-3
    # with Bob along z the phases only rotate each output, and the search sees
    # the outputs through their lengths at each theta, which the phases keep
    assert spread <= 1e-12
    print(f"criterion 08 PASS: brute-force spread {spread:.3e} across switch phases")


def test_criterion_09_q_ea_lower_bound():
    result = capacity_bruteforce(_star_params())
    assert result.q_ea_lower == result.c_closed / 2.0
    assert result.q_ea_lower > 0.488
    print(f"criterion 09 PASS: q_ea_lower {result.q_ea_lower!r} = c_closed / 2 exactly")


def test_criterion_10_fig1_sweep_deterministic(tmp_path):
    config_path = tmp_path / "fig1.cfg"
    config_path.write_text(FIG1_CONFIG, encoding="utf-8")
    first = tmp_path / "fig1_a.csv"
    second = tmp_path / "fig1_b.csv"
    assert main(["sweep", "--config", str(config_path), "--output", str(first)]) == 0
    assert main(["sweep", "--config", str(config_path), "--output", str(second)]) == 0
    payload = first.read_bytes()
    assert payload == second.read_bytes()

    lines = payload.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 64 * 64
    c_index = header.index("c_closed")
    a_index = header.index("lambda_a")
    capacities = [float(r[c_index]) for r in rows]
    assert max(capacities) > 0.95
    weak_alice = [float(r[c_index]) for r in rows if float(r[a_index]) == 0.1]
    assert len(weak_alice) == 64
    assert max(weak_alice) < 0.01
    print(
        f"criterion 10 PASS: byte-identical runs, max C {max(capacities):.4f}, "
        f"weak-Alice column max {max(weak_alice):.2e}"
    )
