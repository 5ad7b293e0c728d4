"""The registry of independent checks, run by `deltachannel selftest` and the tests.

Four checks mirror the package's core guarantees: the field closed forms
against the quadrature oracle over a fixed grid, the correlator identities
on random statistics (and the channel map against them), channel
trace/positivity/diagonalization soundness, and brute-force capacity
against the closed form.  Each check's grid or seed and its tolerance are
stated here once; the acceptance tests run these checks and assert on
their details.  Every check recomputes its quantities rather than trusting
the library's internal cross-checks, so a corrupted formula fails even if
its own guard was corrupted with it.
"""
from __future__ import annotations

import math

import numpy as np

from . import capacity, channel, field, weyl

GRID_COUPLINGS = (0.1, 1.0, 10.0)
GRID_SEPARATIONS = (1.0, 3.0, 6.0, 10.0)
GRID_DELAYS = (0.0, 3.0, 6.0, 12.0)
# at beta = 879 quad steps over coth's bump at k = 0 unless it breaks at k = 1/beta
THERMAL_BETAS = (0.5, 2.0, 20.0, 879.0)
THERMAL_GEOMETRIES = ((0.05, 2.0), (1.0, 3.0), (6.0, 6.0), (10.0, 0.0))
# F and F' arguments where both thermal series converge in a few hundred terms
ROUTE_ARGUMENTS = (0.0, 0.5, 3.0, 8.0)
FIELD_TOL = 1e-6
ROUTE_TOL = 1e-12
IDENTITY_TOL = 1e-12
PSD_TOL = 1e-12
PPT_TOL = 1e-10
OPTIMIZER_TOL = 2e-3
ZERO_TOL = 1e-6
# denominator floor of every relative closed-form check, here and in a
# sweep row's oracle_residual
RESIDUAL_FLOOR = 1e-12
SAMPLES = 1000


def _relative(closed: float, other: float) -> float:
    return abs(closed - other) / max(abs(closed), RESIDUAL_FLOOR)


def random_statistics(rng: np.random.Generator) -> field.FieldStatistics:
    """Type-valid statistics: each nu uniform in [0, 1], delta_ab in [-3, 3]."""
    nu = rng.uniform(0.0, 1.0, size=4)
    return field.FieldStatistics(
        nu_a=float(nu[0]),
        nu_b=float(nu[1]),
        nu_ab_plus=float(nu[2]),
        nu_ab_minus=float(nu[3]),
        delta_ab=float(rng.uniform(-3.0, 3.0)),
    )


def random_bloch(rng: np.random.Generator) -> channel.QubitState:
    """A state drawn uniformly from the Bloch ball."""
    v = rng.normal(size=3)
    v *= rng.uniform() ** (1.0 / 3.0) / float(np.linalg.norm(v))
    return channel.QubitState(float(v[0]), float(v[1]), float(v[2]))


# ---------------------------------------------------------------------------
# the four checks
# ---------------------------------------------------------------------------

def _check_field_oracle_grid() -> tuple[bool, dict]:
    """Closed forms vs quadrature over the fixed coupling/geometry grid: the
    norms and the commutator relatively, Re J absolutely.  J depends on the
    geometry alone, so each geometry is integrated once and scaled by
    pair_prefactor for every coupling pair, as wightman_cross_quadrature
    scales it.  A few thermal geometries per beta add J(0, 0, beta)
    relatively and Re J absolutely over J(0, 0, beta), one integral each,
    and the Matsubara and image series must agree where both converge."""
    specs = [field.SmearingSpec(coupling=lam) for lam in GRID_COUPLINGS]
    j0 = field.self_norm_j(field.VACUUM)
    worst = max(_relative(field.norm_sq_closed(f), field.pair_prefactor(f, f) * j0) for f in specs)
    points = len(specs)
    for sep in GRID_SEPARATIONS:
        for delay in GRID_DELAYS:
            geom = field.PairGeometry(sep, delay)
            j, _ = field._radial_integral(sep, delay, None)
            # Re J absolutely: J(0, 0) = 1 sets its scale
            re_j = field.cross_real_closed(sep, delay)
            for f_a in specs:
                for f_b in specs:
                    pref = field.pair_prefactor(f_a, f_b)
                    w = pref * j
                    closed = field.commutator_closed(f_a, f_b, geom)
                    worst = max(worst, _relative(closed, -2.0 * w.imag), abs(re_j - w.real / pref))
                    points += 1
    unit = specs[1]
    pref = field.pair_prefactor(unit, unit)
    thermal_points = 0
    routes = 0.0
    for beta in THERMAL_BETAS:
        j0_closed = field.cross_real_closed(0.0, 0.0, beta)
        worst = max(worst, _relative(j0_closed, field.self_norm_j(field.thermal(beta))))
        for sep, delay in THERMAL_GEOMETRIES:
            j, _ = field._radial_integral(sep, delay, beta)
            re_j = field.cross_real_closed(sep, delay, beta)
            closed = field.commutator_closed(unit, unit, field.PairGeometry(sep, delay))
            worst = max(worst, _relative(closed, -2.0 * pref * j.imag),
                        abs(re_j - j.real) / j0_closed)
            thermal_points += 1
        x = np.array(ROUTE_ARGUMENTS)
        for derivative in (False, True):
            matsubara, images = (field.kms_sine_transform(x, beta, derivative, route)
                                 for route in ("matsubara", "images"))
            routes = max(routes, float(np.max(np.abs(matsubara - images))) / j0_closed)
    detail = {
        "max_residual": worst,
        "points": points,
        "thermal_points": thermal_points,
        "route_max_difference": routes,
    }
    return worst < FIELD_TOL and routes <= ROUTE_TOL, detail


def _check_gamma_identities() -> tuple[bool, dict]:
    """Correlator trace/combination identities and nu_a-independence."""
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(SAMPLES):
        stats = random_statistics(rng)
        g = weyl.gammas_from_statistics(stats)
        worst = max(
            worst,
            abs(g.g_cccc + g.g_ssss + g.g_cssc + g.g_sccs - 1.0),
            abs(g.c_keep + g.c_flip - 1.0),
            abs(g.c_keep - (g.g_cccc + g.g_cssc)),
            abs(g.c_flip - (g.g_ssss + g.g_sccs)),
            abs(g.c_comm - (g.g_scsc - g.g_sscc)),
            abs(g.c_comm.real),
        )
        resampled = rng.uniform(0.0, 1.0, size=3)
        other = weyl.gammas_from_statistics(
            field.FieldStatistics(
                nu_a=float(resampled[0]),
                nu_b=stats.nu_b,
                nu_ab_plus=float(resampled[1]),
                nu_ab_minus=float(resampled[2]),
                delta_ab=stats.delta_ab,
            )
        )
        same = (
            other.c_keep == g.c_keep
            and other.c_flip == g.c_flip
            and other.c_comm == g.c_comm
        )
        if not same:
            detail = {"failure": "combined coefficients depend on more than nu_b, delta_ab"}
            return False, detail
        bloch_map = channel.ChannelParams(stats, 0.0, 0.0, channel.QubitState(0.0, 0.0, 1.0))
        if not (
            abs(g.c_keep - g.c_flip - bloch_map.a) <= IDENTITY_TOL
            and abs(2.0 * g.c_comm.imag + bloch_map.b) <= IDENTITY_TOL
        ):
            return False, {"failure": "the channel map's a, b disagree with the gamma sums"}
    return worst <= IDENTITY_TOL, {"max_violation": worst, "samples": SAMPLES}


def _check_channel_soundness() -> tuple[bool, dict]:
    """Trace, positivity, eigenvalue agreement, Choi trace/positivity/PPT."""
    rng = np.random.default_rng(20260820)
    worst_trace = 0.0
    worst_eigen = 0.0
    min_output_eig = math.inf
    min_choi_eig = math.inf
    min_ppt_eig = math.inf
    for _ in range(SAMPLES):
        params = channel.ChannelParams(
            stats=random_statistics(rng),
            phase_a=float(rng.uniform(0.0, 2.0 * math.pi)),
            phase_b=float(rng.uniform(0.0, 2.0 * math.pi)),
            bob_initial=random_bloch(rng),
        )
        out = channel.apply(params, random_bloch(rng))
        numeric = np.linalg.eigvalsh(out.matrix)
        worst_trace = max(worst_trace, abs(out.r11 + out.r22 - 1.0))
        worst_eigen = max(
            worst_eigen,
            abs(out.eigenvalues[0] - float(numeric[1])),
            abs(out.eigenvalues[1] - float(numeric[0])),
        )
        min_output_eig = min(min_output_eig, float(numeric[0]))
        choi = channel.choi_matrix(params)
        worst_trace = max(worst_trace, abs(float(np.trace(choi).real) - 1.0))
        min_choi_eig = min(min_choi_eig, float(np.linalg.eigvalsh(choi)[0]))
        transposed = choi.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        min_ppt_eig = min(min_ppt_eig, float(np.linalg.eigvalsh(transposed)[0]))
    passed = (
        worst_trace <= PSD_TOL
        and worst_eigen <= PSD_TOL
        and min_output_eig >= -PSD_TOL
        and min_choi_eig >= -PSD_TOL
        and min_ppt_eig >= -PPT_TOL
    )
    detail = {
        "max_trace_defect": worst_trace,
        "max_eigen_mismatch": worst_eigen,
        "min_output_eigenvalue": min_output_eig,
        "min_choi_eigenvalue": min_choi_eig,
        "min_partial_transpose_eigenvalue": min_ppt_eig,
        "samples": SAMPLES,
    }
    return passed, detail


def optimizer_gate(result: capacity.CapacityResult) -> bool:
    """The brute force comes within OPTIMIZER_TOL of the closed form and
    exceeds it by at most CLOSED_FORM_SLACK."""
    return (
        result.gap <= OPTIMIZER_TOL
        and result.c_bruteforce <= result.c_closed + capacity.CLOSED_FORM_SLACK
    )


def _check_capacity_optimizer() -> tuple[bool, dict]:
    """Brute-force search against the closed form on representative points."""
    unit = field.SmearingSpec(coupling=1.0)
    geom = field.PairGeometry(6.0, 6.0)
    lam_a_star = (math.pi / 4.0) / (0.3 * field.commutator_closed(unit, unit, geom))
    up = channel.QubitState(0.0, 0.0, 1.0)
    mixed = channel.QubitState(0.5, 0.0, 0.0)
    cases = (
        ("high_capacity", lam_a_star, 0.3, 6.0, up, None),
        ("moderate", 10.0, 1.0, 6.0, up, None),
        ("mixed_tuned", 10.0, 1.0, 6.0, mixed, capacity.tune_bob_phase(mixed)),
        ("simultaneous", 10.0, 1.0, 0.0, up, None),
    )
    detail: dict = {}
    passed = True
    for name, lam_a, lam_b, delay, bob, phase_b in cases:
        stats = field.assemble_statistics(
            field.SmearingSpec(coupling=lam_a),
            field.SmearingSpec(coupling=lam_b),
            field.PairGeometry(6.0, delay),
        )
        params = channel.ChannelParams(
            stats=stats,
            phase_a=0.0,
            phase_b=0.0 if phase_b is None else phase_b,
            bob_initial=bob,
        )
        result = capacity.capacity_bruteforce(params)
        detail[name] = {
            "c_closed": result.c_closed,
            "c_bruteforce": result.c_bruteforce,
            "gap": result.gap,
        }
        if not optimizer_gate(result):
            passed = False
        if name == "simultaneous":
            if result.c_closed != 0.0 or result.c_bruteforce > ZERO_TOL:
                passed = False
    return passed, detail


CHECKS = (
    ("field_oracle_grid", _check_field_oracle_grid),
    ("gamma_identities", _check_gamma_identities),
    ("channel_soundness", _check_channel_soundness),
    ("capacity_optimizer", _check_capacity_optimizer),
)


def selftest(only: list[str] | None = None) -> dict:
    """Run the invariant suite and return a machine-readable report.

    only restricts the run to the named checks.  A check that raises is
    reported as failed with the exception in its detail; the suite always
    runs to the end.
    """
    names = [name for name, _ in CHECKS]
    if only is not None:
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise ValueError(f"unknown selftest checks: {unknown}; available: {names}")
    report: dict = {"passed": True, "checks": []}
    for name, check in CHECKS:
        if only is not None and name not in only:
            continue
        try:
            passed, detail = check()
        except Exception as exc:
            passed, detail = False, {"error": repr(exc)}
        report["checks"].append({"name": name, "passed": passed, "detail": detail})
        report["passed"] = report["passed"] and passed
    return report
