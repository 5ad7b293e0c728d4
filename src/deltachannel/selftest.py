"""The registry of independent checks, run by `deltachannel selftest` and the tests.

Four checks mirror the package's core guarantees: the field closed forms
against the quadrature oracle over a fixed geometry grid, the correlator
identities on random statistics (and the channel map against them),
channel trace/positivity/spectrum soundness, and brute-force capacity
against the closed form.  Each check's grid or seed and its tolerance are
stated here once; the acceptance tests run these checks and assert on
their details.  Every check recomputes its quantities rather than trusting
the library's internal cross-checks, so a corrupted formula fails even if
its own guard was corrupted with it.  The field check scores its grid by
field.residual, the same rule as a sweep row's oracle_residual, once per
geometry: the residual compares J, so no coupling enters it.
"""
from __future__ import annotations

import math
import random

from . import capacity, channel, field, weyl

GRID_SEPARATIONS = (1.0, 3.0, 6.0, 10.0)
GRID_DELAYS = (0.0, 3.0, 6.0, 12.0)
# at beta = 879 coth's bump at k = 0, about 1/beta wide, is narrower than a
# panel of the oracle's Re J rule, which grades its panels toward k = 0 there
THERMAL_BETAS = (0.5, 2.0, 20.0, 879.0)
THERMAL_GEOMETRIES = ((0.05, 2.0), (1.0, 3.0), (6.0, 6.0), (10.0, 0.0))
# F and F' arguments where both thermal series converge in a few hundred
# terms; each series is summed at the size kms_sine_transform gives it.
# The two are compared only where some x takes the image series,
# beta^2 > 48 pi / 20 (20 and 879 of THERMAL_BETAS): below it the image
# series' continued fraction is outside its domain (see field._faddeeva)
ROUTE_ARGUMENTS = (0.0, 0.5, 3.0, 8.0)
FIELD_TOL = 1e-6
ROUTE_TOL = 1e-12
IDENTITY_TOL = 1e-12
PSD_TOL = 1e-12
OPTIMIZER_TOL = 1e-12
ZERO_TOL = 1e-6
SAMPLES = 1000


def random_statistics(rng: random.Random) -> field.FieldStatistics:
    """Type-valid statistics: each nu uniform in [0, 1], delta_ab in [-3, 3].
    Both samplers call only rng.uniform(lo, hi), as numpy's Generator can
    too, and draw by arithmetic, so a seed gives the same bits on any CPU."""
    nu_a, nu_b, nu_ab_plus, nu_ab_minus = (rng.uniform(0.0, 1.0) for _ in range(4))
    return field.FieldStatistics(nu_a=nu_a, nu_b=nu_b, nu_ab_plus=nu_ab_plus,
                                 nu_ab_minus=nu_ab_minus, delta_ab=rng.uniform(-3.0, 3.0))


def random_bloch(rng: random.Random) -> channel.QubitState:
    """A state drawn uniformly from the Bloch ball: the first point of the
    cube [-1, 1]^3 that falls inside it."""
    while True:
        x, y, z = (rng.uniform(-1.0, 1.0) for _ in range(3))
        if x * x + y * y + z * z <= 1.0:
            return channel.QubitState(x, y, z)


# ---------------------------------------------------------------------------
# the four checks
# ---------------------------------------------------------------------------

def _check_field_oracle_grid() -> tuple[bool, dict]:
    """Closed forms vs quadrature over the fixed geometry grid, scored by
    field.residual, the rule of a sweep row's oracle_residual.  The
    residual compares J, which the couplings only scale, so J(0, 0) and
    each vacuum geometry are integrated and scored once.  Then per beta
    J(0, 0, beta) and a few thermal geometries, one integral each; and the
    Matsubara and image series must agree where the image series runs."""
    residuals = []

    def score(state, sep, delay, j0):
        j = field._radial_integral(sep, delay, state.beta)
        terms = field.geometry_terms(field.PairGeometry(sep, delay), state)
        residuals.append(field.residual(terms, state, j, j0))

    # J(0, 0, beta) and each geometry's J straight from the integral, not
    # from oracle_j's cache, so that the check integrates them whatever ran
    # before
    j0 = field._radial_integral(0.0, 0.0, None).real
    for sep in GRID_SEPARATIONS:
        for delay in GRID_DELAYS:
            score(field.VACUUM, sep, delay, j0)
    vacuum_points = len(residuals)
    routes = 0.0
    for beta in THERMAL_BETAS:
        state = field.thermal(beta)
        j0 = field._radial_integral(0.0, 0.0, beta).real
        for sep, delay in THERMAL_GEOMETRIES:
            score(state, sep, delay, j0)
        if beta * beta <= 4.0 * math.pi * field.IMAGE_CUT / field.MATSUBARA_CUT:
            continue
        for x in ROUTE_ARGUMENTS:
            m, n = map(math.ceil, field._term_counts(x, beta))
            for derivative in (False, True):
                difference = abs(field._matsubara(x, beta, m, derivative)
                                 - field._images(x, beta, n, derivative))
                routes = max(routes, difference / field.cross_real_closed(0.0, 0.0, beta))
    # a NaN residual fails the check; the builtin max alone can drop it
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    detail = {
        "max_residual": worst,
        "points": vacuum_points,
        "thermal_points": len(residuals) - vacuum_points,
        "route_max_difference": routes,
    }
    return worst < FIELD_TOL and routes <= ROUTE_TOL, detail


def _check_gamma_identities() -> tuple[bool, dict]:
    """Correlator trace/combination identities and nu_a-independence."""
    rng = random.Random(20260819)
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
        nu_a, nu_ab_plus, nu_ab_minus = (rng.uniform(0.0, 1.0) for _ in range(3))
        other = weyl.gammas_from_statistics(field.FieldStatistics(
            nu_a, stats.nu_b, nu_ab_plus, nu_ab_minus, stats.delta_ab))
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


def _length(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _check_channel_soundness() -> tuple[bool, dict]:
    """Outputs' trace, positivity and eigenvalues, against the roots of each
    density matrix's characteristic polynomial; Choi positivity from its
    spectrum (1 +- |base +- slope|) / 4 (see channel.choi_matrix), which its
    partial transpose shares, so PPT needs no check of its own."""
    rng = random.Random(20260820)
    worst_trace = 0.0
    worst_eigen = 0.0
    min_output_eig = math.inf
    min_choi_eig = math.inf
    for _ in range(SAMPLES):
        params = channel.ChannelParams(random_statistics(rng), rng.uniform(0.0, 2.0 * math.pi),
                                       rng.uniform(0.0, 2.0 * math.pi), random_bloch(rng))
        out = channel.apply(params, random_bloch(rng))
        # the roots of [[a, c], [conj(c), d]], c = (x - iy) / 2, from its entries
        a, d = 0.5 * (1.0 + out.z), 0.5 * (1.0 - out.z)
        mean, spread = 0.5 * (a + d), _length((0.5 * (a - d), 0.5 * out.x, 0.5 * out.y))
        worst_trace = max(worst_trace, abs(a + d - 1.0))
        worst_eigen = max(worst_eigen, abs(out.eigenvalues[0] - (mean + spread)),
                          abs(out.eigenvalues[1] - (mean - spread)))
        min_output_eig = min(min_output_eig, mean - spread)
        ends = ([b + sign * s for b, s in zip(params.base, params.slope)] for sign in (1.0, -1.0))
        min_choi_eig = min(min_choi_eig, 0.25 * (1.0 - max(map(_length, ends))))
    passed = (
        worst_trace <= PSD_TOL
        and worst_eigen <= PSD_TOL
        and min_output_eig >= -PSD_TOL
        and min_choi_eig >= -PSD_TOL
    )
    detail = {
        "max_trace_defect": worst_trace,
        "max_eigen_mismatch": worst_eigen,
        "min_output_eigenvalue": min_output_eig,
        "min_choi_eigenvalue": min_choi_eig,
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
    geom = field.PairGeometry(6.0, 6.0)
    lam_a_star = (math.pi / 4.0) / (0.3 * field.commutator_closed(1.0, 1.0, geom))
    up = channel.QubitState(0.0, 0.0, 1.0)
    mixed = channel.QubitState(0.5, 0.0, 0.0)
    cases = (
        ("high_capacity", lam_a_star, 0.3, 6.0, up, 0.0),
        ("moderate", 10.0, 1.0, 6.0, up, 0.0),
        ("mixed_tuned", 10.0, 1.0, 6.0, mixed, capacity.tune_bob_phase(mixed)),
        ("simultaneous", 10.0, 1.0, 0.0, up, 0.0),
    )
    detail: dict = {}
    passed = True
    for name, lam_a, lam_b, delay, bob, phase_b in cases:
        stats = field.assemble_statistics(lam_a, lam_b, field.PairGeometry(6.0, delay))
        result = capacity.capacity_bruteforce(channel.ChannelParams(stats, 0.0, phase_b, bob))
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
