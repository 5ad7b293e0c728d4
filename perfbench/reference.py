"""Independent reference values and the checks that compare outputs to them.

Nothing here imports deltachannel.  The field scalars are recomputed from
their defining integrals in mpmath at 30 digits: the commutator from its
Gaussian closed form, the vacuum cross term from the Dawson function, the
thermal terms by quadrature of the radial integral

    J(L, dtau, beta) = int_0^inf exp(-k^2/2) sin(kL)/L coth(beta k/2) cos(k dtau) dk

(the real part, with coth -> 1 in the vacuum).  The capacity is recomputed
from the reference nu_b and delta_ab.  Every check returns a list of
problems, empty when the outputs pass.
"""
from __future__ import annotations

import math

import mpmath

DPS = 30
# Relative tolerances against 30-digit references.  The delta_ab closed form
# loses at most a few hundred ulp to the conditioning of exp(-a^2/2); the nu
# values carry the radial quadrature's error in their exponent.
DELTA_RTOL = 1e-12
NU_RTOL = 1e-12
EXPONENT_RTOL = 1e-12
C_ATOL = 1e-12
TINY = 1e-300
# Method properties the paper's results require.
RESIDUAL_MAX = 1e-6
SELFTEST_CHECKS = ("field_oracle_grid", "gamma_identities", "channel_soundness", "capacity_optimizer")


def _pref(lambda_a, lambda_b):
    return mpmath.mpf(lambda_a) * mpmath.mpf(lambda_b) / (4 * mpmath.pi**2)


def delta_ref(lambda_a: float, lambda_b: float, L: float, dtau: float):
    """2 pref sqrt(pi/2) exp(-(a^2+L^2)/2) sinh(aL)/L with a = |dtau|, signed by dtau."""
    with mpmath.workdps(DPS):
        a, Lm = abs(mpmath.mpf(dtau)), mpmath.mpf(L)
        ratio = a if L == 0.0 else mpmath.sinh(a * Lm) / Lm
        value = 2 * _pref(lambda_a, lambda_b) * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-(a * a + Lm * Lm) / 2) * ratio
        return mpmath.sign(dtau) * value


def _dawson(x):
    return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)


def vacuum_re_j(L: float, dtau: float):
    """Re J in the vacuum: [D((L+dt)/sqrt2) + D((L-dt)/sqrt2)] / (sqrt2 L)."""
    with mpmath.workdps(DPS):
        Lm, dt, s2 = mpmath.mpf(L), mpmath.mpf(dtau), mpmath.sqrt(2)
        if L == 0.0:
            return 1 - s2 * dt * _dawson(dt / s2)
        return (_dawson((Lm + dt) / s2) + _dawson((Lm - dt) / s2)) / (s2 * Lm)


def thermal_re_j(L: float, dtau: float, beta: float):
    """Re J at inverse temperature beta, by mpmath quadrature over [0, 16].

    exp(-k^2/2) is below 1e-55 beyond k = 16, under the working precision.
    """
    with mpmath.workdps(DPS):
        Lm, dt, b = mpmath.mpf(L), mpmath.mpf(dtau), mpmath.mpf(beta)

        def kernel(k):
            g = k if L == 0.0 else mpmath.sin(k * Lm) / Lm
            return mpmath.exp(-k * k / 2) * g * mpmath.coth(b * k / 2) * mpmath.cos(k * dt)

        return mpmath.quad(kernel, mpmath.linspace(0, 16, 17))


class FieldReference:
    """Reference field scalars, with J cached per geometry and temperature."""

    def __init__(self, beta: float | None):
        self.beta = beta
        self._j: dict[tuple[float, float], object] = {}

    def re_j(self, L: float, dtau: float):
        key = (L, dtau)
        if key not in self._j:
            if self.beta is None:
                self._j[key] = vacuum_re_j(L, dtau)
            else:
                self._j[key] = thermal_re_j(L, dtau, self.beta)
        return self._j[key]

    def exponents(self, lambda_a: float, lambda_b: float, L: float, dtau: float) -> dict:
        """-ln nu for the four nu columns: 2 ||E f||^2 in each case."""
        with mpmath.workdps(DPS):
            j0 = self.re_j(0.0, 0.0)
            n_a = _pref(lambda_a, lambda_a) * j0
            n_b = _pref(lambda_b, lambda_b) * j0
            cross = _pref(lambda_a, lambda_b) * self.re_j(L, dtau)
            return {
                "nu_a": 2 * n_a,
                "nu_b": 2 * n_b,
                "nu_ab_plus": 2 * (n_a + n_b + 2 * cross),
                "nu_ab_minus": 2 * (n_a + n_b - 2 * cross),
            }

    def row(self, lambda_a: float, lambda_b: float, L: float, dtau: float) -> dict:
        """Reference nu columns, their exponents, delta_ab and c_closed (Bob at r_b = 1)."""
        expo = self.exponents(lambda_a, lambda_b, L, dtau)
        with mpmath.workdps(DPS):
            ref = {name: mpmath.exp(-e) for name, e in expo.items()}
            ref["delta_ab"] = delta_ref(lambda_a, lambda_b, L, dtau)
            ref["c_closed"] = capacity_ref(ref["nu_b"], 1, ref["delta_ab"])
        ref["exponents"] = expo
        return ref


def _h(p):
    if p <= 0 or p >= 1:
        return mpmath.mpf(0)
    return -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))


def capacity_ref(nu_b, r_b, delta_ab):
    """C = H(1/2 + w |cos 2 delta| / 2) - H(1/2 + w / 2) with w = nu_b r_b."""
    with mpmath.workdps(DPS):
        w = mpmath.mpf(nu_b) * r_b
        return _h(mpmath.mpf(1) / 2 + w * abs(mpmath.cos(2 * delta_ab)) / 2) - _h(mpmath.mpf(1) / 2 + w / 2)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _where(row: dict) -> str:
    return f"row (lambda_a={row['lambda_a']!r}, lambda_b={row['lambda_b']!r}, L={row['L']!r}, dtau={row['dtau']!r})"


def check_field_rows(rows: list[dict], ref: FieldReference) -> list[str]:
    """Each row's nu columns, delta_ab and c_closed against the reference."""
    problems = []
    for row in rows:
        want = ref.row(row["lambda_a"], row["lambda_b"], row["L"], row["dtau"])
        for name in ("nu_a", "nu_b", "nu_ab_plus", "nu_ab_minus"):
            got, exact, expo = row[name], float(want[name]), float(want["exponents"][name])
            tol = TINY + (NU_RTOL + EXPONENT_RTOL * abs(expo)) * exact
            if not abs(got - exact) <= tol:
                problems.append(f"{_where(row)}: {name} {got!r} vs reference {exact!r}")
        got, exact = row["delta_ab"], float(want["delta_ab"])
        if not abs(got - exact) <= TINY + DELTA_RTOL * abs(exact):
            problems.append(f"{_where(row)}: delta_ab {got!r} vs reference {exact!r}")
        got, exact = row["c_closed"], float(want["c_closed"])
        if not abs(got - exact) <= C_ATOL:
            problems.append(f"{_where(row)}: c_closed {got!r} vs reference {exact!r}")
    return problems


def check_grid(rows: list[dict], expected: list[dict]) -> list[str]:
    """Rows come in the expected order with the expected inputs (to 1e-12)."""
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        for key, value in want.items():
            if not math.isclose(row[key], value, rel_tol=1e-12, abs_tol=1e-300):
                problems.append(f"row {i}: {key} {row[key]!r}, expected {value!r}")
    return problems


def check_fig1_figure(rows: list[dict]) -> list[str]:
    """Criterion 10's figure properties: a near-perfect corner, a dark weak-Alice column."""
    problems = []
    best = max(r["c_closed"] for r in rows)
    if not best > 0.95:
        problems.append(f"max c_closed {best!r} is not above 0.95")
    weak = [r["c_closed"] for r in rows if r["lambda_a"] == 0.1]
    column = len({r["lambda_b"] for r in rows})
    if len(weak) != column:
        problems.append(f"{len(weak)} rows at lambda_a = 0.1, expected {column}")
    elif not max(weak) < 0.01:
        problems.append(f"weak-Alice column reaches c_closed {max(weak)!r}, expected < 0.01")
    return problems


def check_oracle(rows: list[dict]) -> list[str]:
    return [
        f"{_where(r)}: oracle_residual {r['oracle_residual']!r} not below {RESIDUAL_MAX}"
        for r in rows
        if not r["oracle_residual"] < RESIDUAL_MAX
    ]


def check_thermal_below_vacuum(rows: list[dict]) -> list[str]:
    """coth >= 1 adds to every norm, so no thermal nu exceeds its vacuum value."""
    vacuum = FieldReference(None)
    problems = []
    for row in rows:
        expo = vacuum.exponents(row["lambda_a"], row["lambda_b"], row["L"], row["dtau"])
        for name, e in expo.items():
            bound = float(mpmath.exp(-e))
            if not row[name] <= bound * (1 + NU_RTOL):
                problems.append(f"{_where(row)}: thermal {name} {row[name]!r} above vacuum {bound!r}")
    return problems


def check_point(point: dict, row: dict) -> list[str]:
    """A point query, laid out as a row, repeats its sweep row bit for bit."""
    return [
        f"point at {_where(row)}: {key} {value!r} differs from the sweep's {row[key]!r}"
        for key, value in point.items()
        if value != row[key]
    ]


def check_selftest(report: dict, expected: tuple[str, ...] = SELFTEST_CHECKS) -> list[str]:
    """The report lists exactly the checks asked for, in order."""
    names = tuple(c.get("name") for c in report.get("checks", ()))
    if names != expected:
        return [f"selftest ran {names}, expected {expected}"]
    return []
