"""Shared test helpers: random draws, an independent channel oracle, a Re J reference."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from deltachannel.channel import QubitState
from deltachannel.field import FieldStatistics

settings.register_profile("package", deadline=None)
settings.load_profile("package")

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def re_j_reference(L, dtau):
    """Vacuum Re J from erfi at 50 digits, plus the digits lost to the
    difference quotient below L = 1."""
    dps = 50 + (math.ceil(-math.log10(L)) if 0.0 < L < 1.0 else 0)
    with mpmath.workdps(dps):
        Lm, dt, s2 = mpmath.mpf(L), mpmath.mpf(dtau), mpmath.sqrt(2)

        def dawson(x):
            return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)

        if L == 0.0:
            return float(1 - s2 * dt * dawson(dt / s2))
        return float((dawson((Lm + dt) / s2) + dawson((Lm - dt) / s2)) / (s2 * Lm))


def draw_statistics(rng: np.random.Generator) -> FieldStatistics:
    nu = rng.uniform(0.0, 1.0, size=4)
    return FieldStatistics(
        nu_a=float(nu[0]),
        nu_b=float(nu[1]),
        nu_ab_plus=float(nu[2]),
        nu_ab_minus=float(nu[3]),
        delta_ab=float(rng.uniform(-3.0, 3.0)),
    )


def draw_ball(rng: np.random.Generator) -> QubitState:
    v = rng.normal(size=3)
    v *= rng.uniform() ** (1.0 / 3.0) / float(np.linalg.norm(v))
    return QubitState(float(v[0]), float(v[1]), float(v[2]))


def density_matrix(state: QubitState) -> np.ndarray:
    return 0.5 * (ID2 + state.x * SX + state.y * SY + state.z * SZ)


def oracle_apply(stats, phase_a, phase_b, bob, alice) -> np.ndarray:
    """Operator-composition route to the channel output.

    Builds the three-term map keep * rho + flip * m rho m + theta * comm *
    (m rho - rho m) from raw 2x2 matrix products, with no shared code with
    the library's matrix-element formulas.

    Convention note: with Bob's sign-flip operator represented as
    [[0, e^{i phase}], [e^{-i phase}, 0]], the three-term map reproduces the
    library's matrix elements for the signal amplitude theta as printed
    (theta = x cos phase_a + y sin phase_a).  The trace form of that same
    theta needs the opposite phase sign on Alice's side, so the Alice
    operator used here is [[0, e^{-i phase}], [e^{i phase}, 0]]; the two
    sides' operators are related by a fixed frame choice, not free signs.
    """
    mu_b = np.array(
        [[0.0, np.exp(1j * phase_b)], [np.exp(-1j * phase_b), 0.0]], dtype=complex
    )
    mu_a = np.array(
        [[0.0, np.exp(-1j * phase_a)], [np.exp(1j * phase_a), 0.0]], dtype=complex
    )
    rho_a = density_matrix(alice)
    rho_b = density_matrix(bob)
    th = complex(np.trace(mu_a @ rho_a)).real
    cos2d = math.cos(2.0 * stats.delta_ab)
    sin2d = math.sin(2.0 * stats.delta_ab)
    keep = 0.5 + 0.5 * stats.nu_b * cos2d
    flip = 0.5 - 0.5 * stats.nu_b * cos2d
    comm = -0.5j * stats.nu_b * sin2d
    return keep * rho_b + flip * (mu_b @ rho_b @ mu_b) + th * comm * (mu_b @ rho_b - rho_b @ mu_b)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
