"""Shared test helpers: random draws, independent channel oracles, numpy's
density matrices and entropies, Re J and Im J references, the stdlib JSON
route, and fresh field caches for every test."""
from __future__ import annotations

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from deltachannel.capacity import LN2, binary_entropy
from deltachannel.channel import QubitState
from deltachannel import field
from deltachannel.selftest import random_statistics as draw_statistics

settings.register_profile("package", deadline=None)
settings.load_profile("package")

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def dawson_reference(x):
    """The Dawson function (sqrt(pi)/2) exp(-x^2) erfi(x) as an mpf, at 50
    digits or at the working precision if that is higher."""
    with mpmath.workdps(max(mpmath.mp.dps, 50)):
        x = mpmath.mpf(x)
        return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)


def re_j_reference(L, dtau):
    """Vacuum Re J from erfi at 50 digits, plus the digits lost to the
    difference quotient below L = 1."""
    dps = 50 + (math.ceil(-math.log10(L)) if 0.0 < L < 1.0 else 0)
    with mpmath.workdps(dps):
        Lm, dt, s2 = mpmath.mpf(L), mpmath.mpf(dtau), mpmath.sqrt(2)
        if L == 0.0:
            return float(1 - s2 * dt * dawson_reference(dt / s2))
        return float((dawson_reference((Lm + dt) / s2) + dawson_reference((Lm - dt) / s2))
                     / (s2 * Lm))


def thermal_re_j_reference(L, dtau, beta):
    """Thermal Re J(L, dtau, beta) by 50-digit quadrature of its defining integral,

        int_0^16 exp(-k^2/2) sin(kL)/L coth(beta k/2) cos(k dtau) dk,

    with sin(kL)/L -> k at L = 0; exp(-k^2/2) is below 1e-55 past k = 16.
    Gauss-Legendre on panels of two periods of the fastest oscillation,
    refined near k = 0, where coth(beta k/2) turns over at k ~ 1/beta.
    """
    with mpmath.workdps(50):
        Lm, dt, b = mpmath.mpf(L), mpmath.mpf(dtau), mpmath.mpf(beta)

        def kernel(k):  # Gauss-Legendre nodes avoid k = 0
            g = k if L == 0.0 else mpmath.sin(k * Lm) / Lm
            return mpmath.exp(-k * k / 2) * g * mpmath.coth(b * k / 2) * mpmath.cos(k * dt)

        panels = max(8, math.ceil(16 * (L + abs(dtau)) / (4 * math.pi)))
        cuts = set(mpmath.linspace(0, 16, panels + 1))
        cuts.update(mpmath.mpf(c) / b for c in (0.5, 2, 8, 32, 128) if c / beta < 16)
        return float(mpmath.quad(kernel, sorted(cuts), method="gauss-legendre"))


def commutator_trapezoid_reference(L, dtau):
    """field._commutator_trapezoid's rule evaluated directly: the same nodes,
    step, window and estimate, with each node's exp and sines from mpmath at
    MP_DPS digits.  Slow (about 30 us a node)."""
    reach = L + abs(dtau) + field.TRAPEZOID_K
    nodes = field.TRAPEZOID_K * reach / math.pi
    h = 2.0 * math.pi / reach
    with mpmath.workdps(field.MP_DPS):
        Lm, dt, step = mpmath.mpf(L), mpmath.mpf(dtau), mpmath.mpf(h) / 2

        def f(k):
            g = k if L == 0.0 else mpmath.sin(k * Lm) / Lm
            return -mpmath.exp(-k * k / 2) * g * mpmath.sin(k * dt)

        values = [f(j * step) for j in range(1, math.floor(nodes) + 1)]
        even = mpmath.fsum(values[1::2])
        odd = mpmath.fsum(values[0::2])
        coarse = 2 * step * even
        fine = step * (even + odd)
        rounding = mpmath.mpf(10) ** -field.MP_DPS * step * mpmath.fsum(abs(v) for v in values)
        return float(fine), float(max(abs(fine - coarse), rounding))


def json_ready(value):
    """A copy of value for strict JSON: every float NaN becomes None (null)."""
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def stdlib_json(doc) -> str:
    """The bytes sweep.to_json must write: the stdlib's indented encoder
    after a pass that turns NaN into null."""
    return json.dumps(json_ready(doc), indent=2, allow_nan=False) + "\n"


def draw_ball(rng: np.random.Generator) -> QubitState:
    """A state drawn uniformly from the Bloch ball: a normal direction and a
    cube-root radius, numpy's draws that the seeded tests were written on
    (selftest's random_bloch draws from the cube instead)."""
    v = rng.normal(size=3)
    v *= rng.uniform() ** (1.0 / 3.0) / float(np.linalg.norm(v))
    return QubitState(float(v[0]), float(v[1]), float(v[2]))


def density_matrix(state: QubitState) -> np.ndarray:
    return 0.5 * (ID2 + state.x * SX + state.y * SY + state.z * SZ)


def density_matrix_elements(state: QubitState) -> np.ndarray:
    """The density matrix written element by element."""
    return np.array(
        [
            [0.5 * (1.0 + state.z), 0.5 * complex(state.x, -state.y)],
            [0.5 * complex(state.x, state.y), 0.5 * (1.0 - state.z)],
        ],
        dtype=complex,
    )


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits of a 2x2 density matrix, from LAPACK's eigvalsh."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-8 or np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("not a density matrix: trace or Hermiticity off")
    evals = np.linalg.eigvalsh(rho)
    if evals[0] < -1e-9:
        raise ValueError(f"not a density matrix: eigenvalue {evals[0]!r} < 0")
    return binary_entropy(min(max(float(evals[1]), 0.0), 1.0))


def output_entropy(base: np.ndarray, slope: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Bits of entropy of Bob's output H(1/2 + |v| / 2), v = base + theta * slope,
    per theta, in numpy: the full scan that the brute force's search is held to."""
    v = base + thetas[:, None] * slope
    half = 0.5 * np.minimum(np.sqrt(np.sum(v * v, axis=1)), 1.0)
    hi, lo = 0.5 + half, 0.5 - half
    return -(hi * np.log(hi) + lo * np.log(np.where(lo > 0.0, lo, 1.0))) / LN2


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


def bloch_radius_oracle(stats, phase_b, bob, th) -> float:
    """Length of the output Bloch vector, from the channel's invariant component.

    P = x cos(phase_b) - y sin(phase_b) commutes with Bob's flip operator and
    passes unchanged; the orthogonal part, of length sqrt(r^2 - P^2),
    contracts by sqrt(a^2 + theta^2 b^2) with a = nu_b cos(2 delta) and
    b = nu_b sin(2 delta).
    """
    a = stats.nu_b * math.cos(2.0 * stats.delta_ab)
    b = stats.nu_b * math.sin(2.0 * stats.delta_ab)
    p_inv = bob.x * math.cos(phase_b) - bob.y * math.sin(phase_b)
    rest_sq = max(bob.norm_sq - p_inv * p_inv, 0.0)
    return math.sqrt(p_inv * p_inv + (a * a + th * th * b * b) * rest_sq)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with every cache of deltachannel.field empty (each
    attribute that has cache_clear, so a new cache cannot be left out), so
    an integral or call count does not depend on which tests ran before,
    and a test that breaks the quadrature or patches a series leaves no
    value behind."""
    for value in list(vars(field).values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()
