"""The qubit-to-qubit channel induced by one delta-switched detector pair.

The field reaches the channel only through a = nu_b cos(2 delta_ab) and
b = nu_b sin(2 delta_ab), and Alice's input only through the signal
amplitude theta.  ChannelParams builds the channel's affine Bloch map,
v(theta) = base + theta * slope, once from those; the output state, its
eigenvalues 0.5 +- |v| / 2 and the Choi matrix all derive from it.  The
correlator route (weyl) and operator composition (the tests) are
independent oracles for the map; direct diagonalization checks the
eigenvalues on demand.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .field import FieldStatistics

BLOCH_TOL = 1e-12
EIGEN_MATCH_TOL = 1e-12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitState:
    """A qubit state as a Bloch vector (x, y, z), |r| <= 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("Bloch components must be finite")
        if self.norm_sq > 1.0 + BLOCH_TOL:
            raise ValueError(f"Bloch vector ({self.x}, {self.y}, {self.z}) leaves the unit ball")

    @property
    def bloch(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @property
    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    @property
    def r(self) -> float:
        """Bloch vector length, clipped into [0, 1]."""
        return min(math.sqrt(self.norm_sq), 1.0)

    @classmethod
    def pure(cls, polar: float, azimuth: float) -> "QubitState":
        st = math.sin(polar)
        return cls(st * math.cos(azimuth), st * math.sin(azimuth), math.cos(polar))

    def density_matrix(self) -> np.ndarray:
        return np.array(
            [
                [0.5 * (1.0 + self.z), 0.5 * complex(self.x, -self.y)],
                [0.5 * complex(self.x, self.y), 0.5 * (1.0 - self.z)],
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class ChannelParams:
    """Everything the channel depends on: field statistics, the two switch
    phases Omega_j * tau_j0, and Bob's prepared state.

    Construction derives the affine Bloch map: an input with signal
    amplitude theta leaves Bob at base + theta * slope.  Bob's flip operator
    cos(phase_b) X - sin(phase_b) Y has axis n = (cos, -sin, 0): the
    component of Bob's Bloch vector v along n passes unchanged, the rest
    contracts by a, and the signal adds theta * b * (n x v).
    """

    stats: FieldStatistics
    phase_a: float
    phase_b: float
    bob_initial: QubitState
    a: float = field(init=False, repr=False, compare=False)
    b: float = field(init=False, repr=False, compare=False)
    base: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    slope: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.phase_a) and math.isfinite(self.phase_b)):
            raise ValueError("phases must be finite")
        two_delta = 2.0 * self.stats.delta_ab
        a = self.stats.nu_b * math.cos(two_delta)
        b = self.stats.nu_b * math.sin(two_delta)
        c, s = math.cos(self.phase_b), math.sin(self.phase_b)
        x, y, z = self.bob_initial.bloch
        kept = (1.0 - a) * (x * c - y * s)
        for name, value in (
            ("a", a),
            ("b", b),
            ("base", (a * x + kept * c, a * y - kept * s, a * z)),
            ("slope", (-b * s * z, -b * c * z, b * (x * s + y * c))),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ChannelOutput:
    """Bob's post-channel state, Hermitian by construction.

    r11 and r22 are stored real and r12 complex, so a Hermiticity defect
    cannot hide behind symmetrization.  eigenvalues = (p_plus, p_minus)
    from the closed form.
    """

    r11: float
    r12: complex
    r22: float
    eigenvalues: tuple[float, float]

    def __post_init__(self):
        p_plus, p_minus = self.eigenvalues
        if abs(self.r11 + self.r22 - 1.0) > BLOCH_TOL:
            raise ConsistencyError(f"output trace {self.r11 + self.r22!r} != 1")
        if abs(p_plus + p_minus - 1.0) > BLOCH_TOL:
            raise ConsistencyError(f"eigenvalues {self.eigenvalues!r} do not sum to 1")
        if p_minus < -BLOCH_TOL or p_plus < p_minus:
            raise ConsistencyError(f"eigenvalues {self.eigenvalues!r} not PSD-ordered")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.r11, self.r12], [self.r12.conjugate(), self.r22]], dtype=complex
        )

    @property
    def bloch(self) -> tuple[float, float, float]:
        return (2.0 * self.r12.real, -2.0 * self.r12.imag, self.r11 - self.r22)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def theta(state: QubitState, phase_a: float) -> float:
    """Alice-side signal amplitude: x cos(phase) + y sin(phase), in [-1, 1]."""
    return state.x * math.cos(phase_a) + state.y * math.sin(phase_a)


def _output(v) -> ChannelOutput:
    """The state with Bloch vector v; its eigenvalues are 0.5 +- |v| / 2."""
    x, y, z = v
    half_gap = 0.5 * min(math.sqrt(x * x + y * y + z * z), 1.0)
    return ChannelOutput(
        r11=0.5 * (1.0 + z),
        r12=0.5 * complex(x, -y),
        r22=0.5 * (1.0 - z),
        eigenvalues=(0.5 + half_gap, 0.5 - half_gap),
    )


def apply(params: ChannelParams, alice_in: QubitState) -> ChannelOutput:
    """Send alice_in through the channel defined by params."""
    th = theta(alice_in, params.phase_a)
    return _output([b + th * s for b, s in zip(params.base, params.slope)])


def eigenvalues_analytic(params: ChannelParams, alice_in: QubitState) -> tuple[float, float]:
    """Closed-form output eigenvalues, cross-checked against diagonalization."""
    out = apply(params, alice_in)
    numeric = np.linalg.eigvalsh(out.matrix)
    p_plus, p_minus = out.eigenvalues
    mismatch = max(abs(p_plus - numeric[1]), abs(p_minus - numeric[0]))
    if mismatch > EIGEN_MATCH_TOL:
        raise ConsistencyError(
            f"analytic eigenvalues {out.eigenvalues!r} disagree with "
            f"diagonalization {tuple(numeric)!r} by {mismatch:.3e}"
        )
    return out.eigenvalues


def output_bloch_affine(params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """Affine decomposition of the channel in the signal amplitude.

    Returns Bloch vectors (base, slope) such that the output of any input
    with theta(input, phase_a) = t has Bloch vector base + t * slope.
    This is what makes ensemble searches cheap: members only matter
    through their theta values.
    """
    return np.array(params.base), np.array(params.slope)


def choi_matrix(params: ChannelParams) -> np.ndarray:
    """Choi matrix of the channel on the canonical maximally entangled state.

    The channel is affine in theta, so its action on a general operator X
    is tr(X) T0 + theta(X) T1 with T0 the theta = 0 output and
    T1 = slope . sigma / 2; theta extends complex-linearly to off-diagonal
    units.
    """
    t0 = _output(params.base).matrix
    sx, sy, sz = params.slope
    t1 = 0.5 * np.array([[sz, complex(sx, -sy)], [complex(sx, sy), -sz]])
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    e10 = e01.T.copy()
    phase = cmath.exp(1j * params.phase_a)
    choi = 0.5 * (
        np.kron(t0, np.eye(2, dtype=complex))
        + np.kron(t1, phase * e01 + phase.conjugate() * e10)
    )
    return choi
