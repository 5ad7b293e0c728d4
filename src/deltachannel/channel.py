"""The qubit-to-qubit channel induced by one delta-switched detector pair.

The field reaches the channel only through a = nu_b cos(2 delta_ab) and
b = nu_b sin(2 delta_ab), and Alice's input only through the signal
amplitude theta.  ChannelParams builds the channel's affine Bloch map,
v(theta) = base + theta * slope, once from those.  Inputs and outputs
are both QubitState: apply returns Bob's output as the state with Bloch
vector v, and its eigenvalues 0.5 +- |v| / 2 and the Choi spectrum derive
from that vector.  The correlator route (weyl) and operator composition
(the tests) are independent oracles for the map.  output_bloch_affine and
choi_matrix build numpy arrays for the tests; no command calls them.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .field import FieldStatistics

if TYPE_CHECKING:
    import numpy as np

BLOCH_TOL = 1e-12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitState:
    """A qubit state as a Bloch vector (x, y, z), |r|^2 <= 1 + BLOCH_TOL.

    The one state type: Alice's input, Bob's prepared state and Bob's
    channel output alike.
    """

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
    def bloch_on_ball(self) -> tuple[float, float, float]:
        """The Bloch vector, moved onto the unit sphere from past it."""
        if self.norm_sq <= 1.0:
            return self.bloch
        scale = 1.0 / math.sqrt(self.norm_sq)
        return self.x * scale, self.y * scale, self.z * scale

    @property
    def r(self) -> float:
        """Bloch vector length, clipped into [0, 1]."""
        return min(math.sqrt(self.norm_sq), 1.0)

    @property
    def eigenvalues(self) -> tuple[float, float]:
        """(p_plus, p_minus) = 0.5 +- r / 2, the spectrum of the density
        matrix (I + x X + y Y + z Z) / 2."""
        return (0.5 + 0.5 * self.r, 0.5 - 0.5 * self.r)


@dataclass(frozen=True)
class ChannelParams:
    """Everything the channel depends on: field statistics, the two switch
    phases Omega_j * tau_j0, and Bob's prepared state.

    Construction derives the affine Bloch map: an input with signal
    amplitude theta leaves Bob at base + theta * slope.  Bob's flip operator
    cos(phase_b) X - sin(phase_b) Y has axis n = (cos, -sin, 0): the
    component of Bob's Bloch vector v along n passes unchanged, the rest
    contracts by a, and the signal adds theta * b * (n x v).  A Bob state
    that QubitState admits past the unit sphere, |v|^2 in (1, 1 + BLOCH_TOL],
    is moved onto it (bloch_on_ball) first, so every output is a QubitState too.
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
        x, y, z = self.bob_initial.bloch_on_ball
        kept = (1.0 - a) * (x * c - y * s)
        for name, value in (
            ("a", a),
            ("b", b),
            ("base", (a * x + kept * c, a * y - kept * s, a * z)),
            ("slope", (-b * s * z, -b * c * z, b * (x * s + y * c))),
        ):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def theta(state: QubitState, phase_a: float) -> float:
    """Alice-side signal amplitude: x cos(phase) + y sin(phase), clipped into
    [-1, 1] as QubitState.r is, so that a state past the unit sphere within
    BLOCH_TOL carries Bob no further out than a pure one."""
    return max(-1.0, min(state.x * math.cos(phase_a) + state.y * math.sin(phase_a), 1.0))


def apply(params: ChannelParams, alice_in: QubitState) -> QubitState:
    """Send alice_in through the channel defined by params: Bob's output,
    the state with Bloch vector base + theta * slope."""
    th = theta(alice_in, params.phase_a)
    return QubitState(*(b + th * s for b, s in zip(params.base, params.slope)))


def output_bloch_affine(params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """Affine decomposition of the channel in the signal amplitude.

    Returns Bloch vectors (base, slope) such that the output of any input
    with theta(input, phase_a) = t has Bloch vector base + t * slope.
    This is what makes ensemble searches cheap: members only matter
    through their theta values.
    """
    import numpy as np

    return np.array(params.base), np.array(params.slope)


def choi_matrix(params: ChannelParams) -> np.ndarray:
    """Choi matrix of the channel on the canonical maximally entangled state.

    The channel is affine in theta, so its action on a general operator X
    is tr(X) T0 + theta(X) T1 with T0 = (I + base . sigma) / 2 the theta = 0
    output and T1 = slope . sigma / 2; theta extends complex-linearly to
    off-diagonal units.  The matrix is (1/2)[T0 x I + T1 x P] with
    P = e^{i phase_a} |0><1| + h.c., of eigenvalues +-1, so its own are
    (1 +- |base +- slope|) / 4; its partial transpose, P at -phase_a, has
    the same, so the channel is PPT exactly when it is CP.
    """
    import numpy as np

    def half_pauli(c, x, y, z):
        return 0.5 * np.array([[c + z, complex(x, -y)], [complex(x, y), c - z]])

    phase = cmath.exp(1j * params.phase_a)
    flip = np.array([[0.0, phase], [phase.conjugate(), 0.0]])
    return 0.5 * (np.kron(half_pauli(1.0, *params.base), np.eye(2))
                  + np.kron(half_pauli(0.0, *params.slope), flip))
