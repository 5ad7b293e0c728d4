"""Entropies, Holevo information, and the classical capacity.

The closed-form capacity is exact for this channel family: it is
entanglement breaking, so the one-shot Holevo maximum is the capacity
(Shor 2002; Horodecki, Shor & Ruskai 2003).  A deterministic brute-force
search serves as an independent oracle: it must approach the closed form
from below, never exceed it.

The search runs on the signal amplitude theta in [-1, 1], not on the
Bloch sphere.  The channel is affine in theta: every input with amplitude
theta leaves Bob at base + theta * slope.  So an ensemble's Holevo
information depends on its members only through their theta values and
probabilities, and a pure member per theta covers every ensemble.  On a
line two members suffice, and one scan of the lower convex envelope of
the output entropy over a theta grid finds the best pair on that grid.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from .channel import ChannelParams, QubitState
from .errors import ConsistencyError

LN2 = math.log(2.0)
CLOSED_FORM_SLACK = 1e-9

#: Unassisted quantum capacity of every channel in this family.  The
#: channels are entanglement breaking (see the Choi PPT certification in
#: the tests), and entanglement-breaking channels carry no quantum
#: information without assistance.
UNASSISTED_QUANTUM_CAPACITY = 0.0


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with 0 log 0 = 0."""
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError(f"binary_entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log1p(-x)) / LN2


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits of a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-8 or np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("not a density matrix: trace or Hermiticity off")
    evals = np.linalg.eigvalsh(rho)
    if evals[0] < -1e-9:
        raise ValueError(f"not a density matrix: eigenvalue {evals[0]!r} < 0")
    return binary_entropy(min(max(float(evals[1]), 0.0), 1.0))


# ---------------------------------------------------------------------------
# ensembles and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """A finite input ensemble {(p_m, state_m)} of at least one member."""

    members: tuple[tuple[float, QubitState], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        total = 0.0
        for p, _ in self.members:
            if not (math.isfinite(p) and p >= 0.0):
                raise ValueError(f"probability {p!r} invalid")
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def average_state(self) -> QubitState:
        x = sum(p * s.x for p, s in self.members)
        y = sum(p * s.y for p, s in self.members)
        z = sum(p * s.z for p, s in self.members)
        return QubitState(x, y, z)


@dataclass(frozen=True)
class CapacityResult:
    """Closed-form capacity next to its brute-force estimate.

    q_ea_lower is the entanglement-assisted lower bound, exactly half the
    closed form.  iterations counts the search's entropy evaluations: one
    per theta grid point, and one Holevo evaluation of the ensemble found.
    """

    c_closed: float
    c_bruteforce: float
    best_ensemble: Ensemble
    q_ea_lower: float
    nu_eff: float
    iterations: int
    gap: float

    def __post_init__(self):
        if not 0.0 <= self.c_closed <= 1.0:
            raise ConsistencyError(f"c_closed = {self.c_closed!r} outside [0, 1]")
        if self.c_bruteforce > self.c_closed + CLOSED_FORM_SLACK:
            raise ConsistencyError(
                f"brute force {self.c_bruteforce!r} exceeds the closed form "
                f"{self.c_closed!r}: the closed form is proven optimal"
            )
        if self.q_ea_lower != self.c_closed / 2.0:
            raise ConsistencyError("q_ea_lower must equal c_closed / 2 exactly")


# ---------------------------------------------------------------------------
# Holevo information and the closed form
# ---------------------------------------------------------------------------

def holevo_chi(params: ChannelParams, ens: Ensemble) -> float:
    """Holevo information of the ensemble through the channel, in bits."""
    avg_out = _channel.apply(params, ens.average_state())
    mean_member_entropy = sum(
        p * von_neumann_entropy(_channel.apply(params, s).matrix)
        for p, s in ens.members
        if p > 0.0
    )
    return von_neumann_entropy(avg_out.matrix) - mean_member_entropy


def capacity_closed_form(nu_b: float, r_b: float, delta_ab: float) -> float:
    """Classical capacity in bits.

    C = H(1/2 + w |cos 2 delta| / 2) - H(1/2 + w / 2) with w = nu_b * r_b.
    nu_b = 0 is admitted as the underflow image of very strong coupling.
    """
    if not -1e-12 <= nu_b <= 1.0 + 1e-12:
        raise ValueError(f"nu_b = {nu_b!r} outside [0, 1]")
    if not -1e-12 <= r_b <= 1.0 + 1e-12:
        raise ValueError(f"r_b = {r_b!r} outside [0, 1]")
    if not math.isfinite(delta_ab):
        raise ValueError("delta_ab must be finite")
    w = min(max(nu_b, 0.0), 1.0) * min(max(r_b, 0.0), 1.0)
    c = binary_entropy(0.5 + 0.5 * w * abs(math.cos(2.0 * delta_ab))) - binary_entropy(
        0.5 + 0.5 * w
    )
    if c < -1e-12:
        raise ConsistencyError(f"closed-form capacity came out negative: {c!r}")
    return max(c, 0.0)


def tune_bob_phase(bob: QubitState) -> float:
    """A switch phase for Bob that zeroes the channel-invariant component.

    Solves cos(alpha) = -y/h, sin(alpha) = x/h with h = sqrt(x^2 + y^2) and
    returns pi - alpha (the n = 1 branch of phase + alpha = n pi).  With the
    equatorial component gone, the tuned capacity closed form nu_b -> nu_b r_b
    applies.  A state with x = y = 0 has nothing to tune; returns 0.0.
    """
    if bob.x == 0.0 and bob.y == 0.0:
        return 0.0
    alpha = math.atan2(bob.x, -bob.y)
    phase = math.pi - alpha
    p_inv = bob.x * math.cos(phase) - bob.y * math.sin(phase)
    if abs(p_inv) >= 1e-12:
        raise ConsistencyError(f"tuned phase left invariant component {p_inv!r}")
    return phase


# ---------------------------------------------------------------------------
# brute-force ensemble search
# ---------------------------------------------------------------------------

#: Points of the theta grid on [-1, 1], the search's only size: spacing
#: 2^-8, odd so that theta = -1, 0 and +1 lie on it.
THETA_POINTS = 513


def _output_entropy(base: np.ndarray, slope: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Bits of entropy of Bob's output H(1/2 + |v| / 2), v = base + theta * slope, per theta."""
    v = base + thetas[:, None] * slope
    half = 0.5 * np.minimum(np.sqrt(np.sum(v * v, axis=1)), 1.0)
    hi, lo = 0.5 + half, 0.5 - half
    return -(hi * np.log(hi) + lo * np.log(np.where(lo > 0.0, lo, 1.0))) / LN2


def _lower_hull(xs: list[float], ys: list[float]) -> list[int]:
    """Indices of the lower convex hull of points sorted by x, left to right,
    by Andrew's monotone chain (IPL 9 (1979) 216); collinear points drop."""
    hull: list[int] = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (xs[j] - xs[i]) * (y - ys[i]) - (ys[j] - ys[i]) * (x - xs[i]) > 0.0:
                break
            hull.pop()
        hull.append(k)
    return hull


def capacity_bruteforce(params: ChannelParams) -> CapacityResult:
    """Maximize Holevo information over ensembles of pure inputs on a theta grid.

    With g(theta) the entropy of Bob's output at amplitude theta, an
    ensemble's Holevo information is g(mean theta) - sum p g(theta_m).  At a
    given mean the least sum p g is the lower convex envelope of g there,
    reached by two members (Caratheodory in one dimension).  So the search
    evaluates g on THETA_POINTS grid amplitudes, builds the envelope, and
    takes the grid point where g stands highest above it, with the two
    envelope vertices around that point as members, weighted so that their
    mean is the point's theta (one member if the point is a vertex).  It
    assumes nothing about g, so the result is the global maximum on the grid.
    """
    base, slope = _channel.output_bloch_affine(params)
    grid = np.linspace(-1.0, 1.0, THETA_POINTS)
    g = _output_entropy(base, slope, grid)
    thetas = grid.tolist()
    hull = _lower_hull(thetas, g.tolist())
    k = int(np.argmax(g - np.interp(grid, grid[hull], g[hull])))
    pos = bisect.bisect_left(hull, k)
    if hull[pos] == k:
        members = ((1.0, thetas[k]),)
    else:
        i, j = hull[pos - 1], hull[pos]
        p_i = (thetas[j] - thetas[k]) / (thetas[j] - thetas[i])
        members = ((p_i, thetas[i]), (1.0 - p_i, thetas[j]))

    cos_a, sin_a = math.cos(params.phase_a), math.sin(params.phase_a)
    ensemble = Ensemble(tuple(
        (p, QubitState(t * cos_a, t * sin_a, math.sqrt(1.0 - t * t))) for p, t in members
    ))
    # report the honest route through channel.apply, not the search's arithmetic
    c_bruteforce = holevo_chi(params, ensemble)

    stats = params.stats
    c_closed = capacity_closed_form(stats.nu_b, params.bob_initial.r, stats.delta_ab)
    return CapacityResult(
        c_closed=c_closed,
        c_bruteforce=c_bruteforce,
        best_ensemble=ensemble,
        q_ea_lower=c_closed / 2.0,
        nu_eff=stats.nu_b * params.bob_initial.r,
        iterations=THETA_POINTS + 1,
        gap=abs(c_closed - c_bruteforce),
    )
