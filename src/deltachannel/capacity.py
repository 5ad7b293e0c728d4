"""Entropies, Holevo information, and the classical capacity.

The closed-form capacity is exact for this channel family: it is
entanglement breaking, so the one-shot Holevo maximum is the capacity
(Shor 2002; Horodecki, Shor & Ruskai 2003).  A deterministic brute-force
ensemble optimizer serves as an independent oracle: it must approach the
closed form from below, never exceed it.

The optimizer searches on the signal amplitude theta in [-1, 1], not on
the Bloch sphere.  The channel is affine in theta: every input with
amplitude theta leaves Bob at base + theta * slope.  So an ensemble's
Holevo information depends on its members only through their theta values
and probabilities, and a pure member per theta covers every ensemble.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from .channel import ChannelParams, QubitState
from .errors import ConsistencyError

LN2 = math.log(2.0)
M_MAX = 4
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
    """A finite input ensemble {(p_m, state_m)} with at most M_MAX members."""

    members: tuple[tuple[float, QubitState], ...]

    def __post_init__(self):
        if not 1 <= len(self.members) <= M_MAX:
            raise ValueError(f"ensemble size must be in [1, {M_MAX}], got {len(self.members)}")
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
    closed form.  iterations counts Holevo evaluations spent by the search.
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

#: Fixed search sizes: points of the coarse theta grid on [-1, 1], the
#: denominator of the probability grid, and rounds of halved local steps.
THETA_POINTS = 65
PROB_DENOMINATOR = 16
REFINE_ROUNDS = 3


def _compositions(total: int, parts: int) -> np.ndarray:
    """Rows of `parts` nonnegative integers summing to `total`, lexicographically."""
    heads = np.indices((total + 1,) * (parts - 1)).reshape(parts - 1, -1).T
    heads = heads[heads.sum(axis=1) <= total]
    return np.column_stack([heads, total - heads.sum(axis=1)])


_THETA_GRID = np.linspace(-1.0, 1.0, THETA_POINTS)
_PROB_GRID = _compositions(PROB_DENOMINATOR, M_MAX) / PROB_DENOMINATOR
# local moves: one member's theta up or down; weight from one member to another
_THETA_MOVES = np.vstack([np.eye(M_MAX), -np.eye(M_MAX)])
_PROB_MOVES = (np.eye(M_MAX)[:, None] - np.eye(M_MAX)[None, :])[~np.eye(M_MAX, dtype=bool)]


def _chi(base: np.ndarray, slope: np.ndarray, probs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Holevo information in bits of each row's ensemble of pure inputs.

    Row k has probabilities probs[k] and signal amplitudes thetas[k].  An
    input with amplitude theta leaves Bob at v = base + theta * slope, of
    entropy H(1/2 + |v| / 2), and the average input at the average theta.
    """
    def entropy(theta):
        v = base + theta[..., None] * slope
        half = 0.5 * np.minimum(np.sqrt(np.sum(v * v, axis=-1)), 1.0)
        hi, lo = 0.5 + half, 0.5 - half
        return -(hi * np.log(hi) + lo * np.log(np.where(lo > 0.0, lo, 1.0))) / LN2

    return entropy(np.sum(probs * thetas, axis=-1)) - np.sum(probs * entropy(thetas), axis=-1)


def capacity_bruteforce(params: ChannelParams) -> CapacityResult:
    """Maximize Holevo information over ensembles of M_MAX pure inputs.

    Coordinate descent on the members' theta values and probabilities from
    a start fixed independently of the channel (all theta = 0, equal
    weights): each member's theta over a fixed grid, then the probabilities
    over the compositions of PROB_DENOMINATOR, until neither improves; then
    REFINE_ROUNDS rounds of local steps, halved each round.  Each step
    scores all its candidates in one call and moves only on a strict
    improvement, the first best candidate winning, so the result is
    deterministic.
    """
    base, slope = _channel.output_bloch_affine(params)
    probs = np.full(M_MAX, 1.0 / M_MAX)
    thetas = np.zeros(M_MAX)
    best = _chi(base, slope, probs, thetas)
    evaluations = 1

    def climb(cand_probs, cand_thetas) -> bool:
        """Move to the best candidate row if it beats the incumbent."""
        nonlocal probs, thetas, best, evaluations
        cand_probs, cand_thetas = np.broadcast_arrays(cand_probs, cand_thetas)
        values = _chi(base, slope, cand_probs, cand_thetas)
        evaluations += len(values)
        k = int(np.argmax(values))
        if not values[k] > best:
            return False
        best, probs, thetas = values[k], cand_probs[k].copy(), cand_thetas[k].copy()
        return True

    improved = True
    while improved:
        improved = False
        for i in range(M_MAX):
            trial = np.tile(thetas, (THETA_POINTS, 1))
            trial[:, i] = _THETA_GRID
            improved |= climb(probs, trial)
        improved |= climb(_PROB_GRID, thetas)

    theta_step = 2.0 / (THETA_POINTS - 1)
    prob_step = 1.0 / PROB_DENOMINATOR
    for _ in range(REFINE_ROUNDS):
        theta_step *= 0.5
        prob_step *= 0.5
        improved = True
        while improved:
            improved = climb(probs, np.clip(thetas + theta_step * _THETA_MOVES, -1.0, 1.0))
            moved = probs + prob_step * _PROB_MOVES
            improved |= climb(moved[(moved >= 0.0).all(axis=1)], thetas)

    cos_a, sin_a = math.cos(params.phase_a), math.sin(params.phase_a)
    ensemble = Ensemble(tuple(
        (p, QubitState(t * cos_a, t * sin_a, math.sqrt(1.0 - t * t)))
        for p, t in zip(probs.tolist(), thetas.tolist())
    ))
    # report the honest route through channel.apply, not the search's arithmetic
    c_bruteforce = holevo_chi(params, ensemble)
    evaluations += 1

    stats = params.stats
    c_closed = capacity_closed_form(stats.nu_b, params.bob_initial.r, stats.delta_ab)
    return CapacityResult(
        c_closed=c_closed,
        c_bruteforce=c_bruteforce,
        best_ensemble=ensemble,
        q_ea_lower=c_closed / 2.0,
        nu_eff=stats.nu_b * params.bob_initial.r,
        iterations=evaluations,
        gap=abs(c_closed - c_bruteforce),
    )
