"""Entropies, Holevo information, and the classical capacity.

The channel is entanglement breaking, so its one-shot Holevo maximum is
its capacity (Shor 2002; Horodecki, Shor & Ruskai 2003), and
capacity_closed_form gives that maximum for every channel in the family.
A deterministic brute-force search is its independent oracle: it must
meet the closed form from below, never exceed it.  Being entanglement
breaking, each channel has zero unassisted quantum capacity.

The search runs on the signal amplitude theta in [-1, 1], not on the
Bloch sphere: the channel is affine in theta, so an ensemble's Holevo
information depends on its members only through their theta values and
probabilities.  The output entropy g(theta) is concave (entropy is
concave, the map affine), so the best members for a mean theta are -1
and +1, and a ternary search for g's height above their chord finds the
best mean on a grid.  The search does not assume that g is even, as the
closed form does.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import channel as _channel
from .channel import ChannelParams, QubitState
from .errors import ConsistencyError

LN2 = math.log(2.0)
CLOSED_FORM_SLACK = 1e-9


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


def _h(u: float) -> float:
    """h(u) = binary_entropy(1/2 + u / 2) bit for bit, for a length u >= 0."""
    x = 0.5 + 0.5 * u
    if not x < 1.0:
        if x <= 1.0 + 1e-12:
            return 0.0
        raise ValueError(f"binary_entropy argument {x!r} outside [0, 1]")
    return -(x * math.log(x) + (1.0 - x) * math.log1p(-x)) / LN2


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
    closed form.  nu_eff is the coherence w = nu_b * r_perp of
    capacity_and_nu_eff, the part of Bob's Bloch vector that the channel
    contracts and the signal rotates.  iterations counts the search's
    entropy evaluations: one per theta grid point it visits, and one Holevo
    evaluation of the ensemble found.
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
    """Holevo information of the ensemble through the channel, in bits: the
    entropy of apply's output for the average input, less the mean entropy
    of the members' outputs, each h(r) of its Bloch length r."""
    mean_member_entropy = sum(
        p * _h(_channel.apply(params, s).r) for p, s in ens.members if p > 0.0
    )
    return _h(_channel.apply(params, ens.average_state()).r) - mean_member_entropy


def bob_lengths(phase_b: float, bob: QubitState) -> tuple[float, float]:
    """(p, r_perp): the two lengths of Bob's Bloch vector that the channel sees.

    With v = (x, y, z) Bob's bloch_on_ball, as ChannelParams reads it,
    p = x cos(phase_b) - y sin(phase_b) is the component along Bob's flip
    axis, which passes unchanged; the rest, of length
    r_perp = min(sqrt(|v|^2 - p^2), 1), is contracted by nu_b and turned by
    the signal.  No coupling enters, so a sweep takes them once per Bob.
    """
    x, y, z = bob.bloch_on_ball
    p = x * math.cos(phase_b) - y * math.sin(phase_b)
    return p, min(math.sqrt(max(x * x + y * y + z * z - p * p, 0.0)), 1.0)


def capacity_and_nu_eff(nu_b: float, delta_ab: float, p: float, r_perp: float) -> tuple[float, float]:
    """(C, w) from Bob's bob_lengths (p, r_perp): per coupling only the
    contraction and two entropies.

    C = h(hypot(p, w |cos 2 delta|)) - h(hypot(p, w)) with h(u) =
    H(1/2 + u / 2), and w = nu_b r_perp (nu_eff) is the coherence that the
    channel contracts and the signal turns; Bob's output at amplitude theta
    has length hypot(p, w sqrt(cos^2 2 delta + theta^2 sin^2 2 delta)).
    nu_b = 0 is admitted as the underflow image of very strong coupling.

    Precision limit: C reads delta_ab only through cos 2 delta, and the
    rounding of delta_ab moves 2 delta by up to ulp(delta_ab), about
    2.2e-16 |delta_ab|.  So C's error grows as about 1e-16 |delta_ab|:
    against an 80-digit reference on the Fig-1 geometry, |Delta C| reached
    1.0e-6 for |delta_ab| in [1e8, 1e10) and 2.3e-4 in [1e10, 1e12).  Past
    about 1e16, where ulp(delta_ab) exceeds pi, cos 2 delta keeps no digit,
    and C is a value in [0, 1] set by the rounding of delta_ab alone.  No
    error is raised (ROADMAP.md's "Every column to a stated accuracy" item
    plans a refusal): at lambda_B = 1 and L = dtau = 6, lambda_A = 1e300 gives
    delta_ab = 5.3e297 and C = 0.353.
    """
    if not -1e-12 <= nu_b <= 1.0 + 1e-12:
        raise ValueError(f"nu_b = {nu_b!r} outside [0, 1]")
    if not math.isfinite(delta_ab):
        raise ValueError("delta_ab must be finite")
    w = min(max(nu_b, 0.0), 1.0) * r_perp
    c = _h(math.hypot(p, w * abs(math.cos(2.0 * delta_ab)))) - _h(math.hypot(p, w))
    if c < -1e-12:
        raise ConsistencyError(f"closed-form capacity came out negative: {c!r}")
    return max(c, 0.0), w


def capacity_closed_form(nu_b: float, delta_ab: float, phase_b: float, bob: QubitState) -> float:
    """Classical capacity in bits of the channel with these four inputs:
    capacity_and_nu_eff applied to bob_lengths(phase_b, bob).

    ChannelParams makes base orthogonal to slope, so the output entropy
    g(theta) is even as well as concave, and the inputs theta = -1 and +1
    with weights 1/2 are optimal: C = g(0) - g(1).
    """
    return capacity_and_nu_eff(nu_b, delta_ab, *bob_lengths(phase_b, bob))[0]


def tune_bob_phase(bob: QubitState) -> float:
    """The switch phase for Bob that maximizes the capacity.

    Solves cos(alpha) = -y/h, sin(alpha) = x/h with h = sqrt(x^2 + y^2) and
    returns pi - alpha (the n = 1 branch of phase + alpha = n pi).  That
    zeroes p of bob_lengths, so all of Bob's Bloch vector carries the
    signal, w = nu_b r_b, and capacity_closed_form is at its maximum over
    phase_b (the paper's optimality claim; the tests scan phases for it).
    A state with x = y = 0 has nothing to tune; returns 0.0.
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


def capacity_bruteforce(params: ChannelParams) -> CapacityResult:
    """Maximize Holevo information over ensembles of pure inputs on a theta grid.

    With g(theta) the entropy of Bob's output at amplitude theta, an
    ensemble's Holevo information is g(mean theta) - sum p g(theta_m).  g
    is concave, so at a given mean the least sum p g lies on the chord
    between theta = -1 and +1.  The search takes the grid point theta_k
    where g stands highest above that chord, with members -1 and +1
    weighted to the mean theta_k (one member if theta_k is an end).

    That height is concave in k, so a ternary search on the grid finds it
    from about two dozen entropies: of the two points a third in from the
    bracket's ends, the lower drops its outer third, and on a tie the
    upper does, keeping a full scan's first maximum.  Comparing distant
    points, it stays near the top where g is flat to rounding.
    """
    (bx, by, bz), (sx, sy, sz) = params.base, params.slope
    last = THETA_POINTS - 1

    @functools.cache
    def entropy(i: int) -> float:
        t = -1.0 + 2.0 * i / last
        x, y, z = bx + t * sx, by + t * sy, bz + t * sz
        return _h(math.sqrt(x * x + y * y + z * z))

    rise = (entropy(last) - entropy(0)) / 2.0

    def above_chord(i: int) -> float:
        # numpy.interp's chord, exact at both ends
        return entropy(i) - (entropy(last) if i == last else rise * (2.0 * i / last) + entropy(0))

    lo, hi = 0, last
    while hi - lo > 2:
        third = (hi - lo) // 3
        if above_chord(lo + third) < above_chord(hi - third):
            lo += third + 1
        else:
            hi -= third + 1
    k = max(range(lo, hi + 1), key=above_chord)
    t = -1.0 + 2.0 * k / last
    if k in (0, last):
        members = ((1.0, t),)
    else:
        members = ((0.5 - 0.5 * t, -1.0), (0.5 + 0.5 * t, 1.0))

    cos_a, sin_a = math.cos(params.phase_a), math.sin(params.phase_a)
    ensemble = Ensemble(tuple(
        (p, QubitState(t * cos_a, t * sin_a, math.sqrt(1.0 - t * t))) for p, t in members
    ))
    # report the honest route through channel.apply, not the search's arithmetic
    c_bruteforce = holevo_chi(params, ensemble)

    stats = params.stats
    c_closed, nu_eff = capacity_and_nu_eff(stats.nu_b, stats.delta_ab,
                                           *bob_lengths(params.phase_b, params.bob_initial))
    return CapacityResult(
        c_closed=c_closed,
        c_bruteforce=c_bruteforce,
        best_ensemble=ensemble,
        q_ea_lower=c_closed / 2.0,
        nu_eff=nu_eff,
        iterations=entropy.cache_info().currsize + 1,
        gap=abs(c_closed - c_bruteforce),
    )
