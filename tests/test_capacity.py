"""Capacity: entropies, the closed form, phase tuning, the brute-force oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltachannel.capacity import (
    UNASSISTED_QUANTUM_CAPACITY,
    CapacityResult,
    Ensemble,
    binary_entropy,
    capacity_bruteforce,
    capacity_closed_form,
    holevo_chi,
    tune_bob_phase,
    von_neumann_entropy,
)
from deltachannel.channel import ChannelParams, QubitState, apply
from deltachannel.errors import ConsistencyError
from deltachannel.field import (
    FieldStatistics,
    PairGeometry,
    SmearingSpec,
    assemble_statistics,
)
from deltachannel.selftest import random_bloch, random_statistics

H_09 = 0.4689955935892811  # binary_entropy(0.9), frozen from direct evaluation

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_binary_entropy_anchor_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert np.isclose(binary_entropy(0.9), H_09, rtol=1e-15, atol=0.0)


@given(x=probabilities)
def test_binary_entropy_symmetric(x):
    assert np.isclose(binary_entropy(x), binary_entropy(1.0 - x), rtol=0.0, atol=1e-13)
    assert 0.0 <= binary_entropy(x) <= 1.0


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    # the closed interval edge with roundoff slack is accepted
    assert binary_entropy(1.0 + 1e-13) == 0.0


def test_von_neumann_entropy_anchors():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert np.isclose(von_neumann_entropy(np.eye(2) / 2.0), 1.0, rtol=0.0, atol=1e-12)
    mixed = np.diag([0.9, 0.1])
    assert np.isclose(von_neumann_entropy(mixed), H_09, rtol=1e-12, atol=0.0)


def test_von_neumann_entropy_validation():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0.5, 0.4], [0.1, 0.5]]))


# ---------------------------------------------------------------------------
# ensembles and Holevo information
# ---------------------------------------------------------------------------

def test_ensemble_validation():
    up = QubitState(0.0, 0.0, 1.0)
    down = QubitState(0.0, 0.0, -1.0)
    ens = Ensemble(members=((0.5, up), (0.5, down)))
    assert ens.average_state().bloch == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Ensemble(members=((0.7, up), (0.7, down)))
    with pytest.raises(ValueError):
        Ensemble(members=((-0.1, up), (1.1, down)))
    with pytest.raises(ValueError):
        Ensemble(members=())


def test_holevo_chi_zero_for_degenerate_ensembles(rng):
    stats = FieldStatistics(nu_a=0.9, nu_b=0.7, nu_ab_plus=0.6,
                            nu_ab_minus=0.65, delta_ab=0.8)
    params = ChannelParams(stats=stats, phase_a=0.3, phase_b=0.9,
                           bob_initial=QubitState(0.0, 0.0, 1.0))
    same = QubitState(1.0, 0.0, 0.0)
    ens = Ensemble(members=((0.5, same), (0.5, same)))
    assert abs(holevo_chi(params, ens)) <= 1e-14
    single = Ensemble(members=((1.0, QubitState(0.0, 1.0, 0.0)),))
    assert abs(holevo_chi(params, single)) <= 1e-14


def test_paper_ensemble_attains_the_closed_form():
    # antipodal inputs along (cos phase_a, sin phase_a, 0) with equal weights
    # reach the closed-form capacity through the honest Holevo route
    stats = assemble_statistics(
        SmearingSpec(coupling=10.0), SmearingSpec(coupling=1.0), PairGeometry(6.0, 6.0)
    )
    for phase_a in (0.0, 0.9, 2.4):
        bob = QubitState(0.0, 0.0, 1.0)
        params = ChannelParams(stats=stats, phase_a=phase_a, phase_b=0.0, bob_initial=bob)
        plus = QubitState(math.cos(phase_a), math.sin(phase_a), 0.0)
        minus = QubitState(-math.cos(phase_a), -math.sin(phase_a), 0.0)
        ens = Ensemble(members=((0.5, plus), (0.5, minus)))
        closed = capacity_closed_form(stats.nu_b, bob.r, stats.delta_ab)
        assert np.isclose(holevo_chi(params, ens), closed, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_zero_cases():
    assert capacity_closed_form(0.9, 1.0, 0.0) == 0.0
    assert capacity_closed_form(0.9, 0.0, 0.5) == 0.0
    assert capacity_closed_form(0.0, 1.0, 0.5) == 0.0


def test_closed_form_perfect_limit():
    # a noiseless flip channel read at the right angle carries one full bit
    assert np.isclose(capacity_closed_form(1.0, 1.0, math.pi / 4.0),
                      1.0, rtol=0.0, atol=1e-12)


def test_closed_form_monotone_in_preparation_radius():
    nu_b, delta = 0.8, 0.5
    values = [capacity_closed_form(nu_b, r, delta) for r in np.linspace(0.1, 1.0, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))


@given(nu_b=probabilities, r_b=probabilities,
       delta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_closed_form_is_a_capacity(nu_b, r_b, delta):
    c = capacity_closed_form(nu_b, r_b, delta)
    assert 0.0 <= c <= 1.0


def test_closed_form_domain():
    with pytest.raises(ValueError):
        capacity_closed_form(1.5, 1.0, 0.3)
    with pytest.raises(ValueError):
        capacity_closed_form(0.5, -0.5, 0.3)


# ---------------------------------------------------------------------------
# phase tuning
# ---------------------------------------------------------------------------

def test_tune_bob_phase_examples():
    assert tune_bob_phase(QubitState(1.0, 0.0, 0.0)) == math.pi / 2.0
    assert tune_bob_phase(QubitState(0.0, 1.0, 0.0)) == 0.0
    assert tune_bob_phase(QubitState(0.0, 0.0, 1.0)) == 0.0


def test_tune_bob_phase_zeroes_invariant_component(rng):
    for _ in range(100):
        v = rng.normal(size=2)
        v *= rng.uniform(0.1, 1.0) / float(np.linalg.norm(v))
        bob = QubitState(float(v[0]), float(v[1]), 0.0)
        phase = tune_bob_phase(bob)
        invariant = bob.x * math.cos(phase) - bob.y * math.sin(phase)
        assert abs(invariant) <= 1e-12


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def moderate_params() -> ChannelParams:
    stats = assemble_statistics(
        SmearingSpec(coupling=10.0), SmearingSpec(coupling=1.0), PairGeometry(6.0, 6.0)
    )
    return ChannelParams(stats=stats, phase_a=0.0, phase_b=0.0,
                         bob_initial=QubitState(0.0, 0.0, 1.0))


def test_bruteforce_reaches_closed_form_pure_bob():
    result = capacity_bruteforce(moderate_params())
    assert result.gap <= 2e-3
    assert result.c_bruteforce <= result.c_closed + 1e-9
    assert result.iterations > 0
    assert result.q_ea_lower == result.c_closed / 2.0


def test_bruteforce_mixed_bob_with_tuned_phase():
    stats = assemble_statistics(
        SmearingSpec(coupling=10.0), SmearingSpec(coupling=1.0), PairGeometry(6.0, 6.0)
    )
    bob = QubitState(0.5, 0.0, 0.0)
    params = ChannelParams(stats=stats, phase_a=0.0,
                           phase_b=tune_bob_phase(bob), bob_initial=bob)
    result = capacity_bruteforce(params)
    assert result.gap <= 2e-3
    assert result.c_bruteforce <= result.c_closed + 1e-9
    assert result.nu_eff == stats.nu_b * 0.5


def test_bruteforce_zero_signal_point():
    stats = assemble_statistics(
        SmearingSpec(coupling=10.0), SmearingSpec(coupling=1.0), PairGeometry(6.0, 0.0)
    )
    params = ChannelParams(stats=stats, phase_a=0.0, phase_b=0.0,
                           bob_initial=QubitState(0.0, 0.0, 1.0))
    result = capacity_bruteforce(params)
    assert result.c_closed == 0.0
    assert result.c_bruteforce <= 1e-6


def test_bruteforce_deterministic():
    first = capacity_bruteforce(moderate_params())
    second = capacity_bruteforce(moderate_params())
    assert first.c_bruteforce == second.c_bruteforce
    assert first.best_ensemble == second.best_ensemble
    assert first.iterations == second.iterations


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       phase_a=st.floats(min_value=-7.0, max_value=7.0),
       phase_b=st.floats(min_value=-7.0, max_value=7.0))
def test_bruteforce_stays_under_the_closed_form_on_random_channels(seed, phase_a, phase_b):
    # mixed Bob, phase_b untuned: the closed form is still an upper bound
    rng = np.random.default_rng(seed)
    params = ChannelParams(stats=random_statistics(rng), phase_a=phase_a,
                           phase_b=phase_b, bob_initial=random_bloch(rng))
    result = capacity_bruteforce(params)  # raises ConsistencyError on an overshoot
    assert result.c_bruteforce <= result.c_closed + 1e-9
    assert abs(holevo_chi(params, result.best_ensemble) - result.c_bruteforce) <= 1e-12
    for _, member in result.best_ensemble.members:
        assert abs(member.norm_sq - 1.0) <= 1e-12


def _pure(theta: float, phase_a: float) -> QubitState:
    """The pure input with signal amplitude theta, in the x-y direction of phase_a."""
    return QubitState(theta * math.cos(phase_a), theta * math.sin(phase_a),
                      math.sqrt(1.0 - theta * theta))


def test_bruteforce_is_global_on_its_grid(rng):
    # every two-member ensemble on a 17-point theta grid, by enumeration:
    # members at theta_i <= theta_k <= theta_j weighted to the mean theta_k,
    # whose output equals that of the pure input at theta_k (the channel is
    # affine in theta); the scan must reach the best of them
    grid = np.linspace(-1.0, 1.0, 17)
    i, k, j = (a.ravel() for a in np.meshgrid(*(np.arange(17),) * 3, indexing="ij"))
    keep = (i <= k) & (k <= j) & (i < j)
    i, k, j = i[keep], k[keep], j[keep]
    p_i = (grid[j] - grid[k]) / (grid[j] - grid[i])
    for _ in range(200):
        phase_a = float(rng.uniform(-7.0, 7.0))
        params = ChannelParams(stats=random_statistics(rng), phase_a=phase_a,
                               phase_b=float(rng.uniform(-7.0, 7.0)),
                               bob_initial=random_bloch(rng))
        g = np.array([von_neumann_entropy(apply(params, _pure(t, phase_a)).matrix)
                      for t in grid.tolist()])
        best = max(0.0, float(np.max(g[k] - p_i * g[i] - (1.0 - p_i) * g[j])))
        result = capacity_bruteforce(params)
        assert result.c_bruteforce >= best - 1e-12
        symmetric = Ensemble(members=((0.5, _pure(1.0, phase_a)), (0.5, _pure(-1.0, phase_a))))
        assert abs(result.c_bruteforce - holevo_chi(params, symmetric)) <= 1e-12


def test_capacity_result_guards():
    ens = Ensemble(members=((1.0, QubitState(0.0, 0.0, 1.0)),))
    with pytest.raises(ConsistencyError):
        CapacityResult(c_closed=0.5, c_bruteforce=0.8, best_ensemble=ens,
                       q_ea_lower=0.25, nu_eff=0.9, iterations=1, gap=0.3)
    with pytest.raises(ConsistencyError):
        CapacityResult(c_closed=0.5, c_bruteforce=0.4, best_ensemble=ens,
                       q_ea_lower=0.3, nu_eff=0.9, iterations=1, gap=0.1)
    with pytest.raises(ConsistencyError):
        CapacityResult(c_closed=1.5, c_bruteforce=0.4, best_ensemble=ens,
                       q_ea_lower=0.75, nu_eff=0.9, iterations=1, gap=1.1)


def test_unassisted_quantum_capacity_is_zero():
    assert UNASSISTED_QUANTUM_CAPACITY == 0.0


def test_chi_additivity_consequence_single_letter(rng):
    # entanglement breaking makes chi single-letter: chi of the best found
    # ensemble never exceeds the closed form, which equals the capacity
    result = capacity_bruteforce(moderate_params())
    chi = holevo_chi(moderate_params(), result.best_ensemble)
    assert chi <= result.c_closed + 1e-9
    assert np.isclose(chi, result.c_bruteforce, rtol=0.0, atol=1e-12)
