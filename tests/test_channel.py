"""Channel action: operator-composition oracle, spectra, Choi certification."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deltachannel.capacity import Ensemble, capacity_bruteforce, holevo_chi
from deltachannel.channel import (
    BLOCH_TOL,
    ChannelParams,
    QubitState,
    apply,
    choi_matrix,
    output_bloch_affine,
    theta,
)
from deltachannel.field import (
    FieldStatistics,
    PairGeometry,
    assemble_statistics,
)
from deltachannel.selftest import OPTIMIZER_TOL

from conftest import bloch_radius_oracle, density_matrix, draw_ball, draw_statistics, oracle_apply

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


def random_params(rng) -> ChannelParams:
    return ChannelParams(
        stats=draw_statistics(rng),
        phase_a=float(rng.uniform(0.0, 2.0 * math.pi)),
        phase_b=float(rng.uniform(0.0, 2.0 * math.pi)),
        bob_initial=draw_ball(rng),
    )


# ---------------------------------------------------------------------------
# the dual route: matrix elements vs operator composition
# ---------------------------------------------------------------------------

def test_matrix_elements_match_operator_composition(rng):
    worst = 0.0
    for _ in range(300):
        params = random_params(rng)
        alice = draw_ball(rng)
        via_elements = apply(params, alice).density_matrix()
        via_operators = oracle_apply(
            params.stats, params.phase_a, params.phase_b, params.bob_initial, alice
        )
        worst = max(worst, float(np.max(np.abs(via_elements - via_operators))))
    assert worst <= 1e-14


def test_output_is_affine_in_signal_amplitude(rng):
    # bit for bit: apply's output is the state with Bloch vector base + theta * slope
    for _ in range(2000):
        params = random_params(rng)
        alice = draw_ball(rng)
        base, slope = output_bloch_affine(params)
        via_affine = base + theta(alice, params.phase_a) * slope
        direct = np.array(apply(params, alice).bloch)
        assert np.array_equal(via_affine, direct)


def test_channel_invariant_component_passes_through(rng):
    # the Bloch component x cos(phase_b) - y sin(phase_b) commutes with the
    # flip operator and survives the channel unchanged
    for _ in range(200):
        params = random_params(rng)
        bob = params.bob_initial
        out_x, out_y, _ = apply(params, draw_ball(rng)).bloch
        cos_b, sin_b = math.cos(params.phase_b), math.sin(params.phase_b)
        before = bob.x * cos_b - bob.y * sin_b
        after = out_x * cos_b - out_y * sin_b
        assert np.isclose(after, before, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------

def test_output_trace_one_and_positive(rng):
    for _ in range(300):
        rho = apply(random_params(rng), draw_ball(rng)).density_matrix()
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_analytic_eigenvalues_match_diagonalization(rng):
    for _ in range(300):
        params = random_params(rng)
        alice = draw_ball(rng)
        out = apply(params, alice)
        p_plus, p_minus = out.eigenvalues
        numeric = np.linalg.eigvalsh(out.density_matrix())
        assert abs(p_plus - numeric[1]) <= 1e-12
        assert abs(p_minus - numeric[0]) <= 1e-12
        assert p_plus >= p_minus


def test_output_radius_matches_invariant_component_oracle(rng):
    for _ in range(300):
        params = random_params(rng)
        alice = draw_ball(rng)
        th = theta(alice, params.phase_a)
        out = apply(params, alice)
        radius = bloch_radius_oracle(params.stats, params.phase_b, params.bob_initial, th)
        assert abs(math.hypot(*out.bloch) - radius) <= 1e-15
        assert abs(out.eigenvalues[0] - (0.5 + 0.5 * min(radius, 1.0))) <= 1e-15


def test_output_pure_dephasing_limit():
    # delta = 0: no signaling, Bob's state dephases toward the flip axis
    stats = FieldStatistics(nu_a=0.9, nu_b=0.6, nu_ab_plus=0.5,
                            nu_ab_minus=0.5, delta_ab=0.0)
    params = ChannelParams(stats=stats, phase_a=0.0, phase_b=0.0,
                           bob_initial=QubitState(0.0, 0.0, 1.0))
    out = apply(params, QubitState(1.0, 0.0, 0.0))
    assert np.isclose(out.bloch[2], 0.6, rtol=0.0, atol=1e-15)
    assert abs(out.bloch[0]) <= 1e-15
    assert abs(out.bloch[1]) <= 1e-15


def test_zero_bob_coupling_is_identity_bit_for_bit():
    stats = assemble_statistics(1.0, 0.0, PairGeometry(6.0, 6.0))
    bob = QubitState(0.3, -0.4, 0.5)
    params = ChannelParams(stats=stats, phase_a=0.7, phase_b=1.1, bob_initial=bob)
    out = apply(params, QubitState(0.2, 0.1, -0.3))
    assert np.array_equal(out.density_matrix(), bob.density_matrix())


# ---------------------------------------------------------------------------
# Choi matrix
# ---------------------------------------------------------------------------

def _partial_transpose(choi: np.ndarray) -> np.ndarray:
    return choi.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def test_choi_trace_positivity_ppt(rng):
    for _ in range(200):
        choi = choi_matrix(random_params(rng))
        assert np.isclose(np.trace(choi).real, 1.0, rtol=0.0, atol=1e-12)
        assert float(np.max(np.abs(choi - choi.conj().T))) <= 1e-14
        assert float(np.linalg.eigvalsh(choi)[0]) >= -1e-12
        assert float(np.linalg.eigvalsh(_partial_transpose(choi))[0]) >= -1e-10


def test_choi_zero_coupling_factorizes_exactly():
    stats = assemble_statistics(1.0, 0.0, PairGeometry(6.0, 6.0))
    bob = QubitState(0.3, -0.4, 0.5)
    params = ChannelParams(stats=stats, phase_a=0.7, phase_b=1.1, bob_initial=bob)
    expected = np.kron(bob.density_matrix(), np.eye(2, dtype=complex) / 2.0)
    assert np.array_equal(choi_matrix(params), expected)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0), phase=angles)
def test_theta_bounded_by_transverse_radius(x, y, phase):
    state_norm = math.sqrt(x * x + y * y)
    if state_norm > 1.0:
        x, y = x / state_norm, y / state_norm
    th = theta(QubitState(x, y, 0.0), phase)
    assert abs(th) <= math.hypot(x, y) + 1e-12


def test_qubit_state_validation():
    with pytest.raises(ValueError):
        QubitState(0.9, 0.9, 0.9)
    with pytest.raises(ValueError):
        QubitState(math.nan, 0.0, 0.0)
    rho = QubitState(0.2, -0.3, 0.4).density_matrix()
    assert np.isclose(np.trace(rho).real, 1.0, rtol=0.0, atol=1e-15)
    assert np.allclose(rho, rho.conj().T)


def test_density_matrix_matches_pauli_expansion(rng):
    for _ in range(50):
        state = draw_ball(rng)
        assert np.allclose(state.density_matrix(), density_matrix(state),
                           rtol=0.0, atol=1e-16)


def test_channel_params_validation(rng):
    stats = draw_statistics(rng)
    with pytest.raises(ValueError):
        ChannelParams(stats=stats, phase_a=math.inf, phase_b=0.0,
                      bob_initial=QubitState(0.0, 0.0, 1.0))


def _edge_state(direction: np.ndarray) -> QubitState:
    """The state along direction at |r|^2 = 1 + BLOCH_TOL, to the last bits
    that QubitState admits."""
    scale = math.sqrt(1.0 + BLOCH_TOL) / float(np.linalg.norm(direction))
    while True:
        x, y, z = (float(c) * scale for c in direction)
        if x * x + y * y + z * z <= 1.0 + BLOCH_TOL:
            return QubitState(x, y, z)
        scale = math.nextafter(scale, 0.0)


def test_states_at_the_tolerance_edge_never_raise(rng):
    # QubitState admits |r|^2 up to 1 + BLOCH_TOL.  At nu_b = 1 the channel
    # keeps Bob's length at |theta| = 1, so a Bob or an Alice state at that
    # edge once gave outputs a few ulps past it, and apply raised ValueError.
    # Half of the Bob states lie across the flip axis, where the signal acts
    # on the whole Bloch vector.
    for k in range(200):
        phase_a, phase_b = (float(p) for p in rng.uniform(0.0, 2.0 * math.pi, size=2))
        direction = rng.normal(size=3)
        if k % 2:
            direction[:2] = (math.sin(phase_b), math.cos(phase_b))
        bob = _edge_state(direction)
        assert abs(bob.norm_sq - (1.0 + BLOCH_TOL)) <= 1e-15
        stats = FieldStatistics(nu_a=0.5, nu_b=1.0, nu_ab_plus=0.5, nu_ab_minus=0.5,
                                delta_ab=float(rng.uniform(-3.0, 3.0)))
        params = ChannelParams(stats=stats, phase_a=phase_a, phase_b=phase_b, bob_initial=bob)
        along = np.array([math.cos(phase_a), math.sin(phase_a), 0.0])
        members = tuple((0.25, _edge_state(d)) for d in (along, -along, *rng.normal(size=(2, 3))))
        for _, alice in members:
            apply(params, alice)
        choi_matrix(params)
        holevo_chi(params, Ensemble(members))
        # the closed form reads the Bob that the channel moves onto the sphere
        assert capacity_bruteforce(params).gap <= OPTIMIZER_TOL
    # at these edge states c_closed once read Bob past the sphere and the
    # search on the sphere: gap 1.13e-12 and 1.23e-12
    stats = assemble_statistics(148.4, 1.0, PairGeometry(6.0, 6.0))
    for direction in ((0.6, 0.0, 0.8), (0.0, 0.6, 0.8)):
        bob = QubitState(*(c * (1.0 + 4.9e-13) for c in direction))
        result = capacity_bruteforce(ChannelParams(stats, 0.0, 0.3, bob))
        assert result.gap <= OPTIMIZER_TOL
        unit = capacity_bruteforce(ChannelParams(stats, 0.0, 0.3, QubitState(*direction)))
        assert result.c_closed == unit.c_closed
