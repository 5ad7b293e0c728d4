"""Channel action: operator-composition oracle, spectra, Choi certification."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deltachannel.channel import (
    ChannelOutput,
    ChannelParams,
    QubitState,
    apply,
    choi_matrix,
    output_bloch_affine,
    theta,
)
from deltachannel.errors import ConsistencyError
from deltachannel.field import (
    FieldStatistics,
    PairGeometry,
    SmearingSpec,
    assemble_statistics,
)

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
        via_elements = apply(params, alice).matrix
        via_operators = oracle_apply(
            params.stats, params.phase_a, params.phase_b, params.bob_initial, alice
        )
        worst = max(worst, float(np.max(np.abs(via_elements - via_operators))))
    assert worst <= 1e-14


def test_output_is_affine_in_signal_amplitude(rng):
    for _ in range(50):
        params = random_params(rng)
        alice = draw_ball(rng)
        base, slope = output_bloch_affine(params)
        via_affine = base + theta(alice, params.phase_a) * slope
        direct = np.array(apply(params, alice).bloch)
        assert np.allclose(via_affine, direct, rtol=0.0, atol=1e-14)


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
        out = apply(random_params(rng), draw_ball(rng))
        assert abs(out.r11 + out.r22 - 1.0) <= 1e-12
        assert min(np.linalg.eigvalsh(out.matrix)) >= -1e-12


def test_analytic_eigenvalues_match_diagonalization(rng):
    for _ in range(300):
        params = random_params(rng)
        alice = draw_ball(rng)
        out = apply(params, alice)
        p_plus, p_minus = out.eigenvalues
        numeric = np.linalg.eigvalsh(out.matrix)
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
    stats = assemble_statistics(
        SmearingSpec(coupling=1.0), SmearingSpec(coupling=0.0), PairGeometry(6.0, 6.0)
    )
    bob = QubitState(0.3, -0.4, 0.5)
    params = ChannelParams(stats=stats, phase_a=0.7, phase_b=1.1, bob_initial=bob)
    out = apply(params, QubitState(0.2, 0.1, -0.3))
    assert np.array_equal(out.matrix, bob.density_matrix())


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
    stats = assemble_statistics(
        SmearingSpec(coupling=1.0), SmearingSpec(coupling=0.0), PairGeometry(6.0, 6.0)
    )
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


def test_channel_output_guards_reject_inconsistent_fields():
    with pytest.raises(ConsistencyError):
        ChannelOutput(r11=0.6, r12=0.0j, r22=0.6, eigenvalues=(0.6, 0.6))
    with pytest.raises(ConsistencyError):
        ChannelOutput(r11=0.5, r12=0.0j, r22=0.5, eigenvalues=(0.7, 0.1))
    with pytest.raises(ConsistencyError):
        ChannelOutput(r11=0.5, r12=0.0j, r22=0.5, eigenvalues=(-0.1, 1.1))


def test_channel_params_validation(rng):
    stats = draw_statistics(rng)
    with pytest.raises(ValueError):
        ChannelParams(stats=stats, phase_a=math.inf, phase_b=0.0,
                      bob_initial=QubitState(0.0, 0.0, 1.0))
