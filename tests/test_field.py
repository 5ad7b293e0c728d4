"""Field-side scalars: closed forms, the quadrature oracle, domain types."""
from __future__ import annotations

import math
import random
import statistics
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import deltachannel.field as field
from conftest import (
    commutator_trapezoid_reference,
    dawson_reference,
    re_j_reference,
    thermal_re_j_reference,
)
from deltachannel.errors import QuadratureError
from deltachannel.field import (
    FOUR_PI_SQ,
    FieldStatistics,
    PairGeometry,
    SmearingSpec,
    VACUUM,
    assemble_statistics,
    commutator_closed,
    cross_real_closed,
    dawson,
    norm_sq_closed,
    norm_sq_quadrature,
    pair_prefactor,
    thermal,
    wightman_cross_quadrature,
)

# Reference values, frozen from an independent quadrature run.
NORM_SQ_UNIT = 0.025330295910584444
DELTA_UNIT_6_6 = 0.005291136327853414
NU_UNIT = 0.9506012576266267
THERMAL_NORM_SQ_UNIT_BETA1 = 0.06854718659287753

finite_delays = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
separations = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
couplings = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_norm_sq_closed_unit_coupling():
    f = SmearingSpec(coupling=1.0)
    assert norm_sq_closed(f) == 1.0 / (4.0 * math.pi**2)
    assert np.isclose(norm_sq_closed(f), NORM_SQ_UNIT, rtol=0.0, atol=1e-16)


@given(lam=couplings, scale=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@example(lam=6.0, scale=1.4296025095714231e-158)
def test_norm_sq_quadratic_coupling_scaling(lam, scale):
    # Relative agreement to 1e-12 wherever the expected value is a normal
    # float.  Below that, doubles are math.ulp(0.0) apart and relative
    # agreement is lost (both sides of the example are about 1.9e-316), so
    # the promise is the rounding of the steps in that spacing: base's
    # rounding grows by scale**2, that of scale**2 by base, and the other
    # roundings add a few spacings more.
    base = norm_sq_closed(SmearingSpec(coupling=lam))
    scaled = norm_sq_closed(SmearingSpec(coupling=scale * lam))
    expected = scale**2 * base
    if expected >= sys.float_info.min:
        assert np.isclose(scaled, expected, rtol=1e-12, atol=0.0)
    else:
        assert abs(scaled - expected) <= (scale**2 + base + 4.0) * math.ulp(0.0)


def test_commutator_closed_reference_value():
    f = SmearingSpec(coupling=1.0)
    delta = commutator_closed(f, f, PairGeometry(6.0, 6.0))
    assert np.isclose(delta, DELTA_UNIT_6_6, rtol=1e-14, atol=0.0)


@given(sep=separations, delay=finite_delays)
@example(sep=5e-324, delay=0.0)
def test_commutator_antisymmetric_bit_for_bit(sep, delay):
    f = SmearingSpec(coupling=1.3)
    forward = commutator_closed(f, f, PairGeometry(sep, delay))
    backward = commutator_closed(f, f, PairGeometry(sep, -delay))
    assert forward == -backward


@given(lam_a=couplings, lam_b=couplings, scale=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_commutator_bilinear_in_couplings(lam_a, lam_b, scale):
    geom = PairGeometry(2.0, 5.0)
    base = commutator_closed(SmearingSpec(coupling=lam_a), SmearingSpec(coupling=lam_b), geom)
    left = commutator_closed(SmearingSpec(coupling=scale * lam_a), SmearingSpec(coupling=lam_b), geom)
    right = commutator_closed(SmearingSpec(coupling=lam_a), SmearingSpec(coupling=scale * lam_b), geom)
    assert np.isclose(left, scale * base, rtol=1e-12, atol=1e-300)
    assert np.isclose(right, scale * base, rtol=1e-12, atol=1e-300)


def test_commutator_vanishes_at_zero_delay():
    f = SmearingSpec(coupling=2.0)
    for sep in (0.0, 1.0, 4.0, 9.0):
        assert commutator_closed(f, f, PairGeometry(sep, 0.0)) == 0.0


def test_commutator_gaussian_suppression_off_lightcone():
    # far from the light cone the near-cone exponential dominates and the
    # whole commutator follows exp(-(dtau - L)^2 / 2)
    f = SmearingSpec(coupling=1.0)
    sep, delay = 3.0, 20.0
    delta = commutator_closed(f, f, PairGeometry(sep, delay))
    envelope = (1.0 / (4.0 * math.pi**2 * sep)) * math.sqrt(math.pi / 2.0) * math.exp(
        -0.5 * (delay - sep) ** 2
    )
    assert np.isclose(delta / envelope, 1.0, rtol=1e-10, atol=0.0)


def test_commutator_coincident_limit_is_continuous():
    f = SmearingSpec(coupling=1.0)
    at_zero = commutator_closed(f, f, PairGeometry(0.0, 3.0))
    near_zero = commutator_closed(f, f, PairGeometry(1e-8, 3.0))
    assert np.isclose(near_zero, at_zero, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("sep", [5e-324, 1e-20, 1e-12])
@pytest.mark.parametrize("delay", [1.0, -1.0])
def test_commutator_small_separation_keeps_its_limit(sep, delay):
    # e_near - e_far cancels to zero in doubles long before L reaches the
    # subnormals; the commutator must still follow its L -> 0 limit
    f = SmearingSpec(coupling=1.3)
    pref = 1.3 * 1.3 / FOUR_PI_SQ
    limit = 2.0 * pref * math.sqrt(math.pi / 2.0) * delay * math.exp(-0.5 * delay * delay)
    delta = commutator_closed(f, f, PairGeometry(sep, delay))
    assert math.isfinite(delta)
    assert np.isclose(delta, limit, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("sep", [1e154, 1e200])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_commutator_on_the_light_cone_where_2aL_overflows(sep, sign):
    # 2 a L overflows to inf at a = L = 1e154; the commutator once came out 0.0
    f = SmearingSpec(coupling=1.3)
    delta = commutator_closed(f, f, PairGeometry(sep, sign * sep))
    with mpmath.workdps(50):
        a = L = mpmath.mpf(sep)
        pref = mpmath.mpf(1.3) ** 2 / (4 * mpmath.pi**2)
        # 2 exp(-(a^2 + L^2)/2) sinh(aL) / L
        bracket = (1 - mpmath.exp(-2 * a * L)) * mpmath.exp(-(a - L) ** 2 / 2) / L
        reference = float(sign * pref * mpmath.sqrt(mpmath.pi / 2) * bracket)
    assert np.isclose(delta, reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("sep, delay", [(6.0, 1e300), (6.0, -1e300), (1e300, 6.0), (0.0, 1e308)])
def test_commutator_far_outside_the_light_cone_is_zero(sep, delay):
    # (a - L)^2 overflows past |a - L| ~ 1.3e154, and it once raised
    # OverflowError; at a = 1e308, 2 a overflows too, and inf * 0 was NaN
    f = SmearingSpec(coupling=1.0)
    assert commutator_closed(f, f, PairGeometry(sep, delay)) == 0.0


def _re_j_cases():
    delays = (0.0, 1e-3, -1e-3, 0.5, -0.5, 3.0, -3.0, 40.0, -40.0, 1e3, -1e3)
    cases = [(L, dt) for L in (0.0, 5e-324, 1e-20, 1e-8, 0.0707, 1e3) for dt in delays]
    draw = random.Random(20261018)
    for _ in range(300):
        L = 10.0 ** draw.uniform(-8.0, 3.0)
        dtau = draw.choice((-1.0, 1.0)) * 10.0 ** draw.uniform(-3.0, 3.0)
        cases.append((L, dtau))
    return cases


def test_cross_real_closed_matches_erfi_reference():
    # every vacuum route: the quotient, _dawson_slope_mean and Gauss-Legendre
    worst = max(abs(cross_real_closed(L, dt) - re_j_reference(L, dt)) for L, dt in _re_j_cases())
    assert worst <= 5e-16


def test_cross_real_closed_limits():
    assert cross_real_closed(0.0, 0.0) == 1.0
    for dtau in (0.0, 0.3, -2.0, 1e3):
        assert cross_real_closed(5e-324, dtau) == cross_real_closed(0.0, dtau)
        # even in the delay
        assert cross_real_closed(2.5, dtau) == cross_real_closed(2.5, -dtau)


def test_cross_real_closed_agrees_with_quadrature():
    for sep, delay in ((0.0, 0.0), (1.0, 3.0), (6.0, 6.0), (10.0, 0.0), (0.01, 2.0), (3.0, -12.0)):
        j, _ = field._radial_integral(sep, delay, None)
        assert abs(cross_real_closed(sep, delay) - j.real) <= 1e-12


# the Dawson function: x for |x| log-uniform over the float range and
# uniform on [0, 30], each branch edge and the float on either side of it,
# a few points where Rybicki's shift n0 h moves, and x = 0.0133, where
# scipy's dawsn is 97 ulp off
DAWSON_PINNED = 0.01328024707269681


def _dawson_sample():
    draw = random.Random(20261019)
    xs = [10.0 ** draw.uniform(-320.0, 300.0) for _ in range(100)]
    xs += [draw.uniform(0.0, 30.0) for _ in range(400)]
    for edge in (field.DAWSON_TAYLOR_MAX, field.DAWSON_ASYMPTOTIC_MIN, 1.4, 12.2, 24.6):
        xs += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    return xs + [DAWSON_PINNED]


def _ulps(value, reference):
    # reference is an mpf; the ulp is that of the float nearest it
    return float(abs(mpmath.mpf(value) - reference)) / math.ulp(float(reference))


def test_dawson_is_within_4_ulp_of_the_50_digit_reference():
    from scipy.special import dawsn

    xs = _dawson_sample()
    refs = [dawson_reference(x) for x in xs]
    ours = [_ulps(dawson(x), r) for x, r in zip(xs, refs)]
    theirs = [_ulps(float(dawsn(x)), r) for x, r in zip(xs, refs)]
    assert max(ours) <= 4.0
    assert statistics.fmean(ours) < statistics.fmean(theirs)
    assert _ulps(dawson(DAWSON_PINNED), dawson_reference(DAWSON_PINNED)) <= 1.0


def test_dawson_special_values():
    for zero in (0.0, -0.0):
        assert math.copysign(1.0, dawson(zero)) == math.copysign(1.0, zero)
        assert dawson(zero) == 0.0
    for sign in (1.0, -1.0):
        value = dawson(sign * math.inf)
        assert value == 0.0 and math.copysign(1.0, value) == sign
        for tiny in (5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0)):
            assert dawson(sign * tiny) == sign * tiny
    assert math.isnan(dawson(math.nan))
    for x in _dawson_sample():
        # odd bit for bit: the values are non-zero, where == compares bits
        assert dawson(-x) == -dawson(x) != 0.0


# Thermal Re J against the 50-digit quadrature: separations at and near 0
# (through the Gauss-Legendre mean), at the quotient's threshold 0.0707 and
# past it, delays up to 12, and beta from 1e-3 (J(0, 0) ~ 2500) to 1e3.
THERMAL_GEOMETRIES = (
    (0.0, 0.0), (0.0, 8.0), (5e-324, 1.0), (1e-20, -3.0), (1e-8, 0.5),
    (0.0707, 1.0), (0.08, -0.3), (1.0, 3.0), (6.0, 6.0), (3.0, -12.0),
)


@pytest.mark.parametrize("beta", [1e-3, 0.5, 2.0, 20.0, 1e3])
def test_thermal_cross_real_closed_matches_50_digit_reference(beta):
    worst = max(
        abs(cross_real_closed(L, dt, beta) - thermal_re_j_reference(L, dt, beta))
        for L, dt in THERMAL_GEOMETRIES
    )
    assert worst <= 1e-12


def test_thermal_cross_real_closed_limits():
    for beta in (1e-3, 2.0, 1e3):
        for dtau in (0.0, 0.3, -2.0, 1e3):
            assert cross_real_closed(5e-324, dtau, beta) == cross_real_closed(0.0, dtau, beta)
            assert cross_real_closed(2.5, dtau, beta) == cross_real_closed(2.5, -dtau, beta)
    # coth >= 1 warms every norm; a cold enough state is the vacuum
    assert cross_real_closed(0.0, 0.0, 50.0) > cross_real_closed(0.0, 0.0, 100.0) > 1.0
    for L, dtau in ((0.0, 0.0), (1.0, 3.0), (40.0, 41.0)):
        assert abs(cross_real_closed(L, dtau, 1e9) - cross_real_closed(L, dtau)) <= 1e-15
    # far from the light cone only the 1/k pole of coth survives: pi/(2 beta L) (1 + 1)
    assert np.isclose(cross_real_closed(1000.0, 1.0, 2.0), math.pi / 2000.0, rtol=1e-13, atol=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [1e-3, 2.0, 1e3])
def test_thermal_cross_real_closed_far_outside_the_light_cone(beta):
    # the Gaussian underflowed to 0 while the series' Hermite tail overflowed,
    # and 0 * inf made Re J NaN, with a numpy warning
    assert np.isclose(cross_real_closed(1e20, 6.0, beta), math.pi / (beta * 1e20),
                      rtol=1e-12, atol=0.0)
    for sep in (0.0, 6.0):  # the mean of F' and the quotient of F
        for dtau in (1e20, 1e300, 1e308):
            assert abs(cross_real_closed(sep, dtau, beta)) <= 1e-15


def _route_cases():
    draw = random.Random(20261019)
    for _ in range(200):
        beta = 10.0 ** draw.uniform(-3.0, 3.0)
        x = draw.choice((-1.0, 1.0)) * 10.0 ** draw.uniform(-3.0, math.log10(2e3))
        yield beta, x


def test_thermal_series_agree_where_both_run():
    # the partial fractions of coth and its geometric series are independent
    # expansions; where each needs at most 1000 terms both are compared
    compared = 0
    for beta, x in _route_cases():
        m = math.ceil(beta * field.MATSUBARA_CUT / (2.0 * math.pi))
        n = math.ceil(field.IMAGE_CUT * (abs(x) + 2.0) / beta)
        if max(m, n) > 1000:
            continue
        for derivative in (False, True):
            pair = [field.kms_sine_transform(np.array([x]), beta, derivative, route)[0]
                    for route in ("matsubara", "images")]
            assert abs(pair[0] - pair[1]) <= 1e-12, (beta, x, derivative, pair)
        compared += 1
    assert compared >= 50


def test_kms_sine_transform_rejects_unknown_route():
    with pytest.raises(ValueError):
        field.kms_sine_transform(np.array([1.0]), 2.0, route="quad")


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_norm_quadrature_matches_closed_form():
    for lam in (0.1, 1.0, 10.0):
        f = SmearingSpec(coupling=lam)
        closed = norm_sq_closed(f)
        assert np.isclose(norm_sq_quadrature(f), closed, rtol=1e-9, atol=0.0)


# Im J cancels in float64 at (0, 6), where quad's value was 1.1e-9 off
# relatively, and at (0, 8); past (60, 1) the closed form underflows to 0.0
COMMUTATOR_GEOMETRIES = ((1.0, 3.0), (6.0, 6.0), (10.0, 0.0), (2.0, -4.0), (0.0, 6.0),
                         (6.0, 3.0), (12.0, 9.0), (0.0, 8.0), (60.0, 1.0), (300.0, 50.0))


def test_wightman_imaginary_part_is_half_commutator():
    f_a = SmearingSpec(coupling=0.7)
    f_b = SmearingSpec(coupling=1.9)
    for state in (VACUUM, thermal(2.0), thermal(879.0)):
        for sep, delay in COMMUTATOR_GEOMETRIES:
            geom = PairGeometry(sep, delay)
            w = wightman_cross_quadrature(f_a, f_b, geom, state)
            delta = commutator_closed(f_a, f_b, geom)
            if delta:
                assert np.isclose(-2.0 * w.imag, delta, rtol=1e-14, atol=0.0), (geom, state)
            else:
                # the 50-digit rule resolves an Im J below the float range
                # only to its rounding, 10^-MP_DPS of the integrand's scale
                assert abs(w.imag) < 10.0 ** -field.MP_DPS, (geom, state)


def test_wightman_identity_survives_thermal_state():
    # the commutator is state independent; only the symmetric part warms up
    f = SmearingSpec(coupling=1.0)
    geom = PairGeometry(6.0, 6.0)
    cold = wightman_cross_quadrature(f, f, geom)
    warm = wightman_cross_quadrature(f, f, geom, thermal(1.0))
    delta = commutator_closed(f, f, geom)
    assert np.isclose(-2.0 * warm.imag, delta, rtol=1e-8, atol=0.0)
    assert np.isclose(warm.imag, cold.imag, rtol=1e-9, atol=0.0)
    assert warm.real > cold.real


def test_thermal_norm_reference_value():
    f = SmearingSpec(coupling=1.0)
    warm = norm_sq_quadrature(f, thermal(1.0))
    assert np.isclose(warm, THERMAL_NORM_SQ_UNIT_BETA1, rtol=1e-9, atol=0.0)
    assert warm > norm_sq_closed(f)


def test_radial_integral_resolves_the_thermal_bump_at_large_beta():
    # with one breakpoint, at 1/beta, quad's estimate stayed near 1e-12
    # while Re J(0, 0, beta) was off by up to 2.7e-6 (beta = 797)
    for beta in [797.0, *np.geomspace(1.0, 1e4, 41)]:
        j, _ = field._radial_integral(0.0, 0.0, float(beta))
        assert abs(j.real - field.cross_real_closed(0.0, 0.0, float(beta))) < 1e-10, beta


@pytest.mark.parametrize("beta", [None, 2.0])
def test_radial_integral_subnormal_separation_is_coincident_limit(beta):
    # sin(kL)/L at subnormal L is quantised noise; its L -> 0 value is k
    at_zero, _ = field._radial_integral(0.0, 1.0, beta)
    subnormal, _ = field._radial_integral(5e-324, 1.0, beta)
    assert subnormal == at_zero


@pytest.mark.parametrize("beta", [None, 2.0])
def test_radial_integral_quad_warning_is_a_typed_error(beta):
    # quad returns a fourth value, its message, when it warns; at L = 1000
    # that once escaped as "too many values to unpack"
    with pytest.raises(QuadratureError):
        field._radial_integral(1000.0, 0.0, beta)


@pytest.mark.parametrize("beta", [5e-324, 1e-310])
def test_radial_integral_past_the_float_range_at_tiny_beta_is_a_typed_error(beta):
    # 2 / beta overflows, and J with it: at 5e-324 the coth series once
    # raised ZeroDivisionError out of quad (0.5 beta k rounds to 0.0), and
    # at 1e-310 J came back NaN with a NaN estimate, which passed as met
    with pytest.raises(QuadratureError):
        field._radial_integral(6.0, 6.0, beta)
    f = SmearingSpec(coupling=1.0)
    with pytest.raises(QuadratureError):
        field.oracle_residual(f, f, PairGeometry(6.0, 6.0), thermal(beta))


def test_radial_integral_non_finite_value_is_a_miss(monkeypatch):
    monkeypatch.setattr(field, "quad", lambda func, a, b, **kwargs: (math.nan, 0.0, {}))
    with pytest.raises(QuadratureError):
        field._radial_integral(6.0, 6.0, None)


def test_quadrature_error_carries_estimate(monkeypatch):
    # Re J meeting its target lets the trapezoid rule's Im J miss its own,
    # and the failure carries the rule's estimate; Re J missing its target
    # fails at once with Re J's estimate
    def bad_trapezoid(sep, delay):
        return 0.5, 0.25

    monkeypatch.setattr(field, "_commutator_trapezoid", bad_trapezoid)
    f = SmearingSpec(coupling=1.0)
    for re_err, estimate in ((1e-12, 0.25), (1.0, 1.0)):
        def bad_quad(func, a, b, **kwargs):
            return 1.0, re_err, {}

        monkeypatch.setattr(field, "quad", bad_quad)
        # the oracle remembers the geometry's failure under the last quad
        field._remembered_j.cache_clear()
        with pytest.raises(QuadratureError) as excinfo:
            wightman_cross_quadrature(f, f, PairGeometry(6.0, 6.0))
        assert excinfo.value.estimate == estimate


# Geometries whose Im J cancels in float64: from 1.3e-13 at (0, 8) down to
# 6.6e-31 at (1e-20, 12) and 1.8e-38 at (7, -20), and at (60, 1) an Im J of
# about 1e-758, which the 50-digit rule resolves only to its rounding.
TRAPEZOID_GEOMETRIES = ((0.0, 8.0), (1e-20, 12.0), (1.0, 12.0), (3.0, 12.0),
                        (6.0, 12.0), (10.0, 3.0), (7.0, -20.0), (60.0, 1.0))


@pytest.mark.parametrize("sep, delay", TRAPEZOID_GEOMETRIES)
def test_commutator_trapezoid_matches_closed_form(sep, delay):
    with mpmath.workdps(50):
        L, dt = mpmath.mpf(sep), mpmath.mpf(delay)
        if sep == 0.0:
            reference = -mpmath.sqrt(mpmath.pi / 2) * dt * mpmath.exp(-dt**2 / 2)
        else:
            reference = -mpmath.sqrt(mpmath.pi / 2) * (
                mpmath.exp(-(dt - L) ** 2 / 2) - mpmath.exp(-(dt + L) ** 2 / 2)
            ) / (2 * L)
        expected = float(reference)
    im, estimate = field._commutator_trapezoid(sep, delay)
    assert math.isclose(im, expected, rel_tol=1e-12, abs_tol=10.0**-field.MP_DPS)
    assert abs(im - expected) <= estimate


def _trapezoid_draws(count=8):
    # L is 0 or 5e-324 a quarter of the time each, else log-uniform on
    # [1e-20, 1e3]; |dtau| is log-uniform on [1e-3, 1e3].  Few, since the
    # direct rule takes about 30 us a node
    rng = np.random.default_rng(385)
    draws = []
    for _ in range(count):
        kind, exponent = rng.integers(4), rng.uniform(-20.0, 3.0)
        sep = (0.0, 5e-324, 10.0**exponent, 10.0**exponent)[kind]
        delay = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        draws.append((float(sep), delay))
    return draws


# The direct rule carries up to its estimate of rounding, so its float can
# differ from the recurrences' in the last bits unless that rounding is far
# below half an ulp (1.1e-16 relative): at (7, -20), |Im J| = 2.5e13 times
# the estimate, it is 5 ulp off the correctly rounded closed form, which
# the recurrences return.
BIT_EQUAL_RATIO = 1e20


@pytest.mark.parametrize("sep, delay", TRAPEZOID_GEOMETRIES + tuple(_trapezoid_draws()))
def test_commutator_trapezoid_matches_the_direct_rule(sep, delay):
    im, estimate = field._commutator_trapezoid(sep, delay)
    expected, expected_estimate = commutator_trapezoid_reference(sep, delay)
    assert math.isclose(estimate, expected_estimate, rel_tol=1e-12, abs_tol=0.0)
    if abs(expected) >= BIT_EQUAL_RATIO * estimate:
        assert im == expected
    else:
        assert abs(im - expected) <= estimate


def test_cross_real_closed_cache_keeps_the_sign_of_zero_delay_harmless():
    # the one-entry cache takes -0.0 and 0.0 as one key; both give the same bits
    for beta in (None, 2.0, 1e3):
        for sep in (0.0, 5e-324, 0.01, 2.5):
            cross_real_closed.cache_clear()
            negative = cross_real_closed(sep, -0.0, beta)
            cross_real_closed.cache_clear()
            positive = cross_real_closed(sep, 0.0, beta)
            assert negative.hex() == positive.hex()
            assert cross_real_closed(sep, -0.0, beta).hex() == positive.hex()


def test_oracle_j_cache_keeps_the_sign_of_zero_delay_harmless():
    # the oracle's cache also takes -0.0 and 0.0 as one key
    def bits(j):
        return j.real.hex(), j.imag.hex()

    for beta in (None, 2.0):
        for sep in (0.0, 5e-324, 2.5):
            field._remembered_j.cache_clear()
            negative = field.oracle_j(sep, -0.0, beta)
            field._remembered_j.cache_clear()
            positive = field.oracle_j(sep, 0.0, beta)
            assert bits(negative) == bits(positive)
            assert bits(field.oracle_j(sep, -0.0, beta)) == bits(positive)


# ---------------------------------------------------------------------------
# assembled statistics
# ---------------------------------------------------------------------------

def test_assemble_statistics_reference_values():
    f = SmearingSpec(coupling=1.0)
    stats = assemble_statistics(f, f, PairGeometry(6.0, 6.0))
    assert np.isclose(stats.nu_a, NU_UNIT, rtol=1e-12, atol=0.0)
    assert np.isclose(stats.nu_b, NU_UNIT, rtol=1e-12, atol=0.0)
    assert np.isclose(stats.delta_ab, DELTA_UNIT_6_6, rtol=1e-14, atol=0.0)
    assert stats.nu_a == math.exp(-2.0 * norm_sq_closed(f))


def test_assemble_statistics_pair_factorization():
    # nu_ab_plus * nu_ab_minus = (nu_a * nu_b)^2: the cross terms cancel
    f_a = SmearingSpec(coupling=0.8)
    f_b = SmearingSpec(coupling=1.7)
    stats = assemble_statistics(f_a, f_b, PairGeometry(3.0, 5.0))
    assert np.isclose(
        stats.nu_ab_plus * stats.nu_ab_minus,
        (stats.nu_a * stats.nu_b) ** 2,
        rtol=1e-12,
        atol=0.0,
    )


def test_assemble_statistics_zero_coupling_short_circuit():
    stats = assemble_statistics(
        SmearingSpec(coupling=0.0), SmearingSpec(coupling=1.0), PairGeometry(6.0, 6.0)
    )
    assert stats.nu_a == 1.0
    assert stats.delta_ab == 0.0
    assert stats.nu_ab_plus == stats.nu_b
    assert stats.nu_ab_minus == stats.nu_b


def test_assemble_statistics_vacuum_runs_no_integral(monkeypatch):
    def no_integral(*args, **kwargs):
        raise AssertionError("vacuum statistics must not integrate")

    f_a, f_b = SmearingSpec(coupling=10.0), SmearingSpec(coupling=1.0)
    geom = PairGeometry(6.0, 6.0)
    j, _ = field._radial_integral(6.0, 6.0, None)
    monkeypatch.setattr(field, "quad", no_integral)
    monkeypatch.setattr(mpmath, "quad", no_integral)
    stats = assemble_statistics(f_a, f_b, geom)
    n = norm_sq_closed(f_a) + norm_sq_closed(f_b)
    re_w = pair_prefactor(f_a, f_b) * j.real
    assert np.isclose(stats.nu_ab_plus, math.exp(-2.0 * (n + 2.0 * re_w)), rtol=1e-14, atol=0.0)
    assert np.isclose(stats.nu_ab_minus, math.exp(-2.0 * (n - 2.0 * re_w)), rtol=1e-14, atol=0.0)


def test_assemble_statistics_thermal_integrates_nothing(monkeypatch):
    def no_integral(*args, **kwargs):
        raise AssertionError("thermal statistics must not integrate")

    state = thermal(2.0)
    f_a, f_b = SmearingSpec(coupling=10.0), SmearingSpec(coupling=1.0)
    geom = PairGeometry(4.0, 4.0)
    j0, _ = field._radial_integral(0.0, 0.0, 2.0)
    j, _ = field._radial_integral(4.0, 4.0, 2.0)
    for name in ("quad", "_radial_integral", "_commutator_trapezoid"):
        monkeypatch.setattr(field, name, no_integral)
    monkeypatch.setattr(mpmath, "quad", no_integral)
    stats = assemble_statistics(f_a, f_b, geom, state)
    # the closed form agrees with the quadrature it replaced
    n = (norm_sq_closed(f_a) + norm_sq_closed(f_b)) * j0.real
    re_w = pair_prefactor(f_a, f_b) * j.real
    assert np.isclose(stats.nu_a, math.exp(-2.0 * norm_sq_closed(f_a) * j0.real), rtol=1e-12, atol=0.0)
    assert np.isclose(stats.nu_ab_plus, math.exp(-2.0 * (n + 2.0 * re_w)), rtol=1e-12, atol=0.0)
    assert np.isclose(stats.nu_ab_minus, math.exp(-2.0 * (n - 2.0 * re_w)), rtol=1e-12, atol=0.0)


def test_assemble_statistics_thermal_lowers_nu_keeps_delta():
    f = SmearingSpec(coupling=1.0)
    geom = PairGeometry(6.0, 6.0)
    cold = assemble_statistics(f, f, geom)
    warm = assemble_statistics(f, f, geom, thermal(1.0))
    assert warm.nu_b < cold.nu_b
    assert warm.delta_ab == cold.delta_ab


def test_assemble_statistics_strong_coupling_underflows_to_zero():
    strong = SmearingSpec(coupling=1000.0)
    stats = assemble_statistics(strong, SmearingSpec(coupling=1.0), PairGeometry(6.0, 6.0))
    assert stats.nu_a == 0.0
    assert 0.0 < stats.nu_b < 1.0


# ---------------------------------------------------------------------------
# domain type validation
# ---------------------------------------------------------------------------

def test_smearing_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SmearingSpec(coupling=-1.0)
    with pytest.raises(ValueError):
        SmearingSpec(coupling=math.inf)


def test_pair_geometry_from_specs():
    with pytest.raises(ValueError):
        PairGeometry(-1.0, 0.0)


def test_field_statistics_validation():
    with pytest.raises(ValueError):
        FieldStatistics(nu_a=1.5, nu_b=0.5, nu_ab_plus=0.5, nu_ab_minus=0.5, delta_ab=0.0)
    with pytest.raises(ValueError):
        FieldStatistics(nu_a=0.5, nu_b=0.5, nu_ab_plus=0.5, nu_ab_minus=0.5, delta_ab=math.nan)


def test_field_state_spec_validation():
    with pytest.raises(ValueError):
        thermal(0.0)
    with pytest.raises(ValueError):
        thermal(-2.0)
    with pytest.raises(ValueError):
        thermal(math.inf)
    assert not VACUUM.is_thermal
    assert thermal(2.0).is_thermal
