"""Field-side scalars for a pair of delta-switched Gaussian detectors.

Closed forms for the massless scalar field in the vacuum and in a thermal
(KMS) state, and an independent radial quadrature oracle for both: the
statistics never integrate, and scipy's quad and mpmath run only in the
oracle.  The oracle escalates only Im J, the commutator part, which is
compared relatively; Re J is compared absolutely and stays with quad (see
_radial_integral and _commutator_trapezoid).  Everything is dimensionless
in units of the Gaussian smearing width sigma: couplings are
lambda_tilde/sigma, distances L/sigma, delays dtau/sigma, inverse
temperatures beta/sigma.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import dawsn, erf, erfcx, wofz, zeta

from .errors import QuadratureError

FOUR_PI_SQ = 4.0 * math.pi**2
SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
SQRT2 = math.sqrt(2.0)
# Below this argument the next series term (x^2/6) is under 2e-17 relative,
# so sin(x)/x = 1 holds to double precision.
SERIES_CUTOFF = 1e-8

# Radial quadrature window.  The integrand carries exp(-k^2/2), so the tail
# beyond k = 40 is below 1e-300 and the fixed cutoff is exact in doubles.
K_MAX = 40.0
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
# An Im J this small relative to the integrand scale is dominated by
# float64 cancellation noise (~1e-16 of scale), which the relative
# commutator check cannot absorb, and is recomputed at MP_DPS digits by the
# trapezoid rule.  Values at or above the threshold carry relative error
# <= ~1e-8 from the roundoff floor alone, so the split is gapless.  Re J
# is compared absolutely, so its float64 noise is harmless: never escalated.
ESCALATION_RATIO = 1e-8
MP_DPS = 50
# The trapezoid rule runs on [0, K] with exp(-K^2/2) = 10^-(MP_DPS + 5), at
# step h = 2 pi / (L + |dtau| + K), so it takes K (L + |dtau| + K) / pi
# nodes at step h/2.  The cap admits L + |dtau| <= 2e3, the corner of the
# accepted domain (L <= 1e3, |dtau| <= 1e3): about 1e4 nodes, under a
# second.  Past it the rule raises QuadratureError without integrating.
TRAPEZOID_K = math.sqrt(2.0 * math.log(10.0) * (MP_DPS + 5))
TRAPEZOID_MAX_NODES = math.ceil(TRAPEZOID_K * (2e3 + TRAPEZOID_K) / math.pi)

# Below this half-width the Dawson difference quotient in cross_real_closed
# cancels; the mean of D' over the interval is taken by Gauss-Legendre
# instead, whose 6-point error there is far below double precision.
DAWSON_SMALL_EPS = 0.05
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)

# Thermal Re J (see kms_sine_transform).  Both series end in a tail
# expanded in inverse even powers up to the 16th (TAIL_POWERS), so each
# needs its terms to reach past the Gaussian width of the integrand:
# - Matsubara: a_M = 2 pi M / beta >= MATSUBARA_CUT keeps the tail's
#   remainder, about max|He_17(x) exp(-x^2/2)| / (17 a_M^17), under 3e-17;
# - far from the light cone, |x| >= FAR_X, the Gaussian moments of the tail
#   vanish in doubles and only the terms exp(-a_m (|x| - a_m / 2)) with
#   a_m < |x| are left: a_M |x| >= FAR_DECAY puts their sum under 1e-17;
# - images: c_N = N beta >= IMAGE_CUT (|x| + 2) keeps the remainder,
#   about Im He_17(i x) / (17 c_N^18 / N), under 1e-20.
MATSUBARA_CUT = 20.0
FAR_X = 12.0
FAR_DECAY = 80.0
IMAGE_CUT = 12.0
TAIL_POWERS = (2, 4, 6, 8, 10, 12, 14, 16)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmearingSpec:
    """One detector's delta-switched Gaussian smearing, as the field sees it.

    coupling is the effective dimensionless coupling lambda_tilde/sigma,
    >= 0.  The Gaussian width sigma is the unit of length and time.  Where
    the detectors sit and when they switch reaches the field only through
    PairGeometry, and the gap and switching time reach the channel only as
    the phase Omega * tau_0 that ChannelParams takes.
    """

    coupling: float

    def __post_init__(self):
        if not (math.isfinite(self.coupling) and self.coupling >= 0.0):
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling!r}")


@dataclass(frozen=True)
class PairGeometry:
    """Relative geometry of the two switching events.

    separation is L = |x_A - x_B| >= 0 and delay is dtau = tau_B0 - tau_A0,
    both in units of sigma.
    """

    separation: float
    delay: float

    def __post_init__(self):
        if not (math.isfinite(self.separation) and self.separation >= 0.0):
            raise ValueError(f"separation must be finite and >= 0, got {self.separation!r}")
        if not math.isfinite(self.delay):
            raise ValueError("delay must be finite")


@dataclass(frozen=True)
class FieldStatistics:
    """The five field-side scalars that fully determine the channel.

    nu values live in [0, 1]: the open interval (0, 1] of the exact theory,
    closed below because exp(-2||Ef||^2) underflows to 0.0 for couplings
    around 1e3 and the sweep grids legitimately reach them.
    """

    nu_a: float
    nu_b: float
    nu_ab_plus: float
    nu_ab_minus: float
    delta_ab: float

    def __post_init__(self):
        for name in ("nu_a", "nu_b", "nu_ab_plus", "nu_ab_minus"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if not math.isfinite(self.delta_ab):
            raise ValueError("delta_ab must be finite")


@dataclass(frozen=True)
class FieldStateSpec:
    """Field state: the vacuum (beta None), or a thermal KMS state at inverse
    temperature beta, finite and > 0."""

    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"thermal state requires beta > 0, got {self.beta!r}")

    @property
    def is_thermal(self) -> bool:
        return self.beta is not None


VACUUM = FieldStateSpec()


def thermal(beta: float) -> FieldStateSpec:
    return FieldStateSpec(beta)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def pair_prefactor(f_a: SmearingSpec, f_b: SmearingSpec) -> float:
    """coupling_A * coupling_B / (4 pi^2): each smeared two-point value is this times a J."""
    return f_a.coupling * f_b.coupling / FOUR_PI_SQ


def norm_sq_closed(f: SmearingSpec) -> float:
    """||Ef||^2 in the vacuum: coupling^2 / (4 pi^2).

    Past coupling ~1.3e154 the square overflows; the norm is then inf, its
    limit, and the nu = exp(-2 ||Ef||^2) built on it is 0.0.
    """
    try:
        return f.coupling**2 / FOUR_PI_SQ
    except OverflowError:
        return math.inf


def commutator_closed(f_a: SmearingSpec, f_b: SmearingSpec, geom: PairGeometry) -> float:
    """Smeared commutator Delta(f_A, f_B), exact for Gaussian smearings.

    Delta = pref * sqrt(pi/2) * (e_near - e_far) / L with
    e_near = exp(-(a - L)^2 / 2), e_far = exp(-(a + L)^2 / 2), a = |dtau|,
    and the sign of dtau: antisymmetric in the delay bit-for-bit by
    construction.  With x = 2 a L, e_far = e_near * exp(-x), so the bracket
    over L is 2 a e_near * (-expm1(-x) / x) without cancellation.  The
    ratio is 1 at x = 0 (its L -> 0 limit) and expm1 returns -x exactly for
    subnormal x, so small and subnormal L keep full relative accuracy.
    Where x overflows (a ~ L ~ 1e154) the bracket over L is e_near / L.
    Where e_near underflows to 0.0, or (a - L)^2 overflows (|a - L| past
    ~1.3e154), Delta is its limit +0.0, also where 2 a is inf.
    """
    L, dt = geom.separation, geom.delay
    pref = pair_prefactor(f_a, f_b)
    a = abs(dt)
    x = 2.0 * a * L
    try:
        e_near = math.exp(-0.5 * (a - L) ** 2)
    except OverflowError:
        e_near = 0.0
    if not e_near:
        return 0.0
    if x == math.inf:
        magnitude = pref * SQRT_HALF_PI * e_near * (-math.expm1(-x) / L)
    else:
        ratio = -math.expm1(-x) / x if x else 1.0
        magnitude = pref * SQRT_HALF_PI * 2.0 * a * e_near * ratio
    # an exact or underflowed zero is +0.0 for either sign of the delay
    return math.copysign(magnitude, dt) if magnitude else 0.0


def cross_real_closed(L: float, dtau: float, beta: float | None = None) -> float:
    """Re J(L, dtau, beta) in closed form: the vacuum (beta None) or a KMS state.

    Re J = [F(dtau + L) - F(dtau - L)] / (2 L) with F the odd function of
    kms_sine_transform.  In the vacuum F(x) = sqrt2 D(x / sqrt2) with D the
    Dawson function, so Re J = [D(b + e) - D(b - e)] / (2 e), e = L/sqrt2
    and b = dtau/sqrt2 (Abramowitz & Stegun 7.1).  The quotient is the mean
    of F' over [dtau - L, dtau + L]; below DAWSON_SMALL_EPS that mean is
    taken by Gauss-Legendre, free of the quotient's cancellation.  L = 0
    gives F'(dtau), so J(0, 0) = 1 in the vacuum and J(0, 0, beta) =
    cross_real_closed(0, 0, beta), and a subnormal L gives the same bits.
    Re W(f_A, f_B) = pair_prefactor(f_A, f_B) * Re J.
    """
    e = L / SQRT2
    if beta is None:
        b = dtau / SQRT2
        if e >= DAWSON_SMALL_EPS:
            return float(dawsn(b + e) - dawsn(b - e)) / (2.0 * e)
        x = b + e * _GL_NODES
        return 0.5 * float(_GL_WEIGHTS @ (1.0 - 2.0 * x * dawsn(x)))
    if e >= DAWSON_SMALL_EPS:
        f_plus, f_minus = kms_sine_transform(np.array([dtau + L, dtau - L]), beta)
        return float(f_plus - f_minus) / (2.0 * L)
    x = dtau + L * _GL_NODES
    return 0.5 * float(_GL_WEIGHTS @ kms_sine_transform(x, beta, derivative=True))


@functools.lru_cache(maxsize=64)
def self_norm_closed(state: FieldStateSpec) -> float:
    """J(0, 0, beta) = cross_real_closed(0, 0, beta), 1 in the vacuum, so that
    ||Ef||^2 = norm_sq_closed(f) * self_norm_closed(state).  Cached: a sweep
    has one state, and every row's norms need this one value."""
    return cross_real_closed(0.0, 0.0, state.beta)


def kms_sine_transform(
    x: np.ndarray, beta: float, derivative: bool = False, route: str | None = None
) -> np.ndarray:
    """F(x) = int_0^inf exp(-k^2/2) coth(beta k/2) sin(k x) dk, or F'(x), on a 1-D array.

    Two series give F without quadrature:
    - Matsubara ("matsubara"): the partial fractions
      coth(z) = 1/z + sum_m 2z / (z^2 + pi^2 m^2) (Abramowitz & Stegun 4.5)
      give F = (pi/beta) erf(x/sqrt2) + (4/beta) sum_m P(x, a_m) with
      a_m = 2 pi m / beta and
      P(x, a) = (pi/4) exp(-x^2/2) [erfcx((a - x)/sqrt2) - erfcx((a + x)/sqrt2)],
      through erfcx(-u) = 2 exp(u^2) - erfcx(u) where x > a (A&S 7.1);
      past m = M, P is expanded in 1/a^2 (Gaussian Hermite moments times
      Hurwitz zeta(2j, M + 1)).  Fast where beta is small.
    - images ("images"): coth = 1 + 2 sum_n exp(-n beta k) gives
      F = sqrt2 D(x/sqrt2) + 2 sum_n h(x, n beta) with
      h(x, c) = sqrt(pi/2) Im w((x + i c)/sqrt2), w the Faddeeva function
      (A&S 7.1); past n = N, h is expanded in 1/c^2 (Laplace moments times
      zeta(2j, N + 1) / beta^2j).  Fast where beta is large.
    Each route takes as many terms as its tail needs for all of x; route
    None takes the one with fewer, and both agree to rounding where both run.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    mags = ax.tolist()
    near, far = min(mags), max(mags)
    reach = MATSUBARA_CUT if near < FAR_X else FAR_DECAY / near
    # term counts as floats first: at extreme beta the unused one is inf
    m = reach / (2.0 * math.pi) * beta
    n = IMAGE_CUT * (far + 2.0) / beta
    if route is None:
        route = "matsubara" if m <= n else "images"
    if route == "matsubara":
        return _matsubara(x, ax, far, beta, math.ceil(m), derivative)
    if route == "images":
        return _images(x, beta, math.ceil(n), derivative)
    raise ValueError(f"unknown route {route!r}; choose matsubara or images")


def _tail_coefficients(scale: float, start: int, shift: int) -> list[float]:
    # scale^p zeta(p, start) at degree p - 1 + shift, for p in TAIL_POWERS
    coef = [0.0] * (TAIL_POWERS[-1] + shift)
    for p, z in zip(TAIL_POWERS, zeta(np.array(TAIL_POWERS, dtype=float), start).tolist()):
        coef[p - 1 + shift] = scale**p * z
    return coef


def _hermite_e(x, coef: list) -> np.ndarray:
    # sum_k coef[k] He_k(v) for each v in x, by Clenshaw's recurrence on
    # He_{k+1} = v He_k - k He_{k-1}; v may be complex.  x has 2 or 6
    # elements, where numpy's hermeval costs more than the whole series.
    out = []
    for v in x.tolist():
        b1 = b2 = 0.0
        for k in range(len(coef) - 1, 0, -1):
            b1, b2 = coef[k] + v * b1 - (k + 1) * b2, b1
        out.append(coef[0] + v * b1 - b2)
    return np.array(out)


def _matsubara(x, ax, far: float, beta: float, m: int, derivative: bool) -> np.ndarray:
    col = ax[:, None]
    step = 2.0 * math.pi / beta
    a = step * np.arange(1, m + 1)
    # past |x| = K_MAX the Gaussian is 0.0 in doubles; clipping there keeps
    # x^2 and the tail's Hermite moments finite, so the tail is 0, not 0 * inf
    ax_clip = np.minimum(ax, K_MAX)
    gauss = np.exp(-0.5 * ax_clip * ax_clip)
    g = gauss[:, None]
    lower = g * erfcx(np.abs(a - col) / SQRT2)
    if step < far:
        # where a < |x| the argument of erfcx((a - |x|)/sqrt2) is negative;
        # far off the light cone the exponent may overflow to -inf, whose exp,
        # 0, is the limit
        with np.errstate(over="ignore"):
            below = 2.0 * np.exp(np.minimum(a * (0.5 * a - col), 0.0)) - lower
        lower = np.where(a < col, below, lower)
    upper = g * erfcx((a + col) / SQRT2)
    tail = _tail_coefficients(beta / (2.0 * math.pi), m + 1, int(derivative))
    moments = SQRT_HALF_PI * _hermite_e(ax_clip, tail)
    if derivative:
        # each of the m terms is sqrt(pi/2) exp(-x^2/2) - (pi a/4) (lower + upper)
        terms = 2.0 * SQRT_HALF_PI * (2 * m + 1) * gauss - math.pi * ((lower + upper) @ a)
        return (terms - 4.0 * gauss * moments) / beta
    terms = math.pi * (erf(ax / SQRT2) + (lower - upper).sum(axis=1))
    return np.sign(x) * (terms + 4.0 * gauss * moments) / beta


def _images(x: np.ndarray, beta: float, n: int, derivative: bool) -> np.ndarray:
    z = (x[:, None] + 1j * beta * np.arange(1, n + 1)) / SQRT2
    w = wofz(z)
    tail = _tail_coefficients(1.0 / beta, n + 1, 0)
    if derivative:
        terms = (1.0 - math.sqrt(math.pi) * (z * w).imag).sum(axis=1)
        # d/dx Im p(ix) = Re p'(ix), and He_k' = k He_{k-1}
        moments = _hermite_e(1j * x, [k * c for k, c in enumerate(tail)][1:]).real
        return 1.0 - SQRT2 * x * dawsn(x / SQRT2) + 2.0 * (terms + moments)
    terms = SQRT_HALF_PI * w.imag.sum(axis=1)
    moments = _hermite_e(1j * x, tail).imag
    return SQRT2 * dawsn(x / SQRT2) + 2.0 * (terms + moments)


# ---------------------------------------------------------------------------
# radial quadrature oracle: --oracle, selftest and the tests call it; no
# statistics path does
# ---------------------------------------------------------------------------

def _geom_factor(k: float, L: float) -> float:
    # sin(kL)/L; below SERIES_CUTOFF it equals k to double precision, which
    # also covers L = 0 and subnormal L, where k*L has lost its digits
    x = k * L
    return math.sin(x) / L if x >= SERIES_CUTOFF else k


def _coth_half(k: float, beta: float) -> float:
    # coth(beta k / 2); series below 1e-8 where tanh underflows relative accuracy
    x = 0.5 * beta * k
    if x < 1e-8:
        return 1.0 / x + x / 3.0
    return 1.0 / math.tanh(x)


def _commutator_trapezoid(L: float, dtau: float) -> tuple[float, float]:
    """Im J by the trapezoid rule at MP_DPS digits, for the cancellation regime.

    Im J = -int_0^inf exp(-k^2/2) sin(kL)/L sin(k dtau) dk has an even,
    entire integrand, so the trapezoid rule converges exponentially on it
    (Trefethen & Weideman, SIAM Review 56 (2014) 385): its error is the
    integrand's Fourier transform at multiples of 2 pi / h.  That transform
    is a sum of unit-width Gaussians centred at +-(dtau +- L), so the step
    h = 2 pi / (L + |dtau| + TRAPEZOID_K) leaves the nearest alias
    TRAPEZOID_K away, below 10^-(MP_DPS + 5), and the window
    [0, TRAPEZOID_K] drops a tail of the same size.  The sum is taken at
    step h and at h/2 on nested nodes; the estimate is |T(h) - T(h/2)|, or
    the sum's rounding, 10^-MP_DPS h sum |f|, if that is larger.  Raises
    QuadratureError without integrating past TRAPEZOID_MAX_NODES.
    """
    reach = L + abs(dtau) + TRAPEZOID_K
    # nodes at step h/2 on [0, K]; a float, which may be inf at extreme reach
    nodes = TRAPEZOID_K * reach / math.pi
    if nodes > TRAPEZOID_MAX_NODES:
        raise QuadratureError(
            f"commutator trapezoid needs {nodes:.3g} nodes, past its cap of "
            f"{TRAPEZOID_MAX_NODES} (L={L}, dtau={dtau})",
            estimate=math.inf,
        )
    # h is a double, so each node j h/2 and its products with L and dtau are
    # exact at MP_DPS digits: a term carries only its functions' rounding
    h = 2.0 * math.pi / reach
    with mpmath.workdps(MP_DPS):
        Lm, dt, step = mpmath.mpf(L), mpmath.mpf(dtau), mpmath.mpf(h) / 2

        def f(k):
            g = k if L == 0.0 else mpmath.sin(k * Lm) / Lm
            return -mpmath.exp(-k * k / 2) * g * mpmath.sin(k * dt)

        # the integrand vanishes at k = 0; nodes j h/2 with j even are T(h)'s
        values = [f(j * step) for j in range(1, math.floor(nodes) + 1)]
        even = mpmath.fsum(values[1::2])
        odd = mpmath.fsum(values[0::2])
        coarse = 2 * step * even
        fine = step * (even + odd)
        rounding = mpmath.mpf(10) ** -MP_DPS * step * mpmath.fsum(abs(v) for v in values)
        return float(fine), float(max(abs(fine - coarse), rounding))


def _radial_integral(L: float, dtau: float, beta: float | None) -> tuple[complex, float]:
    """Dimensionless radial integral J with error estimate.

    J = int_0^K_MAX dk exp(-k^2/2) * sin(kL)/L * [coth(beta k/2)]_re * exp(-ik dtau)

    The thermal coth kernel multiplies the real (symmetric) component only;
    the imaginary component is the commutator part and is temperature
    independent.  Both components run through quad, Re J with a breakpoint
    at k = 1/beta for the thermal bump below it.  Every consumer compares
    Re J absolutely, so it is never escalated: missing its target raises at
    once, before Im J is integrated.  Im J carries the commutator, compared
    relatively, so below ESCALATION_RATIO or off its target it is recomputed
    by _commutator_trapezoid, at MP_DPS digits on [0, TRAPEZOID_K] at step
    2 pi / (L + |dtau| + TRAPEZOID_K), for L + |dtau| up to 2e3.  Returns
    (J, error_estimate); raises QuadratureError when a component's estimate
    misses both the absolute and the relative target, and, with estimate
    inf, where k L or k dtau overflows on the window.
    """

    def re_kern(k: float) -> float:
        v = math.exp(-0.5 * k * k) * _geom_factor(k, L)
        if beta is not None:
            v *= _coth_half(k, beta)
        return v * math.cos(k * dtau)

    def im_kern(k: float) -> float:
        return -math.exp(-0.5 * k * k) * _geom_factor(k, L) * math.sin(k * dtau)

    def misses(value: float, err: float) -> bool:
        return err > max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value))

    def check(part: str, value: float, err: float) -> None:
        if misses(value, err):
            raise QuadratureError(
                f"radial quadrature did not converge: error estimate {err:.3e} "
                f"for {part} J = {value!r} (L={L}, dtau={dtau}, beta={beta})",
                estimate=err,
            )

    if not math.isfinite(K_MAX * max(L, abs(dtau))):
        # sin(k L) or cos(k dtau) of an overflowed product is undefined
        raise QuadratureError(f"k L or k dtau overflows on [0, {K_MAX}] (L={L}, dtau={dtau})",
                              estimate=math.inf)

    # coth(beta k / 2) makes a bump of width about 1/beta at k = 0, which
    # the adaptive rule can step over at large beta: a breakpoint at 1/beta
    # makes it look there
    breaks = [1.0 / beta] if beta is not None and 1.0 / beta < K_MAX else None
    # quad appends a message to its result when it warns; the error
    # estimate decides what happens then
    re, re_err, _ = quad(re_kern, 0.0, K_MAX, epsabs=1e-13, epsrel=1e-11,
                         limit=400, points=breaks, full_output=1)[:3]
    check("Re", re, re_err)
    if dtau == 0.0:
        # the imaginary integrand is identically zero, not a cancellation
        return complex(re, 0.0), re_err
    im, im_err, _ = quad(im_kern, 0.0, K_MAX, epsabs=1e-13, epsrel=1e-11,
                         limit=400, full_output=1)[:3]
    if abs(im) < ESCALATION_RATIO or misses(im, im_err):
        im, im_err = _commutator_trapezoid(L, dtau)
    check("Im", im, im_err)
    return complex(re, im), max(re_err, im_err)


def wightman_cross_quadrature(
    f_a: SmearingSpec,
    f_b: SmearingSpec,
    geom: PairGeometry,
    state: FieldStateSpec = VACUUM,
) -> complex:
    """Smeared two-point value W(f_A, f_B) by radial quadrature.

    Im W(f_A, f_B) = -Delta(f_A, f_B)/2 holds for every state: the thermal
    kernel enhances only the real (symmetric) part.
    """
    j, _ = _radial_integral(geom.separation, geom.delay, state.beta)
    return pair_prefactor(f_a, f_b) * j


def self_norm_j(state: FieldStateSpec) -> float:
    """J(0, 0, beta) by quadrature: ||Ef||^2 = pair_prefactor(f, f) * J(0, 0, beta)."""
    j, _ = _radial_integral(0.0, 0.0, state.beta)
    return j.real


def norm_sq_quadrature(f: SmearingSpec, state: FieldStateSpec = VACUUM) -> float:
    """||Ef||^2 by quadrature; the degenerate (L=0, dtau=0) cross value."""
    return pair_prefactor(f, f) * self_norm_j(state)


def assemble_statistics(
    f_a: SmearingSpec,
    f_b: SmearingSpec,
    geom: PairGeometry,
    state: FieldStateSpec = VACUUM,
) -> FieldStatistics:
    """All five channel-determining scalars for one detector pair.

    nu_j = exp(-2 ||Ef_j||^2) and nu_ab_pm = exp(-2 ||E(f_A +- f_B)||^2)
    with the cross norm expanded through Re W(f_A, f_B).  Every scalar is
    closed form, so no integral runs: Re W through cross_real_closed, the
    vacuum norms through norm_sq_closed, and a thermal norm as the vacuum
    one times J(0, 0, beta) = self_norm_closed(state).  The commutator is
    state independent, so delta_ab always comes from commutator_closed.
    The quadrature is the oracle for all of them.
    """
    n_a = norm_sq_closed(f_a)
    n_b = norm_sq_closed(f_b)
    if state.is_thermal:
        j0 = self_norm_closed(state)
        n_a, n_b = n_a * j0, n_b * j0
    re_w = pair_prefactor(f_a, f_b) * cross_real_closed(geom.separation, geom.delay, state.beta)
    delta = commutator_closed(f_a, f_b, geom)
    # ||E(f_A +- f_B)||^2 >= 0 since |Re J| <= J(0, 0, beta); at equal
    # couplings near L = 0 rounding can leave it an ulp below zero
    return FieldStatistics(
        nu_a=math.exp(-2.0 * n_a),
        nu_b=math.exp(-2.0 * n_b),
        nu_ab_plus=math.exp(-2.0 * max(n_a + n_b + 2.0 * re_w, 0.0)),
        nu_ab_minus=math.exp(-2.0 * max(n_a + n_b - 2.0 * re_w, 0.0)),
        delta_ab=delta,
    )
