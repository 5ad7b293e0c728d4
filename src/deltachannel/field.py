"""Field-side scalars for a pair of delta-switched Gaussian detectors.

Closed forms for the massless scalar field in the vacuum and in a thermal
(KMS) state, and an independent radial quadrature oracle for both: the
statistics never integrate.  The vacuum closed forms need only math and
numpy, the Dawson function being this module's own (see dawson);
scipy.special is imported on a thermal series' first call,
scipy.integrate on the oracle's first call and mpmath on its first Im J,
none of them with this module (see quad and _commutator_trapezoid).
residual is the one rule that compares the two, for a sweep row's
oracle_residual (through oracle_residual) and for selftest's grid.  The
oracle takes one route per component of J (see _radial_integral): Re J,
compared absolutely, by quad; Im J, the commutator part, compared
relatively, by a 50-digit trapezoid rule whose nodes run on fixed-point
integer recurrences, mpmath computing only their seeds.  The couplings
are only a prefactor, so both routes cache their J by (L, dtau, beta)
for the last GEOMETRY_CACHE_SIZE geometries: cross_real_closed its Re J,
and oracle_j the integral or its QuadratureError, so a process
integrates each geometry once, whether it succeeds or fails.  Everything
is dimensionless in units of the Gaussian smearing width sigma: couplings
are lambda_tilde/sigma, distances L/sigma, delays dtau/sigma, inverse
temperatures beta/sigma.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

FOUR_PI_SQ = 4.0 * math.pi**2
SQRT_PI = math.sqrt(math.pi)
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
MP_DPS = 50
# denominator floor of every relative closed-form check (see residual)
RESIDUAL_FLOOR = 1e-12
# The trapezoid rule runs on [0, K] with exp(-K^2/2) = 10^-(MP_DPS + 5), at
# step h = 2 pi / (L + |dtau| + K), so it takes K (L + |dtau| + K) / pi
# nodes at step h/2.  The cap admits L + |dtau| <= 2e3, the corner of the
# accepted domain (L <= 1e3, |dtau| <= 1e3): about 1e4 nodes, about 20 ms.
# Past it the rule raises QuadratureError without integrating.
TRAPEZOID_K = math.sqrt(2.0 * math.log(10.0) * (MP_DPS + 5))
TRAPEZOID_MAX_NODES = math.ceil(TRAPEZOID_K * (2e3 + TRAPEZOID_K) / math.pi)
# The rule's recurrences run on integers scaled by 2^TRAPEZOID_BITS, 20
# digits past MP_DPS: their forward error at node j, about
# j^2 2^-TRAPEZOID_BITS ~ 1e-62 of the integrand's scale, stays far below
# the rule's own 10^-MP_DPS rounding term.
TRAPEZOID_BITS = math.ceil((MP_DPS + 20) * math.log2(10.0))

# The Dawson function (see dawson).  Its Taylor series runs below
# DAWSON_TAYLOR_MAX, where the first of its terms left out is under 2e-19
# of the sum; its asymptotic series above DAWSON_ASYMPTOTIC_MIN, where the
# first left out is under 5e-21; Rybicki's series between them.  At step
# DAWSON_H that series leaves out exp(-(pi / 2h)^2) ~ 2e-27 of the sum, and
# the odd n whose weight exp(-(n h)^2) is above 1e-18 reach every bit of a
# double.
DAWSON_TAYLOR_MAX = 1.0
DAWSON_ASYMPTOTIC_MIN = 25.0
DAWSON_H = 0.2
# (-2)^n / (2n + 1)!!, each correctly rounded (int / int is)
_DAWSON_TAYLOR = tuple((-2) ** n / math.prod(range(1, 2 * n + 2, 2)) for n in range(20))
_DAWSON_PAIRS = tuple(
    (n, math.exp(-(n * DAWSON_H) ** 2)) for n in range(1, 40, 2)
    if math.exp(-(n * DAWSON_H) ** 2) > 1e-18
)

# Below this half-width the Dawson difference quotient in cross_real_closed
# cancels; the mean of D' over the interval is taken instead by
# _dawson_slope_mean, or by Gauss-Legendre, whose 6-point error there is far
# below double precision.
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

# Entries of each per-geometry cache, cross_real_closed's and the oracle's
# (see oracle_j).  A sweep runs its last axis innermost: with a coupling axis
# innermost a geometry repeats in consecutive rows, and two entries would
# do, but with an L or dtau axis inside a coupling axis each geometry comes
# back only after all the others, so the cache must hold the whole (L, dtau)
# grid, here up to 64 x 64.  A larger grid integrates every row, as two
# entries would.  An entry takes about 120 bytes in the first cache and 240
# in the second (320 for a remembered QuadratureError), so both caches full
# stay under 2 MB.
GEOMETRY_CACHE_SIZE = 4096


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


def dawson(x: float) -> float:
    """The Dawson function D(x) = exp(-x^2) int_0^x exp(t^2) dt, within 4 ulp.

    - |x| < DAWSON_TAYLOR_MAX: x sum_n (-2x^2)^n / (2n + 1)!!, A&S 7.1.6
      at z = i x, so a subnormal x gives x;
    - |x| > DAWSON_ASYMPTOTIC_MIN: (1/2x) sum_n (2n - 1)!! / (2x^2)^n,
      which is 0.0 at +-inf;
    - between them Rybicki's sampling-theorem series (Numerical Recipes
      2nd ed. section 6.10), D(x) = pi^(-1/2) sum_{n odd}
      exp(-(x' - n h)^2) / (n0 + n), shifted to the nearest even multiple
      n0 h of the step h = DAWSON_H, x' = x - n0 h, summed with math.fsum.
    Odd bit for bit, including the sign of zero.
    """
    ax = abs(x)
    if ax < DAWSON_TAYLOR_MAX:
        u = x * x
        s = 0.0
        for c in reversed(_DAWSON_TAYLOR):
            s = s * u + c
        return x * s
    if ax <= DAWSON_ASYMPTOTIC_MIN:
        n0 = 2 * round(ax / (2.0 * DAWSON_H))
        xp = ax - n0 * DAWSON_H
        t = 2.0 * DAWSON_H * xp
        # exp(-(x' -+ n h)^2) = exp(-x'^2) exp(-(n h)^2) exp(+-n t)
        terms = []
        for n, weight in _DAWSON_PAIRS:
            e = math.exp(n * t)
            terms += (weight * e / (n0 + n), weight / (e * (n0 - n)))
        return math.copysign(math.exp(-xp * xp) * math.fsum(terms) / SQRT_PI, x)
    # NaN lands here too, and stays NaN
    v = 0.5 / (ax * ax)
    s = 1.0
    for k in range(15, 0, -2):
        s = 1.0 + k * v * s
    return math.copysign(0.5 / ax * s, x)


def _dawson_slope_mean(b: float, e: float) -> float:
    """[D(b + e) - D(b - e)] / (2e), the mean of D' over [b - e, b + e], for
    e < DAWSON_SMALL_EPS and |b| in dawson's range of Rybicki's series.

    Each term of that series is differenced on its own, at the shift n0 h
    nearest |b| (D' is even):
    exp(-(u + e)^2) - exp(-(u - e)^2) = -2 exp(-u^2 - e^2) sinh(2 u e),
    so the mean is -(2 / sqrt(pi)) exp(-e^2) sum_n u_n exp(-u_n^2)
    sinhc(2 u_n e) / (n0 + n), u_n = |b| - (n0 + n) h, sinhc(z) = sinh(z)/z.
    Nothing cancels as e -> 0, e = 0 gives D'(b), and a subnormal e gives
    its bits.  One sum of 32 terms, where Gauss-Legendre would take six
    calls of dawson.
    """
    ab = abs(b)
    n0 = 2 * round(ab / (2.0 * DAWSON_H))
    y = ab - n0 * DAWSON_H
    terms = []
    for n, _ in _DAWSON_PAIRS:
        for m in (n, -n):
            u = y - m * DAWSON_H
            z = 2.0 * u * e
            terms.append(u * math.exp(-u * u) * (math.sinh(z) / z if z else 1.0) / (n0 + m))
    return -2.0 * math.exp(-e * e) * math.fsum(terms) / SQRT_PI


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def cross_real_closed(L: float, dtau: float, beta: float | None = None) -> float:
    """Re J(L, dtau, beta) in closed form: the vacuum (beta None) or a KMS state.

    Re J = [F(dtau + L) - F(dtau - L)] / (2 L) with F the odd function of
    kms_sine_transform.  In the vacuum F(x) = sqrt2 D(x / sqrt2) with D the
    Dawson function, so Re J = [D(b + e) - D(b - e)] / (2 e), e = L/sqrt2
    and b = dtau/sqrt2 (Abramowitz & Stegun 7.1).  The quotient is the mean
    of F' over [dtau - L, dtau + L]; below DAWSON_SMALL_EPS that mean is
    taken free of the quotient's cancellation: in the vacuum by
    _dawson_slope_mean where dawson would sum Rybicki's series, else by
    Gauss-Legendre.  L = 0
    gives F'(dtau), so J(0, 0) = 1 in the vacuum and J(0, 0, beta) =
    cross_real_closed(0, 0, beta), and a subnormal L gives the same bits.
    Re W(f_A, f_B) = pair_prefactor(f_A, f_B) * Re J.  The last
    GEOMETRY_CACHE_SIZE values are cached, so a sweep computes J(0, 0, beta)
    and each geometry's Re J once, and a row's residual reuses its
    statistics' values; -0.0 and 0.0 share a key and give the same bits.
    """
    e = L / SQRT2
    if beta is None:
        b = dtau / SQRT2
        if e >= DAWSON_SMALL_EPS:
            return (dawson(b + e) - dawson(b - e)) / (2.0 * e)
        if DAWSON_TAYLOR_MAX <= abs(b) <= DAWSON_ASYMPTOTIC_MIN:
            return _dawson_slope_mean(b, e)
        d_prime = [1.0 - 2.0 * x * dawson(x) for x in (b + e * _GL_NODES).tolist()]
        return 0.5 * float(_GL_WEIGHTS @ d_prime)
    if e >= DAWSON_SMALL_EPS:
        f_plus, f_minus = kms_sine_transform(np.array([dtau + L, dtau - L]), beta).tolist()
        return (f_plus - f_minus) / (2.0 * L)
    x = dtau + L * _GL_NODES
    return 0.5 * float(_GL_WEIGHTS @ kms_sine_transform(x, beta, derivative=True))


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
    Each argument takes the route that needs fewer terms for it alone, and
    the arguments that share a route share one sum, which takes as many
    terms as its tail needs for all of them; both routes agree to rounding
    where both run.  route puts every argument in one group on that route.
    """
    x = np.asarray(x, dtype=float)
    if route not in (None, "matsubara", "images"):
        raise ValueError(f"unknown route {route!r}; choose matsubara or images")
    ax = np.abs(x)
    mags = ax.tolist()
    groups: dict[str, list[int]] = {}
    for i, v in enumerate(mags):
        m, n = _term_counts(v, v, beta)
        groups.setdefault(route or ("matsubara" if m <= n else "images"), []).append(i)
    out = np.empty_like(x)
    for name, idx in groups.items():
        far = max(mags[i] for i in idx)
        m, n = _term_counts(min(mags[i] for i in idx), far, beta)
        if name == "matsubara":
            out[idx] = _matsubara(x[idx], ax[idx], far, beta, math.ceil(m), derivative)
        else:
            out[idx] = _images(x[idx], beta, math.ceil(n), derivative)
    return out


def _term_counts(near: float, far: float, beta: float) -> tuple[float, float]:
    # (Matsubara, images) terms for arguments with |x| in [near, far], as
    # floats: at extreme beta the one that is not taken is inf
    reach = MATSUBARA_CUT if near < FAR_X else FAR_DECAY / near
    return reach / (2.0 * math.pi) * beta, IMAGE_CUT * (far + 2.0) / beta


def _tail_coefficients(scale: float, start: int, shift: int) -> list[float]:
    # scale^p zeta(p, start) at degree p - 1 + shift, for p in TAIL_POWERS.
    # scipy.special loads on a thermal row's first call, here and in
    # _matsubara and _images: no vacuum route needs it.
    from scipy.special import zeta

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
    from scipy.special import erf, erfcx

    col = ax[:, None]
    step = 2.0 * math.pi / beta
    a = step * np.arange(1, m + 1)
    # past |x| = K_MAX the Gaussian is 0.0 in doubles; clipping there keeps
    # x^2 and the tail's Hermite moments finite, so the tail is 0, not 0 * inf
    ax_clip = np.minimum(ax, K_MAX)
    gauss = np.exp(-0.5 * ax_clip * ax_clip)
    g = gauss[:, None]
    # below beta ~ 3.5e-308 a is inf, and so is an |x| past the float range:
    # their difference is NaN, which the caller's domain check rejects
    with np.errstate(invalid="ignore"):
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
    # below beta ~ 3.5e-308 the step 2 pi / beta is inf, so the terms are
    # 0 * inf and F / beta overflows: the NaN or inf is the caller's domain
    # error, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if derivative:
            # each of the m terms is sqrt(pi/2) exp(-x^2/2) - (pi a/4) (lower + upper)
            terms = 2.0 * SQRT_HALF_PI * (2 * m + 1) * gauss - math.pi * ((lower + upper) @ a)
            return (terms - 4.0 * gauss * moments) / beta
        terms = math.pi * (erf(ax / SQRT2) + (lower - upper).sum(axis=1))
        return np.sign(x) * (terms + 4.0 * gauss * moments) / beta


def _images(x: np.ndarray, beta: float, n: int, derivative: bool) -> np.ndarray:
    from scipy.special import wofz

    z = (x[:, None] + 1j * beta * np.arange(1, n + 1)) / SQRT2
    w = wofz(z)
    d = np.array([dawson(v) for v in (x / SQRT2).tolist()])
    tail = _tail_coefficients(1.0 / beta, n + 1, 0)
    if derivative:
        terms = (1.0 - SQRT_PI * (z * w).imag).sum(axis=1)
        # d/dx Im p(ix) = Re p'(ix), and He_k' = k He_{k-1}
        moments = _hermite_e(1j * x, [k * c for k, c in enumerate(tail)][1:]).real
        return 1.0 - SQRT2 * x * d + 2.0 * (terms + moments)
    terms = SQRT_HALF_PI * w.imag.sum(axis=1)
    moments = _hermite_e(1j * x, tail).imag
    return SQRT2 * d + 2.0 * (terms + moments)


# ---------------------------------------------------------------------------
# radial quadrature oracle: --oracle, selftest and the tests call it; no
# statistics path does
# ---------------------------------------------------------------------------

def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call: only the oracle
    integrates, so a process that never runs it never loads the module.
    Arguments and result pass through unchanged."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _commutator_trapezoid(L: float, dtau: float) -> tuple[float, float]:
    """Im J by the trapezoid rule at MP_DPS digits, free of float64 cancellation.

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

    The nodes k_j = j h/2 run on exact recurrences over integers scaled by
    2^TRAPEZOID_BITS, so mpmath computes only the seeds: the Gaussian as
    g_j = g_{j-1} r_j with r_{j+1} = r_j exp(-(h/2)^2), and sin(k_j L)/L
    and sin(k_j dtau) as sin(j t) = sin(t) U_{j-1}(cos t) by the Chebyshev
    recurrence U_j = 2 cos(t) U_{j-1} - U_{j-2}, at t = L h/2 and
    t = dtau h/2 (cos t = 1 gives U_{j-1} = j, so L = 0 takes k_j itself).
    """
    import mpmath

    reach = L + abs(dtau) + TRAPEZOID_K
    # nodes at step h/2 on [0, K]; a float, which may be inf at extreme reach
    nodes = TRAPEZOID_K * reach / math.pi
    if nodes > TRAPEZOID_MAX_NODES:
        raise QuadratureError(
            f"commutator trapezoid needs {nodes:.3g} nodes, past its cap of "
            f"{TRAPEZOID_MAX_NODES} (L={L}, dtau={dtau})",
            estimate=math.inf,
        )
    h = 2.0 * math.pi / reach
    bits = TRAPEZOID_BITS
    with mpmath.workprec(bits + 32):
        # h is a double, so h/2 and its products with L and dtau are exact
        step = mpmath.mpf(h) / 2
        gauss = mpmath.exp(-step * step / 2)
        cos_l, sin_l = mpmath.cos_sin(step * L)
        cos_t, sin_t = mpmath.cos_sin(step * dtau)
        # f(k_j) = scale g_j U_{j-1}(cos_l) U_{j-1}(cos_t); the loop keeps
        # each product g_j U U, scaled by 2^(3 bits)
        scale = -(step if L == 0.0 else sin_l / L) * sin_t

        def fixed(v):
            return int(mpmath.nint(mpmath.ldexp(v, bits)))

        r, q = fixed(gauss), fixed(gauss * gauss)
        two_cos_l, two_cos_t = 2 * fixed(cos_l), 2 * fixed(cos_t)
    one = 1 << bits
    g, u_l, u_l_prev, u_t, u_t_prev = one, one, 0, one, 0
    terms = []
    for _ in range(math.floor(nodes)):
        g = g * r >> bits
        r = r * q >> bits
        terms.append(g * u_l * u_t)
        u_l, u_l_prev = (two_cos_l * u_l >> bits) - u_l_prev, u_l
        u_t, u_t_prev = (two_cos_t * u_t >> bits) - u_t_prev, u_t
    # the integrand vanishes at k = 0; nodes j h/2 with j even are T(h)'s
    even, odd = sum(terms[1::2]), sum(terms[0::2])
    with mpmath.workprec(bits + 32):
        unit = mpmath.ldexp(step * scale, -3 * bits)
        fine = unit * (even + odd)
        rounding = mpmath.mpf(10) ** -MP_DPS * abs(unit) * sum(map(abs, terms))
        # |T(h/2) - T(h)| = |unit (odd - even)|
        return float(fine), float(max(abs(unit * (odd - even)), rounding))


def _radial_integral(L: float, dtau: float, beta: float | None) -> tuple[complex, float]:
    """Dimensionless radial integral J with error estimate.

    J = int_0^K_MAX dk exp(-k^2/2) * sin(kL)/L * [coth(beta k/2)]_re * exp(-ik dtau)

    The thermal coth kernel multiplies the real (symmetric) component only;
    the imaginary component is the commutator part and is temperature
    independent.  Each component has one route.  Re J, which every consumer
    compares absolutely, runs through quad, with breakpoints at k = 1/beta
    and, below k = 1, at 4/beta and 16/beta, for the thermal bump; missing
    its target raises at once, before Im J is computed.  Im J carries the
    commutator, compared relatively, which float64 cancellation would spoil
    wherever Im J is small, so it is _commutator_trapezoid's, at MP_DPS
    digits on [0, TRAPEZOID_K] at step 2 pi / (L + |dtau| + TRAPEZOID_K),
    for L + |dtau| up to 2e3; at dtau = 0 it is exactly 0.  Returns
    (J, error_estimate); raises QuadratureError when a component's estimate
    misses both the absolute and the relative target, and, with estimate
    inf, where k L or k dtau overflows on the window.
    """

    # sin(kL)/L; below SERIES_CUTOFF it equals k to double precision, which
    # also covers L = 0 and subnormal L, where k*L has lost its digits.  The
    # thermal kernel is coth(beta k / 2), by its series below 1e-8, where
    # tanh loses relative accuracy.
    def re_kern(k: float) -> float:
        x = k * L
        v = math.exp(-0.5 * k * k) * (math.sin(x) / L if x >= SERIES_CUTOFF else k)
        if beta is not None:
            y = 0.5 * beta * k
            # at tiny beta y underflows to 0.0: coth is then inf, as the
            # series' 1/y is for subnormal y, and the non-finite J a miss
            v *= (1.0 / y + y / 3.0 if y else math.inf) if y < 1e-8 else 1.0 / math.tanh(y)
        return v * math.cos(k * dtau)

    def check(part: str, value: float, err: float) -> None:
        # a non-finite value or estimate (J past the float range) is a miss
        if not (math.isfinite(value) and err <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value))):
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
    # the adaptive rule can step over at large beta.  Breakpoints at 1/beta
    # and, below k = 1, at 4/beta and 16/beta make it look there; past
    # 16/beta what is left of the bump, exp(-16) of it, no longer hides.
    breaks = None
    if beta is not None and 1.0 / beta < K_MAX:
        breaks = [1.0 / beta] + [c / beta for c in (4.0, 16.0) if c / beta < 1.0]
    # quad appends a message to its result when it warns; the error
    # estimate decides what happens then
    re, re_err, _ = quad(re_kern, 0.0, K_MAX, epsabs=1e-13, epsrel=1e-11,
                         limit=400, points=breaks, full_output=1)[:3]
    check("Re", re, re_err)
    if dtau == 0.0:
        # the imaginary integrand is identically zero, not a cancellation
        return complex(re, 0.0), re_err
    im, im_err = _commutator_trapezoid(L, dtau)
    check("Im", im, im_err)
    return complex(re, im), max(re_err, im_err)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _remembered_j(L: float, dtau: float, beta: float | None):
    # _radial_integral's J, or its QuadratureError's message and estimate:
    # not the error itself, whose traceback would grow at each raise
    try:
        return _radial_integral(L, dtau, beta)[0], None
    except QuadratureError as exc:
        return None, (str(exc), exc.estimate)


def oracle_j(L: float, dtau: float, beta: float | None) -> complex:
    """J(L, dtau, beta) by _radial_integral, integrated once per geometry
    per process: the last GEOMETRY_CACHE_SIZE outcomes are cached, a
    QuadratureError's too, which is raised afresh, with the same message
    and estimate, at each call.  -0.0 and 0.0 share a key and give the
    same bits."""
    j, failure = _remembered_j(L, dtau, beta)
    if failure:
        raise QuadratureError(*failure)
    return j


def wightman_cross_quadrature(
    f_a: SmearingSpec,
    f_b: SmearingSpec,
    geom: PairGeometry,
    state: FieldStateSpec = VACUUM,
) -> complex:
    """Smeared two-point value W(f_A, f_B) by radial quadrature (oracle_j).

    Im W(f_A, f_B) = -Delta(f_A, f_B)/2 holds for every state: the thermal
    kernel enhances only the real (symmetric) part.
    """
    return pair_prefactor(f_a, f_b) * oracle_j(geom.separation, geom.delay, state.beta)


def self_norm_j(state: FieldStateSpec) -> float:
    """J(0, 0, beta) by quadrature: ||Ef||^2 = pair_prefactor(f, f) * J(0, 0, beta).
    oracle_j's entry at (0, 0, beta), so integrated once per state."""
    return oracle_j(0.0, 0.0, state.beta).real


def norm_sq_quadrature(f: SmearingSpec, state: FieldStateSpec = VACUUM) -> float:
    """||Ef||^2 by quadrature; the degenerate (L=0, dtau=0) cross value."""
    return pair_prefactor(f, f) * self_norm_j(state)


def residual(
    f_a: SmearingSpec,
    f_b: SmearingSpec,
    geom: PairGeometry,
    state: FieldStateSpec,
    w_cross: complex,
    j0: float,
) -> float:
    """Largest disagreement between the closed forms and the quadrature
    values w_cross = W(f_A, f_B) and j0 = J(0, 0, beta).

    The commutator, relatively; both norms, relatively, from the one
    J(0, 0, beta); and Re W(f_A, f_B) as the absolute difference in Re J
    over J(0, 0, beta), which is Delta Re W / sqrt(n_a n_b), so a zero
    crossing of Re J cannot inflate it.  In the vacuum J(0, 0) = 1.  A
    relative term divides by at least RESIDUAL_FLOOR.  A norm whose closed
    form and quadrature overflow to the same infinity agrees; any other
    undefined term makes the residual NaN.
    """
    d_closed = commutator_closed(f_a, f_b, geom)
    terms = [abs(d_closed - (-2.0 * w_cross.imag)) / max(abs(d_closed), RESIDUAL_FLOOR)]
    j0_closed = cross_real_closed(0.0, 0.0, state.beta)
    for f in (f_a, f_b):
        closed = norm_sq_closed(f) * j0_closed
        quad = pair_prefactor(f, f) * j0
        terms.append(0.0 if closed == quad else abs(closed - quad) / max(closed, RESIDUAL_FLOOR))
    pref = pair_prefactor(f_a, f_b)
    # below the smallest normal float W = pref J keeps fewer than 53 bits,
    # and W / pref no longer carries Re J (off by 0.27 at couplings 20 and
    # 5e-324)
    if pref >= sys.float_info.min:
        re_j = cross_real_closed(geom.separation, geom.delay, state.beta)
        terms.append(abs(re_j - w_cross.real / pref) / j0_closed)
    # the builtin max alone can drop a NaN term
    return math.nan if any(map(math.isnan, terms)) else float(max(terms))


def oracle_residual(
    f_a: SmearingSpec,
    f_b: SmearingSpec,
    geom: PairGeometry,
    state: FieldStateSpec = VACUUM,
) -> float:
    """residual against one cross integral and one J(0, 0, beta) integral,
    in every state: a sweep row's oracle_residual."""
    w_cross = wightman_cross_quadrature(f_a, f_b, geom, state)
    return residual(f_a, f_b, geom, state, w_cross, self_norm_j(state))


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
    one times J(0, 0, beta) = cross_real_closed(0, 0, beta).  The
    commutator is state independent, so delta_ab always comes from
    commutator_closed.  The quadrature is the oracle for all of them.
    """
    n_a = norm_sq_closed(f_a)
    n_b = norm_sq_closed(f_b)
    if state.is_thermal:
        j0 = cross_real_closed(0.0, 0.0, state.beta)
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
