"""Field-side scalars for a pair of delta-switched Gaussian detectors.

Closed forms for the massless scalar field in the vacuum and in a thermal
(KMS) state, and an independent radial quadrature oracle for both: the
statistics never integrate.  The closed forms are scalar math: the Dawson
function, erfcx, the Faddeeva function and the Hurwitz zeta function are
this module's own (see dawson, _erfcx, _faddeeva and _hurwitz_zeta), erf
is math's, and the 6-point Gauss-Legendre mean is an exact sequential
fused multiply-add (see _gl_mean), so no path here, the oracle included,
needs numpy or scipy.  mpmath is imported on the oracle's first Im J (see
_commutator_trapezoid), not with this module.  residual is the one rule
that compares the closed forms with the oracle, for a sweep row's
oracle_residual (through oracle_residual) and for
selftest's grid; it compares J alone, so it depends on the geometry and
the state, never on the couplings.  The oracle takes one route per
component of J (see _radial_integral): Re J, compared absolutely, by
quad, a composite Gauss-Legendre rule in math whose sums math.fsum takes
in a fixed order; Im J, the commutator
part, compared relatively, by a 50-digit trapezoid rule whose nodes
run on fixed-point integer recurrences, mpmath computing only their
seeds.  Both rules admit
L + |dtau| up to ORACLE_REACH and refuse past it.  The couplings are only
a prefactor, so both routes cache their J by (L, dtau, beta) for the last
GEOMETRY_CACHE_SIZE geometries: cross_real_closed its Re J, and oracle_j
the integral, so a process integrates each geometry once.  J(0, 0, beta)
is each route's value at (0, 0, beta).  The statistics split the same
way: geometry_terms holds what a geometry gives every coupling (Re J and
commutator_terms' factors), coupling_terms what one coupling gives on a
state's J(0, 0, beta) (its norm and nu), and pair_terms the two
couplings' arithmetic on both, so a sweep takes J(0, 0, beta) once, a
geometry's terms once per run of rows at that geometry, and Alice's once
per run of one lambda_a, and it checks a row's five values with
check_statistics, FieldStatistics's own rule, without building one (see
deltachannel.sweep).  Everything is dimensionless in units of the
Gaussian smearing width sigma: couplings are floats lambda_tilde/sigma
>= 0 (an entry point that takes one raises ValueError otherwise),
distances L/sigma, delays dtau/sigma, inverse temperatures beta/sigma.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import QuadratureError

FOUR_PI_SQ = 4.0 * math.pi**2
SQRT_PI = math.sqrt(math.pi)
SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
SQRT2 = math.sqrt(2.0)
# Below this argument the next series term (x^2/6) is under 2e-17 relative,
# so sin(x)/x = 1 holds to double precision.
SERIES_CUTOFF = 1e-8

# Past |x| = K_MAX the Gaussian exp(-x^2/2), below 1e-347, is 0.0 in doubles.
K_MAX = 40.0
# The oracle's reach: both of its rules admit L + |dtau| <= ORACLE_REACH,
# the corner of the accepted domain (L <= 1e3, |dtau| <= 1e3), and past it
# refuse before they integrate (see _check_reach).  At the corner the Re J
# rule takes 1910 uniform panels, about 50 ms in the vacuum and 70 ms at
# beta = 2 (panels graded toward k = 0 add under 1030 at any finite beta),
# and the Im J rule about 1e4 nodes, about 20 ms.
ORACLE_REACH = 2e3
# The oracle's Re J rule (see quad) runs on [0, GL_K]; since
# |sin(kL)/L| <= k and coth falls, the tail it leaves is under
# exp(-GL_K^2 / 2) ~ 5e-32 of J(0, 0, beta).  Its panels are at most
# GL_WIDTH / (L + |dtau|) wide, two periods of the integrand's fastest
# oscillation.
GL_K = 12.0
GL_WIDTH = 4.0 * math.pi
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
MP_DPS = 50
# denominator floor of residual's commutator term, the one that can vanish
RESIDUAL_FLOOR = 1e-12
# The trapezoid rule runs on [0, K] with exp(-K^2/2) = 10^-(MP_DPS + 5), at
# step h = 2 pi / (L + |dtau| + K), so it takes K (L + |dtau| + K) / pi
# nodes at step h/2.
TRAPEZOID_K = math.sqrt(2.0 * math.log(10.0) * (MP_DPS + 5))
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
# numpy.polynomial.legendre.leggauss(6), bit for bit (a test pins them)
_GL_NODES = (-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
             0.2386191860831969, 0.6612093864662645, 0.9324695142031519)
_GL_WEIGHTS = (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
               0.46791393457269104, 0.3607615730481387, 0.17132449237917027)

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
# erfcx and the Hurwitz zeta function (see _erfcx and _hurwitz_zeta).
# Below ERFCX_ASYMPTOTIC_MIN erfc(y), above 5e-296, is a normal float; past
# it the asymptotic series leaves out under 3e-21.  DEKKER_SPLIT is 2^27 + 1.
# From ZETA_DIRECT on, Euler-Maclaurin with the Bernoulli numbers B_2 ...
# B_24, exact as (numerator, denominator), leaves out under 4e-18 of
# zeta(p, ZETA_DIRECT) for every p in TAIL_POWERS.
ERFCX_ASYMPTOTIC_MIN = 26.0
DEKKER_SPLIT = 134217729.0
ZETA_DIRECT = 20
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730))
# B_2j / (2j)!, each correctly rounded (int / int is)
_EULER_MACLAURIN = tuple(n / (d * math.factorial(2 * j)) for j, (n, d) in enumerate(_BERNOULLI, 1))

# Entries of each per-geometry cache, cross_real_closed's and the oracle's
# (see oracle_j).  A sweep runs its last axis innermost: with a coupling axis
# innermost a geometry repeats in consecutive rows, and two entries would
# do, but with an L or dtau axis inside a coupling axis each geometry comes
# back only after all the others, so the cache must hold the whole (L, dtau)
# grid, here up to 64 x 64.  A larger grid integrates every row, as two
# entries would.  An entry, its key's floats included, takes about 240
# bytes in either cache, so both caches full stay under 2 MB.  _hurwitz_zeta
# keeps as many starts, about 410 bytes each, of which a process meets few.
GEOMETRY_CACHE_SIZE = 4096


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def check_nonnegative(name: str, value: float) -> None:
    """The rule of a coupling, a separation or a sweep's factor: finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class PairGeometry:
    """Relative geometry of the two switching events.

    separation is L = |x_A - x_B| >= 0 and delay is dtau = tau_B0 - tau_A0,
    both in units of sigma.
    """

    separation: float
    delay: float

    def __post_init__(self):
        check_nonnegative("separation", self.separation)
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
        check_statistics(self.nu_a, self.nu_b, self.nu_ab_plus, self.nu_ab_minus, self.delta_ab)


def check_statistics(nu_a: float, nu_b: float, nu_ab_plus: float, nu_ab_minus: float,
                     delta_ab: float) -> None:
    """FieldStatistics's rule, which a sweep row checks without building one:
    each nu in [0, 1] and delta_ab finite, else ValueError."""
    # a chained comparison is false for NaN and +-inf as well
    if not (0.0 <= nu_a <= 1.0 and 0.0 <= nu_b <= 1.0 and 0.0 <= nu_ab_plus <= 1.0
            and 0.0 <= nu_ab_minus <= 1.0 and math.isfinite(delta_ab)):
        for name, v in (("nu_a", nu_a), ("nu_b", nu_b), ("nu_ab_plus", nu_ab_plus),
                        ("nu_ab_minus", nu_ab_minus)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
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

def _prefactor(coupling_a: float, coupling_b: float) -> float:
    """coupling_A * coupling_B / (4 pi^2): each smeared two-point value is this times a J."""
    return coupling_a * coupling_b / FOUR_PI_SQ


def _norm_sq(coupling: float) -> float:
    """||Ef||^2 in the vacuum: coupling^2 / (4 pi^2).

    Past coupling ~1.3e154 the square overflows; the norm is then inf, its
    limit, and the nu = exp(-2 ||Ef||^2) built on it is 0.0.
    """
    try:
        return coupling**2 / FOUR_PI_SQ
    except OverflowError:
        return math.inf


class CommutatorTerms(NamedTuple):
    """The factors of commutator_closed that no coupling touches; where
    x = 2 a L overflows, two_a is 1 and ratio is -expm1(-x) / L."""

    delay: float
    two_a: float
    e_near: float
    ratio: float


def commutator_terms(geom: PairGeometry) -> CommutatorTerms:
    """The geometry's factors of commutator_closed: 2 a = 2 |dtau|, e_near,
    and the ratio -expm1(-x) / x; where x overflows, a factor of 1 and the
    ratio -expm1(-x) / L."""
    L, dt = geom.separation, geom.delay
    a = abs(dt)
    x = 2.0 * a * L
    try:
        e_near = math.exp(-0.5 * (a - L) ** 2)
    except OverflowError:
        e_near = 0.0
    if x == math.inf:
        return CommutatorTerms(dt, 1.0, e_near, -math.expm1(-x) / L)
    return CommutatorTerms(dt, 2.0 * a, e_near, -math.expm1(-x) / x if x else 1.0)


def commutator_from_terms(pref: float, terms: CommutatorTerms) -> float:
    """commutator_closed at prefactor pref on a geometry's commutator_terms."""
    delay, two_a, e_near, ratio = terms
    # at L = 0 and |dtau| past ~9e307 two_a is inf and ratio NaN; e_near is 0.0
    if not e_near:
        return 0.0
    magnitude = pref * SQRT_HALF_PI * two_a * e_near * ratio
    # an exact or underflowed zero is +0.0 for either sign of the delay
    return math.copysign(magnitude, delay) if magnitude else 0.0


def commutator_closed(coupling_a: float, coupling_b: float, geom: PairGeometry) -> float:
    """Smeared commutator Delta(f_A, f_B), exact for Gaussian smearings.

    Delta = pref * sqrt(pi/2) * (e_near - e_far) / L with
    e_near = exp(-(a - L)^2 / 2), e_far = exp(-(a + L)^2 / 2), a = |dtau|,
    and the sign of dtau: antisymmetric in the delay bit-for-bit by
    construction.  With x = 2 a L, e_far = e_near * exp(-x), so the bracket
    over L is 2 a e_near * (-expm1(-x) / x) without cancellation.  The
    ratio is 1 at x = 0 (its L -> 0 limit) and expm1 returns -x exactly for
    subnormal x, so small and subnormal L keep full relative accuracy.
    Where x overflows (a ~ L ~ 1e154) the bracket over L is e_near / L:
    the factor 2 a is then 1, and the ratio -expm1(-x) / L.
    Where e_near underflows to 0.0, or (a - L)^2 overflows (|a - L| past
    ~1.3e154), Delta is its limit +0.0, also where 2 a is inf.  The
    geometry's factors come from commutator_terms and the product from
    commutator_from_terms, so that a sweep takes the first once per
    geometry.
    """
    check_nonnegative("coupling_a", coupling_a)
    check_nonnegative("coupling_b", coupling_b)
    return commutator_from_terms(_prefactor(coupling_a, coupling_b), commutator_terms(geom))


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
    Re W(f_A, f_B) = lambda_A lambda_B / (4 pi^2) * Re J.  The last
    GEOMETRY_CACHE_SIZE values are cached, so a sweep computes J(0, 0, beta)
    and each geometry's Re J once, and a row's residual reuses its
    statistics' values; -0.0 and 0.0 share a key and give the same bits.
    Re J is even in the delay, bit for bit: every route runs on |dtau|,
    where Gauss-Legendre would add its nodes in the other order at -dtau.
    """
    dtau = abs(dtau)
    e = L / SQRT2
    if beta is None:
        b = dtau / SQRT2
        if e >= DAWSON_SMALL_EPS:
            return (dawson(b + e) - dawson(b - e)) / (2.0 * e)
        if DAWSON_TAYLOR_MAX <= abs(b) <= DAWSON_ASYMPTOTIC_MIN:
            return _dawson_slope_mean(b, e)
        d_prime = [1.0 - 2.0 * x * dawson(x) for x in (b + e * node for node in _GL_NODES)]
        return 0.5 * _gl_mean(d_prime)
    if e >= DAWSON_SMALL_EPS:
        return (kms_sine_transform(dtau + L, beta) - kms_sine_transform(dtau - L, beta)) / (2.0 * L)
    f_prime = [kms_sine_transform(x, beta, derivative=True)
               for x in (dtau + L * node for node in _GL_NODES)]
    return 0.5 * _gl_mean(f_prime)


def _gl_mean(values: list[float]) -> float:
    """sum_i _GL_WEIGHTS[i] * values[i] as a sequential fused multiply-add,
    acc <- RN(w v + acc) from i = 0, each step rounded once.  A BLAS dot
    rounds by its CPU's kernel; this takes the bits of the one that
    fuses in index order, on every machine.  A finite step is exact in
    Fraction; a non-finite term, a sum past the float range or an exact
    zero takes IEEE's result: inf, NaN, the signed inf of the overflow, or
    the zero's sign.
    """
    acc = 0.0
    for w, v in zip(_GL_WEIGHTS, values):
        if math.isfinite(v) and math.isfinite(acc):
            exact = Fraction(w) * Fraction(v) + Fraction(acc)
            if exact:
                try:
                    acc = float(exact)
                except OverflowError:
                    acc = math.inf if exact > 0 else -math.inf
                continue
        # inf and NaN keep IEEE's semantics, and an exact zero its sign
        acc = w * v + acc
    return acc


def kms_sine_transform(x: float, beta: float, derivative: bool = False) -> float:
    """F(x) = int_0^inf exp(-k^2/2) coth(beta k/2) sin(k x) dk, or F'(x).

    Two series give F without quadrature:
    - Matsubara (_matsubara): the partial fractions
      coth(z) = 1/z + sum_m 2z / (z^2 + pi^2 m^2) (Abramowitz & Stegun 4.5)
      give F = (pi/beta) erf(x/sqrt2) + (4/beta) sum_m P(x, a_m) with
      a_m = 2 pi m / beta and
      P(x, a) = (pi/4) exp(-x^2/2) [erfcx((a - x)/sqrt2) - erfcx((a + x)/sqrt2)],
      through erfcx(-u) = 2 exp(u^2) - erfcx(u) where x > a (A&S 7.1);
      past m = M, P is expanded in 1/a^2 (Gaussian Hermite moments times
      Hurwitz zeta(2j, M + 1)).  Fast where beta is small.  erf is
      math.erf, erfcx _erfcx (math.erfc times a split exp(y^2), or its
      asymptotic series) and zeta _hurwitz_zeta (a direct sum and an
      Euler-Maclaurin tail).
    - images (_images): coth = 1 + 2 sum_n exp(-n beta k) gives
      F = sqrt2 D(x/sqrt2) + 2 sum_n h(x, n beta) with
      h(x, c) = sqrt(pi/2) Im w((x + i c)/sqrt2), w the Faddeeva function
      (A&S 7.1) by its continued fraction, _faddeeva, whose domain
      Im z >= 1.94 holds every argument (x + i n beta)/sqrt2 this series
      takes, since beta > 2.7459 wherever x takes it (below); past n = N,
      h is expanded in 1/c^2 (Laplace moments times
      _hurwitz_zeta(2j, N + 1) / beta^2j).  Fast where beta is large.
    x takes the series that needs fewer terms for it (see _term_counts),
    sized for it alone; both agree to rounding at every beta where the
    image series runs.  The Matsubara series needs at most
    MATSUBARA_CUT beta / (2 pi) terms and
    the images at least 2 IMAGE_CUT / beta, so every x takes the Matsubara
    series while beta^2 <= 4 pi IMAGE_CUT / MATSUBARA_CUT = 48 pi / 20
    (beta <= 2.7459).  Each series sums on |x| and gives F the sign of x,
    so F(-x) = -F(x) and F'(-x) = F'(x) bit for bit.
    """
    m, n = _term_counts(abs(x), beta)
    if m <= n:
        return _matsubara(x, beta, math.ceil(m), derivative)
    return _images(x, beta, math.ceil(n), derivative)


def _term_counts(ax: float, beta: float) -> tuple[float, float]:
    # (Matsubara, images) terms at |x| = ax, as floats: at extreme beta the
    # one that is not taken is inf
    reach = MATSUBARA_CUT if ax < FAR_X else FAR_DECAY / ax
    return reach / (2.0 * math.pi) * beta, IMAGE_CUT * (ax + 2.0) / beta


def _tail_coefficients(scale: float, start: int, shift: int) -> list[float]:
    # scale^p zeta(p, start) at degree p - 1 + shift, for p in TAIL_POWERS
    coef = [0.0] * (TAIL_POWERS[-1] + shift)
    for p, z in zip(TAIL_POWERS, _hurwitz_zeta(start)):
        coef[p - 1 + shift] = scale**p * z
    return coef


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _hurwitz_zeta(start: int) -> tuple[float, ...]:
    """Hurwitz zeta(p, start) = sum_{k >= 0} (start + k)^-p for each p in
    TAIL_POWERS and an integer start >= 1, within 3e-16 relative (2.6e-16
    the worst over every start from 2 to 1001, against mpmath).

    One pass per p: the terms below a = max(start, ZETA_DIRECT), then the
    Euler-Maclaurin tail from a (Abramowitz & Stegun 23.1.30),
    a^(1-p) / (p - 1) + a^-p / 2 + sum_j B_2j / (2j)! (p)_(2j-1) a^(1-p-2j),
    with (p)_n the rising factorial, summed with math.fsum.  The last
    GEOMETRY_CACHE_SIZE starts are cached: a series takes as many terms as
    its arguments need, so few starts recur across geometries.
    """
    a = float(max(start, ZETA_DIRECT))
    out = []
    for p in TAIL_POWERS:
        terms = [float(k) ** -p for k in range(start, ZETA_DIRECT)]
        terms += (a ** (1 - p) / (p - 1), 0.5 * a**-p)
        rising, power = p, a ** (-p - 1)
        for j, weight in enumerate(_EULER_MACLAURIN, 1):
            terms.append(weight * rising * power)
            rising *= (p + 2 * j - 1) * (p + 2 * j)
            power /= a * a
        out.append(math.fsum(terms))
    return tuple(out)


def _erfcx(y: float) -> float:
    """The scaled complementary error function exp(y^2) erfc(y) for y >= 0,
    within 6e-16 relative (5.3e-16 the worst of 40,000 draws, log-uniform on
    [1e-8, 1e4] and uniform on [0, 30], against 50-digit mpmath).

    - y < ERFCX_ASYMPTOTIC_MIN: math.erfc(y) exp(y^2), y split by Dekker's
      DEKKER_SPLIT into hi + lo with hi^2 exact, so that the exp takes
      y^2 = hi^2 + lo (2 hi + lo) in two parts and keeps the digits a rounded
      y^2 would lose to it (up to 676 ulp, at y = 26);
    - past it (1 / (y sqrt(pi))) sum_n (-1)^n (2n - 1)!! / (2y^2)^n,
      A&S 7.1.23, which is 0.0 at +inf.
    NaN stays NaN.
    """
    if y < ERFCX_ASYMPTOTIC_MIN:
        c = DEKKER_SPLIT * y
        hi = c - (c - y)
        lo = y - hi
        return math.exp(hi * hi) * math.exp(lo * (hi + y)) * math.erfc(y)
    # NaN lands here too, and stays NaN
    v = 0.5 / (y * y)
    s = 1.0
    for k in range(15, 0, -2):
        s = 1.0 - k * v * s
    return s / (y * SQRT_PI)


def _hermite_e(v, coef: list):
    # sum_k coef[k] He_k(v) by Clenshaw's recurrence on
    # He_{k+1} = v He_k - k He_{k-1}; v may be complex
    b1 = b2 = 0.0
    for k in range(len(coef) - 1, 0, -1):
        b1, b2 = coef[k] + v * b1 - (k + 1) * b2, b1
    return coef[0] + v * b1 - b2


def _matsubara(x: float, beta: float, m: int, derivative: bool) -> float:
    ax = abs(x)
    step = 2.0 * math.pi / beta
    # past |x| = K_MAX the Gaussian is 0.0 in doubles; clipping there keeps
    # x^2 and the tail's Hermite moments finite, so the tail is 0, not 0 * inf
    clip = min(ax, K_MAX)
    gauss = math.exp(-0.5 * clip * clip)
    terms = []
    for k in range(1, m + 1):
        a = step * k
        # exp(-x^2/2) erfcx(|a -+ |x|| / sqrt2); erfcx is at most 1, so where
        # the Gaussian is 0.0 (|x| past 38.6) so is each, and erfcx is not called
        lower = gauss * _erfcx(abs(a - ax) / SQRT2) if gauss else 0.0
        upper = gauss * _erfcx((a + ax) / SQRT2) if gauss else 0.0
        if a < ax:
            # the argument of erfcx((a - |x|)/sqrt2) is negative; far off the
            # light cone the exponent is below -745, and its exp, 0, the limit
            lower = 2.0 * math.exp(a * (0.5 * a - ax)) - lower
        # each derivative term is sqrt(pi/2) exp(-x^2/2) - (pi a/4) (lower + upper)
        terms.append(a * (lower + upper) if derivative else lower - upper)
    tail = _tail_coefficients(beta / (2.0 * math.pi), m + 1, int(derivative))
    moments = SQRT_HALF_PI * _hermite_e(clip, tail)
    # below beta ~ 3.5e-308 the step 2 pi / beta is inf, so the terms are
    # 0 * inf and F / beta overflows: the NaN or inf is the caller's domain error
    if derivative:
        s = 2.0 * SQRT_HALF_PI * (2 * m + 1) * gauss - math.pi * math.fsum(terms)
        return (s - 4.0 * gauss * moments) / beta
    s = math.pi * (math.erf(ax / SQRT2) + math.fsum(terms))
    return math.copysign(1.0, x) * (s + 4.0 * gauss * moments) / beta


def _faddeeva(z: complex) -> complex:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 1.94,
    within 5e-16 relative (3.7e-16 the worst of 4,000 draws, Re z = 0 or
    log-uniform on [1e-3, 316] and Im z log-uniform on [1.94, 1e3],
    against 40-digit mpmath).

    Laplace's continued fraction (Abramowitz & Stegun 7.1.15),
    w = (i / sqrt(pi)) / (z - (1/2) / (z - 1 / (z - (3/2) / (z - ...)))),
    evaluated bottom-up at depth ceil(150 / Im z) + 5.  Toward the real
    axis the fraction converges ever more slowly, and this depth is sized
    for Im z >= 1.94 only.  kms_sine_transform never goes below: the image
    series' arguments are (x + i n beta) / sqrt2 with n >= 1, and it takes
    that series only where beta^2 > 48 pi / 20, so Im z >= beta / sqrt2 >
    1.9416 (see _term_counts).
    """
    t = 0j
    for k in range(math.ceil(150.0 / z.imag) + 5, 0, -1):
        t = 0.5 * k / (z - t)
    return 1j / (SQRT_PI * (z - t))


def _images(x: float, beta: float, n: int, derivative: bool) -> float:
    ax = abs(x)
    z = [complex(ax / SQRT2, beta * k / SQRT2) for k in range(1, n + 1)]
    w = [_faddeeva(zk) for zk in z]
    d = dawson(ax / SQRT2)
    tail = _tail_coefficients(1.0 / beta, n + 1, 0)
    if derivative:
        terms = math.fsum(1.0 - SQRT_PI * (zk * wk).imag for zk, wk in zip(z, w))
        # d/dx Im p(ix) = Re p'(ix), and He_k' = k He_{k-1}
        moments = _hermite_e(complex(0.0, ax), [k * c for k, c in enumerate(tail)][1:]).real
        return 1.0 - SQRT2 * ax * d + 2.0 * (terms + moments)
    terms = SQRT_HALF_PI * math.fsum(wk.imag for wk in w)
    moments = _hermite_e(complex(0.0, ax), tail).imag
    return math.copysign(1.0, x) * (SQRT2 * d + 2.0 * (terms + moments))


# ---------------------------------------------------------------------------
# radial quadrature oracle: --oracle, selftest and the tests call it; no
# statistics path does
# ---------------------------------------------------------------------------

# the positive halves of numpy.polynomial.legendre.leggauss(20) and (40)'s
# nodes, bit for bit (a test pins them); leggauss's nodes are symmetric, so
# the rules mirror these
_GL20_NODES = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
               0.5108670019508271, 0.636053680726515, 0.7463319064601508,
               0.8391169718222188, 0.912234428251326, 0.9639719272779138,
               0.993128599185095)
_GL40_NODES = (0.038772417506050816, 0.11608407067525521, 0.1926975807013711,
               0.2681521850072537, 0.3419940908257585, 0.413779204371605,
               0.4830758016861787, 0.5494671250951282, 0.6125538896679802,
               0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
               0.8246122308333117, 0.8659595032122595, 0.9020988069688742,
               0.9328128082786765, 0.9579168192137917, 0.9772599499837743,
               0.990726238699457, 0.9982377097105591)


@functools.cache
def _gl_rules() -> tuple:
    # the 20- and 40-point Gauss-Legendre nodes and weights on [-1, 1],
    # the weights computed on the oracle's first call.  leggauss's own
    # 40-point weights are up to 7e-13 off, which left Re J 3e-15 off at
    # (0, 6).  The weights are 2 / ((1 - x^2) P_n'(x)^2) at each node x
    # instead, P_n and P_n' by the three-term recurrence, times the
    # first-order change of that weight over Newton's step -P_n / P_n' to
    # the exact node: within 4e-15, which leaves Re J within 2e-16.
    rules = []
    for half in (_GL20_NODES, _GL40_NODES):
        n = 2 * len(half)
        nodes = tuple(-x for x in reversed(half)) + half
        weights = []
        for x in nodes:
            p_prev, p = 1.0, x
            for j in range(1, n):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            # 1 - x^2 as (1 - x)(1 + x), which keeps its digits near x = +-1
            u = (1.0 - x) * (1.0 + x)
            slope = n * (p_prev - x * p) / u
            weights.append(2.0 / (u * slope * slope) * (1.0 + 2.0 * x * p / (u * slope)))
        rules.append((nodes, tuple(weights)))
    return tuple(rules)


def _check_reach(L: float, dtau: float) -> None:
    # L + |dtau| may be inf, where k L or k dtau would overflow
    if L + abs(dtau) > ORACLE_REACH:
        raise QuadratureError(
            f"the oracle admits L + |dtau| <= {ORACLE_REACH:g}, got L={L}, dtau={dtau}",
            estimate=math.inf,
        )


def quad(L: float, dtau: float, beta: float | None) -> tuple[float, float]:
    """Re J(L, dtau, beta) by a composite Gauss-Legendre rule: (value, estimate).

    Re J = int_0^GL_K exp(-k^2/2) sin(kL)/L [coth(beta k/2)] cos(k dtau) dk.
    The integrand is entire in the vacuum, and in a KMS state analytic but
    for coth's poles at k = 2 pi i m / beta, m != 0, so Gauss-Legendre
    converges geometrically on each panel (Trefethen, SIAM Review 50 (2008)
    67).  The panels are uniform, at most min(1, GL_WIDTH / (L + |dtau|))
    wide; where pi/beta is narrower than that, they are graded toward
    k = 0 as [0, pi/beta], then doubling, so the poles stay at least two
    half-widths from every panel.  The value is the 40-point sum and
    the estimate |G40 - G20|, the 20-point rule's distance from it.  Each
    rule sums its terms w f on each panel with math.fsum, and then the
    panels' totals, so the bits depend on no summation order of a CPU or
    a BLAS.  Raises QuadratureError, with estimate inf, past ORACLE_REACH,
    without integrating.

    sin(kL)/L is k below SERIES_CUTOFF, which also covers L = 0 and
    subnormal L, where k L has lost its digits; coth(beta k/2) is its series
    below 1e-8, where tanh loses relative accuracy.  Below beta = 1 the rule
    sums beta f, whose kernel beta coth(beta k/2) -> 2/k stays finite as
    beta -> 0, and divides by beta at the end, so J(0, 0, beta) ~ 2.5/beta
    is finite down to beta ~ 1.4e-308 and inf below.
    """
    _check_reach(L, dtau)
    exp, sin, cos, tanh, fsum = math.exp, math.sin, math.cos, math.tanh, math.fsum
    reach = L + abs(dtau)
    width = min(1.0, GL_WIDTH / reach) if reach else 1.0
    edges = [0.0]
    if beta is not None and math.pi / beta < width:
        edge = math.pi / beta
        while edge < width:
            edges.append(edge)
            edge *= 2.0
    # uniform panels from the last edge to GL_K, at numpy.linspace's points
    start = edges.pop()
    count = math.ceil((GL_K - start) / width)
    step = (GL_K - start) / count
    edges += [i * step + start for i in range(count)]
    edges.append(GL_K)
    panels = [(0.5 * (b + a), 0.5 * (b - a)) for a, b in zip(edges, edges[1:])]
    scale = 1.0 if beta is None else min(beta, 1.0)
    c = None if beta is None else 0.5 * beta
    sums = []
    for nodes, weights in _gl_rules():
        totals = []
        for mid, half in panels:
            terms = []
            for x, w in zip(nodes, weights):
                k = mid + half * x
                kl = k * L
                f = exp(-0.5 * k * k) * (sin(kl) / L if kl >= SERIES_CUTOFF else k) * cos(k * dtau)
                if c is not None:
                    y = c * k
                    f *= scale / beta * (2.0 / k) + scale * y / 3.0 if y < 1e-8 else scale / tanh(y)
                terms.append(w * f)
            totals.append(half * fsum(terms))
        sums.append(fsum(totals))
    g20, g40 = sums
    return g40 / scale, abs(g40 - g20) / scale


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
    QuadratureError, with estimate inf, past ORACLE_REACH, without
    integrating.

    The nodes k_j = j h/2 run on exact recurrences over integers scaled by
    2^TRAPEZOID_BITS, so mpmath computes only the seeds: the Gaussian as
    g_j = g_{j-1} r_j with r_{j+1} = r_j exp(-(h/2)^2), and sin(k_j L)/L
    and sin(k_j dtau) as sin(j t) = sin(t) U_{j-1}(cos t) by the Chebyshev
    recurrence U_j = 2 cos(t) U_{j-1} - U_{j-2}, at t = L h/2 and
    t = dtau h/2 (cos t = 1 gives U_{j-1} = j, so L = 0 takes k_j itself).
    """
    _check_reach(L, dtau)
    import mpmath

    reach = L + abs(dtau) + TRAPEZOID_K
    # nodes at step h/2 on [0, K]
    nodes = TRAPEZOID_K * reach / math.pi
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


def _radial_integral(L: float, dtau: float, beta: float | None) -> complex:
    """Dimensionless radial integral J, each part checked against its estimate.

    J = int_0^inf dk exp(-k^2/2) * sin(kL)/L * [coth(beta k/2)]_re * exp(-ik dtau)

    The thermal coth kernel multiplies the real (symmetric) component only;
    the imaginary component is the commutator part and is temperature
    independent.  Each component has one route.  Re J, which every consumer
    compares absolutely, is quad's composite Gauss-Legendre rule on
    [0, GL_K], in math; missing its target raises at once, before Im J is
    computed.  Im J carries the commutator, compared relatively, which
    float64 cancellation would spoil wherever Im J is small, so it is
    _commutator_trapezoid's, at MP_DPS digits on [0, TRAPEZOID_K] at step
    2 pi / (L + |dtau| + TRAPEZOID_K); at dtau = 0 it is exactly 0.
    Raises QuadratureError, carrying the estimate, when a component's
    estimate misses both the absolute and the relative target, and, with
    estimate inf and before either rule runs, past ORACLE_REACH, which
    every geometry whose k L or k dtau overflows is past.
    """

    def check(part: str, value: float, err: float) -> None:
        # a non-finite value or estimate (J past the float range) is a miss
        if not (math.isfinite(value) and err <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value))):
            raise QuadratureError(
                f"radial quadrature did not converge: error estimate {err:.3e} "
                f"for {part} J = {value!r} (L={L}, dtau={dtau}, beta={beta})",
                estimate=err,
            )

    _check_reach(L, dtau)
    re, re_err = quad(L, dtau, beta)
    check("Re", re, re_err)
    if dtau == 0.0:
        # the imaginary integrand is identically zero, not a cancellation
        return complex(re, 0.0)
    im, im_err = _commutator_trapezoid(L, dtau)
    check("Im", im, im_err)
    return complex(re, im)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def oracle_j(L: float, dtau: float, beta: float | None) -> complex:
    """J(L, dtau, beta) by _radial_integral, integrated once per geometry
    per process: the last GEOMETRY_CACHE_SIZE values are cached.  A
    QuadratureError is not: past ORACLE_REACH each call is refused before
    either rule runs.  -0.0 and 0.0 share a key and give the same bits."""
    return _radial_integral(L, dtau, beta)


def wightman_cross_quadrature(
    coupling_a: float,
    coupling_b: float,
    geom: PairGeometry,
    state: FieldStateSpec = VACUUM,
) -> complex:
    """Smeared two-point value W(f_A, f_B) = lambda_A lambda_B / (4 pi^2)
    times oracle_j.

    Im W(f_A, f_B) = -Delta(f_A, f_B)/2 holds for every state: the thermal
    kernel enhances only the real (symmetric) part.  No library path calls
    it: residual takes J.
    """
    check_nonnegative("coupling_a", coupling_a)
    check_nonnegative("coupling_b", coupling_b)
    return _prefactor(coupling_a, coupling_b) * oracle_j(geom.separation, geom.delay, state.beta)


def norm_sq_quadrature(coupling: float, state: FieldStateSpec = VACUUM) -> float:
    """||Ef||^2 by quadrature: coupling^2 / (4 pi^2) * J(0, 0, beta), the
    degenerate (L=0, dtau=0) cross value.  No library path calls it."""
    check_nonnegative("coupling", coupling)
    return _prefactor(coupling, coupling) * oracle_j(0.0, 0.0, state.beta).real


def residual(terms: GeometryTerms, state: FieldStateSpec, j: complex, j0: float) -> float:
    """Largest disagreement between the closed forms, a geometry's
    geometry_terms, and the oracle's j = J(L, dtau, beta) and
    j0 = J(0, 0, beta).

    The couplings reach every field scalar only through the prefactor
    lambda_A lambda_B / (4 pi^2) on J, so the residual compares J alone and
    counts every term at every coupling.  The commutator at unit prefactor
    against -2 Im J, relatively, dividing by at least RESIDUAL_FLOOR;
    J(0, 0, beta), relatively; and Re J, absolutely over J(0, 0, beta),
    which is Delta Re W / sqrt(n_a n_b): no zero crossing of Re J inflates
    it.  In the vacuum J(0, 0) = 1.  An undefined term makes the residual
    NaN.
    """
    d_closed = commutator_from_terms(1.0, terms.commutator)
    d_quad = -2.0 * j.imag
    j0_closed = cross_real_closed(0.0, 0.0, state.beta)
    errors = (abs(d_closed - d_quad) / max(abs(d_closed), RESIDUAL_FLOOR),
              abs(j0_closed - j0) / j0_closed,
              abs(terms.re_j - j.real) / j0_closed)
    # the builtin max alone can drop a NaN term
    return math.nan if any(map(math.isnan, errors)) else float(max(errors))


def oracle_residual(geom: PairGeometry, state: FieldStateSpec = VACUUM,
                    terms: GeometryTerms | None = None) -> float:
    """residual against the oracle's J(L, dtau, beta) and J(0, 0, beta), in
    every state: a sweep row's oracle_residual, the same at every coupling.
    terms are geom's geometry_terms, taken here if not given."""
    if terms is None:
        terms = geometry_terms(geom, state)
    return residual(terms, state, oracle_j(geom.separation, geom.delay, state.beta),
                    oracle_j(0.0, 0.0, state.beta).real)


class GeometryTerms(NamedTuple):
    """What one geometry in one state gives the statistics at every coupling:
    Re J(L, dtau, beta) and the commutator's factors."""

    re_j: float
    commutator: CommutatorTerms


def geometry_terms(geom: PairGeometry, state: FieldStateSpec = VACUUM) -> GeometryTerms:
    return GeometryTerms(cross_real_closed(geom.separation, geom.delay, state.beta),
                         commutator_terms(geom))


def coupling_terms(coupling: float, j0: float) -> tuple[float, float]:
    """One detector's (||Ef||^2, nu = exp(-2 ||Ef||^2)) at this coupling, in
    a state whose J(0, 0, beta) is j0, exactly 1.0 in the vacuum."""
    n = _norm_sq(coupling) * j0
    return n, math.exp(-2.0 * n)


def pair_terms(
    coupling_a: float,
    coupling_b: float,
    norms: float,
    terms: GeometryTerms,
) -> tuple[float, float, float]:
    """(nu_ab_plus, nu_ab_minus, delta_ab) at these couplings, whose
    coupling_terms norms sum to norms, on a geometry's geometry_terms: the
    coupling arithmetic alone, no series and no exp of the geometry."""
    pref = _prefactor(coupling_a, coupling_b)
    re_w = pref * terms.re_j
    # ||E(f_A +- f_B)||^2 >= 0 since |Re J| <= J(0, 0, beta); at equal
    # couplings near L = 0 rounding can leave it an ulp below zero
    return (math.exp(-2.0 * max(norms + 2.0 * re_w, 0.0)),
            math.exp(-2.0 * max(norms - 2.0 * re_w, 0.0)),
            commutator_from_terms(pref, terms.commutator))


def assemble_statistics(
    coupling_a: float,
    coupling_b: float,
    geom: PairGeometry,
    state: FieldStateSpec = VACUUM,
) -> FieldStatistics:
    """All five channel-determining scalars for one detector pair.

    nu_j = exp(-2 ||Ef_j||^2) and nu_ab_pm = exp(-2 ||E(f_A +- f_B)||^2)
    with the cross norm expanded through Re W(f_A, f_B).  Every scalar is
    closed form, so no integral runs: Re W through cross_real_closed, the
    vacuum norms as coupling^2 / (4 pi^2), and a thermal norm as the vacuum
    one times J(0, 0, beta) = cross_real_closed(0, 0, beta).  The
    commutator is state independent, so delta_ab is commutator_closed's
    value in every state.  The quadrature is the oracle for all of them.
    Built from coupling_terms and pair_terms on geometry_terms and
    J(0, 0, beta), as a sweep row is.
    """
    check_nonnegative("coupling_a", coupling_a)
    check_nonnegative("coupling_b", coupling_b)
    j0 = cross_real_closed(0.0, 0.0, state.beta)
    n_a, nu_a = coupling_terms(coupling_a, j0)
    n_b, nu_b = coupling_terms(coupling_b, j0)
    return FieldStatistics(nu_a, nu_b, *pair_terms(coupling_a, coupling_b, n_a + n_b,
                                                   geometry_terms(geom, state)))
