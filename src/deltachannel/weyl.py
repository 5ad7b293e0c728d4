"""Gamma coefficients: from field statistics to the three channel weights.

The six four-fold sin/cos correlators gamma_ijkl are quasifree-state
expectations fixed entirely by FieldStatistics.  Only three combinations
reach the channel: a keep weight, a flip weight, and an imaginary
commutator weight.  Both routes to the combinations (summing gammas and
the direct closed forms) are evaluated and cross-checked on every call.
This route is for verification only: the channel builds its map from
nu_b and delta_ab directly, and selftest and the tests check that map
against the gamma sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError
from .field import FieldStatistics

IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class GammaSet:
    """The six gamma correlators plus the combined channel coefficients.

    c_keep and c_flip are the weights of the identity and monopole-flip
    terms; c_comm is the purely imaginary weight of the commutator term.
    Construction enforces the identities that do not need the source
    statistics: trace preservation, the four-gamma sum, agreement of the
    combined values with the corresponding gamma sums, and 0 <= c_keep <= 1.
    """

    g_cccc: float
    g_ssss: float
    g_cssc: float
    g_sccs: float
    g_scsc: complex
    g_sscc: complex
    c_keep: float
    c_flip: float
    c_comm: complex

    def __post_init__(self):
        checks = {
            "c_keep + c_flip = 1": abs(self.c_keep + self.c_flip - 1.0),
            "sum of real gammas = 1": abs(
                self.g_cccc + self.g_ssss + self.g_cssc + self.g_sccs - 1.0
            ),
            "c_keep matches gamma sum": abs(self.c_keep - (self.g_cccc + self.g_cssc)),
            "c_flip matches gamma sum": abs(self.c_flip - (self.g_sccs + self.g_ssss)),
            "c_comm matches gamma difference": abs(self.c_comm - (self.g_scsc - self.g_sscc)),
            "c_comm purely imaginary": abs(self.c_comm.real),
        }
        for label, violation in checks.items():
            if not violation <= IDENTITY_TOL:
                raise ConsistencyError(f"gamma identity violated: {label} off by {violation:.3e}")
        if not 0.0 <= self.c_keep <= 1.0:
            raise ConsistencyError(f"c_keep = {self.c_keep!r} outside [0, 1]")


def _raw_gammas(stats: FieldStatistics) -> tuple[float, float, float, float, complex, complex]:
    """The six correlator formulas, with no cross-checking."""
    cos2d = math.cos(2.0 * stats.delta_ab)
    sin2d = math.sin(2.0 * stats.delta_ab)
    pair_sum = (stats.nu_ab_plus + stats.nu_ab_minus) / 8.0
    pair_diff = (stats.nu_ab_plus - stats.nu_ab_minus) / 8.0
    g_cccc = (1.0 + stats.nu_a + stats.nu_b * cos2d) / 4.0 + pair_sum
    g_ssss = (1.0 - stats.nu_a - stats.nu_b * cos2d) / 4.0 + pair_sum
    g_cssc = (1.0 - stats.nu_a + stats.nu_b * cos2d) / 4.0 - pair_sum
    g_sccs = (1.0 + stats.nu_a - stats.nu_b * cos2d) / 4.0 - pair_sum
    g_scsc = complex(-pair_diff, -stats.nu_b * sin2d / 4.0)
    g_sscc = complex(-pair_diff, +stats.nu_b * sin2d / 4.0)
    return g_cccc, g_ssss, g_cssc, g_sccs, g_scsc, g_sscc


def gammas_from_statistics(stats: FieldStatistics) -> GammaSet:
    """Evaluate the gamma correlators and the combined channel coefficients.

    The combined coefficients are computed from their own closed forms
    (functions of nu_b and delta_ab alone) and cross-checked against the
    gamma sums at construction; the closed-form values are the ones
    consumed downstream.
    """
    g_cccc, g_ssss, g_cssc, g_sccs, g_scsc, g_sscc = _raw_gammas(stats)
    cos2d = math.cos(2.0 * stats.delta_ab)
    sin2d = math.sin(2.0 * stats.delta_ab)
    return GammaSet(
        g_cccc=g_cccc,
        g_ssss=g_ssss,
        g_cssc=g_cssc,
        g_sccs=g_sccs,
        g_scsc=g_scsc,
        g_sscc=g_sscc,
        c_keep=0.5 + 0.5 * stats.nu_b * cos2d,
        c_flip=0.5 - 0.5 * stats.nu_b * cos2d,
        c_comm=complex(0.0, -0.5 * stats.nu_b * sin2d),
    )
