"""Correlator coefficients: identities, scoped bounds, the corruption guard."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import deltachannel.channel as channel
import deltachannel.weyl as weyl
from deltachannel.errors import ConsistencyError
from deltachannel.field import (
    FieldStatistics,
    PairGeometry,
    assemble_statistics,
)
from deltachannel.selftest import selftest
from deltachannel.weyl import gammas_from_statistics

unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
deltas = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(nu_a=unit_interval, nu_b=unit_interval, nu_p=unit_interval,
       nu_m=unit_interval, delta=deltas)
def test_identities_hold_for_all_valid_statistics(nu_a, nu_b, nu_p, nu_m, delta):
    stats = FieldStatistics(nu_a=nu_a, nu_b=nu_b, nu_ab_plus=nu_p,
                            nu_ab_minus=nu_m, delta_ab=delta)
    g = gammas_from_statistics(stats)
    assert abs(g.g_cccc + g.g_ssss + g.g_cssc + g.g_sccs - 1.0) <= 1e-12
    assert abs(g.c_keep + g.c_flip - 1.0) <= 1e-12
    assert abs(g.c_keep - (g.g_cccc + g.g_cssc)) <= 1e-12
    assert abs(g.c_flip - (g.g_ssss + g.g_sccs)) <= 1e-12
    assert abs(g.c_comm - (g.g_scsc - g.g_sscc)) <= 1e-12
    assert g.c_comm.real == 0.0
    assert 0.0 <= g.c_keep <= 1.0


def test_combined_coefficients_closed_values():
    stats = FieldStatistics(nu_a=0.9, nu_b=0.5, nu_ab_plus=0.4,
                            nu_ab_minus=0.45, delta_ab=0.3)
    g = gammas_from_statistics(stats)
    assert np.isclose(g.c_keep, 0.5 + 0.25 * math.cos(0.6), rtol=0.0, atol=1e-15)
    assert np.isclose(g.c_comm.imag, -0.25 * math.sin(0.6), rtol=0.0, atol=1e-15)
    assert g.c_comm.real == 0.0


def test_gammas_are_probabilities_for_physical_statistics():
    # the four real coefficients are outcome weights when the statistics
    # come from an actual detector pair; arbitrary type-valid tuples need
    # not obey this, so the bound is asserted only on assembled statistics
    for lam_a, lam_b, sep, delay in (
        (0.1, 0.1, 1.0, 3.0),
        (1.0, 1.0, 6.0, 6.0),
        (10.0, 1.0, 6.0, 6.0),
        (10.0, 10.0, 3.0, 12.0),
        (494.8, 0.3, 6.0, 6.0),
    ):
        stats = assemble_statistics(lam_a, lam_b, PairGeometry(sep, delay))
        g = gammas_from_statistics(stats)
        for value in (g.g_cccc, g.g_ssss, g.g_cssc, g.g_sccs):
            assert -1e-12 <= value <= 1.0 + 1e-12


def test_selftest_catches_a_channel_map_off_the_gamma_sums(monkeypatch):
    # negative control: a channel map whose a strays from c_keep - c_flip
    # fails the registry's gamma check, though every gamma identity holds
    original = channel.ChannelParams.__post_init__

    def skewed(self):
        original(self)
        object.__setattr__(self, "a", self.a + 1e-9)

    monkeypatch.setattr(channel.ChannelParams, "__post_init__", skewed)
    (check,) = selftest(only=["gamma_identities"])["checks"]
    assert check["passed"] is False
    assert "channel map" in check["detail"]["failure"]


def test_corrupted_formula_is_caught(monkeypatch):
    # negative control: a swapped pair of correlators must trip the
    # construction-time identity checks, not silently pass through
    original = weyl._raw_gammas

    def corrupted(stats):
        g_cccc, g_ssss, g_cssc, g_sccs, g_scsc, g_sscc = original(stats)
        return g_sccs, g_ssss, g_cssc, g_cccc, g_scsc, g_sscc

    monkeypatch.setattr(weyl, "_raw_gammas", corrupted)
    stats = FieldStatistics(nu_a=0.9, nu_b=0.5, nu_ab_plus=0.4,
                            nu_ab_minus=0.45, delta_ab=0.3)
    with pytest.raises(ConsistencyError):
        gammas_from_statistics(stats)


def test_corrupted_pair_term_is_caught(monkeypatch):
    original = weyl._raw_gammas

    def corrupted(stats):
        g_cccc, g_ssss, g_cssc, g_sccs, g_scsc, g_sscc = original(stats)
        return g_cccc + 1e-6, g_ssss, g_cssc, g_sccs, g_scsc, g_sscc

    monkeypatch.setattr(weyl, "_raw_gammas", corrupted)
    stats = FieldStatistics(nu_a=0.2, nu_b=0.8, nu_ab_plus=0.1,
                            nu_ab_minus=0.9, delta_ab=-1.1)
    with pytest.raises(ConsistencyError):
        gammas_from_statistics(stats)


def test_gamma_set_reports_which_identity_failed():
    with pytest.raises(ConsistencyError, match="c_keep"):
        weyl.GammaSet(
            g_cccc=0.5, g_ssss=0.1, g_cssc=0.3, g_sccs=0.1,
            g_scsc=0.0j, g_sscc=0.0j,
            c_keep=0.9, c_flip=0.1, c_comm=0.0j,
        )
