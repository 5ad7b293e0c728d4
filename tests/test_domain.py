"""Every row across the accepted input domain is typed and never raises."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltachannel.errors import ConsistencyError
from deltachannel.field import VACUUM, PairGeometry, assemble_statistics, thermal
from deltachannel.sweep import evaluate_point

STATISTICS = ("nu_a", "nu_b", "nu_ab_plus", "nu_ab_minus", "delta_ab", "c_closed")

rows = given(
    lambda_a=st.floats(min_value=0.0, max_value=1e4),
    lambda_b=st.floats(min_value=0.0, max_value=1e4),
    separation=st.floats(min_value=0.0, max_value=1e3),
    delay=st.floats(min_value=-1e3, max_value=1e3),
    beta=st.none() | st.floats(min_value=1e-3, max_value=1e3),
)


@settings(max_examples=200)
@rows
# thermal rows at L >= 100 were quadrature_error
@example(lambda_a=1.0, lambda_b=1.0, separation=1000.0, delay=1.0, beta=2.0)
@example(lambda_a=1.0, lambda_b=1.0, separation=100.0, delay=1.0, beta=2.0)
@example(lambda_a=1.0, lambda_b=1.0, separation=5e-324, delay=1.0, beta=2.0)
@example(lambda_a=1e4, lambda_b=1e4, separation=0.0, delay=0.0, beta=1e-3)
@example(lambda_a=0.0, lambda_b=1e4, separation=1e3, delay=-1e3, beta=1e3)
# Re J rounded an ulp above J(0, 0, beta): nu_ab_minus was 1 + 4e-15
@example(lambda_a=1.0, lambda_b=1.0, separation=1e-8, delay=0.0, beta=0.015625)
# far outside the light cone the commutator's square overflowed (vacuum)
# and the thermal Re J came out NaN: all were domain_error
@example(lambda_a=1.0, lambda_b=1.0, separation=6.0, delay=1e300, beta=None)
@example(lambda_a=1.0, lambda_b=1.0, separation=1e300, delay=6.0, beta=None)
@example(lambda_a=1.0, lambda_b=1.0, separation=6.0, delay=1e300, beta=2.0)
@example(lambda_a=1.0, lambda_b=1.0, separation=1e300, delay=6.0, beta=2.0)
@example(lambda_a=1.0, lambda_b=1.0, separation=6.0, delay=1e20, beta=1e3)
@example(lambda_a=1.0, lambda_b=1.0, separation=1e20, delay=6.0, beta=1e3)
@example(lambda_a=1.0, lambda_b=1.0, separation=6.0, delay=1e153, beta=2.0)
@example(lambda_a=1.0, lambda_b=1.0, separation=0.0, delay=1e308, beta=None)
def test_rows_are_typed_across_the_domain(lambda_a, lambda_b, separation, delay, beta):
    row = evaluate_point(lambda_a, lambda_b, separation, delay, beta=beta)
    assert row["status"] == "ok"
    assert all(math.isfinite(row[c]) for c in STATISTICS)


@rows
# W's prefactor overflows to inf and nu_ab_minus is exp(-2 (inf - inf)):
# a domain_error row, and assemble_statistics raises ValueError
@example(lambda_a=1e200, lambda_b=1e200, separation=6.0, delay=6.0, beta=None)
# the norm of lambda_A overflows while the prefactor stays finite
@example(lambda_a=1e160, lambda_b=1e-160, separation=6.0, delay=6.0, beta=None)
@example(lambda_a=0.0, lambda_b=1e300, separation=1e3, delay=-1e3, beta=1e3)
def test_assemble_statistics_is_the_row_statistics_bit_for_bit(
        lambda_a, lambda_b, separation, delay, beta):
    row = evaluate_point(lambda_a, lambda_b, separation, delay, beta=beta)
    args = (lambda_a, lambda_b, PairGeometry(separation, delay),
            VACUUM if beta is None else thermal(beta))
    if row["status"] == "domain_error":
        # the errors the row kernel turns into domain_error
        with pytest.raises((OverflowError, ValueError, ConsistencyError)):
            assemble_statistics(*args)
        return
    stats = assemble_statistics(*args)
    fields = STATISTICS[:-1]
    assert [float.hex(getattr(stats, c)) for c in fields] == [float.hex(row[c]) for c in fields]


# an --oracle row's trapezoid rule for Im J costs up to about 20 ms, at
# L + |dtau| near 2e3, and the first one loads mpmath; most rows cost less
@settings(max_examples=30)
@rows
@example(lambda_a=1.0, lambda_b=1.0, separation=1000.0, delay=1.0, beta=2.0)
@example(lambda_a=1.0, lambda_b=1.0, separation=1000.0, delay=0.0, beta=None)
@example(lambda_a=1.0, lambda_b=1.0, separation=6.0, delay=6.0, beta=2.0)
# a subnormal coupling product once read as a Re J residual of 0.1 to 0.3
@example(lambda_a=20.0, lambda_b=5e-324, separation=0.0, delay=1.0, beta=None)
@example(lambda_a=20.0, lambda_b=5e-324, separation=0.0, delay=0.0, beta=1.0)
# quad stepped over coth's bump at k ~ 1/beta: Re J residuals of 4.2e-6 and 5.9e-6
@example(lambda_a=0.0, lambda_b=1.0, separation=0.0, delay=0.0, beta=879.0)
@example(lambda_a=1.0, lambda_b=1.0, separation=1.0, delay=0.0, beta=736.2)
# with one breakpoint, at 1/beta, quad missed the bump's tail past it: 2.7e-6
@example(lambda_a=0.0, lambda_b=1.0, separation=0.0, delay=0.0, beta=797.0)
def test_oracle_rows_are_typed_across_the_domain(lambda_a, lambda_b, separation, delay, beta):
    row = evaluate_point(lambda_a, lambda_b, separation, delay, beta=beta)
    checked = evaluate_point(lambda_a, lambda_b, separation, delay, beta=beta, oracle=True)
    # the oracle can only lose its own residual
    assert checked["status"] in ("ok", "quadrature_error")
    assert all(checked[c] == row[c] for c in STATISTICS)
    if checked["status"] == "ok":
        # finite is not enough: an aliased Im J once read as a residual of 24
        assert checked["oracle_residual"] < 1e-6
    else:
        assert math.isnan(checked["oracle_residual"])


def _oracle_scan_draws(count=24, seed=7):
    # ROADMAP finding 2's draws: lambda = (1, 1), L uniform on [0, 1e3],
    # dtau uniform on [-1e3, 1e3], 30% vacuum, otherwise beta log-uniform
    # on [1e-3, 1e3]
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        sep, delay = float(rng.uniform(0.0, 1e3)), float(rng.uniform(-1e3, 1e3))
        beta = None if rng.uniform() < 0.3 else float(10.0 ** rng.uniform(-3.0, 3.0))
        draws.append((sep, delay, beta))
    return draws


@pytest.mark.parametrize("separation, delay, beta", _oracle_scan_draws(),
                         ids=[f"draw{i}" for i in range(24)])
def test_oracle_is_ok_across_the_accepted_domain(separation, delay, beta):
    # scipy's quad missed Re J's target on 17 of these 24 rows, and each
    # was quadrature_error
    row = evaluate_point(1.0, 1.0, separation, delay, beta=beta, oracle=True)
    assert row["status"] == "ok"
    assert row["oracle_residual"] < 1e-6
