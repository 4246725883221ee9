import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netcalc import (
    Bound,
    RateLatency,
    ServerClass,
    TokenBucket,
    UNBOUNDED,
    backlog_bound,
    busy_period_bound,
    classify_server,
    group_backlog_bound,
    output_curve,
)
from netcalc.curves import left_sum

finite_rates = st.floats(0.0, 50.0, allow_nan=False)
bursts = st.floats(0.0, 100.0, allow_nan=False)


def test_backlog_bound_examples():
    assert backlog_bound(TokenBucket(1, 1), RateLatency(2, 0.01)).value == pytest.approx(1.01, abs=1e-12)
    assert backlog_bound(TokenBucket(0, 0), RateLatency(5, 3)).value == 0.0
    assert not backlog_bound(TokenBucket(1, 3), RateLatency(2, 1)).is_finite


def test_backlog_bound_critical_rate_still_finite():
    assert backlog_bound(TokenBucket(2, 2), RateLatency(2, 0.5)).value == pytest.approx(3.0)


def test_busy_period_examples():
    assert busy_period_bound(TokenBucket(1, 1), RateLatency(2, 1)).value == pytest.approx(3.0, abs=1e-12)
    assert busy_period_bound(TokenBucket(0, 0), RateLatency(1, 0)).value == 0.0
    assert not busy_period_bound(TokenBucket(1, 2), RateLatency(2, 0)).is_finite


def test_group_backlog_examples():
    # interest only: reduces to the aggregate backlog bound
    got = group_backlog_bound([TokenBucket(1, 1), TokenBucket(1, 1)], [], RateLatency(3, 0.01))
    assert got.value == pytest.approx(2.02, abs=1e-12)
    got = group_backlog_bound([TokenBucket(1, 1)], [TokenBucket(1, 1)], RateLatency(3, 0))
    assert got.value == pytest.approx(1.5, abs=1e-12)
    # critical aggregate rate: no strict margin, no bound
    assert not group_backlog_bound([TokenBucket(1, 1)], [TokenBucket(1, 2)], RateLatency(3, 1)).is_finite


def test_group_backlog_matches_aggregate_without_cross(rng):
    for _ in range(50):
        flows = [TokenBucket(float(rng.uniform(0, 5)), float(rng.uniform(0, 2))) for _ in range(4)]
        beta = RateLatency(float(sum(f.rate for f in flows) + rng.uniform(0.1, 3)), float(rng.uniform(0, 2)))
        total = TokenBucket(sum(f.burst for f in flows), sum(f.rate for f in flows))
        grouped = group_backlog_bound(flows, [], beta)
        direct = backlog_bound(total, beta)
        assert grouped.value == pytest.approx(direct.value, abs=1e-12)


def test_group_backlog_permutation_insensitive(rng):
    interest = [TokenBucket(1, 0.5), TokenBucket(2, 0.25), TokenBucket(0.5, 1)]
    cross = [TokenBucket(3, 0.5), TokenBucket(1, 0.75)]
    beta = RateLatency(4, 0.2)
    reference = group_backlog_bound(interest, cross, beta).value
    for _ in range(10):
        rng.shuffle(interest)
        rng.shuffle(cross)
        assert group_backlog_bound(interest, cross, beta).value == reference


def test_group_backlog_monotone(rng):
    interest = [TokenBucket(1, 0.5)]
    cross = [TokenBucket(2, 0.5)]
    base = group_backlog_bound(interest, cross, RateLatency(3, 0.5)).value
    assert group_backlog_bound([TokenBucket(1.5, 0.5)], cross, RateLatency(3, 0.5)).value >= base
    assert group_backlog_bound([TokenBucket(1, 0.6)], cross, RateLatency(3, 0.5)).value >= base
    assert group_backlog_bound(interest, [TokenBucket(2.5, 0.5)], RateLatency(3, 0.5)).value >= base
    assert group_backlog_bound(interest, cross, RateLatency(3.5, 0.5)).value <= base


@given(b=bursts, r=finite_rates, R=st.floats(0.01, 50.0), T=st.floats(0.0, 10.0))
def test_backlog_finite_iff_not_unstable(b, r, R, T):
    alpha, beta = TokenBucket(b, r), RateLatency(R, T)
    assert backlog_bound(alpha, beta).is_finite == (classify_server(alpha, beta) is not ServerClass.UNSTABLE)
    assert busy_period_bound(alpha, beta).is_finite == (classify_server(alpha, beta) is ServerClass.STABLE)


def test_classify_exact_comparison():
    assert classify_server(TokenBucket(1, 1), RateLatency(2, 0)) is ServerClass.STABLE
    assert classify_server(TokenBucket(1, 2), RateLatency(2, 0)) is ServerClass.CRITICAL
    assert classify_server(TokenBucket(1, 3), RateLatency(2, 0)) is ServerClass.UNSTABLE


def test_token_bucket_addition_componentwise():
    assert TokenBucket(1, 2) + TokenBucket(3, 4) == TokenBucket(4, 6)


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(-1, 0)
    for rate in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate must be finite and >= 0"):
            TokenBucket(1, rate)
    with pytest.raises(ValueError):
        RateLatency(0, 0)
    with pytest.raises(ValueError):
        RateLatency(1, -2)


def test_output_curve():
    assert output_curve(5.0, 1.0) == TokenBucket(5.0, 1.0)
    assert output_curve(Bound(2.02), 2.0) == TokenBucket(2.02, 2.0)
    assert output_curve(0.0, 0.0) == TokenBucket(0.0, 0.0)
    with pytest.raises(ValueError):
        output_curve(UNBOUNDED, 1.0)
    with pytest.raises(ValueError):
        output_curve(math.inf, 1.0)


def test_bound_arithmetic_absorbs_unbounded():
    assert float(UNBOUNDED) == math.inf
    assert str(UNBOUNDED) == "inf"
    with pytest.raises(ValueError):
        Bound(-0.5)
    with pytest.raises(ValueError):
        Bound(math.inf)


def test_left_sum_adds_left_to_right_on_every_python_version():
    # a compensated sum (the builtin from Python 3.12 on) gives 1.0 here
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0
    rows = [np.array([1e16, 1.0]), np.array([1.0, 1e16]), np.array([-1e16, -1e16])]
    assert np.array_equal(left_sum(rows), np.array([0.0, 0.0]))
