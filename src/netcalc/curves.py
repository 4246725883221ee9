#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Token-bucket arrival curves, rate-latency service curves and the
single-server bound formulas built from them.

Units are fixed package-wide: data volumes in kilobits, times in seconds,
rates in kilobits per second.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ValidationError


@dataclass(frozen=True)
class TokenBucket:
    """
    Token-bucket arrival curve :math:`t \\mapsto b + rt` (for :math:`t > 0`).

    :param burst: the burst term :math:`b` (kilobits), nonnegative
    :param rate: the long-term rate :math:`r` (kilobits/second), nonnegative

    >>> TokenBucket(2.0, 1.0) + TokenBucket(1.0, 3.0)
    TokenBucket(burst=3.0, rate=4.0)
    """

    burst: float
    rate: float

    def __post_init__(self):
        if not (self.burst >= 0 and math.isfinite(self.burst)):
            raise ValidationError("burst must be finite and >= 0, got %r" % (self.burst,))
        if not (self.rate >= 0 and math.isfinite(self.rate)):
            raise ValidationError("rate must be finite and >= 0, got %r" % (self.rate,))

    def __add__(self, other: "TokenBucket") -> "TokenBucket":
        return TokenBucket(self.burst + other.burst, self.rate + other.rate)


@dataclass(frozen=True)
class RateLatency:
    """
    Rate-latency strict service curve :math:`t \\mapsto R (t - T)_+`.

    :param rate: the service rate :math:`R` (kilobits/second), positive
    :param latency: the latency :math:`T` (seconds), nonnegative

    >>> RateLatency(2.0, 0.5).evaluate(1.5)
    2.0
    """

    rate: float
    latency: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValidationError("rate must be finite and > 0, got %r" % (self.rate,))
        if not (self.latency >= 0 and math.isfinite(self.latency)):
            raise ValidationError("latency must be finite and >= 0, got %r" % (self.latency,))

    def evaluate(self, t: float) -> float:
        """Value of the curve at ``t``."""
        return self.rate * max(0.0, t - self.latency)


def left_sum(values: Iterable):
    """
    ``0 + v0 + v1 + ...``, added left to right.  The builtin ``sum`` did
    exactly this up to Python 3.11; from 3.12 on it compensates float sums,
    which moves last bits the reference tests compare.

    >>> left_sum([1e16, 1.0, -1e16])
    0.0
    """
    total = 0
    for v in values:
        total = total + v
    return total


def aggregate(curves: Iterable[TokenBucket]) -> TokenBucket:
    """Componentwise sum of token buckets (the curve of the aggregated flow)."""
    total = TokenBucket(0.0, 0.0)
    for c in curves:
        total = total + c
    return total


@dataclass(frozen=True)
class Bound:
    """
    A worst-case bound: either a finite nonnegative value or unbounded.

    ``value is None`` encodes the unbounded case, so that infinity never
    leaks into stored numeric results; ``float`` reads it as ``inf``.

    >>> Bound(4.5).is_finite, UNBOUNDED.is_finite, float(UNBOUNDED)
    (True, False, inf)
    """

    value: Optional[float] = None

    def __post_init__(self):
        if self.value is not None and not (self.value >= 0 and math.isfinite(self.value)):
            raise ValidationError("finite bound must be >= 0 and finite, got %r" % (self.value,))

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __float__(self) -> float:
        return math.inf if self.value is None else float(self.value)

    def __str__(self) -> str:
        return "inf" if self.value is None else repr(self.value)


#: The unbounded result, shared singleton-style.
UNBOUNDED = Bound(None)


class ServerClass(enum.Enum):
    """Stability class of a single server under a given aggregate arrival."""

    STABLE = "stable"
    CRITICAL = "critical"
    UNSTABLE = "unstable"


def classify_server(alpha: TokenBucket, beta: RateLatency) -> ServerClass:
    """
    Classify a server crossed by an ``alpha``-constrained aggregate.

    The class depends only on the rates: unstable when :math:`r > R`,
    critical when :math:`r = R` (exact comparison), stable when :math:`r < R`.

    >>> classify_server(TokenBucket(1, 2), RateLatency(2, 0)).value
    'critical'
    """
    if alpha.rate > beta.rate:
        return ServerClass.UNSTABLE
    if alpha.rate == beta.rate:
        return ServerClass.CRITICAL
    return ServerClass.STABLE


def backlog_bound(alpha: TokenBucket, beta: RateLatency) -> Bound:
    """
    Worst-case backlog of an ``alpha``-constrained flow in a server
    guaranteeing ``beta``: :math:`b + rT` when :math:`r \\le R`, unbounded
    otherwise.

    >>> backlog_bound(TokenBucket(1, 1), RateLatency(2, 0.01)).value
    1.01
    """
    if alpha.rate > beta.rate:
        return UNBOUNDED
    return Bound(alpha.burst + alpha.rate * beta.latency)


def busy_period_bound(alpha: TokenBucket, beta: RateLatency) -> Bound:
    """
    Maximum length of a backlogged period: :math:`(b + RT)/(R - r)` when
    :math:`r < R`, unbounded otherwise (including the critical case).

    >>> busy_period_bound(TokenBucket(1, 1), RateLatency(2, 1)).value
    3.0
    """
    if alpha.rate >= beta.rate:
        return UNBOUNDED
    return Bound((alpha.burst + beta.rate * beta.latency) / (beta.rate - alpha.rate))


def group_backlog_bound(
    interest: Iterable[TokenBucket],
    cross: Iterable[TokenBucket],
    beta: RateLatency,
) -> Bound:
    """
    Worst-case backlog of the flows in ``interest`` at a server shared with
    the flows in ``cross``:

    .. math:: b_I + \\frac{r_I}{R - r_{\\bar I}} (b_{\\bar I} + r_{\\bar I} T) + r_I T.

    A strict rate margin :math:`r_I + r_{\\bar I} < R` is required; at or
    above it the bound is unbounded.

    >>> group_backlog_bound([TokenBucket(1, 1)], [TokenBucket(1, 1)],
    ...                     RateLatency(3, 0)).value
    1.5
    """
    agg_i = aggregate(interest)
    agg_c = aggregate(cross)
    if agg_i.rate + agg_c.rate >= beta.rate:
        return UNBOUNDED
    r_res = beta.rate - agg_c.rate
    value = (
        agg_i.burst
        + agg_i.rate / r_res * (agg_c.burst + agg_c.rate * beta.latency)
        + agg_i.rate * beta.latency
    )
    return Bound(value)


def output_curve(max_backlog, rate: float) -> TokenBucket:
    """
    Arrival curve of the departures of a flow group whose backlog in a
    system never exceeds ``max_backlog`` and whose aggregate input rate is
    ``rate``: the token bucket :math:`\\gamma_{B, r}`.

    ``max_backlog`` may be a float or a finite :class:`Bound`; a bound is
    read through ``float``, so an unbounded one reads as ``inf``.

    >>> output_curve(5.0, 1.0)
    TokenBucket(burst=5.0, rate=1.0)
    """
    if isinstance(max_backlog, Bound):
        max_backlog = float(max_backlog)
    if not math.isfinite(max_backlog):
        raise ValidationError("output curve requires a finite backlog bound")
    return TokenBucket(max_backlog, rate)
