#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Stability and performance bounds for networks with cyclic dependencies.

The unknown bursts created by a feed-forward decomposition satisfy a
componentwise linear recursion ``b <= M b + N`` with nonnegative
coefficients; a spectral radius of ``M`` strictly below one certifies
global stability and yields the greatest fixed point, from which backlog
and delay bounds are read as linear forms.

Every stability decision takes a :class:`LinearRecursion`, the one
operand of the decision layer; a matrix given to a public routine is
checked, then wrapped with ``N = 0``.  A decision (``rho_below``) runs
steps of a Collatz-Wielandt bracket, each one product ``lr @ x``, then
one exact M-matrix test: ``(theta I - M) x = 1`` solved once
(``lr.shifted_solve``, the solve of the fixed point too), with a positive
``x`` and a positive residual ``theta x - M x`` as the certificate.
The solve takes one of two routes, chosen by price when the recursion is
built (``lr.exact_cost``): an LU of the dense ``M``, built first when
``M`` is in factors, or, for ``sd``'s factors, the Woodbury identity
through an ``n x n`` capacitance matrix (``_SdFactors.solve``, ``n`` the
server count), which never builds ``M``.  The route only supplies ``x``;
the certificate is the same on both.  The bracket runs the steps that
cost what the exact test does (``_budget``), each step priced by the
recursion (``lr.step_cost``): ``O(L^2)`` on a dense ``M``, ``O(L)`` on
factors.  The bracket may
start from any positive vector: ``min(M x / x) <= rho(M) <= max(M x /
x)`` for every nonnegative ``M`` and positive ``x``.  A decision started
from the all-ones vector is cold; the decisions of a
``critical_utilization`` bisection are warm, each started from the final
vector of the previous step's decision on the same recursion (its last
bracket iterate, or the exact test's solution), which changes how many
steps a decision takes, never what it certifies.
``analyze`` takes its verdict from these decisions alone: the fixed-point
test at ``1 - 1e-9``, and for a diverging recursion one more test at
``1 + 1e-9``, started from the final vector of the first, that tells
``critical`` from ``unstable``.  The exact
spectral radius (``spectral_radius``, ``eigvals`` on the dense ``M``) is
computed only when a report's ``rho`` is read, and cached.

A recursion's ``N`` takes one of two forms: an array, checked when the
recursion is built, or the builder's recipe for it, built and checked on
the first read of ``lr.N``.  The builders pass recipes.  Every decision
reads ``M`` alone, so only a fixed point's solve builds ``N``: no
``critical_utilization`` step, no report's ``verdict`` or ``rho`` and no
diverging ``analyze`` does.

Three constructions of ``(M, N)`` are provided: per-server decomposition
(``sd``), tree decomposition (``td``) and grouping of the flows crossing
each removed arc (``ag``), plus the two-stage combination (``2s``).

Each construction is split in two.  A rate-free structure depends only on
the server count and the flow paths: for ``sd`` the hop arrays and the
pair layout (``_SdLayout``); for the others the split of the flows at the
removed arcs, the forest the segments form, the column layout of each
grouping of removed arcs the method builds a recursion for (none for
``td``, all for ``ag``, none then all for ``2s``), the target's row when
one is given, and one row layout of the coefficient pass for all their
rows (``_Decomposition``).  Preparing it reads the network's hop arrays
once, with no loop over hops or segments.  After preparation a structure
reads no network, only numbers: a network's ``_Numbers``
(:mod:`netcalc.network`: rates, bursts, latencies, server loads and the
not-strictly-stable mask, the one place they are computed).
Both structures answer ``bind(numbers)``, which gathers the numbers over
what the structure reads; ``recursions(numbers)``, which returns the
recursions (``sd``'s with ``M`` in factors, every ``N`` as a recipe) and
the target row's weights from one coefficient pass (none for ``sd``, which
runs no pass); and
``objective(numbers, target, weights)``, which writes the target as a
linear form over the first recursion's variables from those weights, or
from a one-row pass of its own when it has none.

The recursions come from one path (``_method_recursions``): local
stability is read off the mask, the structure is prepared (``_prepare``,
with the target for ``analyze``) unless the caller holds one, bound once,
and asked for its recursions.  Every ``analyze`` call prepares its
structure anew, cheaply, and keeps nothing.  A family analysis holds one
(:class:`_Held`): ``critical_utilization`` over its bisection, and
``netcalc sweep`` per method over its grid (``_analyze`` on the held
structure).  The structure is bound at every ``family(U)`` with the same
server count and flow paths, checked at every one, with the flow half of
the numbers (rates, bursts and loads, ``network._flow_numbers``) bound to
it once and again only when the arrivals change.  So each ``family(U)``
costs its servers' numbers (``network._server_numbers``) and the pass's
levels' array steps, while the pass's rate-only grid and level plan stay
laid out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import islice
from typing import Callable, FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from .curves import Bound, UNBOUNDED, _is_real, left_sum
from .decomposition import _Split
from .errors import (
    LocallyUnstableError,
    UnsupportedTargetError,
    ValidationError,
)
from .network import (
    Arc, Network, _FlowNumbers, _Numbers, _check_arcs, _check_id, _flow_numbers, _hops, _is_id,
    _numbers, _paths, _require_local_stability, _server_numbers,
)
from .tree_analysis import _RowLayout, _prepare_forest

#: The analysis methods.
METHODS = ("sd", "td", "ag", "2s")

#: Margin below 1 required of the spectral radius to declare stability.
STABILITY_EPS = 1e-9

#: Diagonal shift of the power iteration, which keeps its iterate positive.
POWER_SHIFT = 1e-6

#: The cost model of :func:`_budget` in seconds, fitted to ``timeit`` (best of
#: 7) on ring sd recursions of ``L <= 264``, 2-core Intel Xeon, one BLAS
#: thread; they hold only up to that size.  A step
#: (:attr:`LinearRecursion.step_cost`): its fixed numpy calls (7.0 µs at
#: ``L = 6``) plus its product by every stored entry of a dense ``M`` (17.1 µs
#: at 264) or variable of factors (10.8 µs at 264).
STEP_S, DENSE_ENTRY_S, FACTORED_VAR_S = 7e-6, 0.15e-9, 10e-9
#: The exact test on a dense ``M``, ``(call, per L³)``: an LU of ``⅔ L³``
#: flops and a certificate (19 µs at ``L = 12``, 1.02 ms at 264).
LU_S = (20e-6, 60e-12)
#: The exact test on factors (:class:`_SdFactors`) takes the cheaper of two
#: routes.  The dense one builds ``M`` first, per entry (81 µs at ``L =
#: 264``, 1.08 ms at 870), then pays :data:`LU_S`.  The capacitance one
#: (:meth:`_SdFactors.solve`) costs ``(call, per position, per entry of its
#: L x (n + 1) table)`` plus :data:`LU_S`'s price of an ``n x n`` LU, as
#: ``analyze`` meets it, on a layout not yet laid out position-major: 42 µs
#: at ``uni_ring(4)`` (``L = 12``), 106 µs at ``bi_ring(12)`` (264), 356 µs
#: at ``uni_ring(30)`` (870).  Fitted as above (best of 40 to 160 runs,
#: alternating with the dense route) on ring sd recursions of ``6 <= L <=
#: 3540``; the model's crossover lies near ``L = 60-90``, the measured one
#: near ``L = 56``.
BUILD_ENTRY_S = 1.3e-9
CAPACITANCE_S = (30.8e-6, 3.8e-6, 9.1e-9)

#: The utilization range :func:`critical_utilization` searches, and the
#: bracket width at which its bisection stops.
U_MIN, U_MAX, CRITICAL_TOL = 1e-3, 1.0, 1e-4


def _check_entries(size: int, *arrays) -> None:
    """
    Refuse a recursion of ``size`` variables unless each of its ``(array,
    shape)`` pairs has its shape, then unless every entry of every array is
    finite, then unless every one is nonnegative.
    """
    for a, shape in arrays:
        if a.shape != shape:
            raise ValidationError("inconsistent recursion dimensions")
    if size:
        # NaN propagates through min and max, so the extremes decide both
        extremes = [v for a, _ in arrays for v in (a.min(), a.max())]
        if not all(math.isfinite(v) for v in extremes):
            raise ValidationError("recursion entries must be finite")
        if min(extremes) < 0:
            raise ValidationError("recursion entries must be nonnegative")


class LinearRecursion:
    """
    The componentwise recursion ``b <= M b + N`` over labelled variables,
    the one operand of every stability decision.

    Labels are ``(flow, segment)`` pairs for the sd/td constructions and
    removed arcs for ag; mixed recursions list the individual continuations
    first, then the grouped arcs.

    ``M`` is the ``L x L`` matrix, ``L`` the number of variables
    (:attr:`size`), or for the per-server recursion its factors
    (:class:`_SdFactors`); only the recursion knows which, and it keeps
    the form it was built with for its whole life.  ``lr @ x`` is the
    product ``M x``, the step of every decision: ``O(L)`` on factors, and
    :attr:`step_cost` its price in seconds.  :meth:`shifted_solve`, the
    exact test's solve, is priced too (:attr:`exact_cost`): an LU on a
    dense ``M``; on factors the cheaper of building ``M`` for that LU and
    the capacitance solve (:meth:`_SdFactors.solve`), which is ``O(L n)``
    with ``n`` the server count and wins from some tens of variables on.
    Both prices and the route follow from the form and the size alone.
    Reading :attr:`M` builds the dense matrix from the factors once and
    keeps it beside them, so no step, budget, route or certificate
    depends on whether ``M`` was read.

    ``N`` is given as an array, checked at construction with ``M``, or as
    its builder's recipe, a callable of no arguments that returns it: the
    recursion checks ``M`` at construction and calls the recipe on the
    first read of :attr:`N`, which checks the result with the same messages
    and keeps it.  The builders (:meth:`_SdLayout.recursions`,
    :meth:`_Decomposition.recursions`) pass recipes, because no decision
    reads ``N``: a ``critical_utilization`` step, a report's ``verdict``
    and ``rho`` and a diverging ``analyze`` never build it; a fixed point's
    solve does.
    """

    def __init__(self, labels: Tuple, M, N):
        self.labels, self._M, self._N = labels, M, N
        self.__post_init__()

    def __post_init__(self):
        """Check ``M``, and ``N`` when given as an array; price the solves."""
        self.size = L = len(self.labels)
        lu = LU_S[0] + LU_S[1] * L**3
        if isinstance(self._M, _SdFactors):
            m, shape = self._M.gain, (L,)  # the entries of M are 0, 1 and the gains
            self.step_cost = STEP_S + FACTORED_VAR_S * L
            lay, dense = self._M.layout, lu + BUILD_ENTRY_S * L * L
            capacitance = (CAPACITANCE_S[0] + CAPACITANCE_S[1] * lay.depth
                           + CAPACITANCE_S[2] * L * (lay.num_servers + 1)
                           + LU_S[1] * lay.num_servers**3)
            self._by_capacitance, self.exact_cost = capacitance < dense, min(capacitance, dense)
        else:
            self._M = self.M = m = np.asarray(self._M, dtype=float)
            shape, self.step_cost = (L, L), STEP_S + DENSE_ENTRY_S * L * L
            self._by_capacitance, self.exact_cost = False, lu
        if callable(self._N):  # a recipe: its N is checked when read
            _check_entries(L, (m, shape))
        else:
            self._N = np.asarray(self._N, dtype=float)
            _check_entries(L, (m, shape), (self._N, (L,)))

    @property
    def N(self) -> np.ndarray:
        """``N``: given at construction, or built by the recipe and checked on first read."""
        if callable(self._N):
            n = np.asarray(self._N(), dtype=float)
            _check_entries(self.size, (n, (self.size,)))
            self._N = n  # the recipe and its references go
        return self._N

    @cached_property
    def M(self) -> np.ndarray:
        """The dense ``M``: set at construction, or built from the factors on first read."""
        return self._M.matrix()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._M @ x

    def shifted_solve(self, theta: float, rhs: np.ndarray) -> np.ndarray:
        """
        ``(theta I - M)^-1 rhs`` by the route the recursion was priced for:
        through the capacitance matrix when it is cheaper and ``theta > 0``,
        else by one LU, on a negated copy of ``M`` with ``theta`` added to
        its diagonal.

        :raises numpy.linalg.LinAlgError: if ``theta I - M`` is singular
        """
        if self._by_capacitance and theta > 0:
            return self._M.solve(theta, rhs)
        A = np.negative(self.M)
        A.flat[:: A.shape[0] + 1] += theta
        return np.linalg.solve(A, rhs)


@dataclass(frozen=True)
class ObjectiveForm:
    """A performance bound as the linear form ``Q . b + C`` over variables."""

    Q: np.ndarray
    C: float


@dataclass(frozen=True)
class Target:
    """What to bound: a group backlog at a server, or a flow's delay."""

    kind: str
    server: Optional[int] = None
    flows: FrozenSet[int] = frozenset()
    flow: Optional[int] = None

    @staticmethod
    def backlog(server: int, flows: Iterable[int]) -> "Target":
        """
        The backlog of ``flows`` at ``server``.  The flows are listed as
        given and checked to be ids before they are frozen, as a set would
        fold ``False`` into ``0``.

        :raises UnsupportedTargetError: if ``flows`` is no iterable of ids
        """
        try:
            listed = list(flows)
        except TypeError:
            listed = None
        if listed is None or not all(map(_is_id, listed)):
            raise UnsupportedTargetError("backlog flows must be flow ids, got %r" % (flows,))
        return Target("backlog", server=server, flows=frozenset(listed))

    @staticmethod
    def delay(flow: int) -> "Target":
        return Target("delay", flow=flow)


@dataclass(frozen=True)
class StabilityReport:
    """
    Outcome of one analysis method on one network.  ``objective`` is the
    linear form ``bound`` evaluates at the fixed point (``None`` for ``2s``,
    without a target and on local instability).  ``recursions`` are the
    method's recursions, empty on local instability.

    ``verdict`` comes from the stability decisions alone: ``stable`` when
    a fixed point exists, else ``critical`` when some recursion's spectral
    radius lies below ``1 + 1e-9`` (one more decision, as :func:`rho_below`
    makes it), else
    ``unstable``.  Each of those decisions starts from the final vector of
    the fixed-point test that ``analyze`` ran on its recursion at ``1 -
    1e-9`` (``_starts``, one per recursion; all ones when absent), which
    changes how many steps it takes, never its answer (see :func:`_decide`).
    ``rho``, the exact spectral radius (the smallest over the recursions,
    ``inf`` on local instability), is computed on first read and cached;
    it decides nothing.
    """

    method: str
    stable: bool
    fixed_point: Optional[np.ndarray]
    bound: Optional[Bound]
    labels: Tuple = ()
    objective: Optional[ObjectiveForm] = None
    recursions: Tuple[LinearRecursion, ...] = field(default=(), compare=False, repr=False)
    _starts: Tuple[Optional[np.ndarray], ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def rho(self) -> float:
        return min((spectral_radius(lr) for lr in self.recursions), default=math.inf)

    @cached_property
    def verdict(self) -> str:
        if self.stable:
            return "stable"
        starts = self._starts or (None,) * len(self.recursions)
        if any(_decide(lr, 1.0 + STABILITY_EPS, x)[0] for lr, x in zip(self.recursions, starts)):
            return "critical"
        return "unstable"


def _checked(M) -> LinearRecursion:
    """
    The operand of a decision: a recursion as it is, checked when it was
    built; a matrix checked to be numbers, square, finite and nonnegative,
    then wrapped with ``N = 0``.
    """
    if isinstance(M, LinearRecursion):
        return M
    try:
        M = np.asarray(M, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("matrix entries must be numbers") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.isfinite(M).all():
        raise ValidationError("matrix entries must be finite")
    if M.size and M.min() < 0:
        raise ValidationError("matrix entries must be nonnegative")
    return LinearRecursion(tuple(range(len(M))), M, np.zeros(len(M)))


def spectral_radius(M) -> float:
    """
    Spectral radius of a nonnegative matrix, or of a
    :class:`LinearRecursion`'s ``M``: the largest eigenvalue modulus by
    the exact eigenvalue routine on the dense ``M``.  Only a report's
    ``rho`` reads it, and it decides nothing: a decision is
    :func:`rho_below`'s.

    >>> round(spectral_radius(np.array([[0.0, 0.5], [0.5, 0.0]])), 12)
    0.5
    """
    lr = _checked(M)
    if lr.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(lr.M))))


def _budget(lr: LinearRecursion) -> int:
    """
    The bracket steps on ``lr``, at least one, that cost what the exact
    test after them does, both priced by the recursion.
    """
    return max(1, int(lr.exact_cost / lr.step_cost))


def _brackets(lr: LinearRecursion, x: Optional[np.ndarray]):
    """
    Collatz-Wielandt brackets of ``rho(M)``, from power iteration on
    ``M + POWER_SHIFT I`` started from the positive vector ``x`` (``None``:
    all ones), without end (:func:`_budget` bounds them).  Each comes as
    ``(lo, hi, the iterate it was read off)``.
    """
    x = np.ones(lr.size) if x is None else x
    while True:
        y = lr @ x + POWER_SHIFT * x
        ratios = y / x
        yield float(ratios.min()) - POWER_SHIFT, float(ratios.max()) - POWER_SHIFT, x
        x = np.maximum(y / y.max(), 1e-250)  # floor out underflow to keep x > 0


def rho_below(M, threshold: float) -> bool:
    """
    Decide ``spectral_radius(M) < threshold``, for a nonnegative matrix or
    a :class:`LinearRecursion`.  The Collatz-Wielandt bracket usually
    separates from the threshold long before it closes, so it runs first,
    from the all-ones vector, for at most the steps that cost what the
    exact test does (:func:`_budget`).  If it is still undecided, one
    exact M-matrix test settles it:
    ``rho(M) < threshold`` exactly when ``threshold I - M`` is a
    nonsingular M-matrix, i.e. when ``(threshold I - M) x = 1`` has a
    positive solution.  The answer is yes only if the solved ``x`` is
    positive and the residual ``threshold x - M x``, recomputed directly,
    is positive too: ``x`` is then a certificate ``M x < threshold x``.

    A step is one product ``M x`` and the exact test one shifted solve,
    both the recursion's (:class:`LinearRecursion`); a decision the
    bracket cannot settle costs about two exact tests.

    :raises ValidationError: if ``M`` is not square, finite and
        nonnegative, as :func:`spectral_radius` requires, or if
        ``threshold`` is no real number (numpy's too, never a ``bool``)
    """
    if not _is_real(threshold):
        raise ValidationError("threshold must be a real number, got %r" % (threshold,))
    return _decide(M, threshold)[0]


def _decide(
    M, threshold: float, start: Optional[np.ndarray] = None
) -> Tuple[bool, Optional[np.ndarray]]:
    """
    :func:`rho_below`'s decision on a matrix or a recursion ``M`` (see
    :func:`_checked`), with its bracket started from the positive vector
    ``start`` (``None``: all ones), and the vector to start the next
    decision on a similar matrix from.  That is the exact test's solution
    when the test ran and the solution has one sign, scaled to a largest
    entry of 1: near ``threshold = rho`` the Perron vector dominates
    ``(threshold I - M)^-1 1``, with the sign of ``threshold - rho``.
    Otherwise it is the last bracket iterate.  Both are floored at
    ``1e-250``.

    Any positive start is sound: ``min(M x / x) <= rho(M) <= max(M x / x)``
    holds for every nonnegative ``M`` and every ``x > 0``, so the start
    changes how many steps a decision takes, never what it certifies.
    """
    lr = _checked(M)
    if lr.size == 0:
        return threshold > 0, start
    x = start
    for lo, hi, x in islice(_brackets(lr, start), _budget(lr)):
        if lo >= threshold:
            return False, x
        if hi < threshold:
            return True, x
    try:
        y = lr.shifted_solve(threshold, np.ones(lr.size))
    except np.linalg.LinAlgError:  # singular: threshold is an eigenvalue
        return False, x
    positive = y.min() > 0
    scale = y.max() if positive else y.min() if y.max() < 0 else math.nan
    if math.isfinite(scale):
        x = np.maximum(y / scale, 1e-250)
    return bool(positive and (threshold * y - lr @ y).min() > 0), x


def solve_recursion(lr: LinearRecursion) -> Optional[np.ndarray]:
    """
    Greatest fixed point of ``b <= M b + N``: the solution of
    ``(I - M) b = N`` when the spectral radius is strictly below one,
    ``None`` (no finite fixed point) otherwise.

    >>> lr = LinearRecursion(("x",), np.array([[0.5]]), np.array([1.0]))
    >>> solve_recursion(lr)
    array([2.])
    """
    return _solve(lr)[0]


def _solve(lr: LinearRecursion) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """
    :func:`solve_recursion`'s fixed point, and the final vector of its
    decision at ``1 - 1e-9`` (see :func:`_decide`; ``None`` when ``L = 0``).
    """
    if lr.size == 0:
        return np.zeros(0), None
    below, x = _decide(lr, 1.0 - STABILITY_EPS)
    if not below:
        return None, x
    solution = lr.shifted_solve(1.0, lr.N)
    if solution.min() < -1e-9 * max(1.0, float(np.abs(solution).max())):
        raise ValidationError("fixed point came out negative; ill-conditioned system")
    return np.maximum(solution, 0.0), x


def _check_target(num_servers: int, paths: Sequence[Sequence[int]], target: Target) -> None:
    """
    Reject a target that is no :class:`Target`, a malformed one, one naming
    a server or flow the network lacks, or a backlog of a flow whose path,
    in ``paths``, misses the target's server; an id is an integer (numpy's
    too), never a ``bool`` or a ``float``.
    """
    if not isinstance(target, Target):
        raise UnsupportedTargetError("target must be a Target, got %r" % (target,))
    if target.kind == "backlog":
        if target.server is None or not target.flows:
            raise UnsupportedTargetError("backlog target needs a server and flows")
        _check_id(target.server, num_servers, UnsupportedTargetError, "server %s does not exist")
        # an id that is no integer first, else the smallest one out of range
        for i in [i for i in target.flows if not _is_id(i)] or sorted(target.flows):
            _check_id(i, len(paths), UnsupportedTargetError,
                      "some target flows do not cross the server: flow %s does not exist")
        missing = [i for i in target.flows if target.server not in paths[i]]
        if missing:
            raise UnsupportedTargetError(
                "flow %d does not cross server %d" % (min(missing), target.server))
    elif target.kind == "delay":
        _check_id(target.flow, len(paths), UnsupportedTargetError, "flow %s does not exist")
    else:
        raise UnsupportedTargetError("unknown target kind %r" % target.kind)


def _pairs(row_group: np.ndarray, item_group: np.ndarray, groups: int):
    """
    Every pair of a row and an item of the row's group, of ``groups``
    groups, as the arrays ``(row, item)``: row by row, and within a row
    the items in order.
    """
    by_group = np.argsort(item_group, kind="stable")
    count = np.bincount(item_group, minlength=groups)
    size = count[row_group]  # each row's pairs
    row = np.repeat(np.arange(len(row_group)), size)
    # a row's k-th pair takes its group's k-th item: by_group from the group's first
    skip = np.repeat(np.cumsum(count)[row_group] - np.cumsum(size), size)
    return row, by_group[np.arange(len(row)) + skip]


class _SdLayout:
    """
    The rate-free half of :func:`build_sd` on one network's flow paths,
    laid out once: the hop arrays, the indices of ``M``'s factors
    (:class:`_SdFactors`) and the terms of ``N``, every pair (row, first
    hop at the row's server), each row's own ahead of its others, which
    keep flow order: the order in which ``N`` adds them.
    The labels and the objective read the same hop arrays: the variables
    are the hops past each flow's first, ``(flow, pos)`` in flow order.
    The capacitance solve's position-major order of the variables is laid
    out on its first use (:attr:`by_position`), and so are the entries of
    the dense ``M`` (:attr:`entries`).
    """

    def __init__(self, net: Network):
        self.num_servers, self.paths = net.num_servers, _paths(net)
        # every hop of every flow, in flow order: hop pos of flow crosses server,
        # and the burst entering it is the sd variable var = offset[flow] + pos - 1
        # (from pos = 1 on); offset[i], the variables of the flows before i, is
        # first[i] - i for flow i's first hop, so var is the hop index less flow + 1
        length, server = _hops(self.paths)
        flow = np.repeat(np.arange(len(self.paths)), length)
        hop = np.arange(len(server))
        first = np.cumsum(length) - length
        pos, var = hop - first[flow], hop - flow - 1
        self.flow, self.pos, self.server, self.var = flow, pos, server, var
        self.length, self.depth = length, int(pos.max(initial=0))  # depth: the last position
        self.labels = tuple(zip(flow[pos >= 1].tolist(), pos[pos >= 1].tolist()))
        # row r, the variable (i, k), is fed by hop (i, k - 1): every hop but the last
        feed = np.flatnonzero(flow[1:] == flow[:-1])
        self.row_flow, self.row_server = flow[feed], server[feed]
        j = self.row_server
        # the factors of M's product: each variable's server, and each row's own
        # feeding hop when it is a variable (a first hop is not: weighed 0 then)
        self.var_server, self.own_var, self.own_later = server[pos >= 1], var[feed], pos[feed] >= 1
        # pairs (row, peer), peer running over the flows starting at the row's server
        row, peer = _pairs(j, server[first], self.num_servers)
        own = first[peer] == feed[row]
        # every own term ahead of all others (a row has at most one), the others
        # still in row order and in flow order within it
        terms = np.argsort(~own, kind="stable")
        self.term_row, self.term_own, self.term_flow = row[terms], own[terms], peer[terms]

    @cached_property
    def by_position(self):
        """
        The variables position-major, for the recurrence along each flow of
        :meth:`_SdFactors.solve`, laid out on its first use: ``(order,
        steps, cell)``.  ``order`` lists the variables by position, and
        within a position by decreasing flow length, ties in flow order, so
        the flows at position ``k + 1`` are a prefix of those at ``k``: each
        variable's predecessor on its flow sits in the previous block at the
        same offset.  ``steps`` holds, from position 2 on, each block's slice
        of ``order`` and the slice of its predecessors.  ``cell`` numbers the
        entries of an ``L x (n + 1)`` position-major table by the entry of an
        ``n x (n + 1)`` one that sums them: the same column at the variable's
        server.
        """
        later = self.pos >= 1
        flow = self.flow[later]
        order = np.lexsort((flow, -self.length[flow], self.pos[later]))
        bounds = np.cumsum(np.bincount(self.pos[later], minlength=self.depth + 1)).tolist()
        steps = [(slice(start, end), slice(before, before + end - start))
                 for before, start, end in zip(bounds, bounds[1:], bounds[2:])]
        width = self.num_servers + 1
        cell = (self.var_server[order, None] * width + np.arange(width)).ravel()
        return order, steps, cell

    @cached_property
    def entries(self):
        """
        The entries of ``M`` that hold a row's gain, laid out on their first
        use (:meth:`_SdFactors.matrix`): ``(row, column)``, each row paired
        with every variable at its server.
        """
        return _pairs(self.row_server, self.var_server, self.num_servers)

    def bind(self, num):
        """The numbers, or their flow half, that the recursion reads: the network's own."""
        return num

    def recursions(self, num: _Numbers):
        """
        The per-server recursion from the layout and a network's numbers,
        as a one-element list, and no target weights.
        ``M`` is kept in factors, the gains (:class:`_SdFactors`), and
        built only when read; so is ``N`` (:meth:`constants`).

        The numbers must be locally stable, as :func:`_method_recursions`
        checks before every bind: ``load_j < R_j`` keeps every margin
        ``R_j - (load_j - r_i)`` positive in floats too, since
        ``fl(load_j - r_i) <= load_j``, so no row needs a margin check.
        """
        rate, R = num.rate, num.service_rate
        i, j = self.row_flow, self.row_server
        gain = rate[i] / (R[j] - (num.load[j] - rate[i]))
        return [LinearRecursion(self.labels, _SdFactors(self, gain),
                                partial(self.constants, num, gain))], None

    def constants(self, num: _Numbers, gain: np.ndarray) -> np.ndarray:
        """
        ``N`` from a network's numbers and the rows' gains: one ordered left
        fold per row over its terms, the row's own first-hop burst, then
        ``gain * b`` of every other first hop at the server in flow order,
        then ``gain * R_j * T_j``.
        """
        j = self.row_server
        # bincount adds its weights in input order, so each row's terms in layout order
        weights = np.where(self.term_own, 1.0, gain[self.term_row]) * num.burst[self.term_flow]
        return (np.bincount(self.term_row, weights, len(self.labels))
                + gain * num.service_rate[j] * num.latency[j])

    def objective(self, num: _Numbers, target: Target, weights=None) -> ObjectiveForm:
        """A backlog at one server over the hops entering it, from the bound numbers."""
        _check_target(self.num_servers, self.paths, target)
        if target.kind != "backlog":
            raise UnsupportedTargetError(
                "delay targets are not supported by the per-server decomposition"
            )
        j = target.server
        at = np.flatnonzero(self.server == j)  # one hop per flow crossing j, in flow order
        flow, later = self.flow[at], self.pos[at] >= 1
        mine = np.array([i in target.flows for i in flow.tolist()], dtype=bool)
        if num.unstable[j]:
            raise LocallyUnstableError("server %d has no strict rate margin" % j)
        r_int = left_sum(num.rate[flow[mine]].tolist())
        r_cross = left_sum(num.rate[flow[~mine]].tolist())
        service_rate, latency = num.service_rate[j].item(), num.latency[j].item()
        gain = r_int / (service_rate - r_cross)
        Q = np.zeros(len(self.labels))
        Q[self.var[at[mine & later]]] = 1.0
        Q[self.var[at[~mine & later]]] = gain
        # the latency terms, then the first-hop bursts: the interest ones, then
        # the cross ones weighed by the gain, each group in flow order
        C = left_sum([gain * r_cross * latency + r_int * latency,
                      *num.burst[flow[mine & ~later]].tolist(),
                      *(gain * num.burst[flow[~mine & ~later]]).tolist()])
        return ObjectiveForm(Q, C)


class _SdFactors:
    """
    The per-server ``M`` in factors, from an :class:`_SdLayout` and one
    network's gains.  Row ``r``, fed by a hop at server ``j``, weighs its
    own feeding hop ``1`` and every other hop at ``j`` its ``gain_r``, so

    .. math:: (M x)_r = gain_r S_j(x) + keep_r x_{own(r)},

    ``S_j`` the sum of the variables at server ``j``, and ``keep_r = 1 -
    gain_r`` when the row's own feeding hop is a variable, else 0.  The
    local stability margin keeps every gain in ``[0, 1]`` in floats too,
    so every term is nonnegative and the product has no cancellation: it
    is within ``gamma_{c+2} M x`` of the exact ``M x`` for every ``x >= 0``,
    ``c`` the most hops at a server.
    """

    def __init__(self, layout: _SdLayout, gain: np.ndarray):
        self.layout, self.gain = layout, gain
        self.keep = np.where(layout.own_later, 1.0 - gain, 0.0)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``M x`` in ``O(L)``: one sum per server, then two gathers."""
        lay = self.layout
        S = np.bincount(lay.var_server, x, lay.num_servers)
        return self.gain * S[lay.row_server] + self.keep * x[lay.own_var]

    def solve(self, theta: float, rhs: np.ndarray) -> np.ndarray:
        """
        ``(theta I - M)^-1 rhs`` for ``theta > 0`` without ``M``, through
        the ``n x n`` capacitance matrix, ``n`` the server count.  ``M = K P
        + G E V``: ``K P`` weighs each row's own feeding hop ``keep_r``,
        ``G E`` is row ``r``'s gain at its server's column and ``V`` sums the
        variables at each server.  ``A = theta I - K P`` is lower triangular
        along each flow, so ``A^-1`` is the recurrence ``z_r = b_r / theta +
        (keep_r / theta) z_{r-1}``, one array step per position
        (:attr:`_SdLayout.by_position`) for ``rhs`` and the ``n`` columns of
        ``G E`` at once.  With ``Z = A^-1 G E`` and ``C = V Z``, the Woodbury
        identity gives ``A^-1 rhs + Z (I - C)^-1 V A^-1 rhs``.

        :raises numpy.linalg.LinAlgError: if ``I - C`` is singular, which it
            is exactly when ``theta I - M`` is
        """
        lay = self.layout
        order, steps, cell = lay.by_position
        n = lay.num_servers
        # the columns G E, then rhs, position-major; A^-1 overwrites them block by block
        Z = np.zeros((len(order), n + 1))
        Z[np.arange(len(order)), lay.row_server[order]] = self.gain[order]
        Z[:, n] = rhs[order]
        Z /= theta
        keep = self.keep[order, None] / theta
        for block, before in steps:  # position 1 is fed by no variable
            Z[block] += keep[block] * Z[before]
        VZ = np.bincount(cell, Z.ravel(), n * (n + 1)).reshape(n, n + 1)
        w = np.linalg.solve(np.eye(n) - VZ[:, :n], VZ[:, n])
        x = np.empty(len(order))
        x[order] = Z[:, n] + Z[:, :n] @ w
        return x

    def matrix(self) -> np.ndarray:
        """
        The dense ``M`` from the factors, each entry written once into
        zeros: each row its gain at every variable of its server, then
        exactly ``1`` at its own feeding hop if a variable.
        """
        lay = self.layout
        row, column = lay.entries
        M = np.zeros((len(lay.labels), len(lay.labels)))
        M[row, column] = self.gain[row]
        M[np.flatnonzero(lay.own_later), lay.own_var[lay.own_later]] = 1.0
        return M


def build_sd(net: Network) -> LinearRecursion:
    """
    Per-server burst recursion: the burst of flow ``i`` entering its hop
    ``k+1`` grows from hop ``k`` by the server's deconvolution residue,

    .. math:: b_{i,k+1} \\le b_{i,k}
        + \\frac{r_i}{R_j - \\sum_{p \\ne i} r_p}
          \\Big(\\sum_{s \\ne (i,k)} b_s + R_j T_j\\Big),

    over all other hops ``s`` present at server ``j``.  First-hop bursts
    are known and folded into the constant vector.

    Built from hop arrays with no per-pair Python work: ``M``'s factors
    and ``N``'s terms (row, first hop at the row's server) are laid out
    from the flow paths alone, then weighed with the rates.  Server loads
    are added in flow order, and ``N`` is one ordered left fold per row, in
    the order of the pairwise loop this replaces (``tests/sd_reference.py``),
    so ``(M, N)`` equal it bit for bit.  That loop checks each row's
    residual rate; here the whole-network local stability check, made
    first, already keeps every residual rate positive.

    :raises LocallyUnstableError: if some server is not strictly stable
    """
    return _method_recursions(net, "sd")[2][0]


class _Decomposition:
    """
    A feed-forward decomposition of one network's flow paths, without
    rates: the split (:attr:`split`), the forest of its segments, checked
    once (a removal that leaves some server several successors raises
    :class:`NotAForestError`), the column layout of each grouping of
    removed arcs it builds a recursion for, and the target's row when it is
    prepared for one.  Every layout's rows, then the target's, form one
    row layout of the coefficient pass (:attr:`rows`), so one pass serves
    the recursions and the objective of every network it is bound to.  The
    first layout also lays out the objective's columns.
    """

    def __init__(self, split: _Split, groupings: Iterable[Iterable[Arc]], target=None):
        self.split, self.paths, self.num_servers = split, split.paths, split.num_servers
        self.forest = _prepare_forest(split.length, split.server, self.num_servers)
        self.layouts = tuple([_Columns(split, grouped) for grouped in groupings])
        rows = [(cols.roots, cols.member_row, cols.member_segment) for cols in self.layouts]
        self.target = None if target is None else self._target_row(target)
        if target is not None:
            rows.append(([self.target[0]], np.zeros(len(self.target[1]), np.intp), self.target[1]))
        offsets = np.cumsum([0] + [len(roots) for roots, _, _ in rows]).tolist()
        self.rows = _RowLayout(
            self.forest, np.concatenate([roots for roots, _, _ in rows]).astype(np.intp),
            np.concatenate([row + offset for (_, row, _), offset in zip(rows, offsets)]),
            np.concatenate([segment for _, _, segment in rows]),
        )

    def _target_row(self, target: Target):
        """
        ``(root, interest segments, entry server)`` of the target's tree
        bound: a backlog's server and its flows' segments there, no entry;
        a delay flow's last server, its one segment and its first server.

        :raises UnsupportedTargetError: on a malformed target, a flow that
            misses the target's server, or a delay flow the removal splits
        """
        split = self.split
        _check_target(self.num_servers, self.paths, target)
        if target.kind == "delay":
            path, seg = self.paths[target.flow], np.searchsorted(split.origin, target.flow)
            if split.length[seg] != len(path):
                raise UnsupportedTargetError(
                    "flow %d is split by the decomposition; its end-to-end delay "
                    "is not a single tree analysis" % target.flow
                )
            return path[-1], np.array([seg]), path[0]
        at = split.server == target.server
        segment = dict(zip(split.flow[at].tolist(), split.segment[at].tolist()))
        return target.server, np.array([segment[i] for i in sorted(target.flows)]), None

    def bind(self, num):
        """
        A network's numbers, or their flow half, gathered over the split
        flows: a segment has its origin's rate, and a first segment its
        origin's burst; a continuation's burst is 0, the recursions'
        unknown.  The server loads and classes stay the network's: the
        split flows cross the same servers with the same rates, added in the
        same order.
        """
        origin, known = self.split.origin, self.split.number == 0
        return replace(num, rate=num.rate[origin], burst=np.where(known, num.burst[origin], 0.0))

    def recursions(self, num: _Numbers):
        """
        One recursion per layout, and the target row's weights ``(phi, rho,
        xi toward the root)`` for :meth:`objective` (``None`` without a
        target), all from one coefficient pass on the bound numbers ``num``
        (:attr:`rows`): one array step per distance to a root.  The weights
        are returned, never kept.
        """
        phi, rho, xi = self.rows.run(num)
        recursions = []
        start = 0
        for cols in self.layouts:
            end = start + len(cols)
            burst, latency = phi[start:end], rho[start:end]
            recursions.append(LinearRecursion(cols.labels, cols.matrix(burst),
                                              partial(cols.constants, burst, latency, num)))
            start = end
        if self.target is None:
            return recursions, None
        return recursions, (phi[start:], rho[start:], self.rows.toward_root(xi)[start:])

    def objective(self, num: _Numbers, target: Target, weights=None) -> ObjectiveForm:
        """
        The target's tight tree bound at the server it names (for a delay,
        the flow's last one) as a row over the first layout's columns, from
        the bound numbers ``num`` and ``weights`` from :meth:`recursions`, or
        else from a pass over the target's one row on :attr:`forest`, which
        refuses a view holding a server the not-strictly-stable mask marks.
        """
        root, interest, entry = self._target_row(target) if weights is None else self.target
        scale = 1.0
        if target.kind == "delay":  # the flow's one segment is the row's interest
            rate, burst = num.rate[interest].item(), num.burst[interest].item()
            if rate == 0:
                raise UnsupportedTargetError("delay of a zero-rate flow is undefined")
            # delay transform: (B - b)/r + xi b / r
            scale = 1.0 / rate
        if weights is None:
            _require_local_stability(num.unstable & self.forest.upstream[:, root])
            rows = _RowLayout(self.forest, np.array([root]), np.zeros_like(interest), interest)
            phi, rho, xi = rows.run(num)
            weights = phi, rho, rows.toward_root(xi)
        phi, rho, xi_root = weights
        extra = 0.0 if target.kind == "backlog" else (xi_root[0, entry] - 1.0) * burst
        cols = self.layouts[0]
        coeffs, constant = cols.matrix(phi), cols.constants(phi, rho, num)
        return ObjectiveForm(coeffs[0] * scale, float((constant[0] + extra) * scale))


class _Columns:
    """
    Column layout of a mixed recursion, read off a split without rates:
    one column per continuation of an ungrouped arc, then one per grouped
    arc, and one row per column for the coefficient pass, a single's parent
    segment at its end or a grouped arc's feeding segments at its tail
    (row ``r`` at :attr:`roots` ``[r]``, its segments the
    :attr:`member_segment` entries whose :attr:`member_row` is ``r``).  A
    grouped arc is a removed induced arc, so some segment feeds its row.
    :meth:`matrix` and :meth:`constants` turn backlog linear forms into rows
    over the columns.
    """

    def __init__(self, split: _Split, grouped: Iterable[Arc]):
        # checked as given, then deduplicated: a set would fold (3, 0.0) into (3, 0)
        grouped = _check_arcs(grouped, split.removed, "grouped arcs", "the removal")
        n = split.num_servers
        cont = np.flatnonzero(split.number >= 1)
        tail, head = split.server[split.start[cont] - 1], split.server[split.start[cont]]
        code = tail * n + head  # the removed arc each continuation crosses
        self.arcs = tuple(sorted(set(grouped)))
        arc_code = np.array([u * n + v for u, v in self.arcs], dtype=np.intp)
        in_group = np.isin(code, arc_code)
        self.single_src = cont[~in_group]
        self.singles = tuple(zip(split.origin[self.single_src].tolist(),
                                 split.number[self.single_src].tolist()))
        self.labels = self.singles + self.arcs
        # each grouped arc's continuations, arc by arc
        by_arc = np.argsort(code[in_group], kind="stable")
        self.arc_src, arc_of = cont[in_group][by_arc], code[in_group][by_arc]
        self.arc_starts = np.searchsorted(arc_of, arc_code)
        self.known = np.flatnonzero(split.number == 0)
        self.roots = np.concatenate((tail[~in_group], arc_code // n))
        self.member_row = np.concatenate((
            np.arange(len(self.singles)), len(self.singles) + np.searchsorted(arc_code, arc_of)
        ))
        self.member_segment = np.concatenate((self.single_src, self.arc_src)) - 1

    def __len__(self):
        return len(self.labels)

    def matrix(self, phi: np.ndarray) -> np.ndarray:
        """
        The coefficient rows from burst weights ``phi`` over split flows, one
        row per backlog form: continuations of ungrouped arcs keep their own
        weight, each grouped arc takes the largest weight among its
        continuations.
        """
        coeffs = np.zeros((len(phi), len(self)))
        coeffs[:, : len(self.singles)] = phi[:, self.single_src]
        if self.arcs:
            coeffs[:, len(self.singles) :] = np.maximum.reduceat(
                phi[:, self.arc_src], self.arc_starts, axis=1
            )
        return coeffs

    def constants(self, phi: np.ndarray, rho: np.ndarray, numbers: _Numbers) -> np.ndarray:
        """
        The constant of each backlog form, from ``phi`` and latency weights
        ``rho`` over servers: the known bursts in flow order, then the
        latency terms in server order, added left to right (the last column
        of their running sums, copied so that their table can go).
        """
        terms = np.concatenate(
            (phi[:, self.known] * numbers.burst[self.known], rho * numbers.latency), axis=1
        )
        return np.cumsum(terms, axis=1)[:, -1].copy()


def build_td(net: Network, removed) -> LinearRecursion:
    """
    Tree-decomposition recursion: each continuation burst is the tight
    worst-case backlog of its parent segment at the removed arc's tail,
    expressed as a linear form over all segment bursts.
    """
    return _method_recursions(net, "td", removed)[2][0]


def build_ag(net: Network, removed) -> LinearRecursion:
    """
    Arc-grouping recursion: one unknown per removed arc, the worst-case
    backlog of all the segments feeding it; the coefficient toward another
    arc is the largest burst weight among that arc's continuations.
    """
    return _method_recursions(net, "ag", removed)[2][0]


def build_grouped(net: Network, removed, grouped_arcs) -> LinearRecursion:
    """
    Mixed recursion: the removed arcs in ``grouped_arcs`` contribute one
    aggregated unknown each, all other continuations stay individual.
    Specializes to the tree recursion with no grouped arcs and to the
    arc-grouping recursion with all of them.  Local stability is checked
    first, as by :func:`build_td` and :func:`build_ag`.
    """
    _require_local_stability(_numbers(net).unstable)
    dec = _Decomposition(_Split(net, removed), [grouped_arcs])
    return _method_recursions(net, "td", structure=dec)[2][0]


def objective_for(net: Network, target: Target, method: str, removed=None) -> ObjectiveForm:
    """
    The requested performance expressed as ``Q . b + C`` over the variables
    of the given method's recursion.  It makes no whole-network check, so
    it raises ``ValidationError`` on a bad ``removed`` on any network.
    """
    structure = _prepare(net, _method(method), removed)
    return structure.objective(structure.bind(_numbers(net)), target)


def _bound_at(obj: ObjectiveForm, fixed: Optional[np.ndarray]) -> Bound:
    if fixed is None:
        return UNBOUNDED
    return Bound(float(obj.Q @ fixed) + float(obj.C))


def one_stage_bound(lr: LinearRecursion, obj: ObjectiveForm) -> Bound:
    """Evaluate ``Q . b* + C`` at the greatest fixed point, if it exists."""
    return _bound_at(obj, solve_recursion(lr))


def two_stage_bound(net: Network, removed, target: Target) -> Bound:
    """
    Combine the tree and arc-grouping recursions: maximize the objective
    over burst vectors below the tree fixed point whose per-arc group sums
    stay below the arc fixed point.  The bound of ``analyze(net, "2s",
    target, removed)``: ``UNBOUNDED`` on a locally unstable network, as
    ``analyze`` and ``netcalc sweep`` report it.
    """
    return analyze(net, "2s", target, removed).bound


def _two_stage(dec: _Decomposition, obj: ObjectiveForm, b_star, big_b) -> Bound:
    """
    The two-stage bound from the tree objective ``obj`` (over ``dec``'s
    first layout, the tree one) and the tree and arc fixed points (``None``
    where that recursion diverges).

    The groups are disjoint and each is constrained by a box and a single
    sum, so a per-group greedy allocation in decreasing coefficient order
    is exact.  When only one recursion is stable its constraints alone
    apply; when neither is, the bound is unbounded.  Each arc's members
    with a positive coefficient are taken in decreasing coefficient order,
    ties by variable index, while the arc's budget left is positive: a
    take adds its coefficient times the smaller of that budget and its
    box, and the budget loses the box.  The takes add to ``C`` in order.
    """
    if b_star is None and big_b is None:
        return UNBOUNDED
    tree, arcs = dec.layouts
    # the tree variables are the continuations, the arc layout's groups the sorted arcs
    var = np.searchsorted(tree.single_src, arcs.arc_src).tolist()
    Q, starts = obj.Q.tolist(), arcs.arc_starts.tolist() + [len(var)]
    box = [math.inf] * len(Q) if b_star is None else b_star.tolist()
    total = obj.C
    for pos, left in enumerate([math.inf] * len(arcs.arcs) if big_b is None else big_b.tolist()):
        for v in sorted(var[starts[pos] : starts[pos + 1]], key=lambda v: (-Q[v], v)):
            if not (Q[v] > 0 and left > 0):
                break
            total += Q[v] * min(left, box[v])
            left -= box[v]
    return Bound(total)


def analyze(
    net: Network,
    method: str,
    target: Optional[Target] = None,
    removed=None,
) -> StabilityReport:
    """
    Run one method end to end on one decomposition: build its recursion(s),
    solve each fixed point once and evaluate the requested bound, reporting
    its linear form as ``objective``.  ``stable`` holds when some recursion
    has a finite fixed point (the tree one is reported for ``2s`` when both
    do), so one test decides ``stable``, the fixed point and whether the
    bound is finite; reading ``verdict`` tells a diverging analysis
    ``critical`` from ``unstable`` by one more test at ``1 + 1e-9``.
    ``rho``, the exact spectral radius (the smaller one for ``2s``), is a
    diagnostic computed on first read.  Local instability short-circuits
    to an unstable report with ``rho = inf``, whatever ``removed``.
    """
    return _analyze(net, _method(method), target, removed)


def _analyze(net: Network, method: str, target: Optional[Target] = None, removed=None,
             structure=None, flows: Optional[_FlowNumbers] = None) -> StabilityReport:
    """
    :func:`analyze`'s report for a checked ``method``.  ``structure`` and
    ``flows`` are as :func:`_method_recursions` takes them: ``netcalc
    sweep`` passes the structure it holds for the method and target
    (:class:`_Held`), which makes the report equal to a fresh one.
    """
    try:
        structure, numbers, recursions, weights = _method_recursions(
            net, method, removed, structure, target, flows)
    except LocallyUnstableError:
        return StabilityReport(
            method, False, None, UNBOUNDED if target is not None else None
        )
    fixed_points, starts = zip(*[_solve(lr) for lr in recursions])
    fixed = next((fp for fp in fixed_points if fp is not None), None)
    bound = objective = None
    if target is not None:
        obj = structure.objective(numbers, target, weights)
        if method == "2s":
            bound = _two_stage(structure, obj, *fixed_points)
        else:
            bound, objective = _bound_at(obj, fixed), obj
    return StabilityReport(
        method, fixed is not None, fixed, bound, recursions[0].labels, objective,
        tuple(recursions), starts,
    )


def _method(name: str) -> str:
    """``name`` lower-cased when it is a string, checked to be one of :data:`METHODS`."""
    method = name.lower() if isinstance(name, str) else name
    if method not in METHODS:
        raise ValidationError("unknown method %r" % (method,))
    return method


def _prepare(net: Network, method: str, removed=None, target: Optional[Target] = None):
    """
    The rate-free structure of ``method``'s recursions on ``net``'s flow
    paths: the sd pair layout, or the decomposition by ``removed``
    (default: :func:`removal_tree`) with the method's groupings of removed
    arcs: none for ``td``, all for ``ag``, none then all for ``2s``, and
    the row of ``target``, when given, laid out after the recursions' rows.
    The sd layout takes no target: its objective runs no pass.

    :raises ValidationError: if ``removed`` is given for ``sd``, which
        removes no arcs
    """
    if method == "sd":
        if removed is not None:
            raise ValidationError("the per-server decomposition removes no arcs")
        return _SdLayout(net)
    split = _Split(net, removed)
    groupings = {"td": [()], "ag": [split.removed], "2s": [(), split.removed]}[method]
    return _Decomposition(split, groupings, target)


def _method_recursions(net: Network, method: str, removed=None, structure=None, target=None,
                       flows: Optional[_FlowNumbers] = None):
    """
    ``(structure, numbers, recursions, weights)``: the structure of the
    method's recursions, ``net``'s numbers bound to it, the recursions and
    the weights of ``target``'s row when the structure laid one out
    (``None`` otherwise).  ``structure`` is one prepared from ``net``'s
    flow paths when the caller holds one; otherwise it is prepared here,
    for ``target``, after the local stability check.  ``flows``, given
    only with ``structure``, is ``net``'s flow half already bound to it,
    so that only the servers' numbers are read from ``net``.
    """
    numbers = _numbers(net) if flows is None else _server_numbers(net, flows)
    _require_local_stability(numbers.unstable)
    if structure is None:
        structure = _prepare(net, method, removed, target)
    if flows is None:
        numbers = structure.bind(numbers)
    return (structure, numbers, *structure.recursions(numbers))


def is_stable(net: Network, method: str, removed=None) -> bool:
    """Stability verdict of one method: ``False`` on local instability, whatever ``removed``."""
    return _stable(net, _method(method), removed)


def _stable(net: Network, method: str, removed=None, structure=None, starts=None,
            flows=None) -> bool:
    """
    The verdict of :func:`is_stable`: stable when some recursion of the
    method decides below ``1 - 1e-9`` (``2s`` stops at its first stable
    one).  ``structure`` and ``flows`` are as :func:`_method_recursions`
    takes them.  ``starts``, when given, holds one start vector per
    recursion (``None``: all ones); each decision starts its bracket from
    its recursion's vector and writes back its final one (see
    :func:`_decide`).
    """
    try:
        _, _, recursions, _ = _method_recursions(net, method, removed, structure, flows=flows)
    except LocallyUnstableError:
        return False
    starts = [None] * len(recursions) if starts is None else starts
    for r, lr in enumerate(recursions):
        below, starts[r] = _decide(lr, 1.0 - STABILITY_EPS, starts[r])
        if below:
            return True
    return False


class _Held:
    """
    One method's rate-free structure held across the networks of a family,
    ``critical_utilization``'s bisection or ``netcalc sweep``'s grid,
    prepared for ``target`` (``None``: for no target).  ``family`` is
    arbitrary code, so :meth:`fit` checks every network: a network with
    another server count or other flow paths gets a structure of its own,
    prepared from it.  Unlike ``analyze``, it prepares before the local
    stability check, so a target the network cannot have raises even where
    ``analyze`` would report local instability.

    Beside the structure it holds the flow half of the numbers (rates,
    bursts and server loads, ``network._flow_numbers``) bound to it, bound
    again whenever the arrivals' rates and bursts differ from the held ones
    (equal numbers give equal arrays, up to the sign of a zero, which no
    decision reads) and whenever a new structure is prepared; and one start
    vector per recursion of the method (:attr:`starts`, all ``None`` on a
    new structure) for decisions that hand theirs on (:func:`_stable`).
    The holding lives with the holder: no state outlives the loop that
    made it.
    """

    def __init__(self, method: str, target: Optional[Target] = None):
        self.method, self.target = method, target
        self.structure = self.flows = self.arrivals = None
        self.starts = [None, None]  # at most two recursions (2s)

    def fit(self, net: Network):
        """``(structure, flows)`` for ``net``, prepared or bound again only as the class says."""
        held = self.structure
        if held is None or (held.num_servers, held.paths) != (net.num_servers, _paths(net)):
            self.structure = _prepare(net, self.method, target=self.target)
            self.starts, self.arrivals = [None, None], None
        now = [(f.arrival.rate, f.arrival.burst) for f in net.flows]
        if now != self.arrivals:
            self.flows, self.arrivals = self.structure.bind(_flow_numbers(net)), now
        return self.structure, self.flows


def critical_utilization(family: Callable[[float], Network], method: str) -> float:
    """
    Largest utilization at which ``family(U)`` stays stable for ``method``,
    located by bisection (the families scale every service rate like
    ``1/U``, so stability is monotone in ``U``).

    Returns ``U_MAX`` (1) when stable on the whole range and ``0.0`` when
    already unstable at ``U_MIN`` (``1e-3``).  The bracket stops at width
    ``CRITICAL_TOL`` (``1e-4``).

    The points are visited in this order.  ``U_MAX`` first: it is the
    one-step exit for a family stable on the whole range, and cheap on the
    rings, which are locally unstable at ``U = 1``.  Then the midpoints of
    ``[U_MIN, U_MAX]``, 14 of them.  ``U_MIN`` is tested last, and only when
    every midpoint was unstable, so that the bracket's low end is still
    ``U_MIN``: the search returns ``0.0`` if ``family(U_MIN)`` is unstable,
    else the midpoint of the final bracket.  For a monotone family this is
    the answer of testing ``U_MIN`` second, and when ``U*`` is interior
    (stable at ``U_MIN``, as every family of the benchmark and of the
    acceptance tests is) one family call and one decision fewer: 15 in all.
    A family unstable at ``U_MIN`` pays the whole search, 14 steps more
    than testing ``U_MIN`` second would.

    The rate-free structure of the recursions (the sd pair layout, or the
    decomposition with its forest, column layouts and row layout) is prepared
    from ``family(U_MAX)`` and bound to every ``family(U)`` the bisection
    visits.  ``family`` is arbitrary code, so each step first checks that
    ``family(U)`` is a :class:`Network`, else raising :class:`ValidationError`,
    with the held structure's server count and flow paths, and prepares a
    new structure when it has not (:class:`_Held`).

    Beside the structure the bisection holds the flow half of the numbers
    bound to it, so a step reads only its servers' numbers, and the
    coefficient pass keeps its rate-only grid from step to step
    (:meth:`~netcalc.tree_analysis._RowLayout.run`).  The flow half is
    bound again at every step whose arrivals differ from the held ones,
    and whenever a new structure is prepared.

    The decisions are warm-started.  Next to the structure the bisection
    holds one positive vector per recursion of the method; each decision
    starts its Collatz-Wielandt bracket from it and leaves its final
    vector there (the last bracket iterate, or the exact test's one-signed
    solution, which near ``rho = 1`` is close to the Perron vector).  The
    ``M`` of two steps differ only through rescaled service rates, so the
    previous step's vector is a far better start than the all-ones one.
    ``min(M x / x) <= rho(M) <= max(M x / x)`` holds for every positive
    ``x``, so this changes the number of steps, never a verdict's
    certificate.  The vectors are dropped whenever a new structure is
    prepared.
    """
    method = _method(method)
    held = _Held(method)

    def stable(u: float) -> bool:
        net = family(u)
        if not isinstance(net, Network):
            raise ValidationError("family(%r) returned %s, not a Network" % (u, type(net).__name__))
        structure, flows = held.fit(net)
        return _stable(net, method, structure=structure, starts=held.starts, flows=flows)

    if stable(U_MAX):
        return U_MAX
    lo, hi = U_MIN, U_MAX
    while hi - lo > CRITICAL_TOL:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    if lo == U_MIN and not stable(U_MIN):
        return 0.0
    return 0.5 * (lo + hi)
