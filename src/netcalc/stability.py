#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Stability and performance bounds for networks with cyclic dependencies.

The unknown bursts created by a feed-forward decomposition satisfy a
componentwise linear recursion ``b <= M b + N`` with nonnegative
coefficients; a spectral radius of ``M`` strictly below one certifies
global stability and yields the greatest fixed point, from which backlog
and delay bounds are read as linear forms.

Every stability decision (``rho_below``) runs at most ``L`` steps of a
Collatz-Wielandt bracket, ``L`` being the number of variables, then one
exact M-matrix test: ``(theta I - M) x = 1`` solved once, with a positive
``x`` and a positive residual ``theta x - M x`` as the certificate.
``analyze`` takes its verdict from these decisions alone: the fixed-point
test at ``1 - 1e-9``, and for a diverging recursion one more test at
``1 + 1e-9`` that tells ``critical`` from ``unstable``.  The exact
spectral radius (``spectral_radius``) is computed only when a report's
``rho`` is read, and cached.

Three constructions of ``(M, N)`` are provided: per-server decomposition
(``sd``), tree decomposition (``td``) and grouping of the flows crossing
each removed arc (``ag``), plus the two-stage combination (``2s``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .curves import Bound, UNBOUNDED
from .decomposition import (
    ArcGroups,
    FFNetwork,
    decompose,
    group_by_arc,
    removal_tree,
)
from .errors import (
    LocallyUnstableError,
    UnsupportedTargetError,
    ValidationError,
)
from .network import Arc, LocalStability, Network, local_stability
from .tree_analysis import _Forest, _prepare_forest

#: Margin below 1 required of the spectral radius to declare stability.
STABILITY_EPS = 1e-9

#: Absolute accuracy of :func:`spectral_radius`.
RHO_TOL = 1e-9

#: Diagonal shift of the power iteration, which keeps its iterate positive.
POWER_SHIFT = 1e-6


@dataclass(frozen=True)
class LinearRecursion:
    """
    The componentwise recursion ``b <= M b + N`` over labelled variables.

    Labels are ``(flow, segment)`` pairs for the sd/td constructions and
    removed arcs for ag; mixed recursions list the individual continuations
    first, then the grouped arcs.
    """

    labels: Tuple
    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.M, dtype=float)
        n = np.asarray(self.N, dtype=float)
        L = len(self.labels)
        if m.shape != (L, L) or n.shape != (L,):
            raise ValidationError("inconsistent recursion dimensions")
        if L:
            # NaN propagates through min and max, so the extremes decide both
            extremes = (m.min(), m.max(), n.min(), n.max())
            if not all(math.isfinite(v) for v in extremes):
                raise ValidationError("recursion entries must be finite")
            if min(extremes) < 0:
                raise ValidationError("recursion entries must be nonnegative")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "N", n)

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ObjectiveForm:
    """A performance bound as the linear form ``Q . b + C`` over variables."""

    Q: np.ndarray
    C: float
    description: str = ""


@dataclass(frozen=True)
class Target:
    """What to bound: a group backlog at a server, or a flow's delay."""

    kind: str
    server: Optional[int] = None
    flows: FrozenSet[int] = frozenset()
    flow: Optional[int] = None

    @staticmethod
    def backlog(server: int, flows: Iterable[int]) -> "Target":
        return Target("backlog", server=server, flows=frozenset(flows))

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
    radius lies below ``1 + 1e-9`` (one more ``rho_below`` test), else
    ``unstable``.  ``rho``, the exact spectral radius (the smallest over
    the recursions, ``inf`` on local instability), is computed on first
    read and cached; it decides nothing.
    """

    method: str
    stable: bool
    fixed_point: Optional[np.ndarray]
    bound: Optional[Bound]
    labels: Tuple = ()
    objective: Optional[ObjectiveForm] = None
    recursions: Tuple[LinearRecursion, ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def rho(self) -> float:
        return min((spectral_radius(lr.M) for lr in self.recursions), default=math.inf)

    @cached_property
    def verdict(self) -> str:
        if self.stable:
            return "stable"
        if any(rho_below(lr.M, 1.0 + STABILITY_EPS) for lr in self.recursions):
            return "critical"
        return "unstable"


def spectral_radius(M: np.ndarray, max_iter: Optional[int] = None) -> float:
    """
    Spectral radius of a nonnegative matrix, via power iteration on the
    shifted matrix ``M + 1e-6 I`` (``POWER_SHIFT``) started from the
    all-ones vector.

    The iterate stays positive thanks to the shift, so the min/max ratios
    of consecutive iterates bracket the radius (Collatz-Wielandt);
    iteration stops when the bracket closes to the fixed absolute
    tolerance ``1e-9`` (``RHO_TOL``).  Near-periodic matrices (a cycle of
    coefficients) close their bracket only at a ``1/POWER_SHIFT`` pace, so
    the bracket gets at most ``max_iter`` steps (default: the matrix size
    ``L``, as much work as one dense routine) and then the exact
    eigenvalue routine takes over; either way the result is accurate to
    ``1e-9``.

    >>> spectral_radius(np.array([[0.0, 0.5], [0.5, 0.0]]))
    0.5
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("matrix must be square")
    if M.size == 0:
        return 0.0
    if not np.isfinite(M).all():
        raise ValidationError("matrix entries must be finite")
    if M.min() < 0:
        raise ValidationError("matrix entries must be nonnegative")
    for lo, hi in _brackets(M, max_iter):
        if hi - lo <= RHO_TOL:
            return 0.5 * (lo + hi)
    return float(max(abs(np.linalg.eigvals(M))))


def _brackets(M: np.ndarray, max_iter: Optional[int]):
    """
    Collatz-Wielandt brackets ``(lo, hi)`` of ``rho(M)``, from power
    iteration on ``M + POWER_SHIFT I`` started from the all-ones vector: at
    most ``max_iter`` of them, the matrix size ``L`` by default.
    """
    x = np.ones(M.shape[0])
    for _ in range(M.shape[0] if max_iter is None else max_iter):
        y = M @ x + POWER_SHIFT * x
        ratios = y / x
        yield float(ratios.min()) - POWER_SHIFT, float(ratios.max()) - POWER_SHIFT
        x = np.maximum(y / y.max(), 1e-250)  # floor out underflow to keep x > 0


def _shifted(M: np.ndarray, theta: float) -> np.ndarray:
    """``theta I - M`` in one allocation: a negated copy, then the diagonal."""
    A = np.negative(M)
    A.flat[:: A.shape[0] + 1] += theta
    return A


def rho_below(M: np.ndarray, threshold: float, max_iter: Optional[int] = None) -> bool:
    """
    Decide ``spectral_radius(M) < threshold``.  The Collatz-Wielandt
    bracket usually separates from the threshold long before it closes,
    so it runs first, for at most ``max_iter`` steps (default: the matrix
    size ``L``).  If it is still undecided, one exact M-matrix test settles
    it: ``rho(M) < threshold`` exactly when ``threshold I - M`` is a
    nonsingular M-matrix, i.e. when ``(threshold I - M) x = 1`` has a
    positive solution.  The answer is yes only if the solved ``x`` is
    positive and the residual ``threshold x - M x``, recomputed directly,
    is positive too: ``x`` is then a certificate ``M x < threshold x``.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return threshold > 0
    for lo, hi in _brackets(M, max_iter):
        if lo >= threshold:
            return False
        if hi < threshold:
            return True
    try:
        x = np.linalg.solve(_shifted(M, threshold), np.ones(M.shape[0]))
    except np.linalg.LinAlgError:  # singular: threshold is an eigenvalue
        return False
    return bool(x.min() > 0 and (threshold * x - M @ x).min() > 0)


def solve_recursion(lr: LinearRecursion) -> Optional[np.ndarray]:
    """
    Greatest fixed point of ``b <= M b + N``: the solution of
    ``(I - M) b = N`` when the spectral radius is strictly below one,
    ``None`` (no finite fixed point) otherwise.

    >>> lr = LinearRecursion(("x",), np.array([[0.5]]), np.array([1.0]))
    >>> solve_recursion(lr)
    array([2.])
    """
    if lr.size == 0:
        return np.zeros(0)
    if not rho_below(lr.M, 1.0 - STABILITY_EPS):
        return None
    solution = np.linalg.solve(_shifted(lr.M, 1.0), lr.N)
    if solution.min() < -1e-9 * max(1.0, float(np.abs(solution).max())):
        raise ValidationError("fixed point came out negative; ill-conditioned system")
    return np.maximum(solution, 0.0)


def _require_local_stability(net: Network) -> LocalStability:
    report = local_stability(net)
    if not report.stable:
        raise LocallyUnstableError(
            "servers %r are not strictly stable" % report.unstable_servers()
        )
    return report


def sd_labels(net: Network) -> Tuple[Tuple[int, int], ...]:
    """Variables of the per-server recursion: each flow's hops past the first."""
    return tuple(
        (i, k) for i, f in enumerate(net.flows) for k in range(1, len(f.path))
    )


def _sd_hops(net: Network) -> Tuple[np.ndarray, ...]:
    """
    Every hop of every flow, in flow order, as arrays ``(flow, pos, server,
    var)``: hop ``pos`` of ``flow`` crosses ``server``, and the burst
    entering it is the sd variable ``var = offset[flow] + pos - 1`` (from
    ``pos = 1`` on).  ``offset[i]``, the number of variables of the flows
    before ``i``, is ``first[i] - i`` for the index ``first[i]`` of flow
    ``i``'s first hop, so ``var`` is the hop's index less ``flow + 1``.
    """
    paths = [f.path for f in net.flows]
    length = np.fromiter(map(len, paths), np.intp, len(paths))
    server = np.fromiter(chain.from_iterable(paths), np.intp, int(length.sum()))
    flow = np.repeat(np.arange(len(paths)), length)
    hop = np.arange(len(server))
    first = np.cumsum(length) - length
    return flow, hop - first[flow], server, hop - flow - 1


def build_sd(net: Network) -> LinearRecursion:
    """
    Per-server burst recursion: the burst of flow ``i`` entering its hop
    ``k+1`` grows from hop ``k`` by the server's deconvolution residue,

    .. math:: b_{i,k+1} \\le b_{i,k}
        + \\frac{r_i}{R_j - \\sum_{p \\ne i} r_p}
          \\Big(\\sum_{s \\ne (i,k)} b_s + R_j T_j\\Big),

    over all other hops ``s`` present at server ``j``.  First-hop bursts
    are known and folded into the constant vector.

    Built from hop arrays with no per-pair Python work.  Server loads are a
    ``bincount`` in flow order.  Every pair (row, hop at the row's server)
    is enumerated at once, weighted ``1`` for the row's own hop ``k`` and
    the gain for the others.  ``M`` takes one scatter: paths never revisit
    a server, so each cell is written at most once.  ``N`` is a sequential
    sum over a zero-padded term row: the row's own first-hop burst, then
    ``gain * b`` of every other first hop at the server in flow order,
    then ``gain * R_j * T_j``.  That is the order of the pairwise loop this
    replaces (``tests/sd_reference.py``), so ``(M, N)`` equal it bit for bit.
    """
    _require_local_stability(net)
    return LinearRecursion(sd_labels(net), *_sd_coefficients(net))


def _sd_coefficients(net: Network) -> Tuple[np.ndarray, np.ndarray]:
    """
    ``(M, N)`` of :func:`build_sd`, in a function of its own so that the
    pair arrays are freed before :class:`LinearRecursion` checks ``M``.
    """
    flow, pos, server, var = _sd_hops(net)
    n = net.num_servers
    rate = np.array([f.arrival.rate for f in net.flows], dtype=float)
    burst = np.array([f.arrival.burst for f in net.flows], dtype=float)
    R = np.array([s.rate for s in net.servers], dtype=float)
    T = np.array([s.latency for s in net.servers], dtype=float)
    load = np.bincount(server, rate[flow], n)
    # row r, the variable (i, k), is fed by hop (i, k - 1): every hop but the last
    feed = np.flatnonzero(flow[1:] == flow[:-1])
    L = len(feed)
    i, j = flow[feed], server[feed]
    margin = R[j] - (load[j] - rate[i])
    bad = margin <= 0
    if bad.any():  # the first failing row, as the pairwise loop reports it
        r = bad.argmax()
        raise LocallyUnstableError("server %d has no residual rate for flow %d" % (j[r], i[r]))
    gain = rate[i] / margin
    # pairs (row, peer), peer running over the hops at the row's server in flow order
    by_server = np.argsort(server, kind="stable")
    count = np.bincount(server, minlength=n)
    start = np.cumsum(count) - count  # each server's first hop in by_server
    size = count[j]
    block = np.cumsum(size) - size  # each row's first pair
    row = np.repeat(np.arange(L), size)
    peer = by_server[np.arange(len(row)) - np.repeat(block - start[j], size)]
    own = peer == feed[row]
    weight = np.where(own, 1.0, gain[row])
    later = pos[peer] >= 1
    M = np.zeros((L, L))
    M[row[later], var[peer[later]]] = weight[later]
    # first-hop pairs: the row's own in column 0, the others from column 1 in flow order
    entry = ~later
    known = np.flatnonzero(entry)
    before = np.cumsum(entry) - entry  # first-hop pairs ahead of each pair
    known_row = row[known]
    column = np.where(own[known], 0, 1 + before[known] - before[block[known_row]])
    terms = np.zeros((L, column.max(initial=0) + 2))
    terms[known_row, column] = weight[known] * burst[flow[peer[known]]]
    terms[:, -1] = gain * R[j] * T[j]
    return M, np.cumsum(terms, axis=1)[:, -1]


@dataclass(frozen=True)
class DecompositionContext:
    """
    A feed-forward decomposition with the pieces the builders share.  Its
    forest is checked and prepared once; each upstream view is sliced from
    it on first use.
    """

    ff: FFNetwork
    groups: ArcGroups
    prepared: _Forest
    views: Dict[int, object] = field(default_factory=dict, compare=False)

    def view(self, j1: int):
        if j1 not in self.views:
            self.views[j1] = self.prepared.view(j1)
        return self.views[j1]


def _context(
    net: Network, removed, stability: Optional[LocalStability] = None
) -> DecompositionContext:
    """
    Decompose ``net`` and prepare its forest, which checks that the
    removal leaves each server one successor.  The forest's classes are
    ``net``'s (``stability``, when the caller has it already): it has the
    same servers and, server by server, the same rates added in the same
    order.
    """
    if stability is None:
        stability = local_stability(net)
    ff = decompose(net, removed)
    prepared = _prepare_forest(ff.as_network(), stability.per_server)
    return DecompositionContext(ff, group_by_arc(ff), prepared)


def td_labels(ff: FFNetwork) -> Tuple[Tuple[int, int], ...]:
    """Variables of the tree recursion: the continuation segments."""
    return tuple(sf.label for sf in ff.split_flows if sf.segment >= 1)


def ag_labels(removed) -> Tuple[Arc, ...]:
    """Variables of the arc-grouping recursion: the removed arcs."""
    return tuple(sorted(removed))


class _Columns:
    """
    Column layout of a mixed recursion: one column per continuation of an
    ungrouped arc, then one per grouped arc.  :meth:`assemble` turns
    backlog linear forms into rows over these columns.
    """

    def __init__(self, ctx: DecompositionContext, grouped):
        ff = ctx.ff
        grouped = frozenset(grouped)
        self.singles = tuple(
            lab for lab in td_labels(ff) if ctx.groups.arc_of[ff.index_of(lab)] not in grouped
        )
        self.arcs = tuple(sorted(grouped))
        self.labels = self.singles + self.arcs
        self.single_src = np.array([ff.index_of(lab) for lab in self.singles], dtype=np.intp)
        conts = [(len(self.singles) + c, sorted(ctx.groups.continuations[arc]))
                 for c, arc in enumerate(self.arcs) if ctx.groups.continuations[arc]]
        self.arc_cols = np.array([col for col, _ in conts], dtype=np.intp)
        self.arc_src = np.array([s for _, members in conts for s in members], dtype=np.intp)
        self.arc_starts = np.cumsum([0] + [len(members) for _, members in conts[:-1]])
        known = [s for s, sf in enumerate(ff.split_flows) if sf.burst_known]
        self.known = np.array(known, dtype=np.intp)
        self.known_burst = np.array(
            [ff.base.flows[ff.split_flows[s].origin].arrival.burst for s in known]
        )
        self.latency = np.array([beta.latency for beta in ff.base.servers])

    def __len__(self):
        return len(self.labels)

    def assemble(self, phi: np.ndarray, rho: np.ndarray):
        """
        Rows ``(coefficients, constants)`` from burst weights ``phi`` over
        split flows and latency weights ``rho`` over servers, one row per
        backlog form: continuations of ungrouped arcs keep their own weight,
        each grouped arc takes the largest weight among its continuations,
        and the constant adds the known bursts in flow order, then the
        latency terms in server order.
        """
        coeffs = np.zeros((len(phi), len(self)))
        coeffs[:, : len(self.singles)] = phi[:, self.single_src]
        if len(self.arc_cols):
            coeffs[:, self.arc_cols] = np.maximum.reduceat(
                phi[:, self.arc_src], self.arc_starts, axis=1
            )
        terms = np.concatenate((phi[:, self.known] * self.known_burst, rho * self.latency), axis=1)
        return coeffs, np.cumsum(terms, axis=1)[:, -1]


def _build_grouped(ctx: DecompositionContext, grouped) -> LinearRecursion:
    """
    Each row is one backlog form: a continuation's parent segment at its
    end, or a grouped arc's feeding segments at its tail.  The rows of one
    upstream view come from one array pass.
    """
    ff = ctx.ff
    cols = _Columns(ctx, grouped)
    requests = []
    for i, k in cols.singles:
        prev = ff.index_of((i, k - 1))
        requests.append((ff.split_flows[prev].path[-1], [prev]))
    requests += [(arc[0], ctx.groups.feeding[arc]) for arc in cols.arcs]
    by_view: Dict[int, List[int]] = {}
    for row, (j1, interest) in enumerate(requests):
        if interest:  # an arc nothing feeds keeps a zero row
            by_view.setdefault(j1, []).append(row)
    L = len(cols)
    M = np.zeros((L, L))
    N = np.zeros(L)
    for j1, rows in by_view.items():
        phi, rho, _ = ctx.view(j1).coefficient_rows([requests[r][1] for r in rows])
        M[rows], N[rows] = cols.assemble(phi, rho)
    return LinearRecursion(cols.labels, M, N)


def build_td(net: Network, removed) -> LinearRecursion:
    """
    Tree-decomposition recursion: each continuation burst is the tight
    worst-case backlog of its parent segment at the removed arc's tail,
    expressed as a linear form over all segment bursts.
    """
    return _build_grouped(_context(net, removed, _require_local_stability(net)), ())


def build_ag(net: Network, removed) -> LinearRecursion:
    """
    Arc-grouping recursion: one unknown per removed arc, the worst-case
    backlog of all the segments feeding it; the coefficient toward another
    arc is the largest burst weight among that arc's continuations.
    """
    ctx = _context(net, removed, _require_local_stability(net))
    return _build_grouped(ctx, ctx.ff.removed)


def build_grouped(net: Network, removed, grouped_arcs) -> LinearRecursion:
    """
    Mixed recursion: the removed arcs in ``grouped_arcs`` contribute one
    aggregated unknown each, all other continuations stay individual.
    Specializes to the tree recursion with no grouped arcs and to the
    arc-grouping recursion with all of them.
    """
    ctx = _context(net, removed, _require_local_stability(net))
    grouped = frozenset(grouped_arcs)
    extra = grouped - ctx.ff.removed
    if extra:
        raise ValidationError("grouped arcs not in the removal: %r" % sorted(extra))
    return _build_grouped(ctx, grouped)


def _segments_containing(ff: FFNetwork, flow: int, server: int) -> int:
    for s, sf in enumerate(ff.split_flows):
        if sf.origin == flow and server in sf.path:
            return s
    raise UnsupportedTargetError(
        "flow %d does not cross server %d" % (flow, server)
    )


def _objective_sd(net: Network, target: Target) -> ObjectiveForm:
    if target.kind != "backlog":
        raise UnsupportedTargetError(
            "delay targets are not supported by the per-server decomposition"
        )
    j = target.server
    flow, pos, server, var = _sd_hops(net)
    Q = np.zeros(len(server) - net.num_flows)  # one variable per hop past the first
    beta = net.servers[j]
    at = np.flatnonzero(server == j)  # one hop per flow crossing j, in flow order
    hops = list(zip(flow[at].tolist(), pos[at].tolist(), var[at].tolist()))
    interest = [hop for hop in hops if hop[0] in target.flows]
    if len(interest) != len(target.flows):
        raise UnsupportedTargetError("some target flows do not cross the server")
    cross = [hop for hop in hops if hop[0] not in target.flows]
    r_int = sum(net.flows[i].arrival.rate for i, _, _ in interest)
    r_cross = sum(net.flows[i].arrival.rate for i, _, _ in cross)
    if r_int + r_cross >= beta.rate:
        raise LocallyUnstableError("server %d has no strict rate margin" % j)
    gain = r_int / (beta.rate - r_cross)
    C = gain * r_cross * beta.latency + r_int * beta.latency
    for i, k, v in interest:
        if k >= 1:
            Q[v] += 1.0
        else:
            C += net.flows[i].arrival.burst
    for i, k, v in cross:
        if k >= 1:
            Q[v] += gain
        else:
            C += gain * net.flows[i].arrival.burst
    return ObjectiveForm(Q, C, "backlog of flows %s at server %d" % (sorted(target.flows), j))


def _objective_tree(ctx: DecompositionContext, target: Target, arcs: bool) -> ObjectiveForm:
    ff = ctx.ff
    if target.kind == "backlog":
        j = target.server
        interest = [_segments_containing(ff, i, j) for i in sorted(target.flows)]
        phi, rho, _ = ctx.view(j).coefficient_rows([interest])
        description = "backlog of flows %s at server %d" % (sorted(target.flows), j)
        scale, extra = 1.0, 0.0
    else:
        i = target.flow
        flow = ff.base.flows[i]
        if flow.arrival.rate == 0:
            raise UnsupportedTargetError("delay of a zero-rate flow is undefined")
        seg = _segments_containing(ff, i, flow.path[0])
        if ff.split_flows[seg].path != flow.path:
            raise UnsupportedTargetError(
                "flow %d is split by the decomposition; its end-to-end delay "
                "is not a single tree analysis" % i
            )
        phi, rho, xi_root = ctx.view(flow.path[-1]).coefficient_rows([[seg]])
        xi_entry = xi_root[0, flow.path[0]]
        # delay transform: (B - b)/r + xi b / r
        scale = 1.0 / flow.arrival.rate
        extra = (xi_entry - 1.0) * flow.arrival.burst
        description = "delay of flow %d" % i
    cols = _Columns(ctx, frozenset(ff.removed) if arcs else frozenset())
    coeffs, constant = cols.assemble(phi, rho)
    return ObjectiveForm(coeffs[0] * scale, float((constant[0] + extra) * scale), description)


def _objective(net: Network, ctx, target: Target, method: str) -> ObjectiveForm:
    if target.kind == "backlog":
        if target.server is None or not target.flows:
            raise UnsupportedTargetError("backlog target needs a server and flows")
    elif target.kind != "delay":
        raise UnsupportedTargetError("unknown target kind %r" % target.kind)
    if method == "sd":
        return _objective_sd(net, target)
    return _objective_tree(ctx, target, arcs=(method == "ag"))


def objective_for(net: Network, target: Target, method: str, removed=None) -> ObjectiveForm:
    """
    The requested performance expressed as ``Q . b + C`` over the variables
    of the given method's recursion.
    """
    method = method.lower()
    if method not in ("sd", "td", "ag", "2s"):
        raise ValidationError("unknown method %r" % method)
    ctx = None
    if method != "sd":
        ctx = _context(net, removal_tree(net) if removed is None else removed)
    return _objective(net, ctx, target, method)


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


def _two_stage(ctx: DecompositionContext, obj: ObjectiveForm, b_star, big_b) -> Bound:
    """
    The two-stage bound from the tree objective ``obj`` and the tree and
    arc fixed points (``None`` where that recursion diverges).

    The groups are disjoint and each is constrained by a box and a single
    sum, so a per-group greedy allocation in decreasing coefficient order
    is exact.  When only one recursion is stable its constraints alone
    apply; when neither is, the bound is unbounded.
    """
    if b_star is None and big_b is None:
        return UNBOUNDED
    index = {lab: pos for pos, lab in enumerate(td_labels(ctx.ff))}
    value = obj.C
    for pos, arc in enumerate(ag_labels(ctx.ff.removed)):
        budget = math.inf if big_b is None else float(big_b[pos])
        members = [index[ctx.ff.split_flows[s].label] for s in ctx.groups.continuations[arc]]
        for var in sorted(members, key=lambda v: (-obj.Q[v], v)):
            if budget <= 0 or obj.Q[var] <= 0:
                break
            take = min(budget, math.inf if b_star is None else float(b_star[var]))
            value += float(obj.Q[var]) * take
            budget -= take
    return Bound(float(value))


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
    to an unstable report with ``rho = inf``.
    """
    method = method.lower()
    try:
        ctx, recursions = _method_recursions(net, method, removed)
    except LocallyUnstableError:
        return StabilityReport(
            method, False, None, UNBOUNDED if target is not None else None
        )
    fixed_points = [solve_recursion(lr) for lr in recursions]
    fixed = next((fp for fp in fixed_points if fp is not None), None)
    bound = objective = None
    if target is not None:
        obj = _objective(net, ctx, target, method)
        if method == "2s":
            bound = _two_stage(ctx, obj, *fixed_points)
        else:
            bound, objective = _bound_at(obj, fixed), obj
    return StabilityReport(
        method, fixed is not None, fixed, bound, recursions[0].labels, objective,
        tuple(recursions),
    )


def _method_recursions(net: Network, method: str, removed):
    """The method's recursions and the decomposition they share (``None`` for sd)."""
    if method == "sd":
        return None, [build_sd(net)]
    if method not in ("td", "ag", "2s"):
        raise ValidationError("unknown method %r" % method)
    report = _require_local_stability(net)
    ctx = _context(net, removal_tree(net) if removed is None else removed, report)
    groupings = {"td": [()], "ag": [ctx.ff.removed], "2s": [(), ctx.ff.removed]}[method]
    return ctx, [_build_grouped(ctx, grouped) for grouped in groupings]


def is_stable(net: Network, method: str, removed=None) -> bool:
    """Stability verdict of one method (unstable on local instability)."""
    try:
        _, recursions = _method_recursions(net, method.lower(), removed)
    except LocallyUnstableError:
        return False
    return any(rho_below(lr.M, 1.0 - STABILITY_EPS) for lr in recursions)


def critical_utilization(
    family: Callable[[float], Network],
    method: str,
    tol: float = 1e-4,
    u_min: float = 1e-3,
    u_max: float = 1.0,
) -> float:
    """
    Largest utilization at which ``family(U)`` stays stable for ``method``,
    located by bisection (the families scale every service rate like
    ``1/U``, so stability is monotone in ``U``).

    Returns ``u_max`` when stable on the whole range and ``0.0`` when
    already unstable at ``u_min``.  The bracket stops at width ``tol``
    (finite and > 0), or earlier when its ends are adjacent floats.
    """
    if not (0 < u_min < u_max <= 1.0):
        raise ValidationError("need 0 < u_min < u_max <= 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError("need a finite tol > 0, got %r" % tol)
    if is_stable(family(u_max), method):
        return u_max
    if not is_stable(family(u_min), method):
        return 0.0
    lo, hi = u_min, u_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        if is_stable(family(mid), method):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
