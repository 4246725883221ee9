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

Three constructions of ``(M, N)`` are provided: per-server decomposition
(``sd``), tree decomposition (``td``) and grouping of the flows crossing
each removed arc (``ag``), plus the two-stage combination (``2s``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    NotAForestError,
    UnsupportedTargetError,
    ValidationError,
)
from .network import Arc, LocalStability, Network, induced_graph, local_stability
from .tree_analysis import _Forest, _prepare_forest

#: Margin below 1 required of the spectral radius to declare stability.
STABILITY_EPS = 1e-9


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
        if L and (not np.isfinite(m).all() or not np.isfinite(n).all()):
            raise ValidationError("recursion entries must be finite")
        if L and (m.min() < 0 or n.min() < 0):
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
    without a target and on local instability).
    """

    method: str
    rho: float
    stable: bool
    fixed_point: Optional[np.ndarray]
    bound: Optional[Bound]
    labels: Tuple = ()
    objective: Optional[ObjectiveForm] = None

    @property
    def verdict(self) -> str:
        if abs(self.rho - 1.0) <= STABILITY_EPS:
            return "critical"
        return "stable" if self.stable else "unstable"


def spectral_radius(
    M: np.ndarray,
    tol: float = 1e-9,
    shift: float = 1e-6,
    max_iter: Optional[int] = None,
) -> float:
    """
    Spectral radius of a nonnegative matrix, via power iteration on the
    shifted matrix ``M + shift I`` started from the all-ones vector.

    The iterate stays positive thanks to the shift, so the min/max ratios
    of consecutive iterates bracket the radius (Collatz-Wielandt);
    iteration stops when the bracket closes to ``tol``.  Near-periodic
    matrices (a cycle of coefficients) close their bracket only at a
    ``1/shift`` pace, so the bracket gets at most ``max_iter`` steps
    (default: the matrix size ``L``, as much work as one dense routine)
    and then the exact eigenvalue routine takes over; either way the
    result carries the requested absolute accuracy.

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
    for lo, hi in _brackets(M, shift, max_iter):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    return float(max(abs(np.linalg.eigvals(M))))


def _brackets(M: np.ndarray, shift: float, max_iter: Optional[int]):
    """
    Collatz-Wielandt brackets ``(lo, hi)`` of ``rho(M)``, from power
    iteration on ``M + shift I`` started from the all-ones vector: at most
    ``max_iter`` of them, the matrix size ``L`` by default.
    """
    x = np.ones(M.shape[0])
    for _ in range(M.shape[0] if max_iter is None else max_iter):
        y = M @ x + shift * x
        ratios = y / x
        yield float(ratios.min()) - shift, float(ratios.max()) - shift
        x = np.maximum(y / y.max(), 1e-250)  # floor out underflow to keep x > 0


def _shifted(M: np.ndarray, theta: float) -> np.ndarray:
    """``theta I - M`` in one allocation: a negated copy, then the diagonal."""
    A = np.negative(M)
    A.flat[:: A.shape[0] + 1] += theta
    return A


def rho_below(
    M: np.ndarray,
    threshold: float,
    shift: float = 1e-6,
    max_iter: Optional[int] = None,
) -> bool:
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
    for lo, hi in _brackets(M, shift, max_iter):
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


def build_sd(net: Network) -> LinearRecursion:
    """
    Per-server burst recursion: the burst of flow ``i`` entering its hop
    ``k+1`` grows from hop ``k`` by the server's deconvolution residue,

    .. math:: b_{i,k+1} \\le b_{i,k}
        + \\frac{r_i}{R_j - \\sum_{p \\ne i} r_p}
          \\Big(\\sum_{s \\ne (i,k)} b_s + R_j T_j\\Big),

    over all other hops ``s`` present at server ``j``.  First-hop bursts
    are known and folded into the constant vector.
    """
    _require_local_stability(net)
    labels = sd_labels(net)
    index = {lab: pos for pos, lab in enumerate(labels)}
    L = len(labels)
    M = np.zeros((L, L))
    N = np.zeros(L)
    hops_at: List[List[Tuple[int, int]]] = [[] for _ in range(net.num_servers)]
    rate_at = [0.0] * net.num_servers
    for i, f in enumerate(net.flows):
        for k, j in enumerate(f.path):
            hops_at[j].append((i, k))
            rate_at[j] += f.arrival.rate
    for i, f in enumerate(net.flows):
        r_i = f.arrival.rate
        for k in range(1, len(f.path)):
            row = index[(i, k)]
            j = f.path[k - 1]
            beta = net.servers[j]
            margin = beta.rate - (rate_at[j] - r_i)
            if margin <= 0:
                raise LocallyUnstableError(
                    "server %d has no residual rate for flow %d" % (j, i)
                )
            gain = r_i / margin
            # burst entering hop k equals the backlog bound of hop k-1 at j
            if k - 1 >= 1:
                M[row, index[(i, k - 1)]] += 1.0
            else:
                N[row] += f.arrival.burst
            for p, q in hops_at[j]:
                if (p, q) == (i, k - 1):
                    continue
                if q >= 1:
                    M[row, index[(p, q)]] += gain
                else:
                    N[row] += gain * net.flows[p].arrival.burst
            N[row] += gain * beta.rate * beta.latency
    return LinearRecursion(labels, M, N)


@dataclass(frozen=True)
class DecompositionContext:
    """
    A feed-forward decomposition with the pieces the builders share.  Its
    forest is checked and prepared once; each upstream view is sliced from
    it on first use.
    """

    ff: FFNetwork
    forest: Network
    groups: ArcGroups
    arc_of: Dict[int, Arc]  # continuation split id -> its boundary arc
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
    Decompose ``net`` and prepare its forest.  The forest's classes are
    ``net``'s (``stability``, when the caller has it already): it has the
    same servers and, server by server, the same rates added in the same
    order.
    """
    if stability is None:
        stability = local_stability(net)
    ff = decompose(net, removed)
    forest = ff.as_network()
    out_degree: Dict[int, int] = {}
    for u, _ in induced_graph(forest):
        out_degree[u] = out_degree.get(u, 0) + 1
        if out_degree[u] > 1:
            raise NotAForestError(
                "removal leaves server %d with several successors" % u
            )
    groups = group_by_arc(ff)
    arc_of = {s: arc for arc, conts in groups.continuations.items() for s in conts}
    return DecompositionContext(
        ff, forest, groups, arc_of, _prepare_forest(forest, stability.per_server)
    )


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
            lab for lab in td_labels(ff) if ctx.arc_of[ff.index_of(lab)] not in grouped
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
    return _build_td(_context(net, removed, _require_local_stability(net)))


def _build_td(ctx: DecompositionContext) -> LinearRecursion:
    return _build_grouped(ctx, frozenset())


def build_ag(net: Network, removed) -> LinearRecursion:
    """
    Arc-grouping recursion: one unknown per removed arc, the worst-case
    backlog of all the segments feeding it; the coefficient toward another
    arc is the largest burst weight among that arc's continuations.
    """
    return _build_ag(_context(net, removed, _require_local_stability(net)))


def _build_ag(ctx: DecompositionContext) -> LinearRecursion:
    return _build_grouped(ctx, frozenset(ctx.ff.removed))


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
    labels = sd_labels(net)
    index = {lab: pos for pos, lab in enumerate(labels)}
    Q = np.zeros(len(labels))
    beta = net.servers[j]
    hops = []
    for i, f in enumerate(net.flows):
        if j in f.path:
            hops.append((i, f.path.index(j)))
    interest = [(i, k) for (i, k) in hops if i in target.flows]
    if len(interest) != len(target.flows):
        raise UnsupportedTargetError("some target flows do not cross the server")
    cross = [(i, k) for (i, k) in hops if i not in target.flows]
    r_int = sum(net.flows[i].arrival.rate for i, _ in interest)
    r_cross = sum(net.flows[i].arrival.rate for i, _ in cross)
    if r_int + r_cross >= beta.rate:
        raise LocallyUnstableError("server %d has no strict rate margin" % j)
    gain = r_int / (beta.rate - r_cross)
    C = gain * r_cross * beta.latency + r_int * beta.latency
    for i, k in interest:
        if k >= 1:
            Q[index[(i, k)]] += 1.0
        else:
            C += net.flows[i].arrival.burst
    for i, k in cross:
        if k >= 1:
            Q[index[(i, k)]] += gain
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
    stay below the arc fixed point.
    """
    ctx, recursions = _method_recursions(net, "2s", removed)
    obj = _objective_tree(ctx, target, arcs=False)
    return _two_stage(ctx, obj, *(solve_recursion(lr) for lr in recursions))


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
    do), so one test decides the verdict, the fixed point and whether the
    bound is finite; ``rho``, the exact spectral radius (the smaller one for
    ``2s``), is a diagnostic.  Local instability short-circuits to an
    unstable report with ``rho = inf``.
    """
    method = method.lower()
    try:
        ctx, recursions = _method_recursions(net, method, removed)
    except LocallyUnstableError:
        return StabilityReport(
            method, math.inf, False, None,
            UNBOUNDED if target is not None else None,
        )
    fixed_points = [solve_recursion(lr) for lr in recursions]
    fixed = next((fp for fp in fixed_points if fp is not None), None)
    rho = min(spectral_radius(lr.M) for lr in recursions)
    bound = objective = None
    if target is not None:
        obj = _objective(net, ctx, target, method)
        if method == "2s":
            bound = _two_stage(ctx, obj, *fixed_points)
        else:
            bound, objective = _bound_at(obj, fixed), obj
    return StabilityReport(
        method, rho, fixed is not None, fixed, bound, recursions[0].labels, objective
    )


def _method_recursions(net: Network, method: str, removed):
    """The method's recursions and the decomposition they share (``None`` for sd)."""
    if method == "sd":
        return None, [build_sd(net)]
    builders = {"td": (_build_td,), "ag": (_build_ag,), "2s": (_build_td, _build_ag)}
    if method not in builders:
        raise ValidationError("unknown method %r" % method)
    report = _require_local_stability(net)
    ctx = _context(net, removal_tree(net) if removed is None else removed, report)
    return ctx, [build(ctx) for build in builders[method]]


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
    already unstable at ``u_min``.
    """
    if not (0 < u_min < u_max <= 1.0):
        raise ValidationError("need 0 < u_min < u_max <= 1")
    if is_stable(family(u_max), method):
        return u_max
    if not is_stable(family(u_min), method):
        return 0.0
    lo, hi = u_min, u_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_stable(family(mid), method):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
