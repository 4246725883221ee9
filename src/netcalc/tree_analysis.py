#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Tight worst-case backlog at the root of a tree network for any set of
flows of interest, plus the end-to-end delay and departure-envelope
results derived from it.

The computation produces, for every server ``j`` and every destination
``k`` on the path from ``j`` to the root, an amplification coefficient
``xi[j, k]``; the backlog is then the linear form

.. math:: B = \\sum_j \\rho_j T_j + \\sum_i \\varphi_i b_i

whose weights ``rho`` (latencies) and ``phi`` (bursts) depend only on the
arrival and service rates.

One pass computes the coefficients.  ``_xi_rows`` is the array pass: a
batch of interest sets on one upstream view in one root-to-leaves sweep,
one array step per server for all of them, filling the whole grid of
``xi[j, k]``.  The recursion builders take every row of one upstream view
from one pass (:meth:`UpstreamView.coefficient_rows`); the public analyses
(:func:`compute_xi`, :func:`tree_backlog`, :meth:`UpstreamView.backlog`
and the delay and departure results built on them) read one row's grid as
a dict-keyed :class:`XiTable`.  The scalar pass it was derived from, one
interest set and one server at a time, lives in the tests
(``tests/xi_reference.py``) as the independent reference it is held to;
both add in the same order, so they agree to the last bit (their float
sums are explicit left folds, ``curves.left_sum``, because the builtin
``sum`` compensates from Python 3.12 on).

A view is a rate-free shape bound to numbers.  A forest of flow paths is
checked once and prepared once (``_prepare_forest``: one successor per
server, predecessor lists, one topological order); every upstream view of
it is sliced from that preparation on first request and kept
(``_Forest.view``, the one place a :class:`_ViewShape` is built), with no
check repeated.  A shape is indexed by the view's renumbered servers (every
successor has a larger id, the root is last) and maps them and its flows
straight to the network's ids: the clipped paths laid out as the index
arrays of the array pass.  :class:`UpstreamView` binds a shape to one
``_Numbers`` of :mod:`netcalc.network`, the network's rates, bursts,
latencies, server loads and not-strictly-stable mask, from which the pass
gathers its rates.  A batch
of interest sets is laid out on a shape once (``_ViewShape.rows``) and run
with any rates.  The public :func:`upstream_view`, :func:`compute_xi` and
:func:`tree_backlog` accept any network, so they check the extracted tree
with :func:`~netcalc.network.classify` first, then prepare, slice and bind
it the same way, once per call; only :mod:`netcalc.stability`'s
``critical_utilization`` holds a structure across calls, and it re-checks
the structure at every bisection step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .curves import Bound, UNBOUNDED, TokenBucket, left_sum
from .errors import (
    InterestNotAtRootError,
    LocallyUnstableError,
    NotAForestError,
    NotATreeError,
    ZeroRateFlowError,
)
from .network import (
    Flow,
    Network,
    Topology,
    _Numbers,
    _numbers,
    _paths,
    classify,
    induced_graph,
    topological_order,
)


@dataclass(frozen=True)
class XiTable:
    """
    Coefficients produced by the worst-case backlog computation, keyed by
    the analysed network's own server and flow ids.

    ``xi[j, k]`` weighs the burst a flow entering at ``j`` and leaving at
    ``k`` contributes to the root backlog; ``rho[j]`` weighs the latency
    ``T_j`` and ``phi[i]`` the burst ``b_i`` in the final linear form.
    """

    xi: Dict[Tuple[int, int], float]
    rho: Dict[int, float]
    phi: Dict[int, float]
    interest: FrozenSet[int]


@dataclass(frozen=True)
class BacklogResult:
    """
    Worst-case backlog value together with its linear form.

    When the value is finite it equals
    ``sum(rho[j] * T_j) + sum(phi[i] * b_i)`` exactly; when the network is
    not locally stable the value is unbounded, ``table`` is ``None`` and
    ``diagnostic`` names the offending servers.
    """

    value: Bound
    table: Optional[XiTable]
    diagnostic: Optional[str] = None

    @property
    def burst_coefficients(self) -> Dict[int, float]:
        """Coefficient of each flow burst in the bound (phi)."""
        return self.table.phi if self.table is not None else {}

    @property
    def latency_coefficients(self) -> Dict[int, float]:
        """Coefficient of each server latency in the bound (rho)."""
        return self.table.rho if self.table is not None else {}


@dataclass(frozen=True, eq=False)
class _ViewShape:
    """
    The servers upstream of one server of a forest, without rates, laid out
    for the array pass.  The view's servers are renumbered so that every
    successor has a larger id and the root is last; its flows are the
    forest's flows that start among them, in flow order, clipped to them.
    ``server`` and ``flow`` map both straight to the network's ids.

    Coefficients live in a ``(server, position)`` grid of ``width``
    columns: position ``p`` of server ``j`` is the ``p``-th server on the
    path from ``j`` to the root (``p = 0`` is ``j`` itself, ``p = depth[j]``
    the root).  Every crossing of a flow and a server, in flow order,
    carries the flow, the server and its grid cell toward the flow's
    destination.
    """

    server: np.ndarray  # per view server: network server id
    flow: np.ndarray  # per view flow: network flow id
    depth: np.ndarray  # per view server
    flow_at: np.ndarray  # per crossing: network flow id
    server_at: np.ndarray  # ... view server id
    slot_at: np.ndarray  # ... grid cell toward the flow's destination
    entry_slot: np.ndarray  # per view flow: grid cell (entry server, destination)
    succ: Tuple[int, ...]  # -1 at the root
    width: int  # longest path to the root, in servers
    at_root: FrozenSet[int]  # network ids of the flows that cross the root
    num_flows: int  # the network's

    @property
    def root(self) -> int:
        """The analysed server, network id."""
        return int(self.server[-1])

    def rows(self, interests: Sequence[Iterable[int]]) -> "_Rows":
        """
        A batch of interest sets (network flow ids) laid out for the pass.

        :raises InterestNotAtRootError: if some flow is unknown or misses
            the local root
        """
        mask = np.zeros((len(interests), self.num_flows), dtype=bool)
        for b, interest in enumerate(interests):
            for i in interest:
                if i not in self.at_root:
                    _check_flow_id(self.num_flows, i)
                    raise InterestNotAtRootError(
                        "flow %d does not cross server %d" % (i, self.root)
                    )
                mask[b, i] = True
        return _Rows(mask[:, self.flow], mask[:, self.flow_at])


@dataclass(frozen=True)
class _Rows:
    """
    A batch of ``B`` interest sets on a view shape: the rate-free half of
    the array pass, kept for every rate the shape is run with.
    """

    mask: np.ndarray  # (B, view flows): flow of interest
    own: np.ndarray  # (B, crossings): the crossing's flow is of interest


def _xi_rows(shape: _ViewShape, rows: _Rows, rate_at: np.ndarray, service_rate: np.ndarray):
    """
    The coefficient pass for a batch of ``B`` interest sets at once, in
    the view's ids, with ``rate_at`` the flow rate of each crossing and
    ``service_rate`` the rate of each server.  Returns ``(phi, rho, xi)``:
    burst weights ``(B, flows)``, latency weights ``(B, servers)`` and the
    coefficient grid ``(B, servers, width)`` of :class:`_ViewShape`,
    ``xi[b, j, p]`` from server ``j`` toward the ``p``-th server on its
    path to the root.

    Every sum runs in the scalar reference's order (``bincount`` in flow
    order, ``cumsum`` along paths), so each row equals its table.  Each
    server takes one array step for all rows, from the root toward the
    leaves: candidates for every split position, then the split where the
    successor's coefficient stops dominating.
    """
    n, width = len(shape.succ), shape.width
    B = len(rows.mask)
    batch = np.arange(B)
    row = batch[:, None]
    r_star = np.bincount(
        (row * n + shape.server_at).ravel(), np.where(rows.own, rate_at, 0.0).ravel(), B * n
    ).reshape(B, n)
    cross = np.bincount(
        (row * (n * width) + shape.slot_at).ravel(),
        np.where(rows.own, 0.0, rate_at).ravel(),
        B * n * width,
    ).reshape(B, n, width)
    # den[b, j, p]: rate margin of j left by cross traffic ending up to position p
    den = service_rate[:, None] - np.cumsum(cross, axis=2)
    servers = np.arange(n)
    stuck = np.flatnonzero((den[:, servers, shape.depth] <= 0).any(axis=0))
    if len(stuck):  # cross traffic alone fills the server
        raise LocallyUnstableError("server %d cannot drain its local traffic" % stuck[-1])
    xi = np.zeros((B, n, width))
    positions = np.arange(width)
    depth = shape.depth.tolist()
    for j in reversed(range(n)):  # successors carry larger ids
        last = depth[j]
        # successor's coefficients, positions 1..last: none at the root,
        # whose successor -1 names itself
        after = xi[:, shape.succ[j], :last]
        # tail[p]: successor-weighted cross rates strictly beyond p
        tail = np.zeros((B, last + 1))
        tail[:, :last] = np.cumsum((after * cross[:, j, 1 : last + 1])[:, ::-1], axis=1)[:, ::-1]
        cand = (r_star[:, j, None] + tail) / den[:, j, : last + 1]
        # the split is the largest position whose successor coefficient
        # does not exceed its candidate (position 0 always qualifies)
        split = np.where(after > cand[:, 1:], 0, positions[1 : last + 1]).max(axis=1, initial=0)
        row = xi[:, j, : last + 1]
        row[:, 1:] = after
        np.copyto(row, cand[batch, split][:, None], where=positions[: last + 1] <= split[:, None])
    rho = r_star + np.cumsum(xi * cross, axis=2)[:, :, -1]
    phi = np.where(rows.mask, 1.0, xi.reshape(B, -1)[:, shape.entry_slot])
    return phi, rho, xi


def _check_tree(net: Network) -> None:
    topology = classify(net)
    if topology not in (Topology.TANDEM, Topology.TREE):
        raise NotATreeError("topology is %s, need a tandem or tree" % topology.value)


def _root_view(tree: Network) -> "UpstreamView":
    """The whole of ``tree``, checked to be a tandem or tree, as the view at its root."""
    _check_tree(tree)
    forest = _prepare_forest(_paths(tree), tree.num_servers)
    return UpstreamView(forest.view(forest.succ.index(-1)), _numbers(tree))


def compute_xi(tree: Network, interest: Iterable[int]) -> XiTable:
    """
    Coefficient table for the worst-case backlog at the root of ``tree``
    for the flows in ``interest``.

    The network may carry any server numbering (it is renumbered
    internally; results are keyed by the caller's ids).  Runs in
    ``O(n w + h)`` for ``n`` servers, ``w`` servers on the longest path to
    the root and ``h`` flow hops: one array step per server over its path.

    :raises NotATreeError: if the topology is not a tandem or tree
    :raises InterestNotAtRootError: if some interest flow is unknown or
        misses the root
    :raises LocallyUnstableError: if some server lacks a strict rate margin

    >>> from .curves import RateLatency
    >>> net = Network([RateLatency(2.0, 1.0), RateLatency(4.0, 1.0)],
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1,))])
    >>> table = compute_xi(net, [0])
    >>> round(table.xi[(1, 1)], 12), round(table.xi[(0, 1)], 12)
    (0.333333333333, 0.5)
    """
    result = tree_backlog(tree, interest)
    if result.table is None:
        raise LocallyUnstableError(result.diagnostic)
    return result.table


def tree_backlog(tree: Network, interest: Iterable[int]) -> BacklogResult:
    """
    Worst-case backlog at the root of ``tree`` for the flows in
    ``interest``; the bound is tight for tandem and tree topologies.

    A network that is not locally stable yields an unbounded value with a
    diagnostic instead of an error, whatever the interest.
    """
    view = _root_view(tree)
    if view.unstable_servers:
        return view.backlog(())
    return view.backlog(interest)


def _check_flow_id(num_flows: int, i: int) -> None:
    if not 0 <= i < num_flows:
        raise InterestNotAtRootError("unknown flow id %d" % i)


@dataclass(frozen=True)
class UpstreamView:
    """
    The sub-network upstream of one server of a forest, prepared for
    repeated backlog analyses with different interest sets: a rate-free
    :class:`_ViewShape` bound to the network's numbers.

    Coefficient tables are expanded back over the full network's ids, with
    weight 0 outside.
    """

    shape: _ViewShape
    numbers: _Numbers  # of the full network

    @cached_property
    def unstable_servers(self) -> List[int]:
        """Network ids of the view's servers that are not strictly stable, sorted."""
        server = self.shape.server
        return sorted(server[self.numbers.unstable[server]].tolist())

    def _pass(self, rows: _Rows):
        """The array pass over ``rows`` with the view's rates."""
        return _xi_rows(
            self.shape,
            rows,
            self.numbers.rate[self.shape.flow_at],
            self.numbers.service_rate[self.shape.server],
        )

    def backlog(self, interest: Iterable[int]) -> BacklogResult:
        """
        Worst-case backlog at the local root for full-network flow ids,
        with its table read off one row of the array pass.

        :raises InterestNotAtRootError: if some flow is unknown or misses
            the local root
        """
        interest = frozenset(interest)
        rows = self.shape.rows([interest])
        if self.unstable_servers:
            return BacklogResult(
                UNBOUNDED, None, "servers %r are not strictly stable" % self.unstable_servers
            )
        shape, num = self.shape, self.numbers
        phi, rho, grid = (v[0].tolist() for v in self._pass(rows))
        server = shape.server.tolist()
        succ, depth = shape.succ, shape.depth.tolist()
        xi = {}
        for j, row in enumerate(grid):
            k = j
            for v in row[: depth[j] + 1]:
                xi[(server[j], server[k])] = v
                k = succ[k]
        full_rho = dict.fromkeys(range(len(num.service_rate)), 0.0)
        full_rho.update(zip(server, rho))
        full_phi = dict.fromkeys(range(len(num.rate)), 0.0)
        full_phi.update(zip(shape.flow.tolist(), phi))
        # the zero weights outside the view add exact zeros to the value
        value = left_sum(full_rho[j] * t for j, t in enumerate(num.latency.tolist()))
        value += left_sum(full_phi[i] * b for i, b in enumerate(num.burst.tolist()))
        return BacklogResult(Bound(value), XiTable(xi, full_rho, full_phi, interest))

    def coefficient_rows(self, rows: _Rows):
        """
        The array pass for a batch laid out by :meth:`_ViewShape.rows`:
        ``(phi, rho, xi_root)``, one row per interest set, with the burst
        weight of every flow, the latency weight of every server and every
        server's coefficient toward the local root, over the full network's
        ids (0 outside the view).

        :raises LocallyUnstableError: if the view is not locally stable
        """
        if self.unstable_servers:
            raise LocallyUnstableError(
                "servers %r are not strictly stable" % self.unstable_servers
            )
        phi, rho, xi = self._pass(rows)
        shape, num = self.shape, self.numbers
        B = len(phi)
        full_phi = np.zeros((B, len(num.rate)))
        full_phi[:, shape.flow] = phi
        full_rho = np.zeros((B, len(num.service_rate)))
        full_rho[:, shape.server] = rho
        full_xi = np.zeros((B, len(num.service_rate)))
        full_xi[:, shape.server] = xi[:, np.arange(len(shape.succ)), shape.depth]
        return full_phi, full_rho, full_xi


@dataclass(frozen=True)
class _Forest:
    """
    Flow paths already checked to form a forest (no cycle, at most one
    successor per server), prepared once: every upstream view is then
    sliced from it with no check repeated, and kept.  Rate-free.
    """

    paths: Tuple[Tuple[int, ...], ...]
    succ: Tuple[int, ...]  # -1 at a sink
    preds: Tuple[Tuple[int, ...], ...]
    rank: Tuple[int, ...]  # position in renumber's topological order
    views: Dict[int, _ViewShape] = field(default_factory=dict, compare=False, repr=False)

    def view(self, j1: int) -> _ViewShape:
        """
        The view upstream of ``j1``, sliced on its first request.  Its
        renumbering is the forest's topological order restricted to the
        ancestors of ``j1``, which is :func:`renumber` of the view itself:
        the ancestors are closed under predecessors, so the restriction
        takes the smallest ready server next just as the view's own order
        does, and a flow that crosses them starts there.
        """
        if j1 in self.views:
            return self.views[j1]
        order = sorted(_upstream(self.preds, j1), key=self.rank.__getitem__)
        new_id = {j: new for new, j in enumerate(order)}
        succ = tuple([-1 if j == j1 else new_id[self.succ[j]] for j in order])
        depth = [0] * len(order)
        for j in reversed(range(len(order) - 1)):  # the root is last
            depth[j] = depth[succ[j]] + 1
        width = max(depth) + 1
        flow, at_root, flow_at, server_at, slot_at, entry_slot = [], [], [], [], [], []
        for i, path in enumerate(self.paths):
            if path[0] not in new_id:
                continue
            clipped = [new_id[j] for j in path if j in new_id]
            end = depth[clipped[-1]]
            flow.append(i)
            if end == 0:
                at_root.append(i)
            for j in clipped:
                flow_at.append(i)
                server_at.append(j)
                slot_at.append(j * width + depth[j] - end)
            entry_slot.append(clipped[0] * width + depth[clipped[0]] - end)
        shape = self.views[j1] = _ViewShape(
            *(np.array(v, dtype=np.intp)
              for v in (order, flow, depth, flow_at, server_at, slot_at, entry_slot)),
            succ, width, frozenset(at_root), len(self.paths),
        )
        return shape


def _prepare_forest(paths: Tuple[Tuple[int, ...], ...], n: int) -> _Forest:
    """
    Prepare the flow paths of an acyclic network of ``n`` servers.

    :raises NotAForestError: if some server has several successors
    """
    arcs = set()
    for path in paths:
        arcs.update(zip(path, path[1:]))
    succ = [-1] * n
    preds: List[List[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if succ[u] != -1:
            raise NotAForestError("removal leaves server %d with several successors" % u)
        succ[u] = v
        preds[v].append(u)
    rank = [0] * n
    for position, j in enumerate(topological_order(arcs, n)):
        rank[j] = position
    return _Forest(paths, tuple(succ), tuple(map(tuple, preds)), tuple(rank))


def _upstream(preds: Sequence[Sequence[int]], j1: int) -> Set[int]:
    """Servers with a directed path to ``j1``, including ``j1``."""
    seen = {j1}
    stack = [j1]
    while stack:
        for u in preds[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def upstream_view(net: Network, j1: int) -> UpstreamView:
    """
    Extract the servers upstream of ``j1`` and clip the flows to them.
    ``net`` may be any network: the extracted part is checked to be a tree
    before it is prepared.
    """
    if not (0 <= j1 < net.num_servers):
        raise InterestNotAtRootError("unknown server %d" % j1)
    preds: List[List[int]] = [[] for _ in range(net.num_servers)]
    for u, v in induced_graph(net):
        preds[v].append(u)
    index = {j: s for s, j in enumerate(sorted(_upstream(preds, j1)))}
    clipped = [[j for j in f.path if j in index] for f in net.flows]
    # the extracted part as a network of its own, servers numbered in order
    _check_tree(Network(
        tuple([net.servers[j] for j in index]),
        tuple([Flow(f.arrival, [index[j] for j in p]) for f, p in zip(net.flows, clipped) if p]),
    ))
    # a flow that misses the extracted servers keeps its first server: no arc
    paths = tuple([tuple(p) if p else f.path[:1] for f, p in zip(net.flows, clipped)])
    return UpstreamView(_prepare_forest(paths, net.num_servers).view(j1), _numbers(net))


def tree_backlog_at(net: Network, j1: int, interest: Iterable[int]) -> BacklogResult:
    """
    Worst-case backlog at server ``j1`` of a forest-shaped network for the
    flows in ``interest``: extraction of the upstream sub-network followed
    by the tree computation.  Coefficients are returned over the full
    network's ids; flows and servers outside the extraction get weight 0.
    """
    return upstream_view(net, j1).backlog(interest)


def tree_delay(tree: Network, flow: int) -> Bound:
    """
    Worst-case end-to-end delay of ``flow`` through ``tree`` (the flow must
    cross the root):

    .. math:: \\Delta = \\frac{B - b}{r} + \\frac{\\xi_{j}^{n} b}{r}

    with ``B`` the worst-case backlog for that single flow of interest and
    ``j`` its entry server.

    >>> from .curves import RateLatency
    >>> net = Network([RateLatency(2.0, 1.0), RateLatency(4.0, 1.0)],
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1,))])
    >>> round(float(tree_delay(net, 0)), 12)
    3.166666666667
    """
    _check_flow_id(tree.num_flows, flow)
    f = tree.flows[flow]
    if f.arrival.rate == 0:
        raise ZeroRateFlowError("delay of a zero-rate flow is undefined")
    result = tree_backlog(tree, [flow])
    if not result.value.is_finite:
        return UNBOUNDED
    root = f.path[-1]
    xi_entry = result.table.xi[(f.path[0], root)]
    b, r = f.arrival.burst, f.arrival.rate
    return Bound((result.value.value - b) / r + xi_entry * b / r)


def tree_output_curve(tree: Network, interest: Iterable[int]) -> TokenBucket:
    """
    Arrival curve of the departures from the root for the flows in
    ``interest``: a token bucket with the worst-case backlog as burst and
    the aggregate interest rate.
    """
    interest = frozenset(interest)
    result = tree_backlog(tree, interest)
    if not result.value.is_finite:
        raise LocallyUnstableError(
            "no finite departure curve: %s" % (result.diagnostic or "unbounded")
        )
    rate = left_sum(tree.flows[i].arrival.rate for i in interest)
    return TokenBucket(result.value.value, rate)
