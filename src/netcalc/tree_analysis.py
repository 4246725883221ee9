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
batch of interest sets on one prepared tree in one root-to-leaves sweep,
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

A view is a rate-free structure bound to numbers.  A forest of flow
paths is checked once and prepared once (``_prepare_forest``: one
successor per server, predecessor lists, one topological order); every
upstream view of it is sliced from that preparation (``_Forest.view``)
with no check repeated, as a :class:`_ViewShape`: the clipped paths, the
renumbered tree with the index arrays of the array pass, and the maps
back to the network's ids.  :class:`UpstreamView` binds a shape to one
network's rates, bursts, latencies and stability classes, and the pass
gathers its rates from them.  A batch of interest sets is laid out on a
tree once (``_PreparedTree.rows``) and run with any rates.  The public
:func:`upstream_view`, :func:`compute_xi` and :func:`tree_backlog` accept
any network, so they check the extracted tree first, then slice and bind
it the same way, once per call; only :mod:`netcalc.stability`'s
``critical_utilization`` holds a structure across calls, and it re-checks
the structure at every bisection step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .curves import Bound, ServerClass, UNBOUNDED, TokenBucket, left_sum
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
    classify,
    induced_graph,
    local_stability,
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


@dataclass(frozen=True)
class _Numbers:
    """
    A network's numbers as arrays in id order: what binds a rate-free
    structure (a view, a decomposition, a pair layout) to one network.
    """

    rate: np.ndarray  # per flow
    burst: np.ndarray  # per flow
    service_rate: np.ndarray  # per server
    latency: np.ndarray  # per server


def _paths(net: Network) -> Tuple[Tuple[int, ...], ...]:
    return tuple([f.path for f in net.flows])  # a list, as in topologies._loop


def _numbers(net: Network) -> _Numbers:
    return _Numbers(
        np.array([f.arrival.rate for f in net.flows], dtype=float),
        np.array([f.arrival.burst for f in net.flows], dtype=float),
        np.array([s.rate for s in net.servers], dtype=float),
        np.array([s.latency for s in net.servers], dtype=float),
    )


@dataclass(frozen=True)
class _PreparedTree:
    """
    A checked tree without its rates, renumbered so that every successor
    has a larger id and the sink is last, ready for repeated coefficient
    runs on any rates.
    """

    paths: Tuple[Tuple[int, ...], ...]  # flow paths, renumbered
    succ: Tuple[int, ...]
    root: int
    new_to_old: Tuple[int, ...]

    @cached_property
    def arrays(self) -> "_TreeArrays":
        """Index arrays of the array pass, built on their first use."""
        return _tree_arrays(self)

    def rows(self, interests: Sequence[Iterable[int]]) -> "_Rows":
        """A batch of interest sets (flow ids of the tree) laid out for the pass."""
        mask = np.zeros((len(interests), len(self.paths)), dtype=bool)
        for b, interest in enumerate(interests):
            mask[b, list(interest)] = True
        return _Rows(mask, mask[:, self.arrays.flow_at])


@dataclass(frozen=True)
class _TreeArrays:
    """
    A prepared tree laid out for the array pass.  Coefficients live in a
    ``(server, position)`` grid of ``width`` columns: position ``p`` of
    server ``j`` is the ``p``-th server on the path from ``j`` to the root
    (``p = 0`` is ``j`` itself, ``p = depth[j]`` the root).
    """

    width: int  # longest path to the root, in servers
    steps: Tuple[Tuple[int, int, int], ...]  # (server, successor, depth), root first
    depth: np.ndarray  # per server
    flow_at: np.ndarray  # (flow, server) crossings, in flow order: the flow
    server_at: np.ndarray  # ... the server
    slot_at: np.ndarray  # ... its grid cell toward the flow's destination
    entry_slot: np.ndarray  # per flow: grid cell (entry server, destination)


@dataclass(frozen=True)
class _Rows:
    """
    A batch of ``B`` interest sets on a prepared tree: the rate-free half
    of the array pass, kept for every rate the tree is run with.
    """

    mask: np.ndarray  # (B, flows): flow of interest
    own: np.ndarray  # (B, crossings): the crossing's flow is of interest


def _tree_arrays(prep: _PreparedTree) -> _TreeArrays:
    n = len(prep.succ)
    depth = [0] * n
    for j in reversed(range(n)):  # successors carry larger ids
        if j != prep.root:
            depth[j] = depth[prep.succ[j]] + 1
    width = max(depth) + 1
    flow_at, server_at, slot_at, entry_slot = [], [], [], []
    for i, path in enumerate(prep.paths):
        end = depth[path[-1]]
        for j in path:
            flow_at.append(i)
            server_at.append(j)
            slot_at.append(j * width + depth[j] - end)
        entry_slot.append(path[0] * width + depth[path[0]] - end)
    steps = tuple(
        [(j, j if j == prep.root else prep.succ[j], depth[j]) for j in reversed(range(n))]
    )
    return _TreeArrays(
        width,
        steps,
        *(np.array(v, dtype=np.intp) for v in (depth, flow_at, server_at, slot_at, entry_slot)),
    )


def _xi_rows(prep: _PreparedTree, rows: _Rows, rate_at: np.ndarray, service_rate: np.ndarray):
    """
    The coefficient pass for a batch of ``B`` interest sets at once, in
    ``prep``'s renumbered ids, with ``rate_at`` the flow rate of each
    crossing and ``service_rate`` the rate of each server.  Returns
    ``(phi, rho, xi)``: burst weights ``(B, flows)``, latency weights
    ``(B, servers)`` and the coefficient grid ``(B, servers, width)`` of
    :class:`_TreeArrays`, ``xi[b, j, p]`` from server ``j`` toward the
    ``p``-th server on its path to the root.

    Every sum runs in the scalar reference's order (``bincount`` in flow
    order, ``cumsum`` along paths), so each row equals its table.  Each
    server takes one array step for all rows: candidates for every split
    position, then the split where the successor's coefficient stops
    dominating.
    """
    a = prep.arrays
    n, width = len(prep.succ), a.width
    B = len(rows.mask)
    batch = np.arange(B)
    row = batch[:, None]
    r_star = np.bincount(
        (row * n + a.server_at).ravel(), np.where(rows.own, rate_at, 0.0).ravel(), B * n
    ).reshape(B, n)
    cross = np.bincount(
        (row * (n * width) + a.slot_at).ravel(),
        np.where(rows.own, 0.0, rate_at).ravel(),
        B * n * width,
    ).reshape(B, n, width)
    # den[b, j, p]: rate margin of j left by cross traffic ending up to position p
    den = service_rate[:, None] - np.cumsum(cross, axis=2)
    servers = np.arange(n)
    stuck = np.flatnonzero((den[:, servers, a.depth] <= 0).any(axis=0))
    if len(stuck):  # cross traffic alone fills the server
        raise LocallyUnstableError("server %d cannot drain its local traffic" % stuck[-1])
    xi = np.zeros((B, n, width))
    positions = np.arange(width)
    for j, js, last in a.steps:
        after = xi[:, js, :last]  # successor's coefficients, positions 1..last
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
    phi = np.where(rows.mask, 1.0, xi.reshape(B, -1)[:, a.entry_slot])
    return phi, rho, xi


def _root_shape(tree: Network) -> "_ViewShape":
    """The whole of ``tree``, checked to be a tandem or tree, as the view shape at its root."""
    topology = classify(tree)
    if topology not in (Topology.TANDEM, Topology.TREE):
        raise NotATreeError("topology is %s, need a tandem or tree" % topology.value)
    forest = _prepare_forest(_paths(tree), tree.num_servers)
    return forest.view(forest.succ.index(-1))


def _root_view(tree: Network) -> "UpstreamView":
    """:func:`_root_shape` bound to ``tree``'s numbers."""
    return UpstreamView(
        _root_shape(tree), _numbers(tree), _unstable(local_stability(tree).per_server)
    )


def _unstable(classes: Sequence[ServerClass]) -> Tuple[bool, ...]:
    return tuple([c is not ServerClass.STABLE for c in classes])


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
class _ViewShape:
    """
    The servers upstream of one server of a network, without rates: the
    flow paths clipped to them (flows leaving through the local root are
    truncated there), the prepared tree they form, and the maps back to
    the network's ids.
    """

    paths: Tuple[Tuple[int, ...], ...]  # the network's flow paths
    num_servers: int  # the network's
    origin_flow: Tuple[int, ...]  # sub flow id -> network flow id
    origin_server: Tuple[int, ...]  # sub server id -> network server id
    root: int  # analysed server, network ids
    prepared: _PreparedTree

    def rows(self, interests: Sequence[Iterable[int]]) -> _Rows:
        """
        A batch of interest sets (network flow ids) laid out for the pass.

        :raises InterestNotAtRootError: if some flow is unknown or misses
            the local root
        """
        return self.prepared.rows([self._sub_flows(interest) for interest in interests])

    def _sub_flows(self, interest: Iterable[int]) -> List[int]:
        """Sub flow ids of network flow ids, each checked to cross the local root."""
        sub = []
        for i in interest:
            if i not in self._at_root:
                _check_flow_id(len(self.paths), i)
                raise InterestNotAtRootError(
                    "flow %d does not cross server %d" % (i, self.root)
                )
            sub.append(self._at_root[i])
        return sub

    @cached_property
    def _at_root(self) -> Dict[int, int]:
        """Sub flow id of every network flow that crosses the local root."""
        return {i: s for s, i in enumerate(self.origin_flow) if self.root in self.paths[i]}

    @cached_property
    def full_server(self) -> np.ndarray:
        """Network server id of each renumbered server of the prepared tree."""
        return np.array([self.origin_server[j] for j in self.prepared.new_to_old], dtype=np.intp)

    @cached_property
    def flow_at(self) -> np.ndarray:
        """Network flow id of each crossing of the array pass."""
        return np.array(self.origin_flow, dtype=np.intp)[self.prepared.arrays.flow_at]


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
    unstable: Tuple[bool, ...]  # per server of the full network: not strictly stable

    @cached_property
    def unstable_servers(self) -> Tuple[int, ...]:
        """Sub ids of the view's servers that are not strictly stable."""
        return tuple([s for s, j in enumerate(self.shape.origin_server) if self.unstable[j]])

    def _pass(self, rows: _Rows):
        """The array pass over ``rows`` with the view's rates."""
        shape = self.shape
        return _xi_rows(
            shape.prepared,
            rows,
            self.numbers.rate[shape.flow_at],
            self.numbers.service_rate[shape.full_server],
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
                UNBOUNDED,
                None,
                "servers %r are not strictly stable" % list(self.unstable_servers),
            )
        shape, prep = self.shape, self.shape.prepared
        phi, rho, grid = (v[0].tolist() for v in self._pass(rows))
        full = shape.full_server.tolist()
        succ, depth = prep.succ, prep.arrays.depth.tolist()
        xi = {}
        for j, row in enumerate(grid):
            k = j
            for v in row[: depth[j] + 1]:
                xi[(full[j], full[k])] = v
                k = succ[k]
        full_rho = dict.fromkeys(range(shape.num_servers), 0.0)
        full_rho.update(zip(full, rho))
        full_phi = dict.fromkeys(range(len(shape.paths)), 0.0)
        full_phi.update(zip(shape.origin_flow, phi))
        # the zero weights outside the view add exact zeros to the value
        value = left_sum(full_rho[j] * t for j, t in enumerate(self.numbers.latency.tolist()))
        value += left_sum(full_phi[i] * b for i, b in enumerate(self.numbers.burst.tolist()))
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
                "servers %r are not strictly stable" % list(self.unstable_servers)
            )
        phi, rho, xi = self._pass(rows)
        shape = self.shape
        B = len(phi)
        full_phi = np.zeros((B, len(shape.paths)))
        full_phi[:, list(shape.origin_flow)] = phi
        full_rho = np.zeros((B, shape.num_servers))
        full_rho[:, shape.full_server] = rho
        full_xi = np.zeros((B, shape.num_servers))
        depth = shape.prepared.arrays.depth
        full_xi[:, shape.full_server] = xi[:, np.arange(len(depth)), depth]
        return full_phi, full_rho, full_xi


@dataclass(frozen=True)
class _Forest:
    """
    Flow paths already checked to form a forest (no cycle, at most one
    successor per server), prepared once: every upstream view is then
    sliced from it with no check repeated.  Rate-free.
    """

    paths: Tuple[Tuple[int, ...], ...]
    succ: Tuple[int, ...]  # -1 at a sink
    preds: Tuple[Tuple[int, ...], ...]  # sorted
    rank: Tuple[int, ...]  # position in renumber's topological order

    def view(self, j1: int) -> _ViewShape:
        """
        The view upstream of ``j1``.  Its renumbering is the forest's
        topological order restricted to the ancestors of ``j1``, which is
        :func:`renumber` of the view itself: the ancestors are closed under
        predecessors, so the restriction takes the smallest ready server
        next just as the view's own order does.
        """
        keep = _upstream(self.preds, j1)
        order = sorted(keep, key=self.rank.__getitem__)
        new_id = {j: new for new, j in enumerate(order)}
        paths, origin_flow = _clip(self.paths, new_id)
        sub_id = {j: s for s, j in enumerate(keep)}
        prepared = _PreparedTree(
            paths,
            tuple([-1 if j == j1 else new_id[self.succ[j]] for j in order]),
            new_id[j1],
            tuple([sub_id[j] for j in order]),
        )
        return _ViewShape(self.paths, len(self.succ), origin_flow, tuple(keep), j1, prepared)


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
    return _Forest(paths, tuple(succ), tuple([tuple(sorted(p)) for p in preds]), tuple(rank))


def _upstream(preds: Sequence[Sequence[int]], j1: int) -> List[int]:
    """Servers with a directed path to ``j1`` (including ``j1``), sorted."""
    seen = {j1}
    stack = [j1]
    while stack:
        for u in preds[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return sorted(seen)


def _clip(paths, new_id: Dict[int, int]) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """
    The flow paths that cross the servers of ``new_id``, cut to those
    servers and relabelled by it, with their flow ids.  The servers are
    closed under predecessors, so a flow that crosses them starts there.
    """
    clipped, origin = [], []
    for i, path in enumerate(paths):
        if path[0] in new_id:
            clipped.append(tuple([new_id[j] for j in path if j in new_id]))
            origin.append(i)
    return tuple(clipped), tuple(origin)


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
    keep = _upstream(preds, j1)
    paths = _paths(net)
    clipped, origin_flow = _clip(paths, {j: s for s, j in enumerate(keep)})
    sub = Network(
        tuple(net.servers[j] for j in keep),
        tuple(Flow(net.flows[i].arrival, p) for i, p in zip(origin_flow, clipped)),
    )
    shape = _ViewShape(
        paths, net.num_servers, origin_flow, tuple(keep), j1, _root_shape(sub).prepared
    )
    return UpstreamView(shape, _numbers(net), _unstable(local_stability(net).per_server))


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
