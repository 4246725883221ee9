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
both add in the same order, so they agree to the last bit (to rounding
from Python 3.12 on, whose ``sum`` compensates).

A decomposition's forest is checked once and prepared once
(``_prepare_forest``: one successor per server, predecessor lists, one
topological order and the servers' stability classes); every upstream
view of it is sliced from that preparation (``_Forest.view``) with no
check repeated.  The public :func:`upstream_view`, :func:`compute_xi` and
:func:`tree_backlog` accept any network, so they check the extracted tree
first, then slice it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .curves import Bound, ServerClass, UNBOUNDED, TokenBucket
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
class _PreparedTree:
    """A validated, renumbered tree ready for repeated coefficient runs."""

    net: Network  # renumbered: every successor has a larger id, sink last
    succ: Tuple[int, ...]
    root: int
    new_to_old: Tuple[int, ...]
    unstable_servers: Tuple[int, ...]  # original ids; empty when locally stable

    @cached_property
    def arrays(self) -> "_TreeArrays":
        """Index arrays of the array pass, built on its first use."""
        return _tree_arrays(self)


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
    rate_at: np.ndarray  # ... the flow's rate
    entry_slot: np.ndarray  # per flow: grid cell (entry server, destination)
    service_rate: np.ndarray  # per server


def _tree_arrays(prep: _PreparedTree) -> _TreeArrays:
    net = prep.net
    n = net.num_servers
    depth = [0] * n
    for j in reversed(range(n)):  # successors carry larger ids
        if j != prep.root:
            depth[j] = depth[prep.succ[j]] + 1
    width = max(depth) + 1
    flow_at, server_at, slot_at, rate_at, entry_slot = [], [], [], [], []
    for i, f in enumerate(net.flows):
        end = depth[f.path[-1]]
        for j in f.path:
            flow_at.append(i)
            server_at.append(j)
            slot_at.append(j * width + depth[j] - end)
            rate_at.append(f.arrival.rate)
        entry_slot.append(f.path[0] * width + depth[f.path[0]] - end)
    steps = tuple(
        (j, j if j == prep.root else prep.succ[j], depth[j]) for j in reversed(range(n))
    )
    depth, flow_at, server_at, slot_at, entry_slot = (
        np.array(v, dtype=np.intp) for v in (depth, flow_at, server_at, slot_at, entry_slot)
    )
    return _TreeArrays(
        width,
        steps,
        depth,
        flow_at,
        server_at,
        slot_at,
        np.array(rate_at, dtype=float),
        entry_slot,
        np.array([s.rate for s in net.servers], dtype=float),
    )


def _xi_rows(prep: _PreparedTree, interests: Sequence[Iterable[int]]):
    """
    The coefficient pass for a batch of ``B`` interest sets at once, in
    ``prep``'s renumbered ids.  Returns ``(phi, rho, xi)``: burst weights
    ``(B, flows)``, latency weights ``(B, servers)`` and the coefficient
    grid ``(B, servers, width)`` of :class:`_TreeArrays`, ``xi[b, j, p]``
    from server ``j`` toward the ``p``-th server on its path to the root.

    Every sum runs in the scalar reference's order (``bincount`` in flow
    order, ``cumsum`` along paths), so each row equals its table.  Each
    server takes one array step for all rows: candidates for every split
    position, then the split where the successor's coefficient stops
    dominating.
    """
    a = prep.arrays
    n, m, width = prep.net.num_servers, prep.net.num_flows, a.width
    B = len(interests)
    mask = np.zeros((B, m), dtype=bool)
    for b, interest in enumerate(interests):
        mask[b, list(interest)] = True
    own = mask[:, a.flow_at]
    batch = np.arange(B)
    rows = batch[:, None]
    r_star = np.bincount(
        (rows * n + a.server_at).ravel(), np.where(own, a.rate_at, 0.0).ravel(), B * n
    ).reshape(B, n)
    cross = np.bincount(
        (rows * (n * width) + a.slot_at).ravel(),
        np.where(own, 0.0, a.rate_at).ravel(),
        B * n * width,
    ).reshape(B, n, width)
    # den[b, j, p]: rate margin of j left by cross traffic ending up to position p
    den = a.service_rate[:, None] - np.cumsum(cross, axis=2)
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
    phi = np.where(mask, 1.0, xi.reshape(B, -1)[:, a.entry_slot])
    return phi, rho, xi


def _root_view(tree: Network) -> UpstreamView:
    """The whole of ``tree``, checked to be a tandem or tree, as the view at its root."""
    topology = classify(tree)
    if topology not in (Topology.TANDEM, Topology.TREE):
        raise NotATreeError("topology is %s, need a tandem or tree" % topology.value)
    forest = _prepare_forest(tree, local_stability(tree).per_server)
    return forest.view(forest.succ.index(-1))


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
    if view.prepared.unstable_servers:
        return view.backlog(())
    return view.backlog(interest)


def _check_flow_id(net: Network, i: int) -> None:
    if not 0 <= i < net.num_flows:
        raise InterestNotAtRootError("unknown flow id %d" % i)


@dataclass(frozen=True)
class UpstreamView:
    """
    The sub-network upstream of one server of a forest, prepared for
    repeated backlog analyses with different interest sets.

    Flow paths are clipped to the extracted servers (flows leaving through
    the local root are truncated there); coefficient tables are expanded
    back over the full network's ids, with weight 0 outside.
    """

    full: Network
    origin_flow: Tuple[int, ...]  # sub flow id -> full flow id
    origin_server: Tuple[int, ...]  # sub server id -> full server id
    root: int  # analysed server, full ids
    prepared: _PreparedTree

    def backlog(self, interest: Iterable[int]) -> BacklogResult:
        """
        Worst-case backlog at the local root for full-network flow ids,
        with its table read off one row of the array pass.

        :raises InterestNotAtRootError: if some flow is unknown or misses
            the local root
        """
        interest = frozenset(interest)
        sub = self._sub_flows(interest)
        if self.prepared.unstable_servers:
            return BacklogResult(
                UNBOUNDED,
                None,
                "servers %r are not strictly stable"
                % list(self.prepared.unstable_servers),
            )
        phi, rho, grid = (v[0].tolist() for v in _xi_rows(self.prepared, [sub]))
        full = self._full_server.tolist()
        succ, depth = self.prepared.succ, self.prepared.arrays.depth.tolist()
        xi = {}
        for j, row in enumerate(grid):
            k = j
            for v in row[: depth[j] + 1]:
                xi[(full[j], full[k])] = v
                k = succ[k]
        full_rho = dict.fromkeys(range(self.full.num_servers), 0.0)
        full_rho.update(zip(full, rho))
        full_phi = dict.fromkeys(range(self.full.num_flows), 0.0)
        full_phi.update(zip(self.origin_flow, phi))
        # the zero weights outside the view add exact zeros to the value
        value = sum(full_rho[j] * s.latency for j, s in enumerate(self.full.servers))
        value += sum(full_phi[i] * f.arrival.burst for i, f in enumerate(self.full.flows))
        return BacklogResult(Bound(value), XiTable(xi, full_rho, full_phi, interest))

    def _sub_flows(self, interest: Iterable[int]) -> List[int]:
        """Sub flow ids of full-network flow ids, each checked to cross the local root."""
        sub = []
        for i in interest:
            if i not in self._at_root:
                _check_flow_id(self.full, i)
                raise InterestNotAtRootError(
                    "flow %d does not cross server %d" % (i, self.root)
                )
            sub.append(self._at_root[i])
        return sub

    @cached_property
    def _at_root(self) -> Dict[int, int]:
        """Sub flow id of every full flow that crosses the local root."""
        return {
            i: s for s, i in enumerate(self.origin_flow)
            if self.root in self.full.flows[i].path
        }

    @cached_property
    def _full_server(self) -> np.ndarray:
        """Full server id of each renumbered server of the prepared tree."""
        return np.array([self.origin_server[j] for j in self.prepared.new_to_old])

    def coefficient_rows(self, interests: Sequence[Iterable[int]]):
        """
        The array pass for a batch of interest sets (full-network flow ids):
        ``(phi, rho, xi_root)``, one row per set, with the burst weight of
        every flow, the latency weight of every server and every server's
        coefficient toward the local root, over the full network's ids
        (0 outside the view).

        :raises InterestNotAtRootError: if some flow misses the local root
        :raises LocallyUnstableError: if the view is not locally stable
        """
        batch = [self._sub_flows(interest) for interest in interests]
        if self.prepared.unstable_servers:
            raise LocallyUnstableError(
                "servers %r are not strictly stable"
                % list(self.prepared.unstable_servers)
            )
        phi, rho, xi = _xi_rows(self.prepared, batch)
        B = len(batch)
        full_phi = np.zeros((B, self.full.num_flows))
        full_phi[:, list(self.origin_flow)] = phi
        full_rho = np.zeros((B, self.full.num_servers))
        full_rho[:, self._full_server] = rho
        full_xi = np.zeros((B, self.full.num_servers))
        depth = self.prepared.arrays.depth
        full_xi[:, self._full_server] = xi[:, np.arange(len(depth)), depth]
        return full_phi, full_rho, full_xi


@dataclass(frozen=True)
class _Forest:
    """
    A network already checked to be a forest (no cycle, at most one
    successor per server), prepared once: every upstream view is then
    sliced from it with no check repeated.
    """

    net: Network
    succ: Tuple[int, ...]  # -1 at a sink
    preds: Tuple[Tuple[int, ...], ...]  # sorted
    rank: Tuple[int, ...]  # position in renumber's topological order
    unstable: Tuple[bool, ...]  # per server: not strictly stable

    def view(self, j1: int) -> UpstreamView:
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
        flows, origin_flow = _clip(self.net, new_id)
        sub_id = {j: s for s, j in enumerate(keep)}
        prepared = _PreparedTree(
            Network(tuple(self.net.servers[j] for j in order), flows),
            tuple(-1 if j == j1 else new_id[self.succ[j]] for j in order),
            new_id[j1],
            tuple(sub_id[j] for j in order),
            tuple(s for s, j in enumerate(keep) if self.unstable[j]),
        )
        return UpstreamView(self.net, origin_flow, tuple(keep), j1, prepared)


def _prepare_forest(net: Network, classes: Sequence[ServerClass]) -> _Forest:
    """
    Prepare an acyclic network, given its servers' local stability
    classes.

    :raises NotAForestError: if some server has several successors
    """
    n = net.num_servers
    arcs = induced_graph(net)
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
    return _Forest(
        net,
        tuple(succ),
        tuple(tuple(sorted(p)) for p in preds),
        tuple(rank),
        tuple(c is not ServerClass.STABLE for c in classes),
    )


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


def _clip(net: Network, new_id: Dict[int, int]) -> Tuple[Tuple[Flow, ...], Tuple[int, ...]]:
    """
    The flows of ``net`` that cross the servers of ``new_id``, cut to those
    servers and relabelled by it, with their ids in ``net``.  The servers
    are closed under predecessors, so a flow that crosses them starts there.
    """
    flows, origin = [], []
    for i, f in enumerate(net.flows):
        if f.path[0] in new_id:
            flows.append(Flow(f.arrival, tuple(new_id[j] for j in f.path if j in new_id)))
            origin.append(i)
    return tuple(flows), tuple(origin)


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
    flows, origin_flow = _clip(net, {j: s for s, j in enumerate(keep)})
    sub = Network(tuple(net.servers[j] for j in keep), flows)
    return UpstreamView(net, origin_flow, tuple(keep), j1, _root_view(sub).prepared)


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
    _check_flow_id(tree, flow)
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
    rate = sum(tree.flows[i].arrival.rate for i in interest)
    return TokenBucket(result.value.value, rate)
