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

Two passes compute the coefficients.  ``_xi_general`` (with its sink-tree
specialization ``_xi_sink_tree``) is the scalar reference: one interest
set, dict-keyed tables, used by :func:`compute_xi`, :func:`tree_backlog`
and :meth:`UpstreamView.backlog`.  ``_xi_rows`` is the array pass: a batch
of interest sets on one prepared tree in one root-to-leaves sweep, one
array step per server for all of them.  The recursion builders take every
row of one upstream view from one array pass
(:meth:`UpstreamView.coefficient_rows`).  Both passes add in the same
order, so they agree to the last bit (to rounding from Python 3.12 on,
whose ``sum`` compensates).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .curves import Bound, UNBOUNDED, TokenBucket
from .errors import (
    InterestNotAtRootError,
    LocallyUnstableError,
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
    renumber,
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

    def evaluate(self, bursts: Sequence[float], latencies: Sequence[float]) -> float:
        """Re-evaluate the linear form on explicit bursts and latencies."""
        if self.table is None:
            raise ValueError("no linear form available (unstable instance)")
        total = sum(self.table.rho.get(j, 0.0) * t for j, t in enumerate(latencies))
        total += sum(self.table.phi.get(i, 0.0) * b for i, b in enumerate(bursts))
        return total


def _tree_structure(net: Network) -> Tuple[List[int], List[List[int]], int]:
    """Successor array, predecessor lists and root of a conforming tree."""
    n = net.num_servers
    succ = [-1] * n
    preds: List[List[int]] = [[] for _ in range(n)]
    for u, v in induced_graph(net):
        if succ[u] != -1:
            raise NotATreeError("server %d has two successors" % u)
        succ[u] = v
        preds[v].append(u)
    roots = [j for j in range(n) if succ[j] == -1]
    if len(roots) != 1:
        raise NotATreeError("expected a unique sink, found %r" % roots)
    return succ, preds, roots[0]


@dataclass(frozen=True)
class _PreparedTree:
    """A validated, renumbered tree ready for repeated coefficient runs."""

    net: Network  # renumbered: every successor has a larger id, sink last
    succ: Tuple[int, ...]
    preds: Tuple[Tuple[int, ...], ...]
    root: int
    new_to_old: Tuple[int, ...]
    sink_tree: bool
    unstable_servers: Tuple[int, ...]  # original ids; empty when locally stable

    @cached_property
    def arrays(self) -> "_TreeArrays":
        """Index arrays of the array pass, built on its first use."""
        return _tree_arrays(self)


def _prepare_tree(tree: Network) -> _PreparedTree:
    topology = classify(tree)
    if topology not in (Topology.TANDEM, Topology.TREE):
        raise NotATreeError("topology is %s, need a tandem or tree" % topology.value)
    report = local_stability(tree)
    net2, old_to_new = renumber(tree)
    succ, preds, root = _tree_structure(net2)
    new_to_old = [0] * len(old_to_new)
    for old, new in enumerate(old_to_new):
        new_to_old[new] = old
    return _PreparedTree(
        net2,
        tuple(succ),
        tuple(tuple(sorted(p)) for p in preds),
        root,
        tuple(new_to_old),
        _is_sink_tree(net2, root),
        tuple(report.unstable_servers()),
    )


def _xi_prepared(prep: _PreparedTree, interest: FrozenSet[int]) -> XiTable:
    """Run the coefficient pass and translate back to the caller's ids."""
    if prep.unstable_servers:
        raise LocallyUnstableError(
            "servers %r are not strictly stable" % list(prep.unstable_servers)
        )
    for i in interest:
        if prep.net.flows[i].path[-1] != prep.root:
            raise InterestNotAtRootError("flow %d does not cross the root" % i)
    if prep.sink_tree:
        table = _xi_sink_tree(prep.net, interest, prep.succ, prep.preds, prep.root)
    else:
        table = _xi_general(prep.net, interest, prep.succ, prep.preds, prep.root)
    back = prep.new_to_old
    xi = {(back[j], back[k]): v for (j, k), v in table.xi.items()}
    rho = {back[j]: v for j, v in table.rho.items()}
    return XiTable(xi, rho, table.phi, interest)


def _is_sink_tree(net: Network, root: int) -> bool:
    return all(f.path[-1] == root for f in net.flows)


def _rate_tables(net: Network, interest: FrozenSet[int]):
    """Interest rate and per-destination cross rate at every server."""
    n = net.num_servers
    r_star = [0.0] * n
    r_jk = [dict() for _ in range(n)]  # type: List[Dict[int, float]]
    for i, flow in enumerate(net.flows):
        r = flow.arrival.rate
        for j in flow.path:
            if i in interest:
                r_star[j] += r
            else:
                dest = flow.path[-1]
                r_jk[j][dest] = r_jk[j].get(dest, 0.0) + r
    return r_star, r_jk


def _xi_general(net: Network, interest: FrozenSet[int], succ, preds, root):
    """Root-to-leaves computation of the full xi table."""
    n = net.num_servers
    r_star, r_jk = _rate_tables(net, interest)
    xi: Dict[Tuple[int, int], float] = {}

    den0 = net.servers[root].rate - r_jk[root].get(root, 0.0)
    if den0 <= 0:
        raise LocallyUnstableError("server %d cannot drain its local traffic" % root)
    xi[(root, root)] = r_star[root] / den0

    queue = deque(sorted(preds[root]))
    while queue:
        j = queue.popleft()
        js = succ[j]
        path = [j]
        while path[-1] != root:
            path.append(succ[path[-1]])
        last = len(path) - 1
        rates = [r_jk[j].get(k, 0.0) for k in path]
        # den_sum[p]: cross rate bound for destinations up to position p;
        # num_tail[p]: successor-weighted cross rates strictly beyond p.
        den_sum = [0.0] * (last + 1)
        acc = 0.0
        for p in range(last + 1):
            acc += rates[p]
            den_sum[p] = acc
        num_tail = [0.0] * (last + 1)
        acc = 0.0
        for p in range(last, 0, -1):
            num_tail[p - 1] = acc + xi[(js, path[p])] * rates[p]
            acc = num_tail[p - 1]

        def cand(p: int) -> float:
            den = net.servers[j].rate - den_sum[p]
            if den <= 0:
                raise LocallyUnstableError(
                    "server %d cannot drain its local traffic" % j
                )
            return (r_star[j] + num_tail[p]) / den

        p = last
        while p >= 1 and xi[(js, path[p])] > cand(p):
            xi[(j, path[p])] = xi[(js, path[p])]
            p -= 1
        value = cand(p)
        for q in range(p + 1):
            xi[(j, path[q])] = value
        for u in sorted(preds[j]):
            queue.append(u)

    rho = {}
    for j in range(n):
        path = [j]
        while path[-1] != root:
            path.append(succ[path[-1]])
        rho[j] = r_star[j] + sum(
            xi[(j, k)] * r_jk[j].get(k, 0.0) for k in path
        )
    phi = {
        i: 1.0 if i in interest else xi[(f.path[0], f.path[-1])]
        for i, f in enumerate(net.flows)
    }
    return XiTable(xi, rho, phi, interest)


def _xi_sink_tree(net: Network, interest: FrozenSet[int], succ, preds, root):
    """
    Linear-time specialization when every flow ends at the root: only the
    root-destination coefficients matter and each server needs one test.
    """
    n = net.num_servers
    r_star, r_jk = _rate_tables(net, interest)
    xi: Dict[Tuple[int, int], float] = {}

    den0 = net.servers[root].rate - r_jk[root].get(root, 0.0)
    if den0 <= 0:
        raise LocallyUnstableError("server %d cannot drain its local traffic" % root)
    xi[(root, root)] = r_star[root] / den0
    queue = deque(sorted(preds[root]))
    while queue:
        j = queue.popleft()
        den = net.servers[j].rate - r_jk[j].get(root, 0.0)
        if den <= 0:
            raise LocallyUnstableError("server %d cannot drain its local traffic" % j)
        xi[(j, root)] = max(xi[(succ[j], root)], r_star[j] / den)
        for u in sorted(preds[j]):
            queue.append(u)
    rho = {j: r_star[j] + xi[(j, root)] * r_jk[j].get(root, 0.0) for j in range(n)}
    phi = {
        i: 1.0 if i in interest else xi[(f.path[0], root)]
        for i, f in enumerate(net.flows)
    }
    return XiTable(xi, rho, phi, interest)


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
    The array pass: ``_xi_general`` for a batch of ``B`` interest sets at
    once, in ``prep``'s renumbered ids.  Returns ``(phi, rho, xi_root)``:
    burst weights ``(B, flows)``, latency weights ``(B, servers)`` and each
    server's coefficient toward the root ``(B, servers)``.

    Every sum runs in the scalar pass's order (``bincount`` in flow order,
    ``cumsum`` along paths), so each row equals the scalar table.  Each
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
    xi_root = xi[:, servers, a.depth]
    return phi, rho, xi_root


def compute_xi(tree: Network, interest: Iterable[int]) -> XiTable:
    """
    Coefficient table for the worst-case backlog at the root of ``tree``
    for the flows in ``interest``.

    The network may carry any server numbering (it is renumbered
    internally; results are keyed by the caller's ids).  Runs in
    ``O(n^2 + m)``, and in ``O(n + m)`` on sink trees.

    :raises NotATreeError: if the topology is not a tandem or tree
    :raises InterestNotAtRootError: if some interest flow misses the root
    :raises LocallyUnstableError: if some server lacks a strict rate margin

    >>> from .curves import RateLatency
    >>> net = Network([RateLatency(2.0, 1.0), RateLatency(4.0, 1.0)],
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1,))])
    >>> table = compute_xi(net, [0])
    >>> round(table.xi[(1, 1)], 12), round(table.xi[(0, 1)], 12)
    (0.333333333333, 0.5)
    """
    interest = frozenset(interest)
    for i in interest:
        if not (0 <= i < tree.num_flows):
            raise InterestNotAtRootError("unknown flow id %d" % i)
    return _xi_prepared(_prepare_tree(tree), interest)


def _backlog_from_table(tree: Network, table: XiTable) -> BacklogResult:
    value = sum(table.rho[j] * tree.servers[j].latency for j in range(tree.num_servers))
    value += sum(
        table.phi[i] * tree.flows[i].arrival.burst for i in range(tree.num_flows)
    )
    return BacklogResult(Bound(value), table)


def tree_backlog(tree: Network, interest: Iterable[int]) -> BacklogResult:
    """
    Worst-case backlog at the root of ``tree`` for the flows in
    ``interest``; the bound is tight for tandem and tree topologies.

    A network that is not locally stable yields an unbounded value with a
    diagnostic instead of an error.
    """
    interest = frozenset(interest)
    prep = _prepare_tree(tree)
    if prep.unstable_servers:
        return BacklogResult(
            UNBOUNDED,
            None,
            "servers %r are not strictly stable" % list(prep.unstable_servers),
        )
    return _backlog_from_table(tree, _xi_prepared(prep, interest))


def _ancestors(net: Network, j1: int) -> List[int]:
    """Servers with a directed path to ``j1`` (including ``j1``)."""
    preds: Dict[int, List[int]] = {j: [] for j in range(net.num_servers)}
    for u, v in induced_graph(net):
        preds[v].append(u)
    seen = {j1}
    queue = deque([j1])
    while queue:
        v = queue.popleft()
        for u in preds[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return sorted(seen)


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
    sub: Network
    origin_flow: Tuple[int, ...]  # sub flow id -> full flow id
    origin_server: Tuple[int, ...]  # sub server id -> full server id
    root: int  # analysed server, full ids
    prepared: _PreparedTree

    def backlog(self, interest: Iterable[int]) -> BacklogResult:
        """Worst-case backlog at the local root for full-network flow ids."""
        interest = frozenset(interest)
        for i in interest:
            if self.root not in self.full.flows[i].path:
                raise InterestNotAtRootError(
                    "flow %d does not cross server %d" % (i, self.root)
                )
        if self.prepared.unstable_servers:
            return BacklogResult(
                UNBOUNDED,
                None,
                "servers %r are not strictly stable"
                % list(self.prepared.unstable_servers),
            )
        wanted = set(interest)
        sub_interest = frozenset(
            s for s, i in enumerate(self.origin_flow) if i in wanted
        )
        result = _backlog_from_table(
            self.sub, _xi_prepared(self.prepared, sub_interest)
        )
        xi = {
            (self.origin_server[j], self.origin_server[k]): v
            for (j, k), v in result.table.xi.items()
        }
        rho = {j: 0.0 for j in range(self.full.num_servers)}
        for j, v in result.table.rho.items():
            rho[self.origin_server[j]] = v
        phi = {i: 0.0 for i in range(self.full.num_flows)}
        for s, v in result.table.phi.items():
            phi[self.origin_flow[s]] = v
        return BacklogResult(result.value, XiTable(xi, rho, phi, interest))

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
        batch = []
        for interest in interests:
            sub = []
            for i in interest:
                if i not in self._at_root:
                    raise InterestNotAtRootError(
                        "flow %d does not cross server %d" % (i, self.root)
                    )
                sub.append(self._at_root[i])
            batch.append(sub)
        if self.prepared.unstable_servers:
            raise LocallyUnstableError(
                "servers %r are not strictly stable"
                % list(self.prepared.unstable_servers)
            )
        phi, rho, xi_root = _xi_rows(self.prepared, batch)
        B = len(batch)
        full_phi = np.zeros((B, self.full.num_flows))
        full_phi[:, list(self.origin_flow)] = phi
        full_rho = np.zeros((B, self.full.num_servers))
        full_rho[:, self._full_server] = rho
        full_xi = np.zeros((B, self.full.num_servers))
        full_xi[:, self._full_server] = xi_root
        return full_phi, full_rho, full_xi


def upstream_view(net: Network, j1: int) -> UpstreamView:
    """Extract the servers upstream of ``j1`` and clip the flows to them."""
    if not (0 <= j1 < net.num_servers):
        raise InterestNotAtRootError("unknown server %d" % j1)
    keep = _ancestors(net, j1)
    keep_set = set(keep)
    new_server = {old: new for new, old in enumerate(keep)}
    sub_flows: List[Flow] = []
    origin_of: List[int] = []
    for i, flow in enumerate(net.flows):
        clipped = [new_server[j] for j in flow.path if j in keep_set]
        if not clipped:
            continue
        sub_flows.append(Flow(flow.arrival, tuple(clipped)))
        origin_of.append(i)
    sub_net = Network(tuple(net.servers[j] for j in keep), tuple(sub_flows))
    return UpstreamView(
        net, sub_net, tuple(origin_of), tuple(keep), j1, _prepare_tree(sub_net)
    )


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
