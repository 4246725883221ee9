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

One pass computes the coefficients, for a batch of rows at once
(:meth:`_RowLayout.run`), on a position-major grid: one array row per
position on the way to a root, so that its sums along a path are row
operations in the reference's order of additions.  A row is a root server
and a set of interest flows crossing it; its pairs are the servers upstream
of its root, each at its distance to the root.  The pass takes one array
step per distance, for every pair of every row at that distance, from the
roots outward, so a batch costs one step per distance to the farthest root,
whatever the number of its rows and views.  Each batch is one direct call to
:class:`_RowLayout` by the code that knows its rows: :mod:`netcalc.stability`
lays out every row of a decomposition and of an ``analyze`` target on the
decomposition's forest (an objective given no weights, the target's row
alone); the public analyses (:func:`compute_xi`, :func:`tree_backlog`,
:meth:`UpstreamView.backlog` and the results built on them) one row each,
read as a dict-keyed :class:`XiTable`.  The scalar pass it was
derived from lives in the tests (``tests/xi_reference.py``) as the
reference it is held to; both add in the same order, so they agree to the
last bit (their float sums are explicit left folds, ``curves.left_sum``,
because the builtin ``sum`` compensates from Python 3.12 on).

A forest of flow paths is checked and prepared once from its hop arrays
(``_prepare_forest``: one successor per server, each server's depth to its
sink, the upstream mask and the crossings at each server in flow order).
Rows are laid out on it without rates (:class:`_RowLayout`, in the
network's own ids) and run with any ``_Numbers`` of :mod:`netcalc.network`.
:class:`UpstreamView` binds one server of a forest, the root of its view,
to those numbers.  The public :func:`upstream_view`, :func:`compute_xi`
and :func:`tree_backlog` accept any network: preparing the forest of its
paths (for a view, clipped to the servers upstream of its root) is their
one tree check, once per call.  A cycle, found first, a server with two
successors or, at the root, a second sink raises :class:`NotATreeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .curves import Bound, UNBOUNDED, TokenBucket, left_sum
from .decomposition import _removal
from .errors import (
    InterestNotAtRootError,
    LocallyUnstableError,
    NotAForestError,
    NotATreeError,
    ValidationError,
    ZeroRateFlowError,
)
from .network import (
    Flow,
    Network,
    _Numbers,
    _check_id,
    _check_interest,
    _hops,
    _numbers,
    _paths,
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


class _RowLayout:
    """
    A batch of rows on a prepared forest, laid out for the coefficient pass
    without rates.  A row is a root server and a set of interest flows
    crossing it.  A pair is a row and a server upstream of the row's root
    (the root included), at its distance ``k`` from the root; the pair's
    successor, the row and the server's successor, sits at ``k - 1``.

    The pairs are sorted by ``k``, so each distance is one block of them.
    Each distance ``k >= 1`` is one level ``(k, start, end, succ)`` of
    :attr:`levels`: the block's pairs ``start:end`` and their successors,
    as the slice of the previous block when the block's successors are
    that block in order, else as an index array.
    Coefficients live in a position-major grid of ``width`` rows of one
    cell per pair, cell ``p * size + q`` for pair ``q`` at position ``p``:
    position ``p`` of a pair is the ``p``-th server on its way to the root,
    exactly the cells of the pair's server in the view of the row's root.
    Every crossing of a flow and a pair's server is one bin, in flow order:
    the pair's interest rate, or the grid cell toward the flow's destination
    in the view, the root when the flow goes past it.
    """

    def __init__(self, forest: "_Forest", roots: np.ndarray, member_row: np.ndarray,
                 member_flow: np.ndarray):
        """Lay out row ``r`` at ``roots[r]``: its flows are ``member_flow[member_row == r]``."""
        depth = forest.depth
        R, F, n = len(roots), forest.num_flows, len(depth)
        interest = np.zeros((R, F), dtype=bool)
        interest[member_row, member_flow] = True
        row, server = np.nonzero(forest.upstream[:, roots].T)
        k = depth[server] - depth[roots[row]]
        order = np.argsort(k, kind="stable")
        row, server, k = row[order], server[order], k[order]
        P = len(k)
        self.width = W = int(k[-1]) + 1 if P else 1
        pair = np.zeros((R, n), dtype=np.intp)
        pair[row, server] = np.arange(P)
        # one block of pairs per distance d to the root, from bounds[d] to
        # bounds[d + 1]; a block whose successors are the previous block in
        # order is sliced, not gathered
        bounds = np.searchsorted(k, np.arange(W + 1)).tolist()
        after = pair[row, forest.succ[server]]
        succ = after.tolist()
        self.levels = [
            (d, s, e, slice(p, s) if succ[s:e] == list(range(p, s)) else after[s:e])
            for d, (p, s, e) in enumerate(zip(bounds, bounds[1:], bounds[2:]), 1)
        ]
        self.server, self.size = server, P
        # every crossing at every pair's server, in flow order per pair
        count = forest.at_count[server]
        pair_of = np.repeat(np.arange(P), count)
        at = np.arange(len(pair_of)) + np.repeat(
            forest.at_start[server] - (np.cumsum(count) - count), count
        )
        flow = forest.at_flow[at]
        row_flow = np.repeat(row * F, count) + flow  # (row, flow), flat
        own = interest.ravel()[row_flow]
        cell = np.minimum(forest.at_reach[at], np.repeat(k, count)) * P + pair_of
        self.own_pair, self.own_flow = pair_of[own], flow[own]
        cross = ~own
        self.cross_cell, self.cross_flow = cell[cross], flow[cross]
        # each row's flows: 1 for its own, else the cell of the flow's first
        # crossing, toward its destination; 0 outside the view
        entry = forest.at_entry[at] & cross
        self.entry_at, self.entry_cell = row_flow[entry], cell[entry]
        self.own_at = np.flatnonzero(interest)
        self.pair_at = row * n + server
        self.k = k
        self.last = k * P + np.arange(P)  # each pair's cell toward the root
        self.shape = (R, F, n)

    def toward_root(self, xi: np.ndarray) -> np.ndarray:
        """Each server's coefficient toward each row's root in the grid ``xi``, 0 outside."""
        R, _, n = self.shape
        table = np.zeros(R * n)
        table[self.pair_at] = xi.T.ravel()[self.last]
        return table.reshape(R, n)

    def run(self, num: _Numbers):
        """
        The coefficient pass with the rates of ``num`` (indexed by the
        forest's flows and servers).  Returns ``(phi, rho, xi)``: burst
        weights ``(rows, flows)`` and latency weights ``(rows, servers)``
        over the forest's ids (0 outside each row's view) and the pairs'
        coefficient grid, as the ``(pairs, width)`` view (the transpose) of
        the position-major ``(width, pairs)`` array the pass fills.

        Each distance to the root takes one array step for all its pairs,
        from the roots outward: candidates for every split position, then
        the split where the successor's coefficient stops dominating.  Every
        pair's arrays have the length and values of its server's in a pass
        over its row's view alone, and every sum runs in the scalar
        reference's order, so each row equals its table: ``bincount`` in
        flow order, and along paths ``np.add.accumulate`` and
        ``np.add.reduce`` over the grid's rows, which add row after row (a
        left fold, where a sum along a contiguous axis would add pairwise);
        the padding adds exact zeros.

        :raises LocallyUnstableError: naming the network id of a server,
            nearest to its root, whose cross traffic alone fills it
        """
        P, W = self.size, self.width
        R, F, n = self.shape
        r_star = np.bincount(self.own_pair, num.rate[self.own_flow], P)
        cross = np.bincount(self.cross_cell, num.rate[self.cross_flow], W * P).reshape(W, P)
        # den[p, q]: rate margin of q's server left by cross traffic ending up to position p
        den = num.service_rate[self.server] - np.add.accumulate(cross, axis=0)
        stuck = den.ravel()[self.last] <= 0
        if stuck.any():  # cross traffic alone fills the server
            raise LocallyUnstableError(
                "server %d cannot drain its local traffic" % self.server[stuck.argmax()]
            )
        xi = np.zeros((W, P))
        xi[0, :R] = r_star[:R] / den[0, :R]  # the roots, one per row, come first
        # the level at k fills rows 0..k of two buffers, as wide as the widest level:
        # ``work`` with the successor-weighted cross rates at positions 1..k (its row k
        # still zero), added from the far end into the tail beyond each position, then
        # turned into the candidates; ``above`` with where the successor's coefficient
        # exceeds the candidate (its row 0 never)
        work = np.zeros((W, max((e - s for _, s, e, _ in self.levels), default=0)))
        above = np.zeros(work.shape, dtype=bool)
        positions, columns = np.arange(W)[:, None], np.arange(work.shape[1])
        for k, s, e, succ in self.levels:
            after = xi[:k, succ]  # the successors' coefficients, positions 1..k
            m = e - s
            cand = work[: k + 1, :m]
            np.multiply(after, cross[1 : k + 1, s:e], out=cand[:k])
            np.add.accumulate(cand[::-1], axis=0, out=cand[::-1])
            cand += r_star[s:e]
            cand /= den[: k + 1, s:e]
            # the split is the largest position whose successor coefficient
            # does not exceed its candidate (position 0 always qualifies)
            np.greater(after, cand[1:], out=above[1 : k + 1, :m])
            split = k - above[k::-1, :m].argmin(axis=0)  # the first such from the far end
            cells = xi[: k + 1, s:e]
            cells[1:] = after
            np.copyto(cells, cand[split, columns[:m]], where=positions[: k + 1] <= split)
        rho = np.zeros(R * n)
        rho[self.pair_at] = r_star + np.add.reduce(xi * cross, axis=0)
        phi = np.zeros(R * F)
        phi[self.entry_at] = xi.ravel()[self.entry_cell]
        phi[self.own_at] = 1.0
        return phi.reshape(R, F), rho.reshape(R, n), xi.T


def _tree_forest(paths: Sequence[Sequence[int]], n: int) -> "_Forest":
    """:func:`_prepare_forest` of ``paths`` on ``n`` servers, refused as :class:`NotATreeError`."""
    try:
        return _prepare_forest(*_hops(paths), n)
    except ValidationError:
        raise NotATreeError("topology is cyclic, need a tandem or tree") from None
    except NotAForestError:
        raise NotATreeError("topology is feed-forward, need a tandem or tree") from None


def _root_view(tree: Network) -> "UpstreamView":
    """The whole of ``tree``, checked to be a tandem or tree, as the view at its root."""
    forest = _tree_forest(_paths(tree), tree.num_servers)
    sinks = np.flatnonzero(forest.succ == -1)
    if len(sinks) > 1:
        raise NotATreeError("topology is feed-forward, need a tandem or tree")
    return UpstreamView(forest, int(sinks[0]), _numbers(tree))


def compute_xi(tree: Network, interest: Iterable[int]) -> XiTable:
    """
    Coefficient table for the worst-case backlog at the root of ``tree``
    for the flows in ``interest``.

    The network may carry any server numbering (results are keyed by the
    caller's ids).  Runs in ``w`` array steps of ``O(n w + h)`` work in all,
    for ``n`` servers, ``w`` servers on the longest path to the root and
    ``h`` flow hops: one step per distance to the root, for every server
    at that distance over its path.

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
    diagnostic instead of an error, once its interest is checked.
    """
    return _root_view(tree).backlog(interest)


@dataclass(frozen=True)
class UpstreamView:
    """
    The sub-network upstream of one server of a prepared forest (the
    view at ``root``), bound to the network's numbers, for repeated backlog
    analyses with different interest sets: each is one row of the
    coefficient pass (:class:`_RowLayout`).

    Coefficient tables are expanded back over the full network's ids, with
    weight 0 outside.
    """

    forest: "_Forest"
    root: int
    numbers: _Numbers  # of the full network

    @cached_property
    def unstable_servers(self) -> List[int]:
        """Network ids of the view's servers that are not strictly stable, sorted."""
        return np.flatnonzero(self.forest.upstream[:, self.root] & self.numbers.unstable).tolist()

    @cached_property
    def at_root(self) -> FrozenSet[int]:
        """Network ids of the flows that cross the root."""
        start = self.forest.at_start[self.root]
        return frozenset(self.forest.at_flow[start : start + self.forest.at_count[self.root]].tolist())

    def backlog(self, interest: Iterable[int]) -> BacklogResult:
        """
        Worst-case backlog at the local root for full-network flow ids,
        with its table read off one row of the coefficient pass, laid out at
        the root on the view's forest once the interest flows are checked.

        :raises InterestNotAtRootError: if some flow is unknown or misses
            the local root
        """
        interest = _check_interest(interest, self.forest.num_flows, self.at_root, self.root)
        if self.unstable_servers:
            return BacklogResult(
                UNBOUNDED, None, "servers %r are not strictly stable" % self.unstable_servers
            )
        rows = _RowLayout(self.forest, np.array([self.root]), np.zeros(len(interest), np.intp),
                          np.fromiter(interest, np.intp, len(interest)))
        num, succ = self.numbers, self.forest.succ.tolist()
        phi, rho, grid = rows.run(num)
        xi = {}
        for j, k, cells in zip(rows.server.tolist(), rows.k.tolist(), grid.tolist()):
            t = j
            for v in cells[: k + 1]:
                xi[(j, t)] = v
                t = succ[t]
        full_rho = dict(enumerate(rho[0].tolist()))
        full_phi = dict(enumerate(phi[0].tolist()))
        # the zero weights outside the view add exact zeros to the value
        value = left_sum(full_rho[j] * t for j, t in enumerate(num.latency.tolist()))
        value += left_sum(full_phi[i] * b for i, b in enumerate(num.burst.tolist()))
        return BacklogResult(Bound(value), XiTable(xi, full_rho, full_phi, interest))


@dataclass(frozen=True, eq=False)
class _Forest:
    """
    Flow paths already checked to form a forest (no cycle, at most one
    successor per server), prepared once as arrays, rate-free: any batch of
    rows on it is laid out from them with no check repeated.
    """

    num_flows: int
    succ: np.ndarray  # per server: -1 at a sink
    depth: np.ndarray  # per server: arcs on its way to its sink
    upstream: np.ndarray  # [j, r]: r lies on j's way to its sink (r == j included)
    at_flow: np.ndarray  # per crossing, by server, in flow order: the flow
    at_reach: np.ndarray  # ... arcs from the server to the flow's last server
    at_entry: np.ndarray  # ... the server is the flow's first
    at_start: np.ndarray  # per server: its first crossing
    at_count: np.ndarray  # per server: its crossings


def _prepare_forest(length: np.ndarray, server: np.ndarray, n: int) -> _Forest:
    """
    Prepare the flow paths of a network of ``n`` servers, given
    as hop arrays: each path's length and the server of every hop of every
    path, in path order (:func:`~netcalc.network._hops`).

    :raises ValidationError: if the paths have a cycle, found first
    :raises NotAForestError: if some server has several successors
    """
    flow = np.repeat(np.arange(len(length)), length)
    inner = np.flatnonzero(flow[1:] == flow[:-1])  # hops h and h + 1 on one path
    arcs = set(zip(server[inner].tolist(), server[inner + 1].tolist()))  # filled in path order
    order = topological_order(arcs, n)
    succ = [-1] * n
    for u, v in arcs:
        if succ[u] != -1:
            raise NotAForestError("removal leaves server %d with several successors" % u)
        succ[u] = v
    way: List[List[int]] = [[]] * n  # each server's way to its sink
    for j in reversed(order):  # successors first
        way[j] = [j, *way[succ[j]]] if succ[j] != -1 else [j]
    steps = np.fromiter(map(len, way), np.intp, n)
    upstream = np.zeros((n, n), dtype=bool)
    upstream[np.repeat(np.arange(n), steps), np.fromiter(chain.from_iterable(way), np.intp)] = True
    depth = steps - 1
    ends = np.cumsum(length)
    entry = np.zeros(len(server), dtype=bool)
    entry[ends - length] = True
    by_server = np.argsort(server, kind="stable")  # flow order at each server
    at_count = np.bincount(server, minlength=n)
    return _Forest(
        len(length), np.array(succ, dtype=np.intp), depth, upstream,
        flow[by_server], (depth[server] - depth[server[ends - 1]][flow])[by_server],
        entry[by_server], np.cumsum(at_count) - at_count, at_count,
    )


def upstream_view(net: Network, j1: int) -> UpstreamView:
    """
    Extract the servers upstream of ``j1``, the tails of the arcs the
    breadth-first search of :func:`~netcalc.decomposition.removal_tree`
    from ``j1`` keeps, and clip the flows to them.  ``net`` may be any
    network: the clipped paths are checked to form a tree as they are
    prepared.
    """
    _check_id(j1, net.num_servers, InterestNotAtRootError, "unknown server %s")
    arcs = induced_graph(net)
    upstream = {j1, *(u for u, _ in arcs - _removal(arcs, net.num_servers, j1))}
    # a flow that misses the extracted servers keeps its first server: no arc
    paths = [[j for j in p if j in upstream] or p[:1] for p in _paths(net)]
    return UpstreamView(_tree_forest(paths, net.num_servers), j1, _numbers(net))


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
    _check_id(flow, tree.num_flows, InterestNotAtRootError, "unknown flow id %s")
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
    result = tree_backlog(tree, interest)
    if not result.value.is_finite:
        raise LocallyUnstableError(
            "no finite departure curve: %s" % (result.diagnostic or "unbounded")
        )
    # over the checked set, so a flow given twice adds its rate once
    rate = left_sum(tree.flows[i].arrival.rate for i in result.table.interest)
    return TokenBucket(result.value.value, rate)
