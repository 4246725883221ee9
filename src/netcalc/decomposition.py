#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Feed-forward transformation of a network: removing arcs until the induced
graph is acyclic, splitting each flow into segments at the removed arcs,
and grouping the resulting segments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from .curves import TokenBucket
from .errors import ValidationError
from .network import Arc, Flow, Network, induced_graph, is_acyclic


@dataclass(frozen=True)
class SplitFlow:
    """
    One segment of a flow after the feed-forward transformation.

    :param origin: id of the flow this segment comes from
    :param segment: 0-based position of the segment along the original flow
    :param path: servers crossed by this segment

    The burst of a segment is only known a priori for first segments
    (``segment == 0``); later segments inherit the rate but their burst is
    the unknown the fix-point methods solve for.
    """

    origin: int
    segment: int
    path: Tuple[int, ...]

    @property
    def burst_known(self) -> bool:
        return self.segment == 0

    @property
    def label(self) -> Tuple[int, int]:
        return (self.origin, self.segment)


@dataclass(frozen=True)
class FFNetwork:
    """
    Result of a feed-forward decomposition: the base network, the removed
    arcs and the split flows (rates inherited from their origin flows).
    """

    base: Network
    removed: FrozenSet[Arc]
    split_flows: Tuple[SplitFlow, ...]

    @cached_property
    def _positions(self) -> Dict[Tuple[int, int], int]:
        """``(origin, segment)`` label -> split flow position, built once."""
        return {sf.label: s for s, sf in enumerate(self.split_flows)}

    def index_of(self, label: Tuple[int, int]) -> int:
        """
        Position of the split flow with the given ``(origin, segment)``.

        :raises KeyError: if no split flow carries that label
        """
        return self._positions[label]

    def as_network(self) -> Network:
        """
        The decomposed network as a plain :class:`Network`: one flow per
        segment, with the origin's burst on first segments and burst 0 on
        continuations (whose actual burst is unknown).
        """
        flows = []
        for sf in self.split_flows:
            origin = self.base.flows[sf.origin].arrival
            burst = origin.burst if sf.burst_known else 0.0
            flows.append(Flow(TokenBucket(burst, origin.rate), sf.path))
        return Network(self.base.servers, tuple(flows))


def decompose(net: Network, removed) -> FFNetwork:
    """
    Split every flow of ``net`` at each traversal of an arc in ``removed``.

    :raises ValidationError: if some removed arc is not an induced arc, or
        if the residual graph still has a cycle

    >>> from .curves import RateLatency
    >>> net = Network([RateLatency(5, 0)] * 2,
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1, 0))])
    >>> ff = decompose(net, {(1, 0)})
    >>> [sf.path for sf in ff.split_flows]
    [(0, 1), (1,), (0,)]
    """
    removed = frozenset(removed)
    arcs = induced_graph(net)
    extra = removed - arcs
    if extra:
        raise ValidationError("removed arcs not in induced graph: %r" % sorted(extra))
    if not is_acyclic(arcs - removed, net.num_servers):
        raise ValidationError("residual graph still has a cycle")
    split: List[SplitFlow] = []
    for i, flow in enumerate(net.flows):
        segment = 0
        current = [flow.path[0]]
        for u, v in zip(flow.path, flow.path[1:]):
            if (u, v) in removed:
                split.append(SplitFlow(i, segment, tuple(current)))
                segment += 1
                current = [v]
            else:
                current.append(v)
        split.append(SplitFlow(i, segment, tuple(current)))
    return FFNetwork(net, removed, tuple(split))


def removal_tree(net: Network, root: Optional[int] = None) -> FrozenSet[Arc]:
    """
    Heuristic arc removal leaving an in-forest: keep a BFS in-tree of the
    arcs reverse-reachable from ``root`` (default: the highest-index
    server), remove everything else.  Deterministic: the BFS queue is FIFO
    and predecessors are explored in increasing index order.

    On a ring this removes exactly the arc closing the cycle at the root.
    Finding a minimum removal is NP-complete, hence the heuristic; any
    user-chosen removal can be passed to :func:`decompose` directly.
    """
    arcs = induced_graph(net)
    if root is None:
        root = net.num_servers - 1
    if not (0 <= root < net.num_servers):
        raise ValidationError("unknown root server %d" % root)
    predecessors: Dict[int, List[int]] = {j: [] for j in range(net.num_servers)}
    for u, v in arcs:
        predecessors[v].append(u)
    kept = set()
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in sorted(predecessors[v]):
            if u not in seen:
                seen.add(u)
                kept.add((u, v))
                queue.append(u)
    return frozenset(arcs - kept)


@dataclass(frozen=True)
class ArcGroups:
    """
    Grouping of the split flows by removed arc.

    ``feeding[a]`` holds the segments ending at the tail of ``a`` whose
    continuation starts at its head; ``continuations[a]`` holds those
    continuations, and ``arc_of`` maps each continuation back to ``a``.
    """

    feeding: Dict[Arc, FrozenSet[int]]
    continuations: Dict[Arc, FrozenSet[int]]
    arc_of: Dict[int, Arc]


def group_by_arc(ff: FFNetwork) -> ArcGroups:
    """
    Group continuations according to the removed arc they cross.

    >>> from .curves import RateLatency
    >>> net = Network([RateLatency(5, 0)] * 2,
    ...               [Flow(TokenBucket(1, 1), (0, 1)),
    ...                Flow(TokenBucket(1, 1), (1, 0))])
    >>> groups = group_by_arc(decompose(net, {(1, 0)}))
    >>> sorted(groups.continuations[(1, 0)])
    [2]
    >>> groups.arc_of
    {2: (1, 0)}
    """
    feeding: Dict[Arc, set] = {a: set() for a in ff.removed}
    continuations: Dict[Arc, set] = {a: set() for a in ff.removed}
    arc_of: Dict[int, Arc] = {}
    for s, sf in enumerate(ff.split_flows):
        nxt = ff._positions.get((sf.origin, sf.segment + 1))
        if nxt is None:
            continue
        arc = (sf.path[-1], ff.split_flows[nxt].path[0])
        feeding[arc].add(s)
        continuations[arc].add(nxt)
        arc_of[nxt] = arc
    return ArcGroups(
        {a: frozenset(v) for a, v in feeding.items()},
        {a: frozenset(v) for a, v in continuations.items()},
        arc_of,
    )
