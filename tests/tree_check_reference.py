"""
The tree check of the tree analyses as it was made with
:func:`~netcalc.network.classify`: the reference their one check, the
preparation of a forest, is held to.

``reference_root_view`` checks the whole network; ``reference_upstream_view``
checks a sub-network of its own, the servers with a directed path to the
view's root (found by a depth-first search over the predecessors),
numbered in order, with every flow clipped to them and a flow that misses
them dropped.  Either then prepares the forest as the analyses do.  Not
collected by pytest; the test modules import it.
"""

from typing import List, Set

import numpy as np

from netcalc.errors import NotATreeError
from netcalc.network import (
    Flow, Network, Topology, _hops, _numbers, _paths, classify, induced_graph,
)
from netcalc.tree_analysis import UpstreamView, _prepare_forest


def check_tree(net: Network) -> None:
    """Raise :class:`NotATreeError` unless ``net`` classifies as a tandem or tree."""
    topology = classify(net)
    if topology not in (Topology.TANDEM, Topology.TREE):
        raise NotATreeError("topology is %s, need a tandem or tree" % topology.value)


def reference_root_view(net: Network) -> UpstreamView:
    """The whole of ``net``, checked by :func:`check_tree`, as the view at its one sink."""
    check_tree(net)
    forest = _prepare_forest(*_hops(_paths(net)), net.num_servers)
    return UpstreamView(forest, int(np.flatnonzero(forest.succ == -1)[0]), _numbers(net))


def upstream_servers(net: Network, j1: int) -> Set[int]:
    """Servers with a directed path to ``j1``, including ``j1``."""
    preds: List[List[int]] = [[] for _ in range(net.num_servers)]
    for u, v in induced_graph(net):
        preds[v].append(u)
    seen = {j1}
    stack = [j1]
    while stack:
        for u in preds[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def reference_upstream_view(net: Network, j1: int) -> UpstreamView:
    """
    The view at ``j1``: the servers upstream of it, checked by
    :func:`check_tree` as a network of their own, then the flows clipped
    to them on the full network's ids (a flow that misses them keeps its
    first server, so it adds no arc).
    """
    index = {j: s for s, j in enumerate(sorted(upstream_servers(net, j1)))}
    clipped = [[j for j in f.path if j in index] for f in net.flows]
    check_tree(Network(
        tuple([net.servers[j] for j in index]),
        tuple([Flow(f.arrival, [index[j] for j in p]) for f, p in zip(net.flows, clipped) if p]),
    ))
    paths = tuple([tuple(p) if p else f.path[:1] for f, p in zip(net.flows, clipped)])
    return UpstreamView(_prepare_forest(*_hops(paths), net.num_servers), j1, _numbers(net))
