"""
The feed-forward split one hop at a time: the reference the tests hold the
array split (``netcalc.decomposition._Split``), its views
``decompose`` and ``group_by_arc``, and the stability module's
decomposition to.

``decompose`` walks every flow's path and cuts it at each removed arc;
``group_by_arc`` looks up each continuation's parent segment by label;
``check_forest`` fills the set of the segments' arcs in path order and
scans it for a server with a second successor; ``columns`` lists a mixed
recursion's labels and the ``(root, interest segments)`` request of each
of its rows.  Not collected by pytest; the test modules import it.
"""

from typing import Dict, FrozenSet, List, Tuple

from netcalc.decomposition import ArcGroups, SplitFlow
from netcalc.errors import NotAForestError, ValidationError
from netcalc.network import Arc, Network, induced_graph, is_acyclic


def decompose(net: Network, removed) -> Tuple[SplitFlow, ...]:
    """Split every flow of ``net`` at each traversal of an arc in ``removed``."""
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
    return tuple(split)


def group_by_arc(split_flows) -> ArcGroups:
    """Group the continuations by the removed arc they cross."""
    index = {sf.label: s for s, sf in enumerate(split_flows)}
    feeding: Dict[Arc, set] = {}
    continuations: Dict[Arc, set] = {}
    arc_of: Dict[int, Arc] = {}
    for s, sf in enumerate(split_flows):
        if sf.segment == 0:
            continue
        prev = index[(sf.origin, sf.segment - 1)]
        arc = (split_flows[prev].path[-1], sf.path[0])
        feeding.setdefault(arc, set()).add(prev)
        continuations.setdefault(arc, set()).add(s)
        arc_of[s] = arc
    return ArcGroups(
        {a: frozenset(v) for a, v in feeding.items()},
        {a: frozenset(v) for a, v in continuations.items()},
        arc_of,
    )


def check_forest(split_flows, n: int) -> None:
    """Raise :class:`NotAForestError` when some server has several successors."""
    arcs = set()
    for sf in split_flows:
        arcs.update(zip(sf.path, sf.path[1:]))
    succ = [-1] * n
    for u, v in arcs:
        if succ[u] != -1:
            raise NotAForestError("removal leaves server %d with several successors" % u)
        succ[u] = v


def columns(split_flows, groups: ArcGroups, removed: FrozenSet[Arc], grouped: FrozenSet[Arc]):
    """
    ``(labels, requests)`` of the mixed recursion grouping ``grouped``: a
    column per continuation of an ungrouped arc, then one per grouped arc;
    a row per column, at the parent segment's end or the grouped arc's
    tail, with its interest segments sorted.
    """
    extra = grouped - removed
    if extra:
        raise ValidationError("grouped arcs not in the removal: %r" % sorted(extra))
    index = {sf.label: s for s, sf in enumerate(split_flows)}
    singles = [sf.label for s, sf in enumerate(split_flows)
               if sf.segment >= 1 and groups.arc_of[s] not in grouped]
    arcs = tuple(sorted(grouped))
    requests = []
    for i, k in singles:
        prev = index[(i, k - 1)]
        requests.append((split_flows[prev].path[-1], [prev]))
    requests += [(arc[0], sorted(groups.feeding[arc])) for arc in arcs]
    return tuple(singles) + arcs, requests
