"""
The scalar coefficient pass: the reference the tests hold the array pass
(``netcalc.tree_analysis._RowLayout.run``) and the public tree analyses to.

``_xi_general`` computes one interest set's dict-keyed table on a prepared
tree (renumbered ids: every successor has a larger id), from the root
toward the leaves, one server and one split position at a time.
``_xi_sink_tree`` is its linear-time specialization when every flow ends
at the root: it keeps only the root column.  Not collected by pytest; the
test modules import it.
"""

from collections import deque
from typing import Dict, FrozenSet, List, Tuple

from netcalc.curves import RateLatency, TokenBucket, left_sum
from netcalc.errors import LocallyUnstableError
from netcalc.network import Flow, Network, renumber
from netcalc.tree_analysis import XiTable


def view_tree(view):
    """
    The renumbered tree of an upstream view, rebuilt from its forest's
    paths, its root and its numbers: the servers with a way to the root,
    the flows that start among them clipped to them, in flow order, then
    :func:`~netcalc.network.renumber` of that sub-network.  Returns the
    tree, each tree server's network id and each tree flow's network id.
    """
    forest, root, num = view.forest, view.root, view.numbers
    succ = forest.succ.tolist()

    def reaches(j):
        while j != -1 and j != root:
            j = succ[j]
        return j == root

    kept = [j for j in range(len(succ)) if reaches(j)]
    sub = {j: s for s, j in enumerate(kept)}
    rate, burst = num.rate.tolist(), num.burst.tolist()
    service_rate, latency = num.service_rate.tolist(), num.latency.tolist()
    flows, flow_ids = [], []
    for i, path in enumerate(forest_paths(forest)):
        if path[0] in sub:
            flows.append(Flow(TokenBucket(burst[i], rate[i]), [sub[j] for j in path if j in sub]))
            flow_ids.append(i)
    servers = [RateLatency(service_rate[j], latency[j]) for j in kept]
    tree, old_to_new = renumber(Network(tuple(servers), tuple(flows)))
    server = [0] * len(kept)
    for old, new in enumerate(old_to_new):
        server[new] = kept[old]
    return tree, server, flow_ids


def forest_paths(forest):
    """
    Every flow's path in a prepared forest, read back from its arrays: the
    flow's first server, then as many successors as arcs to its last.
    """
    succ = forest.succ.tolist()
    paths = [None] * forest.num_flows
    for j in range(len(succ)):
        for c in range(forest.at_start[j], forest.at_start[j] + forest.at_count[j]):
            if forest.at_entry[c]:
                path = [j]
                for _ in range(forest.at_reach[c]):
                    path.append(succ[path[-1]])
                paths[forest.at_flow[c]] = tuple(path)
    return paths


def scalar_input(view, interest):
    """
    The arguments of the scalar passes for ``interest``, in the tree's flow
    ids, on the view's renumbered tree (root last).
    """
    tree = view_tree(view)[0]
    succ = [-1] * tree.num_servers
    for f in tree.flows:
        for u, v in zip(f.path, f.path[1:]):
            succ[u] = v
    return tree, frozenset(interest), succ, predecessors(succ), len(succ) - 1


def predecessors(succ) -> List[List[int]]:
    """Predecessor lists of a successor table (-1 at the root)."""
    preds: List[List[int]] = [[] for _ in succ]
    for u, v in enumerate(succ):
        if v >= 0:
            preds[v].append(u)
    return preds


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
        rho[j] = r_star[j] + left_sum(
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

