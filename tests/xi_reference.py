"""
The scalar coefficient pass: the reference the tests hold the array pass
(``netcalc.tree_analysis._xi_rows``) and the public tree analyses to.

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
from netcalc.network import Flow, Network
from netcalc.tree_analysis import XiTable


def tree_network(view) -> Network:
    """
    The renumbered tree an upstream view's array pass runs on, rebuilt from
    its rate-free shape and its numbers: the input of the scalar pass.
    """
    shape, num = view.shape, view.numbers
    rate, burst = num.rate.tolist(), num.burst.tolist()
    service_rate, latency = num.service_rate.tolist(), num.latency.tolist()
    servers = [RateLatency(service_rate[j], latency[j]) for j in shape.server.tolist()]
    paths: Dict[int, List[int]] = {}  # each view flow's crossings, in flow order
    for i, j in zip(shape.flow_at.tolist(), shape.server_at.tolist()):
        paths.setdefault(i, []).append(j)
    flows = [Flow(TokenBucket(burst[i], rate[i]), paths[i]) for i in shape.flow.tolist()]
    return Network(tuple(servers), tuple(flows))


def scalar_input(view, interest):
    """The arguments of the scalar passes for ``interest`` on the view (root last)."""
    succ = view.shape.succ
    return tree_network(view), frozenset(interest), succ, predecessors(succ), len(succ) - 1


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

