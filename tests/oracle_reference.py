"""
The case enumeration one case vector at a time: the reference the tests
hold ``netcalc.oracle._bruteforce`` to, bit for bit.

``_bruteforce`` below is the loop the breadth-first array evaluation
replaced: it walks every case vector in ``itertools.product`` order,
evaluates each with the scalar ``_evaluate_case`` (its burst and rate
tables are dicts built by ``_case_tables``) and keeps the first maximum:
``(value, period lengths)``.  Not collected by pytest; the test
modules import it.
"""

import itertools
from typing import Dict, FrozenSet, List

from netcalc.curves import left_sum
from netcalc.errors import LocallyUnstableError, NotATreeError, OracleSizeError
from netcalc.network import Network, Topology, classify, local_stability
from netcalc.oracle import MAX_ORACLE_SERVERS


def _case_tables(net: Network, interest: FrozenSet[int]):
    n = net.num_servers
    burst_jk: List[Dict[int, float]] = [dict() for _ in range(n)]
    burst_star = [0.0] * n
    rate_jk: List[Dict[int, float]] = [dict() for _ in range(n)]
    rate_star = [0.0] * n
    for i, flow in enumerate(net.flows):
        first, last = flow.path[0], flow.path[-1]
        if i in interest:
            burst_star[first] += flow.arrival.burst
            for j in flow.path:
                rate_star[j] += flow.arrival.rate
        else:
            burst_jk[first][last] = burst_jk[first].get(last, 0.0) + flow.arrival.burst
            for j in flow.path:
                rate_jk[j][last] = rate_jk[j].get(last, 0.0) + flow.arrival.rate
    return burst_jk, burst_star, rate_jk, rate_star


def _evaluate_case(net, case, burst_jk, burst_star, rate_jk, rate_star):
    """Backlog at the last server and the per-server period lengths."""
    n = net.num_servers
    x = [0.0] * n
    x_star = 0.0
    deltas = []
    for j in range(n):
        beta = net.servers[j]
        q = [0.0] * n
        for ell in range(j, n):
            q[ell] = (
                burst_jk[j].get(ell, 0.0)
                + x[ell]
                + rate_jk[j].get(ell, 0.0) * beta.latency
            )
        k = case[j]
        served_rate = left_sum(rate_jk[j].get(ell, 0.0) for ell in range(j, k + 1))
        margin = beta.rate - served_rate
        if margin <= 0:
            raise LocallyUnstableError("server %d cannot drain its local traffic" % j)
        stretch = left_sum(q[ell] for ell in range(j, k + 1)) / margin
        deltas.append(beta.latency + stretch)
        new_x = [0.0] * n
        for ell in range(k + 1, n):
            new_x[ell] = q[ell] + rate_jk[j].get(ell, 0.0) * stretch
        x_star = burst_star[j] + x_star + rate_star[j] * deltas[-1]
        x = new_x
    return x_star, deltas


def _bruteforce(net: Network, interest: FrozenSet[int]):
    n = net.num_servers
    if classify(net) is not Topology.TANDEM:
        raise NotATreeError("the case enumeration handles tandems only")
    if n > MAX_ORACLE_SERVERS:
        raise OracleSizeError("n=%d exceeds the enumeration limit %d" % (n, MAX_ORACLE_SERVERS))
    report = local_stability(net)
    if not report.stable:
        raise LocallyUnstableError(
            "servers %r are not strictly stable" % report.unstable_servers()
        )
    tables = _case_tables(net, interest)
    best = None
    for case in itertools.product(*(range(j, n) for j in range(n))):
        value, deltas = _evaluate_case(net, case, *tables)
        if best is None or value > best[0]:
            best = (value, deltas)
    return best
