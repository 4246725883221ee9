"""
The case enumeration one case vector at a time: the reference the tests
hold ``netcalc.oracle._bruteforce`` to, bit for bit.

``_bruteforce`` below is the loop the breadth-first array evaluation
replaced: it walks every case vector in ``itertools.product`` order,
evaluates each with the scalar ``_evaluate_case`` and keeps the first
maximum.  Not collected by pytest; the test modules import it.
"""

import itertools
from typing import FrozenSet

from netcalc.errors import LocallyUnstableError, NotATreeError, OracleSizeError
from netcalc.network import Network, Topology, classify, local_stability
from netcalc.oracle import MAX_ORACLE_SERVERS, _case_tables, _evaluate_case


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
            best = (value, case, deltas)
    return best
