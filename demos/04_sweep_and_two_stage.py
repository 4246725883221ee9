#!/usr/bin/env python3
"""
Utilization sweeps and the two-stage combination.

On the heterogeneous ring (two slow servers), the tree decomposition gives
the best bounds at low load but diverges first; the arc grouping survives
to the local-stability limit.  The two-stage program takes the best of
both constraint sets pointwise.
"""

import sys

from netcalc import Target, analyze
from netcalc.decomposition import removal_tree
from netcalc.fileio import write_sweep_csv
from netcalc.topologies import uni_ring


def bounds_at(u):
    net = uni_ring(10, u, heterogeneous=True)
    target = Target.backlog(9, [0])
    removed = removal_tree(net)
    row = [u, analyze(net, "sd", target=target).bound.value]  # sd removes no arcs
    for method in ("td", "ag", "2s"):
        report = analyze(net, method, target=target, removed=removed)
        row.append(report.bound.value)
    return row


rows = [bounds_at(u / 100.0) for u in range(10, 100, 10)]
write_sweep_csv(sys.stdout, ["U", "SD", "TD", "AG", "TWO_STAGE"], rows)

print("\nnotice:", file=sys.stderr)
print("  - TD <= SD wherever both are finite (tight per-flow rows),", file=sys.stderr)
print("  - TWO_STAGE <= min(TD, AG) and equals AG once TD diverges.", file=sys.stderr)
