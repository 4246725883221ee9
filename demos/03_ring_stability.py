#!/usr/bin/env python3
"""
Stability of cyclic networks by fix-point recursions.

Three ways of bounding the unknown bursts created by cutting the cycles:
per-server decomposition (sd), tree decomposition (td) and grouping the
flows of each removed arc (ag).  On the unidirectional ring, grouping
certifies stability all the way to the local-stability limit; on broken
decompositions like the bidirectional ring it cannot (a cycle of weight-1
coefficients keeps the spectral radius at or above one).
"""

from netcalc import Target, analyze, critical_utilization
from netcalc.topologies import bi_ring, uni_ring

print("unidirectional ring, 10 servers, utilization 0.5:")
net = uni_ring(10, 0.5)
target = Target.backlog(9, [0])  # flow 1 at the last server
for method in ("sd", "td", "ag", "2s"):
    report = analyze(net, method, target=target)
    print(
        "  %-3s rho=%-12.6g verdict=%-8s bound=%s"
        % (method, report.rho, report.verdict, report.bound)
    )

print("\ncritical utilizations (largest stable U):")
for method in ("sd", "td", "ag"):
    u = critical_utilization(lambda x: uni_ring(10, x), method)
    print("  %-3s %.4f" % (method, u))

print("\nbidirectional ring, 10 servers: the arc grouping carries a cycle")
print("of weight-1 coefficients, its matrix never contracts:")
for u in (0.1, 0.5):
    rho = analyze(bi_ring(10, u), "ag").rho
    print("  U=%.1f  rho(M_ag) = %.6f" % (u, rho))
print("whereas sd/td still certify small utilizations:")
for method in ("sd", "td"):
    u = critical_utilization(lambda x: bi_ring(10, x), method)
    print("  %-3s %.4f" % (method, u))
