"""
The per-server recursion built one pair of hops at a time: the reference
the tests hold ``netcalc.stability.build_sd`` to, bit for bit.

``build_sd`` below is the loop the array builder replaced: for each
variable ``(i, k)`` it walks every hop present at the server ``j`` of hop
``k - 1`` and adds that hop's burst, with the server's gain, to ``M`` or
(first hops) to ``N``.  Not collected by pytest; the test modules import it.
"""

from typing import List, Tuple

import numpy as np

from netcalc.errors import LocallyUnstableError
from netcalc.network import Network
from netcalc.stability import LinearRecursion, _require_local_stability, sd_labels
from netcalc.network import _numbers


def build_sd(net: Network) -> LinearRecursion:
    """
    Per-server burst recursion: the burst of flow ``i`` entering its hop
    ``k+1`` grows from hop ``k`` by the server's deconvolution residue,

    .. math:: b_{i,k+1} \\le b_{i,k}
        + \\frac{r_i}{R_j - \\sum_{p \\ne i} r_p}
          \\Big(\\sum_{s \\ne (i,k)} b_s + R_j T_j\\Big),

    over all other hops ``s`` present at server ``j``.  First-hop bursts
    are known and folded into the constant vector.
    """
    _require_local_stability(_numbers(net))
    labels = sd_labels(net)
    index = {lab: pos for pos, lab in enumerate(labels)}
    L = len(labels)
    M = np.zeros((L, L))
    N = np.zeros(L)
    hops_at: List[List[Tuple[int, int]]] = [[] for _ in range(net.num_servers)]
    rate_at = [0.0] * net.num_servers
    for i, f in enumerate(net.flows):
        for k, j in enumerate(f.path):
            hops_at[j].append((i, k))
            rate_at[j] += f.arrival.rate
    for i, f in enumerate(net.flows):
        r_i = f.arrival.rate
        for k in range(1, len(f.path)):
            row = index[(i, k)]
            j = f.path[k - 1]
            beta = net.servers[j]
            margin = beta.rate - (rate_at[j] - r_i)
            if margin <= 0:
                raise LocallyUnstableError(
                    "server %d has no residual rate for flow %d" % (j, i)
                )
            gain = r_i / margin
            # burst entering hop k equals the backlog bound of hop k-1 at j
            if k - 1 >= 1:
                M[row, index[(i, k - 1)]] += 1.0
            else:
                N[row] += f.arrival.burst
            for p, q in hops_at[j]:
                if (p, q) == (i, k - 1):
                    continue
                if q >= 1:
                    M[row, index[(p, q)]] += gain
                else:
                    N[row] += gain * net.flows[p].arrival.burst
            N[row] += gain * beta.rate * beta.latency
    return LinearRecursion(labels, M, N)
