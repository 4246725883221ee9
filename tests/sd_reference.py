"""
The per-server recursion built one pair of hops at a time: the reference
the tests hold ``netcalc.stability.build_sd`` and the sd objective to,
bit for bit.

``build_sd`` below is the loop the array builder replaced: for each
variable ``(i, k)`` it walks every hop present at the server ``j`` of hop
``k - 1`` and adds that hop's burst, with the server's gain, to ``M`` or
(first hops) to ``N``.  ``objective`` walks the hops present at the target
server the same way.  Not collected by pytest; the test modules import it.
"""

from typing import List, Tuple

import numpy as np

from netcalc.curves import left_sum
from netcalc.errors import LocallyUnstableError, UnsupportedTargetError
from netcalc.network import Network
from netcalc.stability import LinearRecursion, ObjectiveForm, Target, _require_local_stability
from netcalc.network import _numbers


def labels_of(net: Network) -> Tuple[Tuple[int, int], ...]:
    """The variables: each flow's hops past the first, in flow order."""
    return tuple((i, k) for i, f in enumerate(net.flows) for k in range(1, len(f.path)))


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
    _require_local_stability(_numbers(net).unstable)
    labels = labels_of(net)
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


def objective(net: Network, target: Target) -> ObjectiveForm:
    """
    The backlog of ``target.flows`` at ``target.server`` over the variables:
    1 on each interest hop entering the server and the server's gain on each
    cross hop, first-hop bursts folded into the constant.
    """
    j = target.server
    index = {lab: pos for pos, lab in enumerate(labels_of(net))}
    hops = [(i, f.path.index(j)) for i, f in enumerate(net.flows) if j in f.path]
    interest = [(i, k) for i, k in hops if i in target.flows]
    missing = sorted(set(target.flows) - {i for i, _ in hops})
    if missing:
        raise UnsupportedTargetError("flow %d does not cross server %d" % (missing[0], j))
    if _numbers(net).unstable[j]:
        raise LocallyUnstableError("server %d has no strict rate margin" % j)
    cross = [(i, k) for i, k in hops if i not in target.flows]
    beta = net.servers[j]
    r_int = left_sum(net.flows[i].arrival.rate for i, _ in interest)
    r_cross = left_sum(net.flows[i].arrival.rate for i, _ in cross)
    gain = r_int / (beta.rate - r_cross)
    Q = np.zeros(len(index))
    C = gain * r_cross * beta.latency + r_int * beta.latency
    for i, k in interest:
        if k >= 1:
            Q[index[(i, k)]] += 1.0
        else:
            C += net.flows[i].arrival.burst
    for i, k in cross:
        if k >= 1:
            Q[index[(i, k)]] += gain
        else:
            C += gain * net.flows[i].arrival.burst
    return ObjectiveForm(Q, C)
