"""
The four benchmark workloads and the inputs they generate.

A workload is a sequence of rounds; a round is a fixed list of operations
(ops), each a zero-argument callable that makes one user-level call into
netcalc and returns its output.  Runs always execute whole rounds, so every
run measures the same mix of op kinds and the latency percentiles pick the
same kinds of op from run to run.

netcalc is reached through module attributes (``nc.stability.analyze``)
rather than names imported here, so that the traced run's wrappers, which
replace those attributes, see every call the benchmark makes.

This module imports numpy and netcalc lazily, inside :func:`load_netcalc`,
so that the worker can time the import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

nc = None  # the netcalc package, bound by load_netcalc()
np = None

#: Fixed seed of the analyze_many network pool; --seed only picks from it.
POOL_SEED = 20181005
METHODS = ("sd", "td", "ag", "2s")


def load_netcalc():
    """Import netcalc and its submodules (the timed part of set-up)."""
    global nc, np
    import numpy
    import netcalc
    import netcalc.cli
    import netcalc.fileio
    import netcalc.fluid
    import netcalc.oracle
    import netcalc.stability
    import netcalc.topologies
    import netcalc.tree_analysis

    nc, np = netcalc, numpy
    return netcalc


@dataclass
class Op:
    key: str  # identifies the op's reference output
    call: Callable[[], object]


@dataclass
class Inputs:
    rounds: List[List[Op]]
    warmup: List[Callable[[], object]]
    repeat: bool = False  # rounds repeat without end; else a run stops after the last
    prepare: Optional[Callable[[int], None]] = None  # readies round r's input files

    def round(self, r: int) -> Optional[List[Op]]:
        """Round ``r``'s ops, with their inputs ready; None after the last round."""
        if self.repeat:
            return self.rounds[r % len(self.rounds)]
        if r >= len(self.rounds):
            return None
        if self.prepare is not None:
            self.prepare(r)
        return self.rounds[r]


def run_op(op: Op):
    """Run one op; an exception becomes its output instead of escaping."""
    try:
        return op.call()
    except Exception as exc:  # recorded and compared like any output
        return {"error": type(exc).__name__, "message": str(exc)}


# --------------------------------------------------------------- critical

# Every ring size up to 20 keeps the op latencies dense around the median,
# so noise cannot swap the median between two far-apart ops.
CRITICAL_UNI_SIZES = tuple(range(3, 21)) + (25, 30)
# Even bi-ring sizes fall back to the dense eigenvalue routine in the sd
# bisection, odd ones do not: 10 and 15 sit on both sides of that cliff.
CRITICAL_BI_SIZES = (10, 15)


def critical_cases(smoke: bool):
    if smoke:
        return [("uni_ring", 3, "sd"), ("uni_ring", 3, "td"), ("three_ring", 10, "ag")]
    cases = [("uni_ring", n, m) for n in CRITICAL_UNI_SIZES for m in ("sd", "td")]
    cases += [("three_ring", 10, m) for m in ("sd", "td", "ag")]
    cases += [("bi_ring", n, m) for n in CRITICAL_BI_SIZES for m in ("sd", "td")]
    return cases


def _family(kind: str, n: int):
    topo = nc.topologies
    if kind == "uni_ring":
        return lambda u: topo.uni_ring(n, u)
    if kind == "bi_ring":
        return lambda u: topo.bi_ring(n, u)
    return lambda u: topo.three_ring(u, ring_size=n)


def critical_key(kind: str, n: int, method: str) -> str:
    return "%s(%d)/%s" % (kind, n, method)


def setup_critical(seed: int, smoke: bool, workdir: str) -> Inputs:
    """The ring families are fixed; the seed does not change this workload."""
    ops = []
    for kind, n, method in critical_cases(smoke):
        fam = _family(kind, n)
        ops.append(Op(critical_key(kind, n, method),
                      lambda fam=fam, m=method: nc.stability.critical_utilization(fam, m)))
    warm = [lambda: nc.stability.critical_utilization(_family("bi_ring", 4), "sd")]
    return Inputs([ops], warm, repeat=True)


# ------------------------------------------------------------------ sweep

SWEEP_N = 12


def sweep_utilizations(smoke: bool) -> List[float]:
    """The grid of ``netcalc sweep`` defaults, accumulated the same way."""
    us, u = [], 0.05
    while u <= 0.95 + 1e-12:
        us.append(u)
        u += 0.05
    return us[:1] if smoke else us


def sweep_key(row: int, method: str) -> str:
    return "%d/%s" % (row, method)


def _sweep_cell(net, method, target):
    report = nc.stability.analyze(net, method, target=target)
    bound = report.bound.value if report.bound is not None else None
    return {"verdict": report.verdict, "bound": bound}


def setup_sweep(seed: int, smoke: bool, workdir: str) -> Inputs:
    """``netcalc sweep --kind bi_ring --n 12 --methods sd,td,ag,2s``, one op per cell."""
    ops = []
    for row, u in enumerate(sweep_utilizations(smoke)):
        net = nc.topologies.bi_ring(SWEEP_N, u)
        target = nc.stability.Target.backlog(net.num_servers - 1, [0])  # CLI default
        for m in METHODS:
            ops.append(Op(sweep_key(row, m),
                          lambda net=net, m=m, t=target: _sweep_cell(net, m, t)))
    warm = [lambda: _sweep_cell(nc.topologies.bi_ring(4, 0.1), m, nc.stability.Target.backlog(3, [0]))
            for m in METHODS]
    return Inputs([ops], warm, repeat=True)


# ----------------------------------------------------------- analyze_many

RING_SIZES = (4, 5, 6, 7, 8)
RINGS_PER_SIZE = 200  # pool depth: the most rounds one run can take
ORDER_BLOCK = 10  # the seed shuffles the pool's rings within blocks this long
FIXED_STRUCTURES = (
    [("bi_ring", n) for n in (3, 4, 5, 6)]
    + [("three_ring", s) for s in (3, 4, 5)]
    + [("toy", 4)]
)
UTILIZATIONS_PER_STRUCTURE = 20


def random_ring(rng, n: int):
    """
    Cyclic ring of ``n`` servers with the rate, burst and latency ranges of
    the acceptance suite's random rings.  Flow ``i`` starts at server ``i``
    and runs 2..n hops (so every ring arc is used); up to two extra flows
    have random starts and lengths.  Flow paths therefore differ between
    instances, and a cache keyed on network structure finds nothing to reuse.
    """
    paths = [tuple((i + k) % n for k in range(int(rng.integers(2, n + 1)))) for i in range(n)]
    for _ in range(int(rng.integers(0, 3))):
        start, length = int(rng.integers(0, n)), int(rng.integers(1, n + 1))
        paths.append(tuple((start + k) % n for k in range(length)))
    rates = rng.uniform(0.2, 2.0, len(paths))
    flows = [nc.Flow(nc.TokenBucket(float(rng.uniform(0.1, 4.0)), float(r)), p)
             for r, p in zip(rates, paths)]
    servers = []
    for j in range(n):
        load = float(sum(r for r, p in zip(rates, paths) if j in p))
        servers.append(nc.RateLatency(load * (1.0 + float(rng.uniform(0.05, 1.5))),
                                      float(rng.uniform(0.0, 0.5))))
    return nc.Network(tuple(servers), tuple(flows))


def ring_pool(n: int):
    """The pool's rings of size ``n``: distinct flow-path sets, fixed seed."""
    rng = np.random.default_rng([POOL_SEED, n])
    seen, pool = set(), []
    while len(pool) < RINGS_PER_SIZE:
        net = random_ring(rng, n)
        shape = tuple(f.path for f in net.flows)
        if shape not in seen:
            seen.add(shape)
            pool.append(net)
    return pool


def fixed_utilizations():
    rng = np.random.default_rng([POOL_SEED, 0])
    return rng.uniform(0.05, 0.6, (len(FIXED_STRUCTURES), UTILIZATIONS_PER_STRUCTURE))


def fixed_network(kind: str, size: int, u: float):
    topo = nc.topologies
    if kind == "bi_ring":
        return topo.bi_ring(size, u)
    if kind == "three_ring":
        return topo.three_ring(u, ring_size=size, short_len=2)
    return topo.toy(u)


def fixed_id(s: int, k: int) -> str:
    kind, size = FIXED_STRUCTURES[s]
    return "%s(%d)-u%d" % (kind, size, k)


def ring_id(n: int, k: int) -> str:
    return "ring%d-%d" % (n, k)


def analyze_argv(path: str, net, method: str) -> List[str]:
    """Bound the backlog of flow 1 at the last server of its path."""
    server = net.flows[0].path[-1] + 1
    return ["analyze", "--network", path, "--method", method,
            "--server", str(server), "--flows", "1", "--json"]


def run_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nc.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def pool_networks():
    """Every network of the analyze_many pool, by id."""
    nets = {}
    us = fixed_utilizations()
    for s, (kind, size) in enumerate(FIXED_STRUCTURES):
        for k in range(UTILIZATIONS_PER_STRUCTURE):
            nets[fixed_id(s, k)] = fixed_network(kind, size, float(us[s, k]))
    for n in RING_SIZES:
        for k, net in enumerate(ring_pool(n)):
            nets[ring_id(n, k)] = net
    return nets


def block_order(rng, size: int, block: int) -> List[int]:
    """``range(size)`` with each consecutive block of ``block`` shuffled."""
    order = []
    for start in range(0, size, block):
        order += [start + int(i) for i in rng.permutation(min(block, size - start))]
    return order


def setup_analyze_many(seed: int, smoke: bool, workdir: str) -> Inputs:
    """
    The seed picks one utilization for each fixed structure (run once, in
    the first round) and an order of the pool's rings; round ``r`` runs
    ring ``r`` of that order for each size, with all four methods.  Each
    round's network files are written just before it runs, outside the op
    timings, so set-up does not write a thousand files the run never reads.  The
    order shuffles the pool within consecutive blocks of ``ORDER_BLOCK``
    rings, so runs of the same length cover nearly the same rings whatever
    the seed, and their op mix differs only in the last, partial block.
    """
    os.makedirs(workdir, exist_ok=True)
    nets = pool_networks()
    pick = np.random.default_rng([seed, 0])
    chosen = pick.integers(UTILIZATIONS_PER_STRUCTURE, size=len(FIXED_STRUCTURES))
    orders = {n: block_order(pick, RINGS_PER_SIZE, ORDER_BLOCK) for n in RING_SIZES}

    def ops_for(net_id):
        net, path = nets[net_id], os.path.join(workdir, net_id + ".json")
        return [Op("%s/%s" % (net_id, m), lambda a=analyze_argv(path, net, m): run_cli(a))
                for m in METHODS]

    round_ids = []
    for r in range(1 if smoke else RINGS_PER_SIZE):
        ids = [fixed_id(s, int(k)) for s, k in enumerate(chosen)] if r == 0 else []
        round_ids.append(ids + [ring_id(n, int(orders[n][r])) for n in RING_SIZES])
    rounds = [[op for net_id in ids for op in ops_for(net_id)] for ids in round_ids]

    def prepare(r):
        for net_id in round_ids[r]:
            nc.fileio.save_network(nets[net_id], os.path.join(workdir, net_id + ".json"))
    # Warm up on a size outside the pool so no pool structure is seen early.
    warm_net = random_ring(np.random.default_rng([POOL_SEED, 3]), 3)
    warm_path = os.path.join(workdir, "warmup.json")
    nc.fileio.save_network(warm_net, warm_path)
    warm = [lambda a=analyze_argv(warm_path, warm_net, m): run_cli(a) for m in METHODS]
    return Inputs(rounds, warm, prepare=prepare)


# ------------------------------------------------------------------ fluid

# Eight trees and two tandems per round: the 6-server tandems fill the
# 80-90 % band of op latencies, where the tail percentile sits.
TREE_SHAPES = [(2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]
TANDEM_SIZES = (6, 7)
FLUID_ROUNDS = 100  # most rounds one run can take
FLUID_DT = 2.5e-3
FLUID_HORIZON = 3.0


def random_tree(rng, n: int, m: int):
    """Locally stable in-tree, as in the acceptance suite's simulation check."""
    succ = [int(rng.integers(j + 1, n)) if j < n - 1 else -1 for j in range(n)]
    paths = []
    for _ in range(m):
        path = [int(rng.integers(0, n))]
        while succ[path[-1]] != -1 and rng.random() < 0.8:
            path.append(succ[path[-1]])
        paths.append(tuple(path))
    paths += [(j, succ[j]) for j in range(n - 1)]
    rates = rng.uniform(0.1, 1.0, len(paths))
    flows = [nc.Flow(nc.TokenBucket(float(rng.uniform(0.1, 5.0)), float(r)), p)
             for r, p in zip(rates, paths)]
    servers = []
    for j in range(n):
        local = float(sum(r for r, p in zip(rates, paths) if j in p))
        servers.append(nc.RateLatency(local * (1.0 + float(rng.uniform(0.05, 1.0))) + 0.05,
                                      float(rng.uniform(0.0, 2.0))))
    return nc.Network(tuple(servers), tuple(flows))


def random_tandem(rng, n: int, m: int):
    """Tandem with one spanning flow and latencies bounded away from zero."""
    paths = [tuple(range(n))]
    for _ in range(m - 1):
        a = int(rng.integers(0, n))
        paths.append(tuple(range(a, int(rng.integers(a, n)) + 1)))
    rates = rng.uniform(0.2, 1.0, m)
    flows = [nc.Flow(nc.TokenBucket(float(rng.uniform(0.2, 2.0)), float(r)), p)
             for r, p in zip(rates, paths)]
    servers = []
    for j in range(n):
        local = float(sum(r for r, p in zip(rates, paths) if j in p))
        servers.append(nc.RateLatency(local * (1.3 + float(rng.uniform(0, 0.7))),
                                      float(rng.uniform(0.05, 0.4))))
    return nc.Network(tuple(servers), tuple(flows))


def _sink_interest(net):
    root = net.num_servers - 1
    return root, [i for i, f in enumerate(net.flows) if f.path[-1] == root]


def fluid_random_op(net, sim_seed: int):
    """A random admissible run stays below the tight tree bound."""
    root, interest = _sink_interest(net)
    bound = nc.tree_analysis.tree_backlog(net, interest).value.value
    traj = nc.fluid.simulate_fluid(
        net, nc.fluid.random_scenario(net, FLUID_HORIZON, sim_seed), dt=FLUID_DT)
    observed = traj.max_backlog(root, interest)
    slack = nc.fluid.discretization_slack(net, FLUID_DT)
    checks = {
        "arrival_curves": nc.fluid.check_arrival_curves(traj),
        "strict_service": nc.fluid.check_strict_service(traj),
        "below_bound": observed <= bound + slack,
    }
    return {"observed": observed, "bound": bound, "checks": checks}


def fluid_extremal_op(net):
    """The reconstructed extremal run reaches the enumerated worst case."""
    root, candidates = _sink_interest(net)
    interest = candidates[: max(1, len(candidates) // 2)]
    target = nc.oracle.bruteforce_backlog(net, interest)
    bound = nc.tree_analysis.tree_backlog(net, interest).value.value
    scenario = nc.fluid.worst_case_scenario(net, interest)
    dt = max(min(s.latency for s in net.servers) / 50, scenario.horizon / 3000)
    traj = nc.fluid.simulate_fluid(net, scenario, dt=dt)
    observed = traj.max_backlog(root, interest)
    slack = nc.fluid.discretization_slack(net, dt)
    checks = {
        "arrival_curves": nc.fluid.check_arrival_curves(traj),
        "strict_service": nc.fluid.check_strict_service(traj),
        "below_bound": observed <= bound + slack,
        "reaches_oracle": abs(observed - target) <= slack,
    }
    return {"observed": observed, "bound": bound, "oracle": target, "checks": checks}


def setup_fluid(seed: int, smoke: bool, workdir: str) -> Inputs:
    """
    Round ``r`` draws its trees and their scenarios from ``(seed, r)``.  Its
    tandems come from a fixed sequence, the same for every seed: they are
    few per run and their cost varies threefold with their flows and step
    size, so drawing them from the seed would move the tail percentile,
    which sits among the 6-server tandems, between seeds.
    """
    rounds = []
    for r in range(1 if smoke else FLUID_ROUNDS):
        rng, tandem_rng = np.random.default_rng([seed, r]), np.random.default_rng([POOL_SEED, 2, r])
        ops = []
        for n, m in TREE_SHAPES:
            net, sim_seed = random_tree(rng, n, m), int(rng.integers(2**31))
            ops.append(Op("tree%d.%d" % (n, m), lambda net=net, s=sim_seed: fluid_random_op(net, s)))
        for n in TANDEM_SIZES:
            net = random_tandem(tandem_rng, n, int(tandem_rng.integers(3, 6)))
            ops.append(Op("tandem%d" % n, lambda net=net: fluid_extremal_op(net)))
        rounds.append(ops)
    warm_rng = np.random.default_rng([POOL_SEED, 1])
    warm_tree, warm_tandem = random_tree(warm_rng, 2, 2), random_tandem(warm_rng, 3, 2)
    warm = [lambda: fluid_random_op(warm_tree, 0), lambda: fluid_extremal_op(warm_tandem)]
    return Inputs(rounds, warm)


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool, str], Inputs]
    tail_percentile: float  # fixed, inside a dense band of op latencies
    min_rounds: int  # enough for >= 10 samples beyond the tail percentile
    trace_rounds: int  # the traced run's fixed amount of work


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("critical", setup_critical, 80.0, 3, 1),
        Workload("sweep", setup_sweep, 95.0, 3, 1),
        Workload("analyze_many", setup_analyze_many, 90.0, 10, 10),
        Workload("fluid", setup_fluid, 85.0, 10, 3),
    )
}


def nearest_rank(sorted_values: List[float], percentile: float):
    """Value at ``percentile`` (nearest rank) and the count beyond it."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank
