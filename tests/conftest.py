"""Shared random-instance builders for the test suite, and a by-path loader."""

import importlib.util
import os
import sys

import numpy as np
import pytest

from netcalc import Flow, Network, RateLatency, TokenBucket
from netcalc.topologies import bi_ring, toy, uni_ring
from netcalc.tree_analysis import _RowLayout


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_by_path(name, *parts):
    """
    The module at ``os.path.join(ROOT, *parts)``, imported as ``name`` and
    registered in ``sys.modules`` (dataclasses look their module up there),
    with ``sys.path`` left alone.
    """
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *parts))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def as_network(base, split_flows):
    """
    The decomposed network as a plain :class:`Network`: one flow per
    segment of ``base``'s flows, with the origin's burst on first segments
    and burst 0 on continuations (whose actual burst is unknown).
    """
    flows = []
    for sf in split_flows:
        origin = base.flows[sf.origin].arrival
        burst = origin.burst if sf.segment == 0 else 0.0
        flows.append(Flow(TokenBucket(burst, origin.rate), sf.path))
    return Network(base.servers, tuple(flows))


def rows_at(forest, roots, batch):
    """Row ``b`` of the coefficient pass at ``roots[b]`` with the interest flows ``batch[b]``."""
    sizes = [len(interest) for interest in batch]
    member_flow = np.array([i for interest in batch for i in interest], dtype=np.intp)
    return _RowLayout(forest, np.array(roots, dtype=np.intp),
                      np.repeat(np.arange(len(batch)), sizes), member_flow)


def random_tandem(rng, n=None, m=None, stable_margin=(0.02, 1.0)):
    """
    Locally stable tandem: one spanning flow keeps all consecutive arcs
    present, the rest are random contiguous windows.  Rates, bursts and
    latencies are drawn in [0.1, 10]; each service rate exceeds the local
    aggregate by a random strict margin.
    """
    n = n if n is not None else int(rng.integers(2, 7))
    m = m if m is not None else int(rng.integers(2, 9))
    paths = [tuple(range(n))]
    for _ in range(m - 1):
        a = int(rng.integers(0, n))
        b = int(rng.integers(a, n))
        paths.append(tuple(range(a, b + 1)))
    rates = rng.uniform(0.1, min(10.0, 9.0 / m), m)
    bursts = rng.uniform(0.1, 10.0, m)
    flows = [
        Flow(TokenBucket(float(bursts[i]), float(rates[i])), paths[i])
        for i in range(m)
    ]
    servers = []
    for j in range(n):
        local = sum(rates[i] for i in range(m) if j in paths[i])
        margin = 1.0 + rng.uniform(*stable_margin)
        rate = min(10.0, max(local * margin, 0.1))
        if rate <= local:
            rate = local * margin  # keep strict stability over the cap
        servers.append(RateLatency(float(rate), float(rng.uniform(0.1, 10.0))))
    return Network(tuple(servers), tuple(flows))


def random_tree(rng, n=None, m=None):
    """
    Locally stable in-tree: each server's successor has a larger index,
    flows start anywhere and follow the tree toward a random stop.
    """
    n = n if n is not None else int(rng.integers(2, 8))
    m = m if m is not None else int(rng.integers(2, 7))
    succ = [int(rng.integers(j + 1, n)) if j < n - 1 else -1 for j in range(n)]
    paths = []
    for _ in range(m):
        j = int(rng.integers(0, n))
        path = [j]
        while succ[path[-1]] != -1 and rng.random() < 0.8:
            path.append(succ[path[-1]])
        paths.append(tuple(path))
    # make sure every tree arc is exercised so the topology stays a tree
    for j in range(n - 1):
        paths.append((j, succ[j]))
    rates = rng.uniform(0.1, 1.0, len(paths))
    flows = [
        Flow(TokenBucket(float(rng.uniform(0.1, 5.0)), float(rates[i])), paths[i])
        for i in range(len(paths))
    ]
    servers = []
    for j in range(n):
        local = sum(rates[i] for i, p in enumerate(paths) if j in p)
        servers.append(
            RateLatency(float(local * (1.0 + rng.uniform(0.05, 1.0)) + 0.05),
                        float(rng.uniform(0.0, 2.0)))
        )
    return Network(tuple(servers), tuple(flows))


def random_uni_ring(rng, n=None):
    """Locally stable ring with heterogeneous bursts, latencies and margins."""
    n = n if n is not None else int(rng.integers(3, 9))
    cycle = list(range(n))
    paths = [tuple(cycle[(i + k) % n] for k in range(n)) for i in range(n)]
    rates = rng.uniform(0.2, 2.0, n)
    flows = [
        Flow(TokenBucket(float(rng.uniform(0.1, 4.0)), float(rates[i])), paths[i])
        for i in range(n)
    ]
    total = float(rates.sum())
    servers = [
        RateLatency(float(total * (1.0 + rng.uniform(0.05, 1.5))),
                    float(rng.uniform(0.0, 0.5)))
        for _ in range(n)
    ]
    return Network(tuple(servers), tuple(flows))


def random_cyclic_instance(rng):
    """A uni-ring, a bi-ring or the toy network at a random low utilization."""
    kind = rng.integers(0, 3)
    u = float(rng.uniform(0.05, 0.16))
    if kind == 0:
        return uni_ring(int(rng.integers(3, 7)), u)
    if kind == 1:
        return bi_ring(int(rng.integers(3, 5)), u)
    return toy(u)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
