import importlib.util
import os
import sys

import pytest

from netcalc import (
    Flow,
    Network,
    RateLatency,
    ServerClass,
    TokenBucket,
    Topology,
    ValidationError,
    classify,
    flows_through,
    induced_graph,
    local_stability,
    renumber,
    tree_backlog,
)
from netcalc.curves import aggregate, classify_server
from netcalc.topologies import bi_ring, two_server_sink_tree, toy, uni_ring

from conftest import random_tandem, random_tree, random_uni_ring


def _chain(n, extra_flows=()):
    flows = [Flow(TokenBucket(1, 1), tuple(range(n)))]
    flows += [Flow(TokenBucket(1, 1), p) for p in extra_flows]
    servers = tuple(RateLatency(10, 0.1) for _ in range(n))
    return Network(servers, tuple(flows))


def test_flow_validation():
    with pytest.raises(ValidationError):
        Flow(TokenBucket(1, 1), ())
    with pytest.raises(ValidationError):
        Flow(TokenBucket(1, 1), (0, 1, 0))
    with pytest.raises(ValidationError):
        Network((RateLatency(1, 0),), (Flow(TokenBucket(1, 1), (2,)),))


def test_induced_graph_toy():
    # consecutive pairs of the four fixture paths, deduplicated
    arcs = induced_graph(toy())
    assert arcs == {(2, 3), (3, 1), (1, 2), (1, 0), (0, 2), (2, 3)} - set() == arcs
    assert arcs == frozenset({(2, 3), (3, 1), (1, 2), (1, 0), (0, 2)})


def test_induced_graph_trivial_and_ring():
    single = Network((RateLatency(1, 0),), (Flow(TokenBucket(1, 1), (0,)),))
    assert induced_graph(single) == frozenset()
    assert induced_graph(uni_ring(3, 0.5)) == frozenset({(0, 1), (1, 2), (2, 0)})


def test_classify():
    assert classify(_chain(3)) is Topology.TANDEM
    assert classify(uni_ring(3, 0.5)) is Topology.CYCLIC
    assert classify(two_server_sink_tree()) is Topology.TANDEM
    tree = Network(
        tuple(RateLatency(10, 0) for _ in range(3)),
        (Flow(TokenBucket(1, 1), (0, 2)), Flow(TokenBucket(1, 1), (1, 2))),
    )
    assert classify(tree) is Topology.TREE
    diamond = Network(
        tuple(RateLatency(10, 0) for _ in range(4)),
        (Flow(TokenBucket(1, 1), (0, 1, 3)), Flow(TokenBucket(1, 1), (0, 2, 3))),
    )
    assert classify(diamond) is Topology.FEED_FORWARD


def test_classify_tandem_stable_under_extra_flow():
    net = _chain(3, extra_flows=[(1, 2)])
    assert classify(net) is Topology.TANDEM


def test_renumber_identity_on_conforming():
    net = _chain(4)
    renamed, perm = renumber(net)
    assert perm == [0, 1, 2, 3]
    assert renamed == net


def test_renumber_moves_sink_last():
    # sink labeled 0: flows 1 -> 0 and 2 -> 0
    net = Network(
        tuple(RateLatency(10, 0) for _ in range(3)),
        (Flow(TokenBucket(1, 1), (1, 0)), Flow(TokenBucket(1, 1), (2, 0))),
    )
    renamed, perm = renumber(net)
    assert perm[0] == 2  # old sink becomes the last server
    for u, v in induced_graph(renamed):
        assert u < v


def test_renumber_decomposed_toy_forest_is_identity():
    # decomposed toy forest arcs: (0,2), (1,2), (2,3)
    net = Network(
        tuple(RateLatency(10, 0) for _ in range(4)),
        (
            Flow(TokenBucket(1, 1), (0, 2)),
            Flow(TokenBucket(1, 1), (1, 2)),
            Flow(TokenBucket(1, 1), (2, 3)),
        ),
    )
    _, perm = renumber(net)
    assert perm == [0, 1, 2, 3]


def test_renumber_rejects_cycles():
    with pytest.raises(ValidationError):
        renumber(uni_ring(4, 0.5))


def test_renumber_preserves_backlog(rng):
    for _ in range(20):
        net = random_tree(rng)
        scrambled_order = rng.permutation(net.num_servers)
        old_to_new = {int(o): i for i, o in enumerate(scrambled_order)}
        scrambled = Network(
            tuple(net.servers[int(j)] for j in scrambled_order),
            tuple(
                Flow(f.arrival, tuple(old_to_new[j] for j in f.path))
                for f in net.flows
            ),
        )
        interest = [
            i for i, f in enumerate(net.flows)
            if f.path[-1] == net.num_servers - 1
        ]
        a = tree_backlog(net, interest).value.value
        b = tree_backlog(scrambled, interest).value.value
        assert a == pytest.approx(b, abs=1e-12)


def test_flows_through():
    net = two_server_sink_tree()
    assert flows_through(net, 1) == {0, 1}
    assert flows_through(uni_ring(3, 0.5), 0) == {0, 1, 2}
    spare = Network(
        (RateLatency(1, 0), RateLatency(1, 0)),
        (Flow(TokenBucket(1, 1), (0,)),),
    )
    assert flows_through(spare, 1) == frozenset()


def test_local_stability_ring():
    report = local_stability(uni_ring(10, 0.5))
    assert report.stable
    assert all(c is ServerClass.STABLE for c in report.per_server)
    report = local_stability(uni_ring(10, 1.0))
    assert not report.stable
    assert all(c is ServerClass.CRITICAL for c in report.per_server)
    assert report.unstable_servers() == list(range(10))


def test_local_stability_single_server():
    net = Network((RateLatency(2, 0),), (Flow(TokenBucket(1, 1), (0,)),))
    assert local_stability(net).stable


def _classes_by_server_aggregate(net):
    # the formula local_stability used before it summed rates in flow order
    return tuple(
        classify_server(aggregate(net.flows[i].arrival for i in flows_through(net, j)), beta)
        for j, beta in enumerate(net.servers)
    )


def _benchmark_pool(monkeypatch):
    # the networks of the benchmark's analyze_many pool
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up there
    spec.loader.exec_module(workloads)
    workloads.load_netcalc()
    return list(workloads.pool_networks().values())


def test_local_stability_classes_match_per_server_aggregate(rng, monkeypatch):
    # summing rates in flow order may move the last bit of a load (17 of the
    # pool's 6980 servers), but no class
    nets = [make(rng) for make in (random_tandem, random_tree, random_uni_ring) for _ in range(30)]
    nets += [ring(n, u) for ring in (uni_ring, bi_ring) for n in (3, 10) for u in (0.5, 0.999, 1.0)]
    nets += _benchmark_pool(monkeypatch)
    exact = Network(
        (RateLatency(3.0, 0.1), RateLatency(4.0, 0.1)),
        (Flow(TokenBucket(1, 1.0), (0, 1)), Flow(TokenBucket(1, 2.0), (0,)),
         Flow(TokenBucket(1, 1.0), (1,))),
    )
    nets.append(exact)
    for net in nets:
        assert local_stability(net).per_server == _classes_by_server_aggregate(net)
    assert local_stability(exact).per_server == (ServerClass.CRITICAL, ServerClass.STABLE)
