import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcalc import (
    Flow,
    Network,
    RateLatency,
    ServerClass,
    TokenBucket,
    Topology,
    ValidationError,
    classify,
    induced_graph,
    local_stability,
    renumber,
    tree_backlog,
)
from netcalc.network import _numbers
from netcalc.curves import aggregate, classify_server
from netcalc.topologies import bi_ring, three_ring, two_server_sink_tree, toy, uni_ring

from conftest import load_by_path, random_tandem, random_tree, random_uni_ring


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


def test_network_needs_a_server():
    with pytest.raises(ValidationError, match="^network needs at least one server$"):
        Network((), ())


@pytest.mark.parametrize("make, message", [
    (lambda: uni_ring(4, 0.0), r"utilization must be in \(0, 1\]"),
    (lambda: bi_ring(4, 1.5), r"utilization must be in \(0, 1\]"),
    (lambda: uni_ring(1, 0.5), "a ring needs at least two servers"),
    (lambda: bi_ring(1, 0.5), "a ring needs at least two servers"),
    (lambda: three_ring(0.5, ring_size=2), r"ring_size must be at least 3"),
    (lambda: three_ring(0.5, ring_size=4, short_len=0), r"short_len must be in \[1, ring_size\]"),
    (lambda: three_ring(0.5, ring_size=4, short_len=5), r"short_len must be in \[1, ring_size\]"),
])
def test_generators_validate_their_parameters(make, message):
    with pytest.raises(ValidationError, match="^%s$" % message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: uni_ring(2.5, 0.5), "n must be an integer, got 2.5"),
    (lambda: bi_ring(2.5, 0.5), "n must be an integer, got 2.5"),
    (lambda: uni_ring(True, 0.5), "n must be an integer, got True"),
    (lambda: three_ring(0.5, ring_size=4.0, short_len=2), "ring_size must be an integer, got 4.0"),
    (lambda: three_ring(0.5, ring_size=4, short_len=2.0), "short_len must be an integer, got 2.0"),
], ids=["uni_ring", "bi_ring", "bool", "ring_size", "short_len"])
def test_generators_refuse_sizes_that_are_not_integers(make, message):
    with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
        make()


def test_generators_take_numpy_integer_sizes_as_ints():
    assert uni_ring(np.int64(4), 0.5) == uni_ring(4, 0.5)
    assert bi_ring(np.int32(4), 0.5) == bi_ring(4, 0.5)
    net = three_ring(0.5, ring_size=np.int64(4), short_len=np.int64(2))
    assert net == three_ring(0.5, ring_size=4, short_len=2)
    assert {type(j) for f in net.flows for j in f.path} == {int}


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
        classify_server(aggregate(f.arrival for f in net.flows if j in f.path), beta)
        for j, beta in enumerate(net.servers)
    )


def _benchmark_pool():
    # the networks of the benchmark's analyze_many pool
    workloads = load_by_path("perfbench_workloads", "perfbench", "workloads.py")
    workloads.load_netcalc()
    return list(workloads.pool_networks().values())


def test_local_stability_classes_match_per_server_aggregate(rng):
    # summing rates in flow order may move the last bit of a load (17 of the
    # pool's 6980 servers), but no class
    nets = [make(rng) for make in (random_tandem, random_tree, random_uni_ring) for _ in range(30)]
    nets += [ring(n, u) for ring in (uni_ring, bi_ring) for n in (3, 10) for u in (0.5, 0.999, 1.0)]
    nets += _benchmark_pool()
    exact = Network(
        (RateLatency(3.0, 0.1), RateLatency(4.0, 0.1)),
        (Flow(TokenBucket(1, 1.0), (0, 1)), Flow(TokenBucket(1, 2.0), (0,)),
         Flow(TokenBucket(1, 1.0), (1,))),
    )
    nets.append(exact)
    for net in nets:
        assert local_stability(net).per_server == _classes_by_server_aggregate(net)
    assert local_stability(exact).per_server == (ServerClass.CRITICAL, ServerClass.STABLE)


@st.composite
def _networks_with_critical_servers(draw):
    """Up to 6 servers and up to 8 flows, some of zero rate; each server is
    critical (its rate is its load, added in flow order), stable, overloaded
    or drawn at random."""
    n = draw(st.integers(1, 6))
    paths = draw(st.lists(
        st.permutations(range(n)).flatmap(lambda p: st.integers(1, n).map(lambda k: p[:k])),
        max_size=8,
    ))
    rates = [draw(st.sampled_from([0.0, 0.1, 1 / 3]) | st.floats(0.0, 5.0)) for _ in paths]
    load = [0.0] * n
    for r, p in zip(rates, paths):
        for j in p:
            load[j] += r
    servers = []
    for j in range(n):
        rate = draw(st.sampled_from([load[j], 1.5 * load[j], 0.5 * load[j]]) | st.floats(0.01, 10.0))
        servers.append(RateLatency(rate if rate > 0 else 0.1, draw(st.floats(0.0, 2.0))))
    flows = [Flow(TokenBucket(draw(st.floats(0.0, 5.0)), r), tuple(p)) for r, p in zip(rates, paths)]
    return Network(tuple(servers), tuple(flows))


def _flow_order_loads(net):
    # local_stability's loop: every hop's rate added in flow order
    load = [0.0] * net.num_servers
    for f in net.flows:
        for j in f.path:
            load[j] += f.arrival.rate
    return load


@settings(max_examples=300, deadline=None)
@given(_networks_with_critical_servers())
def test_numbers_loads_and_mask_match_local_stability(net):
    numbers = _numbers(net)
    load = _flow_order_loads(net)
    assert np.array_equal(numbers.load, load)  # bit for bit
    classes = local_stability(net).per_server
    assert classes == tuple(
        classify_server(TokenBucket(0.0, r), beta) for r, beta in zip(load, net.servers))
    assert numbers.unstable.tolist() == [c is not ServerClass.STABLE for c in classes]


def test_numbers_mask_holds_critical_servers():
    # server 0 carries exactly its rate: critical, hence in the mask
    net = Network(
        (RateLatency(3.0, 0.1), RateLatency(4.0, 0.1)),
        (Flow(TokenBucket(1, 1.0), (0, 1)), Flow(TokenBucket(1, 2.0), (0,)),
         Flow(TokenBucket(1, 1.0), (1,))),
    )
    assert local_stability(net).per_server == (ServerClass.CRITICAL, ServerClass.STABLE)
    assert _numbers(net).unstable.tolist() == [True, False]
