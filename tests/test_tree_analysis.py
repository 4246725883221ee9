import re

import numpy as np
import pytest

from netcalc import (
    Flow,
    InterestNotAtRootError,
    LocallyUnstableError,
    Network,
    NotATreeError,
    RateLatency,
    TokenBucket,
    ZeroRateFlowError,
    bruteforce_backlog,
    backlog_bound,
    compute_xi,
    group_backlog_bound,
    tree_backlog,
    tree_delay,
    tree_output_curve,
    worst_case_periods,
)
from netcalc.decomposition import decompose, removal_tree
from netcalc.stability import Target, _prepare
from netcalc.topologies import bi_ring, three_ring, two_server_sink_tree, toy, uni_ring
from netcalc.network import _hops, _numbers, _paths
from netcalc.tree_analysis import (
    UpstreamView,
    XiTable,
    _prepare_forest,
    _root_view,
    upstream_view,
)

from conftest import as_network, random_tandem, random_tree, rows_at
from tree_check_reference import reference_root_view, reference_upstream_view
from xi_reference import _xi_general, _xi_sink_tree, scalar_input, view_tree

# Two-server tandem fixture, second server twice as fast; the flow of
# interest crosses both.  Value frozen from the case-enumeration oracle.
TWO_SERVER_BACKLOG = 11.0 / 3.0


def test_two_server_sink_tree_coefficients_closed_form(rng):
    for _ in range(50):
        r = float(rng.uniform(0.05, 5.0))
        R = float(r + rng.uniform(0.01, 5.0))
        net = two_server_sink_tree(burst=float(rng.uniform(0.1, 4.0)), rate=r, service_rate=R,
                   latency=float(rng.uniform(0.0, 2.0)))
        table = compute_xi(net, [0])
        assert table.xi[(1, 1)] == pytest.approx(r / (2 * R - r), abs=1e-12)
        assert table.xi[(0, 1)] == pytest.approx(r / R, abs=1e-12)
        assert table.phi[0] == 1.0
        assert table.phi[1] == pytest.approx(r / (2 * R - r), abs=1e-12)


def test_two_server_sink_tree_backlog_frozen_value():
    result = tree_backlog(two_server_sink_tree(), [0])
    assert result.value.value == pytest.approx(TWO_SERVER_BACKLOG, abs=1e-12)
    assert bruteforce_backlog(two_server_sink_tree(), [0]) == pytest.approx(TWO_SERVER_BACKLOG, abs=1e-12)


def test_single_server_matches_backlog_bound():
    net = Network((RateLatency(2, 0.01),), (Flow(TokenBucket(1, 1), (0,)),))
    result = tree_backlog(net, [0])
    assert result.value.value == pytest.approx(
        backlog_bound(TokenBucket(1, 1), RateLatency(2, 0.01)).value, abs=1e-14
    )
    table = result.table
    assert table.rho[0] == pytest.approx(1.0)
    assert table.phi[0] == 1.0


def test_sink_tree_all_interest_weights():
    net = Network(
        tuple(RateLatency(6, 0.2) for _ in range(3)),
        (
            Flow(TokenBucket(1, 1), (0, 2)),
            Flow(TokenBucket(2, 0.5), (1, 2)),
            Flow(TokenBucket(1, 0.25), (2,)),
        ),
    )
    table = compute_xi(net, [0, 1, 2])
    assert all(table.phi[i] == 1.0 for i in range(3))
    # with every flow of interest the latency weight is the interest rate
    assert table.rho[0] == pytest.approx(1.0)
    assert table.rho[1] == pytest.approx(0.5)
    assert table.rho[2] == pytest.approx(1.75)


def test_linear_form_reconstruction(rng):
    for _ in range(20):
        net = random_tree(rng)
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == net.num_servers - 1]
        result = tree_backlog(net, interest)
        rebuilt = sum(result.latency_coefficients.get(j, 0.0) * s.latency
                      for j, s in enumerate(net.servers))
        rebuilt += sum(result.burst_coefficients.get(i, 0.0) * f.arrival.burst
                       for i, f in enumerate(net.flows))
        assert rebuilt == pytest.approx(result.value.value, abs=1e-12)


def _full_table(net, interest):
    # the general pass fills every (server, destination) pair; the sink-tree
    # shortcut keeps only the root column, so force the general one here
    return _xi_general(*scalar_input(_root_view(net), interest))


def test_destination_monotonicity(rng):
    # the amplification grows with the length of the remaining path
    for _ in range(40):
        net = random_tandem(rng)
        root = net.num_servers - 1
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == root][:2]
        table = _full_table(net, interest)
        for j in range(net.num_servers):
            for k in range(j, root):
                assert table.xi[(j, k)] <= table.xi[(j, k + 1)] + 1e-12


def test_path_monotonicity(rng):
    # walking away from the root never lowers a destination's coefficient
    for _ in range(40):
        net = random_tandem(rng)
        root = net.num_servers - 1
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == root][:2]
        table = _full_table(net, interest)
        for j in range(net.num_servers - 1):
            for k in range(j + 1, root + 1):
                assert table.xi[(j, k)] >= table.xi[(j + 1, k)] - 1e-12


def test_xi_below_one_under_local_stability(rng):
    for _ in range(40):
        net = random_tandem(rng)
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == net.num_servers - 1]
        table = compute_xi(net, interest)
        assert all(v < 1.0 for v in table.xi.values())


def test_oracle_equivalence_on_tandems(rng):
    for _ in range(60):
        net = random_tandem(rng)
        candidates = [i for i, f in enumerate(net.flows) if f.path[-1] == net.num_servers - 1]
        size = int(rng.integers(1, len(candidates) + 1))
        interest = list(rng.choice(candidates, size=size, replace=False))
        algorithmic = tree_backlog(net, interest).value.value
        enumerated = bruteforce_backlog(net, interest)
        assert algorithmic == pytest.approx(enumerated, rel=1e-9)


def test_tightness_vs_compositional_bound(rng):
    # the tight value never exceeds the naive single-server composition
    # with per-hop output-burst propagation
    for _ in range(20):
        net = random_tandem(rng)
        root = net.num_servers - 1
        interest = {i for i, f in enumerate(net.flows) if f.path[-1] == root}
        if not interest:
            continue
        bursts = {i: f.arrival.burst for i, f in enumerate(net.flows)}
        for j in range(net.num_servers):
            at_j = [i for i, f in enumerate(net.flows) if j in f.path]
            for i in at_j:
                others = [
                    TokenBucket(bursts[p], net.flows[p].arrival.rate)
                    for p in at_j if p != i
                ]
                out = group_backlog_bound(
                    [TokenBucket(bursts[i], net.flows[i].arrival.rate)],
                    others,
                    net.servers[j],
                )
                if net.flows[i].path[-1] != j:
                    bursts[i] = out.value
        # compositional value: group bound at the root with propagated bursts
        at_root = [i for i, f in enumerate(net.flows) if root in f.path]
        compositional = group_backlog_bound(
            [
                TokenBucket(
                    net.flows[i].arrival.burst
                    if net.flows[i].path[0] == root
                    else bursts[i],
                    net.flows[i].arrival.rate,
                )
                for i in at_root if i in interest
            ],
            [
                TokenBucket(
                    net.flows[i].arrival.burst
                    if net.flows[i].path[0] == root
                    else bursts[i],
                    net.flows[i].arrival.rate,
                )
                for i in at_root if i not in interest
            ],
            net.servers[root],
        )
        tight = tree_backlog(net, interest).value.value
        assert tight <= compositional.value + 1e-9


def test_backlog_linearity_in_bursts_and_latencies(rng):
    for _ in range(15):
        net = random_tree(rng)
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == net.num_servers - 1]
        base = tree_backlog(net, interest).value.value
        doubled = Network(
            tuple(RateLatency(s.rate, 2 * s.latency) for s in net.servers),
            tuple(Flow(TokenBucket(2 * f.arrival.burst, f.arrival.rate), f.path) for f in net.flows),
        )
        assert tree_backlog(doubled, interest).value.value == pytest.approx(2 * base, rel=1e-12)


def test_coefficients_scale_invariant_in_rates(rng):
    for _ in range(15):
        net = random_tree(rng)
        interest = frozenset(
            i for i, f in enumerate(net.flows) if f.path[-1] == net.num_servers - 1
        )
        lam = float(rng.uniform(0.5, 3.0))
        scaled = Network(
            tuple(RateLatency(lam * s.rate, s.latency) for s in net.servers),
            tuple(Flow(TokenBucket(f.arrival.burst, lam * f.arrival.rate), f.path) for f in net.flows),
        )
        a = compute_xi(net, interest)
        b = compute_xi(scaled, interest)
        for key, v in a.xi.items():
            assert b.xi[key] == pytest.approx(v, rel=1e-12)
        for i, v in a.phi.items():
            assert b.phi[i] == pytest.approx(v, rel=1e-12)


def test_sink_tree_fast_path_matches_general(rng):
    for _ in range(25):
        net = random_tree(rng)
        paths = [f.path + _tail_to_root(net, f.path) for f in net.flows]
        # extending flows to the root changes the local loads: re-derive
        # service rates so the sink tree stays strictly stable
        servers = []
        for j in range(net.num_servers):
            local = sum(f.arrival.rate for f, p in zip(net.flows, paths) if j in p)
            servers.append(RateLatency(local * (1 + float(rng.uniform(0.05, 1.0))) + 0.05,
                                       net.servers[j].latency))
        sink = Network(
            tuple(servers),
            tuple(Flow(f.arrival, p) for f, p in zip(net.flows, paths)),
        )
        interest = frozenset(
            int(i) for i in rng.choice(sink.num_flows, size=max(1, sink.num_flows // 2), replace=False)
        )
        view = _root_view(sink)
        scalar = scalar_input(view, interest)
        fast = _xi_sink_tree(*scalar)
        slow = _xi_general(*scalar)
        # the public table, keyed by the sink tree's own ids, has exactly the
        # general pass's keys; compare it in the renumbered ids
        own = compute_xi(sink, interest)
        back = view_tree(view)[1]
        assert {(back[j], back[k]) for j, k in slow.xi} == set(own.xi)
        public = XiTable(
            {(j, k): own.xi[(back[j], back[k])] for j, k in slow.xi},
            {j: own.rho[back[j]] for j in slow.rho},
            own.phi,
            interest,
        )
        for table in (slow, public):
            for key, v in fast.xi.items():
                assert table.xi[key] == pytest.approx(v, abs=1e-12)
            for j, v in fast.rho.items():
                assert table.rho[j] == pytest.approx(v, abs=1e-12)
            for i, v in fast.phi.items():
                assert table.phi[i] == pytest.approx(v, abs=1e-12)
        for key, v in slow.xi.items():
            assert public.xi[key] == pytest.approx(v, abs=1e-12)


def _tail_to_root(net, path):
    # extend a path to the root along the tree successors
    from netcalc.network import induced_graph

    succ = {}
    for u, v in induced_graph(net):
        succ[u] = v
    tail = []
    j = path[-1]
    while j in succ:
        j = succ[j]
        tail.append(j)
    return tuple(tail)


def _interest_batch(rng, flows):
    # single flows, random groups, all of them and none
    batch = [[i] for i in flows]
    for _ in range(4):
        size = int(rng.integers(1, len(flows) + 1))
        batch.append(sorted(int(i) for i in rng.choice(flows, size=size, replace=False)))
    return batch + [list(flows), []]


def _grid(rows, xi, b, succ):
    # row b's coefficient grid keyed (server, k-th server on its way to the
    # root) in network ids, read off its pairs
    n = len(succ)
    grid = {}
    for q in np.flatnonzero(rows.pair_at // n == b).tolist():
        j = t = int(rows.server[q])
        for v in xi[q, : rows.k[q] + 1].tolist():
            grid[(j, t)] = v
            t = succ[t]
    return grid


def _assert_rows_match_scalar(view, rows, phi, rho, xi, batch):
    # each row against the scalar pass on the row's own view, every cell of
    # the grid included, in the renumbered ids of that view: equal to the last bit
    tree, server, flow = view_tree(view)
    succ = view.forest.succ.tolist()
    for b, interest in batch:
        table = _xi_general(*scalar_input(view, [flow.index(i) for i in interest]))
        np.testing.assert_array_equal(phi[b, flow], [table.phi[i] for i in range(tree.num_flows)])
        np.testing.assert_array_equal(
            rho[b, server], [table.rho[j] for j in range(tree.num_servers)])
        outside = np.ones(len(succ), dtype=bool)
        outside[server] = False
        assert not rho[b, outside].any()
        assert not np.delete(phi[b], flow).any()
        grid = _grid(rows, xi, b, succ)
        assert len(grid) == len(table.xi)
        keys = list(table.xi)
        np.testing.assert_array_equal(
            [grid[(server[j], server[k])] for j, k in keys], [table.xi[key] for key in keys])


def test_array_pass_matches_scalar_pass(rng):
    for make in (random_tree, random_tandem):
        for _ in range(30):
            view = _root_view(make(rng))
            net, _, flow = view_tree(view)
            root = net.num_servers - 1
            at_root = [flow[i] for i, f in enumerate(net.flows) if f.path[-1] == root]
            batch = _interest_batch(rng, at_root)
            rows = rows_at(view.forest, [view.root] * len(batch), batch)
            phi, rho, xi = rows.run(view.numbers)
            # one pair per row and server of the whole tree
            assert phi.shape == (len(batch), net.num_flows)
            assert rho.shape == (len(batch), net.num_servers)
            assert xi.shape == (len(batch) * net.num_servers, view.forest.depth.max() + 1)
            _assert_rows_match_scalar(view, rows, phi, rho, xi, enumerate(batch))


def _random_forest(rng):
    # a tree or a tandem next to another tree or tandem, servers and flows
    # interleaved: a forest with two sinks and ids in no particular order
    parts = [(random_tree if rng.random() < 0.5 else random_tandem)(rng) for _ in range(2)]
    n = sum(part.num_servers for part in parts)
    perm = [int(j) for j in rng.permutation(n)]
    servers, flows, offset = [None] * n, [], 0
    for part in parts:
        for j, server in enumerate(part.servers):
            servers[perm[offset + j]] = server
        flows += [Flow(f.arrival, tuple(perm[offset + j] for j in f.path)) for f in part.flows]
        offset += part.num_servers
    order = [int(i) for i in rng.permutation(len(flows))]
    return Network(tuple(servers), tuple(flows[i] for i in order))


def test_one_batch_rooted_everywhere_matches_scalar_pass_per_view(rng):
    # rows rooted at every server of a forest in one batch: branching trees,
    # tandems, one-server views (leaves) and empty interest sets
    for _ in range(25):
        net = _random_forest(rng)
        forest = _prepare_forest(*_hops(_paths(net)), net.num_servers)
        numbers = _numbers(net)
        roots, batch = [], []
        for j in range(net.num_servers):
            crossing = [i for i, f in enumerate(net.flows) if j in f.path]
            for interest in _interest_batch(rng, crossing) if crossing else [[]]:
                roots.append(j)
                batch.append(interest)
        rows = rows_at(forest, roots, batch)
        phi, rho, xi = rows.run(numbers)
        assert (rows.k == 0).sum() == len(batch)  # one root pair per row
        assert any(not flows for flows in batch)
        for j in range(net.num_servers):
            view = UpstreamView(forest, j, numbers)
            mine = [(b, batch[b]) for b, root in enumerate(roots) if root == j]
            _assert_rows_match_scalar(view, rows, phi, rho, xi, mine)
            if view_tree(view)[0].num_servers == 1:
                assert all(rows.k[rows.pair_at // net.num_servers == b].max() == 0 for b, _ in mine)


@pytest.mark.parametrize("method", ["td", "ag", "2s"])
def test_decomposition_rows_match_scalar_pass_per_view(method):
    # the row layouts the benchmark's decompositions run, each with the row
    # of the backlog of flow 0 at the last server of its path (the CLI's
    # default target on the rings): every row against the scalar pass on the
    # view at its root, over the split flows' numbers
    gathered = 0
    for net in (uni_ring(12, 0.3), bi_ring(5, 0.3), three_ring(0.3, ring_size=4, short_len=2)):
        dec = _prepare(net, method, target=Target.backlog(net.flows[0].path[-1], [0]))
        rows, numbers = dec.rows, dec.bind(_numbers(net))
        phi, rho, xi = rows.run(numbers)
        R, F, _ = rows.shape
        roots = rows.server[:R].tolist()  # the root pairs, one per row, come first
        member_row, member_flow = np.divmod(rows.own_at, F)
        for root in sorted(set(roots)):
            mine = [(b, member_flow[member_row == b].tolist()) for b in range(R) if roots[b] == root]
            _assert_rows_match_scalar(UpstreamView(dec.forest, root, numbers), rows, phi, rho, xi,
                                      mine)
        gathered += sum(not isinstance(level[3], slice) for level in rows.levels)
    assert gathered


def _assert_levels(forest, rows, rng):
    # every level against the pairs it stands for: the pairs at distance d,
    # and their successors, sliced exactly when they are the pairs at d - 1
    # in order; returns the number of sliced levels and of gathered ones
    n, succ = len(forest.succ), forest.succ.tolist()
    row, server, k = (rows.pair_at // n).tolist(), rows.server.tolist(), rows.k.tolist()
    pair = {(r, j): q for q, (r, j) in enumerate(zip(row, server))}
    xi = rng.random((rows.size, rows.width))
    assert [level[0] for level in rows.levels] == list(range(1, rows.width))
    kinds = [0, 0]
    for d, s, e, after in rows.levels:
        assert [q for q in range(rows.size) if k[q] == d] == list(range(s, e))
        previous = [q for q in range(rows.size) if k[q] == d - 1]
        expected = [pair[(row[q], succ[server[q]])] for q in range(s, e)]
        assert isinstance(after, slice) == (expected == previous)
        np.testing.assert_array_equal(xi[after], xi[expected])
        kinds[isinstance(after, slice)] += 1
    return kinds


def test_level_table_slices_exactly_the_in_order_blocks(rng):
    # random forests, rooted at every server in one batch and at one sink,
    # and the td, ag and 2s row layouts of the ring families
    kinds = np.zeros(2, dtype=int)
    # servers 0 and 1 feed 3 and 2: a block the size of the previous one,
    # whose successors are that block in reverse
    crossed = Network(tuple(RateLatency(4.0, 1.0) for _ in range(5)),
                      (Flow(TokenBucket(1, 1), (0, 3, 4)), Flow(TokenBucket(1, 1), (1, 2, 4))))
    for net in [_random_forest(rng) for _ in range(25)] + [crossed]:
        forest = _prepare_forest(*_hops(_paths(net)), net.num_servers)
        for roots in (list(range(net.num_servers)), np.flatnonzero(forest.succ == -1)[:1]):
            kinds += _assert_levels(forest, rows_at(forest, roots, [[] for _ in roots]), rng)
    rings = [uni_ring(6, 0.3), uni_ring(10, 0.3), bi_ring(5, 0.3), three_ring(0.3)]
    for net in rings:
        for method in ("td", "ag", "2s"):
            dec = _prepare(net, method, target=Target.backlog(net.flows[0].path[-1], [0]))
            kinds += _assert_levels(dec.forest, dec.rows, rng)
    assert kinds.all()  # both kinds of level are seen


def _shuffled_servers(net, rng):
    # the same tree under random server ids, so that preparing it renumbers
    perm = [int(j) for j in rng.permutation(net.num_servers)]
    servers = [None] * net.num_servers
    for old, new in enumerate(perm):
        servers[new] = net.servers[old]
    flows = [Flow(f.arrival, tuple(perm[j] for j in f.path)) for f in net.flows]
    return Network(tuple(servers), tuple(flows))


def test_view_rows_match_view_backlog(rng):
    # the batched rows of an upstream view, over the full network's ids,
    # equal the scalar backlog tables of the same view one set at a time
    for _ in range(20):
        net = _shuffled_servers(random_tree(rng), rng)
        j1 = int(rng.integers(0, net.num_servers))
        view = upstream_view(net, j1)
        crossing = [i for i, f in enumerate(net.flows) if j1 in f.path]
        batch = _interest_batch(rng, crossing)
        rows = rows_at(view.forest, [j1] * len(batch), batch)
        phi, rho, xi = rows.run(view.numbers)
        xi_root = rows.toward_root(xi)
        kept = view_tree(view)[1]
        for b, interest in enumerate(batch):
            table = view.backlog(interest).table
            np.testing.assert_allclose(
                phi[b], [table.phi[i] for i in range(net.num_flows)], rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                rho[b], [table.rho[j] for j in range(net.num_servers)], rtol=1e-12, atol=0)
            for j in kept:
                assert xi_root[b, j] == pytest.approx(table.xi[(j, j1)], rel=1e-12, abs=0)
            assert not np.delete(xi_root[b], kept).any()
        outside = next((i for i, f in enumerate(net.flows) if j1 not in f.path), None)
        if outside is not None:
            with pytest.raises(InterestNotAtRootError):
                view.backlog([outside])


def test_array_pass_rejects_local_instability():
    # the cross flow alone exceeds server 0's rate: both passes refuse it
    net = Network(
        (RateLatency(2.0, 0.1), RateLatency(6.0, 0.1)),
        (Flow(TokenBucket(1, 1), (0, 1)), Flow(TokenBucket(1, 3), (0,))),
    )
    view = _root_view(net)
    with pytest.raises(LocallyUnstableError):
        _xi_general(*scalar_input(view, [0]))
    with pytest.raises(LocallyUnstableError):
        rows_at(view.forest, [view.root], [[0]]).run(view.numbers)
    view = upstream_view(net, 1)
    with pytest.raises(LocallyUnstableError):
        rows_at(view.forest, [view.root], [[0]]).run(view.numbers)


def test_array_pass_instability_names_the_network_server():
    # the chain 0 -> 2 -> 1, server 2 filled by cross traffic alone: its
    # position in the view of server 1 is 1, its network id 2
    net = Network(
        (RateLatency(4.0, 0.1), RateLatency(8.0, 0.1), RateLatency(2.0, 0.1)),
        (Flow(TokenBucket(1, 1), (0, 2, 1)), Flow(TokenBucket(1, 3), (2,))),
    )
    view = upstream_view(net, 1)
    assert view_tree(view)[1] == [0, 2, 1]
    with pytest.raises(LocallyUnstableError, match=r"^server 2 cannot drain its local traffic$"):
        rows_at(view.forest, [view.root], [[0]]).run(view.numbers)
    assert view.unstable_servers == [2]


@pytest.mark.parametrize("server", [-1, 4, True, 1.0, np.int64(4)])
def test_upstream_view_rejects_an_unknown_server(server):
    shown = repr(int(server)) if isinstance(server, np.integer) else repr(server)
    with pytest.raises(InterestNotAtRootError, match="^unknown server %s$" % re.escape(shown)):
        upstream_view(toy(), server)


def test_tree_backlog_at_toy_depends_on_server_1_only():
    net = toy()
    removed = removal_tree(net)
    split = decompose(net, removed)
    forest = as_network(net, split)
    # the flow-2 segment ending at the removed arc (1, 0)
    seg = next(s for s, sf in enumerate(split) if sf.label == (2, 0))
    result = upstream_view(forest, 1).backlog([seg])
    assert all(v == 0.0 for j, v in result.latency_coefficients.items() if j != 1)
    crossing = {s for s, sf in enumerate(split) if 1 in sf.path}
    for s, phi in result.burst_coefficients.items():
        assert (phi > 0) == (s in crossing)
    # all cross segments share the single-server path, so one coefficient
    cross_phis = {round(result.burst_coefficients[s], 15) for s in crossing if s != seg}
    assert len(cross_phis) == 1
    # and the value equals the one-server group bound with the same bursts
    flows_at_1 = [s for s, sf in enumerate(forest.flows) if 1 in sf.path]
    direct = group_backlog_bound(
        [forest.flows[seg].arrival],
        [forest.flows[s].arrival for s in flows_at_1 if s != seg],
        net.servers[1],
    )
    assert result.value.value == pytest.approx(direct.value, abs=1e-12)


def test_tree_backlog_at_root_equals_tree_backlog(rng):
    for _ in range(10):
        net = random_tree(rng)
        root = net.num_servers - 1
        interest = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        a = tree_backlog(net, interest).value.value
        b = upstream_view(net, root).backlog(interest).value.value
        assert a == pytest.approx(b, abs=1e-12)


def test_tree_delay_two_server_sink_tree_closed_form(rng):
    for _ in range(25):
        b = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(0.05, 2.0))
        R = float(r + rng.uniform(0.05, 4.0))
        T = float(rng.uniform(0.0, 2.0))
        net = two_server_sink_tree(burst=b, rate=r, service_rate=R, latency=T)
        d2 = 2 * T + b / R + (b + r * T) / (2 * R - r)
        d1 = 2 * T + (2 * b + r * T) / R
        assert float(tree_delay(net, 0)) == pytest.approx(d2, abs=1e-12)
        assert d2 < d1  # the tree analysis beats the sink-tree closed form


def test_tree_delay_two_server_sink_tree_fixture_value():
    assert float(tree_delay(two_server_sink_tree(), 0)) == pytest.approx(19.0 / 6.0, abs=1e-12)


def test_tree_delay_rejects_zero_rate():
    net = Network((RateLatency(2, 0.1),), (Flow(TokenBucket(1, 0), (0,)),))
    with pytest.raises(ZeroRateFlowError):
        tree_delay(net, 0)


def test_tree_output_curve():
    net = Network((RateLatency(2, 0.01),), (Flow(TokenBucket(1, 1), (0,)),))
    assert tree_output_curve(net, [0]) == TokenBucket(1.01, 1.0)
    assert tree_output_curve(net, []) == TokenBucket(0.0, 0.0)
    out = tree_output_curve(two_server_sink_tree(), [0])
    assert out.rate == 1.0
    assert tree_output_curve(two_server_sink_tree(), [0, 0]) == out  # a flow's rate counts once
    assert out.burst == pytest.approx(TWO_SERVER_BACKLOG, abs=1e-12)


def test_tree_output_curve_holds_floats():
    # no rates add up to a float 0.0, integer rates to a float sum
    integral = Network((RateLatency(2, 1),), (Flow(TokenBucket(1, 1), (0,)),))
    for net, interest in ((two_server_sink_tree(), []), (two_server_sink_tree(), [0, 1]),
                          (integral, [0]), (integral, [])):
        curve = tree_output_curve(net, interest)
        assert (type(curve.burst), type(curve.rate)) == (float, float), (interest, curve)


def test_locally_unstable_tree_has_no_delay_bound_nor_output_curve():
    net = two_server_sink_tree(service_rate=1.0)  # both servers exactly saturated
    assert not tree_delay(net, 0).is_finite
    with pytest.raises(LocallyUnstableError,
                       match=re.escape("no finite departure curve: servers [0, 1] are not strictly stable")):
        tree_output_curve(net, [0])


def test_empty_interest_gives_zero():
    result = tree_backlog(two_server_sink_tree(), [])
    assert result.value.value == 0.0
    assert all(v == 0.0 for v in result.table.phi.values())
    assert all(v == 0.0 for v in result.table.rho.values())


def test_zero_rate_cross_flow_contributes_burst_only():
    net = Network(
        (RateLatency(2.0, 0.5),),
        (Flow(TokenBucket(1, 1), (0,)), Flow(TokenBucket(3, 0), (0,))),
    )
    result = tree_backlog(net, [0])
    # a rate-0 cross flow scales the interest delay but adds burst weight
    xi = 1.0 / (2.0 - 0.0)
    expected = 1 + 1 * 0.5 + xi * 3
    assert result.value.value == pytest.approx(expected, abs=1e-12)
    assert bruteforce_backlog(net, [0]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [-1, 2, True, 0.0, 1.5, np.int64(5), 1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda net, i, *ahead: compute_xi(net, [*ahead, i]),
        lambda net, i, *ahead: tree_backlog(net, [*ahead, i]),
        lambda net, i, *ahead: upstream_view(net, 1).backlog([*ahead, i]),
        lambda net, i, *ahead: tree_output_curve(net, [*ahead, i]),
        lambda net, i, *ahead: tree_delay(net, i),
        lambda net, i, *ahead: bruteforce_backlog(net, [*ahead, i]),
        lambda net, i, *ahead: worst_case_periods(net, [*ahead, i]),
    ],
    ids=["compute_xi", "tree_backlog", "upstream_view", "tree_output_curve", "tree_delay",
         "bruteforce_backlog", "worst_case_periods"],
)
def test_unknown_flow_ids_are_rejected(call, bad):
    # True == 1 and 0.0 == 0 name existing flows, but they are no ids: refused,
    # not read as flow 1 or flow 0, also after both flows, where a set would
    # fold them away unchecked; a numpy id is named as the integer it is
    net = two_server_sink_tree()
    assert net.num_flows == 2
    shown = repr(int(bad)) if isinstance(bad, np.integer) else repr(bad)
    for ahead in ((), (0, 1)):
        with pytest.raises(InterestNotAtRootError, match="^unknown flow id %s$" % re.escape(shown)):
            call(net, bad, *ahead)


@pytest.mark.parametrize("bad", [7, "x", True, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda net, i: compute_xi(net, [i]),
        lambda net, i: tree_backlog(net, [i]),
        lambda net, i: upstream_view(net, 1).backlog([i]),
        lambda net, i: tree_output_curve(net, [i]),
    ],
    ids=["compute_xi", "tree_backlog", "upstream_view", "tree_output_curve"],
)
def test_unstable_tree_checks_its_interest_first(call, bad):
    # both servers saturated: the interest is checked before the tree is
    # found unbounded, as on a stable tree
    net = two_server_sink_tree(service_rate=1.0)
    with pytest.raises(InterestNotAtRootError, match="^unknown flow id %s$" % re.escape(repr(bad))):
        call(net, bad)


def test_unstable_tree_refuses_a_flow_that_misses_the_root():
    # flow 1 leaves at server 0; server 1, the root, is saturated
    net = Network(
        (RateLatency(4.0, 0.1), RateLatency(1.0, 0.1)),
        (Flow(TokenBucket(1, 1), (0, 1)), Flow(TokenBucket(1, 1), (0,))),
    )
    with pytest.raises(InterestNotAtRootError, match=r"^flow 1 does not cross server 1$"):
        tree_backlog(net, [0, 1])
    assert tree_backlog(net, [0]).diagnostic == "servers [1] are not strictly stable"


def _random_paths(rng):
    """
    A small network on random paths: any paths (mostly cyclic or
    feed-forward), or an in-tree, some servers isolated, sometimes with one
    extra arc; server ids shuffled, rates drawn so that some servers
    saturate.
    """
    n = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        paths = [tuple(rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist())
                 for _ in range(int(rng.integers(0, 5)))]
    else:
        succ = [int(rng.integers(j + 1, n)) if j < n - 1 and rng.random() < 0.8 else -1
                for j in range(n)]
        paths = []
        for _ in range(int(rng.integers(0, 6))):
            path = [int(rng.integers(0, n))]
            while succ[path[-1]] != -1 and rng.random() < 0.8:
                path.append(succ[path[-1]])
            paths.append(tuple(path))
        if n > 1 and rng.random() < 0.3:
            paths.append(tuple(rng.permutation(n)[:2].tolist()))
        perm = rng.permutation(n).tolist()
        paths = [tuple(perm[j] for j in p) for p in paths]
    rates = rng.uniform(0.1, 1.0, len(paths))
    load = [sum(r for r, p in zip(rates, paths) if j in p) for j in range(n)]
    servers = [RateLatency(float(max(x * rng.uniform(0.7, 2.0), 0.1)), float(rng.uniform(0.0, 1.0)))
               for x in load]
    flows = [Flow(TokenBucket(float(rng.uniform(0.1, 2.0)), float(r)), p)
             for r, p in zip(rates, paths)]
    return Network(tuple(servers), tuple(flows))


def _same_outcome(call, reference):
    """``call()`` equals ``reference()``: the same ``NotATreeError`` message, or equal results."""
    try:
        expected = reference()
    except NotATreeError as exc:
        with pytest.raises(NotATreeError, match="^%s$" % re.escape(str(exc))):
            call()
        return False
    assert call() == expected
    return True


def test_forest_preparation_checks_trees_as_classify_does(rng):
    # the one tree check, preparing the forest, refuses exactly what
    # classify refuses, with its message, at the root and at every view,
    # and where both accept, the backlog results are equal
    accepted = refused = 0
    for _ in range(400):
        net = _random_paths(rng)
        try:
            at_root = sorted(reference_root_view(net).at_root)
        except NotATreeError:
            at_root = [0]
        ok = _same_outcome(lambda: tree_backlog(net, at_root),
                           lambda: reference_root_view(net).backlog(at_root))
        accepted, refused = accepted + ok, refused + (not ok)
        for j in range(net.num_servers):
            crossing = [i for i, f in enumerate(net.flows) if j in f.path]
            ok = _same_outcome(lambda: upstream_view(net, j).backlog(crossing),
                               lambda: reference_upstream_view(net, j).backlog(crossing))
            accepted, refused = accepted + ok, refused + (not ok)
    assert accepted > 200 and refused > 200


def test_errors():
    with pytest.raises(NotATreeError):
        compute_xi(uni_ring(3, 0.5), [0])
    net = two_server_sink_tree()
    with pytest.raises(InterestNotAtRootError):
        compute_xi(net, [5])
    hot = Network((RateLatency(1, 0.1),), (Flow(TokenBucket(1, 2), (0,)),))
    with pytest.raises(LocallyUnstableError):
        compute_xi(hot, [0])
    result = tree_backlog(hot, [0])
    assert not result.value.is_finite
    assert result.table is None
    assert "0" in result.diagnostic
