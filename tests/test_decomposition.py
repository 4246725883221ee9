import itertools
import re

import pytest

from netcalc import (
    Flow,
    Network,
    RateLatency,
    Target,
    TokenBucket,
    ValidationError,
    analyze,
    decompose,
    group_by_arc,
    induced_graph,
    removal_tree,
)
from netcalc.decomposition import _Split
from netcalc.network import is_acyclic
from netcalc.stability import _Decomposition
from netcalc.topologies import bi_ring, three_ring, toy, uni_ring

import decomposition_reference
from conftest import as_network, random_cyclic_instance, random_tree, random_uni_ring

TOY_REMOVAL = frozenset({(3, 1), (1, 0)})


def test_decompose_toy_matches_expected_segments():
    split = decompose(toy(), TOY_REMOVAL)
    got = {(sf.origin, sf.segment): sf.path for sf in split}
    assert got == {
        (0, 0): (2, 3), (0, 1): (1,),
        (1, 0): (3,), (1, 1): (1, 2),
        (2, 0): (1,), (2, 1): (0, 2),
        (3, 0): (1, 2, 3),
    }
    assert [sf.segment == 0 for sf in split] == [True, False] * 3 + [True]


def test_decompose_empty_removal_is_identity():
    net = Network(
        tuple(RateLatency(10, 0) for _ in range(2)),
        (Flow(TokenBucket(1, 1), (0, 1)),),
    )
    split = decompose(net, frozenset())
    assert len(split) == 1
    assert split[0].path == (0, 1)


def test_decompose_full_removal_gives_unit_segments():
    net = uni_ring(3, 0.5)
    split = decompose(net, induced_graph(net))
    assert all(len(sf.path) == 1 for sf in split)
    assert len(split) == sum(len(f.path) for f in net.flows)


def test_decompose_rejects_bad_removals():
    net = uni_ring(3, 0.5)
    with pytest.raises(ValidationError):
        decompose(net, frozenset({(0, 2)}))  # not an induced arc
    from netcalc.topologies import bi_ring

    with pytest.raises(ValidationError):
        decompose(bi_ring(3, 0.5), frozenset({(2, 0)}))  # backward cycle remains
    # an endpoint that is no id makes no induced arc, though the arc equals
    # (9, 0): refused alone and beside (9, 0), where a set would fold it away
    net = uni_ring(10, 0.5)
    for arc in ((9.0, 0), (9, False)):
        refused = re.escape("removed arcs not in induced graph: [%r]" % (arc,))
        for method, removed in itertools.product(("td", "ag", "2s"), ({arc}, [(9, 0), arc])):
            with pytest.raises(ValidationError, match=refused):
                analyze(net, method, removed=removed)
        with pytest.raises(ValidationError, match=refused):
            decompose(net, [(9, 0), arc])
    with pytest.raises(ValidationError, match=re.escape("graph: [(3, False)]")):
        analyze(uni_ring(4, 0.5), "td", Target.backlog(3, [0]), removed=[(3, 0), (3, False)])


def test_decompose_round_trip(rng):
    for _ in range(20):
        net = random_uni_ring(rng)
        removed = removal_tree(net)
        split = decompose(net, removed)
        for i, flow in enumerate(net.flows):
            parts = sorted(
                (sf for sf in split if sf.origin == i),
                key=lambda sf: sf.segment,
            )
            rebuilt = tuple(j for sf in parts for j in sf.path)
            assert rebuilt == flow.path
            for a, b in zip(parts, parts[1:]):
                assert (a.path[-1], b.path[0]) in removed


def test_split_graph_acyclic(rng):
    for _ in range(10):
        net = random_uni_ring(rng)
        split = decompose(net, removal_tree(net))
        arcs = induced_graph(as_network(net, split))
        assert is_acyclic(arcs, net.num_servers)


def test_removal_tree_ring_removes_closing_arc():
    assert removal_tree(uni_ring(10, 0.5)) == frozenset({(9, 0)})
    assert removal_tree(uni_ring(10, 0.5), root=3) == frozenset({(3, 4)})


@pytest.mark.parametrize("root", [-1, 10, 1.5, True, 9.0, "1"])
def test_removal_tree_rejects_an_unknown_root(root):
    with pytest.raises(ValidationError, match="^unknown root server %s$" % re.escape(repr(root))):
        removal_tree(uni_ring(10, 0.5), root=root)


def test_removal_tree_toy():
    assert removal_tree(toy()) == TOY_REMOVAL


def test_removal_tree_on_tree_is_empty(rng):
    for _ in range(10):
        net = random_tree(rng)
        assert removal_tree(net, root=net.num_servers - 1) == frozenset()


def test_removal_tree_leaves_in_forest(rng):
    for _ in range(20):
        net = random_uni_ring(rng)
        removed = removal_tree(net)
        kept = induced_graph(net) - removed
        out_deg = {}
        for u, v in kept:
            out_deg[u] = out_deg.get(u, 0) + 1
        assert all(d <= 1 for d in out_deg.values())
        assert is_acyclic(kept, net.num_servers)
        assert len(removed) == 1  # a simple ring loses exactly one arc


def _assert_arc_of_inverts_continuations(groups):
    # every continuation maps to the one arc whose continuations hold it
    expected = {s: arc for arc, conts in groups.continuations.items() for s in conts}
    assert groups.arc_of == expected
    assert sum(len(conts) for conts in groups.continuations.values()) == len(expected)


def _rate(net, split, s):
    """Arrival rate of split flow ``s``, inherited from its origin in ``net``."""
    return net.flows[split[s].origin].arrival.rate


def test_group_by_arc_toy():
    split = decompose(toy(), TOY_REMOVAL)
    groups = group_by_arc(split)
    by_label = {sf.label: s for s, sf in enumerate(split)}
    assert groups.continuations[(3, 1)] == {by_label[(0, 1)], by_label[(1, 1)]}
    assert groups.continuations[(1, 0)] == {by_label[(2, 1)]}
    assert groups.feeding[(3, 1)] == {by_label[(0, 0)], by_label[(1, 0)]}
    _assert_arc_of_inverts_continuations(groups)
    assert groups.arc_of == {by_label[(0, 1)]: (3, 1), by_label[(1, 1)]: (3, 1),
                             by_label[(2, 1)]: (1, 0)}


def test_group_by_arc_ring_second_segments():
    net = uni_ring(4, 0.5)
    split = decompose(net, removal_tree(net))
    groups = group_by_arc(split)
    conts = groups.continuations[(3, 0)]
    assert {split[s].label for s in conts} == {(1, 1), (2, 1), (3, 1)}
    _assert_arc_of_inverts_continuations(groups)


def test_rates_conserved_across_removed_arcs(rng):
    for _ in range(10):
        net = random_uni_ring(rng)
        removed = removal_tree(net)
        split = decompose(net, removed)
        groups = group_by_arc(split)
        for arc in removed:
            fed = sum(_rate(net, split, s) for s in groups.feeding[arc])
            cont = sum(_rate(net, split, s) for s in groups.continuations[arc])
            assert fed == pytest.approx(cont, abs=1e-12)


def _invalid_removals(net):
    """
    Three removals the decomposition refuses: the default one plus an arc
    that is not induced; the default one without its first arc (a cycle
    may remain); the default one with every arc put back that keeps the
    residual graph acyclic (some server may keep several successors).
    """
    arcs, n = induced_graph(net), net.num_servers
    default = removal_tree(net)
    outside = next(((u, v) for u in range(n) for v in range(n) if (u, v) not in arcs and u != v),
                   (0, 0))  # every ordered pair is an arc: a loop is not one
    kept = set(arcs - default)
    for arc in sorted(default):
        if is_acyclic(kept | {arc}, n):
            kept.add(arc)
    return [default | {outside}, frozenset(sorted(default)[1:]), frozenset(arcs - kept)]


def _outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def _requests(cols):
    interest = [[] for _ in cols.roots]
    for r, s in zip(cols.member_row.tolist(), cols.member_segment.tolist()):
        interest[r].append(s)
    return list(zip(cols.roots.tolist(), map(sorted, interest)))


def _split_outputs(decompose, group_by_arc, net, removed):
    split = decompose(net, removed)
    groups = group_by_arc(split)
    return split, [list(groups.feeding.items()), list(groups.continuations.items()),
                   list(groups.arc_of.items())]


def _groupings(removed):
    # none, all, and the first arc alone
    return [frozenset(), removed, frozenset(sorted(removed)[:1])]


def _layouts_now(net, removed):
    dec = _Decomposition(_Split(net, removed), _groupings(removed))
    return [(cols.labels, _requests(cols)) for cols in dec.layouts]


def _layouts_then(net, removed):
    split = decomposition_reference.decompose(net, removed)
    decomposition_reference.check_forest(split, net.num_servers)
    groups = decomposition_reference.group_by_arc(split)
    return [decomposition_reference.columns(split, groups, removed, grouped)
            for grouped in _groupings(removed)]


def test_array_split_matches_the_hop_by_hop_reference(rng):
    nets = [random_cyclic_instance(rng) for _ in range(20)]
    nets += [random_uni_ring(rng) for _ in range(10)]
    nets += [uni_ring(n, 0.5) for n in (3, 6, 9)] + [bi_ring(n, 0.3) for n in (3, 5, 8)]
    nets += [three_ring(0.3), toy()]
    refusals = []
    for net in nets:
        removals = [removal_tree(net, root) for root in range(net.num_servers)]
        for removed in [removal_tree(net)] + removals + _invalid_removals(net):
            expected = _outcome(lambda: _split_outputs(
                decomposition_reference.decompose, decomposition_reference.group_by_arc, net, removed))
            assert _outcome(lambda: _split_outputs(decompose, group_by_arc, net, removed)) == expected
            expected = _outcome(lambda: _layouts_then(net, removed))
            assert _outcome(lambda: _layouts_now(net, removed)) == expected
            if isinstance(expected[0], type):
                refusals.append(expected[1])
    # every refusal is exercised: the non-induced arc, the cycle, the branching
    for refusal in ("not in induced graph", "still has a cycle", "several successors"):
        assert any(refusal in message for message in refusals), refusal


def test_branching_refusal_names_the_server_the_reference_names(rng):
    # acyclic networks with several branching servers and nothing removed:
    # the refusal names the server the scan over the arc set meets first
    named = set()
    for _ in range(200):
        n = int(rng.integers(4, 12))
        paths = []
        for _ in range(int(rng.integers(2, 10))):
            servers = sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())
            paths.append(tuple(servers))
        net = Network([RateLatency(10, 0)] * n, [Flow(TokenBucket(1, 1), p) for p in paths])
        expected = _outcome(lambda: _layouts_then(net, frozenset()))
        assert _outcome(lambda: _layouts_now(net, frozenset())) == expected
        if isinstance(expected[0], type):
            named.add(expected[1])
    assert len(named) > 5
