#!/usr/bin/env python3
"""
Record what netcalc computes on a fixed set of inputs, as JSON lines on
standard output, so that two checkouts can be compared record by record.

Run it from each checkout and compare the two files::

    python tools/record_outputs.py > /tmp/before.jsonl   # in the old checkout
    python tools/record_outputs.py > /tmp/after.jsonl    # in the new one
    diff /tmp/before.jsonl /tmp/after.jsonl && echo same

With ``--digest`` it prints, instead of the records, the numpy version, the
BLAS build and the BLAS thread settings as ``#`` lines, then one SHA-256
per record section, a source, generator, method and entry point (see
:func:`section`), over the section's JSON lines in order.  The digests are
kept in ``tools/outputs.sha256``, recorded with the BLAS threads unset on
two cores; a test recomputes a fixed sample of them, and a change that
keeps every output shows it with::

    python tools/record_outputs.py --digest | diff - tools/outputs.sha256 && echo same

A change that moves outputs on purpose writes the file anew and names the
sections that changed.  Only the records of the sections asked for are
computed (:func:`digests`); the rest of a run lays out the inputs.

The script imports netcalc from the ``src/`` next to it, the networks of
the benchmark's ``analyze_many`` pool and its ``critical`` cases from
``perfbench/workloads.py`` and the test suite's ``random_tandem`` from
``tests/conftest.py``, both by file path.  On top of the pool it adds a few
locally unstable networks.  It calls only public entry points, so it runs on
any checkout that has them.

Records:

- ``analyze`` under every method with four targets (the benchmark's backlog
  of flow 0 at the end of its path, the delay of flow 0, the backlog of
  flow 0 at server 0, and none): the verdict, ``rho``, bound, fixed point,
  objective, labels and every recursion's ``(M, N)``, or the error's type
  and message (every ``analyze`` record below holds the same fields);
- ``analyze`` and ``objective_for`` under ``sd`` and ``td`` with two group
  backlogs: every flow crossing the last server there, and the first two
  flows crossing flow 0's first server there;
- ``objective_for`` under every method with the three targets, ``is_stable``
  under every method, ``build_sd`` and the ``local_stability`` classes;
  for a ``build_sd`` recursion of at most ``DECIDED_SIZE`` variables also
  ``rho_below`` at each of ``THRESHOLDS`` and ``spectral_radius``, given
  the dense ``M`` as a plain matrix, given one recursion as built (its
  ``M`` in factors), as ``factored``, and given one recursion whose ``M``
  was read first, as a tracer reads it, as ``read_first``;
- every ``critical`` case's threshold ``U*``;
- ``analyze`` under ``td``, ``ag`` and ``2s`` with explicit removals, on
  the pool's fixed structures, its first ``EXPLICIT_RINGS`` rings of each
  size and the locally unstable networks, with the benchmark's target and
  the delay of flow 0: ``removal_tree(net, root)`` at every root, then
  three invalid removals (see :func:`invalid_removals`); and, for each of
  these removals and the default one, the outputs of ``decompose`` and
  ``group_by_arc``, and ``build_grouped`` with no removed arc grouped, the
  first one (in sorted order) and all of them, with its labels and ``L``,
  or the error;
- every ``sweep`` cell: ``bi_ring(SWEEP_N)`` at each utilization of the
  full sweep, ``analyze`` under every method with the benchmark's target
  and with the delay of every flow;
- ``tree_backlog`` of flow 0 on every network above (on the cyclic ones,
  its ``NotATreeError``), and ``upstream_view(net, j).backlog`` of the
  flows crossing ``j`` at every server ``j``: the value and the
  coefficient table, or the error;
- ``tree_backlog`` on every tree and tandem of the ``fluid`` workload's
  rounds for seed 1, for the flows ending at the sink and for the first
  half of them, and ``upstream_view`` there as above: the value and the
  coefficient table, or the error.
- ``simulate_fluid`` on the same rounds' trees and tandems, with each
  op's own scenario and step (a random scenario for a tree, the extremal
  one for half of the flows ending at the sink for a tandem): digests of
  ``times``, ``cum_in`` and ``cum_out`` with their keys,
  ``check_arrival_curves``, ``check_strict_service`` and the op's
  ``max_backlog`` at the sink, or the error;
- ``bruteforce_backlog`` and ``worst_case_periods`` (value and period
  lengths) on the same rounds' tandems with the same two interest sets,
  and on the random tandems of ``tests/test_oracle.py``'s reference test
  (1 to 8 servers) for flow 0 and for the first half of the flows ending
  at the last server, or the error;
- ``tree_backlog``, ``compute_xi``, ``tree_delay``, ``tree_output_curve``,
  ``bruteforce_backlog`` and ``worst_case_periods`` on
  ``two_server_sink_tree()`` with each of ``ID_CASES`` as the flow id: the
  result (a table's interest set by ``repr``), or the error; and
  ``tree_backlog``, ``compute_xi``, ``tree_output_curve`` and
  ``upstream_view(net, 1).backlog`` on its locally unstable variant
  (``service_rate=1.0``) with each of ``UNSTABLE_ID_CASES``;
- every generator's network, its servers and flows by ``repr``, or the
  error: the rings at the sizes the CLI, the demos and the workloads use
  (``uni_ring`` with ``heterogeneous`` off and on), ``three_ring`` at its
  ``ring_size`` and ``short_len`` variants, and ``toy``, each at every
  utilization of the full sweep, at 1 and at two invalid ones; and the
  fixtures with their defaults;
- ``build_sd`` of every ``critical`` sd case's family at every utilization
  of the full sweep and at 1, or the error: rings up to ``L = 870``; and
  at 0.5 with the labels and ``L`` too;
- ``network_from_dict`` on the network document of ``toy()`` and on copies
  with one rate, latency or burst set to a bool or a string, or the error;
- ``random_scenario`` on ``two_server_sink_tree()`` and a ``random``
  ``ArrivalSpec``, each with every one of ``SEED_CASES`` as its seed,
  ``simulate_fluid`` on ``two_server_sink_tree()`` with greedy arrivals and
  each of ``PRIORITY_CASES`` as the priority at its last server (recorded
  as the tree and tandem runs above), and
  ``analyze``, ``is_stable``, ``objective_for`` and
  ``critical_utilization`` with each of ``METHOD_CASES`` as the method:
  the result by ``repr``, or the error.

Arrays are recorded by a digest of their bytes, floats by ``repr``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import re
import sys
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from netcalc import fileio, fluid, stability  # noqa: E402
from netcalc.curves import RateLatency, TokenBucket  # noqa: E402
from netcalc.decomposition import decompose, group_by_arc, removal_tree  # noqa: E402
from netcalc.network import Flow, Network, induced_graph, is_acyclic, local_stability  # noqa: E402
from netcalc.oracle import MAX_ORACLE_SERVERS, bruteforce_backlog, worst_case_periods  # noqa: E402
from netcalc.topologies import (  # noqa: E402
    bi_ring,
    three_ring,
    toy,
    two_server_sink_tree,
    uni_ring,
)
from netcalc.tree_analysis import (  # noqa: E402
    compute_xi,
    tree_backlog,
    tree_delay,
    tree_output_curve,
    upstream_view,
)


#: Rings of each pool size that get the explicit-removal records.
EXPLICIT_RINGS = 40

#: Largest pool ``build_sd`` recursion whose matrix gets the decision records.
DECIDED_SIZE = 60

#: The thresholds of those ``rho_below`` records: ``analyze``'s two and 1.
THRESHOLDS = (1 - 1e-9, 1.0, 1 + 1e-9)

#: The flow ids the id records give each tree and oracle entry point: a
#: bool, floats, numpy integers in and out of range, and integers out of range.
ID_CASES = (True, 0.0, 1.5, np.int64(0), np.int64(2), -1, 2)

#: The flow ids the locally unstable tree's records give: none is a flow id.
UNSTABLE_ID_CASES = (7, "x", True, -1)

#: The random seeds the scenario records give: a seed is a nonnegative integer.
SEED_CASES = (0, 7, np.int64(3), -1, 1.5, True, None, "1")

#: The priorities the scenario records give the last server of a two-flow
#: network: a priority lists distinct integer flow ids, numpy's too, never a
#: bool or a float.
PRIORITY_CASES = ((1, 0), (np.int64(1), 0), (0.5,), (0.0,), (True,), (1.0, 0), (1, False),
                  (0, 0), (2,))

#: The methods the method records give: a method is one of ``METHODS``, any case.
METHOD_CASES = ("TD", "xx", 5, None)

#: The fields that name a record's source, in the order :func:`section` looks for them.
SOURCES = ("net", "fluid", "oracle", "critical", "sweep", "family", "generated", "ids",
           "document", "seed", "priority", "method")

#: The sources whose value ends with ``/`` and the record's method.
NAMED_METHOD = ("critical", "sweep", "family")

#: The sources whose value names no generator: the refused arguments.
UNNAMED = ("seed", "priority", "method")

#: The digests ``--digest`` prints, as kept in the repository.
DIGESTS = os.path.join(ROOT, "tools", "outputs.sha256")


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up there
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    module = _load("perfbench_workloads", "perfbench", "workloads.py")
    module.load_netcalc()
    return module


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    return "%s%s:%s" % (a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest()[:32])


def _objective(obj) -> dict:
    return {"Q": _digest(obj.Q), "C": repr(obj.C)}


def _recursion(lr) -> list:
    return [_digest(lr.M), _digest(lr.N)]


def _laid_out(lr) -> dict:
    """A recursion with its labels and size."""
    return {"labels": repr(lr.labels), "L": lr.size, "recursion": _recursion(lr)}


def _decisions(operand) -> dict:
    """``rho_below`` at each threshold, then ``spectral_radius``, all on ``operand``."""
    below = [stability.rho_below(operand, theta) for theta in THRESHOLDS]
    return {"rho_below": below, "spectral_radius": repr(stability.spectral_radius(operand))}


def _decided(net, lr) -> dict:
    """
    The recursion ``lr = build_sd(net)`` and, up to ``DECIDED_SIZE``
    variables, the decisions on its ``M`` as a plain matrix, on one
    recursion as built and on one whose ``M`` was read first.
    """
    record = {"recursion": _recursion(lr)}
    if lr.size <= DECIDED_SIZE:
        record.update(_decisions(lr.M))
        record["factored"] = _decisions(stability.build_sd(net))
        read = stability.build_sd(net)
        read.M  # as a tracer counting its entries reads it
        record["read_first"] = _decisions(read)
    return record


def _report(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "rho": repr(rep.rho),
        "stable": rep.stable,
        "bound": None if rep.bound is None else repr(rep.bound),
        "fixed_point": None if rep.fixed_point is None else _digest(rep.fixed_point),
        "objective": None if rep.objective is None else _objective(rep.objective),
        "labels": repr(rep.labels),
        "recursions": [_recursion(lr) for lr in rep.recursions],
    }


def _call(show, f, *args):
    """``show(f(*args))``, or the error ``f`` raised."""
    try:
        return show(f(*args))
    except Exception as exc:  # recorded like any output
        return {"error": type(exc).__name__, "message": str(exc)}


def _out(show, f, *args):
    """An output computed when it is asked for: :func:`_call` of the same arguments."""
    return partial(_call, show, f, *args)


def _xi(table) -> dict:
    """A coefficient table: a digest of its entries, sorted by key, and its interest set."""
    entries = [sorted(table.xi.items()), sorted(table.rho.items()), sorted(table.phi.items())]
    return {"table": hashlib.sha256(repr(entries).encode()).hexdigest()[:32],
            "interest": repr(sorted(table.interest))}


def _table(result) -> dict:
    """A tree backlog result: its value and its table, or its diagnostic."""
    if result.table is None:
        return {"value": repr(result.value), "diagnostic": result.diagnostic}
    return {"value": repr(result.value), **_xi(result.table)}


def _fluid_networks(workloads, seed):
    """
    ``(name, net, scenario seed)`` of the trees and tandems of every
    ``fluid`` round for ``seed``, drawn as the workload draws them; a
    tandem's scenario seed is ``None``.
    """
    np_ = workloads.np
    for r in range(workloads.FLUID_ROUNDS):
        rng = np_.random.default_rng([seed, r])
        tandem_rng = np_.random.default_rng([workloads.POOL_SEED, 2, r])
        for n, m in workloads.TREE_SHAPES:
            net = workloads.random_tree(rng, n, m)
            yield "fluid%d/%d/tree%d.%d" % (seed, r, n, m), net, int(rng.integers(2**31))
        for n in workloads.TANDEM_SIZES:
            net = workloads.random_tandem(tandem_rng, n, int(tandem_rng.integers(3, 6)))
            yield "fluid%d/%d/tandem%d" % (seed, r, n), net, None


def _fluid_run(workloads, net, sink, seed):
    """
    The simulation a ``fluid`` op runs, with the op's scenario and step:
    a random scenario for a tree, the extremal one for half of the flows
    ending at the sink for a tandem.  Returns the trajectory and the op's
    interest set.
    """
    if seed is not None:
        scenario = fluid.random_scenario(net, workloads.FLUID_HORIZON, seed)
        dt, interest = workloads.FLUID_DT, sink
    else:
        interest = sink[: max(1, len(sink) // 2)]
        scenario = fluid.worst_case_scenario(net, interest)
        dt = max(min(s.latency for s in net.servers) / 50, scenario.horizon / 3000)
    return fluid.simulate_fluid(net, scenario, dt=dt), interest


def _trajectory(run) -> dict:
    traj, interest = run
    root = traj.net.num_servers - 1
    return {"times": _digest(traj.times), "keys": [list(key) for key in traj.cum_in],
            "cum_in": _digest(list(traj.cum_in.values())),
            "cum_out": _digest(list(traj.cum_out.values())),
            "arrival_curves": fluid.check_arrival_curves(traj),
            "strict_service": fluid.check_strict_service(traj),
            "max_backlog": repr(traj.max_backlog(root, interest))}


def _periods(result) -> list:
    value, deltas = result
    return [repr(value), [repr(d) for d in deltas]]


def _oracle_tandems():
    """
    The tandems ``tests/test_oracle.py`` holds the enumeration to its
    reference on: per size, one whose cases all tie, then random ones.
    """
    random_tandem = _load("tests_conftest", "tests", "conftest.py").random_tandem
    for n in range(1, MAX_ORACLE_SERVERS + 1):
        rng = np.random.default_rng(100 + n)
        flows = [Flow(TokenBucket(1.0, 1.0), tuple(range(n)))]
        flows += [Flow(TokenBucket(0.0, 0.0), tuple(range(j, n))) for j in range(n)]
        servers = tuple(RateLatency(2.0 + j, 0.5) for j in range(n))
        yield "oracle%d/ties" % n, Network(servers, flows)
        for t in range(3 if n < 8 else 1):
            yield "oracle%d/%d" % (n, t), random_tandem(rng, n=n, m=int(rng.integers(2, 6)))


def _group_targets(net):
    """Group backlogs: all flows at the last server, two flows at flow 0's first server."""
    last, first = net.num_servers - 1, net.flows[0].path[0]
    crossing = [[i for i, f in enumerate(net.flows) if j in f.path] for j in (last, first)]
    return {
        "last_all": stability.Target.backlog(last, crossing[0]),
        "first_two": stability.Target.backlog(first, crossing[1][:2]),
    }


def _targets(net):
    return {
        "bench": stability.Target.backlog(net.flows[0].path[-1], [0]),
        "delay0": stability.Target.delay(0),
        "backlog0": stability.Target.backlog(0, [0]),
    }


def _locally_unstable():
    nets = {"three_ring(1.0)": three_ring(1.0, ring_size=4, short_len=2), "toy(1.0)": toy(1.0)}
    for n in (3, 4, 5, 6, 7):
        nets["uni_ring(%d,1.0)" % n] = uni_ring(n, 1.0)
        nets["halved-uni_ring(%d,0.6)" % n] = _halved(uni_ring(n, 0.6))
    for n in (3, 4, 5):
        nets["bi_ring(%d,1.0)" % n] = bi_ring(n, 1.0)
    return nets


def invalid_removals(net):
    """
    Three removals meant to be refused, by name: the default one
    plus the first ordered server pair that is not an induced arc; the
    default one without its first arc (a cycle may remain); and the
    default one with every arc put back, in order, that leaves the residual
    graph acyclic (some server may keep several successors).
    """
    arcs, n = induced_graph(net), net.num_servers
    default = removal_tree(net)
    outside = next(((u, v) for u in range(n) for v in range(n)
                    if u != v and (u, v) not in arcs), None)
    removals = {"non_induced": None if outside is None else default | {outside},
                "cycle": frozenset(sorted(default)[1:])}
    kept = set(arcs - default)
    for arc in sorted(default):
        if is_acyclic(kept | {arc}, n):
            kept.add(arc)
    removals["branching"] = frozenset(arcs - kept)
    return {name: removed for name, removed in removals.items() if removed is not None}


def _removals(net):
    """The default removal, ``removal_tree(net, root)`` at every root and the invalid ones."""
    removals = {"default": None}
    removals.update(("root%d" % root, removal_tree(net, root)) for root in range(net.num_servers))
    removals.update(invalid_removals(net))
    return removals


def _segments(split):
    return [[sf.origin, sf.segment, list(sf.path)] for sf in split]


def _groups(groups):
    def arcs(table):
        return [[list(arc), sorted(members)] for arc, members in table.items()]
    return {"feeding": arcs(groups.feeding), "continuations": arcs(groups.continuations),
            "arc_of": [[s, list(arc)] for s, arc in groups.arc_of.items()]}


def _decomposed(net, removed):
    """``decompose`` and ``group_by_arc`` by ``removed`` (default: removal_tree)."""
    split = decompose(net, removal_tree(net) if removed is None else removed)
    return {"split": _segments(split), "groups": _groups(group_by_arc(split))}


def _grouped(net, removed, count):
    """
    ``build_grouped`` by ``removed`` (default: removal_tree) with its first
    ``count`` arcs in sorted order grouped (all of them for ``None``).
    """
    arcs = sorted(removal_tree(net) if removed is None else removed)
    return _laid_out(stability.build_grouped(net, removed, arcs[:count]))


def _explicit_records(name, net):
    targets = _targets(net)
    for key, removed in _removals(net).items():
        at = {"net": name, "removal": key}
        yield at, {"decompose": _out(lambda d: d, _decomposed, net, removed)}
        for grouped, count in (("none", 0), ("first", 1), ("all", None)):
            yield ({**at, "grouped": grouped},
                   {"build_grouped": _out(lambda d: d, _grouped, net, removed, count)})
        if removed is None:
            continue
        for method in ("td", "ag", "2s"):
            for target in ("bench", "delay0"):
                yield ({**at, "method": method, "target": target},
                       {"analyze": _out(_report, stability.analyze, net, method, targets[target],
                                        removed)})


def _halved(net):
    """``net`` with every service rate halved: some servers overload."""
    servers = [RateLatency(s.rate * 0.5, s.latency) for s in net.servers]
    return Network(servers, net.flows)


def _classes(net) -> list:
    return [c.name for c in local_stability(net).per_server]


def records(workloads):
    """
    Every record, in order, as ``(key, outputs)``: the fields that name it
    and its outputs by entry point, each computed when it is asked for
    (:func:`line`), so that a run can skip the sections it does not want.
    """
    nets = dict(workloads.pool_networks())
    for n in workloads.RING_SIZES:
        for k in range(4):
            nets["halved-" + workloads.ring_id(n, k)] = _halved(nets[workloads.ring_id(n, k)])
    nets.update(_locally_unstable())
    for name, net in nets.items():
        targets = _targets(net)
        yield {"net": name}, {"local_stability": partial(_classes, net)}
        yield {"net": name}, {"build_sd": _out(partial(_decided, net), stability.build_sd, net)}
        yield {"net": name}, {"tree_backlog": _out(_table, tree_backlog, net, [0])}
        yield from _view_records({"net": name}, net)
        for method in stability.METHODS:
            at = {"net": name, "method": method}
            yield at, {"is_stable": _out(bool, stability.is_stable, net, method)}
            for key, target in list(targets.items()) + [("none", None)]:
                yield ({**at, "target": key},
                       {"analyze": _out(_report, stability.analyze, net, method, target)})
            for key, target in targets.items():
                yield ({**at, "target": key}, {"objective_for":
                       _out(_objective, stability.objective_for, net, target, method)})
        for method in ("sd", "td"):
            for key, target in _group_targets(net).items():
                yield ({"net": name, "method": method, "target": key},
                       {"analyze": _out(_report, stability.analyze, net, method, target),
                        "objective_for":
                        _out(_objective, stability.objective_for, net, target, method)})
    explicit = [workloads.fixed_id(s, k) for s in range(len(workloads.FIXED_STRUCTURES))
                for k in range(workloads.UTILIZATIONS_PER_STRUCTURE)]
    explicit += [workloads.ring_id(n, k) for n in workloads.RING_SIZES for k in range(EXPLICIT_RINGS)]
    explicit += list(_locally_unstable())
    for name in explicit:
        yield from _explicit_records(name, nets[name])
    for kind, n, method in workloads.critical_cases(False):
        yield {"critical": workloads.critical_key(kind, n, method)}, {"u_star": _out(
            repr, stability.critical_utilization, workloads._family(kind, n), method)}
    for row, u in enumerate(workloads.sweep_utilizations(False)):
        net = bi_ring(workloads.SWEEP_N, u)
        target = stability.Target.backlog(net.num_servers - 1, [0])
        for method in stability.METHODS:
            at = {"sweep": workloads.sweep_key(row, method), "u": repr(u)}
            yield at, {"analyze": _out(_report, stability.analyze, net, method, target)}
            for i in range(net.num_flows):
                yield ({**at, "delay": i}, {"analyze": _out(
                    _report, stability.analyze, net, method, stability.Target.delay(i))})
    for name, net, seed in _fluid_networks(workloads, 1):
        root = net.num_servers - 1
        sink = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        yield ({"fluid": name},
               {"trajectory": _out(_trajectory, _fluid_run, workloads, net, sink, seed)})
        for interest in (sink, sink[: max(1, len(sink) // 2)]):
            yield ({"fluid": name, "interest": interest},
                   {"tree_backlog": _out(_table, tree_backlog, net, interest)})
            if "tandem" in name:
                yield _oracle_record(name, net, interest)
        yield from _view_records({"fluid": name}, net)
    for name, net in _oracle_tandems():
        root = net.num_servers - 1
        ending = [i for i, f in enumerate(net.flows) if f.path[-1] == root]
        for interest in ([0], ending[: max(1, len(ending) // 2)]):
            yield _oracle_record(name, net, interest)
    yield from _id_records()
    yield from _generator_records(workloads)
    for name, doc in _documents():
        yield {"document": name}, {"network_from_dict": _out(_network, fileio.network_from_dict, doc)}
    yield from _refusal_records()


def _view_backlog(net, j, interest):
    return upstream_view(net, j).backlog(interest)


def _view_records(key, net):
    """``upstream_view(net, j).backlog`` of the flows crossing ``j``, at every server ``j``."""
    for j in range(net.num_servers):
        crossing = [i for i, f in enumerate(net.flows) if j in f.path]
        yield {**key, "server": j}, {"upstream_view": _out(_table, _view_backlog, net, j, crossing)}


def _network(net) -> dict:
    return {"servers": repr(net.servers), "flows": repr(net.flows)}


def _generated(workloads):
    """``(name, call)`` of every generator call recorded."""
    us = workloads.sweep_utilizations(False) + [1.0, 0.0, 1.5]
    uni = sorted(set(workloads.CRITICAL_UNI_SIZES) | set(workloads.RING_SIZES) | {1, 2})
    bi = sorted(set(workloads.CRITICAL_BI_SIZES) | {1, 2, 3, 4, 5, 6, workloads.SWEEP_N, 30})
    three = [(10, 5), (3, 2), (4, 2), (5, 2), (5, 3), (6, 3), (10, 1), (10, 10), (3, 3),
             (2, 1), (4, 0), (4, 5)]
    for u in us:
        for n in uni:
            for h in (False, True):
                yield "uni_ring(%d,%r,%s)" % (n, u, h), partial(uni_ring, n, u, heterogeneous=h)
        for n in bi:
            yield "bi_ring(%d,%r)" % (n, u), partial(bi_ring, n, u)
        for size, short in three:
            yield ("three_ring(%r,%d,%d)" % (u, size, short),
                   partial(three_ring, u, ring_size=size, short_len=short))
        yield "toy(%r)" % u, partial(toy, u)
    yield "three_ring(0.5)", partial(three_ring, 0.5)
    yield "toy()", toy
    yield "two_server_sink_tree()", two_server_sink_tree


def _generator_records(workloads):
    for name, call in _generated(workloads):
        yield {"generated": name}, {"network": _out(_network, call)}
    for kind, n, method in workloads.critical_cases(False):
        if method != "sd":
            continue
        family, key = workloads._family(kind, n), workloads.critical_key(kind, n, method)
        for u in workloads.sweep_utilizations(False) + [1.0]:
            yield ({"family": key, "u": repr(u)},
                   {"build_sd": _out(_recursion, stability.build_sd, family(u))})
        yield ({"family": key, "u": repr(0.5)},
               {"build_sd": _out(_laid_out, stability.build_sd, family(0.5))})


def _documents():
    """``(name, document)``: ``toy()``'s network document, then copies with a non-number."""
    yield "toy()", fileio.network_to_dict(toy())
    for kind, key in (("servers", "rate"), ("servers", "latency"), ("flows", "burst"),
                      ("flows", "rate")):
        for value in (True, False, "0.5", "1"):
            doc = fileio.network_to_dict(toy())
            doc[kind][0][key] = value
            yield "toy()/%s/%s=%r" % (kind, key, value), doc


def _id_records():
    """
    Every tree and oracle entry point on ``two_server_sink_tree()`` (flows 0
    and 1) given each of ``ID_CASES`` as its one flow id, then the tree
    analyses on its locally unstable variant given each of
    ``UNSTABLE_ID_CASES``.
    """
    net = two_server_sink_tree()
    calls = [("tree_backlog", _table, lambda i: tree_backlog(net, [i])),
             ("compute_xi", _xi, lambda i: compute_xi(net, [i])),
             ("tree_delay", repr, lambda i: tree_delay(net, i)),
             ("tree_output_curve", repr, lambda i: tree_output_curve(net, [i])),
             ("bruteforce_backlog", repr, lambda i: bruteforce_backlog(net, [i])),
             ("worst_case_periods", _periods, lambda i: worst_case_periods(net, [i]))]
    for name, show, call in calls:
        for i in ID_CASES:
            yield {"ids": "two_server_sink_tree()", "id": repr(i)}, {name: _out(show, call, i)}
    hot = two_server_sink_tree(service_rate=1.0)
    calls = [("tree_backlog", _table, lambda i: tree_backlog(hot, [i])),
             ("compute_xi", _xi, lambda i: compute_xi(hot, [i])),
             ("tree_output_curve", repr, lambda i: tree_output_curve(hot, [i])),
             ("upstream_view", _table, lambda i: upstream_view(hot, 1).backlog([i]))]
    for name, show, call in calls:
        for i in UNSTABLE_ID_CASES:
            yield ({"ids": "two_server_sink_tree(service_rate=1.0)", "id": repr(i)},
                   {name: _out(show, call, i)})


def _priority_run(net, priority):
    """The greedy run of ``net`` with ``priority`` at its last server, and every flow as interest."""
    servers = (fluid.ServerSpec(),) * (net.num_servers - 1) + (fluid.ServerSpec(priority=priority),)
    scenario = fluid.Scenario((fluid.ArrivalSpec(),) * net.num_flows, servers, 2.0)
    return fluid.simulate_fluid(net, scenario, 0.01), list(range(net.num_flows))


def _refusal_records():
    """
    The seeds of ``SEED_CASES`` given to ``random_scenario`` and to a
    ``random`` arrival, the priorities of ``PRIORITY_CASES`` given to a
    simulation, and the methods of ``METHOD_CASES`` given to every entry
    point that takes one.
    """
    net = two_server_sink_tree()
    for seed in SEED_CASES:
        yield {"seed": repr(seed)}, {
            "random_scenario": _out(repr, fluid.random_scenario, net, 1.0, seed),
            "ArrivalSpec": _out(repr, fluid.ArrivalSpec, "random", 0.0, seed)}
    for priority in PRIORITY_CASES:
        yield {"priority": repr(priority)}, {
            "simulate_fluid": _out(_trajectory, _priority_run, net, priority)}
    ring, target = uni_ring(4, 0.3), stability.Target.backlog(0, [0])
    for method in METHOD_CASES:
        yield {"method": repr(method)}, {
            "analyze": _out(_report, stability.analyze, ring, method, target),
            "is_stable": _out(bool, stability.is_stable, ring, method),
            "objective_for": _out(_objective, stability.objective_for, ring, target, method),
            "critical_utilization": _out(repr, stability.critical_utilization,
                                         partial(uni_ring, 4), method)}


def _oracle_record(name, net, interest):
    return {"oracle": name, "interest": interest}, {
        "bruteforce_backlog": _out(repr, bruteforce_backlog, net, interest),
        "worst_case_periods": _out(_periods, worst_case_periods, net, interest)}


def line(key, outputs) -> str:
    """A record's JSON line (no newline): its key and its outputs, computed now."""
    return json.dumps({**key, **{name: out() for name, out in outputs.items()}}, sort_keys=True)


def section(key, outputs) -> str:
    """
    The section a record counts in, as one line of words: its source (the
    first of ``SOURCES`` among its fields), the generator it comes from (the
    leading name of that field's value, none for ``UNNAMED``), its method
    (a ``NAMED_METHOD`` value ends with it) and its entry points; ``-`` for
    a record with no generator or no method.
    """
    source = next(field for field in SOURCES if field in key)
    value = str(key[source])
    generator = "-" if source in UNNAMED else re.match(r"[a-z_-]*[a-z_]|", value).group() or "-"
    method = key.get("method") or (value.rpartition("/")[2] if source in NAMED_METHOD else "-")
    return "%s %s %s %s" % (source, generator, method, ",".join(outputs))


def digests(workloads, wanted=None) -> dict:
    """
    The SHA-256 of each section's JSON lines, by section, in the order the
    sections first appear.  Given ``wanted``, only the records of those
    sections are computed, and only their digests returned.
    """
    hashes = {}
    for key, outputs in records(workloads):
        name = section(key, outputs)
        if wanted is None or name in wanted:
            hashes.setdefault(name, hashlib.sha256()).update((line(key, outputs) + "\n").encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def build() -> list:
    """
    The header lines of a digest file: the numpy version and the BLAS build
    the digests hold for, then the BLAS thread settings.  The largest
    recursions' decisions read other bits with another number of BLAS
    threads (the sweep's td and 2s sections, between one and two).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy before 1.26, or a build that names no BLAS
        blas = {"name": "unknown", "version": "-"}
    settings = ["%s=%s" % (var, os.environ.get(var) or "unset")  # OpenBLAS reads empty as unset
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    return ["# numpy %s" % np.__version__,
            "# blas %s %s: %s" % (blas["name"], blas["version"],
                                  blas.get("openblas configuration", "-")),
            "# threads %s cpus=%d" % (" ".join(settings), len(os.sched_getaffinity(0)))]


def read_digests(path=DIGESTS):
    """``(header lines, {section: digest})`` of a file written by ``--digest``."""
    header, pinned = [], {}
    with open(path, encoding="utf-8") as f:
        for row in f.read().splitlines():
            if row.startswith("#"):
                header.append(row)
            else:
                digest, name = row.split("  ", 1)
                pinned[name] = digest
    return header, pinned


def main(argv=None):
    parser = argparse.ArgumentParser(description="Record netcalc's outputs on a fixed set of "
                                                 "inputs, as JSON lines.")
    parser.add_argument("--digest", action="store_true",
                        help="print the numpy and BLAS build, then one SHA-256 per record "
                             "section, instead of the records")
    args = parser.parse_args(argv)
    workloads = _load_workloads()
    if args.digest:
        sys.stdout.write("".join(row + "\n" for row in build()))
        for name, digest in digests(workloads).items():
            sys.stdout.write("%s  %s\n" % (digest, name))
        return
    for key, outputs in records(workloads):
        sys.stdout.write(line(key, outputs) + "\n")


if __name__ == "__main__":
    main()
