"""
Every function the benchmark's tracer wraps still exists under its name,
and a traced op takes the route its untraced twin takes.

``perfbench/tracing.py`` resolves its ``LAYERS`` and ``COUNTERS`` specs when
a traced run starts, inside a worker subprocess; a name dropped from
``netcalc`` would surface there only as a failed worker.  Resolving them
here names the missing spec directly.  The benchmark's traced run requires
each op's output to equal its untraced one, and its per-layer numbers stand
for the untraced run only if the tracer changes no decision.  Nothing under
``perfbench/`` is changed.
"""

import netcalc.stability
import netcalc.topologies

from conftest import load_by_path


def test_every_traced_name_resolves():
    tracing = load_by_path("perfbench_tracing", "perfbench", "tracing.py")
    specs = [spec for layer in tracing.LAYERS.values() for spec in layer]
    specs += list(tracing.COUNTERS)
    missing = []
    for spec in specs:
        try:
            tracing._resolve(spec)
        except (ImportError, AttributeError) as exc:
            missing.append("%s (%s)" % (spec, exc))
    assert not missing, "tracer specs that no longer resolve: %s" % missing


def _sd_ops():
    """
    ``(name, op)``: ``analyze(..., "sd")`` on every ``bi_ring(12)`` cell of
    the sweep with the CLI's default target, and the sd bisections of
    ``uni_ring(12)`` and ``three_ring(10)``, called through module
    attributes as the benchmark's workloads call them.
    """
    stability, topologies = netcalc.stability, netcalc.topologies
    workloads = load_by_path("perfbench_workloads", "perfbench", "workloads.py")
    for u in workloads.sweep_utilizations(False):
        net = topologies.bi_ring(12, u)
        target = stability.Target.backlog(net.num_servers - 1, [0])

        def cell(net=net, target=target):
            report = stability.analyze(net, "sd", target=target)
            return {"verdict": report.verdict, "bound": report.bound.value}

        yield "bi_ring(12, %r)" % u, cell
    families = {"uni_ring(12)": lambda u: topologies.uni_ring(12, u),
                "three_ring(10)": lambda u: topologies.three_ring(u, ring_size=10)}
    for name, family in families.items():
        yield name, lambda family=family: stability.critical_utilization(family, "sd")


def test_a_traced_op_takes_its_untraced_route(monkeypatch):
    # each decision as (route, bracket steps, answer), read off its record
    decisions = []
    decide = netcalc.stability._decide

    def recorded_decide(*args):
        decision = decide(*args)
        decisions.append((decision.route, decision.steps, decision.below))
        return decision

    monkeypatch.setattr(netcalc.stability, "_decide", recorded_decide)
    tracer = load_by_path("perfbench_tracing", "perfbench", "tracing.py").Tracer()
    for name, op in _sd_ops():
        decisions.clear()
        plain, plain_route = op(), list(decisions)
        decisions.clear()
        tracer.install()
        try:
            traced = op()
        finally:
            tracer.remove()
        assert plain_route, name
        assert traced == plain, name
        assert decisions == plain_route, name
