#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Command-line front end: generate benchmark topologies, analyze bounds and
stability, sweep utilizations to CSV, locate critical utilizations and run
fluid simulations.

Server and flow ids are 1-indexed on this surface, matching the JSON
network files.  Exit codes: 0 on success, 2 on validation errors, 3 when a
bound was requested on an unstable network.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Optional, Sequence

from . import fileio
from .curves import busy_period_bound, aggregate
from .errors import NetcalcError
from .fluid import (
    check_arrival_curves,
    check_strict_service,
    default_dt,
    random_scenario,
    simulate_fluid,
)
from .network import Network, classify, flows_through
from .stability import Target, analyze, critical_utilization
from .topologies import GENERATORS

EXIT_VALIDATION = 2
EXIT_UNSTABLE = 3

METHOD_COLUMNS = {"sd": "SD", "td": "TD", "ag": "AG", "2s": "TWO_STAGE"}

#: Most rows one ``sweep`` may ask for.
MAX_SWEEP_ROWS = 100_000


def _build_network(args) -> Network:
    kind = args.kind
    if kind not in GENERATORS:
        raise NetcalcError("unknown topology kind %r" % kind)
    if kind == "uni_ring":
        return GENERATORS[kind](args.n, args.utilization, heterogeneous=args.heterogeneous)
    if kind == "bi_ring":
        return GENERATORS[kind](args.n, args.utilization)
    if kind == "three_ring":
        return GENERATORS[kind](args.utilization, ring_size=args.n, short_len=args.short_len)
    if kind == "toy":
        return GENERATORS[kind](args.utilization)
    return GENERATORS[kind]()  # the fixed fixture ignores the sweep parameters


def _family(args):
    def family(u: float) -> Network:
        saved = args.utilization
        args.utilization = u
        try:
            return _build_network(args)
        finally:
            args.utilization = saved

    return family


def _index(what: str, one_based: int, count: int) -> int:
    """The 0-based id of a 1-indexed server or flow, checked against the network."""
    if not 1 <= one_based <= count:
        raise NetcalcError("%s %d does not exist (ids run from 1 to %d)" % (what, one_based, count))
    return one_based - 1


def _server(args, net: Network) -> int:
    """``--server`` as a 0-based id, the last server by default."""
    return _index("server", net.num_servers if args.server is None else args.server, net.num_servers)


def _flow_id(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetcalcError("flow id %r is not an integer" % token.strip()) from None


def _flow_ids(text: str, net: Network) -> List[int]:
    return [_index("flow", _flow_id(x), net.num_flows) for x in text.split(",") if x.strip()]


def _parse_target(args, net: Network) -> Target:
    if args.flow is not None:
        return Target.delay(_index("flow", args.flow, net.num_flows))
    return Target.backlog(_server(args, net), _flow_ids(args.flows or "1", net))


def _open_output(path: Optional[str]):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def cmd_generate(args) -> int:
    net = _build_network(args)
    out = _open_output(args.output)
    fileio.save_network(net, out)
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_analyze(args) -> int:
    net = fileio.load_network(args.network)
    target = _parse_target(args, net)
    report = analyze(net, args.method, target=target, removed=None)
    bound_value = None if report.bound is None else report.bound.value
    objective = report.objective
    if args.json:
        doc = {
            "method": report.method,
            "rho": None if math.isinf(report.rho) else report.rho,
            "verdict": report.verdict,
            "stable": report.stable,
            "bound": bound_value,
            "target": _describe_target(target),
            "variables": [str(lab) for lab in report.labels],
            "fixed_point": None
            if report.fixed_point is None
            else [float(v) for v in report.fixed_point],
        }
        if objective is not None:
            doc["bound_constant"] = float(objective.C)
            doc["bound_coefficients"] = [float(q) for q in objective.Q]
        print(json.dumps(doc, indent=2))
    else:
        print("method:  %s" % report.method)
        print("rho:     %s" % ("inf" if math.isinf(report.rho) else "%.9g" % report.rho))
        print("verdict: %s" % report.verdict)
        print("target:  %s" % _describe_target(target))
        print("bound:   %s" % ("inf" if bound_value is None else "%.9g" % bound_value))
        if objective is not None:
            print("bound form: %.9g as constant, plus per-variable burst weights:" % objective.C)
            for lab, q in zip(report.labels, objective.Q):
                if q:
                    print("  %.9g * %s" % (q, _describe_label(lab, report.method)))
        if report.fixed_point is not None and len(report.fixed_point):
            print("fixed-point bursts:")
            for lab, v in zip(report.labels, report.fixed_point):
                print("  %s: %.9g" % (_describe_label(lab, report.method), v))
    if report.bound is not None and not report.bound.is_finite:
        return EXIT_UNSTABLE
    return 0


def _describe_target(target: Target) -> str:
    if target.kind == "delay":
        return "delay of flow %d" % (target.flow + 1)
    flows = ",".join(str(i + 1) for i in sorted(target.flows))
    return "backlog of flows {%s} at server %d" % (flows, target.server + 1)


def _describe_label(lab, method: str) -> str:
    if method == "ag":
        return "arc %d->%d" % (lab[0] + 1, lab[1] + 1)
    if isinstance(lab, tuple) and len(lab) == 2:
        return "flow %d segment %d" % (lab[0] + 1, lab[1] + 1)
    return str(lab)


def cmd_sweep(args) -> int:
    methods = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHOD_COLUMNS:
            raise NetcalcError("unknown method %r" % m)
    if not (0 < args.u_min < args.u_max < 1):
        raise NetcalcError("need 0 < u-min < u-max < 1")
    if not (math.isfinite(args.step) and args.step > 0):
        raise NetcalcError("need a finite step > 0, got %r" % args.step)
    if args.u_min + args.step == args.u_min:
        raise NetcalcError("step %r is too small to move u from %r" % (args.step, args.u_min))
    if (args.u_max + 1e-12 - args.u_min) / args.step >= MAX_SWEEP_ROWS:
        raise NetcalcError(
            "step %r asks for more than %d rows" % (args.step, MAX_SWEEP_ROWS)
        )
    family = _family(args)
    columns = ["U"] + [METHOD_COLUMNS[m] for m in methods]
    rows: List[List[Optional[float]]] = []
    u = args.u_min
    while u <= args.u_max + 1e-12:
        net = family(u)
        target = _parse_target(args, net)
        row: List[Optional[float]] = [u]
        for m in methods:
            report = analyze(net, m, target=target)
            row.append(report.bound.value if report.bound is not None else None)
        rows.append(row)
        u += args.step
    out = _open_output(args.output)
    fileio.write_sweep_csv(out, columns, rows)
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_critical(args) -> int:
    u_star = critical_utilization(_family(args), args.method)
    print("%.4f" % u_star)
    return 0


def cmd_simulate(args) -> int:
    net = fileio.load_network(args.network)
    if classify(net).value == "cyclic":
        raise NetcalcError("simulation requires a feed-forward network")
    server = _server(args, net)
    flows = _flow_ids(args.flows, net) if args.flows else None
    dt = args.dt if args.dt else default_dt(net)
    horizon = args.horizon
    if horizon is None:
        horizon = 0.0
        for j in range(net.num_servers):
            alpha = aggregate(net.flows[i].arrival for i in flows_through(net, j))
            horizon += float(busy_period_bound(alpha, net.servers[j]))
        horizon = 1.5 * horizon if math.isfinite(horizon) and horizon > 0 else 10.0
    scenario = random_scenario(net, horizon, args.seed)
    traj = simulate_fluid(net, scenario, dt=dt)
    print("observed max backlog at server %d: %.9g" % (server + 1, traj.max_backlog(server, flows)))
    print("arrival curves respected: %s" % check_arrival_curves(traj))
    print("strict service respected: %s" % check_strict_service(traj))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            traj.to_csv(stream)
    return 0


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--n", type=int, default=10, help="ring size")
    parser.add_argument("--utilization", "-u", type=float, default=0.5)
    parser.add_argument("--heterogeneous", action="store_true",
                        help="uni_ring: double the rate of all but the last two servers")
    parser.add_argument("--short-len", type=int, default=5,
                        help="three_ring: flow length on the third ring")


def _add_target_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--server", type=int, default=None,
                        help="backlog target server (1-indexed, default: last)")
    parser.add_argument("--flows", type=str, default=None,
                        help="backlog target flow ids, comma separated (default: 1)")
    parser.add_argument("--flow", type=int, default=None,
                        help="delay target flow id (overrides --server/--flows)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcalc",
        description="Worst-case bounds and stability for networks with cyclic dependencies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a benchmark topology as a JSON network file")
    _add_topology_options(p)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="stability verdict and bound for one network file")
    p.add_argument("--network", required=True)
    p.add_argument("--method", required=True, choices=["sd", "td", "ag", "2s"])
    _add_target_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="bounds across a utilization range, as CSV")
    _add_topology_options(p)
    _add_target_options(p)
    p.add_argument("--methods", default="sd,td,ag")
    p.add_argument("--u-min", type=float, default=0.05)
    p.add_argument("--u-max", type=float, default=0.95)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical", help="largest stable utilization of a topology family")
    _add_topology_options(p)
    p.add_argument("--method", required=True, choices=["sd", "td", "ag", "2s"])
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("simulate", help="random admissible fluid simulation of a feed-forward network file")
    p.add_argument("--network", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--server", type=int, default=None)
    p.add_argument("--flows", type=str, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NetcalcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
