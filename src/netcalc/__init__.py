#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
Worst-case backlog and delay bounds in the network calculus linear model,
including stability analysis for networks with cyclic dependencies.

Quick tour::

    from netcalc import (Network, Flow, TokenBucket, RateLatency,
                         tree_backlog, analyze, Target)

    net = Network([RateLatency(2.0, 1.0), RateLatency(4.0, 1.0)],
                  [Flow(TokenBucket(1, 1), (0, 1)),
                   Flow(TokenBucket(1, 1), (1,))])
    tree_backlog(net, [0]).value      # tight backlog of flow 0 at the sink

    from netcalc.topologies import uni_ring
    analyze(uni_ring(10, 0.5), "ag", Target.backlog(9, [0]))
"""

from .curves import (
    Bound,
    RateLatency,
    ServerClass,
    TokenBucket,
    UNBOUNDED,
    backlog_bound,
    busy_period_bound,
    classify_server,
    group_backlog_bound,
    output_curve,
)
from .decomposition import (
    removal_tree,
)
from .errors import (
    InterestNotAtRootError,
    LocallyUnstableError,
    NetcalcError,
    NotAForestError,
    NotATreeError,
    OracleSizeError,
    ScenarioError,
    UnsupportedTargetError,
    ValidationError,
    ZeroRateFlowError,
)
from .fluid import (
    ArrivalSpec,
    Scenario,
    ServerSpec,
    Trajectory,
    check_arrival_curves,
    check_strict_service,
    discretization_slack,
    greedy_scenario,
    random_scenario,
    simulate_fluid,
    worst_case_scenario,
)
from .network import (
    Flow,
    Network,
    Topology,
    classify,
    induced_graph,
)
from .oracle import bruteforce_backlog, worst_case_periods
from .stability import (
    LinearRecursion,
    ObjectiveForm,
    StabilityReport,
    Target,
    analyze,
    build_sd,
    critical_utilization,
    solve_recursion,
    spectral_radius,
)
from .tree_analysis import (
    BacklogResult,
    XiTable,
    compute_xi,
    tree_backlog,
    tree_delay,
    tree_output_curve,
)

__version__ = "0.1.0"
