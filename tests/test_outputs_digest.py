"""
The kept digests of what netcalc computes (``tools/outputs.sha256``,
written by ``python tools/record_outputs.py --digest``) against a fresh run
of a fixed sample of their sections.  The full comparison, every section,
is the documented step for a change that claims to keep every output.
"""

import pytest

from conftest import load_by_path

#: Sections that take about a second in all: every tree entry point, td, ag
#: and 2s recursions and objectives on the pool's fixtures, sd on a ring, the
#: bisections, the generators, the oracle and the refusals.  None is one of
#: the sections whose bits follow the number of BLAS threads.
SAMPLE = (
    "net toy td analyze",
    "net toy 2s analyze",
    "net toy ag objective_for",
    "net toy - upstream_view",
    "net bi_ring - upstream_view",
    "net three_ring - upstream_view",
    "net bi_ring sd objective_for",
    "net bi_ring td is_stable",
    "net halved-ring td analyze",
    "net uni_ring td analyze",
    "critical uni_ring td u_star",
    "critical three_ring ag u_star",
    "family bi_ring sd build_sd",
    "sweep - ag analyze",
    "generated three_ring - network",
    "ids two_server_sink_tree - compute_xi",
    "oracle oracle - bruteforce_backlog,worst_case_periods",
    "document toy - network_from_dict",
    "seed - - random_scenario,ArrivalSpec",
    "method - 'TD' analyze,is_stable,objective_for,critical_utilization",
)


def test_sampled_sections_match_the_kept_digests():
    tool = load_by_path("record_outputs", "tools", "record_outputs.py")
    header, kept = tool.read_digests()
    build = tool.build()
    if header[:2] != build[:2]:  # the thread line is not compared: no sampled section reads it
        pytest.skip("digests kept for %s, this is %s" % (" ".join(header[:2]), " ".join(build[:2])))
    assert set(SAMPLE) <= set(kept)
    assert tool.digests(tool._load_workloads(), wanted=set(SAMPLE)) == {
        name: kept[name] for name in SAMPLE}
