import doctest
import os
import re

import pytest

import netcalc.curves
import netcalc.decomposition
import netcalc.fluid
import netcalc.network
import netcalc.oracle
import netcalc.stability
import netcalc.tree_analysis

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.mark.parametrize(
    "module",
    [
        netcalc.curves,
        netcalc.network,
        netcalc.decomposition,
        netcalc.tree_analysis,
        netcalc.oracle,
        netcalc.fluid,
        netcalc.stability,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0  # a module whose examples vanish must not pass
    assert result.failed == 0


def test_readme_python_blocks_run():
    # every fenced python block runs in a fresh namespace, and the library
    # tour's tandem has the backlog and delay its comments claim
    with open(README, encoding="utf-8") as stream:
        blocks = re.findall(r"^```python\n(.*?)^```", stream.read(), re.M | re.S)
    namespaces = [{} for _ in blocks]
    for block, namespace in zip(blocks, namespaces):
        exec(compile(block, README, "exec"), namespace)
    tour = namespaces[0]
    assert abs(float(tour["tree_backlog"](tour["net"], [0]).value) - 11 / 3) <= 1e-12
    assert abs(float(tour["tree_delay"](tour["net"], 0)) - 19 / 6) <= 1e-12
