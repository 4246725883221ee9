"""
Every script under demos/ runs to completion and prints exactly the bytes
checked in as ``tests/demo_outputs/<script>.txt``.  Record a golden again
only when a demo's output is meant to change.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
GOLDEN = os.path.join(ROOT, "tests", "demo_outputs")


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    name = os.path.splitext(os.path.basename(script))[0] + ".txt"
    with open(os.path.join(GOLDEN, name), "rb") as golden:
        assert proc.stdout == golden.read()
