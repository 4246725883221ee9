"""
Every function the benchmark's tracer wraps still exists under its name.

``perfbench/tracing.py`` resolves its ``LAYERS`` and ``COUNTERS`` specs when
a traced run starts, inside a worker subprocess; a name dropped from
``netcalc`` would surface there only as a failed worker.  Resolving them
here names the missing spec directly.  Nothing under ``perfbench/`` is
changed.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    """``perfbench/tracing.py`` by file path, leaving ``sys.path`` alone."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    specs = [spec for layer in tracing.LAYERS.values() for spec in layer]
    specs += list(tracing.COUNTERS)
    missing = []
    for spec in specs:
        try:
            tracing._resolve(spec)
        except (ImportError, AttributeError) as exc:
            missing.append("%s (%s)" % (spec, exc))
    assert not missing, "tracer specs that no longer resolve: %s" % missing
