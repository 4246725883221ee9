#!/usr/bin/env python3
# -*- coding: utf-8 -*-

"""
JSON network files (a path or an open stream alike) and CSV emission.

A network file is a JSON document

.. code-block:: json

    {"servers": [{"rate": 10.0, "latency": 0.01}],
     "flows": [{"path": [1], "burst": 1.0, "rate": 1.0}]}

with 1-indexed server ids in the paths (the library API is 0-indexed).
Round-trips are lossless.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from typing import IO, Optional, Sequence, Tuple, Union

from .curves import RateLatency, TokenBucket
from .errors import ValidationError
from .network import Flow, Network, _is_id


def network_to_dict(net: Network) -> dict:
    """JSON-ready dictionary with 1-indexed paths."""
    return {
        "servers": [
            {"rate": s.rate, "latency": s.latency} for s in net.servers
        ],
        "flows": [
            {
                "path": [j + 1 for j in f.path],
                "burst": f.arrival.burst,
                "rate": f.arrival.rate,
            }
            for f in net.flows
        ],
    }


def _path(ids, flow: int, n: int) -> Tuple[int, ...]:
    """0-based path of ``flow`` from a JSON list of 1-based server ids."""
    if not isinstance(ids, list) or not all(map(_is_id, ids)):
        raise ValidationError(
            "flow %d: path must be a list of integer server ids, got %r" % (flow + 1, ids)
        )
    outside = [j for j in ids if not 1 <= j <= n]
    if outside:
        raise ValidationError(
            "flow %d crosses server %d, which does not exist (ids run from 1 to %d)"
            % (flow + 1, outside[0], n)
        )
    return tuple([j - 1 for j in ids])


def _number(item: dict, key: str, what: str, index: int) -> float:
    """Field ``key`` of ``item`` (``what`` number ``index + 1``) as a float: a JSON number."""
    value = item[key]
    if isinstance(value, float) or type(value) is int:  # bool is not int
        return float(value)
    raise TypeError("%s %d: %s must be a number, got %r" % (what, index + 1, key, value))


def network_from_dict(doc: dict) -> Network:
    """
    Parse and validate the JSON document shape.  Rates, latencies and
    bursts must be numbers (not bools or strings); paths must be lists of
    integers (not bools) naming servers ``1..n``.
    """
    if not isinstance(doc, dict):
        raise ValidationError("network file must hold a JSON object")
    try:
        servers = tuple(
            RateLatency(_number(s, "rate", "server", j), _number(s, "latency", "server", j))
            for j, s in enumerate(doc["servers"])
        )
        flows = tuple(
            Flow(
                TokenBucket(_number(f, "burst", "flow", i), _number(f, "rate", "flow", i)),
                _path(f["path"], i, len(servers)),
            )
            for i, f in enumerate(doc["flows"])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("malformed network file: %s" % exc) from exc
    return Network(servers, flows)


def _opened(target: Union[str, os.PathLike, IO[str]], mode: str):
    """
    A ``with`` context for ``target``: a path (a ``str`` or an ``os.PathLike``)
    opened in ``mode``, or an open stream left open.
    """
    is_path = isinstance(target, (str, os.PathLike))
    return open(target, mode, encoding="utf-8") if is_path else nullcontext(target)


def save_network(net: Network, target: Union[str, os.PathLike, IO[str]]) -> None:
    """Write ``net`` as a JSON network file (path or open stream)."""
    with _opened(target, "w") as stream:
        json.dump(network_to_dict(net), stream, indent=2)
        stream.write("\n")


def load_network(source: Union[str, os.PathLike, IO[str]]) -> Network:
    """Read a JSON network file (path or open stream)."""
    with _opened(source, "r") as stream:
        return network_from_dict(json.load(stream))


def format_value(value: Optional[float]) -> str:
    """CSV cell: 9 significant digits, dot decimal, ``inf`` for unbounded."""
    if value is None or value != value or value == float("inf"):
        return "inf"
    return "%.9g" % value


def write_sweep_csv(
    stream: IO[str],
    columns: Sequence[str],
    rows: Sequence[Sequence[Optional[float]]],
) -> None:
    """Emit the sweep table: a header line then one row per utilization."""
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(format_value(v) for v in row) + "\n")
