"""Benchmark suite configuration.

Makes the shared helpers importable regardless of invocation
directory, and holds the session's simulated points.
"""

import functools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def run_once():
    """``run_once(point, *fields)``: one simulation per distinct point
    per pytest session.

    The paper reports each experiment three ways (latency, throughput,
    sync ratio), so sibling figures are views of one sweep: each asks
    for the points it prints and whichever asks first pays for them.
    Runs are deterministic and results are only read, so sharing is
    invisible in the figures.  Workload specs are unhashable
    dataclasses, so a point is keyed by the module function that builds
    and runs it plus its literal fields (``run_once(_point, "homeo",
    100.0)``), never by the spec itself.
    """
    return functools.cache(lambda point, *fields: point(*fields))
