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
    """``run_once(run_fn, mode, **kwargs)``: one simulation per distinct
    point per pytest session.

    The paper reports each experiment three ways (latency, throughput,
    sync ratio), so sibling figures are views of one sweep: each asks
    for the points it prints and whichever asks first pays for them.
    Runs are deterministic and results are only read, so sharing is
    invisible in the figures.
    """
    return functools.cache(lambda run_fn, mode, **kwargs: run_fn(mode, **kwargs))
