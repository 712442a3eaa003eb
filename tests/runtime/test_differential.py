"""The differential oracle gate: async runtime == deterministic kernel.

The PR's acceptance criterion: on >= 3 seeds for both the micro and
geo workloads, the asyncio cluster and the in-process kernel fed
identical schedules produce identical per-transaction outcomes and
logs, identical treaty installs, identical final stores, and identical
protocol counters -- with the schedules dense enough that treaties
actually violate (a schedule with zero negotiations gates nothing).

One seed per workload additionally runs in validate mode, so the
kernel's own oracles (H1/H2, sync agreement, escrow cross-checks)
execute *inside* the async runtime as well.

Hypothesis drives an extra randomized-schedule case on the micro
cluster: any generated buy schedule must keep the kernels in
agreement.
"""

import pytest
from conftest import examples
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.differential import (
    geo_case,
    micro_case,
    run_differential,
)

SEEDS = (0, 1, 2)


class TestDifferentialGate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_micro_agrees(self, seed):
        factory, schedule = micro_case(seed, txns=30)
        report = run_differential(factory, schedule)
        assert report.ok, report.mismatches
        assert report.negotiations > 0, "schedule never violated"
        assert report.transactions == 30

    @pytest.mark.parametrize("seed", SEEDS)
    def test_geo_agrees(self, seed):
        factory, schedule = geo_case(seed, txns=30)
        report = run_differential(factory, schedule)
        assert report.ok, report.mismatches
        assert report.negotiations > 0, "schedule never violated"

    def test_micro_agrees_in_validate_mode(self):
        factory, schedule = micro_case(0, txns=20, validate=True)
        report = run_differential(factory, schedule)
        assert report.ok, report.mismatches

    def test_geo_agrees_in_validate_mode(self):
        factory, schedule = geo_case(0, txns=20, validate=True)
        report = run_differential(factory, schedule)
        assert report.ok, report.mismatches

    def test_report_summary_readable(self):
        factory, schedule = micro_case(0, txns=5)
        report = run_differential(factory, schedule)
        assert "kernels agree" in report.summary()


class TestHypothesisSchedules:
    @settings(
        max_examples=examples(5),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedule=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 7)),
            min_size=5,
            max_size=25,
        )
    )
    def test_any_buy_schedule_agrees(self, schedule):
        factory, _ = micro_case(0)
        requests = [
            (f"Buy@s{site}", {"item": item}) for site, item in schedule
        ]
        report = run_differential(factory, requests)
        assert report.ok, report.mismatches


class TestWireDifferential:
    """The same gate driven the way clients drive the host: ``serve``
    in-process on the host's loop, one connection replaying the
    schedule, so heads run inline on the loop and rounds on the kernel
    thread."""

    @pytest.mark.parametrize("case", [micro_case, geo_case], ids=["micro", "geo"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_wire_agrees(self, case, seed):
        factory, schedule = case(seed, txns=30)
        report = run_differential(factory, schedule, wire=True)
        assert report.ok, report.mismatches
        assert report.negotiations > 0, "schedule never violated"
