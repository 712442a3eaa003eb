"""The construction facade: ClusterSpec, build_cluster, Outcome.

The API-redesign acceptance criteria:

- one :class:`ClusterSpec` drives every way of hosting the kernel
  through :func:`build_cluster` (``"sequential"`` and ``"concurrent"``
  are synonyms for the one in-process kernel);
- one :class:`Outcome` enum spans ``ClusterResult`` and
  ``WindowOutcome``, and ``try_submit`` maps unavailability into it
  instead of making callers fingerprint exceptions.
"""

import re
from pathlib import Path

import pytest

from repro.protocol.config import KERNELS, ClusterSpec, build_cluster
from repro.protocol.homeostasis import Unavailable
from repro.protocol.kernel import HomeostasisCluster
from repro.protocol.messages import Outcome
from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION, PaxosCommitDriver
from repro.workloads.micro import MicroWorkload

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _spec(**kwargs):
    return MicroWorkload(num_items=6, refill=6, num_sites=2).cluster_spec(
        strategy="equal-split", **kwargs
    )


class TestClusterSpec:
    def test_spec_is_frozen(self):
        spec = _spec()
        with pytest.raises(AttributeError):
            spec.validate = True

    def test_every_cluster_decides_through_paxos_commit(self):
        spec = _spec()
        assert spec.negotiation is DEFAULT_NEGOTIATION
        assert DEFAULT_NEGOTIATION.acceptors == 1  # F = 0: two-phase commit
        assert isinstance(HomeostasisCluster(spec)._paxos, PaxosCommitDriver)

    def test_no_second_decision_path_in_src(self):
        """A cleanup round has one commit decision: nothing in ``src/``
        may make the spec optional or branch around the driver."""
        legacy = re.compile(
            r"_paxos is None|NegotiationSpec\s*\|\s*None|Optional\[NegotiationSpec\]"
        )
        offenders = [
            f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if legacy.search(line)
        ]
        assert not offenders, offenders

    def test_make_generator_is_fresh_per_call(self):
        spec = _spec()
        assert spec.make_generator() is not spec.make_generator()

    def test_workloads_expose_specs(self):
        from repro.workloads.geo import GeoMicroWorkload
        from repro.workloads.tpcc import TpccWorkload

        assert isinstance(_spec(), ClusterSpec)
        assert isinstance(
            GeoMicroWorkload().cluster_spec(strategy="equal-split"), ClusterSpec
        )
        assert isinstance(
            TpccWorkload().cluster_spec(strategy="equal-split"), ClusterSpec
        )


class TestBuildCluster:
    def test_sequential_kernel(self):
        cluster = build_cluster(_spec())
        assert type(cluster) is HomeostasisCluster
        assert cluster.submit("Buy@s0", {"item": 0}).status is Outcome.COMMITTED

    def test_concurrent_kernel(self):
        cluster = build_cluster(_spec(), kernel="concurrent")
        assert type(cluster) is HomeostasisCluster

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            build_cluster(_spec(), kernel="quantum")
        assert set(KERNELS) == {"sequential", "concurrent", "async"}

    def test_in_process_kernels_reject_async_options(self):
        with pytest.raises(TypeError, match="takes no extra options"):
            build_cluster(_spec(), kernel="sequential", timeout_s=1.0)

    def test_construction_emits_no_deprecation_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_cluster(_spec())
            build_cluster(_spec(), kernel="concurrent")


class TestOutcome:
    def test_committed_result(self):
        cluster = build_cluster(_spec())
        result = cluster.submit("Buy@s0", {"item": 0})
        assert result.status is Outcome.COMMITTED

    def test_try_submit_maps_refusal(self):
        cluster = build_cluster(_spec())
        cluster.crash_site(0)
        result = cluster.try_submit("Buy@s0", {"item": 0})
        assert result.status is Outcome.REFUSED
        assert result.log == ()

    def test_submit_still_raises_with_status(self):
        cluster = build_cluster(_spec())
        cluster.crash_site(0)
        with pytest.raises(Unavailable) as exc_info:
            cluster.submit("Buy@s0", {"item": 0})
        assert exc_info.value.status is Outcome.REFUSED

    def test_window_outcomes_share_the_enum(self):
        cluster = build_cluster(_spec(), kernel="concurrent")
        result = cluster.submit_window(
            [("Buy@s0", {"item": 0}), ("Buy@s1", {"item": 1})]
        )
        for outcome in result.outcomes:
            assert outcome.status is Outcome.COMMITTED
            assert outcome.failed is False

    def test_window_refusal_on_crashed_origin(self):
        cluster = build_cluster(_spec(), kernel="concurrent")
        cluster.crash_site(1)
        result = cluster.submit_window(
            [("Buy@s0", {"item": 0}), ("Buy@s1", {"item": 1})]
        )
        statuses = [o.status for o in result.outcomes]
        assert statuses[0] is Outcome.COMMITTED
        assert statuses[1] is Outcome.REFUSED
        assert result.outcomes[1].failed is True

    def test_enum_values_are_wire_stable(self):
        assert {o.value for o in Outcome} == {
            "committed",
            "aborted",
            "unavailable",
            "refused",
        }
