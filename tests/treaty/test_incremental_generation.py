"""Incremental treaty generation: the dirty-set cache and value memo.

The generator's contract (engineering optimization over Section 4):

- an instance whose objects are disjoint from the round's dirty set
  keeps its cached piece verbatim -- ``instances_recomputed`` must
  stay flat;
- under the sampling optimizer a piece's configuration is memoized by
  the *values* of the objects it depends on, so refill cycles that
  revisit a stock level keep the optimum they got without
  recomputation (the deterministic strategies recompute theirs: it is
  cheaper than the key);
- within one round, the sampled futures are replayed through compiled
  closures and each distinct clause is configured once; under
  ``validate`` both are re-done unshared, and a difference raises.
"""

import dataclasses
import random

import pytest

import repro.protocol.homeostasis as homeostasis_module
from repro.treaty.table import InstallDivergence
from repro.workloads.micro import MicroWorkload
from repro.workloads.tpcc import TpccWorkload


def _generator_env(num_items=4, refill=10, num_sites=2, strategy="equal-split"):
    workload = MicroWorkload(
        num_items=num_items, refill=refill, num_sites=num_sites
    )
    cluster = workload.build_homeostasis(strategy=strategy)
    ref = cluster.sites[0]
    return workload, cluster, ref


class TestDirtyScoping:
    def test_disjoint_dirty_recomputes_nothing(self):
        workload, cluster, ref = _generator_env()
        gen = cluster.generator
        baseline = gen.instances_recomputed
        assert baseline > 0  # the bootstrap round computed every piece
        # A dirty set not intersecting any instance's objects.
        gen.generate(
            ref.engine.peek, ref.engine.store.data, 2, dirty={"unrelated[0]"}
        )
        assert gen.instances_recomputed == baseline

    def test_dirty_recomputes_only_touching_instances(self):
        workload, cluster, ref = _generator_env(num_items=5)
        gen = cluster.generator
        baseline = gen.instances_recomputed
        # Touch item 2's stock: exactly the per-site Buy instances of
        # item 2 depend on it (one per site variant).
        ref.engine.poke("qty[2]", 7)
        gen.generate(
            ref.engine.peek, ref.engine.store.data, 2, dirty={"qty[2]"}
        )
        assert gen.instances_recomputed == baseline + workload.num_sites

    def test_instance_object_index(self):
        workload, cluster, _ = _generator_env(num_items=3)
        gen = cluster.generator
        touched = gen.instances_touching({"qty[1]"})
        assert len(touched) == workload.num_sites
        # The affected-object closure covers the item's deltas too.
        objs = gen.objects_touching({"qty[1]"})
        assert "qty__d0[1]" in objs and "qty__d1[1]" in objs
        assert not any(name.endswith("[0]") for name in objs)
        # And the site closure is every owner in the replication group.
        assert gen.sites_touching({"qty[1]"}) == set(workload.sites)


class TestValueMemo:
    def test_refill_cycle_reuses_memoized_pieces(self):
        """Coming back to a previously seen stock level must hit the
        value-keyed memo instead of recomputing the piece."""
        workload, cluster, ref = _generator_env(
            num_items=2, refill=9, strategy="optimized"
        )
        gen = cluster.generator
        original = ref.engine.peek("qty[0]")
        baseline = gen.instances_recomputed

        ref.engine.poke("qty[0]", original - 3)
        gen.generate(ref.engine.peek, ref.engine.store.data, 2, dirty={"qty[0]"})
        after_change = gen.instances_recomputed
        assert after_change > baseline  # new values: real recomputation

        ref.engine.poke("qty[0]", original)  # the refill restores them
        gen.generate(ref.engine.peek, ref.engine.store.data, 3, dirty={"qty[0]"})
        assert gen.instances_recomputed == after_change  # memo hit

        ref.engine.poke("qty[0]", original - 3)  # and back again
        gen.generate(ref.engine.peek, ref.engine.store.data, 4, dirty={"qty[0]"})
        assert gen.instances_recomputed == after_change  # memo hit

    def test_memo_reuse_under_protocol_run(self):
        """End to end: a long run over few items revisits stock levels
        constantly, so recomputations grow much slower than rounds."""
        workload = MicroWorkload(num_items=2, refill=6, num_sites=2)
        cluster = workload.build_homeostasis(strategy="optimized")
        rng = random.Random(0)
        for _ in range(300):
            req = workload.next_request(rng)
            cluster.submit(req.tx_name, req.params)
        gen = cluster.generator
        rounds = cluster.stats.rounds
        assert rounds > 20
        # Each negotiation dirties one item, i.e. 2 instances (plus 4
        # at bootstrap); without the value memo recomputations would
        # sit exactly at that bound, and without dirty scoping at
        # 4 per round.  The memo must beat the no-memo bound.
        no_memo_bound = 2 * (rounds - 1) + 4
        assert gen.instances_recomputed < no_memo_bound
        assert gen.instances_recomputed < 4 * rounds / 2


class TestValidateOracle:
    """``validate`` re-does a round's shared work on its own: a
    compiled replay or a shared split that differs raises."""

    def _drive(self, cluster, workload, requests=300):
        rng = random.Random(5)
        for _ in range(requests):
            request = workload.next_request(rng)
            cluster.submit(request.tx_name, request.params)

    def _cluster(self):
        workload = TpccWorkload(
            num_warehouses=2,
            num_districts=2,
            items_per_district=6,
            num_customers=4,
            num_sites=2,
            hotness=30,
            initial_stock=12,
        )
        return workload, workload.build_homeostasis(strategy="optimized", validate=True)

    def test_uncorrupted_rounds_pass(self):
        workload, cluster = self._cluster()
        self._drive(cluster, workload, requests=150)
        assert cluster.stats.negotiations > 10

    def test_corrupted_family_closure_raises(self):
        workload, cluster = self._cluster()
        lowered = cluster.generator._lowered
        assert lowered is not None  # the bootstrap round sampled
        name = next(name for name in lowered if name.startswith("NewOrder"))
        # A closure that loses its writes: the replay moves no state.
        lowered[name] = dataclasses.replace(
            lowered[name], run=lambda g, s, e, p, arrays: None
        )
        with pytest.raises(InstallDivergence, match="compiled replay"):
            self._drive(cluster, workload)

    def test_corrupted_memo_entry_raises(self, monkeypatch):
        workload, cluster = self._cluster()
        generator = cluster.generator
        configure = homeostasis_module.configure_from_samples
        corrupted = []

        def corrupting(templates, getobj, futures, engine="fast"):
            result = configure(templates, getobj, futures, engine)
            if futures is generator._futures and not corrupted:
                for content, (split, satisfied) in futures.splits.items():
                    if content[0] == "<=":
                        # Lower every site's value: H2 still holds, only
                        # the instances that share the entry see it.
                        lowered = tuple(value - 1 for value in split)
                        futures.splits[content] = (lowered, satisfied)
                        corrupted.append(content)
                        break
            return result

        monkeypatch.setattr(homeostasis_module, "configure_from_samples", corrupting)
        with pytest.raises(InstallDivergence, match="shared configuration"):
            self._drive(cluster, workload)
        assert corrupted
