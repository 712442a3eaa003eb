"""Incremental treaty generation: the dirty-set cache and value memo.

The generator's contract (engineering optimization over Section 4):

- an instance whose objects are disjoint from the round's dirty set
  keeps its cached piece verbatim -- ``instances_recomputed`` must
  stay flat;
- under the sampling optimizer a piece's configuration is memoized by
  the *values* of the objects it depends on, so refill cycles that
  revisit a stock level keep the optimum they got without
  recomputation (the deterministic strategies recompute theirs: it is
  cheaper than the key).
"""

import random

from repro.workloads.micro import MicroWorkload


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
