"""Escrow account tests: lowering, counter semantics, batching, and
the differential property against the interpreted oracle.

The escrow account (:mod:`repro.treaty.escrow`) is a site's one
commit-time treaty check: decrement-only headroom counters plus a
batched commit window.  Its contract is *observational equivalence*
with :meth:`LocalTreaty.violations_after_writes` -- same accept/reject
verdict and same violated-object set on every commit -- which the
Hypothesis test here checks over random ``<=``/``=`` treaties, random
write sequences (zero deltas and exact-zero headroom included), and
mid-sequence treaty reinstalls, at window sizes from settle-everything
to settle-never.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.compile import (
    PIN_DRAIN,
    CompilationError,
    lower_clause,
    lower_to_escrow,
)
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT, ParamT
from repro.treaty.escrow import DEFAULT_WINDOW, EscrowAccount
from repro.treaty.table import LocalTreaty

OBJECTS = ("x", "y", "z")


def con(coeffs: dict[str, int], op: str, bound: int) -> LinearConstraint:
    return LinearConstraint.make(
        LinearExpr.make({ObjT(n): c for n, c in coeffs.items()}), op, bound
    )


def account_for(
    constraints, state: dict[str, int], window: int = DEFAULT_WINDOW
) -> EscrowAccount:
    program = lower_to_escrow(constraints)
    getobj = lambda n: state.get(n, 0)  # noqa: E731
    return EscrowAccount(
        program, [row.slack(getobj) for row in program.rows], window=window
    )


class TestLowering:
    def test_le_clause_is_one_budget_row(self):
        program = lower_to_escrow((con({"x": 2, "y": -1}, "<=", 7),))
        assert len(program.rows) == 1
        assert program.budget_rows == [0]
        assert [row.bound for row in program.rows] == [7]
        assert program.max_coeff == {"x": 2, "y": 1}

    def test_equality_pin_lowers_to_opposing_pair_outside_budget(self):
        program = lower_to_escrow((con({"x": 1}, "=", 5),))
        assert len(program.rows) == 2
        assert program.budget_rows == []
        assert program.pin_rows == [0, 1]
        assert sorted(row.bound for row in program.rows) == [-5, 5]
        assert program.max_coeff == {"x": PIN_DRAIN}

    def test_strict_and_reversed_ops_normalize_to_eligible_forms(self):
        # LinearConstraint.make normalizes <, >, >= into <= over the
        # integers, so every comparison op lowers to one budget row.
        for op in ("<", "<=", ">", ">="):
            assert lower_to_escrow((con({"x": 1}, op, 5),)).budget_rows == [0]

    def test_non_object_variable_is_ineligible(self):
        bad = LinearConstraint.make(LinearExpr.variable(ParamT("p")), "<=", 3)
        with pytest.raises(CompilationError, match="non-object variable"):
            lower_to_escrow((bad,))
        with pytest.raises(CompilationError, match="non-object variable"):
            lower_to_escrow((con({"x": 1}, "<=", 5), bad))
        strict = LinearConstraint(LinearExpr.variable(ObjT("x")), "<", 5)
        with pytest.raises(CompilationError, match="operator"):
            lower_clause(strict)

    def test_coefficient_less_clause_lowers_to_no_row(self):
        program = lower_to_escrow((con({}, "<=", 3), con({"x": 1}, "<=", 5)))
        assert program.rows == [con({"x": 1}, "<=", 5)]

    def test_a_patched_program_is_the_lowering_of_what_it_holds(self):
        """A site patches one program per install.  Whatever was
        removed and added on the way, the account on it enforces what
        an account on the from-scratch lowering of the clauses it now
        holds does -- up to which slot a row sits in: a removed row
        frees its slot and the next added row takes it."""
        state = {"x": 2, "y": 4, "z": 1}
        getobj = state.__getitem__
        held = [
            con({"x": 1, "z": 3}, "<=", 11),
            con({"y": 1}, "=", 4),
            con({"x": -2}, "<=", 0),
            con({"z": 1, "y": 1}, "<=", 9),
        ]
        lowered = {id(c): lower_clause(c) for c in held}
        account = EscrowAccount(lower_to_escrow(()), ())
        account.install([], lowered.values(), (), getobj, epoch=0)
        steps = [
            ([held[1]], [con({"x": 1}, "=", 2)]),  # a pin's two slots go to a pin
            ([held[0], held[3]], []),  # y and z leave the index altogether
            ([held[2]], [con({"x": 5, "z": -1}, "<=", 40), con({}, "<=", 3)]),
        ]
        for gone, new in steps:
            held = [c for c in held if c not in gone] + new
            lowered.update((id(c), lower_clause(c)) for c in new)
            account.install(
                [lowered[id(c)] for c in gone],
                [lowered[id(c)] for c in new],
                (),
                getobj,
                epoch=0,
            )
            assert account.enforced() == account_for(held, state).enforced()
        assert len(account.program.rows) == 5  # freed slots were reused
        assert set(account.program.touching) == {"x", "z"}

    def test_install_reads_again_only_the_rows_over_a_moved_object(self):
        held = [con({"x": 1}, "<=", 10), con({"y": 1}, "<=", 10)]
        state = {"x": 1, "y": 1}
        account = account_for(held, state)
        reads = []

        def getobj(name):
            reads.append(name)
            return state[name]

        state.update(x=4, y=7)  # both written behind the account's back ...
        account.install([], [], ["x"], getobj, epoch=1)  # ... one of them owned up to
        assert reads == ["x"]
        assert account.headroom_map() == {held[0]: 6, held[1]: 9}
        assert account.synced_epoch == 1


class TestAccount:
    def test_exact_zero_headroom_is_not_a_violation(self):
        account = account_for([con({"x": 1}, "<=", 5)], {"x": 0}, window=1)
        assert account.commit({"x": 5}) is None  # lands exactly on the bound
        assert list(account.headroom_map().values()) == [0]
        assert account.commit({"x": 1}) == [0]

    def test_rejection_reverts_state(self):
        account = account_for([con({"x": 1}, "<=", 5)], {"x": 0}, window=1)
        assert account.commit({"x": 9}) == [0]
        # The rejected deltas were backed out: headroom intact, and a
        # commit that fits is still admitted.
        assert list(account.headroom_map().values()) == [5]
        assert account.commit({"x": 5}) is None

    def test_refill_restores_headroom(self):
        account = account_for([con({"x": 1}, "<=", 5)], {"x": 0}, window=1)
        assert account.commit({"x": 5}) is None
        assert account.commit({"x": 1}) == [0]
        assert account.commit({"x": -3}) is None
        assert account.commit({"x": 3}) is None

    def test_multi_object_clause_couples_the_budget(self):
        # One clause over two objects: each object alone fits in the
        # clause's slack, together they overrun it.  A per-object
        # budget would wrongly admit the second commit.
        account = account_for([con({"x": 1, "y": 1}, "<=", 10)], {})
        assert account.commit({"x": 6}) is None
        assert account.commit({"y": 6}) == [0]
        assert account.commit({"y": 4}) is None

    def test_pin_violates_in_both_directions(self):
        state = {"x": 5}
        up = account_for([con({"x": 1}, "=", 5)], state)
        assert up.commit({"x": 1}) is not None
        assert up.violated_objects(up.commit({"x": 1})) == frozenset({"x"})
        down = account_for([con({"x": 1}, "=", 5)], state)
        assert down.commit({"x": -1}) is not None
        # A write that leaves the pinned value unchanged is fine.
        assert down.commit({"x": 0}) is None

    def test_pin_only_treaty_never_fast_admits_a_pin_break(self):
        # Regression: with no budget rows the window budget must not
        # default to a value above PIN_DRAIN, or small pin-breaking
        # deltas would be admitted without ever settling a counter.
        account = account_for([con({"x": 1}, "=", 5)], {"x": 5})
        for delta in (1, 3, 8):
            assert account.commit({"x": delta}) is not None, delta
        assert account.stats()["violations"] == 3

    def test_budget_excludes_pin_rows(self):
        # A zero-slack pin next to a roomy <=-clause must not disable
        # the fast path for commits that never touch the pin.
        account = account_for(
            [con({"x": 1}, "<=", 100), con({"y": 1}, "=", 5)],
            {"x": 0, "y": 5},
        )
        for _ in range(20):
            assert account.commit({"x": 1}) is None
        stats = account.stats()
        assert stats["fast_commits"] == 20
        assert stats["settlements"] == 0

    def test_window_cap_forces_settlement(self):
        account = account_for([con({"x": 1}, "<=", 1000)], {"x": 0}, window=4)
        for _ in range(5):
            assert account.commit({"x": 1}) is None
        stats = account.stats()
        assert stats["settlements"] == 1
        assert stats["fast_commits"] == 4
        assert stats["settled_commits"] == 1

    def test_resync_discards_pending_window(self):
        account = account_for([con({"x": 1}, "<=", 10)], {"x": 0})
        assert account.commit({"x": 4}) is None
        # A non-transactional write moved the store; resync must
        # recompute from it and drop the pending (already durable)
        # deltas rather than double-charging them.
        store = {"x": 7}
        account.resync(lambda n: store.get(n, 0), epoch=3)
        assert list(account.headroom_map().values()) == [3]
        assert account.synced_epoch == 3
        assert account.commit({"x": 4}) == [0]
        assert account.commit({"x": 3}) is None

    def test_negative_pin_row_forces_exact_path(self):
        # Off the H2 happy path: if a resync lands on a state that
        # already breaks a pin, every commit must be judged on exact
        # counters so the verdict matches the compiled oracle -- even
        # a zero-delta write to the broken pin's object.
        account = account_for([con({"x": 1}, "=", 5)], {"x": 5})
        store = {"x": 6}
        account.resync(lambda n: store.get(n, 0))
        assert account.commit({"x": 0}) is not None


def _scripted_deltas():
    return [
        {"x": 3},
        {"x": 3, "y": 2},
        {"y": -1},
        {"x": 5},  # overruns
        {"x": -2},
        {"x": 1, "y": 1},
        {"x": 100},  # violates
        {"y": 3},
    ]


class TestBatchingEquivalence:
    def test_batched_and_per_commit_verdicts_agree(self):
        cons = [con({"x": 1, "y": 1}, "<=", 12), con({"x": 1}, "<=", 9)]
        state = {"x": 0, "y": 0}
        batched = account_for(cons, state, window=DEFAULT_WINDOW)
        # window=0 settles on every commit: the pure per-commit mode.
        per_commit = account_for(cons, state, window=0)
        for deltas in _scripted_deltas():
            assert batched.commit(dict(deltas)) == per_commit.commit(dict(deltas))
        assert batched.headroom_map() == per_commit.headroom_map()
        # The batched account actually used the fast path.
        assert batched.stats()["fast_commits"] > 0
        assert per_commit.stats()["fast_commits"] == 0


# -- differential property test against the interpreted oracle ----------------

clauses = st.builds(
    con,
    st.dictionaries(
        st.sampled_from(OBJECTS), st.integers(-4, 4), min_size=1, max_size=3
    ),
    st.sampled_from(("<", "<=", "=", ">", ">=")),
    st.integers(-15, 15),
)
treaties = st.lists(clauses, min_size=1, max_size=4)
states = st.fixed_dictionaries({n: st.integers(-10, 10) for n in OBJECTS})
writes = st.dictionaries(
    st.sampled_from(OBJECTS), st.integers(-10, 10), min_size=1, max_size=3
)
steps = st.lists(
    st.one_of(
        writes.map(lambda w: ("write", w)),
        treaties.map(lambda t: ("install", t)),
    ),
    min_size=1,
    max_size=25,
)


class TestDifferential:
    @settings(max_examples=250, deadline=None)
    @given(
        cons=treaties,
        state0=states,
        script=steps,
        window=st.sampled_from((1, 2, DEFAULT_WINDOW)),
    )
    def test_escrow_matches_interpreted_oracle(self, cons, state0, script, window):
        """Accept/reject verdict and violated-object set must match
        ``violations_after_writes`` on every commit, for arbitrary
        (including treaty-breaking) pre-states, zero-delta writes, and
        reinstalls mid-sequence (the rebalance path)."""
        state = dict(state0)
        treaty = LocalTreaty(site=0, constraints=list(cons))
        account = account_for(cons, state, window=window)
        for kind, payload in script:
            if kind == "install":
                treaty = LocalTreaty(site=0, constraints=list(payload))
                account = account_for(payload, state, window=window)
                continue
            written = set(payload)
            post = dict(state)
            post.update(payload)
            oracle = treaty.violations_after_writes(
                lambda n: post.get(n, 0), written
            )
            deltas = {n: post[n] - state.get(n, 0) for n in written}
            verdict = account.commit(deltas)
            if oracle:
                assert verdict is not None, (deltas, state)
                assert account.violated_objects(verdict) == oracle
            else:
                assert verdict is None, (deltas, state, verdict)
                state = post
        # Settled counters end exactly at the final state's slack.
        account.settle()
        getobj = lambda n: state.get(n, 0)  # noqa: E731
        assert account.headroom == [row.slack(getobj) for row in account.program.rows]


class TestSiteIntegration:
    def test_a_treaty_that_does_not_lower_is_refused_at_install(self):
        """Nothing changes: the site keeps enforcing the treaty it held,
        on the account it held, and logs nothing."""
        from repro.protocol.site import SiteServer

        server = SiteServer(site_id=0, locate=lambda name: 0)
        held = LocalTreaty(site=0, constraints=[con({"x": 1}, "<=", 9)])
        server.install_treaty(held)
        account, logged = server.escrow, server.wal.size_bytes()
        bad = LinearConstraint.make(LinearExpr.variable(ParamT("p")), "<=", 3)
        refused = LocalTreaty(site=0, constraints=[con({"x": 1}, "<=", 7), bad])
        with pytest.raises(CompilationError):
            server.install_treaty(refused)
        assert server.local_treaty is held and server.escrow is account
        assert list(account.headroom_map().values()) == [9]
        assert server.wal.size_bytes() == logged
        assert server.escrow_installs == 1

    def test_install_builds_account_from_install_headroom(self):
        from repro.protocol.site import SiteServer

        server = SiteServer(site_id=0, locate=lambda name: 0)
        server.engine.poke("x", 4)
        server.install_treaty(LocalTreaty(site=0, constraints=[con({"x": 1}, "<=", 9)]))
        assert server.escrow is not None
        assert list(server.escrow.headroom_map().values()) == [5]
        assert server.escrow_installs == 1


def test_validate_mode_raises_on_seeded_divergence():
    """The differential guardrail must actually trip: corrupt a live
    escrow counter behind the account's back and the next divergent
    commit verdict raises instead of silently mis-enforcing."""
    import random

    from repro.treaty.escrow import EscrowDivergence
    from repro.workloads.micro import MicroWorkload

    workload = MicroWorkload(num_items=6, refill=12, num_sites=2, initial_qty="refill")
    cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
    server = cluster.sites[0]
    assert server.escrow is not None
    # Steal every counter's headroom: the escrow path now rejects
    # commits the interpreted oracle accepts.
    server.escrow.settle()
    server.escrow.headroom[:] = [-1] * len(server.escrow.headroom)
    server.escrow._install_hot_path()
    rng = random.Random(0)
    with pytest.raises(EscrowDivergence):
        for _ in range(50):
            req = workload.next_request(rng, site=0)
            cluster.submit(req.tx_name, req.params)
