"""Escrow account tests: lowering, counter semantics, and the
differential property against the interpreted oracle.

The escrow account (:mod:`repro.treaty.escrow`) is a site's one
commit-time treaty check: decrement-only headroom counters, settled
exactly on every commit.  Its contract is *observational equivalence*
with :meth:`LocalTreaty.violations_after_writes` -- same accept/reject
verdict and same violated-object set on every commit -- which the
Hypothesis test here checks over random ``<=``/``=`` treaties, random
write sequences (zero deltas and exact-zero headroom included), and
mid-sequence treaty reinstalls; a second property holds every counter
to its row's slack on the store after every commit.
"""

from __future__ import annotations

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.compile import CompilationError, lower_clause, lower_to_escrow
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT, ParamT
from repro.treaty.escrow import EscrowAccount
from repro.treaty.table import LocalTreaty

OBJECTS = ("x", "y", "z")


def con(coeffs: dict[str, int], op: str, bound: int) -> LinearConstraint:
    return LinearConstraint.make(
        LinearExpr.make({ObjT(n): c for n, c in coeffs.items()}), op, bound
    )


def account_for(constraints, state: dict[str, int]) -> EscrowAccount:
    program = lower_to_escrow(constraints)
    getobj = lambda n: state.get(n, 0)  # noqa: E731
    return EscrowAccount(program, [row.slack(getobj) for row in program.rows])


class TestLowering:
    def test_le_clause_is_one_budget_row(self):
        program = lower_to_escrow((con({"x": 2, "y": -1}, "<=", 7),))
        assert program.rows == [con({"x": 2, "y": -1}, "<=", 7)]
        assert program.touching == {"x": [(0, 2)], "y": [(0, -1)]}

    def test_equality_pin_lowers_to_opposing_pair_outside_budget(self):
        program = lower_to_escrow((con({"x": 1}, "=", 5),))
        assert program.rows == [con({"x": 1}, "<=", 5), con({"x": -1}, "<=", -5)]
        assert program.touching == {"x": [(0, 1), (1, -1)]}
        assert not lower_clause(con({"x": 1}, "=", 5)).budget

    def test_strict_and_reversed_ops_normalize_to_eligible_forms(self):
        # LinearConstraint.make normalizes <, >, >= into <= over the
        # integers, so every comparison op lowers to one budget row.
        for op in ("<", "<=", ">", ">="):
            program = lower_to_escrow((con({"x": 1}, op, 5),))
            assert [row.op for row in program.rows] == ["<="]
            assert [slot for slot, _coeff in program.touching["x"]] == [0]

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
        account.install([], lowered.values(), (), getobj)
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
        account.install([], [], ["x"], getobj)  # ... one of them owned up to
        assert reads == ["x"]
        assert account.headroom_map() == {held[0]: 6, held[1]: 9}


class TestAccount:
    def test_exact_zero_headroom_is_not_a_violation(self):
        account = account_for([con({"x": 1}, "<=", 5)], {"x": 0})
        assert account.commit({"x": 5}) is None  # lands exactly on the bound
        assert list(account.headroom_map().values()) == [0]
        assert account.commit({"x": 1}) == [0]

    def test_rejection_reverts_state(self):
        account = account_for([con({"x": 1}, "<=", 5)], {"x": 0})
        assert account.commit({"x": 9}) == [0]
        # The rejected deltas were backed out: headroom intact, and a
        # commit that fits is still admitted.
        assert list(account.headroom_map().values()) == [5]
        assert account.commit({"x": 5}) is None

    def test_refill_restores_headroom(self):
        account = account_for([con({"x": 1}, "<=", 5)], {"x": 0})
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
        # A pin has zero slack whenever it holds: however many commits
        # leaving the pinned value unchanged were admitted before, a
        # write that moves it in either direction is rejected.
        account = account_for([con({"x": 1}, "=", 5)], {"x": 5})
        for _ in range(20):
            assert account.commit({"x": 0}) is None
            for delta in (1, -1, 8):
                verdict = account.commit({"x": delta})
                assert verdict is not None, delta
                assert account.violated_objects(verdict) == frozenset({"x"})
        assert account.stats()["violations"] == 60

    def test_budget_excludes_pin_rows(self):
        # A zero-slack pin next to a roomy <=-clause neither blocks the
        # commits that never touch the pin nor lets them carry a pin
        # break through.
        account = account_for(
            [con({"x": 1}, "<=", 100), con({"y": 1}, "=", 5)],
            {"x": 0, "y": 5},
        )
        for _ in range(20):
            assert account.commit({"x": 1}) is None
            verdict = account.commit({"y": 1})
            assert verdict is not None
            assert account.violated_objects(verdict) == frozenset({"y"})
        assert account.stats()["violations"] == 20
        # The roomy clause's budget is spent only by the admitted commits.
        assert account.commit({"x": 80}) is None
        assert account.commit({"x": 1}) is not None

    def test_resync_reads_every_row_over_a_moved_object_from_the_store(self):
        held = [
            con({"x": 1}, "<=", 10),
            con({"x": 1, "y": 2}, "<=", 20),
            con({"z": 1}, "<=", 10),
        ]
        account = account_for(held, {"x": 0, "y": 0, "z": 0})
        assert account.commit({"x": 4, "z": 2}) is None
        # x and y were written outside a commit; the store already
        # reflects the admitted commit, so nothing is charged twice.
        store = {"x": 7, "y": 3, "z": 2}
        reads = []

        def getobj(name):
            reads.append(name)
            return store[name]

        account.resync(getobj, ["x", "y"])
        assert set(reads) == {"x", "y"}
        assert account.headroom_map() == {held[0]: 3, held[1]: 7, held[2]: 8}
        assert account.stats()["resyncs"] == 1
        assert account.commit({"x": 4}) == [0]
        assert account.commit({"x": 3}) is None

    def test_every_verdict_equals_the_oracle_after_an_off_h2_resync(self):
        # Off the H2 happy path: a resync lands on a state that already
        # breaks a pin.  Every verdict still is the interpreted
        # oracle's -- a zero-delta write to the broken pin's object
        # included, and a write beside it not.
        treaty = LocalTreaty(
            site=0,
            constraints=[con({"x": 1}, "=", 5), con({"x": 1, "y": 1}, "<=", 9)],
        )
        account = account_for(treaty.constraints, {"x": 5, "y": 0})
        store = {"x": 6, "y": 0}
        account.resync(store.__getitem__, ["x"])
        for deltas in ({"x": 0}, {"y": 0}, {"y": 1}, {"x": -1}, {"x": 1}, {"y": 9}):
            post = {n: v + deltas.get(n, 0) for n, v in store.items()}
            oracle = treaty.violations_after_writes(post.__getitem__, set(deltas))
            verdict = account.commit(deltas)
            assert (
                account.violated_objects(verdict) if verdict is not None else set()
            ) == oracle, deltas
            if verdict is None:
                store = post
        assert account.stats()["violations"] == 3


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
    @settings(max_examples=examples(250), deadline=None)
    @given(cons=treaties, state0=states, script=steps)
    def test_escrow_matches_interpreted_oracle(self, cons, state0, script):
        """Accept/reject verdict and violated-object set must match
        ``violations_after_writes`` on every commit, for arbitrary
        (including treaty-breaking) pre-states, zero-delta writes, and
        reinstalls mid-sequence (the rebalance path)."""
        state = dict(state0)
        treaty = LocalTreaty(site=0, constraints=list(cons))
        account = account_for(cons, state)
        for kind, payload in script:
            if kind == "install":
                treaty = LocalTreaty(site=0, constraints=list(payload))
                account = account_for(payload, state)
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
        # The counters end exactly at the final state's slack.
        getobj = lambda n: state.get(n, 0)  # noqa: E731
        assert account.headroom == [row.slack(getobj) for row in account.program.rows]

    @settings(max_examples=examples(100), deadline=None)
    @given(cons=treaties, state0=states, script=steps)
    def test_counters_are_exact_after_every_commit(self, cons, state0, script):
        """After every commit, admitted or rejected, and every patched
        install, each live counter is its row's slack on the store --
        with nothing run between commits to bring it there."""
        state = dict(state0)
        getobj = lambda n: state.get(n, 0)  # noqa: E731
        held = [lower_clause(c) for c in cons]
        account = EscrowAccount(lower_to_escrow(()), ())
        account.install((), held, (), getobj)
        for kind, payload in script:
            if kind == "install":
                entering = [lower_clause(c) for c in payload]
                account.install(held, entering, (), getobj)
                held = entering
            else:
                post = {**state, **payload}
                if account.commit({n: post[n] - getobj(n) for n in payload}) is None:
                    state = post
            for slot, row in enumerate(account.program.rows):
                if row is not None:
                    assert account.headroom[slot] == row.slack(getobj), (kind, payload)


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
    server.escrow.headroom[:] = [-1] * len(server.escrow.headroom)
    rng = random.Random(0)
    with pytest.raises(EscrowDivergence):
        for _ in range(50):
            req = workload.next_request(rng, site=0)
            cluster.submit(req.tx_name, req.params)
