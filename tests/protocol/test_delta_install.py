"""Delta rounds against a from-scratch reference, round for round.

A negotiation carries a *clause delta* through generation, assembly and
install (docs/ARCHITECTURE.md, "What a round costs").  The reference
here is what an install did before installs were deltas -- every value
derived from (catalog, treaty, store) with the from-scratch functions --
and every install of every round, at every site, must leave exactly
that behind: a log that replays (last snapshot, then its delta chain)
to the bytes of the full ``treaty_install`` record, the install-time
headroom, the path partition, and an escrow account enforcing the same
rows from the same counters under the same window budget (rows named
by their constraint: the patched program numbers them by slot, the
from-scratch one by position).  The treaty table each round assembles
incrementally is held to whole-treaty assembly the same way.

Validate mode is off: the delta path must be right on its own, not
because the oracle ran beside it.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.analysis.pathsplit import build_path_checks
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.parser import parse_transaction
from repro.logic.compile import CompilationError, lower_to_escrow
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT, ParamT
from repro.protocol.site import SiteServer
from repro.storage.wal import decode_local_treaty, encode_local_treaty
from repro.treaty.escrow import EscrowAccount
from repro.treaty.table import InstallDivergence, LocalTreaty
from repro.workloads.flashsale import FlashSaleWorkload
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload
from repro.workloads.tpcc import TpccWorkload

WORKLOADS = {
    "micro": lambda: MicroWorkload(
        num_items=6, refill=9, num_sites=3, audit_fraction=0.2
    ),
    "geo": lambda: GeoMicroWorkload(
        groups=((0, 1), (2, 3)), num_sites=4, items_per_group=3, refill=10
    ),
    "flash-sale": lambda: FlashSaleWorkload(
        num_skus=4, hot_stock=25, cold_stock=12, peek_fraction=0.1
    ),
    "tpcc": lambda: TpccWorkload(
        num_warehouses=1,
        num_districts=1,
        items_per_district=4,
        num_customers=3,
        num_sites=2,
        hotness=30,
        initial_stock=12,
    ),
}


def _line(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _assert_install_is_the_reference(server, round_number):
    """What installing ``server.local_treaty`` from scratch on the
    server's current store leaves behind."""
    treaty, peek = server.local_treaty, server.engine.peek
    headroom = {con: con.slack(peek) for con in treaty.constraints if con.op == "<="}
    paths = build_path_checks(server.catalog, treaty)
    record = {"kind": "treaty_install", "round": round_number}
    record.update(encode_local_treaty(treaty, headroom, paths))
    # The log, replayed through its chain, re-encodes to exactly the
    # snapshot record a from-scratch install writes.
    assert _line(server.wal.last_treaty_install()) == _line(record)
    assert server.install_headroom == headroom
    assert server.path_checks == paths
    program = lower_to_escrow(treaty.constraints)
    counters = [
        headroom[row] if row in headroom else row.slack(peek) for row in program.rows
    ]
    assert server.escrow.enforced() == EscrowAccount(program, counters).enforced()


@pytest.fixture
def installs(monkeypatch):
    """Hold every install, as it happens, to the reference; collects
    the kind of record each one logged."""
    install = SiteServer.install_treaty
    seen = []

    def checked(self, treaty, round_number=-1):
        size, appended = self.wal.size_bytes(), self.wal.appended
        install(self, treaty, round_number)
        assert self.wal.appended == appended + 1
        _assert_install_is_the_reference(self, round_number)
        seen.append(json.loads(self.wal._buf[size:])["kind"])

    monkeypatch.setattr(SiteServer, "install_treaty", checked)
    return seen


@pytest.mark.parametrize("strategy", ["default", "equal-split", "demand", "optimized"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_matches_the_from_scratch_reference(name, strategy, installs):
    workload = WORKLOADS[name]()
    cluster = workload.build_homeostasis(strategy=strategy, validate=False)
    bootstrap = len(installs)
    assert bootstrap == len(cluster.site_ids)
    cluster.generator.assert_matches_scratch(cluster.treaty_table)
    rng = random.Random(5)
    rounds = cluster.stats.rounds
    for _ in range(150):
        req = workload.next_request(rng)
        cluster.submit(req.tx_name, req.params)
        if cluster.stats.rounds != rounds:
            rounds = cluster.stats.rounds
            cluster.generator.assert_matches_scratch(cluster.treaty_table)
    # Not vacuous: rounds past the bootstrap ran, as deltas.
    assert len(installs) > bootstrap + 4
    assert set(installs[:bootstrap]) == {"treaty_install"}
    assert installs.count("treaty_delta") >= 0.9 * (len(installs) - bootstrap)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_after_thirty_delta_rounds_is_the_live_state(name):
    """Thirty and more installs logged as deltas behind one snapshot,
    at every site; then each site forgets everything volatile and
    replays its log -- chain folded over the snapshot, everything else
    derived from scratch.  It must come back holding what it held."""
    workload = WORKLOADS[name]()
    cluster = workload.build_homeostasis(strategy="equal-split", validate=False)
    rng = random.Random(8)

    def delta_records(server):
        return sum(r["kind"] == "treaty_delta" for r in server.wal.records())

    for _ in range(4000):
        if all(delta_records(s) >= 30 for s in cluster.sites.values()):
            break
        req = workload.next_request(rng)
        cluster.submit(req.tx_name, req.params)
    else:
        raise AssertionError("not every site logged thirty delta installs")
    for server in cluster.sites.values():
        live = (
            server.treaty_round,
            list(server.local_treaty.constraints),
            dict(server.install_headroom),
            dict(server.path_checks),
            server.escrow.enforced(),
        )
        server.local_treaty, server.install_headroom, server.path_checks = None, {}, {}
        server.drop_escrow()
        assert server.replay_wal() == live[0]
        assert (
            server.treaty_round,
            server.local_treaty.constraints,
            server.install_headroom,
            server.path_checks,
            server.escrow.enforced(),
        ) == live


def test_untouched_objects_are_shared_between_consecutive_tables():
    """A scoped negotiation hands non-participants the very
    ``LocalTreaty`` they hold, and participants keep every clause the
    round did not re-derive."""
    workload = WORKLOADS["geo"]()
    cluster = workload.build_homeostasis(strategy="equal-split")
    rng = random.Random(3)
    shared_locals = kept_clauses = 0
    for _ in range(200):
        before = cluster.treaty_table
        req = workload.next_request(rng)
        result = cluster.submit(req.tx_name, req.params)
        after = cluster.treaty_table
        if after is before:
            continue
        for sid in cluster.site_ids:
            old, new = before.local_for(sid), after.local_for(sid)
            if sid not in result.participants:
                assert new is old
                shared_locals += 1
            else:
                held = {id(con) for con in old.constraints}
                kept_clauses += sum(id(con) in held for con in new.constraints)
    assert shared_locals > 0 and kept_clauses > 0


def test_a_corrupted_row_shape_fails_the_next_validated_round():
    """Generation binds each piece from what its row derived the first
    time it matched; validate mode derives the round's pieces afresh
    and refuses a shape that no longer says what the row does."""
    workload = WORKLOADS["micro"]()
    cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
    generator = cluster.generator
    hot = generator.instances_touching({"qty[2]"})
    for (idx, row), (lin, templates) in list(generator._shapes.items()):
        if idx in hot:
            first = lin.constraints[0]
            loosened = LinearConstraint(first.expr, first.op, first.bound + 1)
            corrupt = replace(lin, constraints=[loosened, *lin.constraints[1:]])
            generator._shapes[idx, row] = (corrupt, templates)
    with pytest.raises(InstallDivergence, match="row shape"):
        for _ in range(50):
            cluster.submit("Buy@s0", {"item": 2})
    assert cluster.stats.rounds == 2  # the bootstrap, then the round that raised


# -- one site, arbitrary reinstalls ----------------------------------------------

SOURCES = (
    "transaction Drain() { v := read(x); write(x = v - 1) }",
    "transaction Probe() { v := read(x); print(v) }",
    "transaction Tap() { v := read(qty(0)); write(qty(0) = v - 1) }",
    "transaction BuyP(i) { v := read(qty(@i)); write(qty(@i) = v - 1) }",
    "transaction Fill(i) { v := read(cap(@i)); write(cap(@i) = v + 2) }",
)


def _clause(rng):
    objects = ["x", "y", "qty[0]", "qty[1]", "qty[2]", "cap[0]"]
    names = rng.sample(objects, rng.choice((1, 1, 2)))
    coeffs = {ObjT(name): rng.choice((-2, -1, 1, 3)) for name in names}
    op = "=" if rng.random() < 0.15 else "<="
    return LinearConstraint.make(LinearExpr.make(coeffs), op, rng.randrange(-3, 9))


#: a clause treaty generation never emits: over a parameter, so it has
#: no escrow lowering and is outside what the WAL codec carries
OPAQUE = LinearConstraint.make(LinearExpr.make({ParamT("p"): 1}), "<=", 3)


@pytest.mark.parametrize("seed", range(5))
def test_arbitrary_reinstalls_pass_the_install_oracle(seed):
    """Any sequence of local treaties -- clauses kept, dropped, added,
    reordered, listed twice, re-decoded into fresh objects, the same
    treaty object again -- installs to what a from-scratch install
    derives (``validate_escrow`` raises ``InstallDivergence`` if not).
    Commits run in between, so a carried clause's counter is no longer
    the grant it started from and has to be what the store says
    anyway.  Now and then a treaty carries a clause over a parameter:
    the install is refused and the site keeps the treaty it held, its
    account and its log as they were."""
    rng = random.Random(seed)
    server = SiteServer(site_id=0, locate=lambda name: 0, validate_escrow=True)
    for source in SOURCES:
        server.catalog.register(build_symbolic_table(parse_transaction(source)))
    clauses = [_clause(rng) for _ in range(4)]
    commits = refused = 0
    for round_number in range(80):
        move = rng.random()
        if move < 0.35:
            clauses = clauses + [_clause(rng)]
        elif move < 0.55 and clauses:
            clauses = [c for c in clauses if c is not rng.choice(clauses)]
        elif move < 0.65:
            clauses = rng.sample(clauses, len(clauses))
        elif move < 0.75 and clauses:
            clauses = clauses + [rng.choice(clauses)]
        if 0.75 <= move < 0.85:
            record = encode_local_treaty(LocalTreaty(site=0, constraints=clauses))
            clauses = decode_local_treaty(record)[0].constraints
        server.engine.poke("x", rng.randrange(0, 6))
        server.engine.poke("qty[1]", rng.randrange(0, 6))
        if rng.random() < 0.1 and server.local_treaty is not None:
            held = server.local_treaty, server.escrow, server.wal.size_bytes()
            opaque = LocalTreaty(site=0, constraints=[*clauses, OPAQUE])
            with pytest.raises(CompilationError):
                server.install_treaty(opaque, round_number)
            assert (server.local_treaty, server.escrow, server.wal.size_bytes()) == held
            refused += 1
        treaty = LocalTreaty(site=0, constraints=list(clauses))
        server.install_treaty(treaty, round_number)
        assert server.escrow is not None
        if rng.random() < 0.2:
            server.install_treaty(treaty, round_number)  # same object again
        if rng.random() < 0.1:
            server.replay_wal()
        for _ in range(rng.randrange(4)):
            tx_name = rng.choice(("Drain", "Tap", "BuyP", "Fill"))
            outcome = server.execute(tx_name, {"i": rng.randrange(3)})
            commits += outcome.committed
    assert commits > 20  # and the clauses did not just reject them all
    assert refused > 0
    kinds = {check.kind for checks in server.path_checks.values() for check in checks}
    assert kinds  # classified every round; the oracle compared each one
