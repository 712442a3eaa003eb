"""Treaty WAL: durability, torn tails, replay edge cases.

Covers the recovery-critical corners the fault-tolerant runtime
depends on:

- round-trip encode/decode of a real installed local treaty;
- a torn final record (crash mid-append) is dropped on replay and is
  safe to drop *because* installs are logged before the ack;
- replay is idempotent (replaying twice converges);
- crash mid-install -- the install was logged but never enforced, so
  never acknowledged -- still recovers the logged treaty;
- interior corruption (damage to an already-durable record) is loud;
- an install is logged as a snapshot or as a delta against the install
  record before it: the chain folds back to the snapshot form, a torn
  delta is dropped like any torn tail, a delta that does not continue
  the record before it is corruption, and a replay reads one chain
  from the tail however long the log is.
"""

import json
import random

import pytest

from repro.analysis.pathsplit import decode_path_checks
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT
from repro.protocol.site import SiteServer
from repro.storage import wal as wal_module
from repro.storage.wal import (
    SNAPSHOT_EVERY,
    TreatyWAL,
    WALCorruption,
    apply_treaty_delta,
    decode_local_treaty,
    encode_local_treaty,
    encode_treaty_delta,
)
from repro.treaty.table import LocalTreaty
from repro.workloads.micro import MicroWorkload


def _clause(names_coeffs, op, bound):
    expr = LinearExpr.make({ObjT(n): c for n, c in names_coeffs})
    return LinearConstraint.make(expr, op, bound)


def _sample_treaty():
    return LocalTreaty(
        site=1,
        constraints=[
            _clause([("qty_delta[0]@s1", 1)], "<=", 12),
            _clause([("qty_delta[1]@s1", 2), ("qty_delta[2]@s1", -1)], "<=", 5),
            _clause([("qty_base[0]", 1)], "=", 40),
        ],
    )


class TestCodec:
    def test_round_trip(self):
        treaty = _sample_treaty()
        headroom = {treaty.constraints[0]: 7, treaty.constraints[1]: 3}
        record = encode_local_treaty(treaty, headroom)
        decoded, decoded_headroom = decode_local_treaty(record)
        assert decoded.site == treaty.site
        assert [c.pretty() for c in decoded.constraints] == [
            c.pretty() for c in treaty.constraints
        ]
        assert decoded_headroom == {
            decoded.constraints[0]: 7,
            decoded.constraints[1]: 3,
        }

    def test_round_trip_of_real_installed_treaty(self):
        workload = MicroWorkload(num_items=20, refill=30, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split")
        site = cluster.sites[0]
        record = encode_local_treaty(site.local_treaty, site.install_headroom)
        decoded, headroom = decode_local_treaty(record)
        assert {c.pretty() for c in decoded.constraints} == {
            c.pretty() for c in site.local_treaty.constraints
        }
        assert set(headroom.values()) == set(site.install_headroom.values())


class TestTornTail:
    def test_torn_final_record_dropped(self):
        wal = TreatyWAL()
        wal.append({"kind": "treaty_install", "round": 1, "n": 1})
        wal.append({"kind": "treaty_install", "round": 2, "n": 2})
        wal.tear(5)  # crash mid-append of record 2
        records = wal.records()
        assert [r["round"] for r in records] == [1]
        assert wal.last_treaty_install()["round"] == 1

    def test_fully_torn_log_is_empty(self):
        wal = TreatyWAL()
        wal.append({"kind": "treaty_install", "round": 1})
        wal.tear(wal.size_bytes())
        assert wal.records() == []
        assert wal.last_treaty_install() is None

    def test_truncate_torn_tail_repairs_in_place(self):
        wal = TreatyWAL()
        wal.append({"kind": "treaty_install", "round": 1})
        size_after_one = wal.size_bytes()
        wal.append({"kind": "treaty_install", "round": 2})
        wal.tear(3)
        removed = wal.truncate_torn_tail()
        assert removed > 0
        assert wal.size_bytes() == size_after_one
        # The repaired log appends and replays normally.
        wal.append({"kind": "treaty_install", "round": 3})
        assert [r["round"] for r in wal.records()] == [1, 3]

    def test_interior_corruption_is_loud(self):
        wal = TreatyWAL()
        wal.append({"kind": "treaty_install", "round": 1})
        wal.append({"kind": "treaty_install", "round": 2})
        wal._buf[2:6] = b"\x00\x00\x00\x00"  # damage a durable record
        with pytest.raises(WALCorruption):
            wal.records()


class TestReplay:
    def _cluster(self, **kwargs):
        workload = MicroWorkload(
            num_items=16, refill=12, num_sites=2, initial_qty="refill"
        )
        return workload, workload.build_homeostasis(
            strategy="equal-split", validate=True, **kwargs
        )

    def _drive_until_negotiation(self, workload, cluster, seed=0):
        import random

        rng = random.Random(seed)
        for _ in range(400):
            req = workload.next_request(rng, site=rng.randrange(2))
            if cluster.submit(req.tx_name, req.params).synced:
                return
        raise AssertionError("workload never negotiated")

    def test_replay_restores_last_install(self):
        workload, cluster = self._cluster()
        self._drive_until_negotiation(workload, cluster)
        site = cluster.sites[1]
        expected = {c.pretty() for c in site.local_treaty.constraints}
        expected_round = site.treaty_round
        expected_headroom = dict(site.install_headroom)

        site.local_treaty = None  # crash: volatile state gone
        site.install_headroom = {}
        assert site.replay_wal() == expected_round
        assert {c.pretty() for c in site.local_treaty.constraints} == expected
        # The recorded headroom snapshot survives (not recomputed from
        # the current state, where slack may already be consumed).
        assert sorted(site.install_headroom.values()) == sorted(
            expected_headroom.values()
        )

    def test_replay_is_idempotent(self):
        workload, cluster = self._cluster()
        self._drive_until_negotiation(workload, cluster)
        site = cluster.sites[0]
        appended_before = site.wal.appended
        first = site.replay_wal()
        state_first = {c.pretty() for c in site.local_treaty.constraints}
        second = site.replay_wal()
        assert first == second
        assert {c.pretty() for c in site.local_treaty.constraints} == state_first
        # Replays must not re-append to the log.
        assert site.wal.appended == appended_before

    def test_crash_mid_install_recovers_logged_treaty(self, monkeypatch):
        """Install logged but never enforced: the site crash-stops right
        after the append, while it still holds its old treaty -- so
        before anything could have acknowledged the new one.
        Log-before-enforce means recovery still has the treaty, so no
        peer's belief about this site is ever wrong."""

        class CrashStop(Exception):
            pass

        workload = MicroWorkload(
            num_items=16, refill=12, num_sites=2, initial_qty="refill"
        )
        cluster = workload.build_homeostasis(strategy="equal-split")
        site = cluster.sites[1]
        shipped = _sample_treaty()
        enforced_at_append = []
        append = site.wal.append

        def append_then_crash(record):
            append(record)
            enforced_at_append.append(site.local_treaty is shipped)
            raise CrashStop

        monkeypatch.setattr(site.wal, "append", append_then_crash)
        with pytest.raises(CrashStop):
            site.install_treaty(shipped, round_number=99)
        assert enforced_at_append == [False]
        monkeypatch.undo()

        # Restart: volatile state gone, WAL survives.
        site.local_treaty = None
        site.install_headroom = {}
        assert site.replay_wal() == 99
        assert [c.pretty() for c in site.local_treaty.constraints] == [
            c.pretty() for c in shipped.constraints
        ]


def _install_kinds(wal):
    return [r["kind"] for r in wal.records() if r["kind"].startswith("treaty_")]


def _bare_site(installs, clauses=6):
    """One site, ``installs`` treaties of ``clauses`` clauses each
    differing from the one before in a single bound."""
    site = SiteServer(site_id=0, locate=lambda name: 0)
    held = [_clause([(f"q[{i}]", 1)], "<=", 50) for i in range(clauses)]
    for round_number in range(installs):
        at = round_number % clauses
        moved = _clause([(f"q[{at}]", 1)], "<=", 50 + round_number)
        held = [*held[:at], moved, *held[at + 1 :]]
        site.install_treaty(LocalTreaty(site=0, constraints=held), round_number)
    return site


class TestDeltaChain:
    def _negotiated_site(self, negotiations=12):
        workload = MicroWorkload(
            num_items=16, refill=12, num_sites=2, initial_qty="refill"
        )
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        rng = random.Random(0)
        while cluster.stats.negotiations < negotiations:
            req = workload.next_request(rng, site=rng.randrange(2))
            cluster.submit(req.tx_name, req.params)
        return cluster.sites[1]

    def test_snapshot_then_deltas_round_trip_a_real_installed_treaty(self):
        site = self._negotiated_site()
        kinds = _install_kinds(site.wal)
        assert kinds[0] == "treaty_install" and set(kinds[1:]) == {"treaty_delta"}
        assert len(kinds) > 10
        folded = site.wal.last_treaty_install()
        treaty, headroom = decode_local_treaty(folded)
        assert folded["kind"] == "treaty_install"
        assert folded["round"] == site.treaty_round
        assert treaty.constraints == site.local_treaty.constraints  # in order
        assert headroom == site.install_headroom
        assert decode_path_checks(folded["paths"]) == site.path_checks
        # ... and a delta is what the round changed, not the treaty.
        sizes = [len(line) for line in bytes(site.wal._buf).splitlines()]
        assert sum(sizes[1:]) / len(sizes[1:]) < sizes[0] / 2

    def test_torn_delta_tail_replays_to_the_previous_install(self):
        site = self._negotiated_site()
        last = bytes(site.wal._buf).splitlines()[-1]
        assert json.loads(last)["kind"] == "treaty_delta"
        whole = site.wal.last_treaty_install()
        site.wal.tear(len(last) // 2)  # crash mid-append of the last delta
        previous = site.wal.last_treaty_install()
        assert previous["round"] < whole["round"]
        assert site.replay_wal() == previous["round"]
        replayed, _headroom = decode_local_treaty(previous)
        assert site.local_treaty.constraints == replayed.constraints
        # The repair cut the torn bytes off, so the log appends and
        # replays normally -- and the first record after a replay is a
        # snapshot (the site has no baseline to write a delta against).
        site.install_treaty(site.local_treaty, previous["round"] + 1)
        assert _install_kinds(site.wal)[-1] == "treaty_install"
        assert site.wal.last_treaty_install()["round"] == previous["round"] + 1

    def test_a_delta_must_continue_the_install_record_before_it(self):
        treaty = _sample_treaty()
        snapshot = {"kind": "treaty_install", "round": 4, **encode_local_treaty(treaty)}
        extra = _clause([("qty_delta[3]@s1", 1)], "<=", 9)

        def delta(base, round_number, removed=(), added=(), grants=()):
            body = encode_treaty_delta(base, list(removed), list(added), list(grants))
            return {"kind": "treaty_delta", "round": round_number, **body}

        good = TreatyWAL()
        good.append(snapshot)
        good.append(delta(4, 5, added=[(1, extra)], grants=[(1, 2)]))
        good.append(delta(5, 6, removed=[0]))
        folded, headroom = decode_local_treaty(good.last_treaty_install())
        assert folded.constraints == [extra, *treaty.constraints[1:]]
        assert headroom == {extra: 2}

        for broken in (
            [snapshot, delta(4, 5), delta(4, 6)],  # skips the round-5 install
            [snapshot, delta(3, 5)],
            [snapshot, delta(4, 5, removed=[3])],  # the base holds three clauses
            [snapshot, delta(4, 5, removed=[1, 1])],
            [snapshot, delta(4, 5, added=[(5, extra)])],
            [snapshot, delta(4, 5, grants=[(3, 1)])],
            [delta(4, 5)],  # a chain with no snapshot under it
        ):
            wal = TreatyWAL()
            for record in broken:
                wal.append(record)
            with pytest.raises(WALCorruption):
                wal.last_treaty_install()

    def test_interior_corruption_inside_a_chain_is_loud(self):
        site = self._negotiated_site()
        lines = bytes(site.wal._buf).splitlines(keepends=True)
        middle = len(lines) // 2
        assert json.loads(lines[middle])["kind"] == "treaty_delta"
        start = sum(map(len, lines[:middle]))
        site.wal._buf[start + 2 : start + 6] = b"\x00\x00\x00\x00"
        with pytest.raises(WALCorruption):
            site.wal.last_treaty_install()
        with pytest.raises(WALCorruption):
            site.replay_wal()

    def test_every_kth_install_record_is_a_snapshot(self):
        site = _bare_site(2 * SNAPSHOT_EVERY + 3)
        kinds = _install_kinds(site.wal)
        assert [at for at, kind in enumerate(kinds) if kind == "treaty_install"] == [
            0,
            SNAPSHOT_EVERY,
            2 * SNAPSHOT_EVERY,
        ]

    def test_replay_decodes_one_chain_however_long_the_log(self, monkeypatch):
        site = _bare_site(1000)
        live = (site.treaty_round, site.local_treaty.constraints, site.install_headroom)
        decoded = []
        decode = wal_module._decode_line

        def counting(line):
            decoded.append(decode(line))
            return decoded[-1]

        monkeypatch.setattr(wal_module, "_decode_line", counting)
        folded = site.wal.last_treaty_install()
        assert len(decoded) <= SNAPSHOT_EVERY + 1
        treaty, headroom = decode_local_treaty(folded)
        assert (folded["round"], treaty.constraints, headroom) == live

    def test_fold_is_what_the_site_wrote(self):
        """``apply_treaty_delta`` over every record of a real log gives,
        install by install, what the site held at that install."""
        site = SiteServer(site_id=0, locate=lambda name: 0)
        rng = random.Random(7)
        held = [_clause([(f"q[{i}]", 1)], "<=", 20) for i in range(5)]
        expected = []
        for round_number in range(40):
            move = rng.random()
            if move < 0.4:
                name, coeff = f"q[{rng.randrange(9)}]", rng.choice((1, 2))
                held = held + [_clause([(name, coeff)], "<=", rng.randrange(30))]
            elif move < 0.7 and held:
                gone = rng.randrange(len(held))
                held = held[:gone] + held[gone + 1 :]
            site.engine.poke(f"q[{rng.randrange(9)}]", rng.randrange(5))
            site.install_treaty(LocalTreaty(site=0, constraints=held), round_number)
            body = encode_local_treaty(
                site.local_treaty, site.install_headroom, site.path_checks
            )
            expected.append({"kind": "treaty_install", "round": round_number, **body})
        state, folded = None, []
        for record in site.wal.records():
            if record["kind"] == "treaty_delta":
                record = apply_treaty_delta(state, record)
            state = record
            folded.append(state)
        assert folded == expected
