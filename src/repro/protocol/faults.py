"""Deterministic fault injection for the message transport.

The correctness kernel is synchronous and fault-free by default: every
:meth:`~repro.protocol.transport.Transport.send` delivers instantly.
Production systems are not so lucky, and the homeostasis protocol's
headline property -- sites coordinate only when a treaty is violated
-- has a fault-tolerance corollary worth measuring: a site that
cannot be reached blocks *only* the negotiations whose participant
closure includes it, while every other site keeps committing on its
local treaty.  (Contrast 2PC, which Gray & Lamport's *Consensus on
Transaction Commit* shows blocks globally the moment one participant
is unreachable.)

A :class:`FaultPlan` is a **deterministic, seedable** schedule of
three fault classes, all expressed on the transport's own clock (the
monotone event counter bumped by every open/send/close), so two runs
over the same workload produce byte-identical fault histories:

- **message loss** (``drop_rate``): each message independently drops
  with the given probability.  The draw hashes ``(seed, message
  index)`` instead of consuming a sequential RNG, so the fate of
  message *n* does not depend on how many other messages were sent --
  schedules are stable under refactors that add or remove traffic.
- **message delay** (``delay_rate`` / ``delay_ms``): a delayed message
  still arrives, carrying a latency annotation recorded on the
  transport trace (``NegotiationTrace.delay_ms``) for analysis; a
  delay at or past ``timeout_ms`` is indistinguishable from a drop to
  the sender (the classic lossy-link equivalence) and is surfaced the
  same way.
- **site crash-stop** (``crash_after``): site *s* halts immediately
  after handling its *k*-th inbound message -- the state change (and
  any write-ahead logging) of that message happened, but the reply
  never leaves the site.  This is exactly the "install logged but ack
  never sent" window recovery must handle.
- **network partition** (:class:`Partition`): a set of undirected
  edges is severed during an event-counter interval; messages routed
  over a severed edge are unreachable until the interval ends.

Faults never hang the synchronous kernel: anything a real deployment
would discover by waiting out a timer surfaces immediately as
:class:`UnreachableError` ("timeout surfacing"), which the protocol
layer converts into a clean round abort and the simulator prices as a
``SYNC_TIMEOUT_MS`` stall.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.protocol.transport import UnreachableError

__all__ = ["FaultPlan", "Partition", "UnreachableError"]


@dataclass(frozen=True)
class Partition:
    """A network partition over an explicit edge set.

    ``edges`` are undirected ``(a, b)`` site pairs (``a < b``) severed
    while the transport's event counter lies in ``[start, stop)``.
    Expressing partitions in event time (not wall time) keeps the
    synchronous kernel deterministic: the same workload hits the same
    partition boundary at the same message.
    """

    start: int
    stop: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def separating(
        group_a, group_b, start: int = 0, stop: int = 1 << 62
    ) -> "Partition":
        """The partition that severs every edge between two site
        groups (the usual "split-brain" shape)."""
        edges = frozenset(
            (min(a, b), max(a, b)) for a in group_a for b in group_b if a != b
        )
        return Partition(start=start, stop=stop, edges=edges)

    def severs(self, edge: tuple[int, int], at_event: int) -> bool:
        return self.start <= at_event < self.stop and edge in self.edges


@dataclass
class FaultPlan:
    """A deterministic fault schedule for one transport.

    All randomness is derived by hashing ``(seed, message index)``, so
    the plan is a pure function of the trace position -- reproducible
    and order-independent.
    """

    seed: int = 0
    #: independent per-message drop probability
    drop_rate: float = 0.0
    #: independent per-message delay probability and magnitude
    delay_rate: float = 0.0
    delay_ms: float = 0.0
    #: the sender's patience: a delay at or beyond this is a drop
    timeout_ms: float = 1_000.0
    #: site -> inbound-message count after which the site crash-stops
    #: (the crashing message IS handled; its reply is lost)
    crash_after: dict[int, int] = field(default_factory=dict)
    #: severed edge sets over event-counter intervals
    partitions: tuple[Partition, ...] = ()

    def _draw(self, index: int, salt: str) -> float:
        # String seeds hash through sha512 (PYTHONHASHSEED-independent),
        # so the schedule is stable across processes and machines.
        return random.Random(f"{self.seed}:{index}:{salt}").random()

    def drops(self, index: int) -> bool:
        """Does the ``index``-th message drop outright?"""
        return self.drop_rate > 0.0 and self._draw(index, "drop") < self.drop_rate

    def delay_of(self, index: int) -> float:
        """Extra latency of the ``index``-th message (0.0 for most)."""
        if self.delay_rate <= 0.0:
            return 0.0
        if self._draw(index, "delay") >= self.delay_rate:
            return 0.0
        return self.delay_ms

    def severed(self, edge: tuple[int, int], at_event: int) -> bool:
        return any(p.severs(edge, at_event) for p in self.partitions)

    def crashes_after_handling(self, site: int, handled: int) -> bool:
        """Does ``site`` crash-stop upon handling its ``handled``-th
        inbound message?  Exact equality, so a site that is recovered
        (and keeps counting) does not immediately re-crash."""
        return self.crash_after.get(site) == handled
