"""The typed message transport between site endpoints.

The kernel is synchronous, so the transport is a loopback fabric:
:meth:`Transport.send` records the message in the trace and delivers
it immediately to the destination endpoint's ``handle`` method,
returning the handler's reply (request/response collapses into one
call).  What makes it more than a function call is the *trace*: every
message the distributed deployment would put on the wire is recorded
with its source and destination, so

- :class:`~repro.protocol.messages.MessageStats` is derived by
  counting the trace (no scattered ``record_*`` bookkeeping), and
- the discrete-event simulator prices each negotiation from the
  *edges actually used* -- a violation involving only sites A and B
  pays the A<->B round-trip time from the configured RTT matrix, not
  the cluster-wide worst edge.

Messages sent inside a :meth:`Transport.negotiation` context are
additionally grouped into a :class:`NegotiationTrace`, which exposes
the participant set and undirected edge set of that round.

Negotiations over **disjoint participant closures** may be open
concurrently (:meth:`Transport.begin` with a ``scope``): the runtime
interleaves their messages, each message is attributed to the open
context whose scope contains its source, and every trace records the
global event counter at open and close time -- overlapping
``(opened_at, closed_at)`` intervals are the proof that two rounds
did *not* serialize against each other.  Opening a context whose
scope intersects an already-open one raises: overlapping closures
must race through the vote phase instead, and only the winner's
negotiation runs.

The fabric is **fault-aware**: attach a
:class:`~repro.protocol.faults.FaultPlan` (or call
:meth:`Transport.crash` directly) and delivery can fail -- the
destination crash-stopped, the edge is inside an active partition, or
the lossy link dropped/over-delayed the message.  Failed deliveries
never hang the synchronous kernel: they surface immediately as
:class:`~repro.protocol.faults.UnreachableError` (what a real
deployment learns by waiting out a timer), are recorded in
``undelivered`` rather than the trace, and the protocol layer aborts
the surrounding round cleanly (its trace is marked ``aborted`` and
excluded from the synchronization-round counts).  A site crashed by
the plan handles the fatal message *before* halting -- state changes
and write-ahead logging happen, the reply is lost -- which is the
mid-install window WAL recovery exists for.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Protocol

from repro.protocol.messages import Message, MessageStats, SyncBroadcast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports us)
    from repro.protocol.faults import FaultPlan


class TransportError(Exception):
    """Misrouted messages or misuse of the transport."""


class UnreachableError(TransportError):
    """A message could not be delivered: the destination crash-stopped,
    the edge sits inside an active partition, or the lossy link dropped
    (or over-delayed) the message.  In a real deployment the sender
    discovers this by waiting out a timeout; the synchronous kernel
    surfaces it immediately so rounds abort cleanly instead of hanging.
    """

    def __init__(self, src: int, dst: int, reason: str) -> None:
        super().__init__(f"message {src}->{dst} undeliverable: {reason}")
        self.src = src
        self.dst = dst
        self.reason = reason


class Endpoint(Protocol):
    """Anything that can receive messages (usually a site server)."""

    def handle(self, msg: Message) -> Any: ...


#: Negotiation kinds that constitute a synchronization round (the
#: quantity the paper reports as "negotiations"); '2pc' groups are
#: per-transaction commits, not treaty negotiations.  'rebalance' is
#: the adaptive proactive refresh -- no transaction aborted, but the
#: round exchanges state and installs treaties like any other, so it
#: counts as coordination.  'rejoin' is the recovery round a crashed
#: site runs to re-enter the cluster: state is exchanged, so it is
#: honest to count it (fault tolerance is not free coordination).
SYNC_KINDS = ("cleanup", "sync", "rebalance", "rejoin")


@dataclass
class NegotiationTrace:
    """The messages of one negotiation (or 2PC commit) round."""

    index: int
    kind: str  # 'cleanup' | 'sync' | '2pc'
    origin: int
    messages: list[Message] = field(default_factory=list)
    #: declared participant scope (None for exclusive rounds, which
    #: own the whole transport while open)
    scope: frozenset[int] | None = None
    #: global event-counter stamps; two rounds with overlapping
    #: [opened_at, closed_at] intervals ran concurrently
    opened_at: int = -1
    closed_at: int = -1
    #: concurrent wave this round ran in (-1 for exclusive rounds)
    wave: int = -1
    #: True when the round was abandoned mid-flight (a participant
    #: became unreachable); aborted rounds do not count as
    #: synchronizations and installed nothing
    aborted: bool = False
    #: injected link latency accumulated by this round's messages
    #: (recorded for analysis; sub-timeout delays do not change the
    #: kernel's behaviour -- the sender-visible fault surface is the
    #: timeout equivalence, where a delay past the plan's ``timeout_ms``
    #: is indistinguishable from a drop)
    delay_ms: float = 0.0

    @property
    def participants(self) -> tuple[int, ...]:
        """Every site that sent or received a message this round, plus
        the origin (a single-site round has no messages at all)."""
        sites = {self.origin}
        for msg in self.messages:
            sites.add(msg.src)
            sites.add(msg.dst)
        return tuple(sorted(sites))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected network edges actually crossed this round."""
        return tuple(sorted({m.edge for m in self.messages if m.src != m.dst}))

    @property
    def sync_message_count(self) -> int:
        return sum(1 for m in self.messages if isinstance(m, SyncBroadcast))

    def overlaps(self, other: "NegotiationTrace") -> bool:
        """Did this round's open interval overlap ``other``'s (i.e.
        did the two rounds proceed in parallel)?"""
        if min(self.opened_at, self.closed_at, other.opened_at, other.closed_at) < 0:
            return False
        return self.opened_at < other.closed_at and other.opened_at < self.closed_at


@dataclass
class Transport:
    """Loopback message fabric with a full trace."""

    endpoints: dict[int, Endpoint] = field(default_factory=dict)
    trace: list[Message] = field(default_factory=list)
    negotiations: list[NegotiationTrace] = field(default_factory=list)
    #: deterministic fault schedule (None = the fault-free fabric)
    faults: FaultPlan | None = None
    #: currently crash-stopped sites (by plan or explicit :meth:`crash`)
    down: set[int] = field(default_factory=set)
    #: messages that never reached their destination, with the reason
    undelivered: list[tuple[Message, str]] = field(default_factory=list)
    #: total injected link latency over delivered messages
    total_delay_ms: float = 0.0
    _open: list[NegotiationTrace] = field(default_factory=list)
    #: monotone event counter: bumped on every open, send, and close
    _events: int = 0
    _next_index: int = 0
    #: send-attempt counter (the FaultPlan's per-message index; counts
    #: undelivered attempts too, unlike ``len(trace)``)
    _attempts: int = 0
    #: inbound messages handled per site (drives plan crash-stops)
    _handled: dict[int, int] = field(default_factory=dict)

    def register(self, site_id: int, endpoint: Endpoint) -> None:
        if site_id in self.endpoints:
            raise TransportError(f"site {site_id} already registered")
        self.endpoints[site_id] = endpoint

    # -- fault surface -------------------------------------------------------------

    def crash(self, site_id: int) -> None:
        """Crash-stop a site: every message to it is undeliverable
        until :meth:`recover`.  Idempotent."""
        if site_id not in self.endpoints:
            raise TransportError(f"no endpoint registered for site {site_id}")
        self.down.add(site_id)

    def recover(self, site_id: int) -> None:
        """Mark a crashed site reachable again.  The transport only
        restores connectivity; state recovery (WAL replay, rejoin
        synchronization) is the protocol layer's job."""
        self.down.discard(site_id)

    def is_down(self, site_id: int) -> bool:
        return site_id in self.down

    def _undeliverable(self, msg: Message, reason: str) -> UnreachableError:
        self.undelivered.append((msg, reason))
        return UnreachableError(msg.src, msg.dst, reason)

    def _attribute(self, msg: Message) -> NegotiationTrace | None:
        """The open context this message belongs to.

        With one open context everything belongs to it; with several
        (concurrent disjoint rounds), attribution is by the sender's
        membership in the declared scope -- unambiguous because open
        scopes never intersect.
        """
        if not self._open:
            return None
        if len(self._open) == 1:
            owner = self._open[0]
        else:
            owners = [
                t for t in self._open if t.scope is not None and msg.src in t.scope
            ]
            if len(owners) != 1:
                raise TransportError(
                    f"cannot attribute message from site {msg.src} to an open "
                    f"negotiation: {len(owners)} candidate scopes"
                )
            owner = owners[0]
        if owner.scope is not None:
            # Isolation holds on both endpoints: a scoped round must
            # neither accept out-of-scope senders nor leak messages to
            # sites outside its closure.
            outside = {msg.src, msg.dst} - owner.scope
            if outside:
                raise TransportError(
                    f"message {msg.src}->{msg.dst} crosses the open "
                    f"negotiation's scope {sorted(owner.scope)}"
                )
        return owner

    def _attempt(self, msg: Message) -> tuple[float, str | None]:
        """The pre-flight of one send attempt, shared by every fabric:
        count it, refuse known crash-stops, and draw the fault plan.
        Returns the attempt's injected delay and, when the link loses
        the message *silently* (partition, drop, over-delay), the
        reason -- returned rather than raised because how long the
        sender takes to find out is the fabric's business.  Known
        crash-stops raise at once: the sender (or its failure
        detector) already knows, so no timer is paid."""
        if msg.dst not in self.endpoints:
            raise TransportError(f"no endpoint registered for site {msg.dst}")
        self._events += 1
        index = self._attempts
        self._attempts += 1
        if msg.src in self.down:
            raise self._undeliverable(msg, "sender crash-stopped")
        if msg.dst in self.down:
            raise self._undeliverable(msg, "destination crash-stopped")
        if self.faults is None:
            return 0.0, None
        if self.faults.severed(msg.edge, self._events):
            return 0.0, "edge severed by partition"
        if self.faults.drops(index):
            return 0.0, "dropped by lossy link"
        delay = self.faults.delay_of(index)
        if delay >= self.faults.timeout_ms:
            return delay, "delayed past the timeout"
        return delay, None

    def _record_delivered(self, msg: Message, delay: float) -> None:
        self.trace.append(msg)
        active = self._attribute(msg)
        if active is not None:
            active.messages.append(msg)
            active.delay_ms += delay
        self.total_delay_ms += delay

    def _after_handling(self, msg: Message) -> None:
        """The epilogue of a handled message: count it against the
        destination and fire a plan-scheduled crash-stop.  The message
        WAS delivered (it stays in the trace, its state changes and WAL
        appends happened); what the crash loses is the *reply*, so the
        sender still observes a timeout.  Not recorded in
        ``undelivered`` -- that list is strictly for messages the
        destination never saw."""
        handled = self._handled.get(msg.dst, 0) + 1
        self._handled[msg.dst] = handled
        if self.faults is not None and self.faults.crashes_after_handling(
            msg.dst, handled
        ):
            self.down.add(msg.dst)
            raise UnreachableError(
                msg.src, msg.dst, "destination crashed after handling"
            )

    def send(self, msg: Message) -> Any:
        """Record the message and deliver it to the destination.

        Delivery can fail (:class:`UnreachableError`): the sender or
        destination is crash-stopped, the edge is severed by an active
        partition, or the fault plan drops / over-delays the message.
        Failed attempts are recorded in ``undelivered`` (never in the
        trace -- the destination did not see them).  A plan-scheduled
        crash-stop fires *after* the destination handles the fatal
        message: its state changed and its WAL was written, but the
        reply is lost, so the sender still observes a timeout.
        """
        delay, lost = self._attempt(msg)
        if lost is not None:
            raise self._undeliverable(msg, lost)
        self._record_delivered(msg, delay)
        reply = self.endpoints[msg.dst].handle(msg)
        self._after_handling(msg)
        return reply

    # -- negotiation contexts ------------------------------------------------------

    def begin(
        self,
        kind: str,
        origin: int,
        scope: frozenset[int] | None = None,
        wave: int = -1,
    ) -> NegotiationTrace:
        """Open a negotiation context.

        Without a ``scope`` the round is *exclusive*: no other context
        may be open (the seed behaviour -- "negotiation rounds do not
        nest").  With a ``scope`` the round is *concurrent*: other
        scoped rounds may already be open, provided every open scope
        is disjoint from the new one.
        """
        if scope is None:
            if self._open:
                raise TransportError("negotiation rounds do not nest")
        else:
            for other in self._open:
                if other.scope is None:
                    raise TransportError(
                        "cannot open a scoped round inside an exclusive one"
                    )
                common = other.scope & scope
                if common:
                    raise TransportError(
                        f"concurrent negotiations overlap on sites "
                        f"{sorted(common)}: rounds over intersecting "
                        "closures must vote, not run in parallel"
                    )
        self._events += 1
        trace = NegotiationTrace(
            index=self._next_index,
            kind=kind,
            origin=origin,
            scope=scope,
            opened_at=self._events,
            wave=wave,
        )
        self._next_index += 1
        self._open.append(trace)
        return trace

    def end(self, trace: NegotiationTrace) -> None:
        """Close an open negotiation context."""
        if trace not in self._open:
            raise TransportError("ending a negotiation that is not open")
        self._events += 1
        trace.closed_at = self._events
        self._open.remove(trace)
        self.negotiations.append(trace)

    def abort(self, trace: NegotiationTrace) -> None:
        """Close an open negotiation that gave up mid-flight (a
        participant became unreachable).  The trace is kept for
        post-mortems but marked ``aborted``: it installed nothing and
        does not count as a synchronization round."""
        trace.aborted = True
        self.end(trace)

    @contextmanager
    def negotiation(self, kind: str, origin: int) -> Iterator[NegotiationTrace]:
        """Group the messages of one exclusive round under a shared
        trace entry.  A round abandoned by an escaping exception (an
        unreachable participant, a validation failure) is closed as
        ``aborted`` -- it must not count as a completed
        synchronization."""
        trace = self.begin(kind, origin)
        try:
            yield trace
        except BaseException:
            self.abort(trace)
            raise
        self.end(trace)

    # -- derived views ------------------------------------------------------------

    def message_stats(self) -> MessageStats:
        """The kernel's message accounting, derived from the trace."""
        rounds = sum(
            1 for n in self.negotiations if n.kind in SYNC_KINDS and not n.aborted
        )
        return MessageStats.from_trace(self.trace, negotiations=rounds)

    def last_negotiation(self) -> NegotiationTrace | None:
        return self.negotiations[-1] if self.negotiations else None

    def cleanup_rounds(self) -> list[NegotiationTrace]:
        return [n for n in self.negotiations if n.kind == "cleanup" and not n.aborted]

    def aborted_rounds(self) -> list[NegotiationTrace]:
        """Rounds abandoned because a participant was unreachable."""
        return [n for n in self.negotiations if n.aborted]
