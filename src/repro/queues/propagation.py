"""Message distribution: propagation between staging areas (§2.2.d.ii).

A :class:`Propagator` drains a source queue and forwards each message
to one or more destinations:

* **Other staging areas** — a queue on another broker (possibly backed
  by a different database), modeling queue-to-queue propagation.
* **External services** — any object implementing
  :class:`ExternalService` (e.g. an HTTP endpoint in production; a
  callable stub in tests and benchmarks).

Delivery is *reliable*: a message is acked on the source only after
every destination accepted it; failed deliveries requeue the message
with capped exponential backoff and deterministic jitter (see
:meth:`Propagator.backoff_for`), and messages that exhaust
``max_attempts`` move to the dead-letter queue.  Duplicate suppression at the
destination uses the source message id carried in headers, giving
effective exactly-once across retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.errors import PropagationError
from repro.obs.trace import record_hop
from repro.queues.broker import QueueBroker
from repro.queues.message import Message


class BoundedIdWindow:
    """Insertion-ordered set of recently seen ids with a hard size cap.

    Duplicate-suppression state must not grow with traffic: ids are
    *discarded* as soon as their message is finally resolved (acked or
    dead-lettered), and the window only has to cover messages still in
    retry limbo.  The cap is a backstop — if limbo ever exceeds it, the
    oldest ids fall out and an extreme straggler could be re-sent, which
    at-least-once delivery already permits.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ids: dict[int, None] = {}  # insertion-ordered

    def add(self, item: int) -> None:
        if item in self._ids:
            return
        if len(self._ids) >= self.capacity:
            self._ids.pop(next(iter(self._ids)))
        self._ids[item] = None

    def discard(self, item: int) -> None:
        self._ids.pop(item, None)

    def __contains__(self, item: int) -> bool:
        return item in self._ids

    def __len__(self) -> int:
        return len(self._ids)


class ExternalService(Protocol):
    """Destination outside the database world (§2.2.d.ii.2)."""

    def deliver(self, message: Message) -> None:
        """Accept one message; raise to signal failure."""
        ...


@dataclass
class PropagationLink:
    """One forwarding edge from the source queue.

    Exactly one of ``broker``/``service`` is set.  ``transform`` may
    rewrite the message (e.g. re-prioritize for the remote site).
    """

    name: str
    broker: QueueBroker | None = None
    queue_name: str | None = None
    service: ExternalService | None = None
    transform: Any = None
    delivered: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        if (self.broker is None) == (self.service is None):
            raise PropagationError(
                f"link {self.name!r} must target exactly one of "
                "broker+queue_name or service"
            )
        if self.broker is not None and self.queue_name is None:
            raise PropagationError(
                f"link {self.name!r} targets a broker but names no queue"
            )

    def send(self, message: Message) -> None:
        outgoing = Message(
            payload=message.payload,
            priority=message.priority,
            correlation_id=message.correlation_id,
            headers={
                **message.headers,
                "propagated_from": message.queue,
                "origin_message_id": message.message_id,
            },
            expires_at=message.expires_at,
        )
        if self.transform is not None:
            outgoing = self.transform(outgoing)
        if self.broker is not None:
            self.broker.publish(self.queue_name, outgoing)
        else:
            self.service.deliver(outgoing)
        self.delivered += 1


class Propagator:
    """Drains one source queue into its propagation links."""

    def __init__(
        self,
        broker: QueueBroker,
        source_queue: str,
        *,
        max_attempts: int = 5,
        base_backoff: float = 0.1,
        max_backoff: float = 30.0,
        dead_letter_queue: str | None = None,
        dedup_window: int = 1024,
    ) -> None:
        self.broker = broker
        self.source_queue = source_queue
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.links: list[PropagationLink] = []
        self.dead_letter_queue = dead_letter_queue
        if dead_letter_queue and not broker.has_queue(dead_letter_queue):
            broker.create_queue(dead_letter_queue)
        # Per-link duplicate suppression across retries.  Bounded: ids
        # are dropped once their message is resolved (see _resolve), and
        # dedup_window caps whatever retry limbo remains.
        self.dedup_window = dedup_window
        self._delivered_ids: dict[str, BoundedIdWindow] = {}
        obs = broker.db.obs
        self._clock = broker.db.clock
        self.stats = obs.view(
            "prop", "forwarded", "retried", "dead_lettered", source=source_queue
        )
        self._m_forwarded, self._m_retried, self._m_dead = (
            self.stats.counters.values()
        )
        self._m_attempts = obs.counter("prop.attempts", source=source_queue)
        # Source-enqueue → fully-forwarded latency, in clock seconds.
        self._m_hop_latency = obs.histogram(
            "prop.hop_latency", source=source_queue
        )

    def add_link(self, link: PropagationLink) -> "Propagator":
        """Attach a destination; returns self so links chain fluently."""
        self.links.append(link)
        self._delivered_ids.setdefault(
            link.name, BoundedIdWindow(self.dedup_window)
        )
        return self

    def backoff_for(self, message_id: int, attempts: int) -> float:
        """Requeue delay before retry ``attempts + 1``.

        Schedule: exponential ``base_backoff * 2**(attempts-1)`` capped
        at ``max_backoff``, then jittered *downward* by up to 25% so a
        burst of same-batch failures doesn't retry in lockstep.  The
        jitter is deterministic — a hash of ``(message_id, attempts)``,
        no ambient RNG — so a given retry always lands at the same
        delay, and ``max_backoff`` is a hard upper bound.
        """
        raw = self.base_backoff * (2 ** max(0, attempts - 1))
        capped = min(raw, self.max_backoff)
        # Weyl-style integer hash -> [0, 1) fraction; stable across runs.
        mix = (message_id * 2654435761 + attempts * 0x9E3779B9) % 4096
        jitter = (mix / 4096.0) * 0.25
        return capped * (1.0 - jitter)

    def pump(self, *, batch: int = 100) -> int:
        """Drain up to ``batch`` messages: dequeue them in one
        transaction, forward each, then ack every fully delivered
        message with ONE batch ack — one commit and journal flush per
        batch instead of per message.  Failed messages requeue (or
        dead-letter) individually.  Returns how many were fully
        delivered (acked at the source).
        """
        if not self.links:
            raise PropagationError("propagator has no links configured")
        messages = self.broker.consume_batch(
            self.source_queue, batch, principal="propagator"
        )
        delivered = [message for message in messages if self._forward(message)]
        if delivered:
            self.broker.ack_batch(
                self.source_queue,
                [message.message_id for message in delivered],
                principal="propagator",
            )
            for message in delivered:
                self._mark_forwarded(message)
        return len(delivered)

    def _mark_forwarded(self, message: Message) -> None:
        """Success accounting, after the source ack.

        A fully forwarded message can never be re-dequeued, so its
        duplicate-suppression ids are evicted from every link window
        (the fix for the former unbounded ``_delivered_ids`` growth).
        """
        self._m_forwarded.inc()
        for window in self._delivered_ids.values():
            window.discard(message.message_id)
        now = self._clock.now()
        if message.enqueued_at:
            self._m_hop_latency.observe(now - message.enqueued_at)
        record_hop(
            message.headers.get("trace_id"),
            "propagate.forwarded",
            now,
            source=self.source_queue,
        )

    def _forward(self, message: Message) -> bool:
        """Send ``message`` down every link that has not taken it yet.
        True when all links now have it (the pump acks it); otherwise
        the message is requeued with backoff, or dead-lettered."""
        failures: list[tuple[PropagationLink, Exception]] = []
        for link in self.links:
            seen = self._delivered_ids[link.name]
            if message.message_id in seen:
                continue  # Already delivered on a previous (partial) try.
            self._m_attempts.inc()
            try:
                link.send(message)
                seen.add(message.message_id)
            except Exception as exc:  # failure boundary around foreign code
                link.failed += 1
                failures.append((link, exc))
        if not failures:
            return True
        if message.attempts >= self.max_attempts:
            self._dead_letter(message, failures)
            return False
        backoff = self.backoff_for(message.message_id, message.attempts)
        self.broker.requeue(
            self.source_queue,
            message.message_id,
            delay=backoff,
            principal="propagator",
        )
        self._m_retried.inc()
        record_hop(
            message.headers.get("trace_id"),
            "propagate.retry",
            self._clock.now(),
            source=self.source_queue,
            attempts=message.attempts,
            delay=backoff,
        )
        return False

    def _dead_letter(
        self, message: Message, failures: list[tuple[PropagationLink, Exception]]
    ) -> None:
        self._m_dead.inc()
        # A dead-lettered message is resolved: evict its dedup ids.
        for window in self._delivered_ids.values():
            window.discard(message.message_id)
        record_hop(
            message.headers.get("trace_id"),
            "propagate.dead_letter",
            self._clock.now(),
            source=self.source_queue,
            dlq=self.dead_letter_queue,
        )
        if self.dead_letter_queue:
            dead = Message(
                payload=message.payload,
                priority=message.priority,
                correlation_id=message.correlation_id,
                headers={
                    **message.headers,
                    "dead_letter_reason": "; ".join(
                        f"{link.name}: {exc}" for link, exc in failures
                    ),
                    "origin_queue": message.queue,
                    "origin_message_id": message.message_id,
                },
            )
            self.broker.publish(
                self.dead_letter_queue, dead, principal="propagator"
            )
        self.broker.ack(
            self.source_queue, message.message_id, principal="propagator"
        )
