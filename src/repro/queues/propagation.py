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
``max_attempts`` move to the dead-letter queue — the settle body of
:mod:`repro.queues.settle`, which every queue consumer shares.
Duplicate suppression at the destination uses the source message id
carried in headers, giving effective exactly-once across retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.errors import PropagationError
from repro.queues.broker import QueueBroker
from repro.queues.message import Message, MessageState
from repro.queues.settle import Settler


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
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.links: list[PropagationLink] = []
        if dead_letter_queue:
            broker.create_queue_or_attach(dead_letter_queue)
        # Per-link duplicate suppression across retries.  Bounded: ids
        # are dropped once their message is resolved (see pump), and
        # dedup_window caps whatever retry limbo remains.
        self.dedup_window = dedup_window
        self._delivered_ids: dict[str, BoundedIdWindow] = {}
        obs = broker.db.obs
        self.stats = obs.view(
            "prop", "forwarded", "retried", "dead_lettered", source=source_queue
        )
        self._m_attempts = obs.counter("prop.attempts", source=source_queue)
        self._settler = Settler(
            broker,
            source_queue,
            "propagator",
            broker.db.clock,
            *self.stats.counters.values(),
            "propagate.forwarded",
            "propagate.retry",
            "propagate.dead_letter",
            labels={"source": source_queue},
            max_attempts=max_attempts,
            dead_letter_queue=dead_letter_queue,
            # Source-enqueue → fully-forwarded latency, in clock seconds.
            latency=obs.histogram("prop.hop_latency", source=source_queue),
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
        transaction, forward each, then settle the batch
        (:meth:`Settler.settle`): every fully delivered message is acked
        with ONE batch ack, each failure is requeued after
        :meth:`backoff_for` or, from ``max_attempts`` on, dead-lettered.
        Returns how many were fully delivered (acked at the source).
        """
        if not self.links:
            raise PropagationError("propagator has no links configured")
        messages = self.broker.consume_batch(
            self.source_queue, batch, principal="propagator"
        )
        failed: dict[int, str] = {}
        for message in messages:
            reason = self._forward(message)
            if reason is not None:
                failed[message.message_id] = reason
        try:
            return len(self._settler.settle(messages, failed, delay=self.backoff_for))
        finally:
            # An acked message (forwarded or dead-lettered) is never
            # dequeued again: evict its duplicate-suppression ids.
            for message in messages:
                if message.state is MessageState.CONSUMED:
                    for window in self._delivered_ids.values():
                        window.discard(message.message_id)

    def _forward(self, message: Message) -> str | None:
        """Send ``message`` down every link that has not taken it yet.
        Returns why it failed on some link, or None when all links now
        have it."""
        failures: list[str] = []
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
                failures.append(f"{link.name}: {exc}")
        return "; ".join(failures) or None
