"""One settle body for every queue consumer (§2.2.d).

A driver takes a batch with one ``consume_batch`` (every message
LOCKED), works on each message, and ends in :meth:`Settler.settle` with
the batch and the messages that failed, each with its reason.  The
drivers are :meth:`~repro.queues.propagation.Propagator.pump`,
:class:`~repro.pubsub.delivery.DeliveryManager` (``process_batch``,
``ack``, ``nack``, ``check_timeouts``) and
:class:`~repro.pubsub.broker.PubSubBroker`'s durable drain and
``fetch``.  The broker may be a ``QueueBroker`` or a
``ShardedQueueBroker``: the body calls only ``ack_batch``, ``requeue``
and ``publish_batch``, which both provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

from repro.clock import Clock
from repro.obs.metrics import NULL_HISTOGRAM, Counter, Histogram
from repro.obs.trace import record_hop
from repro.queues.message import Message, MessageState

_NO_FAILURES: Mapping[int, str] = MappingProxyType({})


def dead_letter(message: Message, reason: str) -> Message:
    """The one dead-letter builder: ``message``'s payload, priority,
    correlation id and headers, plus the forensics headers
    ``dead_letter_reason``, ``origin_queue`` and ``origin_message_id``."""
    return Message(
        payload=message.payload,
        priority=message.priority,
        correlation_id=message.correlation_id,
        headers={
            **message.headers,
            "dead_letter_reason": reason,
            "origin_queue": message.queue,
            "origin_message_id": message.message_id,
        },
    )


@dataclass(eq=False)
class Settler:
    """One driver's settle policy for one queue, as values bound once.

    ``max_attempts`` ``None`` never dead-letters.  ``succeeded`` /
    ``retried`` / ``dead_lettered`` count the three outcomes and
    ``success_hop`` / ``retry_hop`` / ``dead_letter_hop`` name their
    trace hops (a ``None`` hop is not recorded); every hop carries
    ``labels``.  ``latency`` observes enqueue → success.  ``pending`` is
    the in-flight map of a driver with a deadline sweep.
    """

    broker: Any
    queue: str
    principal: str
    clock: Clock
    succeeded: Counter
    retried: Counter
    dead_lettered: Counter
    success_hop: str
    retry_hop: str | None = None
    dead_letter_hop: str | None = None
    labels: dict[str, Any] = field(default_factory=dict)
    max_attempts: int | None = None
    dead_letter_queue: str | None = None
    latency: Histogram = NULL_HISTOGRAM
    pending: dict[int, Any] | None = None

    def settle(
        self,
        consumed: Sequence[Message],
        failed: Mapping[int, str] = _NO_FAILURES,
        *,
        delay: Callable[[int, int], float] = lambda message_id, attempts: 0.0,
        lost: Sequence[Message] = (),
    ) -> list[Message]:
        """Settle a consumed batch; returns the successes it acked.

        ``failed`` maps the id of each message that failed to why.
        ``delay(message_id, attempts)`` is the wait before a retry.
        ``lost`` are pending messages whose rows vanished; each
        dead-letters as a tombstone (no payload, a ``tombstone``
        header) and, having no row, is not acked.

        Contract:

        * Every success is acked in ONE ``ack_batch`` before any failure
          is settled.  A message acked as a success is never later
          requeued or dead-lettered.
        * A failure is requeued after its delay until ``attempts >=
          max_attempts``; then it is dead-lettered through
          :func:`dead_letter` and acked.  The batch's dead letters go to
          the dead-letter queue (if any) in ONE ``publish_batch`` and
          their originals are acked in ONE ``ack_batch``.
        * Settling one failure never strands the rest of the batch: if
          one settle raises, the other messages are still settled, and
          then the first exception propagates.
        * A message whose settle raised stays retryable.  With
          ``pending`` it is still pending (LOCKED), so the driver's
          deadline sweep finds it; without, it is requeued to READY.
        * ``message.state`` follows the row: CONSUMED once acked, READY
          once requeued.  Each settled message leaves ``pending``.
        """
        done: list[Message] = []
        retry: list[Message] = []
        dead: list[Message] = []
        for message in consumed:
            if message.message_id not in failed:
                done.append(message)
            elif (
                self.max_attempts is not None
                and message.attempts >= self.max_attempts
            ):
                dead.append(message)
            else:
                retry.append(message)
        errors: list[Exception] = []
        stuck: list[Message] = []
        if done:
            try:
                self.broker.ack_batch(
                    self.queue, [m.message_id for m in done], principal=self.principal
                )
            except Exception as exc:
                errors.append(exc)
                stuck, done = done, []
            else:
                now = self._settled(
                    done, MessageState.CONSUMED, self.succeeded, self.success_hop
                )
                for message in done:
                    if message.enqueued_at:
                        self.latency.observe(now - message.enqueued_at)
        for message in retry:
            wait = delay(message.message_id, message.attempts)
            try:
                self.broker.requeue(
                    self.queue, message.message_id, delay=wait, principal=self.principal
                )
            except Exception as exc:
                errors.append(exc)
                stuck.append(message)
            else:
                self._settled(
                    [message], MessageState.READY, self.retried, self.retry_hop,
                    attempts=message.attempts, delay=wait,
                )
        if dead or lost:
            letters = [dead_letter(m, failed[m.message_id]) for m in dead] + [
                dead_letter(
                    replace(m, payload=None, headers={**m.headers, "tombstone": True}),
                    "message row unreadable",
                )
                for m in lost
            ]
            try:
                if self.dead_letter_queue:
                    self.broker.publish_batch(
                        self.dead_letter_queue, letters, principal=self.principal
                    )
                if dead:
                    self.broker.ack_batch(
                        self.queue,
                        [m.message_id for m in dead],
                        principal=self.principal,
                    )
            except Exception as exc:
                errors.append(exc)
                stuck += dead
            else:
                self._settled(
                    [*dead, *lost], MessageState.CONSUMED, self.dead_lettered,
                    self.dead_letter_hop, dlq=self.dead_letter_queue,
                )
        if stuck and self.pending is None:
            for message in stuck:
                try:
                    self.broker.requeue(
                        self.queue, message.message_id, principal=self.principal
                    )
                except Exception as exc:
                    errors.append(exc)
                else:
                    message.state = MessageState.READY
        if errors:
            raise errors[0]
        return done

    def _settled(
        self,
        messages: Sequence[Message],
        state: MessageState,
        counter: Counter,
        hop: str | None,
        **detail: Any,
    ) -> float:
        """Account for ``messages`` settled into ``state``; returns now."""
        counter.inc(len(messages))
        now = self.clock.now()
        for message in messages:
            message.state = state
            if self.pending is not None:
                self.pending.pop(message.message_id, None)
            if hop is not None:
                record_hop(
                    message.headers.get("trace_id"), hop, now, **self.labels, **detail
                )
        return now
