"""At-least-once delivery with ack deadlines (§2.2.d.iii.3).

A :class:`DeliveryManager` sits between a queue and unreliable
consumers.  Each delivery must be acknowledged within ``ack_timeout``
(by the database clock); unacknowledged deliveries are requeued and
retried up to ``max_attempts``, after which the message moves to the
dead-letter queue.  Consumers that raise are treated as immediate
nacks.

Invariants (asserted by the tests):

* every enqueued message is eventually consumed exactly once by a
  successful consumer OR lands in the dead-letter queue;
* a message is never lost, even when consumers fail repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import json

from repro.errors import DeliveryError
from repro.faults import DELIVERY_CONSUMER
from repro.obs.trace import record_hop
from repro.queues.broker import QueueBroker
from repro.queues.message import Message

Consumer = Callable[[Message], None]


@dataclass
class _PendingAck:
    message_id: int
    deadline: float


class DeliveryManager:
    """Reliable consumption loop over one queue.

    **Driving contract**: ack deadlines are only enforced when this
    manager runs — :meth:`check_timeouts` executes at the top of every
    :meth:`deliver` and :meth:`process_batch` call.
    There is no background thread, so if delivery stops (no new
    messages, dead consumer), a host loop must keep calling
    :meth:`process_batch` (or :meth:`check_timeouts` directly) on a
    timer; otherwise a crashed consumer's un-acked message is never
    redelivered.  :meth:`process_batch` is safe to drive on an empty
    queue precisely for this reason.
    """

    def __init__(
        self,
        broker: QueueBroker,
        queue_name: str,
        *,
        ack_timeout: float = 30.0,
        max_attempts: int = 5,
        dead_letter_queue: str | None = None,
    ) -> None:
        self.broker = broker
        self.queue_name = queue_name
        self.ack_timeout = ack_timeout
        self.max_attempts = max_attempts
        self.dead_letter_queue = dead_letter_queue
        if dead_letter_queue and not broker.has_queue(dead_letter_queue):
            broker.create_queue(dead_letter_queue)
        self._pending: dict[int, _PendingAck] = {}
        self._obs = broker.db.obs
        self.stats = self._obs.view(
            "delivery",
            "delivered", "acked", "redelivered", "consumer_errors", "dead_lettered",
            queue=queue_name,
        )
        (self._m_delivered, self._m_acked, self._m_redelivered,
         self._m_consumer_errors, self._m_dead) = self.stats.counters.values()
        # Enqueue → successful-consumption latency, in clock seconds.
        self._m_hop_latency = self._obs.histogram(
            "delivery.hop_latency", queue=queue_name
        )

    @property
    def clock(self):
        return self.broker.db.clock

    def _run_consumer(self, consumer: Consumer, message: Message) -> None:
        """Invoke the consumer, giving an armed ``delivery.consumer``
        failpoint first shot — an injected raise is indistinguishable
        from a consumer exception, so it flows into the nack/retry/DLQ
        machinery like any real failure."""
        faults = self.broker.db.faults
        if faults is not None:
            faults.fire(
                DELIVERY_CONSUMER,
                queue=self.queue_name,
                message=message,
                delivery=self,
            )
        consumer(message)

    # -- explicit ack protocol -----------------------------------------------

    def deliver(self, *, consumer_name: str = "consumer") -> Message | None:
        """Hand out the next message; the caller must :meth:`ack` it
        before the deadline or it will be redelivered."""
        self.check_timeouts()
        message = self.broker.consume(self.queue_name, principal=consumer_name)
        if message is None:
            return None
        self._pending[message.message_id] = _PendingAck(
            message_id=message.message_id,
            deadline=self.clock.now() + self.ack_timeout,
        )
        self._m_delivered.inc()
        return message

    def ack(self, message_id: int) -> None:
        if message_id not in self._pending:
            raise DeliveryError(
                f"message {message_id} is not awaiting acknowledgement"
            )
        # Forget the delivery only once the ack has happened: if the ack
        # raises, the message is still LOCKED and the deadline sweep
        # must still know about it.
        self.broker.ack(self.queue_name, message_id, principal="delivery")
        del self._pending[message_id]
        self._m_acked.inc()

    def nack(self, message_id: int, *, delay: float = 0.0) -> None:
        """Explicit negative ack: give the message back for retry."""
        pending = self._pending.pop(message_id, None)
        if pending is None:
            raise DeliveryError(
                f"message {message_id} is not awaiting acknowledgement"
            )
        self._retry_or_bury(message_id, delay=delay)

    def check_timeouts(self) -> int:
        """Requeue deliveries whose ack deadline passed; returns count."""
        now = self.clock.now()
        expired = [
            pending.message_id
            for pending in self._pending.values()
            if pending.deadline <= now
        ]
        for message_id in expired:
            del self._pending[message_id]
            self._retry_or_bury(message_id, delay=0.0)
        return len(expired)

    def _retry_or_bury(self, message_id: int, *, delay: float) -> None:
        queue = self.broker.queue(self.queue_name)
        table = self.broker.db.catalog.table(queue.table_name)
        row = table.get(message_id)
        attempts = row["attempts"] if row else self.max_attempts
        trace_id = None
        if row is not None and row.get("headers"):
            try:  # cold path: decode headers just for the trace hop
                trace_id = json.loads(row["headers"]).get("trace_id")
            except (ValueError, AttributeError):
                trace_id = None
        if attempts >= self.max_attempts:
            if self.dead_letter_queue:
                if row is not None:
                    message = Message.from_row(self.queue_name, message_id, row)
                    dead = Message(
                        payload=message.payload,
                        correlation_id=message.correlation_id,
                        headers={
                            **message.headers,
                            "dead_letter_reason": "max delivery attempts",
                            "origin_queue": self.queue_name,
                            "origin_message_id": message_id,
                        },
                    )
                else:
                    # The row vanished (e.g. the queue table was damaged
                    # or the message expired out from under us).  The
                    # payload is gone, but the *fact of the loss* must
                    # not be — dead-letter a tombstone naming the id so
                    # no message silently disappears.
                    dead = Message(
                        payload=None,
                        headers={
                            "dead_letter_reason": "message row unreadable",
                            "origin_queue": self.queue_name,
                            "origin_message_id": message_id,
                            "tombstone": True,
                        },
                    )
                self.broker.publish(self.dead_letter_queue, dead, principal="delivery")
                self._m_dead.inc()
                record_hop(
                    trace_id,
                    "delivery.dead_letter",
                    self.clock.now(),
                    queue=self.queue_name,
                    dlq=self.dead_letter_queue,
                )
            if row is not None:
                self.broker.ack(self.queue_name, message_id, principal="delivery")
        else:
            self.broker.requeue(
                self.queue_name, message_id, delay=delay, principal="delivery"
            )
            self._m_redelivered.inc()
            record_hop(
                trace_id,
                "delivery.redelivered",
                self.clock.now(),
                queue=self.queue_name,
                attempts=attempts,
            )

    # -- callback-style consumption --------------------------------------------

    def _finish(self, message: Message) -> None:
        """Success accounting for one consumed message."""
        now = self.clock.now()
        if message.enqueued_at:
            self._m_hop_latency.observe(now - message.enqueued_at)
        record_hop(
            message.headers.get("trace_id"),
            "delivery.consumed",
            now,
            queue=self.queue_name,
        )

    def process_batch(
        self, consumer: Consumer, *, batch: int = 100, consumer_name: str = "consumer"
    ) -> int:
        """The delivery pump: dequeue up to ``batch`` messages in one
        transaction, run ``consumer`` on each, then ack every success
        with ONE batch ack (exceptions nack — retry — individually).

        Always starts by enforcing ack deadlines, so driving this on an
        idle queue still redelivers timed-out messages from dead
        consumers (see the class docstring's driving contract).
        Returns the number successfully consumed.  If the batch ack
        itself raises, the exception propagates and the messages stay
        pending, so the deadline sweep redelivers them (at-least-once).
        """
        self.check_timeouts()
        messages = self.broker.consume_batch(
            self.queue_name, batch, principal=consumer_name
        )
        deadline = self.clock.now() + self.ack_timeout
        for message in messages:
            self._pending[message.message_id] = _PendingAck(
                message_id=message.message_id, deadline=deadline
            )
        self._m_delivered.inc(len(messages))
        succeeded: list[Message] = []
        for message in messages:
            try:
                self._run_consumer(consumer, message)
            except Exception as exc:
                # Count and retain the error before the nack, so a
                # raising consumer is observable, not just retried.
                self._m_consumer_errors.inc()
                self._obs.record_error("delivery.process_batch", exc)
                self.nack(message.message_id)
                continue
            succeeded.append(message)
        if succeeded:
            self.broker.ack_batch(
                self.queue_name,
                [message.message_id for message in succeeded],
                principal="delivery",
            )
            for message in succeeded:
                del self._pending[message.message_id]
            self._m_acked.inc(len(succeeded))
            for message in succeeded:
                self._finish(message)
        return len(succeeded)
