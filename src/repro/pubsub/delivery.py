"""At-least-once delivery with ack deadlines (§2.2.d.iii.3).

A :class:`DeliveryManager` sits between a queue and unreliable
consumers.  Each delivery must be acknowledged within ``ack_timeout``
(by the database clock); unacknowledged deliveries are requeued and
retried up to ``max_attempts``, after which the message moves to the
dead-letter queue.  Consumers that raise are treated as immediate
nacks.  Every ack, retry and dead letter goes through the settle body
every queue consumer shares (:mod:`repro.queues.settle`).

Invariants (asserted by the tests):

* every enqueued message is eventually consumed exactly once by a
  successful consumer OR lands in the dead-letter queue;
* a message is never lost, even when consumers fail repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DeliveryError
from repro.faults import DELIVERY_CONSUMER
from repro.queues.broker import QueueBroker
from repro.queues.message import Message
from repro.queues.settle import Settler

Consumer = Callable[[Message], None]

#: The ``dead_letter_reason`` of a delivery that ran out of attempts.
_EXHAUSTED = "max delivery attempts"


@dataclass
class _PendingAck:
    message: Message
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

    A delivery stays pending — LOCKED, and known to the deadline sweep —
    until its settle succeeded, so a raising ack, requeue or dead-letter
    publish leaves it for the sweep to settle again.
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
        self.clock = broker.db.clock
        if dead_letter_queue:
            broker.create_queue_or_attach(dead_letter_queue)
        self._pending: dict[int, _PendingAck] = {}
        self._obs = broker.db.obs
        self.stats = self._obs.view(
            "delivery",
            "delivered", "acked", "redelivered", "consumer_errors", "dead_lettered",
            queue=queue_name,
        )
        (self._m_delivered, acked, redelivered, self._m_consumer_errors,
         dead_lettered) = self.stats.counters.values()
        self._settler = Settler(
            broker,
            queue_name,
            "delivery",
            self.clock,
            acked,
            redelivered,
            dead_lettered,
            "delivery.consumed",
            "delivery.redelivered",
            "delivery.dead_letter",
            labels={"queue": queue_name},
            max_attempts=max_attempts,
            dead_letter_queue=dead_letter_queue,
            # Enqueue → successful-consumption latency, in clock seconds.
            latency=self._obs.histogram("delivery.hop_latency", queue=queue_name),
            pending=self._pending,
        )

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

    def _settle(
        self, messages: list[Message], failed: dict[int, str], delay: float = 0.0
    ) -> int:
        """End in the settle body; returns how many succeeded.

        A failed delivery whose row vanished (the queue table was
        damaged, or the row was deleted out from under us) goes as
        ``lost``: its payload is gone, but the *fact of the loss* must
        not be, so it dead-letters a tombstone naming the id."""
        lost: list[Message] = []
        if failed:
            queue = self.broker.queue(self.queue_name)
            table = self.broker.db.catalog.table(queue.table_name)
            gone = {
                message_id for message_id in failed if table.get(message_id) is None
            }
            lost = [message for message in messages if message.message_id in gone]
            messages = [m for m in messages if m.message_id not in gone]
        return len(
            self._settler.settle(
                messages, failed, delay=lambda message_id, attempts: delay, lost=lost
            )
        )

    def _awaiting(self, message_id: int) -> Message:
        pending = self._pending.get(message_id)
        if pending is None:
            raise DeliveryError(
                f"message {message_id} is not awaiting acknowledgement"
            )
        return pending.message

    # -- explicit ack protocol -----------------------------------------------

    def deliver(self, *, consumer_name: str = "consumer") -> Message | None:
        """Hand out the next message; the caller must :meth:`ack` it
        before the deadline or it will be redelivered."""
        self.check_timeouts()
        message = self.broker.consume(self.queue_name, principal=consumer_name)
        if message is None:
            return None
        self._pending[message.message_id] = _PendingAck(
            message=message, deadline=self.clock.now() + self.ack_timeout
        )
        self._m_delivered.inc()
        return message

    def ack(self, message_id: int) -> None:
        """Acknowledge a delivered message.  If the ack raises, the
        message is still LOCKED and still pending for the deadline
        sweep."""
        self._settle([self._awaiting(message_id)], {})

    def nack(self, message_id: int, *, delay: float = 0.0) -> None:
        """Explicit negative ack: give the message back for retry."""
        self._settle([self._awaiting(message_id)], {message_id: _EXHAUSTED}, delay)

    def check_timeouts(self) -> int:
        """Requeue deliveries whose ack deadline passed; returns count."""
        now = self.clock.now()
        expired = [
            pending.message
            for pending in self._pending.values()
            if pending.deadline <= now
        ]
        if expired:
            self._settle(
                expired,
                dict.fromkeys([message.message_id for message in expired], _EXHAUSTED),
            )
        return len(expired)

    # -- callback-style consumption --------------------------------------------

    def process_batch(
        self, consumer: Consumer, *, batch: int = 100, consumer_name: str = "consumer"
    ) -> int:
        """The delivery pump: dequeue up to ``batch`` messages in one
        transaction, run ``consumer`` on each, then settle the batch
        (:meth:`Settler.settle`): every success is acked with ONE batch
        ack, then each message whose consumer raised is requeued (a
        nack) or, from ``max_attempts`` on, dead-lettered.

        Always starts by enforcing ack deadlines, so driving this on an
        idle queue still redelivers timed-out messages from dead
        consumers (see the class docstring's driving contract).
        Returns the number successfully consumed.  If the batch ack
        itself raises, the failures are still settled, then the
        exception propagates and the successes stay pending, so the
        deadline sweep redelivers them (at-least-once).
        """
        self.check_timeouts()
        messages = self.broker.consume_batch(
            self.queue_name, batch, principal=consumer_name
        )
        deadline = self.clock.now() + self.ack_timeout
        for message in messages:
            self._pending[message.message_id] = _PendingAck(
                message=message, deadline=deadline
            )
        self._m_delivered.inc(len(messages))
        failed: dict[int, str] = {}
        for message in messages:
            try:
                self._run_consumer(consumer, message)
            except Exception as exc:
                # Count and retain the error before the nack, so a
                # raising consumer is observable, not just retried.
                self._m_consumer_errors.inc()
                self._obs.record_error("delivery.process_batch", exc)
                failed[message.message_id] = _EXHAUSTED
        return self._settle(messages, failed)
