"""Reference model of one :class:`repro.queues.QueueTable`.

A dict of messages and a sort — no heap, no table, no transactions.  It
states the queue contract the product is held to: dequeue takes visible
READY messages by priority (highest first), then by *original* enqueue
order; a not-yet-visible message is passed over; a visible message past
its expiry is marked EXPIRED on the way; a taken message is LOCKED (and
its attempt counted) until it is acked or requeued; acks are
all-or-nothing over the distinct ids.
"""

from __future__ import annotations

from dataclasses import dataclass


class ModelError(Exception):
    """The operation is refused; the model did not change."""


@dataclass
class ModelMessage:
    seq: int  # original enqueue order; a requeue keeps it
    priority: int
    visible_at: float
    expires_at: float | None
    state: str = "ready"
    attempts: int = 0


class QueueModel:
    def __init__(self, *, keep_history: bool = False) -> None:
        self.keep_history = keep_history
        self.messages: dict[int, ModelMessage] = {}

    def stored(self) -> dict[int, tuple[str, int, int]]:
        """uid -> (state, attempts, priority) of every message that
        still has a row: consumed ones only when history is kept."""
        return {
            uid: (m.state, m.attempts, m.priority)
            for uid, m in self.messages.items()
            if m.state != "consumed" or self.keep_history
        }

    def in_state(self, state: str) -> list[int]:
        """Uids in ``state``, in dequeue order."""
        found = [u for u, m in self.messages.items() if m.state == state]
        return sorted(found, key=lambda u: (-self.messages[u].priority, self.messages[u].seq))

    def enqueue(self, uid: int, priority: int, visible_at: float, expires_at: float | None) -> None:
        self.messages[uid] = ModelMessage(len(self.messages), priority, visible_at, expires_at)

    def dequeue(self, now: float, limit: int) -> list[int]:
        taken: list[int] = []
        for uid in self.in_state("ready"):
            message = self.messages[uid]
            if len(taken) == limit:
                break
            if message.visible_at > now:
                continue
            if message.expires_at is not None and message.expires_at <= now:
                message.state = "expired"
                continue
            message.state = "locked"
            message.attempts += 1
            taken.append(uid)
        return taken

    def ack(self, uids: list[int]) -> int:
        distinct = list(dict.fromkeys(uids))
        if any(u not in self.messages or self.messages[u].state != "locked" for u in distinct):
            raise ModelError("ack of a message that is not locked")
        for uid in distinct:
            self.messages[uid].state = "consumed"
        return len(distinct)

    def requeue(self, uid: int, visible_at: float) -> None:
        if self.messages[uid].state != "locked":
            raise ModelError("requeue of a message that is not locked")
        self.messages[uid].state = "ready"
        self.messages[uid].visible_at = visible_at

    def expire(self, now: float) -> int:
        """The sweep: every READY message past its expiry, visible or not."""
        late = [
            m for m in self.messages.values()
            if m.state == "ready" and m.expires_at is not None and m.expires_at <= now
        ]
        for message in late:
            message.state = "expired"
        return len(late)

    def recover_locked(self) -> int:
        """Consumer failure: every LOCKED message is READY again."""
        locked = self.in_state("locked")
        for uid in locked:
            self.messages[uid].state = "ready"
        return len(locked)
