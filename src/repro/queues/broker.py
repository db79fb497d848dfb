"""The queue broker: named queues, ingestion paths, security, audit.

This is the "staging area" façade from §2.2.b.  It owns:

* queue lifecycle (create/drop/list);
* the three message-acceptance paths of §2.2.b.i — client INSERT
  (:meth:`enqueue_via_sql`), foreign-system delivery
  (:meth:`ingest_foreign`), and internally created messages
  (:meth:`publish_batch`, the optimized fast path);
* enforcement of the :class:`SecurityManager` and recording to the
  :class:`AuditTrail` when auditing is enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import QueueError, QueueNotFoundError
from repro.faults import BROKER_ACK, BROKER_CONSUME, BROKER_PUBLISH
from repro.queues.audit import AuditTrail, Permission, SecurityManager
from repro.queues.message import Message
from repro.queues.queue_table import QueueTable

if TYPE_CHECKING:
    from repro.db.database import Database


class QueueBroker:
    """All queues of one database, plus security and audit policy."""

    def __init__(
        self,
        db: Database,
        *,
        security: SecurityManager | None = None,
        audit: bool = False,
        name: str = "local",
    ) -> None:
        self.db = db
        self.name = name
        self.security = security or SecurityManager()
        self.audit = AuditTrail(db) if audit else None
        self._queues: dict[str, QueueTable] = {}

    def _fire(self, name: str, **site: Any) -> None:
        """Hit a failpoint through the database's injector (if any).

        Fired *before* the guarded operation mutates anything, so an
        injected fault leaves the queue table untouched."""
        faults = self.db.faults
        if faults is not None:
            faults.fire(name, broker=self, **site)

    # -- queue lifecycle ----------------------------------------------------

    def create_queue(
        self,
        name: str,
        *,
        keep_history: bool = False,
        default_expiration: float | None = None,
    ) -> QueueTable:
        name = name.lower()
        if name in self._queues:
            raise QueueError(f"queue {name!r} already exists")
        queue = QueueTable(
            self.db,
            name,
            keep_history=keep_history,
            default_expiration=default_expiration,
        )
        self._queues[name] = queue
        return queue

    def create_queue_or_attach(
        self,
        name: str,
        *,
        keep_history: bool = False,
        default_expiration: float | None = None,
    ) -> QueueTable:
        """Create a queue, or re-attach to its surviving table after a
        restart/recovery (the table holds all state; the broker object
        is just a handle)."""
        if self.has_queue(name):
            return self.queue(name)
        return self.create_queue(
            name,
            keep_history=keep_history,
            default_expiration=default_expiration,
        )

    def queue(self, name: str) -> QueueTable:
        try:
            return self._queues[name.lower()]
        except KeyError:
            raise QueueNotFoundError(f"queue {name!r} does not exist") from None

    def has_queue(self, name: str) -> bool:
        return name.lower() in self._queues

    def queue_names(self) -> list[str]:
        return sorted(self._queues)

    def depth(self, name: str) -> int:
        """READY messages in queue ``name``."""
        return self.queue(name).depth()

    def drop_queue(self, name: str) -> None:
        queue = self.queue(name)
        self.db.drop_table(queue.table_name)
        del self._queues[name.lower()]

    # -- message acceptance paths (§2.2.b.i) -------------------------------------

    def publish_batch(
        self,
        queue_name: str,
        messages: Iterable[Message | Any],
        *,
        principal: str = "internal",
    ) -> list[int]:
        """Internally created messages — the optimized path
        (§2.2.b.i.3): the whole batch in ONE transaction, security
        checked once, audited per message."""
        self.security.check(principal, queue_name, Permission.ENQUEUE)
        self._fire(BROKER_PUBLISH, queue=queue_name, principal=principal)
        message_ids = self.queue(queue_name).enqueue_batch(messages)
        for message_id in message_ids:
            self._audit(principal, "enqueue", queue_name, message_id)
        return message_ids

    def publish(
        self,
        queue_name: str,
        message: Message | Any,
        *,
        principal: str = "internal",
    ) -> int:
        """Publish one message (:meth:`publish_batch` at n = 1)."""
        return self.publish_batch(queue_name, [message], principal=principal)[0]

    def enqueue_via_sql(
        self,
        queue_name: str,
        message: Message | Any,
        *,
        principal: str = "client",
    ) -> int:
        """Client message through the extended INSERT interface
        (§2.2.b.i.1)."""
        self.security.check(principal, queue_name, Permission.ENQUEUE)
        message_id = self.queue(queue_name).enqueue_via_insert(message)
        self._audit(principal, "enqueue_sql", queue_name, message_id)
        return message_id

    def ingest_foreign(
        self,
        queue_name: str,
        raw: dict[str, Any],
        *,
        principal: str = "foreign",
        source_system: str = "unknown",
    ) -> int:
        """Message created in a foreign system and delivered to the
        database message store (§2.2.b.i.2).

        ``raw`` is the foreign envelope; recognized keys (``payload``,
        ``priority``, ``correlation_id``, ``headers``, ``expires_at``,
        ``delay``) are mapped, everything else is preserved in headers
        under ``foreign_*`` so nothing the foreign system sent is lost.
        """
        self.security.check(principal, queue_name, Permission.ENQUEUE)
        known = {"payload", "priority", "correlation_id", "headers", "expires_at", "delay"}
        headers = dict(raw.get("headers") or {})
        headers["source_system"] = source_system
        for key, value in raw.items():
            if key not in known:
                headers[f"foreign_{key}"] = value
        message = Message(
            payload=raw.get("payload"),
            priority=int(raw.get("priority") or 0),
            correlation_id=raw.get("correlation_id"),
            headers=headers,
            expires_at=raw.get("expires_at"),
        )
        if raw.get("delay"):
            message.visible_at = self.db.clock.now() + float(raw["delay"])
        message_id = self.queue(queue_name).enqueue(message)
        self._audit(principal, "ingest_foreign", queue_name, message_id)
        return message_id

    # -- consumption -----------------------------------------------------------

    def consume_batch(
        self,
        queue_name: str,
        max_messages: int,
        *,
        principal: str = "consumer",
    ) -> list[Message]:
        """Dequeue up to ``max_messages`` in ONE transaction (all
        LOCKED until ack/requeue)."""
        self.security.check(principal, queue_name, Permission.DEQUEUE)
        self._fire(BROKER_CONSUME, queue=queue_name, principal=principal)
        messages = self.queue(queue_name).dequeue_batch(
            max_messages, consumer=principal
        )
        for message in messages:
            self._audit(principal, "dequeue", queue_name, message.message_id)
        return messages

    def consume(
        self, queue_name: str, *, principal: str = "consumer"
    ) -> Message | None:
        """Dequeue the next message, or None when the queue is empty
        (:meth:`consume_batch` at n = 1)."""
        messages = self.consume_batch(queue_name, 1, principal=principal)
        return messages[0] if messages else None

    def ack_batch(
        self,
        queue_name: str,
        message_ids: Iterable[int],
        *,
        principal: str = "consumer",
    ) -> int:
        """Acknowledge LOCKED messages with ONE transaction (one
        commit, one journal flush for the whole batch).  Ids are
        de-duplicated in order: the return value counts, and the audit
        trail records, each distinct message once."""
        ids = list(dict.fromkeys(message_ids))
        self.security.check(principal, queue_name, Permission.DEQUEUE)
        self._fire(BROKER_ACK, queue=queue_name, message_ids=ids, principal=principal)
        acked = self.queue(queue_name).ack_batch(ids)
        for message_id in ids:
            self._audit(principal, "ack", queue_name, message_id)
        return acked

    def ack(self, queue_name: str, message_id: int, *, principal: str = "consumer") -> None:
        """Acknowledge one message (:meth:`ack_batch` at n = 1)."""
        self.ack_batch(queue_name, [message_id], principal=principal)

    def requeue(
        self,
        queue_name: str,
        message_id: int,
        *,
        delay: float = 0.0,
        principal: str = "consumer",
    ) -> None:
        self.security.check(principal, queue_name, Permission.DEQUEUE)
        self.queue(queue_name).requeue(message_id, delay=delay)
        self._audit(principal, "requeue", queue_name, message_id)

    def browse(
        self, queue_name: str, *, principal: str = "consumer"
    ) -> Iterable[Message]:
        self.security.check(principal, queue_name, Permission.BROWSE)
        return self.queue(queue_name).browse()

    # -- bookkeeping --------------------------------------------------------------

    def _audit(
        self, principal: str, operation: str, queue_name: str, message_id: int | None
    ) -> None:
        if self.audit is not None:
            self.audit.record(
                principal, operation, queue_name, message_id=message_id
            )

    def stats(self) -> dict[str, dict[str, int]]:
        return {name: dict(queue.stats) for name, queue in self._queues.items()}
