"""A persistent message queue backed by one database table (§2.2.b).

Every queue operation is a database transaction, so queues inherit the
database's operational characteristics verbatim:

* **Recoverability** — enqueued messages survive crashes (they are rows
  journaled through the WAL); an in-flight (locked) message whose
  consumer dies is returned to READY by :meth:`recover_locked`.
* **Transactional support** — enqueue/dequeue participate in the
  caller's transaction: a rolled-back enqueue never becomes visible, a
  rolled-back dequeue leaves the message READY.
* **Ordering** — dequeue returns the highest-priority READY message,
  FIFO within a priority.  FIFO position is the *original enqueue*
  position (the rowid): a message requeued after a failed delivery
  keeps its place ahead of messages enqueued while it was locked.

Two enqueue paths exist for EXP-3:
:meth:`enqueue_batch` is the internal fast path (programmatic row
insert; :meth:`enqueue` is it at n = 1); :meth:`enqueue_via_insert`
goes through the full SQL text interface the way an external client
would ("extended INSERT interface", §2.2.b.i.1).

Dequeue is O(log n): each queue keeps an in-memory min-heap over its
READY rows keyed ``(-priority, rowid)``, maintained by the enqueue /
requeue / recover paths and validated lazily against the table on pop
(stale entries — rolled-back enqueues, expired sweeps — are simply
discarded; rowids are never reused, so an entry can never alias a
different message).  The heap is rebuilt from the table when a
:class:`QueueTable` attaches to an existing table (restart/recovery)
and on demand via :meth:`rebuild_ready_index` after out-of-band SQL
writes to the queue table.

The list forms (:meth:`enqueue_batch`, :meth:`dequeue_batch`,
:meth:`ack_batch`) are the only implementation of each state
transition and cover the whole batch with ONE transaction — one lock
acquisition, one commit, one journal flush — which is where the
"significant optimization opportunities" of §2.2.b.i.3 come from.  The
single-message methods are the same code at n = 1.
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Iterable, Iterator, Sequence

from repro.clock import Clock
from repro.db.database import Connection, Database
from repro.db.schema import Column
from repro.db.types import INT, TEXT, TIMESTAMP
from repro.errors import MessageExpiredError, QueueError
from repro.obs.trace import new_trace_id, record_hop
from repro.queues.message import Message, MessageState


def queue_table_name(queue_name: str) -> str:
    return f"q_{queue_name.lower()}"


class QueueTable:
    """One named queue stored in table ``q_<name>``."""

    def __init__(
        self,
        db: Database,
        name: str,
        *,
        keep_history: bool = False,
        default_expiration: float | None = None,
    ) -> None:
        """Args:
        keep_history: consumed messages stay as CONSUMED rows (full
            tracking, §2.2.b.ii.1) instead of being deleted.
        default_expiration: seconds until expiry applied to messages
            enqueued without an explicit ``expires_at``.
        """
        self.db = db
        self.name = name.lower()
        self.table_name = queue_table_name(name)
        self.keep_history = keep_history
        self.default_expiration = default_expiration
        # Registry counters bound once (label: queue name), shared by
        # every handle on this queue; the depth gauge is a provider read
        # only at snapshot time, so it costs the hot path nothing.
        obs = db.obs
        self.stats = obs.view(
            "queue", "enqueued", "dequeued", "acked", "requeued", "expired",
            queue=self.name,
        )
        (self._m_enqueued, self._m_dequeued, self._m_acked, self._m_requeued,
         self._m_expired) = self.stats.counters.values()
        obs.gauge_fn("queue.depth", self.depth, queue=self.name)
        # Priority-ordered READY index: min-heap of (-priority, rowid).
        # rowid is the tie-break, so FIFO-within-priority follows the
        # original enqueue order even across requeues.
        self._ready: list[tuple[int, int]] = []
        # Lazily-built prepared INSERT for enqueue_via_prepared (EXP-3's
        # client path with the parse amortized away).
        self._prepared_insert = None
        self._prepared_columns: tuple[str, ...] | None = None
        if not db.catalog.has_table(self.table_name):
            self._create_table()
        else:
            self.rebuild_ready_index()

    @property
    def clock(self) -> Clock:
        return self.db.clock

    def _create_table(self) -> None:
        # payload/headers are stored JSON-encoded (TEXT) so the client
        # SQL path and the internal fast path produce identical rows.
        self.db.create_table(
            self.table_name,
            [
                Column("payload", TEXT),
                Column("priority", INT, nullable=False, default=0),
                Column("enqueued_at", TIMESTAMP, nullable=False),
                Column("visible_at", TIMESTAMP, nullable=False),
                Column("expires_at", TIMESTAMP),
                Column("correlation_id", TEXT),
                Column("headers", TEXT),
                Column("attempts", INT, nullable=False, default=0),
                Column("state", TEXT, nullable=False),
                Column("consumer", TEXT),
            ],
        )
        # Dequeue scans filter on state; priority order is computed on
        # the (small) READY candidate set.
        self.db.create_index(
            f"ix_{self.table_name}_state", self.table_name, "state", kind="hash"
        )

    # -- enqueue --------------------------------------------------------------

    def _prepare(self, message: Message | Any) -> Message:
        """Stamp a :class:`Message` (or bare payload) for admission."""
        if not isinstance(message, Message):
            message = Message(payload=message)
        now = self.clock.now()
        message.queue = self.name
        message.enqueued_at = now
        # Only None means "unset": an explicit visible_at=0.0 is a real
        # timestamp (epoch under a simulated clock), not a request to be
        # visible "now".
        if message.visible_at is None:
            message.visible_at = now
        if message.expires_at is None and self.default_expiration is not None:
            message.expires_at = now + self.default_expiration
        message.state = MessageState.READY
        # The enqueue boundary is a trace birth point: a message not yet
        # carrying a trace id (i.e. not derived from a captured event)
        # gets one here, so every queued message is trackable.
        trace_id = message.headers.get("trace_id")
        if trace_id is None:
            trace_id = message.headers["trace_id"] = new_trace_id()
        record_hop(trace_id, "queue.enqueue", now, queue=self.name)
        return message

    def _admit(self, messages: Sequence[Message], rowids: list[int]) -> list[int]:
        """The one admit tail: the stored rows become messages of this
        queue — id assigned, READY-heap entry pushed, counted."""
        for message, rowid in zip(messages, rowids):
            message.message_id = rowid
            heapq.heappush(self._ready, (-message.priority, rowid))
        self._m_enqueued.inc(len(rowids))
        return rowids

    def enqueue_batch(
        self,
        messages: Iterable[Message | Any],
        *,
        conn: Connection | None = None,
    ) -> list[int]:
        """Enqueue messages (or bare payloads) in ONE transaction — the
        internal fast path (programmatic insert) and the only enqueue
        body.

        The whole batch shares a single table lock, commit, and journal
        flush (group commit degenerate case: the batch *is* the group),
        so per-message cost drops sharply with batch size — the EXP-2
        batch-size sweep quantifies it.  Returns the message ids, in
        input order; each input :class:`Message` gets its
        ``message_id`` assigned.  Joins the caller's transaction when
        ``conn`` is given.
        """
        prepared = [self._prepare(message) for message in messages]
        if not prepared:
            return []
        rowids = self.db.insert_many(
            self.table_name, [message.to_row() for message in prepared], conn=conn
        )
        return self._admit(prepared, rowids)

    def enqueue(
        self, message: Message | Any, *, conn: Connection | None = None
    ) -> int:
        """Enqueue one message; returns its id (:meth:`enqueue_batch`
        at n = 1)."""
        return self.enqueue_batch([message], conn=conn)[0]

    def enqueue_via_insert(self, message: Message | Any) -> int:
        """Client-style enqueue through the SQL INSERT interface.

        Exercises the full lex/parse/plan path a foreign client would
        use — the baseline EXP-3 compares against the fast path.
        """
        message = self._prepare(message)
        row = message.to_row()
        columns = ", ".join(row)
        values = ", ".join(_sql_literal(value) for value in row.values())
        result = self.db.execute(
            f"INSERT INTO {self.table_name} ({columns}) VALUES ({values})"
        )
        # The SQL path returns the assigned id via lastrowid.
        return self._admit([message], [result.lastrowid])[0]

    def enqueue_via_prepared(self, message: Message | Any) -> int:
        """Client-style enqueue through a prepared parameterized INSERT.

        Same SQL interface as :meth:`enqueue_via_insert`, but the
        statement text is constant (``?`` placeholders), so after the
        first call every enqueue is a statement-cache hit: bind + plan +
        execute with no lexing or parsing — the EXP-3 ``prepared`` arm.
        """
        message = self._prepare(message)
        row = message.to_row()
        if (
            self._prepared_insert is None
            or self._prepared_columns != tuple(row)
        ):
            columns = ", ".join(row)
            placeholders = ", ".join("?" for _ in row)
            self._prepared_insert = self.db.prepare(
                f"INSERT INTO {self.table_name} ({columns}) "
                f"VALUES ({placeholders})"
            )
            self._prepared_columns = tuple(row)
        result = self._prepared_insert.execute(tuple(row.values()))
        return self._admit([message], [result.lastrowid])[0]

    # -- dequeue ----------------------------------------------------------------

    def _dequeue_ready(
        self, connection: Connection, consumer: str, limit: int
    ) -> list[Message]:
        """Pop up to ``limit`` dequeueable messages off the READY heap
        and lock them, inside the caller's (already open) transaction.

        Heap entries are validated against the table on pop: entries
        whose row is gone or no longer READY are discarded, not-yet-
        visible entries are deferred (pushed back), and expired entries
        are marked EXPIRED.  All state transitions of the batch are
        applied through one :meth:`Database.update_rows` call.
        """
        self.db.lock_table_exclusive(connection, self.table_name)
        transaction = connection.require_transaction()
        now = self.clock.now()
        table = self.db.catalog.table(self.table_name)
        heap = self._ready
        if not heap and self.depth():
            # Safety net: the table has READY rows the heap does not
            # know about (recovery replay, out-of-band SQL writes, a
            # rolled-back dequeue).  Re-derive the index from the table.
            self.rebuild_ready_index()
            heap = self._ready
        deferred: list[tuple[int, int]] = []
        taken: list[tuple[int, int]] = []
        updates: list[tuple[int, dict[str, Any]]] = []
        messages: list[Message] = []
        seen: set[int] = set()
        expired = 0
        while heap and len(messages) < limit:
            entry = heapq.heappop(heap)
            rowid = entry[1]
            if rowid in seen:
                continue  # duplicate entry (requeue + rollback races)
            row = table.get(rowid)
            if row is None or row["state"] != MessageState.READY.value:
                continue  # stale entry — lazily discarded
            if row["visible_at"] > now:
                deferred.append(entry)
                continue
            seen.add(rowid)
            if row["expires_at"] is not None and row["expires_at"] <= now:
                updates.append((rowid, {"state": MessageState.EXPIRED.value}))
                taken.append(entry)
                expired += 1
                continue
            columns = {
                "state": MessageState.LOCKED.value,
                "consumer": consumer,
                "attempts": row["attempts"] + 1,
            }
            updates.append((rowid, columns))
            taken.append(entry)
            row.update(columns)
            messages.append(Message.from_row(self.name, rowid, row))
        for entry in deferred:
            heapq.heappush(heap, entry)
        if updates:
            self.db.update_rows(self.table_name, updates, conn=connection)
        if taken:
            # A rolled-back dequeue restores the rows to READY via the
            # row-level undo; restore their heap entries alongside.
            transaction.record_undo(
                lambda entries=tuple(taken): [
                    heapq.heappush(self._ready, entry) for entry in entries
                ]
            )
        if expired:
            self._m_expired.inc(expired)
        if messages:
            self._m_dequeued.inc(len(messages))
            for message in messages:
                record_hop(
                    message.headers.get("trace_id"),
                    "queue.dequeue",
                    now,
                    queue=self.name,
                    consumer=consumer,
                )
        return messages

    def dequeue(
        self,
        *,
        consumer: str = "anonymous",
        conn: Connection | None = None,
    ) -> Message | None:
        """Lock and return the next READY message, or None when empty
        (:meth:`dequeue_batch` at n = 1).

        The returned message is LOCKED until :meth:`ack` (consume) or
        :meth:`requeue` (failure).  Expired candidates encountered on
        the way are marked EXPIRED.
        """
        messages = self.dequeue_batch(1, consumer=consumer, conn=conn)
        return messages[0] if messages else None

    def dequeue_batch(
        self,
        max_messages: int,
        *,
        consumer: str = "anonymous",
        conn: Connection | None = None,
    ) -> list[Message]:
        """Lock and return up to ``max_messages`` READY messages in ONE
        transaction, in dequeue order (priority desc, FIFO within).

        Returns fewer (possibly zero) messages when the queue runs dry.
        Each returned message is LOCKED until acked/requeued, exactly as
        with :meth:`dequeue`.
        """
        if max_messages < 1:
            return []

        def work(connection: Connection) -> list[Message]:
            return self._dequeue_ready(connection, consumer, max_messages)

        return self.db.run_in_transaction(conn, work)

    def _consume(self, rowids: Sequence[int], conn: Connection | None) -> None:
        """The one consume body: delete the rows, or mark them CONSUMED
        when the queue keeps history."""
        if self.keep_history:
            self.db.update_rows(
                self.table_name,
                [(rowid, {"state": MessageState.CONSUMED.value}) for rowid in rowids],
                conn=conn,
            )
        else:
            self.db.delete_rows(self.table_name, rowids, conn=conn)

    def ack_batch(
        self,
        message_ids: Iterable[int],
        *,
        conn: Connection | None = None,
    ) -> int:
        """Consume LOCKED messages in ONE transaction (deleted, or
        marked CONSUMED when the queue keeps history).

        All-or-nothing: every id must name a LOCKED message or the
        whole batch fails (and rolls back).  Ids are de-duplicated in
        order — a repeated id is one message — and the return value and
        the ``acked`` counters count distinct messages.
        """
        ids = list(dict.fromkeys(message_ids))
        if not ids:
            return 0

        def work(connection: Connection) -> int:
            self._require_state(ids, MessageState.LOCKED, "ack")
            self._consume(ids, connection)
            self._m_acked.inc(len(ids))
            return len(ids)

        return self.db.run_in_transaction(conn, work)

    def ack(self, message_id: int, *, conn: Connection | None = None) -> None:
        """Consume one LOCKED message (:meth:`ack_batch` at n = 1)."""
        self.ack_batch([message_id], conn=conn)

    def force_consume(self, message_ids: Iterable[int]) -> int:
        """Consume messages whatever their state, in ONE transaction,
        skipping ids with no row; returns how many were consumed.

        This is how a replica applies shipped acks: its copies are
        READY (nothing dequeues on a replica), so :meth:`ack_batch`'s
        LOCKED requirement cannot hold there.  Not an acknowledgement:
        the ``acked`` counters do not move.
        """
        table = self.db.catalog.table(self.table_name)
        rowids = [
            message_id
            for message_id in dict.fromkeys(message_ids)
            if table.get(message_id) is not None
        ]
        self._consume(rowids, None)
        return len(rowids)

    def requeue(
        self,
        message_id: int,
        *,
        delay: float = 0.0,
        conn: Connection | None = None,
    ) -> None:
        """Return a LOCKED message to READY (consumer failure path).

        The message keeps its original rowid and therefore its original
        FIFO position within its priority: redelivery is not penalized
        by messages that arrived while it was locked.
        """

        def work(connection: Connection) -> None:
            (row,) = self._require_state(
                [message_id], MessageState.LOCKED, "requeue"
            )
            self.db.update_rows(
                self.table_name,
                [
                    (
                        message_id,
                        {
                            "state": MessageState.READY.value,
                            "consumer": None,
                            "visible_at": self.clock.now() + delay,
                        },
                    )
                ],
                conn=connection,
            )
            heapq.heappush(self._ready, (-row["priority"], message_id))
            self._m_requeued.inc()

        self.db.run_in_transaction(conn, work)

    def _require_state(
        self, message_ids: Sequence[int], expected: MessageState, operation: str
    ) -> list[dict[str, Any]]:
        """The rows of ``message_ids``, every one in ``expected`` state
        (raises on the first that is not)."""
        table = self.db.catalog.table(self.table_name)
        rows = []
        for message_id in message_ids:
            row = table.get(message_id)
            if row is None:
                raise QueueError(
                    f"{operation}: message {message_id} not found in {self.name!r}"
                )
            if row["state"] == MessageState.EXPIRED.value:
                raise MessageExpiredError(
                    f"{operation}: message {message_id} expired"
                )
            if row["state"] != expected.value:
                raise QueueError(
                    f"{operation}: message {message_id} is {row['state']}, "
                    f"expected {expected.value}"
                )
            rows.append(row)
        return rows

    # -- maintenance & inspection -------------------------------------------------

    def browse(self, *, include_locked: bool = False) -> Iterator[Message]:
        """Peek at pending messages in dequeue order without locking."""
        table = self.db.catalog.table(self.table_name)
        states = {MessageState.READY.value}
        if include_locked:
            states.add(MessageState.LOCKED.value)
        pending = [
            (row["priority"], rowid, row)
            for rowid, row in table.scan()
            if row["state"] in states
        ]
        pending.sort(key=lambda item: (-item[0], item[1]))
        for _priority, rowid, row in pending:
            yield Message.from_row(self.name, rowid, row)

    def depth(self) -> int:
        """Number of READY messages."""
        table = self.db.catalog.table(self.table_name)
        return len(table.lookup_rowids("state", MessageState.READY.value))

    def expire_messages(self) -> int:
        """Sweep READY messages past their expiration; returns count."""
        now = self.clock.now()
        table = self.db.catalog.table(self.table_name)
        expired = [
            rowid
            for rowid in table.lookup_rowids("state", MessageState.READY.value)
            if (row := table.get(rowid))
            and row["expires_at"] is not None
            and row["expires_at"] <= now
        ]
        self.db.update_rows(
            self.table_name,
            [(rowid, {"state": MessageState.EXPIRED.value}) for rowid in expired],
        )
        self._m_expired.inc(len(expired))
        return len(expired)

    def recover_locked(self, *, consumer: str | None = None) -> int:
        """Return LOCKED messages to READY after a consumer failure.

        With ``consumer`` given, only that consumer's locks are
        released.  Returns the number of messages recovered.
        """
        table = self.db.catalog.table(self.table_name)
        entries = [
            (-row["priority"], rowid)
            for rowid in table.lookup_rowids("state", MessageState.LOCKED.value)
            if (row := table.get(rowid)) is not None
            and (consumer is None or row["consumer"] == consumer)
        ]
        self.db.update_rows(
            self.table_name,
            [
                (rowid, {"state": MessageState.READY.value, "consumer": None})
                for _priority, rowid in entries
            ],
        )
        for entry in entries:
            heapq.heappush(self._ready, entry)
        return len(entries)

    def rebuild_ready_index(self) -> int:
        """Re-derive the in-memory READY heap from the table.

        Called automatically when attaching to an existing table and by
        the dequeue safety net; call it manually after mutating the
        queue table through raw SQL.  Returns the number of READY rows
        indexed.
        """
        table = self.db.catalog.table(self.table_name)
        entries = []
        for rowid in table.lookup_rowids("state", MessageState.READY.value):
            row = table.get(rowid)
            if row is not None:
                entries.append((-row["priority"], rowid))
        heapq.heapify(entries)
        self._ready = entries
        return len(entries)


def _sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal for the client-path INSERT."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    # JSON columns accept structured values; embed as a JSON string the
    # coercion layer will keep verbatim.
    return "'" + json.dumps(value).replace("'", "''") + "'"
