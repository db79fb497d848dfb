"""Count guards for the list-form write path, on counts not time.

A batch of *n* rows is one trip through the transaction helper, the
lock manager and the catalog, not *n*: ``Database.delete_rows`` takes
the table lock once and resolves the table once, and so does each layer
of ``QueueTable.ack_batch`` above it (the queue resolves its table once
to check every id is LOCKED, the database once to delete) — whatever
the batch size.
"""

from __future__ import annotations

from unittest import mock

from repro.db import Database
from repro.queues import QueueTable

BATCH = 64


def _round_trips(db, operation):
    """(lock acquisitions, catalog lookups, transaction-helper entries)
    made while ``operation`` runs."""
    spies = [
        mock.patch.object(owner, name, wraps=getattr(owner, name))
        for owner, name in (
            (db.locks, "acquire"),
            (db.catalog, "table"),
            (db, "run_in_transaction"),
        )
    ]
    with spies[0] as locks, spies[1] as lookups, spies[2] as transactions:
        operation()
    return locks.call_count, lookups.call_count, transactions.call_count


def test_delete_rows_locks_and_resolves_once():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    rowids = db.insert_many("t", [{"id": i} for i in range(BATCH)])
    assert _round_trips(db, lambda: db.delete_rows("t", rowids)) == (1, 1, 1)
    assert len(db.catalog.table("t")) == 0


def _locked_batch(keep_history, size):
    db = Database()
    queue = QueueTable(db, "work", keep_history=keep_history)
    queue.enqueue_batch(range(size))
    return db, queue, [m.message_id for m in queue.dequeue_batch(size)]


def test_ack_batch_round_trips_do_not_grow_with_the_batch():
    for keep_history in (False, True):
        db, queue, ids = _locked_batch(keep_history, BATCH)
        locks, lookups, transactions = _round_trips(
            db, lambda: queue.ack_batch(ids)
        )
        assert locks == 1
        assert lookups == 2  # one per layer: QueueTable's check, Database's write
        assert transactions == 2  # ack_batch opens it, the DML call joins it
        db, queue, ids = _locked_batch(keep_history, 1)
        assert _round_trips(db, lambda: queue.ack(ids[0])) == (
            locks, lookups, transactions,
        )
