"""Count guards for the list-form write path, on counts not time.

A batch of *n* rows is one trip through the transaction helper, the
lock manager and the catalog, not *n*: ``Database.delete_rows`` takes
the table lock once and resolves the table once, and so does each layer
of ``QueueTable.ack_batch`` above it (the queue resolves its table once
to check every id is LOCKED, the database once to delete) — whatever
the batch size.  Settling a consumed batch is likewise a fixed number
of broker calls, however many of its messages dead-letter, and a
propagation pump forwards its batch to a staging area in one publish
(one destination transaction), unless that publish raised.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import pytest

from repro.db import Database
from repro.faults import BROKER_PUBLISH, FaultInjector, on_hit, raise_fault
from repro.pubsub import DeliveryManager
from repro.queues import PropagationLink, Propagator, QueueBroker, QueueTable

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


class _Poisoned:
    """A propagation link's service and a delivery consumer in one:
    raises on the ``doomed`` payloads."""

    def __init__(self, doomed):
        self.doomed = doomed

    def __call__(self, message):
        if message.payload in self.doomed:
            raise RuntimeError("poison")

    deliver = __call__


@pytest.mark.parametrize("k", [1, 32])
@pytest.mark.parametrize("driver", ["propagator", "delivery"])
def test_dead_letters_settle_in_one_publish_and_one_ack(driver, k):
    broker = QueueBroker(Database())
    broker.create_queue("src")
    broker.publish_batch("src", list(range(BATCH)))
    work = _Poisoned(set(range(0, BATCH, BATCH // k)))
    if driver == "propagator":
        propagator = Propagator(
            broker, "src", max_attempts=1, dead_letter_queue="dlq"
        ).add_link(PropagationLink("svc", service=work))
        settle_one_batch = partial(propagator.pump, batch=BATCH)
    else:
        manager = DeliveryManager(
            broker, "src", max_attempts=1, dead_letter_queue="dlq"
        )
        settle_one_batch = partial(manager.process_batch, work, batch=BATCH)
    with mock.patch.object(
        broker, "publish_batch", wraps=broker.publish_batch
    ) as publishes, mock.patch.object(
        broker, "ack_batch", wraps=broker.ack_batch
    ) as acks:
        assert settle_one_batch() == BATCH - k
    assert [call.args[0] for call in publishes.call_args_list] == ["dlq"]
    assert [call.args[0] for call in acks.call_args_list] == ["src", "src"]
    assert broker.queue("dlq").depth() == k
    assert broker.queue("src").depth() == 0


def _propagator(*destinations):
    """A source queue holding BATCH messages and a Propagator with one
    broker link per destination broker (each its own database)."""
    source = QueueBroker(Database())
    source.create_queue("src")
    source.publish_batch("src", list(range(BATCH)))
    propagator = Propagator(source, "src")
    for destination in destinations:
        destination.create_queue("inbox")
        propagator.add_link(
            PropagationLink(destination.name, broker=destination, queue_name="inbox")
        )
    return source, propagator


def _payloads(broker):
    return sorted(message.payload for message in broker.queue("inbox").browse())


def test_a_pump_is_one_publish_batch_per_broker_link():
    destination = QueueBroker(Database(), name="dest")
    source, propagator = _propagator(destination)
    commits = destination.db.statistics["commits"]
    with mock.patch.object(
        destination, "publish_batch", wraps=destination.publish_batch
    ) as publishes:
        assert propagator.pump(batch=BATCH) == BATCH
    assert publishes.call_count == 1
    assert destination.db.statistics["commits"] - commits == 1
    assert _payloads(destination) == list(range(BATCH))
    assert source.depth("src") == 0


def test_a_failed_batch_falls_back_on_its_link_alone():
    injector = FaultInjector()
    down = QueueBroker(Database(faults=injector), name="down")
    healthy = QueueBroker(Database(), name="healthy")
    source, propagator = _propagator(down, healthy)
    injector.arm(BROKER_PUBLISH, raise_fault("link down"), policy=on_hit(1))
    with mock.patch.object(
        down, "publish_batch", wraps=down.publish_batch
    ) as down_publishes, mock.patch.object(
        healthy, "publish_batch", wraps=healthy.publish_batch
    ) as healthy_publishes:
        assert propagator.pump(batch=BATCH) == BATCH
    # The failed batch, then one publish per message on that link only.
    assert down_publishes.call_count == 1 + BATCH
    assert healthy_publishes.call_count == 1
    fallbacks = source.db.obs.counter("prop.batch_fallbacks", source="src")
    assert fallbacks.value == 1
    # Every message ended exactly once: on each link once, acked once.
    assert _payloads(down) == _payloads(healthy) == list(range(BATCH))
    assert propagator.stats["forwarded"] == BATCH
    assert list(source.queue("src").browse(include_locked=True)) == []
