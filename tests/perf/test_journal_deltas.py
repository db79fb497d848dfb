"""Count guards for the v3 journal, on bytes not time.

A queue message's row is journaled once, by its enqueue: the state
changes after it (dequeue, then ack) log only what they change, so the
bytes a message puts on disk track its payload once, and a dequeue
record is the same size whatever the payload.
"""

from __future__ import annotations

import os

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.queues import QueueTable

PAYLOAD_BYTES = 4096


def _queue(path, keep_history=False):
    db = Database(path=path, clock=SimulatedClock(start=0.0))
    return QueueTable(db, "work", keep_history=keep_history)


@pytest.mark.parametrize("keep_history", [False, True])
def test_a_message_puts_its_payload_on_disk_once(tmp_path, keep_history):
    path = str(tmp_path / "q.wal")
    queue = _queue(path, keep_history)
    start = os.path.getsize(path)
    queue.enqueue("x" * PAYLOAD_BYTES)
    (message,) = queue.dequeue_batch(1)
    queue.ack(message.message_id)
    assert os.path.getsize(path) - start < 1.5 * PAYLOAD_BYTES


def test_a_dequeue_record_does_not_grow_with_the_payload(tmp_path):
    sizes = []
    for payload_bytes in (8, 10 * PAYLOAD_BYTES):
        path = str(tmp_path / f"q{payload_bytes}.wal")
        queue = _queue(path)
        queue.enqueue("x" * payload_bytes)
        start = os.path.getsize(path)
        assert len(queue.dequeue_batch(1)) == 1
        sizes.append(os.path.getsize(path) - start)
    assert sizes[0] == sizes[1]
