"""The shard worker process: one storage engine behind a framed channel.

Each worker owns a full process-local stack — :class:`Database` (its
own WAL file), :class:`QueueBroker` with its queue tables, a
:class:`MetricsRegistry`, and a 2PC :class:`ParticipantLog` — and
serves a small op vocabulary over the coordinator channel.  Because
everything below the channel is the unmodified single-process code,
every operational guarantee (recoverability, transactional support,
ordering) holds per shard exactly as documented; the shard layer adds
only routing and the cross-shard 2PC protocol on top.

Restart behaviour: opening the worker over an existing WAL path
recovers the engine, re-attaches every ``q_*`` queue table (rebuilding
its READY heap), returns LOCKED messages to READY (their consumer —
the dead previous incarnation — can never ack them), and reports
in-doubt 2PC transactions for the coordinator to resolve.
"""

from __future__ import annotations

import socket
import sys
from typing import Any

from repro.db.database import Database
from repro.errors import ReproError
from repro.faults import (
    SHARD_DECIDE,
    SHARD_HEARTBEAT,
    SHARD_PREPARED,
    SHARD_PROMOTE,
    SHARD_REPLICATE,
    FaultInjector,
    always,
    exit_process,
    on_hit,
    raise_fault,
    stall,
)
from repro.queues.broker import QueueBroker
from repro.shard.protocol import (
    consumed_to_wire,
    exported_to_wire,
    message_to_wire,
    recv_frame,
    send_frame,
    wire_to_message,
)
from repro.shard.twopc import ABORTED, COMMITTED, ParticipantLog


def build_injector(spec: dict[str, Any] | None) -> FaultInjector | None:
    """Rehydrate a fault injector from a JSON-safe spec (the only form
    that crosses the process boundary).

    Spec keys: ``failpoint`` (name), ``action`` (``"exit"``,
    ``"raise"``, or ``"sleep"``), optional ``on_hit`` (1-based),
    ``max_fires``, ``code`` (exit status), ``seconds`` (sleep
    duration), ``seed``.
    """
    if not spec:
        return None
    injector = FaultInjector(seed=int(spec.get("seed", 0)))
    if spec.get("action") == "exit":
        action = exit_process(int(spec.get("code", 3)))
    elif spec.get("action") == "sleep":
        action = stall(float(spec.get("seconds", 1.0)))
    else:
        action = raise_fault(spec.get("message", "injected shard fault"))
    policy = on_hit(int(spec["on_hit"])) if "on_hit" in spec else always()
    injector.arm(
        spec["failpoint"],
        action,
        policy=policy,
        max_fires=spec.get("max_fires"),
    )
    return injector


#: Ops a replica refuses while still a replica: anything that would
#: make it a second writer.  Its engine mutates only through
#: ``replicate``/``import_queues`` until ``promote`` flips the role.
_PRIMARY_ONLY_OPS = frozenset(
    {
        "create_queue",
        "drop_queue",
        "publish_batch",
        "consume_batch",
        "ack_batch",
        "requeue",
        "prepare",
        "decide",
        "resolve",
    }
)


class ShardWorker:
    """Request dispatcher around one shard's process-local engine."""

    def __init__(self, config: dict[str, Any]) -> None:
        self.shard_id = int(config["shard_id"])
        self.role = config.get("role", "primary")
        self.faults = build_injector(config.get("fault"))
        self.db = Database(
            path=config.get("wal_path"),
            sync_policy=config.get("sync_policy", "commit"),
            group_commit_size=int(config.get("group_commit_size", 1)),
            faults=self.faults,
        )
        self.broker = QueueBroker(
            self.db, name=f"shard-{self.shard_id}", audit=bool(config.get("audit"))
        )
        self.twopc = ParticipantLog(self.db)
        recovered = 0
        for table in self.db.catalog.tables():
            if table.name.startswith("q_"):
                queue = self.broker.create_queue_or_attach(table.name[2:])
                recovered += queue.recover_locked()
        self.recovered_locked = recovered
        # Replication cursor and primary-id → local-rowid map, per queue.
        # Both live in memory only: a dead replica is re-seeded from a
        # fresh primary snapshot, never from its own leftover state.
        self.applied_seq = 0
        self._idmap: dict[str, dict[int, int]] = {}

    def _fire(self, name: str, **site: Any) -> None:
        if self.faults is not None:
            self.faults.fire(name, shard=self.shard_id, **site)

    # -- op handlers --------------------------------------------------------

    def dispatch(self, op: str, args: dict[str, Any]) -> Any:
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise ReproError(f"shard worker: unknown op {op!r}")
        if self.role == "replica" and op in _PRIMARY_ONLY_OPS:
            raise ReproError(
                f"shard {self.shard_id} replica refuses {op!r} "
                "(not promoted)"
            )
        return handler(**args)

    def op_ping(self) -> dict[str, Any]:
        return {
            "shard": self.shard_id,
            "role": self.role,
            "queues": self.broker.queue_names(),
            "recovered_locked": self.recovered_locked,
        }

    def op_heartbeat(self) -> dict[str, Any]:
        """The supervisor's liveness probe.  The ``shard.heartbeat``
        failpoint fires inside the handler, so an armed ``sleep``
        manifests to the supervisor as a socket timeout (a *stalled*
        worker) and an armed ``exit`` as a dead channel — the two
        failure classes the classifier must tell apart."""
        self._fire(SHARD_HEARTBEAT)
        return {
            "shard": self.shard_id,
            "role": self.role,
            "lsn": self.db.wal.last_lsn,
            "applied_seq": self.applied_seq,
        }

    def op_create_queue(
        self,
        name: str,
        keep_history: bool = False,
        default_expiration: float | None = None,
    ) -> bool:
        self.broker.create_queue_or_attach(
            name,
            keep_history=keep_history,
            default_expiration=default_expiration,
        )
        return True

    def op_drop_queue(self, name: str) -> bool:
        self.broker.drop_queue(name)
        return True

    def op_publish_batch(
        self, queue: str, messages: list[dict[str, Any]], principal: str = "internal"
    ) -> list[int]:
        return self.broker.publish_batch(
            queue,
            [wire_to_message(wire) for wire in messages],
            principal=principal,
        )

    def op_consume_batch(
        self, queue: str, max_messages: int, principal: str = "consumer"
    ) -> list[dict[str, Any]]:
        messages = self.broker.consume_batch(
            queue, max_messages, principal=principal
        )
        return [consumed_to_wire(message) for message in messages]

    def op_ack_batch(
        self, queue: str, message_ids: list[int], principal: str = "consumer"
    ) -> int:
        return self.broker.ack_batch(queue, message_ids, principal=principal)

    def op_requeue(
        self,
        queue: str,
        message_id: int,
        delay: float = 0.0,
        principal: str = "consumer",
    ) -> bool:
        self.broker.requeue(queue, message_id, delay=delay, principal=principal)
        return True

    def op_depth(self, queue: str) -> int:
        return self.broker.queue(queue).depth()

    def op_peek(self, queue: str, max_messages: int = 1) -> list[dict[str, Any]]:
        """READY messages in dequeue order, WITHOUT locking — the
        degraded-mode consume: a replica may serve it (stale) while the
        primary is down, because peeking mutates nothing."""
        out = []
        for message in self.broker.queue(queue).browse():
            out.append(consumed_to_wire(message))
            if len(out) >= max_messages:
                break
        return out

    def op_stats(self) -> dict[str, dict[str, int]]:
        return self.broker.stats()

    def op_metrics(self) -> dict[str, Any]:
        return self.db.metrics()

    def op_checkpoint(self, truncate: bool = False) -> int:
        return self.db.checkpoint(truncate=truncate)

    # -- 2PC participant ----------------------------------------------------

    def op_prepare(self, gtid: str, ops: list[dict[str, Any]]) -> bool:
        """Phase 1: validate, journal the intent durably, vote YES.

        Any exception (unknown queue, storage failure) becomes a NO
        vote at the coordinator.  The ``shard.prepared`` failpoint
        fires *after* the vote frame is on the wire (see serve_forever)
        — the canonical voted-yes-then-died crash window."""
        for op in ops:
            self.broker.queue(op["queue"])  # raises QueueNotFoundError
        self.twopc.prepare(gtid, ops)
        return True

    def op_decide(self, gtid: str, decision: str) -> dict[str, Any]:
        """Phase 2.  Returns whether the decision applied here plus the
        rowids each committed enqueue was assigned — the coordinator
        needs those ids to replicate the commit's effects."""
        self._fire(SHARD_DECIDE, gtid=gtid, decision=decision)
        ids: dict[str, list[int]] = {}
        applied = self.twopc.decide(gtid, decision, self._apply_collecting(ids))
        return {"applied": applied, "ids": ids}

    def op_resolve(self, gtid: str, decision: str) -> dict[str, Any]:
        """Recovery-time decision re-send; same idempotent path."""
        ids: dict[str, list[int]] = {}
        applied = self.twopc.decide(gtid, decision, self._apply_collecting(ids))
        return {"applied": applied, "ids": ids}

    def op_list_indoubt(self) -> list[str]:
        return self.twopc.indoubt()

    def op_twopc_state(self, gtid: str) -> str | None:
        return self.twopc.state(gtid)

    def op_twopc_states(self, gtids: list[str]) -> dict[str, str | None]:
        return self.twopc.states(gtids)

    def _apply_collecting(self, ids: dict[str, list[int]]):
        def apply(ops: list[dict[str, Any]], conn: Any) -> None:
            for op in ops:
                rowid = self.broker.queue(op["queue"]).enqueue(
                    wire_to_message(op["message"]), conn=conn
                )
                ids.setdefault(op["queue"], []).append(rowid)

        return apply

    # -- replication (replica side) ----------------------------------------

    def op_replicate(self, entries: list[dict[str, Any]]) -> dict[str, Any]:
        """Apply a batch of shipped log entries in sequence order.

        Entries at or below the local cursor are skipped, which makes a
        re-shipped batch (a timeout whose reply was lost) harmless.
        The ``shard.replicate`` failpoint fires once per batch, before
        anything applies."""
        self._fire(SHARD_REPLICATE, count=len(entries))
        for entry in sorted(entries, key=lambda e: e["seq"]):
            if entry["seq"] <= self.applied_seq:
                continue
            self._apply_entry(entry)
            self.applied_seq = entry["seq"]
        return {"applied_seq": self.applied_seq}

    def _apply_entry(self, entry: dict[str, Any]) -> None:
        kind = entry["kind"]
        if kind == "create_queue":
            self.broker.create_queue_or_attach(
                entry["name"],
                keep_history=entry.get("keep_history", False),
                default_expiration=entry.get("default_expiration"),
            )
        elif kind == "drop_queue":
            self.broker.drop_queue(entry["name"])
            self._idmap.pop(entry["name"].lower(), None)
        elif kind == "publish":
            queue = self.broker.create_queue_or_attach(entry["queue"])
            rowids = queue.enqueue_batch(
                [wire_to_message(wire) for wire in entry["messages"]]
            )
            self._idmap.setdefault(entry["queue"].lower(), {}).update(
                zip(entry.get("ids") or [], rowids)
            )
        elif kind == "ack":
            # By primary id, whatever the state: replica copies are
            # READY (nothing consumes on a replica).  Unmapped ids are
            # skipped: the message was acked on the primary before this
            # replica's snapshot, so it never existed here.
            idmap = self._idmap.get(entry["queue"].lower(), {})
            self.broker.queue(entry["queue"]).force_consume(
                [idmap[primary_id] for primary_id in entry["ids"] if primary_id in idmap]
            )
            for primary_id in entry["ids"]:
                idmap.pop(primary_id, None)
        else:
            raise ReproError(f"shard replica: unknown entry kind {kind!r}")

    def op_export_queues(self) -> dict[str, Any]:
        """Snapshot every queue (configs + pending messages, LOCKED
        included) to seed a replica.  LOCKED messages export as plain
        producer fields, so they import READY — the receiving replica
        would redeliver them on promotion, matching ``recover_locked``
        semantics after a primary restart."""
        queues = []
        for name in self.broker.queue_names():
            queue = self.broker.queue(name)
            queues.append(
                {
                    "name": name,
                    "keep_history": queue.keep_history,
                    "default_expiration": queue.default_expiration,
                    "messages": [
                        exported_to_wire(message)
                        for message in queue.browse(include_locked=True)
                    ],
                }
            )
        return {"queues": queues, "lsn": self.db.wal.last_lsn}

    def op_import_queues(
        self, queues: list[dict[str, Any]], applied_seq: int = 0
    ) -> dict[str, Any]:
        """Replace ALL local queue state with a primary snapshot and
        set the replication cursor to the sequence the snapshot
        reflects.  Replace-all (not merge) keeps reseeding after a
        primary restart trivially convergent."""
        for name in self.broker.queue_names():
            self.broker.drop_queue(name)
        self._idmap.clear()
        imported = 0
        for spec in queues:
            queue = self.broker.create_queue_or_attach(
                spec["name"],
                keep_history=spec.get("keep_history", False),
                default_expiration=spec.get("default_expiration"),
            )
            wires = spec["messages"]
            rowids = queue.enqueue_batch([wire_to_message(wire) for wire in wires])
            self._idmap[spec["name"].lower()] = {
                wire["primary_id"]: rowid
                for wire, rowid in zip(wires, rowids)
                if wire.get("primary_id") is not None
            }
            imported += len(rowids)
        self.applied_seq = int(applied_seq)
        return {"imported": imported, "applied_seq": self.applied_seq}

    def op_promote(self) -> dict[str, Any]:
        """Flip this replica to primary.  The coordinator has already
        caught it up from the replication log; after the flip it
        accepts the full op vocabulary.  The ``shard.promote``
        failpoint is the canonical died-during-promotion window."""
        self._fire(SHARD_PROMOTE)
        self.role = "primary"
        self.db.wal.flush()
        return {
            "shard": self.shard_id,
            "role": self.role,
            "queues": self.broker.queue_names(),
            "applied_seq": self.applied_seq,
        }

    # -- debugging / test hooks --------------------------------------------

    def op_browse_ids(self, queue: str) -> list[int]:
        return [m.message_id for m in self.broker.queue(queue).browse()]

    def op_wal_flush(self) -> bool:
        self.db.wal.flush()
        return True


def serve_forever(sock: socket.socket, config: dict[str, Any]) -> None:
    """The worker main loop: strictly ordered request/reply frames."""
    worker = ShardWorker(config)
    while True:
        frame = recv_frame(sock)
        if frame is None:  # coordinator closed the channel
            break
        op = frame.get("op", "")
        if op == "shutdown":
            worker.db.wal.flush()
            send_frame(sock, {"id": frame.get("id"), "ok": True, "result": True})
            break
        try:
            result = worker.dispatch(op, frame.get("args") or {})
        except Exception as exc:  # every failure surfaces to the caller
            worker.db.obs.record_error("shard.worker", exc)
            send_frame(
                sock,
                {
                    "id": frame.get("id"),
                    "ok": False,
                    "kind": type(exc).__name__,
                    "error": str(exc),
                },
            )
            continue
        send_frame(
            sock,
            {
                "id": frame.get("id"),
                "ok": True,
                "result": result,
                # WAL position after the op — the coordinator tags
                # replication entries with it (LSN-tagged shipping).
                "lsn": worker.db.wal.last_lsn,
            },
        )
        if op == "prepare" and result:
            # Crash window: the YES vote is durable AND on the wire.
            worker._fire(SHARD_PREPARED, gtid=(frame.get("args") or {}).get("gtid"))


def worker_main(sock: socket.socket, config: dict[str, Any]) -> None:
    """Process entry point (target of ``multiprocessing.Process``)."""
    try:
        serve_forever(sock, config)
    except (OSError, EOFError, KeyboardInterrupt):
        pass  # channel torn down — the coordinator owns the verdict
    finally:
        try:
            sock.close()
        except OSError:
            pass
    sys.exit(0)


__all__ = [
    "ShardWorker",
    "worker_main",
    "serve_forever",
    "build_injector",
    "message_to_wire",
]
