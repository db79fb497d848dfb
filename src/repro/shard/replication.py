"""Primary→replica log shipping for the shard fleet.

Each shard's primary remains the single writer; the coordinator keeps a
per-shard **replication log** of the mutations it successfully applied
there (tagged with the sequence number the coordinator assigns and the
primary's WAL LSN after the op), and ships the log asynchronously to
that shard's replica workers over the ordinary frame protocol.  The
client's op is acknowledged by the primary alone — replication never
sits on the publish path — so a replica is always *possibly stale*,
and the lag (in ops and LSNs) is observable per shard.

Three properties make this safe to run under the supervisor:

* **Entries are logical, idempotent units.**  A replica applies
  ``publish``/``ack``/``create_queue``/``drop_queue`` entries in
  sequence order and remembers the highest sequence applied, so a
  re-shipped batch (after a timeout whose reply was lost) is skipped,
  not re-applied.
* **Id translation.**  Publish entries carry the primary's assigned
  message ids; the replica maps them to its own rowids so a later
  ``ack`` (shipped by primary id) lands on the right replica row even
  if the two engines assigned different ids.
* **Trim follows the slowest live replica.**  The log retains exactly
  the entries some live replica still needs.  Dead replicas are
  respawned from a primary *snapshot* (export/import), entering at the
  log head, so their backlog is never needed and never pins memory.

Promotion (see :mod:`repro.shard.supervisor`) ships the chosen
replica's remaining entries synchronously before routing flips — the
coordinator's log, not the dead primary's WAL, is what makes failover
lossless for every op the coordinator acknowledged.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.errors import ShardError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.shard.coordinator import ShardCoordinator, WorkerHandle


class ReplicaState:
    """One replica worker plus its coordinator-side shipping cursor."""

    __slots__ = ("handle", "acked_seq", "tag")

    def __init__(self, handle: "WorkerHandle", *, acked_seq: int = 0,
                 tag: str = "") -> None:
        self.handle = handle
        self.acked_seq = acked_seq
        self.tag = tag

    @property
    def alive(self) -> bool:
        return self.handle.alive


class ReplicationLog:
    """One shard's retained tail of LSN-tagged mutation entries."""

    def __init__(self) -> None:
        self._entries: deque[dict[str, Any]] = deque()
        self.last_seq = 0
        self.last_lsn: int | None = None

    def append(self, entry: dict[str, Any], *, lsn: int | None) -> int:
        self.last_seq += 1
        entry = dict(entry)
        entry["seq"] = self.last_seq
        entry["lsn"] = lsn
        self.last_lsn = lsn
        self._entries.append(entry)
        return self.last_seq

    def pending_after(self, seq: int) -> list[dict[str, Any]]:
        return [entry for entry in self._entries if entry["seq"] > seq]

    def trim_through(self, seq: int) -> int:
        """Drop entries with sequence ≤ ``seq``; returns how many."""
        dropped = 0
        while self._entries and self._entries[0]["seq"] <= seq:
            self._entries.popleft()
            dropped += 1
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


#: Ops the coordinator mirrors to replicas, and how each maps to a
#: replication entry kind.  Reads and ``consume``/``requeue`` are
#: deliberately absent: a replica never sees lock state (a promoted
#: replica re-serves unacked messages, exactly like a restarted
#: primary's ``recover_locked``).
_MUTATION_KINDS = frozenset(
    {"publish_batch", "ack_batch", "create_queue", "drop_queue"}
)


class ShardReplicator:
    """Records committed primary mutations and ships them to replicas."""

    def __init__(self, coordinator: "ShardCoordinator", *,
                 auto_ship: bool = True) -> None:
        self.coordinator = coordinator
        #: When True (default) every recorded mutation is shipped in the
        #: same call — lag stays ~0 but shipping cost rides the caller.
        #: Tests and batch loads set False and pump :meth:`ship`.
        self.auto_ship = auto_ship
        self.logs: dict[int, ReplicationLog] = {}
        obs = coordinator.engine.obs
        self._m_recorded = obs.counter("shard.replication.recorded")
        self._m_shipped = obs.counter("shard.replication.shipped")
        self._m_failures = obs.counter("shard.replication.replica_failures")

    def log_for(self, shard_id: int) -> ReplicationLog:
        log = self.logs.get(shard_id)
        if log is None:
            log = self.logs[shard_id] = ReplicationLog()
        return log

    # -- recording ----------------------------------------------------------

    def record_mutation(
        self,
        shard_id: int,
        op: str,
        args: dict[str, Any],
        result: Any,
        *,
        lsn: int | None,
    ) -> None:
        """Append the replication entry for a primary op that just
        succeeded (no-op for reads and for shards with no replicas)."""
        if op not in _MUTATION_KINDS:
            return
        if not self.coordinator.replicas.get(shard_id):
            return
        if op == "publish_batch":
            entry = {
                "kind": "publish",
                "queue": args["queue"],
                "messages": args["messages"],
                "ids": result,
            }
        elif op == "ack_batch":
            entry = {"kind": "ack", "queue": args["queue"],
                     "ids": list(args["message_ids"])}
        elif op == "create_queue":
            entry = {
                "kind": "create_queue",
                "name": args["name"],
                "keep_history": args.get("keep_history", False),
                "default_expiration": args.get("default_expiration"),
            }
        else:  # drop_queue
            entry = {"kind": "drop_queue", "name": args["name"]}
        self._append(shard_id, entry, lsn)

    def record_applied(
        self,
        shard_id: int,
        ops: list[dict[str, Any]],
        ids_by_queue: dict[str, list[int]],
        *,
        lsn: int | None,
    ) -> None:
        """Record the enqueue effects of a committed 2PC decision
        (``ops`` as prepared, ``ids_by_queue`` as the worker applied
        them) so replicas converge with the primary's 2PC commits."""
        if not self.coordinator.replicas.get(shard_id):
            return
        per_queue: dict[str, list[dict[str, Any]]] = {}
        for op in ops:
            per_queue.setdefault(op["queue"], []).append(op["message"])
        for queue, messages in per_queue.items():
            self._append(
                shard_id,
                {
                    "kind": "publish",
                    "queue": queue,
                    "messages": messages,
                    "ids": ids_by_queue.get(queue),
                },
                lsn,
            )

    def _append(self, shard_id: int, entry: dict[str, Any],
                lsn: int | None) -> None:
        self.log_for(shard_id).append(entry, lsn=lsn)
        self._m_recorded.inc()
        if self.auto_ship:
            self.ship(shard_id)

    # -- shipping -----------------------------------------------------------

    def ship(self, shard_id: int) -> int:
        """Ship pending entries to every live replica of ``shard_id``.

        Replica failures are absorbed (the replica is marked dead for
        the supervisor to respawn) — shipping must never fail the
        client op it piggybacks on.  Returns entries delivered to the
        slowest replica that made progress.
        """
        log = self.logs.get(shard_id)
        replicas = self.coordinator.replicas.get(shard_id, [])
        if log is None or not replicas:
            return 0
        delivered = 0
        for replica in replicas:
            if not replica.alive:
                continue
            pending = log.pending_after(replica.acked_seq)
            if not pending:
                continue
            try:
                result = replica.handle.call("replicate", {"entries": pending})
            except ShardError:
                self._m_failures.inc()
                continue
            replica.acked_seq = int(result["applied_seq"])
            delivered = max(delivered, len(pending))
            self._m_shipped.inc(len(pending))
        self._trim(shard_id)
        self._publish_lag_gauge(shard_id)
        return delivered

    def catch_up(self, shard_id: int, replica: ReplicaState) -> int:
        """Synchronously drain the log into one replica (the promotion
        prelude).  Raises on failure — a replica that cannot catch up
        must not be promoted."""
        log = self.log_for(shard_id)
        pending = log.pending_after(replica.acked_seq)
        if pending:
            result = replica.handle.call("replicate", {"entries": pending})
            replica.acked_seq = int(result["applied_seq"])
            self._m_shipped.inc(len(pending))
        if replica.acked_seq < log.last_seq:
            raise ShardError(
                f"shard {shard_id} replica caught up only to seq "
                f"{replica.acked_seq} of {log.last_seq}"
            )
        return len(pending)

    def _trim(self, shard_id: int) -> None:
        log = self.logs.get(shard_id)
        if log is None:
            return
        live = [
            replica.acked_seq
            for replica in self.coordinator.replicas.get(shard_id, [])
            if replica.alive
        ]
        # No live replica: any future replica is snapshot-seeded at the
        # head, so the whole tail is dead weight.
        log.trim_through(min(live) if live else log.last_seq)

    # -- observability ------------------------------------------------------

    def lag(self, shard_id: int) -> dict[str, Any]:
        """The shard's replication lag: ops behind (slowest live
        replica) plus the log head in (seq, lsn) terms."""
        log = self.logs.get(shard_id)
        replicas = [
            replica
            for replica in self.coordinator.replicas.get(shard_id, [])
            if replica.alive
        ]
        last_seq = log.last_seq if log is not None else 0
        min_acked = min(
            (replica.acked_seq for replica in replicas), default=None
        )
        return {
            "last_seq": last_seq,
            "last_lsn": log.last_lsn if log is not None else None,
            "min_acked_seq": min_acked,
            "lag_ops": (last_seq - min_acked) if min_acked is not None else None,
            "live_replicas": len(replicas),
        }

    def _publish_lag_gauge(self, shard_id: int) -> None:
        lag = self.lag(shard_id)
        self.coordinator.engine.obs.gauge(
            "shard.replica_lag", shard=shard_id
        ).set(lag["lag_ops"] if lag["lag_ops"] is not None else -1)


__all__ = ["ReplicaState", "ReplicationLog", "ShardReplicator"]
