"""Sharded multi-process scale-out for the broker/queue layer.

Layering (bottom-up):

* :mod:`repro.shard.hashring` — consistent-hash shard map + router.
* :mod:`repro.shard.protocol` — length-prefixed frames and the
  message wire forms.
* :mod:`repro.shard.twopc` — durable participant/decision logs for
  cross-shard atomic operations.
* :mod:`repro.shard.worker` — the per-shard process: a full
  :class:`~repro.db.database.Database` + broker stack behind a framed
  channel.
* :mod:`repro.shard.coordinator` — worker lifecycle, pipelined
  scatter, 2PC driving, crash recovery, replication recording, the
  degraded-mode write spool, and replica promotion.
* :mod:`repro.shard.replication` — the per-shard replication log and
  primary→replica log shipping.
* :mod:`repro.shard.supervisor` — heartbeat probing, failure
  classification, backed-off restarts, circuit breaking, promotion.
* :mod:`repro.shard.broker` — :class:`ShardedQueueBroker`, the
  single-process queue broker API routed over the fleet, with
  caller-selectable degradation policies.  Sharded pub/sub is
  :class:`~repro.pubsub.broker.PubSubBroker` over a
  :class:`ShardedQueueBroker`.
"""

from repro.shard.broker import ShardedQueueBroker
from repro.shard.coordinator import FleetView, ShardCoordinator, WorkerHandle
from repro.shard.hashring import ShardMap, ShardRouter, stable_hash
from repro.shard.replication import ReplicaState, ReplicationLog, ShardReplicator
from repro.shard.supervisor import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    ShardHealth,
    ShardSupervisor,
)
from repro.shard.twopc import (
    ABORTED,
    COMMITTED,
    PREPARED,
    DecisionLog,
    ParticipantLog,
    new_gtid,
)

__all__ = [
    "ShardMap",
    "ShardRouter",
    "stable_hash",
    "ShardCoordinator",
    "WorkerHandle",
    "FleetView",
    "ShardedQueueBroker",
    "ShardSupervisor",
    "ShardHealth",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "ShardReplicator",
    "ReplicationLog",
    "ReplicaState",
    "ParticipantLog",
    "DecisionLog",
    "new_gtid",
    "PREPARED",
    "COMMITTED",
    "ABORTED",
]
