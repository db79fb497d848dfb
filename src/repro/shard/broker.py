"""A sharded facade over the queue broker API.

:class:`ShardedQueueBroker` presents the single-process broker surface
while executing against a
:class:`~repro.shard.coordinator.ShardCoordinator`'s worker fleet.  A
queue lives *entirely* on the shard its name hashes to, so every
single-queue operation is one local transaction on one worker — the
paper's queue semantics are untouched; only placement changed.  The one
genuinely distributed operation, :meth:`ShardedQueueBroker.publish_atomic`
across queues on different shards, runs the 2PC protocol.  Sharded
pub/sub is :class:`~repro.pubsub.broker.PubSubBroker` over a
:class:`ShardedQueueBroker`: each durable-subscription spool lands on
the shard its name hashes to.

Error fidelity: worker-side exceptions come back over the wire as
``(kind, message)``; the facade re-raises the matching
:class:`~repro.errors.ReproError` subclass so callers catch exactly
what the local brokers would have raised.
"""

from __future__ import annotations

from typing import Any

from repro import errors as errors_module
from repro.errors import (
    ReproError,
    ShardError,
    ShardUnavailable,
    ShardWorkerDied,
    ShardWorkerError,
)
from repro.queues.message import Message
from repro.shard.coordinator import ShardCoordinator
from repro.shard.protocol import message_to_wire, wire_to_consumed
from repro.shard.twopc import new_gtid  # noqa: F401  (re-export convenience)


def _reraise(exc: ShardWorkerError) -> None:
    """Map a worker-reported error back to its local exception class
    (falls through to the ShardWorkerError itself for unknown kinds)."""
    cls = getattr(errors_module, exc.kind, None)
    if (
        isinstance(cls, type)
        and issubclass(cls, ReproError)
        and cls not in (ShardWorkerError,)
    ):
        try:
            raise cls(str(exc)) from None
        except TypeError:  # subclass with a custom constructor
            pass
    raise exc


#: Ops that change shard state and therefore must route through
#: :meth:`ShardCoordinator.mutate` (which records replication entries).
#: ``consume_batch``/``requeue`` mutate lock state only — they ride the
#: same path but the replicator deliberately skips them.
_MUTATING_OPS = frozenset(
    {
        "create_queue",
        "drop_queue",
        "publish_batch",
        "ack_batch",
        "requeue",
        "consume_batch",
    }
)

#: Writes the spool policy may buffer during an outage.  Acks and
#: consumes are NOT spoolable: they reference locks that died with the
#: primary, so replaying them later could only fail.
_SPOOLABLE_OPS = frozenset({"publish_batch", "create_queue", "drop_queue"})


class ShardedQueueBroker:
    """The :class:`~repro.queues.broker.QueueBroker` API, shard-routed.

    Degradation policy (per instance, caller-selectable):

    * ``read_policy="primary"`` (default) — reads require the primary;
      an outage raises :class:`ShardUnavailable`.
      ``read_policy="replica_ok"`` — while the primary is down, reads
      (``depth``/``stats``/``peek``) are served by the freshest replica
      and tagged ``stale=True`` with the lag bound.
    * ``write_policy="fail"`` (default) — writes to a downed shard
      raise :class:`ShardUnavailable` carrying the supervisor's
      retry-after hint.  ``write_policy="spool"`` — spoolable writes
      wait in the coordinator's bounded per-shard spool and replay, in
      order, when the shard recovers (publishes return ``-1``
      placeholder ids; delivery is at-least-once across the outage).
    """

    def __init__(
        self,
        coordinator: ShardCoordinator,
        *,
        read_policy: str = "primary",
        write_policy: str = "fail",
    ) -> None:
        if read_policy not in ("primary", "replica_ok"):
            raise ValueError(f"unknown read_policy {read_policy!r}")
        if write_policy not in ("fail", "spool"):
            raise ValueError(f"unknown write_policy {write_policy!r}")
        self.coordinator = coordinator
        self.router = coordinator.router
        self.read_policy = read_policy
        self.write_policy = write_policy
        #: Staleness tag of the most recent degraded read (``None``
        #: after a primary-served one) — the out-of-band channel for
        #: APIs whose return shape has no room for a tag.
        self.last_read_info: dict[str, Any] | None = None

    def _call(self, queue_name: str, op: str, args: dict[str, Any]) -> Any:
        shard_id = self.router.shard_for(queue_name)
        try:
            if op in _MUTATING_OPS:
                result = self.coordinator.mutate(shard_id, op, args)
            else:
                result = self.coordinator.call(shard_id, op, args)
            self.last_read_info = None
            return result
        except ShardWorkerError as exc:
            _reraise(exc)
        except ShardWorkerDied as exc:
            return self._degraded(shard_id, op, args, exc)

    def _degraded(
        self, shard_id: int, op: str, args: dict[str, Any],
        cause: ShardWorkerDied,
    ) -> Any:
        """Apply the degradation policy after the primary failed an op."""
        retry_after = self.coordinator.retry_hints.get(shard_id)
        if op in _MUTATING_OPS:
            if (
                self.write_policy == "spool"
                and op in _SPOOLABLE_OPS
            ):
                self.coordinator.spool_write(shard_id, op, args)
                if op == "publish_batch":
                    # Real ids exist only once the spool replays; the
                    # placeholder keeps the return shape.
                    return [-1] * len(args["messages"])
                return True
            raise ShardUnavailable(
                f"shard {shard_id} has no live primary for {op!r}",
                shard=shard_id,
                retry_after=retry_after,
            ) from cause
        if self.read_policy == "replica_ok":
            try:
                result, info = self.coordinator.replica_read(shard_id, op, args)
            except ShardWorkerDied as exc:
                raise ShardUnavailable(
                    f"shard {shard_id} has no live primary or replica",
                    shard=shard_id,
                    retry_after=retry_after,
                ) from exc
            self.last_read_info = info
            return result
        raise ShardUnavailable(
            f"shard {shard_id} has no live primary for {op!r} "
            "(read_policy='primary')",
            shard=shard_id,
            retry_after=retry_after,
        ) from cause

    # -- queue lifecycle ----------------------------------------------------

    def create_queue(
        self,
        name: str,
        *,
        keep_history: bool = False,
        default_expiration: float | None = None,
    ) -> int:
        """Create ``name`` on its owning shard; returns the shard id."""
        self._call(
            name,
            "create_queue",
            {
                "name": name,
                "keep_history": keep_history,
                "default_expiration": default_expiration,
            },
        )
        return self.router.shard_for(name)

    def create_queue_or_attach(self, name: str, **options: Any) -> int:
        """:meth:`create_queue`, which is already idempotent: the owning
        worker attaches to a queue that exists."""
        return self.create_queue(name, **options)

    def drop_queue(self, name: str) -> None:
        self._call(name, "drop_queue", {"name": name})

    def shard_for(self, name: str) -> int:
        return self.router.shard_for(name)

    # -- publish ------------------------------------------------------------

    def publish(
        self, queue_name: str, message: Message, *, principal: str = "internal"
    ) -> int:
        return self.publish_batch(queue_name, [message], principal=principal)[0]

    def publish_batch(
        self,
        queue_name: str,
        messages: list[Message],
        *,
        principal: str = "internal",
    ) -> list[int]:
        """One frame, one worker transaction — the batched fast path."""
        return self._call(
            queue_name,
            "publish_batch",
            {
                "queue": queue_name,
                "messages": [message_to_wire(m) for m in messages],
                "principal": principal,
            },
        )

    def publish_many(
        self,
        entries: list[tuple[str, Message]],
        *,
        principal: str = "internal",
    ) -> list[int]:
        """Publish ``(queue, message)`` pairs spanning any number of
        shards — grouped per shard, shipped as one pipelined scatter (no
        atomicity across shards; use :meth:`publish_atomic` for that).
        Returned ids align with the input order.
        """
        grouped: dict[tuple[int, str], list[tuple[int, Message]]] = {}
        for index, (queue_name, message) in enumerate(entries):
            key = (self.router.shard_for(queue_name), queue_name.lower())
            grouped.setdefault(key, []).append((index, message))
        # One frame per (shard, queue) group — all sent before any reply
        # is read, so every involved worker runs its batches concurrently.
        # The whole pipelined exchange holds the coordinator lock: a
        # supervisor probe interleaving frames on a strictly-ordered
        # channel would corrupt the request/reply pairing.
        with self.coordinator._lock:
            pending: list[tuple[int, int, list[int], dict[str, Any]]] = []
            for (shard_id, queue_name), pairs in grouped.items():
                args = {
                    "queue": queue_name,
                    "messages": [message_to_wire(m) for _, m in pairs],
                    "principal": principal,
                }
                request_id = self.coordinator.worker(shard_id).send(
                    "publish_batch", args
                )
                pending.append(
                    (shard_id, request_id, [index for index, _ in pairs], args)
                )
            results: list[int | None] = [None] * len(entries)
            first_error: Exception | None = None
            for shard_id, request_id, indexes, args in pending:
                try:
                    handle = self.coordinator.worker(shard_id)
                    ids = handle.recv(request_id)
                except ShardError as exc:
                    if first_error is None:
                        first_error = exc
                    continue
                self.coordinator.replicator.record_mutation(
                    shard_id, "publish_batch", args, ids, lsn=handle.last_lsn
                )
                for index, message_id in zip(indexes, ids):
                    results[index] = message_id
            if first_error is not None:
                if isinstance(first_error, ShardWorkerError):
                    _reraise(first_error)
                raise first_error
            return results  # type: ignore[return-value]

    def publish_atomic(
        self, entries: list[tuple[str, Message]], *, principal: str = "internal"
    ) -> str | None:
        """Atomically enqueue across queues.  Single-shard groups take
        the ordinary one-transaction path (returns ``None``); spanning
        shards runs 2PC and returns the gtid."""
        ops_by_shard: dict[int, list[dict[str, Any]]] = {}
        for queue_name, message in entries:
            ops_by_shard.setdefault(self.router.shard_for(queue_name), []).append(
                {"queue": queue_name.lower(), "message": message_to_wire(message)}
            )
        if len(ops_by_shard) == 1:
            ((shard_id, ops),) = ops_by_shard.items()
            # All on one shard: local transactionality suffices, but a
            # multi-queue batch still needs single-frame atomicity — the
            # 2PC participant path degenerates to exactly that, so reuse
            # it (prepare+decide on one worker, no decision journal round).
            gtid = new_gtid()
            with self.coordinator._lock:
                handle = self.coordinator.worker(shard_id)
                try:
                    handle.call("prepare", {"gtid": gtid, "ops": ops})
                    decided = handle.call(
                        "decide", {"gtid": gtid, "decision": "committed"}
                    )
                except ShardWorkerError as exc:
                    _reraise(exc)
                if decided.get("applied"):
                    self.coordinator.replicator.record_applied(
                        shard_id, ops, decided.get("ids") or {},
                        lsn=handle.last_lsn,
                    )
            return None
        return self.coordinator.two_phase_publish(ops_by_shard)

    # -- consume / ack ------------------------------------------------------

    def consume(
        self, queue_name: str, *, principal: str = "consumer"
    ) -> Message | None:
        messages = self.consume_batch(queue_name, 1, principal=principal)
        return messages[0] if messages else None

    def consume_batch(
        self, queue_name: str, max_messages: int, *, principal: str = "consumer"
    ) -> list[Message]:
        wires = self._call(
            queue_name,
            "consume_batch",
            {
                "queue": queue_name,
                "max_messages": max_messages,
                "principal": principal,
            },
        )
        return [wire_to_consumed(wire) for wire in wires]

    def ack_batch(
        self,
        queue_name: str,
        message_ids: list[int],
        *,
        principal: str = "consumer",
    ) -> int:
        return self._call(
            queue_name,
            "ack_batch",
            {
                "queue": queue_name,
                "message_ids": list(message_ids),
                "principal": principal,
            },
        )

    def ack(
        self, queue_name: str, message_id: int, *, principal: str = "consumer"
    ) -> None:
        self.ack_batch(queue_name, [message_id], principal=principal)

    def requeue(
        self,
        queue_name: str,
        message_id: int,
        *,
        delay: float = 0.0,
        principal: str = "consumer",
    ) -> None:
        self._call(
            queue_name,
            "requeue",
            {
                "queue": queue_name,
                "message_id": message_id,
                "delay": delay,
                "principal": principal,
            },
        )

    # -- introspection ------------------------------------------------------

    def depth(self, queue_name: str) -> int:
        return self._call(queue_name, "depth", {"queue": queue_name})

    def depth_info(self, queue_name: str) -> dict[str, Any]:
        """``depth`` with its staleness contract made explicit:
        ``{"depth", "stale", "lag_ops", "source"}`` — ``stale=True``
        only when a replica served it under ``read_policy="replica_ok"``."""
        depth = self._call(queue_name, "depth", {"queue": queue_name})
        info = self.last_read_info
        return {
            "depth": depth,
            "stale": bool(info and info.get("stale")),
            "lag_ops": info.get("lag_ops") if info else 0,
            "source": f"replica:{info['replica']}" if info else "primary",
        }

    def peek(
        self, queue_name: str, max_messages: int = 1
    ) -> dict[str, Any]:
        """READY messages in dequeue order WITHOUT locking them — the
        degraded-mode consume.  Returns ``{"messages", "stale",
        "lag_ops", "source"}``; a replica may serve it (peeking mutates
        nothing), unlike :meth:`consume_batch`."""
        wires = self._call(
            queue_name, "peek",
            {"queue": queue_name, "max_messages": max_messages},
        )
        info = self.last_read_info
        return {
            "messages": [wire_to_consumed(wire) for wire in wires],
            "stale": bool(info and info.get("stale")),
            "lag_ops": info.get("lag_ops") if info else 0,
            "source": f"replica:{info['replica']}" if info else "primary",
        }

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-queue stats merged across every shard.  Shards with no
        live primary fall back to their freshest replica when
        ``read_policy="replica_ok"``; shards with neither are simply
        absent (see :meth:`stats_info` for the tagged view)."""
        return self.stats_info()["queues"]

    def stats_info(self) -> dict[str, Any]:
        """Fleet stats with the availability picture attached:
        ``queues`` (merged per-queue stats), ``stale_shards`` (served
        by a replica, with lag), ``missing`` (no primary or replica)."""
        view = self.coordinator.broadcast("stats")
        merged: dict[str, dict[str, int]] = {}
        for shard_stats in view.values():
            merged.update(shard_stats)
        stale_shards: dict[int, dict[str, Any]] = {}
        missing: list[int] = []
        for shard_id in view.missing:
            if self.read_policy == "replica_ok":
                try:
                    shard_stats, info = self.coordinator.replica_read(
                        shard_id, "stats", {}
                    )
                except ShardError:
                    missing.append(shard_id)
                    continue
                merged.update(shard_stats)
                stale_shards[shard_id] = info
            else:
                missing.append(shard_id)
        return {
            "queues": merged,
            "stale_shards": stale_shards,
            "missing": missing,
        }

    def metrics_by_shard(self) -> dict[int, dict[str, Any]]:
        return self.coordinator.metrics_by_shard()
