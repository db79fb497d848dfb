"""The shard coordinator: worker lifecycle, routing, replication, 2PC.

The coordinator is deliberately thin — it owns no queue state.  It
spawns one **primary** worker process per shard (each a full
:class:`Database` + :class:`QueueBroker` stack over its own WAL file),
routes requests by consistent hash of the queue/topic name, and drives
two-phase commit for the rare cross-shard atomic operation, journaling
decisions in its *own* small engine (``coordinator.wal``) so a crash
between phases is recoverable.

PR 8 adds the availability half (ROADMAP item 1):

* ``replication_factor=K`` spawns K **replica** workers per shard,
  seeded from a primary snapshot and kept close by asynchronous log
  shipping (:mod:`repro.shard.replication`) of committed mutations.
* :meth:`mutate` is the single choke point every state-changing op goes
  through: apply on the primary, record the replication entry tagged
  with the primary's post-op WAL LSN, ship.
* :meth:`promote_replica` turns the freshest replica into the primary
  after catching it up from the shipped log — the coordinator's log,
  not the dead primary's WAL, is what makes failover lossless for
  acknowledged ops.
* While a shard has no live primary, writes can wait in a bounded
  per-shard **spool** (flushed after recovery, in order) or fail fast
  with :class:`ShardUnavailable` — the broker selects per its policy.

Parallelism model: each worker channel is strictly ordered
request/reply, so the coordinator can **pipeline** — send one batched
frame to every involved shard, *then* collect the replies
(:meth:`ShardCoordinator.scatter`).  While it waits, every worker is
executing its batch on its own core; that concurrency, not any change
to the storage layer, is the scale-out mechanism EXP-11 measures.

Thread model: a supervisor may probe and repair the fleet from a
background thread, so every channel-touching entry point takes the
coordinator-wide re-entrant lock — two threads must never interleave
frames on one strictly-ordered channel.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from collections import deque
from typing import Any, Iterable

from repro.db.database import Database
from repro.errors import (
    ShardError,
    ShardUnavailable,
    ShardWorkerDied,
    ShardWorkerError,
)
from repro.shard.hashring import ShardMap, ShardRouter
from repro.shard.protocol import recv_frame, send_frame
from repro.shard.replication import ReplicaState, ShardReplicator
from repro.shard.twopc import ABORTED, COMMITTED, DecisionLog, new_gtid
from repro.shard.worker import worker_main

#: Per-request deadline.  Workers answer small batches in milliseconds;
#: a stuck/dead worker must surface as ShardWorkerDied, not a hang.
DEFAULT_TIMEOUT = 30.0

#: Writes a shard's spool will hold while its primary is being
#: recovered, before the spool itself starts failing fast.
DEFAULT_SPOOL_LIMIT = 512


class WorkerHandle:
    """One worker process plus its coordinator-side channel end."""

    def __init__(
        self,
        shard_id: int,
        config: dict[str, Any],
        *,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.shard_id = shard_id
        self.config = dict(config)
        self.timeout = timeout
        self.role = config.get("role", "primary")
        #: WAL position reported with the worker's most recent reply —
        #: what LSN-tags this worker's replication entries.
        self.last_lsn: int | None = None
        self._next_id = 0
        parent_sock, child_sock = socket.socketpair()
        ctx = multiprocessing.get_context("fork")
        self.process = ctx.Process(
            target=worker_main,
            args=(child_sock, self.config),
            name=f"shard-worker-{shard_id}-{self.role}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()  # the child holds its own copy
        parent_sock.settimeout(timeout)
        self.sock = parent_sock
        self.alive = True

    # -- framed request/reply -----------------------------------------------

    def send(self, op: str, args: dict[str, Any] | None = None) -> int:
        """Ship one request frame; returns its id (for :meth:`recv`).
        Send/recv are split so the coordinator can pipeline across
        workers."""
        if not self.alive:
            raise ShardWorkerDied(
                f"shard {self.shard_id} worker is down", shard=self.shard_id
            )
        self._next_id += 1
        request_id = self._next_id
        try:
            send_frame(self.sock, {"id": request_id, "op": op, "args": args or {}})
        except (OSError, BrokenPipeError) as exc:
            self._mark_dead()
            raise ShardWorkerDied(
                f"shard {self.shard_id} channel send failed: {exc}",
                shard=self.shard_id,
            ) from None
        return request_id

    def recv(self, request_id: int) -> Any:
        """Collect the reply for ``request_id`` (replies arrive in send
        order, so this is a single recv)."""
        try:
            frame = recv_frame(self.sock)
        except socket.timeout:
            self._mark_dead()
            raise ShardWorkerDied(
                f"shard {self.shard_id} timed out after {self.timeout}s",
                shard=self.shard_id,
            ) from None
        except OSError as exc:
            self._mark_dead()
            raise ShardWorkerDied(
                f"shard {self.shard_id} channel failed: {exc}",
                shard=self.shard_id,
            ) from None
        if frame is None:
            self._mark_dead()
            raise ShardWorkerDied(
                f"shard {self.shard_id} worker exited", shard=self.shard_id
            )
        if frame.get("id") != request_id:
            self._mark_dead()
            raise ShardError(
                f"shard {self.shard_id}: reply id {frame.get('id')!r} "
                f"!= expected {request_id}"
            )
        if frame.get("lsn") is not None:
            self.last_lsn = frame["lsn"]
        if not frame.get("ok"):
            raise ShardWorkerError(
                frame.get("error", "shard worker error"),
                kind=frame.get("kind", "ReproError"),
                shard=self.shard_id,
            )
        return frame.get("result")

    def call(
        self,
        op: str,
        args: dict[str, Any] | None = None,
        *,
        timeout: float | None = None,
    ) -> Any:
        """Synchronous convenience: send + recv one request.

        ``timeout`` overrides the channel deadline for THIS request
        only — the supervisor probes with a heartbeat deadline much
        tighter than the 30s op deadline."""
        request_id = self.send(op, args)
        if timeout is None:
            return self.recv(request_id)
        self.sock.settimeout(timeout)
        try:
            return self.recv(request_id)
        finally:
            if self.alive:
                self.sock.settimeout(self.timeout)

    def _mark_dead(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass

    def stop(self, *, graceful: bool = True) -> None:
        if self.alive and graceful:
            try:
                self.call("shutdown")
            except (ShardError, OSError):
                pass
        self._mark_dead()
        if self.process.is_alive():
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()

    def kill(self) -> None:
        """Hard-kill the worker (crash simulation — no shutdown frame,
        no WAL flush beyond what already committed)."""
        self._mark_dead()
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)


class FleetView(dict):
    """Per-shard results of a non-strict fan-out.

    A plain ``dict`` of the shards that answered, plus ``missing`` (the
    shard ids that could not) and ``errors`` (shard id → the exception
    that removed it).  Old callers that iterate the mapping keep
    working; fleet-health callers read the extra fields instead of
    losing the whole view to one dead worker.
    """

    def __init__(self) -> None:
        super().__init__()
        self.missing: list[int] = []
        self.errors: dict[int, Exception] = {}


class ShardCoordinator:
    """Owns the shard map, the worker fleet, replication, and 2PC."""

    def __init__(
        self,
        num_shards: int = 2,
        *,
        data_dir: str | None = None,
        shard_map: ShardMap | None = None,
        sync_policy: str = "commit",
        group_commit_size: int = 64,
        timeout: float = DEFAULT_TIMEOUT,
        worker_faults: dict[int, dict[str, Any]] | None = None,
        replication_factor: int = 0,
        replica_faults: dict[Any, dict[str, Any]] | None = None,
        spool_limit: int = DEFAULT_SPOOL_LIMIT,
        auto_ship: bool = True,
        clock: Any | None = None,
    ) -> None:
        """Args:
        data_dir: directory for per-shard WAL files (``shard-<i>.wal``)
            and the coordinator's decision journal
            (``coordinator.wal``).  ``None`` runs everything in memory
            — fast, recoverable only within the process, right for
            benchmarks.
        worker_faults: per-shard fault specs (see
            :func:`repro.shard.worker.build_injector`) for crash tests.
        replication_factor: replica workers per shard (0 = PR 7
            behaviour).  Replicas are always in-memory — durability is
            the primary WAL's job; replicas exist to serve reads and
            take over.
        replica_faults: fault specs for replica workers — keyed by
            shard id (armed in every replica of that shard) or by
            ``(shard_id, replica_index)`` (one specific replica);
            promotion-crash tests arm the candidate that way.
        spool_limit: writes a shard's spool holds during recovery.
        auto_ship: ship each replication entry as it is recorded
            (default); False lets tests control shipping explicitly.
        clock: optional clock for the coordinator's own engine.
        """
        self.map = shard_map or ShardMap(range(num_shards))
        self.router = ShardRouter(self.map)
        self.data_dir = data_dir
        self.sync_policy = sync_policy
        self.group_commit_size = group_commit_size
        self.timeout = timeout
        self._worker_faults = worker_faults or {}
        self._replica_faults = replica_faults or {}
        self.replication_factor = max(0, int(replication_factor))
        self.spool_limit = spool_limit
        decision_path = None
        if data_dir is not None:
            import os

            os.makedirs(data_dir, exist_ok=True)
            decision_path = os.path.join(data_dir, "coordinator.wal")
        self.engine = Database(path=decision_path, sync_policy=sync_policy,
                               clock=clock)
        self.decisions = DecisionLog(self.engine)
        # One re-entrant lock for every channel-touching operation: the
        # supervisor thread and the caller's thread must never
        # interleave frames on a strictly-ordered channel.
        self._lock = threading.RLock()
        self.replicator = ShardReplicator(self, auto_ship=auto_ship)
        self.replicas: dict[int, list[ReplicaState]] = {}
        #: Committed 2PC ops a dead primary never confirmed applying —
        #: re-applied to whichever worker next owns the shard.
        self._undelivered: dict[int, dict[str, list[dict[str, Any]]]] = {}
        self._spool: dict[int, deque] = {}
        #: shard id → monotonic deadline of the supervisor's next
        #: recovery attempt; the retry-after hint in ShardUnavailable.
        self.retry_hints: dict[int, float] = {}
        self.supervisor: Any | None = None  # attached by ShardSupervisor
        self.workers: dict[int, WorkerHandle] = {}
        for shard_id in self.map.shard_ids:
            self.workers[shard_id] = self._spawn(shard_id)
        # A restarted coordinator over a durable decision journal must
        # finish what it started: resolve anything the fleet still
        # holds in doubt (presumed abort unless journaled committed).
        if decision_path is not None:
            for handle in self.workers.values():
                self._resolve_indoubt(handle)
        for shard_id in self.map.shard_ids:
            self.replicas[shard_id] = [
                self._spawn_replica(shard_id, index)
                for index in range(self.replication_factor)
            ]

    # -- worker lifecycle ---------------------------------------------------

    def _wal_path(self, shard_id: int) -> str | None:
        if self.data_dir is None:
            return None
        import os

        return os.path.join(self.data_dir, f"shard-{shard_id}.wal")

    def _spawn(self, shard_id: int) -> WorkerHandle:
        config = {
            "shard_id": shard_id,
            "role": "primary",
            "wal_path": self._wal_path(shard_id),
            "sync_policy": self.sync_policy,
            "group_commit_size": self.group_commit_size,
            "fault": self._worker_faults.get(shard_id),
        }
        return WorkerHandle(shard_id, config, timeout=self.timeout)

    def _spawn_replica(self, shard_id: int, index: int) -> ReplicaState:
        """Spawn one replica worker and seed it from the primary's
        current snapshot (no-op snapshot if the primary is down — the
        supervisor reseeds after recovery)."""
        config = {
            "shard_id": shard_id,
            "role": "replica",
            "wal_path": None,
            "sync_policy": "none",
            "group_commit_size": 1,
            "fault": self._replica_faults.get(
                (shard_id, index), self._replica_faults.get(shard_id)
            ),
        }
        handle = WorkerHandle(shard_id, config, timeout=self.timeout)
        replica = ReplicaState(handle, tag=f"r{index}")
        try:
            self._seed_replica(shard_id, replica)
        except ShardError:
            pass  # seeded later by the supervisor once a primary lives
        return replica

    def _seed_replica(self, shard_id: int, replica: ReplicaState) -> None:
        """Snapshot the primary into ``replica`` and start its cursor
        at the replication log head (the snapshot reflects every entry
        recorded so far — both happen under the coordinator lock)."""
        with self._lock:
            primary = self.worker(shard_id)
            snapshot = primary.call("export_queues")
            log = self.replicator.log_for(shard_id)
            replica.handle.call(
                "import_queues",
                {"queues": snapshot["queues"], "applied_seq": log.last_seq},
            )
            replica.acked_seq = log.last_seq

    def reseed_replicas(self, shard_id: int) -> int:
        """Re-snapshot every live replica from the current primary —
        required after any primary restart, because a restart may lose
        a group-commit-buffered tail the replicas already applied
        (replicas must never run AHEAD of their primary)."""
        reseeded = 0
        with self._lock:
            for replica in self.replicas.get(shard_id, []):
                if not replica.alive:
                    continue
                try:
                    self._seed_replica(shard_id, replica)
                    reseeded += 1
                except ShardError:
                    self.engine.obs.counter(
                        "shard.replication.replica_failures"
                    ).inc()
        return reseeded

    def worker(self, shard_id: int) -> WorkerHandle:
        try:
            return self.workers[shard_id]
        except KeyError:
            raise ShardError(f"no worker for shard {shard_id}") from None

    def shard_for(self, name: str) -> int:
        return self.router.shard_for(name)

    def primary_alive(self, shard_id: int) -> bool:
        handle = self.workers.get(shard_id)
        return handle is not None and handle.alive

    def live_replica(self, shard_id: int) -> ReplicaState | None:
        """The freshest live replica (promotion candidate / stale-read
        server), or ``None``."""
        best: ReplicaState | None = None
        for replica in self.replicas.get(shard_id, []):
            if replica.alive and (best is None or replica.acked_seq > best.acked_seq):
                best = replica
        return best

    def restart_worker(
        self, shard_id: int, *, fault: dict[str, Any] | None = None,
        graceful: bool = True, preserve_fault: bool = False,
    ) -> dict[str, Any]:
        """Respawn ``shard_id``'s primary over the SAME WAL path (the
        recovery path), then resolve any in-doubt 2PC transactions it
        reports against the decision journal, apply committed 2PC ops
        the dead incarnation never confirmed, flush the write spool,
        and reseed the replicas.  Returns the worker's ping summary
        plus the resolution outcomes.

        ``graceful=True`` asks the old worker to flush and exit (a
        no-op if it already died); ``graceful=False`` hard-kills it,
        losing any group-commit-buffered tail — the crash simulation.
        ``preserve_fault=True`` re-arms the previous fault spec (the
        supervisor's circuit-breaker tests need a worker that keeps
        crashing); the default clears it so a restart is clean.
        """
        with self._lock:
            old = self.workers.get(shard_id)
            if old is not None:
                old.stop(graceful=graceful)
            if fault is not None:
                self._worker_faults[shard_id] = fault
            elif not preserve_fault:
                self._worker_faults.pop(shard_id, None)
            handle = self._spawn(shard_id)
            self.workers[shard_id] = handle
            summary = handle.call("ping")
            summary["resolved"] = self._resolve_indoubt(handle)
            self._deliver_undelivered(shard_id, handle)
            self.engine.obs.counter("shard.restarts", shard=shard_id).inc()
            self.reseed_replicas(shard_id)
            summary["spooled"] = self.flush_spool(shard_id)
            self.retry_hints.pop(shard_id, None)
            return summary

    def _resolve_indoubt(self, handle: WorkerHandle) -> dict[str, str]:
        """Presumed-abort resolution: commit iff the decision journal
        says so; otherwise journal an abort and tell the worker."""
        outcomes: dict[str, str] = {}
        for gtid in handle.call("list_indoubt"):
            decision = self.decisions.decision_for(gtid)
            if decision is None:
                decision = ABORTED
                self.decisions.record(gtid, decision)
            result = handle.call("resolve", {"gtid": gtid, "decision": decision})
            if decision == COMMITTED and result.get("applied"):
                # The in-doubt gtid's ops are no longer pending here.
                self._undelivered.get(handle.shard_id, {}).pop(gtid, None)
            outcomes[gtid] = decision
        return outcomes

    def _deliver_undelivered(self, shard_id: int, handle: WorkerHandle) -> None:
        """Apply committed 2PC enqueues the shard's dead incarnation
        never confirmed.  Only needed when the new worker has no
        participant record of the gtid (an in-memory fleet, or a
        promoted replica) — a durable restart resolves via
        ``_resolve_indoubt`` instead."""
        pending = self._undelivered.pop(shard_id, None)
        if not pending:
            return
        for gtid, ops in sorted(pending.items()):
            state = handle.call("twopc_state", {"gtid": gtid})
            if state == COMMITTED:
                continue  # the WAL preserved the application
            per_queue: dict[str, list[dict[str, Any]]] = {}
            for op in ops:
                per_queue.setdefault(op["queue"], []).append(op["message"])
            for queue, messages in per_queue.items():
                result = handle.call(
                    "publish_batch", {"queue": queue, "messages": messages}
                )
                self.replicator.record_mutation(
                    shard_id,
                    "publish_batch",
                    {"queue": queue, "messages": messages},
                    result,
                    lsn=handle.last_lsn,
                )

    # -- promotion ----------------------------------------------------------

    def promote_replica(self, shard_id: int) -> dict[str, Any]:
        """Make the freshest live replica the shard's primary.

        Sequence: pick the replica with the highest shipped sequence →
        drain the replication log into it synchronously → send
        ``promote`` (the worker flips its role and accepts the full op
        vocabulary) → flip coordinator routing → re-apply committed
        2PC ops the dead primary never confirmed → flush the spool.
        Raises :class:`ShardUnavailable` when no replica can take over.
        """
        with self._lock:
            old = self.workers.get(shard_id)
            if old is not None and old.alive:
                old.kill()  # fencing: never two primaries
            last_error: Exception | None = None
            while True:
                replica = self.live_replica(shard_id)
                if replica is None:
                    raise ShardUnavailable(
                        f"shard {shard_id} has no live replica to promote",
                        shard=shard_id,
                        retry_after=self.retry_hints.get(shard_id),
                    ) from last_error
                try:
                    self.replicator.catch_up(shard_id, replica)
                    summary = replica.handle.call("promote")
                    break
                except ShardError as exc:
                    last_error = exc
                    replica.handle._mark_dead()
            self.replicas[shard_id] = [
                other
                for other in self.replicas.get(shard_id, [])
                if other is not replica
            ]
            replica.handle.role = "primary"
            self.workers[shard_id] = replica.handle
            self.engine.obs.counter("shard.promotions", shard=shard_id).inc()
            self._deliver_undelivered(shard_id, replica.handle)
            summary["spooled"] = self.flush_spool(shard_id)
            self.retry_hints.pop(shard_id, None)
            return summary

    # -- degraded-mode write spool ------------------------------------------

    def spool_write(self, shard_id: int, op: str, args: dict[str, Any]) -> int:
        """Queue a write for replay after the shard recovers.  Bounded:
        a full spool fails fast — unbounded buffering would turn an
        outage into an OOM.  Returns the spool depth."""
        spool = self._spool.setdefault(shard_id, deque())
        if len(spool) >= self.spool_limit:
            raise ShardUnavailable(
                f"shard {shard_id} spool is full ({self.spool_limit})",
                shard=shard_id,
                retry_after=self.retry_hints.get(shard_id),
            )
        spool.append((op, args))
        depth = len(spool)
        self.engine.obs.gauge("shard.spool_depth", shard=shard_id).set(depth)
        return depth

    def flush_spool(self, shard_id: int) -> int:
        """Replay spooled writes, in order, against the shard's current
        primary.  Called under the lock by the recovery paths."""
        spool = self._spool.get(shard_id)
        if not spool:
            return 0
        flushed = 0
        while spool:
            op, args = spool[0]
            self.mutate(shard_id, op, args)
            spool.popleft()
            flushed += 1
        self.engine.obs.gauge("shard.spool_depth", shard=shard_id).set(0)
        return flushed

    def spool_depth(self, shard_id: int) -> int:
        return len(self._spool.get(shard_id, ()))

    # -- routed single-shard ops --------------------------------------------

    def call(self, shard_id: int, op: str, args: dict[str, Any] | None = None) -> Any:
        """A read-only op on the shard's primary (no replication)."""
        with self._lock:
            return self.worker(shard_id).call(op, args)

    def mutate(self, shard_id: int, op: str, args: dict[str, Any]) -> Any:
        """A state-changing op: apply on the primary, then record the
        replication entry tagged with the primary's post-op WAL LSN.
        The single choke point that keeps replicas convergent — every
        writer (broker, spool replay, 2PC redelivery) lands here."""
        with self._lock:
            handle = self.worker(shard_id)
            result = handle.call(op, args)
            self.replicator.record_mutation(
                shard_id, op, args, result, lsn=handle.last_lsn
            )
            return result

    def replica_read(
        self, shard_id: int, op: str, args: dict[str, Any] | None = None
    ) -> tuple[Any, dict[str, Any]]:
        """Serve a read from the freshest live replica, returning
        ``(result, staleness)`` where staleness carries ``stale=True``
        and the lag bound.  Raises :class:`ShardUnavailable` when no
        replica lives either."""
        with self._lock:
            replica = self.live_replica(shard_id)
            if replica is None:
                raise ShardUnavailable(
                    f"shard {shard_id} has no live primary or replica",
                    shard=shard_id,
                    retry_after=self.retry_hints.get(shard_id),
                )
            result = replica.handle.call(op, args)
            lag = self.replicator.lag(shard_id)
            self.engine.obs.counter("shard.stale_reads", shard=shard_id).inc()
            return result, {
                "stale": True,
                "lag_ops": self.replicator.log_for(shard_id).last_seq
                - replica.acked_seq,
                "replica": replica.tag,
                "last_lsn": lag["last_lsn"],
            }

    # -- pipelined fan-out --------------------------------------------------

    def scatter(
        self,
        requests: Iterable[tuple[int, str, dict[str, Any]]],
        *,
        strict: bool = True,
    ) -> dict[int, Any]:
        """Send every ``(shard_id, op, args)`` request, THEN collect the
        replies — all involved workers execute concurrently.

        ``strict=True`` raises the first error after all replies are in
        (no worker is left with an unread reply in its channel);
        ``strict=False`` returns a :class:`FleetView` carrying partial
        results plus the shards that failed."""
        with self._lock:
            pending: list[tuple[int, int]] = []
            results = FleetView()
            for shard_id, op, args in requests:
                try:
                    handle = self.worker(shard_id)
                    pending.append((shard_id, handle.send(op, args)))
                except (ShardError, ShardWorkerDied) as exc:
                    results.missing.append(shard_id)
                    results.errors[shard_id] = exc
            first_error: Exception | None = None
            for shard_id, request_id in pending:
                try:
                    results[shard_id] = self.worker(shard_id).recv(request_id)
                except (ShardWorkerError, ShardWorkerDied) as exc:
                    results.missing.append(shard_id)
                    results.errors[shard_id] = exc
                    if first_error is None:
                        first_error = exc
            if strict and results.errors:
                raise next(iter(results.errors.values()))
            return results

    def broadcast(
        self,
        op: str,
        args: dict[str, Any] | None = None,
        *,
        strict: bool = False,
    ) -> FleetView:
        """``scatter`` the same request to every shard.  Non-strict by
        default: dead shards land in the view's ``missing`` field
        instead of losing the whole fleet view.  Shards whose worker is
        already marked down are reported missing without a send."""
        with self._lock:
            view = self.scatter(
                (
                    (shard_id, op, args or {})
                    for shard_id, handle in self.workers.items()
                    if handle.alive
                ),
                strict=strict,
            )
            for shard_id, handle in self.workers.items():
                if not handle.alive and shard_id not in view.missing:
                    view.missing.append(shard_id)
                    view.errors[shard_id] = ShardWorkerDied(
                        f"shard {shard_id} worker is down", shard=shard_id
                    )
            view.missing.sort()
            if strict and view.missing:
                raise view.errors[view.missing[0]]
            return view

    # -- two-phase commit ---------------------------------------------------

    def two_phase_publish(
        self, ops_by_shard: dict[int, list[dict[str, Any]]]
    ) -> str:
        """Atomically apply enqueue ops spanning multiple shards.

        Phase 1 scatters ``prepare`` (each worker journals its intent
        and votes).  All-yes → the decision journal records COMMITTED
        (the commit point) → phase 2 scatters the decision.  Any no-vote
        or dead worker during phase 1 → ABORTED.  Phase 2 errors are
        tolerated: the decision is journaled, so a worker that missed it
        resolves on restart (:meth:`restart_worker`) — and the ops park
        in ``_undelivered`` so a *promotion* (which installs a worker
        with no participant record) can still apply them.
        """
        with self._lock:
            gtid = new_gtid()
            votes_ok = True
            try:
                self.scatter(
                    (shard_id, "prepare", {"gtid": gtid, "ops": ops})
                    for shard_id, ops in ops_by_shard.items()
                )
            except (ShardWorkerError, ShardWorkerDied):
                votes_ok = False
            decision = COMMITTED if votes_ok else ABORTED
            # THE commit point (with the participant set, for compaction).
            self.decisions.record(
                gtid, decision, participants=list(ops_by_shard)
            )
            for shard_id, ops in ops_by_shard.items():
                handle = self.workers.get(shard_id)
                if handle is None or not handle.alive:
                    if decision == COMMITTED:
                        self._undelivered.setdefault(shard_id, {})[gtid] = ops
                    continue  # resolved at restart via the decision journal
                try:
                    result = handle.call(
                        "decide", {"gtid": gtid, "decision": decision}
                    )
                except (ShardWorkerError, ShardWorkerDied):
                    if decision == COMMITTED:
                        self._undelivered.setdefault(shard_id, {})[gtid] = ops
                    continue
                if decision == COMMITTED and result.get("applied"):
                    self.replicator.record_applied(
                        shard_id, ops, result.get("ids") or {},
                        lsn=handle.last_lsn,
                    )
            if not votes_ok:
                raise ShardError(f"cross-shard transaction {gtid} aborted")
            return gtid

    def compact_decisions(self) -> int:
        """Reclaim decision-journal rows every participant has durably
        resolved (satellite fix: the journal previously grew without
        bound).  A gtid is reclaimable when each of its recorded
        participants reports it ``committed``/``aborted`` — i.e. no
        shard can ever again ask about it.  Decisions whose participant
        set is unknown (legacy rows) or whose participants include a
        currently-dead shard are kept."""
        with self._lock:
            by_shard: dict[int, list[str]] = {}
            candidates: dict[str, list[int]] = {}
            for row in self.decisions.rows():
                if not row["participants"]:
                    continue
                candidates[row["gtid"]] = row["participants"]
                for shard_id in row["participants"]:
                    by_shard.setdefault(shard_id, []).append(row["gtid"])
            if not candidates:
                return 0
            states = self.scatter(
                (
                    (shard_id, "twopc_states", {"gtids": gtids})
                    for shard_id, gtids in by_shard.items()
                    if self.primary_alive(shard_id)
                ),
                strict=False,
            )
            resolved = {
                gtid
                for gtid, participants in candidates.items()
                if all(
                    shard_id in states
                    and states[shard_id].get(gtid) in (COMMITTED, ABORTED)
                    for shard_id in participants
                )
            }
            return self.decisions.compact(resolved)

    # -- metrics / lifecycle ------------------------------------------------

    def metrics_by_shard(self) -> FleetView:
        """Every live worker's metrics snapshot, keyed by shard id;
        dead shards are listed in the view's ``missing`` field."""
        return self.broadcast("metrics")

    def metrics(self) -> dict[str, Any]:
        """Fleet-wide metrics: every worker's snapshot folded into one
        (per-shard counters/gauges retained under ``shard=<id>`` keys),
        plus the coordinator engine's own snapshot."""
        from repro.obs.metrics import merge_snapshots

        per_shard: dict[Any, Any] = dict(self.metrics_by_shard())
        per_shard["coordinator"] = self.engine.metrics()
        return merge_snapshots(per_shard, label_name="shard")

    def fleet_state(self) -> dict[int, dict[str, Any]]:
        """Per-shard fleet health: primary liveness, replica lag, spool
        depth — the coordinator-owned half of ``stats --shards``."""
        with self._lock:
            state: dict[int, dict[str, Any]] = {}
            for shard_id in self.map.shard_ids:
                replicas = self.replicas.get(shard_id, [])
                state[shard_id] = {
                    "primary_alive": self.primary_alive(shard_id),
                    "replicas": len(replicas),
                    "replicas_alive": sum(1 for r in replicas if r.alive),
                    "replication": self.replicator.lag(shard_id),
                    "spool_depth": self.spool_depth(shard_id),
                    "undelivered_gtids": len(self._undelivered.get(shard_id, {})),
                }
            return state

    def stop(self) -> None:
        from repro.obs.metrics import absorb_snapshot

        if self.supervisor is not None:
            try:
                self.supervisor.stop_thread()
            except Exception:
                pass
        with self._lock:
            for handle in self.workers.values():
                if handle.alive:
                    try:
                        absorb_snapshot(handle.call("metrics"))
                    except ShardError:
                        pass
            for handle in self.workers.values():
                handle.stop()
            for replicas in self.replicas.values():
                for replica in replicas:
                    replica.handle.stop()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
