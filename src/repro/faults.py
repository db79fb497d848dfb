"""Deterministic fault injection for the storage/WAL/queue/delivery path.

The operational triad the paper claims for database-backed event
processing — recoverability, availability, transactional support
(§2.2.b.ii.3) — is only demonstrated when the guarantees hold under
*injected* failure histories, not just clean crash boundaries.  This
module provides the harness: named **failpoints** threaded through the
pipeline, armed per-test with a trigger **policy** and an **action**.

Failpoint catalog (the names production code fires):

======================  =====================================================
name                    fired
======================  =====================================================
``wal.append``          before a record is appended to the journal
``wal.pre_flush``       entering :meth:`WriteAheadLog.flush`, before any I/O
``wal.post_flush``      after a flush became durable
``wal.flush.torn``      consulted mid-flush; a :func:`torn_write` action
                        makes the flush write only part (or a corrupted
                        copy) of its final frame and die
``wal.truncate``        during a log reclaim, with ``stage="synced"``
                        (the rewritten sibling is durable, the journal
                        untouched) and ``stage="renamed"`` (the sibling
                        replaced the journal, the directory is not yet
                        synced)
``broker.publish``      before an enqueue through the broker
``broker.consume``      before a dequeue through the broker
``broker.ack``          before an acknowledgement through the broker
``delivery.consumer``   before a consumer callback runs (inside the
                        nack/retry failure boundary)
``pubsub.consumer``     before an activated durable subscriber's
                        listener runs (inside the requeue boundary)
``capture.drop_trigger``  inside capture-source teardown, before each
                        trigger is dropped (the swallowed-close path)
``shard.prepared``      in a shard worker, after a 2PC prepare record
                        became durable and the YES vote was sent —
                        the classic "voted yes then died" window
``shard.decide``        in a shard worker, after a 2PC decision
                        arrived but before it is applied
``shard.heartbeat``     in a shard worker, before answering a
                        supervisor heartbeat probe — arm ``exit`` to
                        model a crash, :func:`stall` to model a wedged
                        worker that times out but stays alive
``shard.replicate``     in a replica worker, before applying a shipped
                        replication batch
``shard.promote``       in the coordinator, after the chosen replica
                        is caught up but before routing flips to it
======================  =====================================================

Custom names are allowed (the catalog is a convention, not a schema) so
tests can add failpoints to code they instrument locally.

Determinism: ambient nondeterminism is banned in tests, so the
probabilistic policy draws from the injector's own seeded
:class:`random.Random` — two injectors built with the same seed fire
identically.  All policies see the 1-based *hit* count of their
failpoint, so "fail the 3rd flush" is one line.

Example::

    injector = FaultInjector(seed=7)
    injector.arm(WAL_PRE_FLUSH, raise_fault("disk died"), policy=on_hit(3))
    db = Database(path=path, faults=injector)
    ...                      # third flush raises FaultInjectedError
    db = Database(path=path)  # "new process": recover from the file
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import FaultInjectedError

# -- failpoint catalog -------------------------------------------------------

WAL_APPEND = "wal.append"
WAL_PRE_FLUSH = "wal.pre_flush"
WAL_POST_FLUSH = "wal.post_flush"
WAL_TORN_WRITE = "wal.flush.torn"
WAL_TRUNCATE = "wal.truncate"
BROKER_PUBLISH = "broker.publish"
BROKER_CONSUME = "broker.consume"
BROKER_ACK = "broker.ack"
DELIVERY_CONSUMER = "delivery.consumer"
PUBSUB_CONSUMER = "pubsub.consumer"
CAPTURE_DROP_TRIGGER = "capture.drop_trigger"
SHARD_PREPARED = "shard.prepared"
SHARD_DECIDE = "shard.decide"
SHARD_HEARTBEAT = "shard.heartbeat"
SHARD_REPLICATE = "shard.replicate"
SHARD_PROMOTE = "shard.promote"

FAILPOINT_CATALOG = frozenset(
    {
        WAL_APPEND,
        WAL_PRE_FLUSH,
        WAL_POST_FLUSH,
        WAL_TORN_WRITE,
        WAL_TRUNCATE,
        BROKER_PUBLISH,
        BROKER_CONSUME,
        BROKER_ACK,
        DELIVERY_CONSUMER,
        PUBSUB_CONSUMER,
        CAPTURE_DROP_TRIGGER,
        SHARD_PREPARED,
        SHARD_DECIDE,
        SHARD_HEARTBEAT,
        SHARD_REPLICATE,
        SHARD_PROMOTE,
    }
)


@dataclass
class FaultContext:
    """Everything an action sees when its failpoint fires.

    ``site`` carries keyword context from the fire site (e.g. ``wal``,
    ``queue``); ``result`` is how an action hands a directive back to
    the site (the torn-write action uses it to describe the tear).
    """

    name: str
    hit: int
    site: dict[str, Any] = field(default_factory=dict)
    result: Any = None


# A policy decides, per hit, whether the failpoint fires.  It receives
# the 1-based hit count and the injector's seeded RNG.
Policy = Callable[[int, random.Random], bool]
Action = Callable[[FaultContext], None]


# -- trigger policies --------------------------------------------------------


def always() -> Policy:
    """Fire on every hit (bound it with ``max_fires`` when arming)."""
    return lambda hit, rng: True


def on_hit(n: int) -> Policy:
    """Fire on exactly the ``n``-th hit (1-based)."""
    if n < 1:
        raise ValueError("on_hit is 1-based; n must be >= 1")
    return lambda hit, rng: hit == n


def every(n: int) -> Policy:
    """Fire on every ``n``-th hit (n, 2n, 3n, ...)."""
    if n < 1:
        raise ValueError("every(n) requires n >= 1")
    return lambda hit, rng: hit % n == 0


def after(n: int) -> Policy:
    """Fire on every hit strictly after the ``n``-th."""
    return lambda hit, rng: hit > n


def with_probability(p: float) -> Policy:
    """Fire each hit with probability ``p``, drawn from the injector's
    seeded RNG (no ambient randomness)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be within [0, 1]")
    return lambda hit, rng: rng.random() < p


# -- actions -----------------------------------------------------------------


def raise_fault(message: str = "injected fault") -> Action:
    """Raise :class:`FaultInjectedError` (an ``IOError``) at the site."""

    def action(ctx: FaultContext) -> None:
        raise FaultInjectedError(message, failpoint=ctx.name)

    return action


def raise_error(factory: Callable[[FaultContext], BaseException]) -> Action:
    """Raise an arbitrary exception built by ``factory`` (for sites
    whose callers handle specific error types)."""

    def action(ctx: FaultContext) -> None:
        raise factory(ctx)

    return action


def crash_wal() -> Action:
    """Simulate process death at the site: drop the WAL's non-durable
    tail (:meth:`WriteAheadLog.crash`) and raise.

    Requires the site to pass ``wal=`` context (all ``wal.*``
    failpoints do).
    """

    def action(ctx: FaultContext) -> None:
        wal = ctx.site.get("wal")
        if wal is None:
            raise FaultInjectedError(
                "crash_wal armed on a site without wal context",
                failpoint=ctx.name,
            )
        wal.crash()
        raise FaultInjectedError("injected crash", failpoint=ctx.name)

    return action


def torn_write(mode: str = "truncate", *, drop_bytes: int | None = None) -> Action:
    """Tear the flush in progress (``wal.flush.torn`` only).

    ``mode="truncate"`` writes the batch minus its final ``drop_bytes``
    (default: half of the final frame), modeling a crash mid-``write``;
    ``mode="corrupt"`` writes every byte but flips one inside the final
    frame, modeling a misdirected/bit-rotted sector.  Either way the
    flush then raises :class:`FaultInjectedError` — the process "died";
    recover by opening a fresh :class:`Database` over the journal path.
    """
    if mode not in ("truncate", "corrupt"):
        raise ValueError(f"unknown torn_write mode {mode!r}")

    def action(ctx: FaultContext) -> None:
        ctx.result = {"mode": mode, "drop_bytes": drop_bytes}

    return action


def added_latency(clock: Any, seconds: float) -> Action:
    """Advance (simulated) or sleep (wall) ``clock`` by ``seconds`` —
    models a stall at the site without failing it."""

    def action(ctx: FaultContext) -> None:
        if hasattr(clock, "advance"):
            clock.advance(seconds)
        else:
            clock.sleep(seconds)

    return action


def exit_process(code: int = 1) -> Action:
    """Kill the current process immediately (``os._exit`` — no flushes,
    no atexit, no cleanup), modeling a hard worker crash at the site.

    Used by the shard crash tests: a worker armed with this action on
    ``shard.prepared`` dies with its vote on the wire, leaving an
    in-doubt transaction for recovery to resolve.
    """

    def action(ctx: FaultContext) -> None:
        import os

        os._exit(code)

    return action


def stall(seconds: float) -> Action:
    """Block the site for ``seconds`` of *real* time (``time.sleep``).

    Models a wedged-but-alive process: a shard worker stalled on its
    heartbeat trips the coordinator's socket timeout while
    ``process.is_alive()`` stays true — the "transient timeout"
    classification, as opposed to a dead channel.
    """

    def action(ctx: FaultContext) -> None:
        import time

        time.sleep(seconds)

    return action


def call(fn: Callable[[FaultContext], None]) -> Action:
    """Escape hatch: run an arbitrary callable as the action."""
    return fn


# -- the injector ------------------------------------------------------------


@dataclass
class Failpoint:
    """One armed failpoint: action + policy + hit/fire accounting."""

    name: str
    action: Action
    policy: Policy
    max_fires: int | None = None
    hits: int = 0
    fires: int = 0


class FaultInjector:
    """Registry of armed failpoints, owned by the test (or benchmark).

    Pass it to :class:`Database(faults=...)` (which forwards it to the
    WAL) — brokers and delivery managers pick it up through their
    database.  Production code calls :meth:`fire` at each site; the
    call is a dictionary miss when nothing is armed, so an un-armed
    pipeline pays nothing.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._failpoints: dict[str, Failpoint] = {}
        # (name, hit) of every fire, in order — lets tests assert on
        # which failure was actually exercised.
        self.history: list[tuple[str, int]] = []

    def arm(
        self,
        name: str,
        action: Action,
        *,
        policy: Policy | None = None,
        max_fires: int | None = None,
    ) -> Failpoint:
        """Arm (or re-arm) ``name``; returns the failpoint for
        inspection.  Default policy fires every hit."""
        failpoint = Failpoint(
            name=name,
            action=action,
            policy=policy or always(),
            max_fires=max_fires,
        )
        self._failpoints[name] = failpoint
        return failpoint

    def disarm(self, name: str) -> None:
        self._failpoints.pop(name, None)

    def reset(self) -> None:
        """Disarm everything and clear history (keeps the RNG state)."""
        self._failpoints.clear()
        self.history.clear()

    def armed(self, name: str) -> bool:
        return name in self._failpoints

    def fire(self, name: str, **site: Any) -> FaultContext | None:
        """Called by production code at a failpoint site.

        Returns ``None`` when the failpoint is unarmed or its policy
        declined; otherwise runs the action (which may raise) and
        returns the context, whose ``result`` may carry a directive
        back to the site.
        """
        failpoint = self._failpoints.get(name)
        if failpoint is None:
            return None
        failpoint.hits += 1
        if failpoint.max_fires is not None and failpoint.fires >= failpoint.max_fires:
            return None
        if not failpoint.policy(failpoint.hits, self.rng):
            return None
        failpoint.fires += 1
        context = FaultContext(name=name, hit=failpoint.hits, site=site)
        self.history.append((name, failpoint.hits))
        failpoint.action(context)
        return context


# -- out-of-band corruption helper -------------------------------------------


def corrupt_record_on_disk(path: str, lsn: int) -> int:
    """Flip one payload byte of the frame holding ``lsn`` in the WAL
    file at ``path``; returns the byte offset corrupted.

    This models in-place media corruption (as opposed to a torn tail,
    which :func:`torn_write` injects through the flush path).  The
    framing's CRC must catch the flip on the next load.
    """
    # Imported here so `repro.faults` stays importable without pulling
    # the whole db package at module-import time.
    from repro.db import wal as wal_module

    with open(path, "rb") as handle:
        data = handle.read()
    for start, end, record in wal_module.iter_frames(data):
        if record is not None and record.lsn == lsn:
            # Flip a byte in the middle of the frame's payload region —
            # never the newline terminator, so the line structure (and
            # therefore every *other* frame) stays intact.
            target = start + (end - start) // 2
            corrupted = (
                data[:target]
                + bytes([data[target] ^ 0x55])
                + data[target + 1 :]
            )
            with open(path, "wb") as handle:
                handle.write(corrupted)
            return target
    raise ValueError(f"no frame with lsn {lsn} found in {path!r}")
