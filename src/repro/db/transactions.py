"""Transactions: two-phase locking, undo logging, deadlock detection.

The tutorial leans on the database's "transactional support" as an
operational characteristic of both message storage and consumption
(§2.2.b.ii.3, §2.2.d.iii.3).  This module supplies it:

* **Strict two-phase locking** with shared/exclusive locks at row and
  table granularity.  Locks are held to commit/rollback.
* **Undo logging**: every mutation registers an inverse operation;
  rollback replays them newest-first.  Savepoints are positions in the
  undo log.
* **Deadlock detection** on a wait-for graph (networkx); the requester
  that closes a cycle is chosen as the victim and gets
  :class:`DeadlockError`.

Lock waits block on condition variables, so multi-threaded consumers
(queue dequeuers in the benchmarks) coordinate correctly.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Hashable

import networkx as nx

from repro.errors import DeadlockError, LockTimeoutError, TransactionError


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.SHARED and requested is LockMode.SHARED


@dataclass
class _LockState:
    """Holders and waiters for one lockable resource."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: list[tuple[int, LockMode]] = field(default_factory=list)


class LockManager:
    """Shared/exclusive locks keyed by arbitrary hashable resources.

    Resources are ``("table", name)`` or ``("row", table, rowid)``
    tuples; the manager itself does not interpret them.
    """

    def __init__(self, timeout: float = 5.0) -> None:
        self._locks: dict[Hashable, _LockState] = {}
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._timeout = timeout

    def acquire(self, txid: int, resource: Hashable, mode: LockMode) -> None:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``txid``.

        Raises :class:`DeadlockError` if waiting would close a cycle in
        the wait-for graph, :class:`LockTimeoutError` on timeout.
        """
        with self._condition:
            state = self._locks.setdefault(resource, _LockState())
            # Re-acquisition fast path: batched DML re-requests the same
            # table lock once per row; an EXCLUSIVE holder (or a SHARED
            # holder asking for SHARED again) can skip the grant scan.
            held = state.holders.get(txid)
            if held is LockMode.EXCLUSIVE or held is mode:
                return
            if self._grantable(state, txid, mode):
                self._grant(state, txid, mode)
                return
            entry = (txid, mode)
            state.waiters.append(entry)
            try:
                if self._would_deadlock(txid):
                    raise DeadlockError(
                        f"transaction {txid} would deadlock waiting for {resource!r}"
                    )
                deadline = (
                    threading.TIMEOUT_MAX
                    if self._timeout is None
                    else self._timeout
                )
                granted = self._condition.wait_for(
                    lambda: self._grantable(state, txid, mode), timeout=deadline
                )
                if not granted:
                    raise LockTimeoutError(
                        f"transaction {txid} timed out waiting for {resource!r}"
                    )
                self._grant(state, txid, mode)
            finally:
                if entry in state.waiters:
                    state.waiters.remove(entry)

    def _grantable(self, state: _LockState, txid: int, mode: LockMode) -> bool:
        others = {
            holder: held
            for holder, held in state.holders.items()
            if holder != txid
        }
        if not others:
            return True
        return all(_compatible(held, mode) for held in others.values())

    def _grant(self, state: _LockState, txid: int, mode: LockMode) -> None:
        current = state.holders.get(txid)
        if current is LockMode.EXCLUSIVE:
            return  # X subsumes everything.
        state.holders[txid] = mode if current is None or mode is LockMode.EXCLUSIVE else current

    def _would_deadlock(self, requester: int) -> bool:
        """True when the wait-for graph (including this new wait) has a
        cycle through ``requester``."""
        graph = nx.DiGraph()
        for state in self._locks.values():
            for waiter, wanted in state.waiters:
                for holder, held in state.holders.items():
                    if holder != waiter and not _compatible(held, wanted):
                        graph.add_edge(waiter, holder)
        if requester not in graph:
            return False
        try:
            nx.find_cycle(graph, source=requester)
            return True
        except nx.NetworkXNoCycle:
            return False

    def release_all(self, txid: int) -> None:
        """Release every lock held by ``txid`` and wake waiters."""
        with self._condition:
            empty: list[Hashable] = []
            for resource, state in self._locks.items():
                state.holders.pop(txid, None)
                if not state.holders and not state.waiters:
                    empty.append(resource)
            for resource in empty:
                del self._locks[resource]
            self._condition.notify_all()

    def held_by(self, txid: int) -> list[Hashable]:
        with self._mutex:
            return [
                resource
                for resource, state in self._locks.items()
                if txid in state.holders
            ]


class TransactionState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


UndoAction = Callable[[], None]


class Transaction:
    """One unit of work: undo log, savepoints, and lifecycle state.

    Instances are created by the :class:`TransactionManager`; user code
    receives them from ``Database.begin()`` or the connection context
    manager.
    """

    def __init__(self, txid: int, manager: "TransactionManager") -> None:
        self.txid = txid
        self._manager = manager
        self.state = TransactionState.ACTIVE
        self._undo: list[UndoAction] = []
        # name -> (undo position, the caller's mark: where the journal stood)
        self._savepoints: dict[str, tuple[int, Any]] = {}
        # Arbitrary per-transaction attachments (e.g. trigger depth).
        self.attributes: dict[str, Any] = {}

    def __repr__(self) -> str:
        return f"Transaction(txid={self.txid}, state={self.state.value})"

    @property
    def is_active(self) -> bool:
        return self.state is TransactionState.ACTIVE

    def require_active(self) -> None:
        if not self.is_active:
            raise TransactionError(
                f"transaction {self.txid} is {self.state.value}, not active"
            )

    def record_undo(self, action: UndoAction) -> None:
        """Register the inverse of a mutation just performed."""
        self.require_active()
        self._undo.append(action)

    def savepoint(self, name: str, mark: Any = None) -> None:
        """Mark the current undo position under ``name``, with the
        caller's ``mark`` (the database keeps its journal LSN there)."""
        self.require_active()
        self._savepoints[name] = (len(self._undo), mark)

    def savepoint_mark(self, name: str) -> Any:
        """The ``mark`` a live savepoint was taken with."""
        self.require_active()
        if name not in self._savepoints:
            raise TransactionError(f"no savepoint named {name!r}")
        return self._savepoints[name][1]

    def rollback_to_savepoint(self, name: str) -> None:
        """Undo work performed after the savepoint; the savepoint remains."""
        self.savepoint_mark(name)  # raises for an unknown savepoint
        position = self._savepoints[name][0]
        while len(self._undo) > position:
            self._undo.pop()()
        # Invalidate savepoints created after this one.
        self._savepoints = {
            sp_name: entry
            for sp_name, entry in self._savepoints.items()
            if entry[0] <= position
        }

    # The manager drives these; user code goes through Database/Connection.

    def _apply_undo(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _finish(self, state: TransactionState) -> None:
        self.state = state
        self._undo.clear()
        self._savepoints.clear()


class TransactionManager:
    """Creates transactions and drives commit/rollback.

    Commit and rollback hooks are injected by the database facade so
    this module stays free of WAL and trigger dependencies.
    """

    def __init__(self, lock_manager: LockManager | None = None) -> None:
        self.locks = lock_manager or LockManager()
        self._txids = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        self._mutex = threading.Lock()
        # on_commit/on_abort run while the transaction still holds its
        # locks (journal commit record); after_commit/after_abort run
        # once locks are released (safe to start new transactions, e.g.
        # notification listeners re-querying state).
        self.on_commit: Callable[[Transaction], None] | None = None
        self.on_abort: Callable[[Transaction], None] | None = None
        self.after_commit: Callable[[Transaction], None] | None = None
        self.after_abort: Callable[[Transaction], None] | None = None

    def begin(self) -> Transaction:
        transaction = Transaction(next(self._txids), self)
        with self._mutex:
            self._active[transaction.txid] = transaction
        return transaction

    def set_next_txid(self, txid: int) -> None:
        """Fast-forward the txid counter (used after recovery so new
        transactions never reuse a journaled txid)."""
        self._txids = itertools.count(txid)

    @property
    def active_count(self) -> int:
        with self._mutex:
            return len(self._active)

    def commit(self, transaction: Transaction) -> None:
        transaction.require_active()
        if self.on_commit is not None:
            self.on_commit(transaction)
        transaction._finish(TransactionState.COMMITTED)
        self._release(transaction)
        if self.after_commit is not None:
            self.after_commit(transaction)

    def rollback(self, transaction: Transaction) -> None:
        if transaction.state is TransactionState.ABORTED:
            return  # Idempotent.
        transaction.require_active()
        transaction._apply_undo()
        if self.on_abort is not None:
            self.on_abort(transaction)
        transaction._finish(TransactionState.ABORTED)
        self._release(transaction)
        if self.after_abort is not None:
            self.after_abort(transaction)

    def _release(self, transaction: Transaction) -> None:
        self.locks.release_all(transaction.txid)
        with self._mutex:
            self._active.pop(transaction.txid, None)
