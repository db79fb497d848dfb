"""Two-phase commit records for the rare cross-shard operation.

A queue lives entirely on one shard, so almost every operation is a
single-shard local transaction.  The exception the paper's rule layer
forces: one logical action must enqueue to queues owned by *different*
shards, atomically (e.g. a rule on shard A fanning out to a queue on
shard B).  Those go through coordinator-driven 2PC.

The participant side is **deferred-apply, presumed-abort**:

* **Prepare** — the worker journals an *intent*: one committed local
  transaction inserting ``(gtid, state='prepared', ops)`` into its
  ``shard_2pc`` table.  Nothing is enqueued yet; the intent rides the
  shard's own WAL, so a crashed worker finds its in-doubt transactions
  in recovered table state, not in volatile memory.
* **Commit decision** — ONE local transaction applies every op (the
  enqueues) *and* flips the row to ``state='committed'``.  Local
  atomicity of that transaction gives exactly-once application: either
  the effects and the decision record both survive, or neither does.
* **Abort decision** — flips the row to ``state='aborted'``.
* **Recovery** — rows still ``prepared`` are in-doubt; the coordinator
  resolves each against its own durable decision journal (commit iff a
  commit decision was journaled before the crash — presumed abort
  otherwise) by re-sending the decision, which is idempotent here
  because a resolved row is no longer ``prepared``.

The coordinator side journals decisions in its *own* engine before
sending phase 2 — the classic "decision record is the commit point".
"""

from __future__ import annotations

import json
import uuid
from typing import TYPE_CHECKING, Any, Callable

from repro.db.schema import Column
from repro.db.types import TEXT, TIMESTAMP

if TYPE_CHECKING:
    from repro.db.database import Database

#: Table (on every shard) holding participant 2PC state.
PARTICIPANT_TABLE = "shard_2pc"
#: Table (on the coordinator engine) holding decisions — the commit point.
DECISION_TABLE = "shard_gtid"

PREPARED = "prepared"
COMMITTED = "committed"
ABORTED = "aborted"


def new_gtid() -> str:
    """A globally unique transaction id (uuid4 hex)."""
    return uuid.uuid4().hex


class ParticipantLog:
    """One shard's durable 2PC state, stored in ``shard_2pc``."""

    def __init__(self, engine: Database) -> None:
        self.engine = engine
        if not engine.catalog.has_table(PARTICIPANT_TABLE):
            engine.create_table(
                PARTICIPANT_TABLE,
                [
                    Column("gtid", TEXT, nullable=False, unique=True),
                    Column("state", TEXT, nullable=False),
                    Column("ops", TEXT, nullable=False),
                    Column("updated_at", TIMESTAMP, nullable=False),
                ],
            )
            engine.create_index(
                f"ix_{PARTICIPANT_TABLE}_gtid", PARTICIPANT_TABLE, "gtid",
                kind="hash",
            )

    def _rowid(self, gtid: str) -> int | None:
        table = self.engine.catalog.table(PARTICIPANT_TABLE)
        rowids = table.lookup_rowids("gtid", gtid)
        return rowids[0] if rowids else None

    def state(self, gtid: str) -> str | None:
        rowid = self._rowid(gtid)
        if rowid is None:
            return None
        return self.engine.catalog.table(PARTICIPANT_TABLE).get(rowid)["state"]

    def prepare(self, gtid: str, ops: list[dict[str, Any]]) -> None:
        """Journal the intent as one committed transaction (the vote
        becomes durable before it is sent).  Idempotent re-prepare of
        the same gtid is rejected by the unique index."""
        self.engine.insert_row(
            PARTICIPANT_TABLE,
            {
                "gtid": gtid,
                "state": PREPARED,
                "ops": json.dumps(ops),
                "updated_at": self.engine.clock.now(),
            },
        )
        # The vote may be sent only once the intent is ON DISK — group
        # commit must not be allowed to buffer a YES vote.
        self.engine.wal.flush()

    def decide(
        self,
        gtid: str,
        decision: str,
        apply_ops: Callable[[list[dict[str, Any]], Any], Any],
    ) -> bool:
        """Apply ``decision`` to a prepared transaction.

        On commit, ``apply_ops(ops, conn)`` runs in the SAME local
        transaction that flips the state row, so application and the
        journaled decision are atomic.  Returns False (no-op) when the
        gtid is unknown or already resolved — that idempotence is what
        makes recovery re-sends safe.
        """
        if decision not in (COMMITTED, ABORTED):
            raise ValueError(f"unknown 2PC decision {decision!r}")
        rowid = self._rowid(gtid)
        if rowid is None:
            return False
        table = self.engine.catalog.table(PARTICIPANT_TABLE)
        row = table.get(rowid)
        if row["state"] != PREPARED:
            return False

        def work(conn: Any) -> None:
            if decision == COMMITTED:
                apply_ops(json.loads(row["ops"]), conn)
            self.engine.update_row(
                PARTICIPANT_TABLE,
                rowid,
                {"state": decision, "updated_at": self.engine.clock.now()},
                conn=conn,
            )

        self.engine.run_in_transaction(None, work)
        self.engine.wal.flush()
        return True

    def indoubt(self) -> list[str]:
        """gtids journaled ``prepared`` whose outcome this shard never
        learned (the set recovery must resolve)."""
        table = self.engine.catalog.table(PARTICIPANT_TABLE)
        return sorted(
            row["gtid"]
            for _rowid, row in table.scan()
            if row["state"] == PREPARED
        )

    def states(self, gtids: list[str]) -> dict[str, str | None]:
        """Resolution states for a batch of gtids (``None`` = unknown
        here) — the worker-side half of decision-log compaction: a
        decision row is reclaimable only once every participant reports
        its gtid ``committed``/``aborted``."""
        return {gtid: self.state(gtid) for gtid in gtids}


class DecisionLog:
    """The coordinator's durable decision journal (``shard_gtid``).

    Rows also record the *participants* (shard ids) of each
    transaction, which is what makes compaction safe: a decision may be
    deleted only once every participant has durably resolved the gtid
    on its own shard — after that the row can never be consulted again
    (recovery asks only about gtids still ``prepared`` somewhere).
    Rows recovered from a pre-participants journal have no participant
    list and are never compacted.
    """

    def __init__(self, engine: Database) -> None:
        self.engine = engine
        if not engine.catalog.has_table(DECISION_TABLE):
            engine.create_table(
                DECISION_TABLE,
                [
                    Column("gtid", TEXT, nullable=False, unique=True),
                    Column("decision", TEXT, nullable=False),
                    Column("decided_at", TIMESTAMP, nullable=False),
                    Column("participants", TEXT),
                ],
            )
            engine.create_index(
                f"ix_{DECISION_TABLE}_gtid", DECISION_TABLE, "gtid",
                kind="hash",
            )
        # A journal recovered from before the participants column keeps
        # its 3-column shape; such logs still resolve but never compact.
        self._has_participants = any(
            column.name == "participants"
            for column in engine.catalog.table(DECISION_TABLE).schema.columns
        )

    def record(
        self,
        gtid: str,
        decision: str,
        *,
        participants: list[int] | None = None,
    ) -> None:
        """Journal the decision — THE commit point of the protocol.
        Once this commits, the transaction's fate is ``decision``
        regardless of which processes die afterwards."""
        row: dict[str, Any] = {
            "gtid": gtid,
            "decision": decision,
            "decided_at": self.engine.clock.now(),
        }
        if self._has_participants:
            row["participants"] = (
                json.dumps(sorted(participants))
                if participants is not None
                else None
            )
        self.engine.insert_row(DECISION_TABLE, row)
        self.engine.wal.flush()

    def decision_for(self, gtid: str) -> str | None:
        """The journaled decision, or ``None`` (presumed abort)."""
        table = self.engine.catalog.table(DECISION_TABLE)
        rowids = table.lookup_rowids("gtid", gtid)
        if not rowids:
            return None
        return table.get(rowids[0])["decision"]

    def __len__(self) -> int:
        return sum(1 for _ in self.engine.catalog.table(DECISION_TABLE).scan())

    def rows(self) -> list[dict[str, Any]]:
        """Every decision row, with ``participants`` decoded (or
        ``None`` when unknown/legacy)."""
        out: list[dict[str, Any]] = []
        for rowid, row in self.engine.catalog.table(DECISION_TABLE).scan():
            raw = row.get("participants") if self._has_participants else None
            out.append(
                {
                    "rowid": rowid,
                    "gtid": row["gtid"],
                    "decision": row["decision"],
                    "participants": json.loads(raw) if raw else None,
                }
            )
        return out

    def compact(self, resolved_gtids: set[str]) -> int:
        """Delete decisions whose gtid is in ``resolved_gtids`` — the
        caller certifies every participant has durably resolved them.
        One transaction, flushed; returns the number removed."""
        table = self.engine.catalog.table(DECISION_TABLE)
        doomed = [
            rowid
            for rowid, row in table.scan()
            if row["gtid"] in resolved_gtids
        ]
        if not doomed:
            return 0

        def work(conn: Any) -> None:
            for rowid in doomed:
                self.engine.delete_row(DECISION_TABLE, rowid, conn=conn)

        self.engine.run_in_transaction(None, work)
        self.engine.wal.flush()
        return len(doomed)
