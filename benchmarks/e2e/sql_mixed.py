"""``sql_mixed``: the ``db`` layer driven by a SQL client.

Prepared statements over one file-backed ``orders`` table mix point
reads, secondary-index reads, updates, inserts and a columnar ``GROUP
BY`` aggregate that follows writes.  Reads sit beside writes on the same
table on purpose: every aggregate after a write pays for whatever the
write path left the column projection to do, so a columnar gain that
taxes writes, or a write-path gain that taxes scans, shows here.
"""

from __future__ import annotations

import os
import random
from typing import Any, Sequence

from harness import Tracer, clock, percentile
from repro.db.database import Database
from repro.db.sql import executor

REGIONS = tuple(f"region{i}" for i in range(8))
PRIORITIES = 10
ROWS_PER_CUSTOMER = 10
LOAD_CHUNK = 1_000
CLASSES = ("point_select", "index_select", "update", "insert", "aggregate")
WRITES = frozenset(("update", "insert"))

SQL = {
    "point_select": "SELECT order_id, qty, amount FROM orders WHERE order_id = ?",
    "index_select": "SELECT order_id, amount FROM orders WHERE customer = ?",
    "update": "UPDATE orders SET qty = ?, amount = ? WHERE order_id = ?",
    "insert": (
        "INSERT INTO orders (order_id, customer, region, priority, qty, amount)"
        " VALUES (?, ?, ?, ?, ?, ?)"
    ),
    "aggregate": (
        "SELECT region, COUNT(*) AS n, SUM(qty) AS total_qty,"
        " AVG(amount) AS avg_amount FROM orders WHERE priority >= ? GROUP BY region"
    ),
}

Statement = tuple[str, tuple[Any, ...]]  # class, parameters


def _order(rng: random.Random, order_id: int, customers: int) -> tuple[Any, ...]:
    # amount is a multiple of 1/4 so sums are exact whatever the order.
    return (
        order_id,
        rng.randrange(customers),
        rng.choice(REGIONS),
        rng.randrange(PRIORITIES),
        rng.randrange(1, 100),
        rng.randrange(4, 4_000) / 4.0,
    )


def make_table(seed: int, rows: int) -> list[tuple[Any, ...]]:
    rng = random.Random(seed)
    customers = max(1, rows // ROWS_PER_CUSTOMER)
    return [_order(rng, order_id, customers) for order_id in range(rows)]


def make_statements(
    seed: int, count: int, rows: int, mix: dict[str, float], aggregate_every: int
) -> list[Statement]:
    """The statement stream.  Reads and updates address rows of the
    initial load only, so every statement succeeds whatever was inserted
    before it.  Aggregates come at fixed positions, one per cycle, not
    by chance: one costs a thousand point statements, so a run's totals
    and its latency tail would otherwise hang on how many the dice
    happened to give it.
    """
    rng = random.Random(seed)
    customers = max(1, rows // ROWS_PER_CUSTOMER)
    classes = list(mix)
    weights = [mix[name] for name in classes]
    next_id = rows
    statements: list[Statement] = []
    for index, kind in enumerate(rng.choices(classes, weights=weights, k=count)):
        if index % aggregate_every == 0:
            kind = "aggregate"
        if kind == "point_select":
            params: tuple[Any, ...] = (rng.randrange(rows),)
        elif kind == "index_select":
            params = (rng.randrange(customers),)
        elif kind == "update":
            params = (
                rng.randrange(1, 100),
                rng.randrange(4, 4_000) / 4.0,
                rng.randrange(rows),
            )
        elif kind == "insert":
            params = _order(rng, next_id, customers)
            next_id += 1
        else:
            params = (rng.randrange(PRIORITIES),)
        statements.append((kind, params))
    return statements


class OrdersModel:
    """The reference: a dict of rows plus running per-(region, priority)
    totals, replayed statement by statement."""

    def __init__(self, table: Sequence[tuple[Any, ...]]) -> None:
        self.rows: dict[int, list[Any]] = {}
        self.by_customer: dict[int, set[int]] = {}
        self.cells: dict[tuple[str, int], list[float]] = {}
        for row in table:
            self.insert(row)

    def insert(self, row: Sequence[Any]) -> None:
        order_id, customer, region, priority, qty, amount = row
        self.rows[order_id] = list(row)
        self.by_customer.setdefault(customer, set()).add(order_id)
        cell = self.cells.setdefault((region, priority), [0, 0, 0.0])
        cell[0] += 1
        cell[1] += qty
        cell[2] += amount

    def update(self, qty: int, amount: float, order_id: int) -> None:
        row = self.rows[order_id]
        cell = self.cells[(row[2], row[3])]
        cell[1] += qty - row[4]
        cell[2] += amount - row[5]
        row[4], row[5] = qty, amount

    def aggregate(self, min_priority: int) -> dict[str, tuple[int, int, float]]:
        groups: dict[str, list[float]] = {}
        for (region, priority), (n, qty, amount) in self.cells.items():
            if priority >= min_priority and n:
                group = groups.setdefault(region, [0, 0, 0.0])
                group[0] += n
                group[1] += qty
                group[2] += amount
        return {
            region: (n, qty, amount / n) for region, (n, qty, amount) in groups.items()
        }

    def check(self, kind: str, params: tuple[Any, ...], result: Any) -> bool:
        """Apply one statement and compare what the program returned."""
        if kind == "point_select":
            row = self.rows[params[0]]
            return result == [{"order_id": row[0], "qty": row[4], "amount": row[5]}]
        if kind == "index_select":
            expected = {
                order_id: self.rows[order_id][5]
                for order_id in self.by_customer.get(params[0], ())
            }
            return {r["order_id"]: r["amount"] for r in result} == expected and len(
                result
            ) == len(expected)
        if kind == "update":
            self.update(*params)
            return result == 1
        if kind == "insert":
            self.insert(params)
            return result == 1
        expected_groups = self.aggregate(params[0])
        observed = {
            r["region"]: (r["n"], r["total_qty"], r["avg_amount"]) for r in result
        }
        return observed == expected_groups


class SqlMixed:
    def __init__(
        self,
        config: dict[str, Any],
        wal: dict[str, Any],
        seed: int,
        workdir: str,
        tracer: Tracer,
    ) -> None:
        self.config = config
        self.wal = wal
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.table = make_table(seed, config["rows"])
        self.latencies_s: list[float] = []
        self.executed: list[tuple[str, tuple[Any, ...], Any]] = []
        self.class_times_s: dict[str, list[float]] = {name: [] for name in CLASSES}
        self._instance = 0

    def generate(self, count: int) -> list[Statement]:
        return make_statements(
            self.seed + 1,
            count,
            self.config["rows"],
            self.config["mix"],
            self.config["cycle_ops"],
        )

    def prepare(self, statements: list[Statement]) -> list[Statement]:
        return statements

    def _open(self) -> Database:
        return Database(
            self._path,
            sync_policy=self.wal["sync_policy"],
            group_commit_size=self.wal["group_commit_size"],
        )

    def setup(self, warmup: Sequence[Statement]) -> None:
        self._instance += 1
        self._path = os.path.join(self.workdir, f"orders{self._instance}.wal")
        self.latencies_s.clear()
        self.executed.clear()
        for samples in self.class_times_s.values():
            samples.clear()
        self.db = self._open()
        self.db.execute(
            "CREATE TABLE orders (order_id INT PRIMARY KEY, customer INT NOT NULL,"
            " region TEXT NOT NULL, priority INT NOT NULL, qty INT NOT NULL,"
            " amount REAL NOT NULL)"
        )
        self.db.execute("CREATE INDEX ix_orders_customer ON orders (customer)")
        columns = ("order_id", "customer", "region", "priority", "qty", "amount")
        for offset in range(0, len(self.table), LOAD_CHUNK):
            self.db.insert_many(
                "orders",
                [dict(zip(columns, row)) for row in self.table[offset : offset + LOAD_CHUNK]],
            )
        self.prepared = {
            kind: self.tracer.timed(
                f"db.sql.{kind}", self.db.prepare(text).execute, self.class_times_s[kind]
            )
            for kind, text in SQL.items()
        }
        self.vector_stats_before = dict(executor.VECTOR_STATS)
        self.step(warmup, None)
        self._warmup_ops = len(warmup)
        self._wal_start = self.wal_counters()
        for samples in self.class_times_s.values():
            samples.clear()

    def step(self, batch: Sequence[Statement], dues: Sequence[float] | None) -> None:
        prepared, executed = self.prepared, self.executed
        latencies = self.latencies_s
        for index, (kind, params) in enumerate(batch):
            result = prepared[kind](params)
            if dues is not None:
                latencies.append(clock() - dues[index])
            # Writes keep their affected-row count, reads their rows.
            executed.append(
                (kind, params, result.rowcount if kind in WRITES else result.rows)
            )

    def verify(self) -> tuple[int, list[str]]:
        problems: list[str] = []
        model = OrdersModel(self.table)
        wrong = {name: 0 for name in CLASSES}
        for kind, params, result in self.executed:
            if not model.check(kind, params, result):
                wrong[kind] += 1
        failed = sum(wrong.values())
        if failed:
            problems.append(f"statements contradicted by the model: {wrong}")
        stored = {
            row["order_id"]: [row[c] for c in ("order_id", "customer", "region", "priority", "qty", "amount")]
            for row in self.db.query("SELECT * FROM orders")
        }
        if stored != model.rows:
            differing = sum(
                1 for key in stored.keys() | model.rows.keys()
                if stored.get(key) != model.rows.get(key)
            )
            problems.append(f"final table differs from the model in {differing} rows")
            failed += differing
        suppressed = self.db.obs.snapshot()["errors_suppressed"]
        if suppressed:
            problems.append(f"suppressed errors: {suppressed}")
            failed += sum(suppressed.values())
        self.model_rows = len(model.rows)
        return failed, problems

    def wal_counters(self) -> dict[str, int]:
        counters = self.db.obs.snapshot()["counters"]
        return {
            key: counters.get(f"wal.{key}", 0) for key in ("bytes", "appends", "fsyncs")
        }

    def layer_metrics(self, traced_ops: int, total_ops: int) -> dict[str, float]:
        """Per-class execute times (timed phases), journal traffic per
        timed statement, and cache / fast-path shares."""
        timed_ops = total_ops - self._warmup_ops
        metrics = {
            f"db.wal.{key}_per_op": (value - self._wal_start[key]) / timed_ops
            for key, value in self.wal_counters().items()
        }
        busy_s = sum(sum(samples) for samples in self.class_times_s.values())
        for kind, samples in self.class_times_s.items():
            metrics[f"db.sql.{kind}.p50_us"] = (
                percentile(samples, 0.5) * 1e6 if samples else 0.0
            )
            metrics[f"db.sql.{kind}.time_share"] = sum(samples) / busy_s
        cache = self.db.statement_cache.stats
        fast_path = (
            executor.VECTOR_STATS["fast_path"] - self.vector_stats_before["fast_path"]
        )
        aggregates = sum(1 for kind, _p, _r in self.executed if kind == "aggregate")
        metrics["db.sql.cache.hit_share"] = cache["hits"] / max(
            1, cache["hits"] + cache["misses"]
        )
        metrics["db.columnar.fast_path_share"] = fast_path / max(1, aggregates)
        return metrics

    def probes(self) -> tuple[dict[str, float], int, list[str]]:
        """Crash and reopen; the table must come back row for row."""
        self.db.wal.flush()
        self.db.simulate_crash()
        start = clock()
        reopened = self._open()
        recovery_s = clock() - start
        rows = reopened.query("SELECT COUNT(*) AS n FROM orders")[0]["n"]
        failed = abs(rows - self.model_rows)
        return (
            {
                "db.recovery_s": recovery_s,
                "db.recovery.records_per_s": len(reopened.wal) / recovery_s,
            },
            failed,
            [f"after crash and reopen {failed} rows are missing or extra"]
            if failed
            else [],
        )

    def teardown(self) -> None:
        pass
