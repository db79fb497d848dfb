"""Perf smoke tests: the statement cache and the expression compiler
must actually remove repeated work, not just exist.

These patch the parse entry points with counting wrappers (the names
bound at import time are ``repro.db.sql.cache.parse_statement`` and
``repro.db.sql.parser.tokenize`` — patching ``lexer.tokenize`` would
miss the parser's direct reference) and assert parses happen once, not
per execution / per row / per event.
"""

from collections import Counter

import pytest

import repro.db.expr as expr_module
import repro.db.sql.cache as cache_module
import repro.db.sql.executor as executor_module
from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.schema import Column
from repro.db.types import INT, TEXT
from repro.queues import Message, QueueTable
from repro.rules import RuleEngine


@pytest.fixture
def db():
    return Database(clock=SimulatedClock(start=1000.0))


@pytest.fixture
def counted_parse(monkeypatch):
    """Count calls to the statement-cache's parse entry point."""
    calls = {"n": 0}
    real = cache_module.parse_statement

    def wrapper(text):
        calls["n"] += 1
        return real(text)

    monkeypatch.setattr(cache_module, "parse_statement", wrapper)
    return calls


def _make_table(db):
    db.create_table(
        "t", [Column("id", INT, primary_key=True), Column("name", TEXT)]
    )


class TestStatementCacheHitRate:
    def test_repeated_parameterized_statement_hits_over_90_percent(self, db):
        _make_table(db)
        insert = db.prepare("INSERT INTO t (id, name) VALUES (?, ?)")
        for i in range(100):
            insert.execute([i, f"n{i}"])
        select = db.prepare("SELECT name FROM t WHERE id = ?")
        for i in range(100):
            assert select.query([i]) == [{"name": f"n{i}"}]
        assert db.statement_cache.hit_rate > 0.9

    def test_prepared_enqueue_hit_rate(self, db):
        queue = QueueTable(db, "smoke")
        for i in range(50):
            queue.enqueue_via_prepared(Message(payload={"i": i}))
        assert db.statement_cache.hit_rate > 0.9
        assert queue.depth() == 50


class TestNoRepeatedParsing:
    def test_prepared_statement_parses_once(self, db, counted_parse):
        _make_table(db)
        insert = db.prepare("INSERT INTO t (id, name) VALUES (?, ?)")
        baseline = counted_parse["n"]  # prepare() parses eagerly
        for i in range(50):
            insert.execute([i, "x"])
        assert counted_parse["n"] == baseline

    def test_repeated_text_parses_once(self, db, counted_parse):
        _make_table(db)
        db.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
        baseline = counted_parse["n"]
        for _ in range(20):
            db.query("SELECT * FROM t WHERE id = 1")
        assert counted_parse["n"] == baseline + 1

    def test_compiled_rule_evaluation_never_tokenizes(self, monkeypatch):
        """After registration, per-event evaluation is pure closure
        calls: no lexing, no parsing, no per-event AST lowering."""
        import repro.db.sql.parser as parser_module
        from repro.events import Event

        engine = RuleEngine()
        engine.add("r1", "qty > 5 AND region = 'emea'")
        engine.add("r2", "price BETWEEN 1 AND 2")

        def forbidden(text):
            raise AssertionError(
                "tokenize called during compiled rule evaluation"
            )

        monkeypatch.setattr(parser_module, "tokenize", forbidden)
        for i in range(100):
            engine.evaluate(
                Event("tick", float(i), {"qty": i, "region": "emea"}),
                run_actions=False,
            )
        assert engine.stats["events_evaluated"] == 100

    def test_compiled_where_evaluation_is_not_per_row(self, db, counted_parse):
        """One SELECT over many rows parses once; the WHERE predicate is
        compiled once and applied per row as a closure."""
        _make_table(db)
        insert = db.prepare("INSERT INTO t (id, name) VALUES (?, ?)")
        for i in range(200):
            insert.execute([i, f"n{i % 7}"])
        baseline = counted_parse["n"]
        rows = db.query("SELECT id FROM t WHERE name = 'n3'")
        assert len(rows) > 20
        assert counted_parse["n"] == baseline + 1


def _nodes(expression):
    yield expression
    for child in expression.children():
        yield from _nodes(child)


@pytest.fixture
def counted_engine(monkeypatch):
    """Count what executing a cached template may redo: lowerings of its
    nodes (``_compile_node``), tree rewrites (``rewrite``, which also
    carries ``substitute_parameters``), planning (``plan_access``) and
    alias-qualified row copies (``_qualify``)."""
    counts = Counter()
    lowered = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    real_compile = expr_module._compile_node

    def counting_compile(node):
        lowered[id(node)] += 1
        return real_compile(node)

    monkeypatch.setattr(expr_module, "_compile_node", counting_compile)
    monkeypatch.setattr(expr_module, "rewrite", counting("rewrite", expr_module.rewrite))
    monkeypatch.setattr(
        executor_module, "rewrite", counting("rewrite", executor_module.rewrite)
    )
    monkeypatch.setattr(
        executor_module, "plan_access", counting("plan_access", executor_module.plan_access)
    )
    monkeypatch.setattr(
        executor_module, "_qualify", counting("_qualify", executor_module._qualify)
    )
    return counts, lowered


class TestTemplatesCompileAndPlanOnce:
    """Counts, not timings: a cached template is compiled once and planned
    once per schema version; an execution only reads its ``?`` values."""

    def test_prepared_select_lowers_each_template_node_at_most_once(
        self, db, counted_engine
    ):
        counts, lowered = counted_engine
        _make_table(db)
        insert = db.prepare("INSERT INTO t (id, name) VALUES (?, ?)")
        for i in range(20):
            insert.execute([i, f"n{i}"])
        select = db.prepare(
            "SELECT id, upper(name) AS shout, id + ? AS succ FROM t "
            "WHERE id = ? ORDER BY length(name), id"
        )
        template = db.statement_cache.lookup(select.sql, db.schema_version).statement
        roots = [item.expression for item in template.items]
        roots += [order.expression for order in template.order_by]
        roots.append(template.where)
        template_nodes = {id(node) for root in roots for node in _nodes(root)}
        lowered.clear()
        for i in range(1000):
            assert select.query([1, i % 20]) == [
                {"id": i % 20, "shout": f"N{i % 20}", "succ": i % 20 + 1}
            ]
        # Every node of the template — the ones holding a ``?`` too — was
        # lowered at most once in 1 000 executions, and the projection at
        # least once, so the counter is known to be wired to the compiler.
        assert lowered and max(lowered.values()) == 1
        assert set(lowered) <= template_nodes
        assert counts["rewrite"] == 0

    def test_template_is_planned_once_per_schema_version(self, db, counted_engine):
        counts, _lowered = counted_engine
        _make_table(db)
        db.execute("INSERT INTO t (id, name) VALUES (3, 'n3')")
        planned = []
        counting_plan = executor_module.plan_access

        def recording_plan(table, where):
            planned.append(where)
            return counting_plan(table, where)

        executor_module.plan_access = recording_plan
        try:
            sql = "SELECT name FROM t WHERE id = 3 AND name LIKE 'n%'"
            for _ in range(5):
                assert db.query(sql) == [{"name": "n3"}]
            template = db.statement_cache.lookup(sql, db.schema_version).statement
            assert planned == [template.where]  # by identity, once

            by_name = db.prepare("SELECT id FROM t WHERE name = ?")
            for _ in range(5):
                assert by_name.query(["n3"]) == [{"id": 3}]
            assert len(planned) == 2
            before_ddl = db.query(f"EXPLAIN {by_name.sql}", ["n3"])
            assert before_ddl[0]["operation"] == "SCAN t"

            # DDL bumps the schema version: the handle re-plans once, and
            # the new plan uses the new index.
            db.execute("CREATE INDEX ix_t_name ON t (name)")
            planned.clear()
            for _ in range(5):
                assert by_name.query(["n3"]) == [{"id": 3}]
            assert len(planned) == 1
            after_ddl = db.query(f"EXPLAIN {by_name.sql}", ["n3"])
            assert after_ddl[0]["operation"] == (
                "INDEX LOOKUP t.name = 'n3' USING ix_t_name"
            )
        finally:
            executor_module.plan_access = counting_plan


#: The five statements of the ``sql_mixed`` benchmark workload.
SQL_MIXED = {
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


class TestSqlMixedCountGuard:
    """The count guard of the SQL client path: after its first
    execution, each ``sql_mixed`` statement runs 1 000 times with no tree
    rewrite, no lowering and no planning on the row path, and no
    alias-qualified copy of any row."""

    ROWS = 400

    @pytest.fixture
    def orders(self, db):
        db.execute(
            "CREATE TABLE orders (order_id INT PRIMARY KEY, customer INT NOT NULL,"
            " region TEXT NOT NULL, priority INT NOT NULL, qty INT NOT NULL,"
            " amount REAL NOT NULL)"
        )
        db.execute("CREATE INDEX ix_orders_customer ON orders (customer)")
        for i in range(self.ROWS):
            db.insert_row(
                "orders",
                {"order_id": i, "customer": i % 40, "region": f"region{i % 8}",
                 "priority": i % 10, "qty": i % 97 + 1, "amount": i / 4},
            )
        return db

    def _params(self, kind, i):
        if kind == "point_select":
            return (i % self.ROWS,)
        if kind == "index_select":
            return (i % 40,)
        if kind == "update":
            return (i % 50 + 1, i / 2, i % self.ROWS)
        if kind == "insert":
            return (self.ROWS + i, i % 40, "region1", i % 10, 5, 1.25)
        return (i % 10,)

    @pytest.mark.parametrize("kind", list(SQL_MIXED))
    def test_statement_repeats_without_rework(self, orders, counted_engine, kind):
        counts, lowered = counted_engine
        statement = orders.prepare(SQL_MIXED[kind])
        statement.execute(self._params(kind, 0))
        fast_path = executor_module.VECTOR_STATS["fast_path"]
        counts.clear()
        lowered.clear()
        for i in range(1, 1001):
            result = statement.execute(self._params(kind, i))
            if kind == "point_select":
                assert len(result.rows) == 1
        assert counts["_qualify"] == 0
        assert counts["plan_access"] == 0
        if kind == "aggregate":
            # The columnar path compiles its kernels with each
            # execution's values substituted, and stays on that path.
            assert executor_module.VECTOR_STATS["fast_path"] == fast_path + 1000
        else:
            assert counts["rewrite"] == 0
            assert not lowered
