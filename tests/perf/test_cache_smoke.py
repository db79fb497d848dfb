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


class TestBindingSharesTheTemplate:
    """Counts, not timings: binding a cached template may build and
    compile only what a ``?`` actually changed."""

    def test_prepared_select_rebuilds_and_recompiles_only_the_bound_path(
        self, db, monkeypatch
    ):
        _make_table(db)
        insert = db.prepare("INSERT INTO t (id, name) VALUES (?, ?)")
        for i in range(20):
            insert.execute([i, f"n{i}"])
        select = db.prepare(
            "SELECT id, upper(name) AS shout, id + 1 AS succ FROM t "
            "WHERE id = ? ORDER BY length(name), id"
        )
        template = db.statement_cache.lookup(
            select.sql, db.schema_version
        ).statement
        shared = [item.expression for item in template.items]
        shared += [order.expression for order in template.order_by]

        def nodes(expression):
            yield expression
            for child in expression.children():
                yield from nodes(child)

        template_nodes = {id(node) for root in shared for node in nodes(root)}
        lowered = Counter()
        real_compile = expr_module._compile_node

        def counting_compile(node):
            if id(node) in template_nodes:
                lowered[id(node)] += 1
            return real_compile(node)

        bound_statements = []
        real_bind = cache_module._bind_statement

        def recording_bind(statement, params):
            bound = real_bind(statement, params)
            bound_statements.append(bound)
            return bound

        monkeypatch.setattr(expr_module, "_compile_node", counting_compile)
        monkeypatch.setattr(cache_module, "_bind_statement", recording_bind)
        for i in range(1000):
            assert select.query([i % 20]) == [
                {"id": i % 20, "shout": f"N{i % 20}", "succ": i % 20 + 1}
            ]

        assert len(bound_statements) == 1000
        for bound in bound_statements:
            assert bound.where is not template.where  # it held the ``?``
            for mine, theirs in zip(bound.items, template.items):
                assert mine.expression is theirs.expression
            for mine, theirs in zip(bound.order_by, template.order_by):
                assert mine.expression is theirs.expression
        # Each parameter-free expression was lowered at most once in
        # 1 000 executions — and the projections at least once, so the
        # counter is known to be wired to the real compiler.
        assert lowered and max(lowered.values()) == 1

    def test_parameterless_where_reaches_the_planner_by_identity(
        self, db, monkeypatch
    ):
        _make_table(db)
        db.execute("INSERT INTO t (id, name) VALUES (3, 'n3')")
        sql = "SELECT name FROM t WHERE id = 3 AND name LIKE 'n%'"
        planned = []
        real_plan = executor_module.plan_access

        def recording_plan(table, where):
            planned.append(where)
            return real_plan(table, where)

        monkeypatch.setattr(executor_module, "plan_access", recording_plan)
        for _ in range(5):
            assert db.query(sql) == [{"name": "n3"}]
        template = db.statement_cache.lookup(sql, db.schema_version).statement
        assert len(planned) == 5
        assert all(where is template.where for where in planned)
