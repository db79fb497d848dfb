"""End-to-end SQL execution: SELECT features, DML semantics, DDL."""

import pytest

from repro.db import Database
from repro.errors import (
    ConstraintViolation,
    ExpressionError,
    SchemaError,
    SqlSyntaxError,
)


class TestSelectBasics:
    def test_where_filter(self, orders_db):
        rows = orders_db.query("SELECT id FROM orders WHERE symbol = 'IBM'")
        assert sorted(r["id"] for r in rows) == [1, 3]

    def test_projection_alias(self, orders_db):
        rows = orders_db.query(
            "SELECT qty * price AS notional FROM orders WHERE id = 1"
        )
        assert rows[0]["notional"] == 9850.0

    def test_star(self, orders_db):
        rows = orders_db.query("SELECT * FROM orders WHERE id = 2")
        assert set(rows[0]) == {"id", "symbol", "qty", "price", "account"}

    def test_order_by_desc_limit_offset(self, orders_db):
        rows = orders_db.query(
            "SELECT id FROM orders ORDER BY price DESC LIMIT 2 OFFSET 1"
        )
        assert [r["id"] for r in rows] == [1, 4]

    def test_order_by_expression(self, orders_db):
        rows = orders_db.query("SELECT id FROM orders ORDER BY qty * price")
        assert rows[0]["id"] == 6  # smallest notional

    def test_distinct(self, orders_db):
        rows = orders_db.query("SELECT DISTINCT symbol FROM orders ORDER BY symbol")
        assert [r["symbol"] for r in rows] == ["HPQ", "IBM", "MSFT", "ORCL"]

    def test_tableless(self, db):
        assert db.execute("SELECT 2 + 3 AS v").scalar() == 5

    def test_empty_result(self, orders_db):
        assert orders_db.query("SELECT * FROM orders WHERE id = 999") == []

    @pytest.mark.parametrize(
        "where", ["5 % 0 = 1", "qty % 0 = 1", "-symbol = 1"]
    )
    def test_arithmetic_errors_are_expression_errors(self, orders_db, where):
        """Regression: these raised raw ZeroDivisionError / TypeError,
        the constant one while the statement was being planned."""
        with pytest.raises(ExpressionError):
            orders_db.query(f"SELECT id FROM orders WHERE {where}")

    def test_case_projection(self, orders_db):
        rows = orders_db.query(
            "SELECT id, CASE WHEN qty >= 100 THEN 'big' ELSE 'small' END AS size "
            "FROM orders ORDER BY id"
        )
        assert rows[0]["size"] == "big"
        assert rows[1]["size"] == "small"


class TestAggregation:
    def test_global_aggregates(self, orders_db):
        row = orders_db.query(
            "SELECT count(*) AS n, sum(qty) AS total, avg(price) AS mean, "
            "min(qty) AS lo, max(qty) AS hi FROM orders"
        )[0]
        assert row["n"] == 6
        assert row["total"] == 465
        assert row["lo"] == 10 and row["hi"] == 200

    def test_group_by_having(self, orders_db):
        rows = orders_db.query(
            "SELECT symbol, count(*) AS n FROM orders GROUP BY symbol "
            "HAVING count(*) > 1 ORDER BY symbol"
        )
        assert [(r["symbol"], r["n"]) for r in rows] == [("IBM", 2), ("ORCL", 2)]

    def test_empty_table_global_group(self, db):
        db.execute("CREATE TABLE e (a INT)")
        row = db.query("SELECT count(*) AS n, sum(a) AS s FROM e")[0]
        assert row["n"] == 0
        assert row["s"] is None

    def test_count_distinct(self, orders_db):
        assert (
            orders_db.execute(
                "SELECT count(DISTINCT symbol) AS n FROM orders"
            ).scalar()
            == 4
        )

    def test_aggregate_in_expression(self, orders_db):
        row = orders_db.query(
            "SELECT max(price) - min(price) AS spread FROM orders"
        )[0]
        assert row["spread"] == pytest.approx(99.0 - 20.25)

    def test_count_skips_nulls(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (NULL), (3)")
        assert db.execute("SELECT count(a) AS n FROM t").scalar() == 2
        assert db.execute("SELECT count(*) AS n FROM t").scalar() == 3

    def test_stddev(self, db):
        db.execute("CREATE TABLE t (a REAL)")
        db.execute("INSERT INTO t VALUES (2.0), (4.0), (4.0), (4.0), (5.0), (5.0), (7.0), (9.0)")
        assert db.execute("SELECT stddev(a) AS s FROM t").scalar() == pytest.approx(2.138, abs=0.01)

    def test_order_by_aggregate(self, orders_db):
        rows = orders_db.query(
            "SELECT symbol, sum(qty) AS total FROM orders "
            "GROUP BY symbol ORDER BY sum(qty) DESC"
        )
        assert rows[0]["symbol"] == "MSFT"


class TestJoins:
    @pytest.fixture
    def joined_db(self, orders_db):
        orders_db.execute("CREATE TABLE accounts (account TEXT PRIMARY KEY, owner TEXT)")
        for account, owner in [("a1", "alice"), ("a2", "bob"), ("a3", "carol")]:
            orders_db.execute(
                f"INSERT INTO accounts VALUES ('{account}', '{owner}')"
            )
        return orders_db

    def test_inner_join(self, joined_db):
        rows = joined_db.query(
            "SELECT o.id, a.owner FROM orders o "
            "JOIN accounts a ON o.account = a.account ORDER BY o.id"
        )
        # a4 has no accounts row: order 6 drops out.
        assert [r["id"] for r in rows] == [1, 2, 3, 4, 5]
        assert rows[0]["owner"] == "alice"

    def test_left_join_pads_nulls(self, joined_db):
        rows = joined_db.query(
            "SELECT o.id, a.owner FROM orders o "
            "LEFT JOIN accounts a ON o.account = a.account ORDER BY o.id"
        )
        assert len(rows) == 6
        assert rows[-1]["owner"] is None

    def test_join_with_where_and_group(self, joined_db):
        rows = joined_db.query(
            "SELECT a.owner, sum(o.qty) AS total FROM orders o "
            "JOIN accounts a ON o.account = a.account "
            "WHERE o.price > 21 GROUP BY a.owner ORDER BY a.owner"
        )
        assert [(r["owner"], r["total"]) for r in rows] == [
            ("alice", 130), ("carol", 200),
        ]

    def test_non_equi_join(self, joined_db):
        rows = joined_db.query(
            "SELECT count(*) AS n FROM orders o JOIN accounts a ON o.qty > 100"
        )
        # qty>100 matches only order 4 (200); 3 account rows each.
        assert rows[0]["n"] == 3


class TestDml:
    def test_insert_defaults(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, n INT DEFAULT 7)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        assert db.query("SELECT n FROM t")[0]["n"] == 7

    def test_update_expression_uses_row_values(self, orders_db):
        orders_db.execute("UPDATE orders SET qty = qty * 2 WHERE symbol = 'IBM'")
        rows = orders_db.query("SELECT qty FROM orders WHERE symbol = 'IBM' ORDER BY id")
        assert [r["qty"] for r in rows] == [200, 60]

    def test_update_rowcount(self, orders_db):
        result = orders_db.execute("UPDATE orders SET qty = 1 WHERE symbol = 'ORCL'")
        assert result.rowcount == 2

    def test_delete_where(self, orders_db):
        result = orders_db.execute("DELETE FROM orders WHERE qty < 60")
        assert result.rowcount == 3
        assert orders_db.execute("SELECT count(*) FROM orders").scalar() == 3

    def test_check_constraint_blocks_insert(self, orders_db):
        with pytest.raises(ConstraintViolation):
            orders_db.execute(
                "INSERT INTO orders (id, symbol, qty, price) VALUES (9, 'X', -5, 1.0)"
            )

    def test_check_constraint_blocks_update(self, orders_db):
        with pytest.raises(ConstraintViolation):
            orders_db.execute("UPDATE orders SET qty = -1 WHERE id = 1")

    def test_pk_violation_blocks_insert(self, orders_db):
        with pytest.raises(ConstraintViolation):
            orders_db.execute(
                "INSERT INTO orders (id, symbol, qty, price) VALUES (1, 'X', 5, 1.0)"
            )

    def test_failed_statement_autocommit_rolls_back(self, orders_db):
        # Multi-row insert where the second row violates PK: the first
        # row must not survive (statement atomicity via autocommit).
        with pytest.raises(ConstraintViolation):
            orders_db.execute(
                "INSERT INTO orders (id, symbol, qty, price) "
                "VALUES (100, 'NEW', 5, 1.0), (1, 'DUP', 5, 1.0)"
            )
        assert orders_db.query("SELECT * FROM orders WHERE id = 100") == []

    def test_wrong_arity_rejected(self, orders_db):
        with pytest.raises(SqlSyntaxError):
            orders_db.execute("INSERT INTO orders (id, symbol) VALUES (9)")


class TestDdl:
    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("DROP TABLE t")
        with pytest.raises(SchemaError):
            db.query("SELECT * FROM t")

    def test_drop_missing_table(self, db):
        with pytest.raises(SchemaError):
            db.execute("DROP TABLE ghost")
        db.execute("DROP TABLE IF EXISTS ghost")  # tolerated

    def test_create_duplicate_table(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(SchemaError):
            db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")  # tolerated

    def test_create_index_then_used(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("CREATE INDEX ix ON t(a)")
        assert len(db.query("SELECT * FROM t WHERE a = 2")) == 1

    def test_unique_index_enforces(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE UNIQUE INDEX ux ON t(a)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO t VALUES (1)")


class TestTransactionsViaSql:
    def test_rollback_discards(self, orders_db):
        conn = orders_db.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM orders")
        conn.execute("ROLLBACK")
        assert orders_db.execute("SELECT count(*) FROM orders").scalar() == 6

    def test_commit_persists(self, orders_db):
        conn = orders_db.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM orders WHERE id = 1")
        conn.execute("COMMIT")
        assert orders_db.execute("SELECT count(*) FROM orders").scalar() == 5

    def test_savepoint_partial_rollback(self, orders_db):
        conn = orders_db.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM orders WHERE id = 1")
        conn.execute("SAVEPOINT sp")
        conn.execute("DELETE FROM orders WHERE id = 2")
        conn.execute("ROLLBACK TO sp")
        conn.execute("COMMIT")
        ids = sorted(r["id"] for r in orders_db.query("SELECT id FROM orders"))
        assert ids == [2, 3, 4, 5, 6]

    def test_context_manager_commits(self, orders_db):
        with orders_db.connect() as conn:
            conn.execute("DELETE FROM orders WHERE id = 6")
        assert orders_db.execute("SELECT count(*) FROM orders").scalar() == 5

    def test_context_manager_rolls_back_on_error(self, orders_db):
        with pytest.raises(RuntimeError):
            with orders_db.connect() as conn:
                conn.execute("DELETE FROM orders")
                raise RuntimeError("boom")
        assert orders_db.execute("SELECT count(*) FROM orders").scalar() == 6

    def test_ddl_rolls_back(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("CREATE TABLE temp (a INT)")
        conn.execute("ROLLBACK")
        assert not db.catalog.has_table("temp")
