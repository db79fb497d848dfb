"""Statement cache: normalization, hits, binding, and invalidation."""

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.schema import Column
from repro.db.sql.cache import StatementCache, normalize_sql
from repro.db.types import INT, TEXT
from repro.errors import DatabaseError


class TestNormalizeSql:
    def test_collapses_whitespace_and_case(self):
        assert (
            normalize_sql("SELECT  *\n FROM\tOrders ;")
            == normalize_sql("select * from orders")
        )

    def test_string_literals_survive_verbatim(self):
        a = normalize_sql("SELECT * FROM t WHERE c = 'It''s  HERE'")
        b = normalize_sql("select * from t where c = 'It''s  HERE'")
        c = normalize_sql("select * from t where c = 'it''s  here'")
        assert a == b
        assert a != c
        assert "'It''s  HERE'" in a

    def test_strips_comments_and_trailing_semicolons(self):
        assert (
            normalize_sql("SELECT * FROM t -- trailing comment\n;")
            == "select * from t"
        )

    def test_distinct_statements_stay_distinct(self):
        assert normalize_sql("SELECT a FROM t") != normalize_sql(
            "SELECT b FROM t"
        )


@pytest.fixture
def db():
    return Database(clock=SimulatedClock(start=1000.0))


def _make_table(db, name="t"):
    db.create_table(
        name,
        [Column("id", INT, primary_key=True), Column("name", TEXT)],
    )


class TestCacheHitsAndStats:
    def test_repeated_statement_hits_after_first_parse(self, db):
        _make_table(db)
        base = dict(db.statement_cache.stats)
        for i in range(10):
            db.execute(f"INSERT INTO t (id, name) VALUES ({i}, 'x')")
        stats = db.statement_cache.stats
        # Every INSERT has distinct text -> all misses...
        assert stats["misses"] - base["misses"] == 10
        for _ in range(10):
            db.query("SELECT * FROM t WHERE id = 3")
        # ...while the repeated SELECT parses once and hits 9 times.
        assert db.statement_cache.stats["misses"] - base["misses"] == 11
        assert db.statement_cache.stats["hits"] - base["hits"] == 9

    def test_normalization_shares_entries(self, db):
        _make_table(db)
        db.query("SELECT * FROM t")
        before = db.statement_cache.stats["hits"]
        db.query("select  *\nFROM   t ;")
        assert db.statement_cache.stats["hits"] == before + 1

    def test_transaction_control_is_never_cached(self, db):
        size = len(db.statement_cache)
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("COMMIT")
        assert len(db.statement_cache) == size

    def test_hit_rate(self):
        cache = StatementCache(capacity=8)
        cache.lookup("SELECT 1", 0)
        cache.lookup("SELECT 1", 0)
        cache.lookup("SELECT 1", 0)
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 2
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestParameterBinding:
    def test_parameterized_select(self, db):
        _make_table(db)
        for i, name in enumerate(["ada", "bob", "cyd"]):
            db.execute(
                "INSERT INTO t (id, name) VALUES (?, ?)", [i, name]
            )
        rows = db.query("SELECT name FROM t WHERE id = ?", [1])
        assert rows == [{"name": "bob"}]
        rows = db.query("SELECT name FROM t WHERE id = ?", [2])
        assert rows == [{"name": "cyd"}]

    def test_bound_values_do_not_leak_between_executions(self, db):
        _make_table(db)
        db.execute("INSERT INTO t (id, name) VALUES (?, ?)", [1, "a"])
        db.execute("INSERT INTO t (id, name) VALUES (?, ?)", [2, "b"])
        rows = db.query("SELECT id, name FROM t")
        assert sorted((r["id"], r["name"]) for r in rows) == [
            (1, "a"),
            (2, "b"),
        ]

    def test_update_and_delete_with_parameters(self, db):
        _make_table(db)
        db.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
        db.execute("INSERT INTO t (id, name) VALUES (2, 'b')")
        db.execute("UPDATE t SET name = ? WHERE id = ?", ["z", 1])
        assert db.query("SELECT name FROM t WHERE id = 1") == [{"name": "z"}]
        db.execute("DELETE FROM t WHERE id = ?", [2])
        assert db.query("SELECT id FROM t") == [{"id": 1}]

    def test_null_parameter_binds_as_sql_null(self, db):
        _make_table(db)
        db.execute("INSERT INTO t (id, name) VALUES (?, ?)", [1, None])
        assert db.query("SELECT name FROM t") == [{"name": None}]

    def test_arity_mismatch_raises(self, db):
        _make_table(db)
        with pytest.raises(DatabaseError, match="expects 2 parameter"):
            db.execute("INSERT INTO t (id, name) VALUES (?, ?)", [1])
        with pytest.raises(DatabaseError, match="expects 0 parameter"):
            db.query("SELECT * FROM t", [1])

    def test_parameter_containers_are_validated(self, db):
        _make_table(db)
        insert = db.prepare("INSERT INTO t (id, name) VALUES (?, ?)")
        # A string, an int, a dict or bytes is not a parameter list:
        # each used to insert its characters, raise a raw TypeError, or
        # bind a dict's keys.
        for bad in ("xy", 12, {"id": 1, "name": "a"}, b"xy"):
            with pytest.raises(DatabaseError, match="expects 2 parameter"):
                insert.execute(bad)
        assert db.query("SELECT * FROM t") == []
        insert.execute([1, "list"])
        insert.execute((2, "tuple"))
        insert.execute(range(3, 5))  # any other sequence
        assert sorted(r["id"] for r in db.query("SELECT id FROM t")) == [1, 2, 3]

    def test_parameters_rejected_in_ddl(self, db):
        with pytest.raises(DatabaseError):
            db.execute("DROP TABLE ?", ["t"])

    def test_prepare_api(self, db):
        _make_table(db)
        insert = db.prepare("INSERT INTO t (id, name) VALUES (?, ?)")
        assert insert.parameter_count == 2
        insert.execute([1, "a"])
        insert.execute([2, "b"])
        select = db.prepare("SELECT name FROM t WHERE id = ?")
        assert select.query([2]) == [{"name": "b"}]

    def test_prepare_surfaces_syntax_errors_eagerly(self, db):
        with pytest.raises(Exception):
            db.prepare("SELEKT * FROM t")


class TestInvalidation:
    def test_ddl_invalidates_cached_plans(self, db):
        """DROP+CREATE with a different shape must not serve stale plans
        (the grammar has no ALTER TABLE; this is the schema-change path).
        """
        _make_table(db)
        db.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
        assert db.query("SELECT * FROM t") == [{"id": 1, "name": "a"}]
        version = db.schema_version
        db.execute("DROP TABLE t")
        db.create_table(
            "t",
            [Column("id", INT, primary_key=True), Column("qty", INT)],
        )
        assert db.schema_version > version
        db.execute("INSERT INTO t (id, qty) VALUES (7, 70)")
        # The same SELECT text now reflects the new schema.
        assert db.query("SELECT * FROM t") == [{"id": 7, "qty": 70}]

    def test_ddl_purges_stale_entries_and_counts_them(self, db):
        _make_table(db)
        db.query("SELECT * FROM t")
        assert len(db.statement_cache) > 0
        before = db.statement_cache.stats["invalidations"]
        db.execute("CREATE INDEX ix_t_name ON t (name)")
        assert db.statement_cache.stats["invalidations"] > before
        # Only entries for the current schema version remain.
        current = db.schema_version
        assert all(
            key[1] == current for key in db.statement_cache._entries
        )

    def test_index_ddl_bumps_schema_version(self, db):
        _make_table(db)
        v0 = db.schema_version
        db.execute("CREATE INDEX ix_t_name ON t (name)")
        assert db.schema_version > v0
        v1 = db.schema_version
        db.execute("DROP INDEX ix_t_name ON t")
        assert db.schema_version > v1


class TestLruEviction:
    def test_capacity_bounds_entries_and_counts_evictions(self):
        db = Database(
            clock=SimulatedClock(start=1000.0), statement_cache_size=4
        )
        _make_table(db)
        for i in range(10):
            db.query(f"SELECT * FROM t WHERE id = {i}")
        assert len(db.statement_cache) <= 4
        assert db.statement_cache.stats["evictions"] >= 6

    def test_lru_order_keeps_hot_statements(self):
        cache = StatementCache(capacity=2)
        cache.lookup("SELECT 1", 0)
        cache.lookup("SELECT 2", 0)
        cache.lookup("SELECT 1", 0)  # refresh 1
        cache.lookup("SELECT 3", 0)  # evicts 2
        misses = cache.stats["misses"]
        cache.lookup("SELECT 1", 0)
        assert cache.stats["misses"] == misses  # still cached
        cache.lookup("SELECT 2", 0)
        assert cache.stats["misses"] == misses + 1  # was evicted
