"""``?`` values belong to one execution of a cached template.

A template is compiled once and planned once per schema version; each
execution installs its own values, on its own thread, for the span of
the statement.  These tests hold that design to its contract: values
never leak between threads or nested statements, a statement with ``?``
behaves exactly as the same statement with its values written in as
literals (rows, rowcounts, errors and ``EXPLAIN`` text), nothing
memoized on a template remembers one execution's values, and a plan
follows the indexes the schema has.
"""

from __future__ import annotations

import random
import re
import threading
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.expr import compile_predicate
from repro.db.sql import executor
from repro.db.sql.parser import parse_expression
from repro.db.triggers import TriggerEvent, TriggerTiming
from tests.db.test_columnar_equivalence import (
    AGGREGATES,
    WHERE_SHAPES,
    assert_rows_equal,
    build_db,
)


def sql_literal(value):
    """``value`` written as a SQL literal (a negative number parses as a
    negated literal, which the planner reads as the value)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + value.replace("'", "''") + "'"


def inline(sql, values):
    """``sql`` with each ``?`` replaced, in order, by its value's literal."""
    pieces = sql.split("?")
    assert len(pieces) == len(values) + 1
    out = [pieces[0]]
    for value, piece in zip(values, pieces[1:]):
        out += [sql_literal(value), piece]
    return "".join(out)


def outcome(db, sql, values=None):
    try:
        result = db.execute(sql, values)
    except Exception as exc:  # compared, type and message, across sides
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result.columns, result.rows, result.rowcount)


# --------------------------------------------------------------------------
# Values are per thread and per statement
# --------------------------------------------------------------------------


def test_threads_blocked_mid_statement_keep_their_own_values():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t (id, v) VALUES (1, 0)")
    db.execute("INSERT INTO t (id, v) VALUES (2, 0)")
    update = db.prepare("UPDATE t SET v = ? WHERE id = ?")
    holder = db.connect()
    holder.begin()
    holder.execute("SELECT v FROM t")  # a shared lock on t until commit
    errors = []

    def run(value, row_id):
        # Each thread on its own connection, both on the one cached
        # template: the values are installed before the table lock is
        # requested, so both wait holding them.
        try:
            db.connect().execute(update.sql, [value, row_id])
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(10, 1)),
        threading.Thread(target=run, args=(20, 2)),
    ]
    for thread in threads:
        thread.start()
    waiters = db.locks._locks[("table", "t")].waiters
    deadline = time.monotonic() + 3.0
    while len(waiters) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert len(waiters) == 2, "both updates should be waiting on the lock"
    holder.commit()
    for thread in threads:
        thread.join(timeout=10)
    assert not errors
    assert db.query("SELECT id, v FROM t ORDER BY id") == [
        {"id": 1, "v": 10},
        {"id": 2, "v": 20},
    ]


def test_a_statement_run_by_a_trigger_reads_its_own_values(db):
    db.execute("CREATE TABLE t (k INT, v TEXT)")
    db.execute("CREATE TABLE log (k INT, note TEXT)")
    counted = []

    def on_insert(ctx):
        # Two parameterized statements inside the outer INSERT, which has
        # rows still to evaluate from its own values.
        k = ctx.new_row["k"] * 100
        ctx.connection.execute("INSERT INTO log (k, note) VALUES (?, ?)", [k, "inner"])
        counted.append(
            ctx.connection.query("SELECT count(*) AS n FROM log WHERE k = ?", [k])
        )

    db.create_trigger(
        "t_log", "t", timing=TriggerTiming.AFTER, event=TriggerEvent.INSERT,
        action=on_insert,
    )
    db.execute(
        "INSERT INTO t (k, v) VALUES (?, ?), (?, ?), (?, ?)", [1, "a", 2, "b", 3, "c"]
    )
    assert db.query("SELECT k, v FROM t") == [
        {"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 3, "v": "c"},
    ]
    assert db.query("SELECT k, note FROM log") == [
        {"k": 100, "note": "inner"},
        {"k": 200, "note": "inner"},
        {"k": 300, "note": "inner"},
    ]
    assert counted == [[{"n": 1}]] * 3


def test_a_statement_run_by_a_commit_listener_reads_its_own_values(db):
    db.execute("CREATE TABLE t (k INT, v TEXT)")
    db.execute("CREATE TABLE side (k INT)")
    outer_running = []
    listening = []
    heard = []

    def listener(_transaction):
        # The listener's own query commits too; it is not listened to.
        if outer_running and not listening:
            listening.append(True)
            try:
                heard.append(db.connect().query("SELECT k FROM side WHERE k = ?", [7]))
            finally:
                listening.clear()

    def on_insert(ctx):
        outer_running.append(True)
        # Autocommits on its own connection, so the commit listener runs
        # while the outer INSERT is still executing.
        db.connect().execute("INSERT INTO side (k) VALUES (?)", [7])

    db.add_commit_listener(listener)
    db.create_trigger(
        "t_side", "t", timing=TriggerTiming.AFTER, event=TriggerEvent.INSERT,
        action=on_insert,
    )
    db.execute("INSERT INTO t (k, v) VALUES (?, ?), (?, ?)", [1, "a", 2, "b"])
    outer_running.clear()
    assert db.query("SELECT k, v FROM t") == [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}]
    # One per side commit inside the outer INSERT, then the outer's own.
    assert heard == [[{"k": 7}], [{"k": 7}] * 2, [{"k": 7}] * 2]


def test_parameters_bind_inside_subqueries(db):
    db.execute("CREATE TABLE t (k INT, v TEXT)")
    db.execute("CREATE TABLE u (k INT)")
    for k in range(6):
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", [k, f"v{k}"])
    db.execute("INSERT INTO u (k) VALUES (2), (4), (5)")
    sql = (
        "SELECT v FROM t WHERE k IN (SELECT k FROM u WHERE k > ?) AND k < ?"
        " AND EXISTS (SELECT k FROM u WHERE k = ?)"
    )
    assert db.query(sql, [2, 5, 4]) == [{"v": "v4"}]
    assert db.query(sql, [1, 9, 5]) == [{"v": "v2"}, {"v": "v4"}, {"v": "v5"}]
    assert db.query(sql, [1, 9, 3]) == []


# --------------------------------------------------------------------------
# Prepared is inlined
# --------------------------------------------------------------------------

BIG_INTS = [2**53, 2**53 + 1, -(2**53) - 1, 2**63, 2**64 + 3]
TEXTS = ["a", "it's", "7", ""]

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-20, 20),
    st.sampled_from(BIG_INTS),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(-20, 20, allow_nan=False).map(lambda f: round(f, 2)),
    st.sampled_from(TEXTS),
)

#: ``{c}`` is the column the shape constrains: ``h`` has a hash index,
#: ``o`` and ``r`` ordered ones, ``n`` and ``s`` none.
SHAPES = [
    "SELECT id, n FROM p WHERE {c} = ?",
    "SELECT id FROM p WHERE ? = {c}",
    "SELECT id FROM p WHERE {c} IN (?, ?, ?)",
    "SELECT id FROM p WHERE {c} NOT IN (?, ?)",
    "SELECT id FROM p WHERE {c} BETWEEN ? AND ?",
    "SELECT id FROM p WHERE {c} > ? AND {c} <= ?",
    "SELECT id FROM p WHERE {c} >= ? AND ? > {c} AND {c} > ? AND n < ?",
    "SELECT id FROM p WHERE n = ? AND {c} < ?",
    "SELECT id FROM p WHERE {c} LIKE ?",
    "SELECT count(*) AS k, sum(n) AS total FROM p WHERE {c} >= ?",
    "UPDATE p SET n = ? WHERE {c} = ?",
    "UPDATE p SET s = ? WHERE {c} BETWEEN ? AND ?",
    "DELETE FROM p WHERE {c} > ? AND {c} < ?",
]
COLUMNS = ["h", "o", "r", "n", "s"]


def build_p(rows=24, table_seed=46):
    rng = random.Random(table_seed)
    db = Database()
    db.execute("CREATE TABLE p (id INT PRIMARY KEY, h INT, o INT, n INT, r REAL, s TEXT)")
    db.execute("CREATE INDEX ix_p_h ON p (h) USING HASH")
    db.execute("CREATE INDEX ix_p_o ON p (o)")
    db.execute("CREATE INDEX ix_p_r ON p (r)")
    ints = [None, 0, 1, -1, 7, 13, -20, *BIG_INTS]
    reals = [None, 0.0, 1.5, -2.5, 7.0, 1e16, 9007199254740992.0]
    for i in range(rows):
        db.insert_row(
            "p",
            {"id": i, "h": rng.choice(ints), "o": rng.choice(ints),
             "n": rng.choice(ints), "r": rng.choice(reals), "s": rng.choice(TEXTS)},
        )
    return db


def scan_ids(db, where):
    predicate = compile_predicate(parse_expression(where))
    return sorted(row["id"] for _rowid, row in db.catalog.table("p").scan() if predicate(row))


@seed(4646)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(SHAPES),
    st.sampled_from(COLUMNS),
    st.lists(values, min_size=4, max_size=4),
)
def test_prepared_statement_equals_its_inlined_twin(shape, column, pool):
    template = shape.format(c=column)
    params = pool[: template.count("?")]
    inlined = inline(template, params)
    prepared_db, inlined_db = build_p(), build_p()
    fast_before = executor.VECTOR_STATS["fast_path"]
    prepared = outcome(prepared_db, template, params)
    fast_prepared = executor.VECTOR_STATS["fast_path"] - fast_before
    fast_before = executor.VECTOR_STATS["fast_path"]
    expected = outcome(inlined_db, inlined)
    assert fast_prepared == executor.VECTOR_STATS["fast_path"] - fast_before
    assert prepared == expected, inlined
    if not template.startswith("SELECT count"):
        assert outcome(prepared_db, f"EXPLAIN {template}", params) == outcome(
            inlined_db, f"EXPLAIN {inlined}"
        ), inlined
    everything = "SELECT * FROM p ORDER BY id"
    assert prepared_db.query(everything) == inlined_db.query(everything)
    # Planning never changes results: an index path answers what a scan
    # with the same WHERE answers.
    if template.startswith("SELECT id") and prepared[0] == "ok":
        where = inlined.split(" WHERE ", 1)[1]
        assert sorted(row["id"] for row in prepared[2]) == scan_ids(prepared_db, where)


@pytest.mark.columnar
@pytest.mark.parametrize("seed_", [11])
def test_columnar_where_shapes_with_parameters(seed_):
    """Every WHERE shape of the columnar equivalence grid, with ``?`` in
    place of its literals, stays on the fast path and answers as the
    inlined statement and the row path do."""
    db = build_db(seed_, rows=300)
    select_list = ", ".join(AGGREGATES)
    literal = re.compile(r"'(?:[^']|'')*'|\b\d+(?:\.\d+)?\b")
    for where in WHERE_SHAPES[1:]:
        params = [
            token[1:-1].replace("''", "'") if token.startswith("'")
            else float(token) if "." in token else int(token)
            for token in literal.findall(where)
        ]
        template = f"SELECT {select_list} FROM events WHERE {literal.sub('?', where)}"
        inlined = f"SELECT {select_list} FROM events WHERE {where}"
        before = executor.VECTOR_STATS["fast_path"]
        fast = db.query(template, params)
        assert executor.VECTOR_STATS["fast_path"] == before + 1, template
        assert_rows_equal(fast, db.query(inlined), template)
        previous = executor.set_vectorized(False)
        try:
            slow = db.query(template, params)
        finally:
            executor.set_vectorized(previous)
        assert_rows_equal(fast, slow, template)


@pytest.mark.columnar
def test_no_template_memo_keeps_one_executions_values():
    db = build_db(29, rows=300)
    # Index paths too: the plan's key and bounds are read per execution.
    db.execute("CREATE INDEX ix_events_val ON events (val)")
    db.execute("CREATE INDEX ix_events_grp ON events (grp) USING HASH")
    statements = [
        # columnar: kernels are compiled with each execution's values
        "SELECT grp, count(*) AS n, sum(val) AS s FROM events"
        " WHERE val > ? AND note = ? GROUP BY grp",
        "SELECT count(*) AS n FROM events WHERE val BETWEEN ? AND ? OR grp = ?",
        # row path: closures read the installed values
        "SELECT id FROM events WHERE val > ? AND note = ? ORDER BY id",  # range
        "SELECT id, val * ? AS scaled FROM events WHERE grp IN (?, ?) ORDER BY id",
        "SELECT id FROM events WHERE grp = ? AND val >= ? ORDER BY id",
    ]
    runs = {
        statements[0]: [[50, "x"], [-50, "zzz"], [50, "x"]],
        statements[1]: [[0, 10, "beta"], [-90, -80, "alpha"], [0, 10, "beta"]],
        statements[2]: [[10, "yy"], [90, "x"], [10, "yy"]],
        statements[3]: [[2, "alpha", "beta"], [-1, "gamma", "delta"], [2, "alpha", "beta"]],
        statements[4]: [["alpha", 50], ["beta", -50], ["alpha", 50]],
    }
    for sql, executions in runs.items():
        prepared = db.prepare(sql)
        answers = []
        for params in executions:
            answer = prepared.query(params)
            assert answer == db.query(inline(sql, params)), (sql, params)
            answers.append(answer)
        assert answers[0] != answers[1] and answers[0] == answers[2], sql


def test_index_ddl_between_executions_switches_the_plan(db):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, qty INT)")
    for i in range(30):
        db.execute("INSERT INTO t (id, name, qty) VALUES (?, ?, ?)", [i, f"n{i % 7}", i % 5])
    select = db.prepare("SELECT id FROM t WHERE name = ? AND qty >= ?")
    explain = db.prepare("EXPLAIN SELECT id FROM t WHERE name = ? AND qty >= ?")
    params = ["n3", 2]
    plans, answers = [], []
    for ddl in [
        None,
        "CREATE INDEX ix_t_name ON t (name) USING HASH",
        "DROP INDEX ix_t_name ON t",
        "CREATE INDEX ix_t_qty ON t (qty)",
    ]:
        if ddl is not None:
            db.execute(ddl)
        plans.append(explain.query(params)[0]["operation"])
        answers.append(sorted(row["id"] for row in select.query(params)))
    assert plans == [
        "SCAN t",
        "INDEX LOOKUP t.name = 'n3' USING ix_t_name",
        "SCAN t",
        "INDEX RANGE t.qty [2, None] USING ix_t_qty",
    ]
    assert answers == [answers[0]] * 4 and answers[0]


def test_a_rolled_back_create_index_leaves_no_plan_behind(db):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
    db.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
    select = db.prepare("SELECT id FROM t WHERE name = ?")
    conn = db.connect()
    conn.begin()
    conn.execute("CREATE INDEX ix_t_name ON t (name)")
    assert conn.query(select.sql, ["a"]) == [{"id": 1}]  # planned on the index
    conn.rollback()
    assert select.query(["a"]) == [{"id": 1}]
    assert db.query(f"EXPLAIN {select.sql}", ["a"])[0]["operation"] == "SCAN t"
