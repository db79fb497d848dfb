"""Equivalence suite: the vectorized columnar fast path must produce
the same results as the row path for every eligible aggregate query.

Strategy: build seeded tables with NULL-dense columns of every
vectorizable kind, run a grid of aggregate x WHERE-shape queries twice
— once with the fast path enabled, once forced onto the row path via
``set_vectorized(False)`` — and compare row sets.

Comparison policy: count/min/max (and sum/avg over the
exactly-representable values used here) must match exactly, including
result types (bool stays bool).  ``stddev`` tolerates relative 1e-12:
``np.add.reduceat`` does not reduce in sequential order, so the
two-pass vector formula and the row path's sequential sums can differ
in the last ulp.  That tolerance is the *contract* (documented in
docs/architecture.md), not test slack.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.db import columnar
from repro.db.database import Database
from repro.db.sql import executor


pytestmark = pytest.mark.columnar


def _close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b and type(a) is type(b)


def _sort_key(row):
    return sorted((key, repr(value)) for key, value in row.items())


def assert_rows_equal(fast, slow, query, *, ordered=False):
    assert len(fast) == len(slow), f"row count differs for {query!r}"
    if not ordered:
        fast = sorted(fast, key=_sort_key)
        slow = sorted(slow, key=_sort_key)
    for fast_row, slow_row in zip(fast, slow):
        assert set(fast_row) == set(slow_row), f"columns differ for {query!r}"
        for column in fast_row:
            assert _close(fast_row[column], slow_row[column]), (
                f"{query!r}: column {column!r} differs: "
                f"{fast_row[column]!r} != {slow_row[column]!r}"
            )


def run_both(db, query):
    """Run ``query`` on the fast path (asserting it actually engaged)
    and on the row path; returns (fast_rows, slow_rows)."""
    before = executor.VECTOR_STATS["fast_path"]
    fast = db.query(query)
    engaged = executor.VECTOR_STATS["fast_path"] > before
    previous = executor.set_vectorized(False)
    try:
        slow = db.query(query)
    finally:
        executor.set_vectorized(previous)
    return fast, slow, engaged


def build_db(seed, rows, null_density=0.3):
    """Seeded table with every vectorizable kind plus a JSON column
    (which is never vectorizable and must force fallback).

    Integer-valued REALs and small INTs keep sums exactly
    representable, so sum/avg compare exactly despite reduction-order
    differences.
    """
    rng = random.Random(seed)
    db = Database()
    db.execute(
        "CREATE TABLE events (id INT, grp TEXT, val INT, score REAL,"
        " flag BOOL, note TEXT, meta JSON)"
    )

    def maybe(value):
        return None if rng.random() < null_density else value

    for i in range(rows):
        db.execute(
            "INSERT INTO events (id, grp, val, score, flag, note, meta)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                i,
                maybe(rng.choice(["alpha", "beta", "gamma", "delta"])),
                maybe(rng.randint(-100, 100)),
                maybe(float(rng.randint(-50, 50))),
                maybe(rng.random() < 0.5),
                maybe(rng.choice(["x", "yy", "zzz", "zz_top"])),
                maybe({"k": i % 3}),
            ],
        )
    return db


AGGREGATES = [
    "count(*)",
    "count(val)",
    "sum(val)",
    "avg(val)",
    "min(val)",
    "max(val)",
    "stddev(val)",
    "sum(score)",
    "min(note)",
    "max(note)",
    "min(flag)",
    "max(flag)",
    "count(grp)",
]

WHERE_SHAPES = [
    None,
    "val > 0",
    "val >= -10 AND val <= 10",
    "grp = 'alpha'",
    "grp = 'alpha' OR grp = 'beta'",
    "val > 0 AND (grp = 'alpha' OR flag)",
    "val IS NULL",
    "val IS NOT NULL AND score IS NOT NULL",
    "note LIKE 'z%'",
    "note NOT LIKE '%y'",
    "grp IN ('alpha', 'gamma')",
    "grp NOT IN ('alpha', 'gamma')",
    "val BETWEEN -5 AND 25",
    "val NOT BETWEEN -5 AND 25",
    "NOT (val < 0)",
    "val % 7 = 3",
    "val + 10 > score",
    "val / 2 >= 12",
    "-val > 50",
    "flag",
    "NOT flag",
    "flag = 1",
    "grp > 'b'",
    "val > 'text'",  # cross-type: constant-sign comparison
    "0",
    "1",
]

GROUP_BYS = [None, "grp", "flag", "grp, flag", "val % 10"]


@pytest.mark.parametrize("seed", [11, 23])
def test_aggregate_where_grid(seed):
    db = build_db(seed, rows=400)
    select_list = ", ".join(AGGREGATES)
    engaged_count = 0
    for where in WHERE_SHAPES:
        query = f"SELECT {select_list} FROM events"
        if where:
            query += f" WHERE {where}"
        fast, slow, engaged = run_both(db, query)
        engaged_count += engaged
        assert_rows_equal(fast, slow, query)
    # Every shape in this grid is vector-eligible.
    assert engaged_count == len(WHERE_SHAPES)


@pytest.mark.parametrize("seed", [7])
def test_group_by_grid(seed):
    db = build_db(seed, rows=400)
    for group_by in GROUP_BYS[1:]:
        for where in [None, "val > 0", "note LIKE 'z%'", "0"]:
            query = (
                f"SELECT {group_by}, count(*), sum(val), avg(val),"
                f" min(score), max(note), stddev(val)"
                f" FROM events"
            )
            if where:
                query += f" WHERE {where}"
            query += f" GROUP BY {group_by}"
            fast, slow, engaged = run_both(db, query)
            assert engaged
            assert_rows_equal(fast, slow, query)


def test_group_by_ordering_and_having():
    db = build_db(31, rows=300)
    for query in [
        "SELECT grp, count(*) AS c FROM events GROUP BY grp ORDER BY c DESC",
        "SELECT grp, sum(val) AS s FROM events GROUP BY grp ORDER BY grp",
        "SELECT grp, count(*) FROM events GROUP BY grp HAVING count(*) > 40",
        "SELECT grp, avg(val) FROM events GROUP BY grp"
        " HAVING avg(val) IS NOT NULL ORDER BY grp",
        "SELECT grp, count(*) AS c FROM events GROUP BY grp"
        " ORDER BY c DESC LIMIT 2",
    ]:
        fast, slow, engaged = run_both(db, query)
        assert engaged
        assert_rows_equal(fast, slow, query, ordered="ORDER BY" in query)


def test_unordered_group_rows_match_row_path_order():
    """Without ORDER BY, group emission order is first-occurrence over
    the heap scan — the fast path must reproduce it exactly."""
    db = build_db(43, rows=250)
    query = "SELECT grp, flag, count(*) FROM events GROUP BY grp, flag"
    fast, slow, engaged = run_both(db, query)
    assert engaged
    assert_rows_equal(fast, slow, query, ordered=True)


def test_null_density_sweep():
    for density in (0.0, 0.5, 1.0):
        db = build_db(int(density * 100) + 3, rows=150, null_density=density)
        for query in [
            "SELECT count(val), sum(val), min(val), max(note), stddev(val)"
            " FROM events",
            "SELECT grp, count(*), avg(val) FROM events GROUP BY grp",
            "SELECT count(*) FROM events WHERE val > 0 OR flag",
        ]:
            fast, slow, _engaged = run_both(db, query)
            assert_rows_equal(fast, slow, f"{query} @density={density}")


def test_kleene_three_valued_logic():
    """AND/OR over NULL operands follow Kleene truth tables — compare
    against the row path on shapes designed to hit every cell."""
    db = build_db(57, rows=300, null_density=0.5)
    shapes = [
        "val > 0 AND score > 0",
        "val > 0 OR score > 0",
        "val > 0 AND score IS NULL",
        "val > 0 OR score IS NULL",
        "NOT (val > 0 AND score > 0)",
        "NOT (val > 0 OR score > 0)",
        "(val > 0 OR val <= 0) AND flag",  # tautology over non-NULL val
        "val > 0 AND val < 0",  # contradiction, NULL val stays UNKNOWN
        "flag AND NOT flag",
        "flag OR NOT flag",
    ]
    for where in shapes:
        query = f"SELECT count(*) FROM events WHERE {where}"
        fast, slow, engaged = run_both(db, query)
        assert engaged
        assert_rows_equal(fast, slow, query)


def test_empty_table_and_empty_groups():
    db = Database()
    db.execute("CREATE TABLE empty_t (a INT, b TEXT)")
    for query in [
        "SELECT count(*), sum(a), min(a), stddev(a) FROM empty_t",
        "SELECT b, count(*) FROM empty_t GROUP BY b",
        "SELECT count(*) FROM empty_t WHERE a > 0",
    ]:
        fast, slow, _engaged = run_both(db, query)
        assert_rows_equal(fast, slow, query)
    # count(*) over an empty table is one row of 0; GROUP BY emits none.
    assert db.query("SELECT count(*) FROM empty_t") == [{"count": 0}]
    assert db.query("SELECT b, count(*) FROM empty_t GROUP BY b") == []


def test_interleaved_dml_stays_consistent():
    """Insert-append, update/delete-patch, and rollback all leave the
    columnar projection consistent with the heap."""
    db = build_db(71, rows=200)
    query = "SELECT grp, count(*), sum(val), max(note) FROM events GROUP BY grp"

    def check(label):
        fast, slow, _engaged = run_both(db, query)
        assert_rows_equal(fast, slow, f"{query} [{label}]")

    check("initial")
    db.execute(
        "INSERT INTO events (id, grp, val, score, flag, note, meta)"
        " VALUES (9001, 'omega', 42, 1.0, 1, 'new-note', ?)",
        [None],
    )
    check("after insert (pending append)")
    db.execute("UPDATE events SET val = 0 WHERE grp = 'alpha'")
    check("after update (patch)")
    db.execute("DELETE FROM events WHERE val > 50")
    check("after delete (patch)")
    conn = db.connect()
    conn.execute("BEGIN")
    conn.execute("DELETE FROM events")
    conn.execute("ROLLBACK")
    check("after rolled-back delete")
    store = db.catalog.table("events").column_store()
    assert store.rebuilds >= 1


def test_distinct_aggregate_falls_back():
    db = build_db(83, rows=100)
    before = dict(executor.VECTOR_STATS)
    fast, slow, engaged = run_both(db, "SELECT count(DISTINCT grp) FROM events")
    assert not engaged
    assert executor.VECTOR_STATS["fallback_compile"] > before["fallback_compile"]
    assert_rows_equal(fast, slow, "count distinct")


def test_json_column_falls_back():
    db = build_db(89, rows=100)
    fast, slow, engaged = run_both(
        db, "SELECT count(*) FROM events WHERE meta IS NULL"
    )
    assert not engaged
    assert_rows_equal(fast, slow, "json predicate")


def test_parameterized_queries_match():
    db = build_db(97, rows=200)
    query = "SELECT grp, count(*), sum(val) FROM events WHERE val > ? GROUP BY grp"
    before = executor.VECTOR_STATS["fast_path"]
    fast = db.query(query, [5])
    previous = executor.set_vectorized(False)
    try:
        slow = db.query(query, [5])
    finally:
        executor.set_vectorized(previous)
    assert_rows_equal(fast, slow, query)
    # Bound parameters become literals before execution, so the fast
    # path may or may not engage depending on binding strategy — but
    # results must match either way (asserted above).
    del before


def test_huge_integer_constants():
    """Comparisons against out-of-int64-range constants must not
    diverge from the row path (numpy compares exactly; arithmetic on
    huge constants falls back at compile time)."""
    db = Database()
    db.execute("CREATE TABLE big (v INT)")
    for value in [0, 2**40, -(2**40), 17]:
        db.execute("INSERT INTO big (v) VALUES (?)", [value])
    for where in [
        f"v < {2**70}",
        f"v > {-(2**70)}",
        f"v = {2**70}",
        f"v + {2**70} > 0",  # arithmetic: compile-time fallback
    ]:
        query = f"SELECT count(*) FROM big WHERE {where}"
        fast, slow, _engaged = run_both(db, query)
        assert_rows_equal(fast, slow, query)


def test_unbounded_int_column_falls_back_at_runtime():
    """A column holding a Python int beyond int64 cannot be encoded;
    the whole statement must rerun on the row path, not error."""
    db = Database()
    db.execute("CREATE TABLE big (v INT)")
    db.execute("INSERT INTO big (v) VALUES (?)", [2**80])
    db.execute("INSERT INTO big (v) VALUES (?)", [5])
    query = "SELECT count(*), max(v) FROM big WHERE v > 0"
    fast, slow, engaged = run_both(db, query)
    assert not engaged
    assert_rows_equal(fast, slow, query)


# -- patched == rebuilt oracle ------------------------------------------------


def assert_store_matches_rebuild(table, label, dropped=()):
    """The maintained projection must be element for element what a
    fresh build over the same heap produces, in heap dict order.
    ``dropped`` names columns the live store gave up on (int64
    overflow) and is allowed to lack until its next rebuild."""
    live = table.column_store().batch()
    fresh = columnar.ColumnStore(table).batch()
    heap_rowids = [rowid for rowid, _row in table.scan_internal()]
    assert live.n == fresh.n == len(heap_rowids), label
    assert live.rowids.tolist() == heap_rowids, f"{label}: rowid order"
    assert fresh.rowids.tolist() == heap_rowids, label
    for name in columnar.vector_kinds(table.schema):
        ours, theirs = live.series(name), fresh.series(name)
        if ours is None:
            assert theirs is None or name in dropped, f"{label}: lost {name}"
            continue
        assert theirs is not None, f"{label}: {name} should not encode"
        assert ours.values.shape == (live.n,) and ours.values.dtype == theirs.values.dtype
        assert ours.nulls.tolist() == theirs.nulls.tolist(), f"{label}: {name} nulls"
        if ours.kind == "text":
            words = ours.dictionary.tolist()
            assert words == sorted(set(words)), f"{label}: {name} dictionary"
            valid = ~ours.nulls
            assert (
                ours.dictionary[ours.values[valid]].tolist()
                == theirs.dictionary[theirs.values[valid]].tolist()
            ), f"{label}: {name} text"
        else:  # numbers, including the zero fill under NULLs
            assert ours.values.tolist() == theirs.values.tolist(), f"{label}: {name}"


DML_STEPS = (
    "insert",
    "update_one",
    "update_bulk",
    "update_to_null",
    "update_from_null",
    "update_new_word",
    "delete_some",
    "rolled_back_update",
    "rolled_back_delete",
    "rolled_back_delete_all",
    "huge_int",
)


@pytest.mark.parametrize("seed", [211, 223, 227])
def test_random_dml_walk_patched_store_equals_rebuild(seed):
    rng = random.Random(seed)
    db = build_db(seed, rows=160)
    table = db.catalog.table("events")
    store = table.column_store()
    conn = db.connect()
    query = (
        "SELECT grp, count(*), sum(val), avg(score), min(note), max(flag)"
        " FROM events GROUP BY grp"
    )
    next_id = 10_000
    dropped = set()

    def some_id():
        return rng.choice([row["id"] for _rowid, row in table.scan_internal()])

    def step(kind):
        nonlocal next_id
        if kind == "insert":
            for _ in range(rng.randint(1, 5)):
                next_id += 1
                db.execute(
                    "INSERT INTO events (id, grp, val, score, flag, note, meta)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [next_id, rng.choice(["alpha", "beta", None]),
                     rng.randint(-100, 100), float(rng.randint(-50, 50)),
                     rng.random() < 0.5, rng.choice(["x", "zzz", None]), None],
                )
        elif kind == "update_one":
            db.execute(
                "UPDATE events SET val = ?, score = ?, flag = ? WHERE id = ?",
                [rng.randint(-100, 100), float(rng.randint(-50, 50)),
                 rng.random() < 0.5, some_id()],
            )
        elif kind == "update_bulk":
            db.execute(
                "UPDATE events SET val = ?, note = ? WHERE grp = ?",
                [rng.randint(-100, 100), rng.choice(["x", "yy"]),
                 rng.choice(["alpha", "beta", "gamma", "delta"])],
            )
        elif kind == "update_to_null":
            db.execute(
                "UPDATE events SET grp = NULL, val = NULL, score = NULL,"
                " flag = NULL WHERE id = ?",
                [some_id()],
            )
        elif kind == "update_from_null":
            db.execute("UPDATE events SET grp = 'gamma' WHERE grp IS NULL AND val > 0")
            db.execute("UPDATE events SET val = 7 WHERE val IS NULL AND score > 0")
        elif kind == "update_new_word":
            db.execute(
                "UPDATE events SET grp = ?, note = ? WHERE id = ?",
                [f"grp-{rng.randrange(10**6)}", f"a-note-{rng.randrange(10**6)}",
                 some_id()],
            )
        elif kind == "delete_some":
            db.execute("DELETE FROM events WHERE id = ?", [some_id()])
            db.execute("DELETE FROM events WHERE val = ?", [rng.randint(-100, 100)])
        elif kind == "rolled_back_update":
            conn.execute("BEGIN")
            conn.execute("UPDATE events SET val = 1, note = 'undone' WHERE flag")
            conn.execute("ROLLBACK")
        elif kind == "rolled_back_delete":
            # Undo re-inserts the victims at the end of the heap dict in
            # reverse order: rowids stop being ascending.
            conn.execute("BEGIN")
            conn.execute("DELETE FROM events WHERE grp = 'beta'")
            conn.execute("ROLLBACK")
        elif kind == "rolled_back_delete_all":
            conn.execute("BEGIN")
            conn.execute("DELETE FROM events")
            conn.execute("ROLLBACK")
        else:  # huge_int: beyond int64, the live store must drop ``val``
            victim = some_id()
            db.execute("UPDATE events SET val = ? WHERE id = ?", [2**80, victim])
            assert store.batch().series("val") is None
            dropped.add("val")
            assert_store_matches_rebuild(table, f"seed {seed} huge int", dropped)
            db.execute("UPDATE events SET val = 3 WHERE id = ?", [victim])

    db.query(query)  # first build
    assert_store_matches_rebuild(table, "initial")
    walk = list(DML_STEPS) * 4
    rng.shuffle(walk)
    for index, kind in enumerate(walk):
        before = store.rebuilds
        step(kind)
        label = f"seed {seed} step {index} {kind}"
        assert_store_matches_rebuild(table, label, dropped)
        if store.rebuilds > before:
            dropped.clear()  # a rebuild re-encodes every encodable column
        fast, slow, _engaged = run_both(db, query)
        assert_rows_equal(fast, slow, f"{query} [{label}]", ordered=True)
    # The walk is maintained by patching, not by rebuilding after every
    # write: only the delete-all steps outgrow the log.
    assert store.patched_rows > 0 and store.append_batches > 0
    assert store.rebuilds <= 1 + walk.count("rolled_back_delete_all")


def test_patches_apply_when_rowids_are_not_ascending():
    db = build_db(229, rows=120)
    table = db.catalog.table("events")
    store = table.column_store()
    db.query("SELECT count(*) FROM events")
    conn = db.connect()
    conn.execute("BEGIN")
    conn.execute("DELETE FROM events WHERE grp = 'alpha'")
    conn.execute("ROLLBACK")
    rowids = store.batch().rowids.tolist()
    assert rowids != sorted(rowids)
    db.execute("UPDATE events SET val = 99 WHERE grp = 'alpha'")
    db.execute("DELETE FROM events WHERE grp = 'gamma'")
    assert_store_matches_rebuild(table, "patched out of rowid order")
    assert store.rebuilds == 1


def test_text_dictionary_does_not_accumulate_dead_words():
    """Updates strand dictionary words; merging new ones drops them."""
    db = build_db(233, rows=100)
    table = db.catalog.table("events")
    store = table.column_store()
    for round_ in range(200):
        db.execute("UPDATE events SET note = ? WHERE id = 5", [f"note-{round_}"])
        assert store.batch().series("note").dictionary.shape[0] <= 6
    assert_store_matches_rebuild(table, "after 200 new words")
    assert store.rebuilds == 1


def test_interrupted_flush_falls_back_to_a_rebuild(monkeypatch):
    """A flush that dies half way (Ctrl-C) must not leave a half-patched
    projection behind: the store drops to dirty and rebuilds."""
    db = build_db(239, rows=80)
    table = db.catalog.table("events")
    store = table.column_store()
    db.query("SELECT count(*) FROM events")
    db.execute("UPDATE events SET val = 5 WHERE grp = 'alpha'")
    encode = store._encode_column

    def interrupted(name, kind, rows):
        if name == "score":
            raise KeyboardInterrupt
        return encode(name, kind, rows)

    monkeypatch.setattr(store, "_encode_column", interrupted)
    with pytest.raises(KeyboardInterrupt):
        store.batch()
    monkeypatch.undo()
    assert store.pending() == 0
    assert_store_matches_rebuild(table, "after interrupted flush")
    assert store.rebuilds == 2


# -- extreme values and text edge cases ---------------------------------------


def _extremes_db():
    db = Database()
    db.execute("CREATE TABLE t (id INT, score REAL, v INT)")
    for i, (score, v) in enumerate(
        [(1.0, 3), (float("inf"), 2**40), (1e308, 5), (7.0, 2**61)]
    ):
        db.execute("INSERT INTO t (id, score, v) VALUES (?, ?, ?)", [i, score, v])
    db.execute("CREATE TABLE big (grp TEXT, v INT)")
    for _ in range(4):
        db.execute("INSERT INTO big (grp, v) VALUES (?, ?)", ["a", 2**62])
    db.execute("CREATE TABLE w (id INT, v INT, r REAL)")
    db.execute("INSERT INTO w (id, v, r) VALUES (?, ?, ?)", [1, 2**53 + 1, 2.0**53])
    return db


EXTREME_QUERIES = [
    # int64 wraparound: Python ints do not wrap.
    "SELECT count(*) FROM t WHERE v * v > 100",
    "SELECT sum(v * v) FROM t",
    "SELECT count(*) FROM t WHERE v * 4 > 0",
    "SELECT sum(v), avg(v) FROM big",
    "SELECT grp, sum(v), avg(v) FROM big GROUP BY grp",
    "SELECT stddev(v) FROM big",
    # NaN from REAL arithmetic: compare_values calls it equal to numbers.
    "SELECT count(*) FROM t WHERE score * 0 = 5",
    "SELECT count(*) FROM t WHERE score * 10 - score * 10 = 1",
    "SELECT max(score * 0) FROM t",
    # ints beyond float64's exact range against floats.
    "SELECT count(*) FROM w WHERE v > r",
    "SELECT count(*) FROM w WHERE v > 9007199254740992.0",
    "SELECT count(*) FROM w WHERE v = 9007199254740992.0",
]


def _outcome(db, query, vectorized):
    previous = executor.set_vectorized(vectorized)
    try:
        return ("rows", db.query(query))
    except Exception as exc:  # the error itself is the result compared
        return ("error", type(exc), str(exc))
    finally:
        executor.set_vectorized(previous)


def test_extreme_values_match_row_path():
    db = _extremes_db()
    for query in EXTREME_QUERIES:
        fast, slow, _engaged = run_both(db, query)
        assert_rows_equal(fast, slow, query)


def test_text_edge_cases_match_row_path():
    db = Database()
    db.execute("CREATE TABLE s (id INT, grp TEXT, gone TEXT)")
    words = ["", "a", "b", "", None, "c", "d", None, "a"]
    for i, word in enumerate(words):
        db.execute("INSERT INTO s (id, grp, gone) VALUES (?, ?, ?)", [i, word, None])
    engaged_shapes = [
        "grp = ''",
        "grp LIKE ''",
        "grp LIKE '%'",
        "grp < 'a'",
        "grp IN ('', 'c')",
        "grp NOT IN ('', NULL)",
        "NOT grp",
        "grp > 'a' AND grp < 'd'",
        "grp BETWEEN '' AND 'b'",
        "grp IS NULL OR id > 4",
        "gone = 'a'",
        "gone IS NULL",
        "gone NOT LIKE 'x%'",
        "gone + 1 > 0",
    ]
    for where in engaged_shapes:
        for query in (
            f"SELECT count(*), min(grp), max(id) FROM s WHERE {where}",
            f"SELECT grp, count(*) FROM s WHERE {where} GROUP BY grp",
        ):
            fast, slow, engaged = run_both(db, query)
            assert engaged, query
            assert_rows_equal(fast, slow, query)
    query = "SELECT grp > 'a' AND grp < 'd', count(*) FROM s GROUP BY grp > 'a' AND grp < 'd'"
    fast, slow, engaged = run_both(db, query)
    assert engaged
    assert_rows_equal(fast, slow, query)


def test_two_comparisons_on_one_text_column_are_one_lowering(monkeypatch):
    from repro.db import expr_vector
    from repro.db.sql.parser import parse_expression

    lowered = []
    lower = expr_vector._vc_text_predicate

    def counting(node, name, np):
        lowered.append(name)
        return lower(node, name, np)

    monkeypatch.setattr(expr_vector, "_vc_text_predicate", counting)
    expr_vector.compile_vector_predicate(
        parse_expression("grp > 'a' AND grp < 'd'"), {"grp": "text"}
    )
    assert lowered == ["grp"]


def test_stranded_words_refuse_without_changing_the_answer():
    """An update strands 'alpha' in the dictionary; the predicate raises
    on it, but no row holds it, so the row path answers."""
    db = Database()
    db.execute("CREATE TABLE s (id INT, grp TEXT)")
    for i, word in enumerate(["alpha", "beta", "beta", None]):
        db.execute("INSERT INTO s (id, grp) VALUES (?, ?)", [i, word])
    db.query("SELECT count(*) FROM s")  # build the projection
    db.execute("UPDATE s SET grp = 'beta' WHERE grp = 'alpha'")
    store = db.catalog.table("s").column_store()
    assert "alpha" in store.batch().series("grp").dictionary.tolist()
    before = executor.VECTOR_STATS["fallback_runtime"]
    query = "SELECT count(*) FROM s WHERE grp = 'beta' OR grp + 1 > 0"
    fast, slow, engaged = run_both(db, query)
    assert not engaged
    assert executor.VECTOR_STATS["fallback_runtime"] > before
    assert fast == slow == [{"count": 3}]


def test_text_predicate_that_raises_raises_the_row_path_error():
    db = build_db(241, rows=60)
    for query in [
        "SELECT count(*) FROM events WHERE grp + 1 > 0",
        "SELECT grp, count(*) FROM events WHERE val > 0 AND grp + 1 > 0 GROUP BY grp",
        "SELECT sum(val) FROM events WHERE note LIKE 'z%' OR note - 2 = 4",
    ]:
        slow = _outcome(db, query, vectorized=False)
        assert slow[0] == "error", query
        assert _outcome(db, query, vectorized=True) == slow, query


def _same_outcome(fast, slow):
    if fast[0] != slow[0] or fast[0] == "error":
        return fast == slow
    if len(fast[1]) != len(slow[1]):
        return False
    for fast_row, slow_row in zip(fast[1], slow[1]):
        for column, value in fast_row.items():
            other = slow_row[column]
            both_nan = isinstance(value, float) and isinstance(other, float) and (
                math.isnan(value) and math.isnan(other)
            )
            if not (both_nan or _close(value, other)):
                return False
    return True


_EXTREME_INTS = [0, 1, -5, 7, 2**40, 2**53, 2**53 + 1, -(2**53) - 3, 2**61,
                 2**62, -(2**62), 2**63 - 1, -(2**63), None]
_EXTREME_REALS = [0.0, -0.0, 1.5, -2.5, 3.0, 1e308, float("inf"), float("-inf"),
                  2.0**53, None]
_NUMBER_LEAVES = ["v", "w", "r", "f", "1", "0", "3.5", "9007199254740993",
                  "4611686018427387904", "(1e308 * 10)", "'x'", "NULL", "TRUE"]


def _random_number(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice(_NUMBER_LEAVES)
    if roll < 0.6:
        op = rng.choice(["+", "-", "*"])
        return f"({_random_number(rng, depth - 1)} {op} {_random_number(rng, depth - 1)})"
    if roll < 0.8:
        op, divisor = rng.choice(["/", "%"]), rng.choice(["2", "3", "0.5", "-7"])
        return f"({_random_number(rng, depth - 1)} {op} {divisor})"
    return f"(-{_random_number(rng, depth - 1)})"


def _random_predicate(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"{_random_number(rng, 1)} {op} {_random_number(rng, 1)}"
    if roll < 0.55:
        op = rng.choice(["AND", "OR"])
        return f"({_random_predicate(rng, depth - 1)} {op} {_random_predicate(rng, depth - 1)})"
    if roll < 0.6:
        return f"NOT {_random_predicate(rng, depth - 1)}"
    if roll < 0.65:
        return f"{_random_number(rng, 1)} IN ({_random_number(rng, 0)}, {_random_number(rng, 0)})"
    if roll < 0.7:
        return f"{_random_number(rng, 1)} BETWEEN -1e308 AND 9007199254740993"
    if roll < 0.75:
        return f"{_random_number(rng, 1)} IS NULL"
    text = rng.choice(["s", "u"])
    return rng.choice([
        f"{text} >= 'a'", f"{text} = ''", f"{text} < 5", f"{text} LIKE 'a%'",
        f"{text} IN ('a', '', NULL)", f"NOT {text}", f"{text} + 1 > 0",
        f"({text} = 'a' OR {text} * 2 = 'aa')", f"{text} > v",
    ])


@pytest.mark.parametrize("seed", [0, 1])
def test_random_extreme_expressions_match_row_path(seed):
    """Random WHERE / aggregate / GROUP BY shapes over int64 and float
    extremes, infinities, NULLs and text: the vector path must answer —
    or raise — exactly what the row path does, or refuse."""
    rng = random.Random(seed)
    for _table in range(40):
        db = Database()
        db.execute("CREATE TABLE t (id INT, v INT, w INT, r REAL, f BOOL, s TEXT, u TEXT)")
        for i in range(rng.randint(0, 12)):
            db.execute(
                "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?)",
                [i, rng.choice(_EXTREME_INTS), rng.choice(_EXTREME_INTS),
                 rng.choice(_EXTREME_REALS), rng.choice([True, False, None]),
                 rng.choice(["", "a", "b", "alpha", "10", None]),
                 rng.choice(["", "a", None])],
            )
        for _query in range(10):
            argument = _random_number(rng, 1)
            aggregate = rng.choice([
                "count(*)", f"count({argument})", f"sum({argument})",
                f"avg({argument})", f"min({argument})", f"max({argument})",
                f"stddev({argument})", "min(s)", f"sum({_random_predicate(rng, 0)})",
            ])
            query = f"SELECT {aggregate} FROM t WHERE {_random_predicate(rng, 2)}"
            if rng.random() < 0.3:
                key = rng.choice(["s", "v", "f", "r", "v % 3", "s = 'a'"])
                query = (
                    f"SELECT {key}, {aggregate} FROM t"
                    f" WHERE {_random_predicate(rng, 2)} GROUP BY {key}"
                )
            fast = _outcome(db, query, vectorized=True)
            slow = _outcome(db, query, vectorized=False)
            assert _same_outcome(fast, slow), f"{query}\n{fast}\n{slow}"
