"""Access-path planning: choice and result-equivalence."""

import pytest

from repro.db.sql.parser import parse_expression
from repro.db.sql.planner import plan_access


@pytest.fixture
def table(orders_db):
    return orders_db.catalog.table("orders")


def rows_of(path):
    return sorted(rowid for rowid, _row in path.rows())


class TestPathChoice:
    def test_no_where_scans(self, table):
        assert plan_access(table, None).kind == "scan"

    def test_equality_uses_index(self, table):
        path = plan_access(table, parse_expression("symbol = 'IBM'"))
        assert path.kind == "index_eq"
        assert "ix_orders_symbol" in path.explain()

    def test_pk_equality_uses_unique_index(self, table):
        path = plan_access(table, parse_expression("id = 3"))
        assert path.kind == "index_eq"

    def test_range_uses_ordered_index(self, table):
        path = plan_access(table, parse_expression("price > 50"))
        assert path.kind == "index_range"
        assert path.low == 50 and path.high is None

    def test_range_bounds_merged(self, table):
        path = plan_access(
            table, parse_expression("price >= 20 AND price < 60")
        )
        assert path.kind == "index_range"
        assert (path.low, path.high) == (20, 60)
        assert path.low_inclusive and not path.high_inclusive

    def test_equality_preferred_over_range(self, table):
        path = plan_access(
            table, parse_expression("price > 50 AND symbol = 'IBM'")
        )
        assert path.kind == "index_eq"
        assert path.column == "symbol"

    def test_unindexed_column_scans(self, table):
        path = plan_access(table, parse_expression("account = 'a1'"))
        assert path.kind == "scan"

    def test_range_on_hash_only_column_scans(self, table):
        # symbol has only a hash index: a range on it cannot use it.
        path = plan_access(table, parse_expression("symbol > 'A'"))
        assert path.kind == "scan"

    def test_or_prevents_index(self, table):
        path = plan_access(
            table, parse_expression("symbol = 'IBM' OR price > 50")
        )
        assert path.kind == "scan"


class TestResultEquivalence:
    """Whatever path is chosen, results must match a full scan."""

    @pytest.mark.parametrize("where", [
        "symbol = 'IBM'",
        "price > 50",
        "price >= 20.25 AND price <= 55",
        "price BETWEEN 21 AND 99",
        "symbol = 'ORCL' AND qty > 60",
        "qty > 20 AND qty < 100 AND symbol != 'IBM'",
        "id = 4",
        "symbol = 'NONE'",
        "price < 0",
    ])
    def test_matches_scan(self, table, where):
        expression = parse_expression(where)
        chosen = plan_access(table, expression)
        baseline = [
            rowid
            for rowid, row in table.scan()
            if _predicate(expression, row)
        ]
        assert rows_of(chosen) == sorted(baseline)


def _predicate(expression, row):
    from repro.db.expr import compile_predicate

    return compile_predicate(expression)(row)


class TestExplain:
    def test_explain_strings(self, table):
        assert plan_access(table, None).explain() == "SCAN orders"
        eq = plan_access(table, parse_expression("symbol = 'IBM'"))
        assert "INDEX LOOKUP" in eq.explain()
        rng = plan_access(table, parse_expression("price BETWEEN 1 AND 2"))
        assert "INDEX RANGE" in rng.explain()
        assert "[1, 2]" in rng.explain()


class TestValuesThePlannerReads:
    def test_negative_literal_plans_like_its_parameter(self, table):
        path = plan_access(table, parse_expression("price >= -5 AND price < -1.5"))
        assert path.kind == "index_range"
        assert (path.low, path.high) == (-5, -1.5)

    def test_mixed_type_bounds_merge_without_raising(self, table):
        where = parse_expression("price > 5 AND price > 'abc'")
        path = plan_access(table, where)
        assert path.kind == "index_range" and path.low == "abc"
        assert rows_of(path) == []

    def test_exclusive_bounds_past_2_to_the_53_keep_their_rows(self, orders_db):
        orders_db.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        orders_db.execute("CREATE INDEX ix_big_v ON big (v)")
        for rowid, value in enumerate([2**53, 2**53 + 1, 2**53 + 2]):
            orders_db.execute("INSERT INTO big (id, v) VALUES (?, ?)", [rowid, value])
        # The index orders the three by one float key; the residual WHERE
        # must still see every row the interval holds.
        assert orders_db.query(f"SELECT id FROM big WHERE v > {2**53}") == [
            {"id": 1}, {"id": 2},
        ]
        assert orders_db.query(f"SELECT id FROM big WHERE v < {2**53 + 2}") == [
            {"id": 0}, {"id": 1},
        ]
        assert orders_db.query(
            f"SELECT id FROM big WHERE v > {2**53} AND v < {2**53 + 2}"
        ) == [{"id": 1}]
