"""Schema validation and row coercion."""

import pytest

from repro.db.schema import Column, TableSchema, validate_identifier
from repro.db.sql.parser import parse_expression
from repro.db.types import INT, REAL, TEXT
from repro.errors import ConstraintViolation, SchemaError


def make_schema(**kwargs):
    return TableSchema(
        "t",
        [
            Column("id", INT, primary_key=True),
            Column("name", TEXT, nullable=False),
            Column("score", REAL, default=0.0),
        ],
        **kwargs,
    )


class TestIdentifiers:
    def test_lowercased(self):
        assert validate_identifier("MyTable") == "mytable"

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            validate_identifier("")

    def test_leading_digit_rejected(self):
        with pytest.raises(SchemaError):
            validate_identifier("1abc")

    def test_punctuation_rejected(self):
        with pytest.raises(SchemaError):
            validate_identifier("a-b")


class TestColumn:
    def test_primary_key_implies_not_null_unique(self):
        column = Column("id", INT, primary_key=True)
        assert not column.nullable
        assert column.unique

    def test_callable_default(self):
        counter = iter(range(10))
        column = Column("seq", INT, default=lambda: next(counter))
        assert column.default_value() == 0
        assert column.default_value() == 1


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INT), Column("A", INT)])

    def test_two_primary_keys_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", INT, primary_key=True), Column("b", INT, primary_key=True)],
            )

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_column_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.column("NAME").name == "name"

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_schema().column("missing")

    def test_unique_columns_includes_pk(self):
        assert make_schema().unique_columns() == ["id"]


class TestCoerceRow:
    def test_defaults_applied(self):
        row = make_schema().coerce_row({"id": 1, "name": "x"})
        assert row == {"id": 1, "name": "x", "score": 0.0}

    def test_values_coerced(self):
        row = make_schema().coerce_row({"id": "5", "name": "x", "score": "1.5"})
        assert row["id"] == 5
        assert row["score"] == 1.5

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().coerce_row({"id": 1, "name": "x", "extra": 1})

    def test_not_null_enforced(self):
        with pytest.raises(ConstraintViolation):
            make_schema().coerce_row({"id": 1, "name": None})

    def test_missing_not_null_without_default_rejected(self):
        with pytest.raises(ConstraintViolation):
            make_schema().coerce_row({"id": 1})

    def test_check_constraint_enforced(self):
        schema = make_schema(checks=[parse_expression("score >= 0")])
        schema.enforce_checks(schema.coerce_row({"id": 1, "name": "x", "score": 1.0}))
        with pytest.raises(ConstraintViolation):
            schema.enforce_checks(
                schema.coerce_row({"id": 1, "name": "x", "score": -1.0})
            )

    def test_check_passes_on_null(self):
        # SQL semantics: CHECK with UNKNOWN result does not fail.
        schema = TableSchema(
            "t",
            [Column("a", INT)],
            checks=[parse_expression("a > 0")],
        )
        schema.enforce_checks(schema.coerce_row({"a": None}))


class TestCoerceUpdate:
    def test_partial_coercion(self):
        assert make_schema().coerce_update({"score": "2"}) == {"score": 2.0}

    def test_not_null_enforced_on_update(self):
        with pytest.raises(ConstraintViolation):
            make_schema().coerce_update({"name": None})

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().coerce_update({"bogus": 1})
