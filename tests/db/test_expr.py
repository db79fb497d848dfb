"""Expression evaluation: three-valued logic, operators, functions,
serialization, and the analysis hooks the rule index relies on."""

import pytest

from repro.db.expr import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
    compile_predicate,
    conjuncts,
    expression_from_dict,
    expression_to_dict,
    register_function,
)
from repro.db.sql.parser import parse_expression
from repro.errors import ExpressionError


def ev(text, row=None):
    return parse_expression(text).evaluate(row or {})


class TestComparisons:
    @pytest.mark.parametrize("text,expected", [
        ("1 = 1", True), ("1 = 2", False), ("1 != 2", True),
        ("2 < 3", True), ("3 <= 3", True), ("4 > 5", False),
        ("'a' < 'b'", True), ("1 = 1.0", True), ("2 <> 2", False),
    ])
    def test_literals(self, text, expected):
        assert ev(text) is expected

    def test_null_comparison_is_unknown(self):
        assert ev("NULL = 1") is None
        assert ev("1 < NULL") is None
        assert ev("NULL != NULL") is None


class TestBooleanLogic:
    def test_and_truth_table(self):
        assert ev("TRUE AND TRUE") is True
        assert ev("TRUE AND FALSE") is False
        assert ev("FALSE AND NULL") is False  # FALSE absorbs UNKNOWN
        assert ev("TRUE AND NULL") is None
        assert ev("NULL AND NULL") is None

    def test_or_truth_table(self):
        assert ev("FALSE OR TRUE") is True
        assert ev("FALSE OR FALSE") is False
        assert ev("TRUE OR NULL") is True  # TRUE absorbs UNKNOWN
        assert ev("FALSE OR NULL") is None

    def test_not(self):
        assert ev("NOT TRUE") is False
        assert ev("NOT NULL") is None

    def test_and_short_circuits(self):
        # The right side would raise (unknown column) if evaluated.
        expression = parse_expression("FALSE AND missing_column = 1")
        assert expression.evaluate({}) is False


class TestArithmetic:
    @pytest.mark.parametrize("text,expected", [
        ("1 + 2", 3), ("5 - 3", 2), ("4 * 2.5", 10.0),
        ("7 / 2", 3.5), ("7 % 3", 1), ("-(3)", -3), ("2 + 3 * 4", 14),
        ("(2 + 3) * 4", 20),
    ])
    def test_values(self, text, expected):
        assert ev(text) == expected

    def test_null_propagates(self):
        assert ev("1 + NULL") is None

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            ev("1 / 0")

    @pytest.mark.parametrize("text", ["5 % 0", "a % 0", "a % (1 - 1)", "5.5 % 0"])
    def test_modulo_by_zero_raises_expression_error(self, text):
        with pytest.raises(ExpressionError, match="division by zero"):
            ev(text, {"a": 7})

    @pytest.mark.parametrize("text", ["-'x'", "-c", "5 / 'x'", "c % 2"])
    def test_operator_on_text_raises_expression_error(self, text):
        with pytest.raises(ExpressionError, match="not applicable"):
            ev(text, {"c": "x"})

    def test_concat(self):
        assert ev("'a' || 'b' || 'c'") == "abc"


class TestPredicates:
    def test_in_list(self):
        assert ev("2 IN (1, 2, 3)") is True
        assert ev("5 IN (1, 2, 3)") is False
        assert ev("5 NOT IN (1, 2)") is True

    def test_in_with_null_member(self):
        assert ev("5 IN (1, NULL)") is None  # maybe it's the NULL
        assert ev("1 IN (1, NULL)") is True

    def test_null_in_anything_is_unknown(self):
        assert ev("NULL IN (1, 2)") is None

    def test_between(self):
        assert ev("5 BETWEEN 1 AND 10") is True
        assert ev("0 BETWEEN 1 AND 10") is False
        assert ev("0 NOT BETWEEN 1 AND 10") is True
        assert ev("NULL BETWEEN 1 AND 2") is None

    def test_like(self):
        assert ev("'hello' LIKE 'he%'") is True
        assert ev("'hello' LIKE 'h_llo'") is True
        assert ev("'hello' LIKE 'x%'") is False
        assert ev("'hello' NOT LIKE 'x%'") is True

    def test_like_escapes_regex_chars(self):
        assert ev("'a.b' LIKE 'a.b'") is True
        assert ev("'axb' LIKE 'a.b'") is False  # dot is literal

    def test_is_null(self):
        assert ev("NULL IS NULL") is True
        assert ev("1 IS NULL") is False
        assert ev("1 IS NOT NULL") is True


class TestCase:
    def test_branches(self):
        text = "CASE WHEN x > 10 THEN 'big' WHEN x > 5 THEN 'mid' ELSE 'small' END"
        assert ev(text, {"x": 20}) == "big"
        assert ev(text, {"x": 7}) == "mid"
        assert ev(text, {"x": 1}) == "small"

    def test_no_else_yields_null(self):
        assert ev("CASE WHEN FALSE THEN 1 END") is None


class TestFunctions:
    @pytest.mark.parametrize("text,expected", [
        ("abs(-5)", 5), ("length('abcd')", 4), ("upper('ab')", "AB"),
        ("lower('AB')", "ab"), ("round(2.567, 2)", 2.57),
        ("coalesce(NULL, NULL, 3)", 3), ("nullif(2, 2)", None),
        ("substr('hello', 2, 3)", "ell"), ("min(3, 1)", 1), ("max(3, 1)", 3),
        ("sign(-9)", -1), ("floor(2.7)", 2), ("ceil(2.1)", 3),
        ("trim('  x  ')", "x"), ("instr('hello', 'll')", 3),
    ])
    def test_standard(self, text, expected):
        assert ev(text) == expected

    def test_null_guard(self):
        assert ev("abs(NULL)") is None

    def test_unknown_function_rejected_at_parse(self):
        with pytest.raises(Exception):
            parse_expression("frobnicate(1)")

    def test_register_function(self):
        register_function("double_it", lambda x: x * 2)
        assert ev("double_it(21)") == 42

    def test_domain_error_wrapped(self):
        with pytest.raises(ExpressionError):
            ev("sqrt(-1)")


class TestColumnRef:
    def test_bare_lookup(self):
        assert ev("price * qty", {"price": 2.0, "qty": 3}) == 6.0

    def test_qualified_lookup(self):
        expression = parse_expression("t.price")
        assert expression.evaluate({"t.price": 9}) == 9
        assert expression.evaluate({"price": 7}) == 7  # falls back to bare

    def test_missing_column_raises(self):
        with pytest.raises(ExpressionError):
            ev("nope", {})

    def test_referenced_columns(self):
        expression = parse_expression("a + b > c AND lower(d) = 'x'")
        assert expression.referenced_columns() == {"a", "b", "c", "d"}


class TestAnalysis:
    def test_conjuncts_split(self):
        parts = conjuncts(parse_expression("a = 1 AND b > 2 AND c LIKE 'x%'"))
        assert len(parts) == 3

    def test_or_not_split(self):
        assert len(conjuncts(parse_expression("a = 1 OR b = 2"))) == 1

    def test_as_equality(self):
        assert parse_expression("a = 5").as_equality() == ("a", 5)
        assert parse_expression("5 = a").as_equality() == ("a", 5)
        assert parse_expression("a = b").as_equality() is None
        assert parse_expression("a > 5").as_equality() is None

    def test_as_range_lt(self):
        assert parse_expression("a < 5").as_range() == ("a", None, 5, False, False)

    def test_as_range_ge(self):
        assert parse_expression("a >= 5").as_range() == ("a", 5, None, True, False)

    def test_as_range_flipped(self):
        assert parse_expression("5 > a").as_range() == ("a", None, 5, False, False)

    def test_between_as_range(self):
        assert parse_expression("a BETWEEN 1 AND 9").as_range() == (
            "a", 1, 9, True, True,
        )

    def test_compile_predicate_maps_unknown_to_false(self):
        assert compile_predicate(parse_expression("NULL = 1"))({}) is False


class TestSerialization:
    @pytest.mark.parametrize("text", [
        "a = 1 AND b > 2",
        "price BETWEEN 1 AND 10 OR qty IN (1, 2, 3)",
        "name LIKE 'x%' AND note IS NOT NULL",
        "CASE WHEN a > 0 THEN 'p' ELSE 'n' END = 'p'",
        "abs(a - b) < 0.5",
        "NOT (a = 1)",
    ])
    def test_roundtrip_preserves_semantics(self, text):
        original = parse_expression(text)
        restored = expression_from_dict(expression_to_dict(original))
        rows = [
            {"a": 1, "b": 3, "price": 5, "qty": 2, "name": "xy", "note": "n"},
            {"a": -1, "b": 0, "price": 50, "qty": 9, "name": "zz", "note": None},
        ]
        for row in rows:
            assert original.evaluate(row) == restored.evaluate(row)

    def test_dict_is_json_stable(self):
        import json

        data = expression_to_dict(parse_expression("a = 1 AND b LIKE 'x%'"))
        assert json.loads(json.dumps(data)) == data

    def test_unknown_node_rejected(self):
        with pytest.raises(ExpressionError):
            expression_from_dict({"node": "mystery"})
