"""Column types and value coercion for the embedded database.

Each type is a singleton :class:`ColumnType` instance that knows how to
coerce Python values into its canonical representation and how to
compare for index ordering.  ``None`` is the SQL NULL and is accepted by
every type; nullability is enforced at the schema layer, not here.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.errors import TypeMismatchError


class ColumnType:
    """A database column type.

    Instances are immutable singletons (``INT``, ``REAL``, ...) shared
    by every schema.  Equality is identity; the parser maps SQL type
    names onto these singletons via :func:`type_by_name`.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to this type's canonical representation.

        Raises :class:`TypeMismatchError` when the value cannot be
        represented without information loss (e.g. ``"abc"`` as INT).
        ``None`` always passes through as SQL NULL.
        """
        if value is None:
            return None
        return self._coerce(value)

    def _coerce(self, value: Any) -> Any:
        raise NotImplementedError


class IntType(ColumnType):
    def _coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            raise TypeMismatchError(f"cannot store non-integral {value!r} as INT")
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                raise TypeMismatchError(f"cannot parse {value!r} as INT") from None
        raise TypeMismatchError(f"cannot store {type(value).__name__} as INT")


class RealType(ColumnType):
    def _coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            result = float(value)
            if math.isnan(result):
                raise TypeMismatchError("NaN is not storable as REAL; use NULL")
            return result
        if isinstance(value, str):
            try:
                return self._coerce(float(value))
            except ValueError:
                raise TypeMismatchError(f"cannot parse {value!r} as REAL") from None
        raise TypeMismatchError(f"cannot store {type(value).__name__} as REAL")


class TextType(ColumnType):
    def _coerce(self, value: Any) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, float, bool)):
            return str(value)
        raise TypeMismatchError(f"cannot store {type(value).__name__} as TEXT")


class BoolType(ColumnType):
    def _coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1"):
                return True
            if lowered in ("false", "f", "0"):
                return False
            raise TypeMismatchError(f"cannot parse {value!r} as BOOL")
        raise TypeMismatchError(f"cannot store {type(value).__name__} as BOOL")


class TimestampType(ColumnType):
    """Timestamps are stored as float seconds (application time)."""

    def _coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            raise TypeMismatchError("cannot store BOOL as TIMESTAMP")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise TypeMismatchError(
                    f"cannot parse {value!r} as TIMESTAMP"
                ) from None
        raise TypeMismatchError(f"cannot store {type(value).__name__} as TIMESTAMP")


class JsonType(ColumnType):
    """Arbitrary JSON-serializable payloads (used by queue tables)."""

    def _coerce(self, value: Any) -> Any:
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            raise TypeMismatchError(
                f"value of type {type(value).__name__} is not JSON-serializable"
            ) from None
        return value


INT = IntType("INT")
REAL = RealType("REAL")
TEXT = TextType("TEXT")
BOOL = BoolType("BOOL")
TIMESTAMP = TimestampType("TIMESTAMP")
JSON = JsonType("JSON")

_TYPES_BY_NAME = {
    "INT": INT,
    "INTEGER": INT,
    "BIGINT": INT,
    "REAL": REAL,
    "FLOAT": REAL,
    "DOUBLE": REAL,
    "TEXT": TEXT,
    "VARCHAR": TEXT,
    "STRING": TEXT,
    "BOOL": BOOL,
    "BOOLEAN": BOOL,
    "TIMESTAMP": TIMESTAMP,
    "JSON": JSON,
}


def type_by_name(name: str) -> ColumnType:
    """Resolve a SQL type name (case-insensitive) to its singleton."""
    try:
        return _TYPES_BY_NAME[name.upper()]
    except KeyError:
        raise TypeMismatchError(f"unknown column type {name!r}") from None


def compare_values(left: Any, right: Any) -> int:
    """Three-way comparison used by ordered indexes and ORDER BY.

    NULL sorts before every non-NULL value (SQL "NULLS FIRST").
    Mixed numeric types compare numerically; any other cross-type
    comparison falls back to comparing type names so sorting is total.
    """
    if left is None and right is None:
        return 0
    if left is None:
        return -1
    if right is None:
        return 1
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return (left > right) - (left < right)
    if type(left) is type(right):
        try:
            return (left > right) - (left < right)
        except TypeError:
            pass
    left_key, right_key = type(left).__name__, type(right).__name__
    return (left_key > right_key) - (left_key < right_key)


def equality_key(value: Any) -> Any:
    """Fold a value for hash buckets that stand in for SQL ``=``.

    ``1``, ``1.0`` and ``True`` are equal under :func:`compare_values`,
    so bools and integral floats fold to ``int``; other values are
    returned as they are (still unhashable if they were).  NaN keeps its
    own identity although ``compare_values`` calls it equal to every
    number: hash buckets cannot reproduce that, and callers say so.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value
