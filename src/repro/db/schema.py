"""Table schemas: columns, constraints, row validation.

A :class:`TableSchema` owns column definitions and applies all
row-level constraints except UNIQUE/PRIMARY KEY uniqueness, which needs
table state and therefore lives in the storage layer (it is *declared*
here and *enforced* there via unique indexes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.db.types import ColumnType
from repro.errors import ConstraintViolation, SchemaError

if TYPE_CHECKING:
    from repro.db.expr import Expression

_VALID_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def validate_identifier(name: str, kind: str = "identifier") -> str:
    """Validate and normalize (lowercase) a table/column/index name."""
    if not name:
        raise SchemaError(f"{kind} name must be non-empty")
    lowered = name.lower()
    if lowered[0].isdigit():
        raise SchemaError(f"{kind} name {name!r} must not start with a digit")
    if not set(lowered) <= _VALID_NAME_CHARS:
        raise SchemaError(f"{kind} name {name!r} contains invalid characters")
    return lowered


@dataclass
class Column:
    """A single column definition.

    ``default`` may be a constant or a zero-argument callable (used for
    e.g. auto-timestamps); it is applied on INSERT when the column is
    absent from the supplied row.
    """

    name: str
    col_type: ColumnType
    nullable: bool = True
    primary_key: bool = False
    unique: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        self.name = validate_identifier(self.name, "column")
        if self.primary_key:
            # A primary key implies NOT NULL UNIQUE.
            self.nullable = False
            self.unique = True

    def default_value(self) -> Any:
        if callable(self.default):
            return self.default()
        return self.default


class TableSchema:
    """Schema of one table: ordered columns plus CHECK constraints."""

    def __init__(
        self,
        name: str,
        columns: list[Column],
        checks: list["Expression"] | None = None,
    ) -> None:
        self.name = validate_identifier(name, "table")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        seen: set[str] = set()
        for column in columns:
            if column.name in seen:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(column.name)
        self.columns = list(columns)
        self.checks = list(checks or [])
        self._by_name: dict[str, Column] = {c.name: c for c in self.columns}
        pk = [c.name for c in self.columns if c.primary_key]
        if len(pk) > 1:
            raise SchemaError(
                f"table {self.name!r} declares multiple primary keys: {pk}"
            )
        self.primary_key: str | None = pk[0] if pk else None
        self._compiled_checks: list[tuple["Expression", Any]] | None = None
        # What coerce_row does per column, resolved once: (name, the
        # type's coercion of a non-NULL value — what ColumnType.coerce
        # calls once NULL is ruled out — nullable, column).
        self._plan = tuple(
            (column.name, column.col_type._coerce, column.nullable, column)
            for column in self.columns
        )

    @property
    def compiled_checks(self) -> list[tuple["Expression", Any]]:
        """``(check, compiled evaluator)`` pairs, compiled lazily once.

        CHECK constraints run on every insert/update, so they share one
        closure per expression instead of re-walking the AST per row.
        The import is deferred because :mod:`repro.db.expr` must not be
        a hard dependency of schema validation.
        """
        if self._compiled_checks is None or len(self._compiled_checks) != len(
            self.checks
        ):
            from repro.db.expr import compile_expression

            self._compiled_checks = [
                (check, compile_expression(check)) for check in self.checks
            ]
        return self._compiled_checks

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.col_type}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def coerce_row(
        self,
        values: Mapping[str, Any],
        *,
        apply_defaults: bool = True,
    ) -> dict[str, Any]:
        """Validate and coerce an input mapping into a complete row dict.

        * Unknown keys raise :class:`SchemaError`.
        * Missing columns get their default (on insert) or raise when
          NOT NULL without a default.
        * Values are coerced to the column type.

        CHECK constraints need the complete row: :meth:`enforce_checks`.
        """
        if not values.keys() <= self._by_name.keys():
            # Only keys that are not column names as they stand need
            # lower-casing (or rejecting).
            values = {key.lower(): value for key, value in values.items()}
            for key in values:
                if key not in self._by_name:
                    raise SchemaError(
                        f"table {self.name!r} has no column {key!r}"
                    )
        row: dict[str, Any] = {}
        for name, coerce, nullable, column in self._plan:
            if name in values:
                value = values[name]
            elif apply_defaults:
                value = column.default_value()
            else:
                value = None
            if value is not None:
                value = coerce(value)
            if value is None and not nullable:
                raise ConstraintViolation(f"NOT NULL on {self.name}.{name}")
            row[name] = value
        return row

    def enforce_checks(self, row: Mapping[str, Any]) -> None:
        """Raise :class:`ConstraintViolation` when a CHECK constraint is
        FALSE for the complete ``row``."""
        for check, check_fn in self.compiled_checks:
            # SQL semantics: CHECK passes on TRUE or NULL (unknown).
            if check_fn(row) is False:
                raise ConstraintViolation(f"CHECK on {self.name}", detail=str(check))

    def coerce_update(
        self, updates: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Coerce a partial row used by UPDATE (no defaults applied)."""
        coerced: dict[str, Any] = {}
        for key, value in updates.items():
            column = self.column(key)
            coerced_value = column.col_type.coerce(value)
            if coerced_value is None and not column.nullable:
                raise ConstraintViolation(
                    f"NOT NULL on {self.name}.{column.name}"
                )
            coerced[column.name] = coerced_value
        return coerced

    def unique_columns(self) -> list[str]:
        """Columns requiring a uniqueness guarantee (PK included)."""
        return [column.name for column in self.columns if column.unique]
