"""Statement AST produced by the parser and consumed by the executor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.db.expr import Expression, raises_at_evaluation
from repro.errors import ExpressionError


class Statement:
    """Base class for parsed SQL statements.

    ``parameter_count`` is the number of ``?`` placeholders the parser
    saw (set by :func:`repro.db.sql.parser.parse_statement`); cached
    statement templates use it to validate bind arguments.
    """

    parameter_count = 0


@dataclass
class ColumnDef:
    name: str
    type_name: str
    nullable: bool = True
    primary_key: bool = False
    unique: bool = False
    default: Any = None
    has_default: bool = False


@dataclass
class CreateTable(Statement):
    table: str
    columns: list[ColumnDef]
    checks: list[Expression] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass
class CreateIndex(Statement):
    name: str
    table: str
    column: str
    unique: bool = False
    kind: str = "ordered"  # "ordered" | "hash"


@dataclass
class DropIndex(Statement):
    name: str
    table: str


@dataclass
class CreateTrigger(Statement):
    """``CREATE TRIGGER name BEFORE|AFTER INSERT|UPDATE|DELETE ON table
    [FOR EACH ROW|STATEMENT] [WHEN (expr)] EXECUTE callback_name``

    The callback name is resolved against functions registered on the
    database with :meth:`Database.register_trigger_function`.
    """

    name: str
    table: str
    timing: str  # "before" | "after"
    event: str  # "insert" | "update" | "delete"
    callback: str
    when: Expression | None = None
    for_each_row: bool = True


@dataclass
class DropTrigger(Statement):
    name: str


@dataclass
class Insert(Statement):
    table: str
    columns: list[str] | None  # None means positional (all columns)
    rows: list[list[Expression]] = field(default_factory=list)
    select: "Select | None" = None  # INSERT INTO ... SELECT form


@dataclass
class Update(Statement):
    table: str
    assignments: list[tuple[str, Expression]] = field(default_factory=list)
    where: Expression | None = None


@dataclass
class Delete(Statement):
    table: str
    where: Expression | None = None


@dataclass
class AggregateCall(Expression):
    """Aggregate in a SELECT/HAVING: COUNT/SUM/AVG/MIN/MAX/STDDEV.

    The executor computes each group's value and puts it in the row the
    enclosing expression is evaluated against, under :attr:`key`; the
    node itself compiles to a lookup of that key.  ``argument`` is None
    for COUNT(*).
    """

    name: str = ""
    argument: Expression | None = None
    distinct: bool = False

    def __repr__(self) -> str:
        inner = "*" if self.argument is None else repr(self.argument)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"

    @property
    def key(self) -> str:
        """Row key of this aggregate's value; ``(`` keeps it apart from
        any column name.  Equal aggregates share a key."""
        return repr(self)

    def lower(self):
        def aggregate_fn(row, _key=self.key, _name=self.name):
            if _key in row:
                return row[_key]
            # No group values in scope: an aggregate in a bad context.
            raise ExpressionError(
                f"aggregate {_name}() not allowed in this context"
            )

        return aggregate_fn

    def children(self):
        if self.argument is not None:
            yield self.argument

    def with_children(self, children):
        return AggregateCall(self.name, children[0], self.distinct)


AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max", "stddev"})


@dataclass
class SelectItem:
    expression: Expression
    alias: str | None = None
    is_star: bool = False


@dataclass
class InSelect(Expression):
    """``expr [NOT] IN (SELECT ...)`` — uncorrelated subqueries only.

    The executor materializes the subquery once per statement and
    rewrites this node into a plain :class:`repro.db.expr.InList`, so
    it is never evaluated directly.
    """

    operand: Expression = None
    subquery: "Select" = None
    negated: bool = False

    def lower(self):
        return raises_at_evaluation(
            "IN (SELECT ...) must be resolved by the executor"
        )

    def children(self):
        yield self.operand

    def with_children(self, children):
        return InSelect(children[0], self.subquery, self.negated)

    def __repr__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand!r} {keyword} (SELECT ...))"


@dataclass
class ExistsSelect(Expression):
    """``[NOT] EXISTS (SELECT ...)`` — uncorrelated subqueries only."""

    subquery: "Select" = None
    negated: bool = False

    def lower(self):
        return raises_at_evaluation(
            "EXISTS (SELECT ...) must be resolved by the executor"
        )

    def __repr__(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{keyword} (SELECT ...)"


@dataclass
class JoinClause:
    table: str
    alias: str | None
    on: Expression
    kind: str = "inner"  # "inner" | "left"


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class Select(Statement):
    items: list[SelectItem]
    table: str | None = None
    alias: str | None = None
    joins: list[JoinClause] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass
class Explain(Statement):
    """EXPLAIN <select|update|delete>: report the chosen access path."""

    statement: Statement


@dataclass
class BeginStatement(Statement):
    pass


@dataclass
class CommitStatement(Statement):
    pass


@dataclass
class RollbackStatement(Statement):
    savepoint: str | None = None


@dataclass
class SavepointStatement(Statement):
    name: str
