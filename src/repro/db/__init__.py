"""Embedded relational database substrate.

The tutorial's thesis is that the database is the natural platform for
event processing; this subpackage provides that platform: typed tables,
a write-ahead log (the *journal*), ACID transactions with two-phase
locking, hash and ordered indexes, a SQL subset, and triggers.

Public entry point: :class:`repro.db.Database`.
"""

from repro.db.database import Connection, Database
from repro.db.schema import Column, TableSchema
from repro.db.types import (
    BOOL,
    INT,
    JSON,
    REAL,
    TEXT,
    TIMESTAMP,
    ColumnType,
)
from repro.db.triggers import Trigger, TriggerEvent, TriggerTiming

__all__ = [
    "Database",
    "Connection",
    "Column",
    "TableSchema",
    "ColumnType",
    "INT",
    "REAL",
    "TEXT",
    "BOOL",
    "TIMESTAMP",
    "JSON",
    "Trigger",
    "TriggerEvent",
    "TriggerTiming",
]
