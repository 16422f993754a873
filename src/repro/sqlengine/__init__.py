"""In-memory relational SQL engine.

This package is the database substrate for the DB-GPT reproduction: the
SQL emitted by the Text-to-SQL models is parsed and executed here, so
execution accuracy is measurable end to end.

The engine is a classic pipeline::

    SQL text --lexer--> tokens --parser--> AST --planner--> plan
             --executor--> ResultSet

Every SELECT is planned by a rule-based optimizer (predicate pushdown,
secondary-index access paths, hash joins, projection pruning) before it
runs, and its expressions are compiled to closures over tuple rows
(:mod:`repro.sqlengine.compiler`); ``EXPLAIN <query>`` renders the plan
tree. Reads execute
concurrently under a readers-writer lock; writes are exclusive.

Public entry points:

- :class:`Database` — create tables, execute SQL, inspect the catalog.
- :class:`ResultSet` — column names + rows returned by ``execute``.
- :func:`parse_sql` — parse a statement to its AST without executing.
- :func:`build_plan` / :func:`render_plan` — plan a parsed SELECT and
  render it the way ``EXPLAIN`` does.
"""

from repro.sqlengine.catalog import Catalog, ColumnSchema, TableSchema
from repro.sqlengine.database import Database, ResultSet
from repro.sqlengine.errors import (
    CatalogError,
    ExecutionError,
    SqlEngineError,
    SqlSyntaxError,
    TypeCheckError,
)
from repro.sqlengine.indexes import INDEX_KINDS, IndexInfo
from repro.sqlengine.locking import ReadWriteLock
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.planner import SelectPlan, build_plan, render_plan
from repro.sqlengine.types import DataType

__all__ = [
    "Catalog",
    "ColumnSchema",
    "DataType",
    "Database",
    "INDEX_KINDS",
    "IndexInfo",
    "ReadWriteLock",
    "ResultSet",
    "SelectPlan",
    "CatalogError",
    "ExecutionError",
    "SqlEngineError",
    "SqlSyntaxError",
    "TypeCheckError",
    "build_plan",
    "parse_sql",
    "render_plan",
]
