"""Statement execution: planned SELECT pipeline, DML and DDL.

Every SELECT core goes through :func:`repro.sqlengine.planner.build_plan`
first. The executor then binds the plan, once per execution, into a
runnable query: scans with index access paths and pushed filters,
hash/nested-loop joins, and the textbook pipeline on top::

    FROM/JOIN -> WHERE residual -> GROUP BY -> HAVING -> SELECT
    -> DISTINCT -> ORDER BY -> LIMIT/OFFSET -> compound set operators

Binding fixes every column layout ``[(binding, name), ...]``, so names
resolve (or fail) before any row is read. Rows flow through as plain
tuples. On the planned path (``optimize=True``) every expression is a
closure from :class:`~repro.sqlengine.compiler.Compiler`; with
``optimize=False`` the same pipeline binds through
:class:`~repro.sqlengine.expressions.Interpreter`, the tree-walking
reference. WITH clauses materialize each CTE once per run, eagerly,
into a scope frame that shadows views and tables for the duration of
the owning select.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.sqlengine import nodes
from repro.sqlengine.catalog import Catalog, ColumnSchema, TableSchema
from repro.sqlengine.compiler import Compiler
from repro.sqlengine.errors import CatalogError, ExecutionError
from repro.sqlengine.expressions import (
    Evaluator,
    Interpreter,
    RowContext,
    Scope,
    aggregate_key,
)
from repro.sqlengine.functions import is_aggregate_function
from repro.sqlengine.indexes import IndexInfo, SortedIndex
from repro.sqlengine.planner import (
    CteScanPlan,
    IndexEqAccess,
    IndexRangeAccess,
    JoinPlan,
    ScanPlan,
    SelectPlan,
    SourcePlan,
    SubqueryScanPlan,
    ViewScanPlan,
    build_plan,
    output_columns,
    render_plan,
)
from repro.sqlengine.table import Table
from repro.sqlengine.types import DataType, coerce, sort_key

Columns = list[tuple[Optional[str], str]]


@dataclass
class Relation:
    """An intermediate result: column layout plus rows."""

    columns: Columns
    rows: list[tuple[Any, ...]]

    @property
    def column_names(self) -> list[str]:
        return [name for _binding, name in self.columns]


@dataclass
class _Bound:
    """A bound query or plan node: its output layout, and ``run(env)``
    producing its rows (``env`` is the enclosing rows on the planned
    path, unused on the naive one)."""

    columns: Columns
    run: Callable[[Any], list[tuple[Any, ...]]]


@dataclass
class _CteSlot:
    """One WITH-clause binding: its output column names (lower-cased in
    ``columns`` for the planner, as written in ``names``) and, while the
    owning select runs, the materialized relation. During binding and
    EXPLAIN ``relation`` stays None; EXPLAIN may not know the names."""

    name: str
    relation: Optional[Relation]
    columns: Optional[list[str]]
    names: Optional[list[str]] = None


class _PlannerContext:
    """Adapter exposing the executor's name scope and the catalog's
    index metadata to the planner (see
    :class:`repro.sqlengine.planner.PlannerContext`)."""

    def __init__(self, executor: "Executor") -> None:
        self._executor = executor

    def resolve(self, name: str) -> tuple[Optional[str], Any]:
        return self._executor._resolve_name(name)

    def indexes(self, table: str) -> list[IndexInfo]:
        return self._executor._catalog.indexes_for(table)


class Executor:
    """Execute parsed statements against a catalog + table storage."""

    def __init__(
        self,
        catalog: Catalog,
        tables: dict[str, Table],
        parameters: Sequence[Any] = (),
        enable_hash_join: bool = True,
        views: Optional[dict[str, nodes.Select]] = None,
        optimize: bool = True,
    ) -> None:
        self._catalog = catalog
        self._tables = tables
        self._views = views if views is not None else {}
        self.enable_hash_join = enable_hash_join
        self.optimize = optimize
        #: WITH-clause scope frames, innermost last; each maps a
        #: lower-cased CTE name to its slot.
        self._cte_stack: list[dict[str, _CteSlot]] = []
        self._binder: Any
        if optimize:
            self._binder = Compiler(parameters, self._bind_query)
            self._env: Any = ()
        else:
            evaluator = Evaluator(
                run_subquery=self._run_subquery, parameters=parameters
            )
            self._binder = Interpreter(evaluator, self._bind_query)
            self._env = None

    # -- public entry points -------------------------------------------

    def execute(self, statement: nodes.Statement) -> Relation:
        if isinstance(statement, nodes.Select):
            return self.execute_select(statement)
        if isinstance(statement, nodes.Explain):
            return self.explain(statement.query)
        if isinstance(statement, nodes.CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, nodes.DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, nodes.CreateView):
            key = statement.name.lower()
            if key in self._views or self._catalog.has_table(statement.name):
                raise CatalogError(
                    f"name {statement.name!r} is already in use"
                )
            self._views[key] = statement.query
            return _rowcount_relation(0)
        if isinstance(statement, nodes.DropView):
            key = statement.name.lower()
            if key not in self._views:
                if statement.if_exists:
                    return _rowcount_relation(0)
                raise CatalogError(f"no view named {statement.name!r}")
            del self._views[key]
            return _rowcount_relation(0)
        if isinstance(statement, nodes.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, nodes.Update):
            return self._execute_update(statement)
        if isinstance(statement, nodes.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, nodes.CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, nodes.DropTable):
            return self._execute_drop(statement)
        raise ExecutionError(f"cannot execute statement: {statement!r}")

    def execute_select(self, select: nodes.Select) -> Relation:
        query = self._bind_query(select, None)
        return Relation(query.columns, query.run(self._env))

    def _run_subquery(self, select: nodes.Select, ctx: RowContext) -> Relation:
        """Naive path: bind and run a subquery per outer row."""
        query = self._bind_query(select, ctx)
        return Relation(query.columns, query.run(None))

    # -- binding: queries --------------------------------------------------

    def _bind_query(
        self, select: nodes.Select, outer: Optional[Scope]
    ) -> _Bound:
        """Bind a full select (WITH clause, compound operands) whose
        correlated names resolve in ``outer``."""
        if not select.ctes:
            return self._bind_compound(select, outer)
        frame: dict[str, _CteSlot] = {}
        bodies: list[tuple[str, _CteSlot, _Bound]] = []
        self._cte_stack.append(frame)
        try:
            for cte in select.ctes:
                key = cte.name.lower()
                if key in frame:
                    raise ExecutionError(
                        f"duplicate CTE name {cte.name!r} in WITH clause"
                    )
                # The CTE's own name is registered only after its body
                # is bound, so self-references fail with the usual "no
                # table" error instead of recursing.
                body = self._bind_query(cte.query, outer)
                names = _cte_names(cte, body.columns)
                slot = _CteSlot(
                    cte.name, None, [name.lower() for name in names], names
                )
                frame[key] = slot
                bodies.append((key, slot, body))
            main = self._bind_compound(select, outer)
        finally:
            self._cte_stack.pop()

        def run(env: Any) -> list[tuple[Any, ...]]:
            live: dict[str, _CteSlot] = {}
            self._cte_stack.append(live)
            try:
                for key, slot, body in bodies:
                    relation = Relation(
                        [(None, name) for name in slot.names or ()],
                        body.run(env),
                    )
                    live[key] = dataclasses.replace(slot, relation=relation)
                return main.run(env)
            finally:
                self._cte_stack.pop()

        return _Bound(main.columns, run)

    def _bind_compound(
        self, select: nodes.Select, outer: Optional[Scope]
    ) -> _Bound:
        if not select.compound:
            return self._bind_core(select, outer)
        first = dataclasses.replace(
            select, order_by=(), limit=None, offset=None, compound=()
        )
        head = self._bind_core(first, outer)
        operands = []
        for op, query in select.compound:
            other = self._bind_core(query, outer)
            if len(other.columns) != len(head.columns):
                raise ExecutionError(
                    f"{op}: operand column counts differ "
                    f"({len(head.columns)} vs {len(other.columns)})"
                )
            operands.append((op, other))
        # Compound-level ORDER BY / LIMIT apply over the merged rows.
        scope = self._binder.scope(head.columns, None)
        order = []
        for item in select.order_by:
            ordinal = _ordinal(item.expression)
            if ordinal is not None:
                if not 0 <= ordinal < len(head.columns):
                    raise ExecutionError(
                        f"ORDER BY position {ordinal + 1} out of range"
                    )
                order.append((_position_fn(ordinal), item.descending))
            else:
                order.append(
                    (
                        self._binder.expression(item.expression, scope),
                        item.descending,
                    )
                )
        limit = self._bind_limit(select)

        def run(env: Any) -> list[tuple[Any, ...]]:
            rows = head.run(env)
            for op, other in operands:
                rows = _apply_set_operator(op, rows, other.run(env))
            if order:
                rows = sorted(rows, key=_sort_key(order, env))
            if limit is not None:
                rows = limit(rows, env)
            return rows

        return _Bound(head.columns, run)

    def _bind_limit(self, select: nodes.Select):
        """LIMIT/OFFSET as ``fn(rows, env) -> rows``, or None."""
        if select.limit is None:
            return None
        scope = self._binder.scope([], None)
        limit = self._binder.expression(select.limit, scope)
        offset = (
            None
            if select.offset is None
            else self._binder.expression(select.offset, scope)
        )

        def apply(rows: list, env: Any) -> list:
            start = 0 if offset is None else offset((), env)
            count = limit((), env)
            if not isinstance(count, int) or not isinstance(start, int):
                raise ExecutionError("LIMIT/OFFSET must be integers")
            return rows[start : start + count]

        return apply

    def _bind_core(
        self, select: nodes.Select, outer: Optional[Scope]
    ) -> _Bound:
        """Bind one SELECT core: source, WHERE residual, grouping or
        projection, DISTINCT, ORDER BY and LIMIT."""
        plan = self._build_plan(select)
        if plan.source is None:
            source = _Bound([], lambda env: [()])
        else:
            source = self._bind_source(plan.source, outer)
        binder = self._binder
        scope = binder.scope(source.columns, outer)
        residual = (
            None
            if plan.residual is None
            else binder.expression(plan.residual, scope)
        )
        items = self._expand_stars(select.items, source.columns)
        extras = _order_extras(select.order_by, items)
        outputs = [item.expression for item in items] + extras
        if select.group_by or _uses_aggregates(
            items, select.having, select.order_by
        ):
            produce = self._bind_grouped(select, items, outputs, scope)
        else:
            produce = self._bind_projection(outputs, scope)

        columns: Columns = [(None, item.output_name) for item in items]
        visible = len(columns)
        layout = columns + [
            (None, f"__order_{i}") for i in range(len(extras))
        ]
        order = _order_positions(select.order_by, items, layout)
        limit = self._bind_limit(select)
        distinct = select.distinct

        def run(env: Any) -> list[tuple[Any, ...]]:
            rows = source.run(env)
            if residual is not None:
                rows = [row for row in rows if residual(row, env)]
            rows = produce(rows, env)
            if distinct:
                rows = _distinct(rows)
            if order:
                rows.sort(key=_sort_key(order, env))
            if limit is not None:
                rows = limit(rows, env)
            if extras:  # strip the hidden ORDER BY helper columns
                rows = [row[:visible] for row in rows]
            return rows

        return _Bound(columns, run)

    def _bind_projection(self, outputs: list[nodes.Expression], scope: Scope):
        binder = self._binder
        fns = [binder.expression(expr, scope) for expr in outputs]
        positions = [binder.direct_index(expr, scope) for expr in outputs]
        if None not in positions:
            if len(positions) == 1:
                (index,) = positions
                return lambda rows, env: [(row[index],) for row in rows]
            pick = _picker(positions)
            return lambda rows, env: list(map(pick, rows))
        if len(fns) == 1:
            (only,) = fns
            return lambda rows, env: [(only(row, env),) for row in rows]
        return lambda rows, env: [
            tuple([fn(row, env) for fn in fns]) for row in rows
        ]

    def _bind_grouped(
        self,
        select: nodes.Select,
        items: list[nodes.SelectItem],
        outputs: list[nodes.Expression],
        scope: Scope,
    ):
        """GROUP BY: each group's state is ``[first_row, *slots]``; its
        output row is computed over ``first_row`` extended by the
        aggregate results, which grouped expressions read by position."""
        binder = self._binder
        width = len(scope.columns)
        # Allow GROUP BY to reference select-list aliases or ordinals.
        keys = [
            _resolve_output_reference(expr, items) for expr in select.group_by
        ]
        key_fns = [binder.expression(expr, scope) for expr in keys]
        key_positions = [binder.direct_index(expr, scope) for expr in keys]

        accumulators = []
        aggregates: dict[str, int] = {}
        slot = 1
        for call in _collect_aggregates(items, select.having, select.order_by):
            accumulator = binder.accumulator(call, scope, slot)
            aggregates[aggregate_key(call)] = width + len(accumulators)
            accumulators.append(accumulator)
            slot += len(accumulator.initial)
        initial = [None]
        for accumulator in accumulators:
            initial.extend(accumulator.initial)
        factories = [
            (a.slot, a.factory) for a in accumulators if a.factory is not None
        ]
        steps = tuple(a.step for a in accumulators)
        finals = [a.final for a in accumulators]
        having = (
            None
            if select.having is None
            else binder.expression(select.having, scope, aggregates)
        )
        out_fns = [
            binder.expression(expr, scope, aggregates) for expr in outputs
        ]
        single = len(keys) == 1
        grand_total = not keys

        def group_key(env: Any) -> Callable[[tuple], Any]:
            if grand_total:
                return lambda row: ()
            if None not in key_positions:
                return operator.itemgetter(*key_positions)
            if single:
                (only,) = key_fns
                return lambda row: only(row, env)
            return lambda row: tuple([fn(row, env) for fn in key_fns])

        def new_state(row: tuple) -> list:
            state = initial.copy()
            state[0] = row
            for position, factory in factories:
                state[position] = factory()
            return state

        def produce(rows: list, env: Any) -> list:
            key_of = group_key(env)
            groups: dict[Any, list] = {}
            lookup = groups.get
            for row in rows:
                key = key_of(row)
                try:
                    state = lookup(key)
                except TypeError:  # unhashable values group by repr
                    key = _hashable_key(key, single)
                    state = lookup(key)
                if state is None:
                    state = groups[key] = new_state(row)
                for step in steps:
                    step(state, row, env)
            if not groups and grand_total:
                # Aggregate query over an empty input yields one row.
                groups[()] = new_state(tuple([None] * width))
            out = []
            for state in groups.values():
                row = state[0] + tuple([final(state) for final in finals])
                if having is not None and not having(row, env):
                    continue
                out.append(tuple([fn(row, env) for fn in out_fns]))
            return out

        return produce

    # -- plan construction and binding: sources -----------------------------

    def _build_plan(self, select: nodes.Select) -> SelectPlan:
        return build_plan(
            select,
            _PlannerContext(self),
            optimize=self.optimize,
            enable_hash_join=self.enable_hash_join,
        )

    def _resolve_name(self, name: str) -> tuple[Optional[str], Any]:
        """Resolve a FROM-clause name: CTE scopes (innermost first),
        then views, then base tables."""
        key = name.lower()
        for frame in reversed(self._cte_stack):
            slot = frame.get(key)
            if slot is not None:
                return "cte", slot.columns
        view = self._views.get(key)
        if view is not None:
            return "view", view
        if self._catalog.has_table(name):
            return "table", self._catalog.table(name)
        return None, None

    def _cte_slot(self, name: str) -> _CteSlot:
        key = name.lower()
        for frame in reversed(self._cte_stack):
            slot = frame.get(key)
            if slot is not None:
                return slot
        raise ExecutionError(f"CTE {name!r} is not bound")

    def _bind_source(self, plan: SourcePlan, outer: Optional[Scope]) -> _Bound:
        if isinstance(plan, ScanPlan):
            return self._bind_scan(plan, outer)
        if isinstance(plan, (ViewScanPlan, SubqueryScanPlan)):
            assert plan.query is not None
            inner = self._bind_query(plan.query, outer)
            columns = [(plan.binding, name) for _b, name in inner.columns]
            return self._bind_filter(plan, _Bound(columns, inner.run), outer)
        if isinstance(plan, CteScanPlan):
            names = self._cte_slot(plan.name).names or []

            def materialized(env: Any) -> list[tuple[Any, ...]]:
                relation = self._cte_slot(plan.name).relation
                if relation is None:
                    raise ExecutionError(f"CTE {plan.name!r} is not materialized")
                return relation.rows

            columns = [(plan.binding, name) for name in names]
            return self._bind_filter(plan, _Bound(columns, materialized), outer)
        if isinstance(plan, JoinPlan):
            return self._bind_join(plan, outer)
        raise ExecutionError(f"unsupported plan node: {plan!r}")

    def _bind_filter(
        self, plan: SourcePlan, source: _Bound, outer: Optional[Scope]
    ) -> _Bound:
        """Apply a scan's pushed-down conjuncts over its rows."""
        if plan.filter is None:
            return source
        keep = self._binder.expression(
            plan.filter, self._binder.scope(source.columns, outer)
        )
        fetch = source.run
        return _Bound(
            source.columns,
            lambda env: [row for row in fetch(env) if keep(row, env)],
        )

    def _bind_scan(self, plan: ScanPlan, outer: Optional[Scope]) -> _Bound:
        table = self._storage(plan.table)
        columns = [
            (plan.binding, column.name) for column in table.schema.columns
        ]
        fetch = self._bind_access(table, plan.access, outer)
        if plan.columns is None:
            return self._bind_filter(plan, _Bound(columns, fetch), outer)
        # Projection pruning: the filter sees whole heap rows, the
        # output keeps only the referenced columns.
        keep = [table.schema.column_index(name) for name in plan.columns]
        pruned = [columns[i] for i in keep]
        check = None
        if plan.filter is not None:
            check = self._binder.expression(
                plan.filter, self._binder.scope(columns, outer)
            )
        if len(keep) == 1:
            (index,) = keep
            if check is None:
                return _Bound(
                    pruned, lambda env: [(row[index],) for row in fetch(env)]
                )
            return _Bound(
                pruned,
                lambda env: [
                    (row[index],) for row in fetch(env) if check(row, env)
                ],
            )
        pick = _picker(keep)
        if check is None:
            return _Bound(pruned, lambda env: list(map(pick, fetch(env))))
        return _Bound(
            pruned,
            lambda env: [pick(row) for row in fetch(env) if check(row, env)],
        )

    def _bind_access(
        self, table: Table, access: Any, outer: Optional[Scope]
    ) -> Callable[[Any], list[tuple[Any, ...]]]:
        """Fetch candidate rows through the plan's access path.

        Index paths only *pre-filter*: the scan filter re-checks every
        row, so falling back to a full snapshot is always safe.
        """
        if isinstance(access, IndexEqAccess):
            scope = self._binder.scope([], outer)
            probes = [
                (table.schema.column(column), self._binder.expression(expr, scope))
                for column, expr in zip(access.index.columns, access.values)
            ]

            def point(env: Any) -> list[tuple[Any, ...]]:
                values = []
                for column, probe in probes:
                    value = probe((), env)
                    if value is None:
                        return []  # col = NULL matches nothing
                    try:
                        values.append(coerce(value, column.data_type))
                    except Exception:
                        return table.snapshot()  # type mismatch
                index = table.get_index(access.index.name)
                return table.rows_at(index.lookup(tuple(values)))

            return point
        if isinstance(access, IndexRangeAccess):
            scope = self._binder.scope([], outer)
            column = table.schema.column(access.column)
            sides = [
                (side, self._binder.expression(expr, scope))
                for side, expr in (("low", access.low), ("high", access.high))
                if expr is not None
            ]

            def ranged(env: Any) -> list[tuple[Any, ...]]:
                index = table.get_index(access.index.name)
                if not isinstance(index, SortedIndex):
                    return table.snapshot()
                bounds: dict[str, Any] = {"low": None, "high": None}
                for side, bound in sides:
                    value = bound((), env)
                    if value is None:
                        return []  # range against NULL matches nothing
                    try:
                        bounds[side] = coerce(value, column.data_type)
                    except Exception:
                        return table.snapshot()
                positions = index.range_lookup(
                    bounds["low"],
                    bounds["high"],
                    low_inclusive=access.low_inclusive,
                    high_inclusive=access.high_inclusive,
                )
                return table.rows_at(positions)

            return ranged
        return lambda env: table.snapshot()

    def _bind_join(self, plan: JoinPlan, outer: Optional[Scope]) -> _Bound:
        assert plan.left is not None and plan.right is not None
        left = self._bind_source(plan.left, outer)
        right = self._bind_source(plan.right, outer)
        columns = left.columns + right.columns
        join_type = plan.join_type
        if join_type == "CROSS":

            def cross(env: Any) -> list[tuple[Any, ...]]:
                rrows = right.run(env)
                return [lrow + rrow for lrow in left.run(env) for rrow in rrows]

            return _Bound(columns, cross)
        scope = self._binder.scope(columns, outer)
        condition = (
            None
            if plan.condition is None
            else self._binder.expression(plan.condition, scope)
        )
        equi: Optional[tuple[int, int]] = None
        if plan.strategy == "hash" and plan.equi is not None:
            # Resolve the planner's equi-conjunct refs against each
            # input's layout; fall back to a nested loop when either
            # side fails to resolve uniquely.
            left_pos = _resolve_position(plan.equi[0], left.columns)
            right_pos = _resolve_position(plan.equi[1], right.columns)
            if left_pos is not None and right_pos is not None:
                equi = (left_pos, right_pos)
                if self._is_key_equality(
                    plan.condition, scope, left_pos, len(left.columns) + right_pos
                ):
                    # Equal dict keys are equal under SQL '=' too, so
                    # the condition holds for every candidate pair.
                    condition = None
        outer_left = join_type in ("LEFT", "FULL")
        outer_right = join_type in ("RIGHT", "FULL")
        null_right = tuple([None] * len(right.columns))
        null_left = tuple([None] * len(left.columns))

        def run(env: Any) -> list[tuple[Any, ...]]:
            lrows = left.run(env)
            rrows = right.run(env)
            rows: list[tuple[Any, ...]] = []
            matched_right: set[int] = set()
            if equi is not None:
                # Hash join: build on the right input, probe with the left.
                left_pos, right_pos = equi
                buckets: dict[Any, list[int]] = {}
                for rindex, rrow in enumerate(rrows):
                    key = rrow[right_pos]
                    if key is not None:
                        buckets.setdefault(key, []).append(rindex)
                for lrow in lrows:
                    matched = False
                    key = lrow[left_pos]
                    for rindex in buckets.get(key, ()) if key is not None else ():
                        combined = lrow + rrows[rindex]
                        if condition is None or condition(combined, env):
                            matched = True
                            matched_right.add(rindex)
                            rows.append(combined)
                    if not matched and outer_left:
                        rows.append(lrow + null_right)
            else:
                for lrow in lrows:
                    matched = False
                    for rindex, rrow in enumerate(rrows):
                        combined = lrow + rrow
                        if condition is None or condition(combined, env):
                            matched = True
                            matched_right.add(rindex)
                            rows.append(combined)
                    if not matched and outer_left:
                        rows.append(lrow + null_right)
            if outer_right:
                for rindex, rrow in enumerate(rrows):
                    if rindex not in matched_right:
                        rows.append(null_left + rrow)
            return rows

        return _Bound(columns, run)

    def _is_key_equality(
        self,
        condition: Optional[nodes.Expression],
        scope: Scope,
        left_pos: int,
        right_pos: int,
    ) -> bool:
        """True when ``condition`` is exactly ``left = right`` over the
        two hash-join key columns of the combined row."""
        if not (
            isinstance(condition, nodes.BinaryOp) and condition.op == "="
        ):
            return False
        sides = {
            self._binder.direct_index(condition.left, scope),
            self._binder.direct_index(condition.right, scope),
        }
        return sides == {left_pos, right_pos}

    # -- DML / DDL -----------------------------------------------------------

    def _execute_insert(self, statement: nodes.Insert) -> Relation:
        table = self._storage(statement.table)
        schema = table.schema
        if statement.columns:
            indices = [
                schema.column_index(name) for name in statement.columns
            ]
        else:
            indices = list(range(len(schema.columns)))

        def build_row(values: Sequence[Any]) -> list[Any]:
            if len(values) != len(indices):
                raise ExecutionError(
                    f"INSERT expects {len(indices)} values, got {len(values)}"
                )
            full: list[Any] = []
            provided = dict(zip(indices, values))
            for position, column in enumerate(schema.columns):
                if position in provided:
                    full.append(provided[position])
                else:
                    full.append(column.default)
            return full

        count = 0
        if statement.query is not None:
            result = self.execute_select(statement.query)
            for row in result.rows:
                table.insert(build_row(row))
                count += 1
        else:
            for value_exprs in statement.rows:
                values = [self._constant(expr) for expr in value_exprs]
                table.insert(build_row(values))
                count += 1
        return _rowcount_relation(count)

    def _constant(self, expr: nodes.Expression) -> Any:
        """Evaluate an expression that reads no row."""
        scope = self._binder.scope([], None)
        return self._binder.expression(expr, scope)((), self._env)

    def _table_scope(self, table_name: str, table: Table) -> Scope:
        """The layout of whole heap rows of ``table``."""
        columns = [
            (table_name, column.name) for column in table.schema.columns
        ]
        return self._binder.scope(columns, None)

    def _execute_update(self, statement: nodes.Update) -> Relation:
        table = self._storage(statement.table)
        schema = table.schema
        scope = self._table_scope(statement.table, table)
        where = (
            None
            if statement.where is None
            else self._binder.expression(statement.where, scope)
        )
        assignments = [
            (schema.column_index(name), self._binder.expression(expr, scope))
            for name, expr in statement.assignments
        ]
        env = self._env
        new_rows: list[tuple[Any, ...]] = []
        count = 0
        for row in table.rows():
            if where is None or where(row, env):
                updated = list(row)
                for index, value in assignments:
                    updated[index] = value(row, env)
                new_rows.append(tuple(updated))
                count += 1
            else:
                new_rows.append(row)
        table.replace_rows(new_rows)
        return _rowcount_relation(count)

    def _execute_delete(self, statement: nodes.Delete) -> Relation:
        table = self._storage(statement.table)
        scope = self._table_scope(statement.table, table)
        where = (
            None
            if statement.where is None
            else self._binder.expression(statement.where, scope)
        )
        env = self._env
        kept: list[tuple[Any, ...]] = []
        count = 0
        for row in table.rows():
            if where is None or where(row, env):
                count += 1
            else:
                kept.append(row)
        table.replace_rows(kept)
        return _rowcount_relation(count)

    def _execute_create(self, statement: nodes.CreateTable) -> Relation:
        if self._catalog.has_table(statement.name):
            if statement.if_not_exists:
                return _rowcount_relation(0)
            raise CatalogError(f"table {statement.name!r} already exists")
        columns = []
        for definition in statement.columns:
            default = None
            if definition.default is not None:
                default = self._constant(definition.default)
            columns.append(
                ColumnSchema(
                    name=definition.name,
                    data_type=DataType.from_name(definition.type_name),
                    not_null=definition.not_null,
                    primary_key=definition.primary_key,
                    unique=definition.unique,
                    default=default,
                )
            )
        schema = TableSchema(statement.name, columns)
        self._catalog.create_table(schema)
        self._tables[statement.name.lower()] = Table(schema)
        return _rowcount_relation(0)

    def _execute_drop(self, statement: nodes.DropTable) -> Relation:
        if not self._catalog.has_table(statement.name):
            if statement.if_exists:
                return _rowcount_relation(0)
            raise CatalogError(f"no table named {statement.name!r}")
        self._catalog.drop_table(statement.name)
        del self._tables[statement.name.lower()]
        return _rowcount_relation(0)

    def _execute_create_index(self, statement: nodes.CreateIndex) -> Relation:
        if self._catalog.index(statement.name) is not None:
            raise ExecutionError(
                f"index {statement.name!r} already exists"
            )
        table = self._storage(statement.table)
        table.create_secondary_index(
            statement.name, statement.columns, statement.kind
        )
        self._catalog.register_index(
            IndexInfo(
                name=statement.name,
                table=statement.table,
                columns=tuple(statement.columns),
                kind=statement.kind,
            )
        )
        return _rowcount_relation(0)

    def _execute_drop_index(self, statement: nodes.DropIndex) -> Relation:
        info = self._catalog.index(statement.name)
        if info is not None:
            self._catalog.drop_index(statement.name)
            self._storage(info.table).drop_secondary_index(info.name)
            return _rowcount_relation(0)
        # Indexes created through the storage API may lack catalog
        # metadata; fall back to a table-level search.
        for table in self._tables.values():
            if statement.name in table.index_names():
                table.drop_secondary_index(statement.name)
                return _rowcount_relation(0)
        raise ExecutionError(f"no index named {statement.name!r}")

    # -- EXPLAIN -----------------------------------------------------------

    def explain(self, select: nodes.Select) -> Relation:
        """Describe the plan the executor would use (no execution)."""
        lines = self._explain_lines(select, 0)
        return Relation([(None, "plan")], [(line,) for line in lines])

    def _explain_lines(self, select: nodes.Select, depth: int) -> list[str]:
        """Render one select (and its WITH clause) as plan lines.

        CTE bodies are *planned* but never run: phantom scope frames
        carry only the output column names, so the main query's plan
        resolves CTE references exactly as execution would.
        """
        if not select.ctes:
            return self._explain_query_lines(select, depth)
        pad = "  " * depth
        frame: dict[str, _CteSlot] = {}
        self._cte_stack.append(frame)
        try:
            lines: list[str] = []
            for cte in select.ctes:
                key = cte.name.lower()
                if key in frame:
                    raise ExecutionError(
                        f"duplicate CTE name {cte.name!r} in WITH clause"
                    )
                lines.append(f"{pad}Cte {cte.name}:")
                lines.extend(self._explain_lines(cte.query, depth + 1))
                columns = (
                    [name.lower() for name in cte.columns]
                    if cte.columns
                    else output_columns(cte.query)
                )
                frame[key] = _CteSlot(cte.name, None, columns)
            lines.extend(self._explain_query_lines(select, depth))
            return lines
        finally:
            self._cte_stack.pop()

    def _explain_query_lines(
        self, select: nodes.Select, depth: int
    ) -> list[str]:
        plan = self._build_plan(select)
        return render_plan(plan, depth, render_subselect=self._explain_lines)

    # -- helpers -----------------------------------------------------------

    def _storage(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"no table named {name!r}")
        return table

    def _expand_stars(
        self,
        items: tuple[nodes.SelectItem, ...],
        columns: list[tuple[Optional[str], str]],
    ) -> list[nodes.SelectItem]:
        expanded: list[nodes.SelectItem] = []
        for item in items:
            expr = item.expression
            if isinstance(expr, nodes.Star):
                for binding, name in columns:
                    if expr.table is not None and (
                        binding is None
                        or binding.lower() != expr.table.lower()
                    ):
                        continue
                    expanded.append(
                        nodes.SelectItem(nodes.ColumnRef(name, binding))
                    )
                continue
            expanded.append(item)
        return expanded


def _rowcount_relation(count: int) -> Relation:
    """DML statements report their affected-row count as a relation."""
    return Relation(columns=[(None, "rowcount")], rows=[(count,)])


def _cte_names(cte: nodes.CommonTableExpr, columns: Columns) -> list[str]:
    """A CTE's output names: its declared column list (arity-checked)
    or its body's."""
    if not cte.columns:
        return [name for _binding, name in columns]
    if len(cte.columns) != len(columns):
        raise ExecutionError(
            f"CTE {cte.name!r} declares {len(cte.columns)} columns but "
            f"its query returns {len(columns)}"
        )
    return list(cte.columns)


def _resolve_position(
    ref: nodes.ColumnRef,
    columns: list[tuple[Optional[str], str]],
) -> Optional[int]:
    matches = [
        index
        for index, (binding, name) in enumerate(columns)
        if name.lower() == ref.name.lower()
        and (
            ref.table is None
            or (binding is not None and binding.lower() == ref.table.lower())
        )
    ]
    if len(matches) == 1:
        return matches[0]
    return None


def _uses_aggregates(
    items: list[nodes.SelectItem],
    having: Optional[nodes.Expression],
    order_by: tuple[nodes.OrderItem, ...],
) -> bool:
    return bool(_collect_aggregates(items, having, order_by))


def _collect_aggregates(
    items: list[nodes.SelectItem],
    having: Optional[nodes.Expression],
    order_by: tuple[nodes.OrderItem, ...],
) -> list[nodes.FunctionCall]:
    calls: dict[str, nodes.FunctionCall] = {}
    for expr in _all_expressions(items, having, order_by):
        for sub in nodes.walk_expressions(expr):
            if isinstance(sub, nodes.FunctionCall) and is_aggregate_function(
                sub.name
            ):
                calls.setdefault(aggregate_key(sub), sub)
    return list(calls.values())


def _all_expressions(
    items: list[nodes.SelectItem],
    having: Optional[nodes.Expression],
    order_by: tuple[nodes.OrderItem, ...],
):
    for item in items:
        yield item.expression
    if having is not None:
        yield having
    for order in order_by:
        yield order.expression


def _resolve_output_reference(
    expr: nodes.Expression, items: list[nodes.SelectItem]
) -> nodes.Expression:
    """Map GROUP BY aliases/ordinals back to their select expressions."""
    if isinstance(expr, nodes.Literal) and isinstance(expr.value, int):
        ordinal = expr.value - 1
        if 0 <= ordinal < len(items):
            return items[ordinal].expression
    if isinstance(expr, nodes.ColumnRef) and expr.table is None:
        for item in items:
            if item.alias and item.alias.lower() == expr.name.lower():
                return item.expression
    return expr


def _order_extras(
    order_by: tuple[nodes.OrderItem, ...],
    items: list[nodes.SelectItem],
) -> list[nodes.Expression]:
    """ORDER BY expressions that are not plain output references."""
    extras = []
    for item in order_by:
        if _order_extra_needed(item, items):
            extras.append(item.expression)
    return extras


def _ordinal(expr: nodes.Expression) -> Optional[int]:
    """The zero-based position an ``ORDER BY <integer>`` names."""
    if isinstance(expr, nodes.Literal) and isinstance(expr.value, int):
        return expr.value - 1
    return None


def _order_positions(
    order_by: tuple[nodes.OrderItem, ...],
    items: list[nodes.SelectItem],
    columns: Columns,
) -> list[tuple[Callable[[tuple, Any], Any], bool]]:
    """Resolve each ORDER BY item of a SELECT core to a position in its
    output rows (``columns``: the select list, then one hidden column
    per :func:`_order_extras` expression): an ordinal, the item's hidden
    column, or the output column it names."""
    visible = len(items)
    output = Scope(columns)
    order = []
    extra = 0
    for item in order_by:
        position = _ordinal(item.expression)
        if position is not None:
            if not 0 <= position < visible:
                raise ExecutionError(
                    f"ORDER BY position {position + 1} out of range"
                )
        elif _order_extra_needed(item, items):
            position = visible + extra
            extra += 1
        else:
            ref = item.expression
            assert isinstance(ref, nodes.ColumnRef)
            _depth, position = output.resolve(ref.name)
        order.append((_position_fn(position), item.descending))
    return order


def _picker(positions: list) -> Callable[[tuple], tuple]:
    """Row -> tuple of the values at ``positions`` (two or more, or
    none)."""
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def _position_fn(position: int) -> Callable[[tuple, Any], Any]:
    return lambda row, env: row[position]


def _sort_key(
    order: list[tuple[Callable[[tuple, Any], Any], bool]], env: Any
) -> Callable[[tuple], Any]:
    """A sort key over rows: NULLs first, DESC parts inverted."""
    if len(order) == 1 and not order[0][1]:
        (value, _descending), = order
        return lambda row: sort_key(value(row, env))

    def key(row: tuple) -> list:
        parts = []
        for value, descending in order:
            part = sort_key(value(row, env))
            parts.append(_invert(part) if descending else part)
        return parts

    return key


def _order_extra_needed(
    item: nodes.OrderItem, items: list[nodes.SelectItem]
) -> bool:
    expr = item.expression
    if _ordinal(expr) is not None:
        return False
    if isinstance(expr, nodes.ColumnRef) and expr.table is None:
        for select_item in items:
            if select_item.output_name.lower() == expr.name.lower():
                return False
    return True


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _hashable_key(key: Any, single: bool) -> Any:
    if single:
        return _hashable(key)
    return tuple(_hashable(v) for v in key)


def _distinct(rows: list[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    seen: set = set()
    out: list[tuple[Any, ...]] = []
    for row in rows:
        key = tuple(_hashable(v) for v in row)
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


def _apply_set_operator(
    op: str, left: list[tuple[Any, ...]], right: list[tuple[Any, ...]]
) -> list[tuple[Any, ...]]:
    if op == "UNION ALL":
        return left + right
    if op == "UNION":
        return _distinct(left + right)
    right_keys = {tuple(_hashable(v) for v in row) for row in right}
    if op not in ("INTERSECT", "EXCEPT"):
        raise ExecutionError(f"unknown set operator: {op}")
    wanted = op == "INTERSECT"
    rows = []
    seen: set = set()
    for row in left:
        key = tuple(_hashable(v) for v in row)
        if (key in right_keys) == wanted and key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


def _invert(part: tuple) -> tuple:
    """Invert a sort_key part for descending order.

    NULLs are the smallest value (group 0), so inverting the group makes
    them sort last under DESC — matching SQLite semantics.
    """
    group, type_rank, value = part
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (-group, -type_rank, -value)
    if isinstance(value, str):
        return (-group, -type_rank, _InvertedString(value))
    return (-group, -type_rank, value)


class _InvertedString(str):
    """A string that sorts in reverse order."""

    def __lt__(self, other: str) -> bool:  # type: ignore[override]
        return str.__gt__(self, other)

    def __gt__(self, other: str) -> bool:  # type: ignore[override]
        return str.__lt__(self, other)

    def __le__(self, other: str) -> bool:  # type: ignore[override]
        return str.__ge__(self, other)

    def __ge__(self, other: str) -> bool:  # type: ignore[override]
        return str.__le__(self, other)
