"""Expression evaluation over row contexts: the naive reference path.

A :class:`Scope` is a column layout ``[(binding, name), ...]`` chained
to the scope of its enclosing query; it resolves names to positions.
A :class:`RowContext` is a scope that also carries one row's values, so
the tree-walking :class:`Evaluator` can look names up as it goes. This
interpreter runs only on ``optimize=False`` databases, where it is the
slow oracle the compiled path (:mod:`repro.sqlengine.compiler`) is
fuzzed against; both share :func:`compare` and :func:`like_regex`.
"""

from __future__ import annotations

import datetime as _dt
import functools
import re
from typing import Any, Callable, Optional, Sequence

from repro.sqlengine import nodes
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.functions import (
    Accumulator,
    call_scalar,
    is_aggregate_function,
    is_scalar_function,
    object_accumulator,
)
from repro.sqlengine.types import DataType, coerce


class Scope:
    """A column layout chained to an optional outer scope."""

    def __init__(
        self,
        columns: Sequence[tuple[Optional[str], str]],
        outer: Optional["Scope"] = None,
    ) -> None:
        self.columns = list(columns)
        self.outer = outer
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for index, (binding, name) in enumerate(self.columns):
            lowered = name.lower()
            if binding is not None:
                self._by_qualified[(binding.lower(), lowered)] = index
            self._by_name.setdefault(lowered, []).append(index)

    def find(self, name: str, table: Optional[str] = None) -> Optional[int]:
        lowered = name.lower()
        if table is not None:
            return self._by_qualified.get((table.lower(), lowered))
        positions = self._by_name.get(lowered)
        if not positions:
            return None
        if len(positions) > 1:
            raise ExecutionError(f"ambiguous column reference: {name}")
        return positions[0]

    def resolve(self, name: str, table: Optional[str] = None) -> tuple[int, int]:
        """``(depth, index)`` of a column: depth 0 is this scope, depth
        ``d`` the ``d``-th enclosing one. Unknown or ambiguous names
        raise :class:`ExecutionError`."""
        scope: Optional[Scope] = self
        depth = 0
        while scope is not None:
            index = scope.find(name, table)
            if index is not None:
                return depth, index
            scope = scope.outer
            depth += 1
        qualified = f"{table}.{name}" if table else name
        raise ExecutionError(f"unknown column: {qualified}")


class RowContext(Scope):
    """Column bindings for one row, chained to an optional outer context."""

    def __init__(
        self,
        columns: Sequence[tuple[Optional[str], str]],
        values: Sequence[Any],
        outer: Optional["RowContext"] = None,
    ) -> None:
        super().__init__(columns, outer)
        self.values = list(values)

    def with_values(self, values: Sequence[Any]) -> "RowContext":
        """Cheap clone sharing the column layout (hot loop path)."""
        clone = RowContext.__new__(RowContext)
        clone.columns = self.columns
        clone.values = list(values)
        clone.outer = self.outer
        clone._by_qualified = self._by_qualified
        clone._by_name = self._by_name
        return clone

    def lookup(self, name: str, table: Optional[str] = None) -> Any:
        depth, index = self.resolve(name, table)
        context: Any = self
        for _ in range(depth):
            context = context.outer
        return context.values[index]


SubqueryRunner = Callable[[nodes.Select, Optional[RowContext]], "object"]


class Evaluator:
    """Evaluate expression nodes against a row context.

    ``run_subquery`` is injected by the executor so that subqueries can
    be evaluated (with the current context as the outer scope).
    """

    def __init__(
        self,
        run_subquery: Optional[SubqueryRunner] = None,
        parameters: Sequence[Any] = (),
    ) -> None:
        self._run_subquery = run_subquery
        self._parameters = list(parameters)

    def evaluate(self, expr: nodes.Expression, ctx: RowContext) -> Any:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise ExecutionError(
                f"cannot evaluate expression: {expr!r}"
            )
        return method(self, expr, ctx)

    def evaluate_truth(self, expr: nodes.Expression, ctx: RowContext) -> bool:
        """Three-valued SQL truth: NULL counts as not-true."""
        value = self.evaluate(expr, ctx)
        return bool(value) if value is not None else False

    # -- node handlers --------------------------------------------------

    def _literal(self, expr: nodes.Literal, ctx: RowContext) -> Any:
        return expr.value

    def _parameter(self, expr: nodes.Parameter, ctx: RowContext) -> Any:
        if expr.index >= len(self._parameters):
            raise ExecutionError(
                f"missing bind parameter at index {expr.index}"
            )
        return self._parameters[expr.index]

    def _column(self, expr: nodes.ColumnRef, ctx: RowContext) -> Any:
        return ctx.lookup(expr.name, expr.table)

    def _unary(self, expr: nodes.UnaryOp, ctx: RowContext) -> Any:
        if expr.op == "NOT":
            value = self.evaluate(expr.operand, ctx)
            if value is None:
                return None
            return not bool(value)
        value = self.evaluate(expr.operand, ctx)
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"unary {expr.op} over {value!r}")
        return -value if expr.op == "-" else value

    def _binary(self, expr: nodes.BinaryOp, ctx: RowContext) -> Any:
        op = expr.op
        if op == "AND":
            left = self.evaluate(expr.left, ctx)
            if left is not None and not left:
                return False
            right = self.evaluate(expr.right, ctx)
            if right is not None and not right:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.evaluate(expr.left, ctx)
            if left is not None and left:
                return True
            right = self.evaluate(expr.right, ctx)
            if right is not None and right:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.evaluate(expr.left, ctx)
        right = self.evaluate(expr.right, ctx)
        if op == "||":
            if left is None or right is None:
                return None
            return str(left) + str(right)
        if left is None or right is None:
            return None
        if op in ("=", "<>", "<", ">", "<=", ">="):
            return compare(op, left, right)
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise ExecutionError("division by zero")
                result = left / right
                if (
                    isinstance(left, int)
                    and isinstance(right, int)
                    and result == int(result)
                ):
                    return int(result)
                return result
            if op == "%":
                if right == 0:
                    raise ExecutionError("modulo by zero")
                return left % right
        except TypeError:
            raise ExecutionError(
                f"type error: {left!r} {op} {right!r}"
            ) from None
        raise ExecutionError(f"unknown operator: {op}")

    def _is_null(self, expr: nodes.IsNull, ctx: RowContext) -> bool:
        value = self.evaluate(expr.operand, ctx)
        return (value is not None) if expr.negated else (value is None)

    def _like(self, expr: nodes.Like, ctx: RowContext) -> Any:
        value = self.evaluate(expr.operand, ctx)
        pattern = self.evaluate(expr.pattern, ctx)
        if value is None or pattern is None:
            return None
        matched = like_regex(str(pattern))(str(value)) is not None
        return (not matched) if expr.negated else matched

    def _between(self, expr: nodes.Between, ctx: RowContext) -> Any:
        value = self.evaluate(expr.operand, ctx)
        low = self.evaluate(expr.low, ctx)
        high = self.evaluate(expr.high, ctx)
        if value is None or low is None or high is None:
            return None
        inside = compare("<=", low, value) and compare(
            "<=", value, high
        )
        return (not inside) if expr.negated else inside

    def _in_list(self, expr: nodes.InList, ctx: RowContext) -> Any:
        value = self.evaluate(expr.operand, ctx)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            candidate = self.evaluate(item, ctx)
            if candidate is None:
                saw_null = True
                continue
            if compare("=", value, candidate):
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _in_subquery(self, expr: nodes.InSubquery, ctx: RowContext) -> Any:
        value = self.evaluate(expr.operand, ctx)
        if value is None:
            return None
        result = self._subquery(expr.subquery, ctx)
        saw_null = False
        for row in result.rows:
            candidate = row[0]
            if candidate is None:
                saw_null = True
                continue
            if compare("=", value, candidate):
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _exists(self, expr: nodes.Exists, ctx: RowContext) -> bool:
        result = self._subquery(expr.subquery, ctx)
        found = len(result.rows) > 0
        return (not found) if expr.negated else found

    def _scalar_subquery(
        self, expr: nodes.ScalarSubquery, ctx: RowContext
    ) -> Any:
        result = self._subquery(expr.subquery, ctx)
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise ExecutionError("scalar subquery returned multiple rows")
        return result.rows[0][0]

    def _subquery(self, select: nodes.Select, ctx: RowContext):
        if self._run_subquery is None:
            raise ExecutionError("subqueries are not available here")
        result = self._run_subquery(select, ctx)
        return result

    def _function(self, expr: nodes.FunctionCall, ctx: RowContext) -> Any:
        if is_aggregate_function(expr.name):
            raise ExecutionError(
                f"aggregate {expr.name} used outside GROUP BY context"
            )
        if not is_scalar_function(expr.name):
            raise ExecutionError(f"unknown function: {expr.name}")
        args = [self.evaluate(arg, ctx) for arg in expr.args]
        return call_scalar(expr.name, args)

    def _case(self, expr: nodes.Case, ctx: RowContext) -> Any:
        for condition, result in expr.branches:
            if self.evaluate_truth(condition, ctx):
                return self.evaluate(result, ctx)
        if expr.default is not None:
            return self.evaluate(expr.default, ctx)
        return None

    def _cast(self, expr: nodes.Cast, ctx: RowContext) -> Any:
        value = self.evaluate(expr.operand, ctx)
        data_type = DataType.from_name(expr.type_name)
        return coerce(value, data_type)

    def _star(self, expr: nodes.Star, ctx: RowContext) -> Any:
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")

    _DISPATCH: dict[type, Callable] = {}


Evaluator._DISPATCH = {
    nodes.Literal: Evaluator._literal,
    nodes.Parameter: Evaluator._parameter,
    nodes.ColumnRef: Evaluator._column,
    nodes.UnaryOp: Evaluator._unary,
    nodes.BinaryOp: Evaluator._binary,
    nodes.IsNull: Evaluator._is_null,
    nodes.Like: Evaluator._like,
    nodes.Between: Evaluator._between,
    nodes.InList: Evaluator._in_list,
    nodes.InSubquery: Evaluator._in_subquery,
    nodes.Exists: Evaluator._exists,
    nodes.ScalarSubquery: Evaluator._scalar_subquery,
    nodes.FunctionCall: Evaluator._function,
    nodes.Case: Evaluator._case,
    nodes.Cast: Evaluator._cast,
    nodes.Star: Evaluator._star,
}


class Interpreter:
    """Binds expressions for the naive path (``optimize=False``).

    The counterpart of :class:`repro.sqlengine.compiler.Compiler`, with
    the same interface, so both paths share one pipeline. A bound
    expression is a ``fn(row, env)`` that clones a :class:`RowContext`
    template per row and walks the tree with :class:`Evaluator`; ``env``
    is unused because the template already chains to the enclosing
    query's context. Names are checked when binding, as the compiler
    checks them, so both paths fail before any row is read.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        bind_subquery: Callable[[nodes.Select, Scope], Any],
    ) -> None:
        self._evaluator = evaluator
        self._bind_subquery = bind_subquery

    @staticmethod
    def scope(columns, outer: Optional[Scope]) -> RowContext:
        return RowContext(columns, [None] * len(columns), outer)  # type: ignore[arg-type]

    @staticmethod
    def direct_index(expr: nodes.Expression, scope: Scope) -> Optional[int]:
        return None  # never specialize: every value goes through evaluate

    def expression(
        self,
        expr: nodes.Expression,
        scope: RowContext,
        aggregates: Optional[dict[str, int]] = None,
    ) -> Callable[[tuple, Any], Any]:
        self._check_names(expr, scope)
        evaluate = self._evaluator.evaluate
        if not aggregates:
            return lambda row, env: evaluate(expr, scope.with_values(row))

        def grouped(row, env):
            values = {key: row[index] for key, index in aggregates.items()}
            return evaluate(
                substitute_aggregates(expr, values), scope.with_values(row)
            )

        return grouped

    def accumulator(
        self, call: nodes.FunctionCall, scope: RowContext, slot: int
    ) -> Accumulator:
        arg = None
        if call.args and not isinstance(call.args[0], nodes.Star):
            arg = self.expression(call.args[0], scope)
        return object_accumulator(call, slot, arg)

    def _check_names(self, expr: nodes.Expression, scope: Scope) -> None:
        for sub in nodes.walk_expressions(expr):
            if isinstance(sub, nodes.ColumnRef):
                scope.resolve(sub.name, sub.table)
            elif isinstance(
                sub, (nodes.InSubquery, nodes.Exists, nodes.ScalarSubquery)
            ):
                self._bind_subquery(sub.subquery, scope)


def compare(op: str, left: Any, right: Any) -> bool:
    """SQL comparison of two non-NULL values."""
    # Allow DATE-vs-ISO-string comparisons, common in generated SQL.
    if isinstance(left, _dt.date) and isinstance(right, str):
        right = coerce(right, DataType.DATE)
    elif isinstance(right, _dt.date) and isinstance(left, str):
        left = coerce(left, DataType.DATE)
    numeric = (int, float)
    mixed_types = isinstance(left, numeric) != isinstance(right, numeric)
    if mixed_types and op in ("=", "<>"):
        # SQL engines vary here; equality across type groups is false.
        return op == "<>"
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        return left >= right
    except TypeError:
        raise ExecutionError(
            f"cannot compare {left!r} with {right!r}"
        ) from None


@functools.lru_cache(maxsize=256)
def like_regex(pattern: str) -> Callable[[str], Any]:
    """The ``fullmatch`` of SQL LIKE ``pattern`` (``%``/``_``
    wildcards, case-insensitive)."""
    regex_parts = []
    for ch in pattern:
        if ch == "%":
            regex_parts.append(".*")
        elif ch == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(ch))
    regex = "".join(regex_parts)
    return re.compile(regex, flags=re.IGNORECASE | re.DOTALL).fullmatch


def substitute_aggregates(
    expr: nodes.Expression, values: dict[str, Any]
) -> nodes.Expression:
    """``expr`` with every aggregate call whose key (see
    :func:`aggregate_key`) is in ``values`` replaced by its result as a
    literal. Subquery bodies are left alone: their aggregates belong to
    the subquery."""
    if isinstance(expr, nodes.FunctionCall) and is_aggregate_function(
        expr.name
    ):
        key = aggregate_key(expr)
        if key in values:
            return nodes.Literal(values[key])
    return nodes.map_children(
        expr, lambda child: substitute_aggregates(child, values)
    )


def aggregate_key(call: nodes.FunctionCall) -> str:
    """Aggregates are accumulated once per distinct call shape."""
    return call.to_sql().upper()
