"""Compile expressions to closures over tuple rows.

The planned path (``optimize=True``) never walks an expression tree per
row. Once the planner has fixed a node's column layout, every
expression that node runs is compiled here, once per execution, into a
closure ``fn(row, env)``:

- ``row`` is the tuple the expression's :class:`Scope` describes; a
  column reference resolved at depth 0 becomes ``row[index]``.
- ``env`` is the chain of enclosing rows, innermost first, for
  correlated subqueries: a reference resolved at depth ``d`` becomes
  ``env[d - 1][index]``. A subquery node compiles its body once and
  runs it with ``(row,) + env``.
- Aggregate calls become accumulator slots (:class:`Accumulator`).
  Grouped output expressions run over the group's first row extended
  by the slot results, so an aggregate anywhere in the tree is a plain
  index.

Names resolve at compile time, so unknown and ambiguous columns fail
before any row is read. Every other error (division by zero, type
errors, unknown functions, aggregates out of context) is raised when
the closure runs, exactly as :class:`~repro.sqlengine.expressions.
Evaluator` raises it: the interpreter stays the reference these
closures are fuzzed against. Fast paths are taken only where the
result is provably the interpreter's (two numbers or two strings
compare with Python's operators either way).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional, Protocol, Sequence

from repro.sqlengine import nodes
from repro.sqlengine.errors import ExecutionError, TypeCheckError
from repro.sqlengine.expressions import Scope, aggregate_key, compare, like_regex
from repro.sqlengine.functions import (
    Accumulator,
    call_scalar,
    is_aggregate_function,
    is_scalar_function,
    object_accumulator,
)
from repro.sqlengine.types import DataType, coerce

RowFn = Callable[[tuple, tuple], Any]

_NUMBERS = frozenset((int, float))
_FAST_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


class CompiledQuery(Protocol):
    """A compiled SELECT: ``run(env)`` returns its rows."""

    def run(self, env: tuple) -> list[tuple]: ...


SubqueryCompiler = Callable[[nodes.Select, Scope], CompiledQuery]


def _raiser(error: Exception, *operands: RowFn) -> RowFn:
    """A closure that evaluates ``operands`` (as the interpreter would
    before failing) and then raises ``error``."""

    def fn(row, env):
        for operand in operands:
            operand(row, env)
        raise error

    return fn


class Compiler:
    """Compiles expression trees against scopes; see the module doc."""

    def __init__(
        self,
        parameters: Sequence[Any],
        compile_subquery: SubqueryCompiler,
    ) -> None:
        self._parameters = list(parameters)
        self._compile_subquery = compile_subquery

    # -- public API --------------------------------------------------------

    def expression(
        self,
        expr: nodes.Expression,
        scope: Scope,
        aggregates: Optional[dict[str, int]] = None,
    ) -> RowFn:
        """Compile ``expr`` over rows laid out as ``scope``.

        ``aggregates`` maps aggregate keys to the row positions holding
        their results (grouped output expressions only).
        """
        return self._compile(expr, scope, aggregates or {})

    @staticmethod
    def scope(columns, outer: Optional[Scope]) -> Scope:
        return Scope(columns, outer)

    @staticmethod
    def direct_index(expr: nodes.Expression, scope: Scope) -> Optional[int]:
        """The row position of a column reference that resolves in
        ``scope`` itself, else None."""
        if isinstance(expr, nodes.ColumnRef):
            depth, index = scope.resolve(expr.name, expr.table)
            if depth == 0:
                return index
        return None

    def accumulator(
        self, call: nodes.FunctionCall, scope: Scope, slot: int
    ) -> Accumulator:
        """Compile one aggregate call over rows laid out as ``scope``."""
        name = call.name.upper()
        args = call.args
        star = bool(args) and isinstance(args[0], nodes.Star)
        if name == "COUNT" and star and not call.distinct:
            return _count_star(slot)
        if len(args) != 1 or star or call.distinct or name not in _SPECIALIZED:
            arg = None
            if args and not star:
                arg = self._compile(args[0], scope, {})
            return object_accumulator(call, slot, arg)
        index = self.direct_index(args[0], scope)
        if index is not None:
            value: RowFn = operator.itemgetter(index)  # type: ignore[assignment]
            return _SPECIALIZED[name](slot, value, True)
        return _SPECIALIZED[name](
            slot, self._compile(args[0], scope, {}), False
        )

    # -- helpers -----------------------------------------------------------

    def _compile(
        self,
        expr: nodes.Expression,
        scope: Scope,
        aggregates: dict[str, int],
    ) -> RowFn:
        handler = _HANDLERS.get(type(expr))
        if handler is None:
            return _raiser(ExecutionError(f"cannot evaluate expression: {expr!r}"))
        return handler(self, expr, scope, aggregates)

    # -- node handlers -----------------------------------------------------

    def _literal(self, expr: nodes.Literal, scope, aggregates) -> RowFn:
        value = expr.value
        return lambda row, env: value

    def _parameter(self, expr: nodes.Parameter, scope, aggregates) -> RowFn:
        if expr.index >= len(self._parameters):
            return _raiser(
                ExecutionError(f"missing bind parameter at index {expr.index}")
            )
        value = self._parameters[expr.index]
        return lambda row, env: value

    def _column(self, expr: nodes.ColumnRef, scope: Scope, aggregates) -> RowFn:
        depth, index = scope.resolve(expr.name, expr.table)
        if depth == 0:
            return lambda row, env: row[index]
        level = depth - 1
        return lambda row, env: env[level][index]

    def _unary(self, expr: nodes.UnaryOp, scope, aggregates) -> RowFn:
        operand = self._compile(expr.operand, scope, aggregates)
        op = expr.op
        if op == "NOT":

            def negate(row, env):
                value = operand(row, env)
                if value is None:
                    return None
                return not value

            return negate

        def sign(row, env):
            value = operand(row, env)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ExecutionError(f"unary {op} over {value!r}")
            return -value if op == "-" else value

        return sign

    def _binary(self, expr: nodes.BinaryOp, scope, aggregates) -> RowFn:
        op = expr.op
        left = self._compile(expr.left, scope, aggregates)
        right = self._compile(expr.right, scope, aggregates)
        if op == "AND":

            def conjunction(row, env):
                lhs = left(row, env)
                if lhs is not None and not lhs:
                    return False
                rhs = right(row, env)
                if rhs is not None and not rhs:
                    return False
                if lhs is None or rhs is None:
                    return None
                return True

            return conjunction
        if op == "OR":

            def disjunction(row, env):
                lhs = left(row, env)
                if lhs is not None and lhs:
                    return True
                rhs = right(row, env)
                if rhs is not None and rhs:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return disjunction
        if op == "||":

            def concat(row, env):
                lhs = left(row, env)
                rhs = right(row, env)
                if lhs is None or rhs is None:
                    return None
                return str(lhs) + str(rhs)

            return concat
        if op in _FAST_COMPARE:
            return self._comparison(expr, scope, left, right)
        arithmetic = _ARITHMETIC.get(op)
        if arithmetic is None:
            error = ExecutionError(f"unknown operator: {op}")

            def unknown(row, env):
                lhs = left(row, env)
                rhs = right(row, env)
                if lhs is None or rhs is None:
                    return None
                raise error

            return unknown
        return arithmetic(left, right)

    def _comparison(
        self, expr: nodes.BinaryOp, scope: Scope, left: RowFn, right: RowFn
    ) -> RowFn:
        op = expr.op
        fast = _FAST_COMPARE[op]
        index = self.direct_index(expr.left, scope)
        constant = expr.right.value if isinstance(expr.right, nodes.Literal) else None
        if index is not None and type(constant) in _NUMBERS:

            def column_vs_number(row, env):
                value = row[index]
                if value is None:
                    return None
                if type(value) in _NUMBERS:
                    return fast(value, constant)
                return compare(op, value, constant)

            return column_vs_number
        if index is not None and type(constant) is str:

            def column_vs_text(row, env):
                value = row[index]
                if value is None:
                    return None
                if type(value) is str:
                    return fast(value, constant)
                return compare(op, value, constant)

            return column_vs_text

        def comparison(row, env):
            lhs = left(row, env)
            rhs = right(row, env)
            if lhs is None or rhs is None:
                return None
            left_type = type(lhs)
            right_type = type(rhs)
            if (left_type in _NUMBERS and right_type in _NUMBERS) or (
                left_type is str and right_type is str
            ):
                return fast(lhs, rhs)
            return compare(op, lhs, rhs)

        return comparison

    def _is_null(self, expr: nodes.IsNull, scope, aggregates) -> RowFn:
        operand = self._compile(expr.operand, scope, aggregates)
        if expr.negated:
            return lambda row, env: operand(row, env) is not None
        return lambda row, env: operand(row, env) is None

    def _like(self, expr: nodes.Like, scope, aggregates) -> RowFn:
        operand = self._compile(expr.operand, scope, aggregates)
        negated = expr.negated
        if isinstance(expr.pattern, nodes.Literal):
            if expr.pattern.value is None:
                return lambda row, env: (operand(row, env), None)[1]
            match = like_regex(str(expr.pattern.value))

            def like_literal(row, env):
                value = operand(row, env)
                if value is None:
                    return None
                matched = match(str(value)) is not None
                return (not matched) if negated else matched

            return like_literal
        pattern = self._compile(expr.pattern, scope, aggregates)

        def like(row, env):
            value = operand(row, env)
            text = pattern(row, env)
            if value is None or text is None:
                return None
            matched = like_regex(str(text))(str(value)) is not None
            return (not matched) if negated else matched

        return like

    def _between(self, expr: nodes.Between, scope, aggregates) -> RowFn:
        operand = self._compile(expr.operand, scope, aggregates)
        low = self._compile(expr.low, scope, aggregates)
        high = self._compile(expr.high, scope, aggregates)
        negated = expr.negated

        def between(row, env):
            value = operand(row, env)
            lo = low(row, env)
            hi = high(row, env)
            if value is None or lo is None or hi is None:
                return None
            if (
                type(value) in _NUMBERS
                and type(lo) in _NUMBERS
                and type(hi) in _NUMBERS
            ):
                inside = lo <= value and value <= hi
            else:
                inside = compare("<=", lo, value) and compare("<=", value, hi)
            return (not inside) if negated else inside

        return between

    def _in_list(self, expr: nodes.InList, scope, aggregates) -> RowFn:
        operand = self._compile(expr.operand, scope, aggregates)
        items = [self._compile(item, scope, aggregates) for item in expr.items]
        negated = expr.negated

        def in_list(row, env):
            value = operand(row, env)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, env)
                if candidate is None:
                    saw_null = True
                    continue
                if compare("=", value, candidate):
                    return not negated
            if saw_null:
                return None
            return negated

        return in_list

    def _in_subquery(self, expr: nodes.InSubquery, scope, aggregates) -> RowFn:
        operand = self._compile(expr.operand, scope, aggregates)
        subquery = self._compile_subquery(expr.subquery, scope)
        negated = expr.negated

        def in_subquery(row, env):
            value = operand(row, env)
            if value is None:
                return None
            saw_null = False
            for result in subquery.run((row,) + env):
                candidate = result[0]
                if candidate is None:
                    saw_null = True
                    continue
                if compare("=", value, candidate):
                    return not negated
            if saw_null:
                return None
            return negated

        return in_subquery

    def _exists(self, expr: nodes.Exists, scope, aggregates) -> RowFn:
        subquery = self._compile_subquery(expr.subquery, scope)
        negated = expr.negated

        def exists(row, env):
            found = len(subquery.run((row,) + env)) > 0
            return (not found) if negated else found

        return exists

    def _scalar_subquery(self, expr: nodes.ScalarSubquery, scope, aggregates) -> RowFn:
        subquery = self._compile_subquery(expr.subquery, scope)

        def scalar(row, env):
            rows = subquery.run((row,) + env)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned multiple rows")
            return rows[0][0]

        return scalar

    def _function(self, expr: nodes.FunctionCall, scope, aggregates) -> RowFn:
        if is_aggregate_function(expr.name):
            position = aggregates.get(aggregate_key(expr))
            if position is not None:
                return lambda row, env: row[position]
            for arg in expr.args:  # resolve names even when unreachable
                if not isinstance(arg, nodes.Star):
                    self._compile(arg, scope, aggregates)
            return _raiser(
                ExecutionError(
                    f"aggregate {expr.name} used outside GROUP BY context"
                )
            )
        args = [self._compile(arg, scope, aggregates) for arg in expr.args]
        if not is_scalar_function(expr.name):
            return _raiser(ExecutionError(f"unknown function: {expr.name}"))
        name = expr.name
        return lambda row, env: call_scalar(name, [arg(row, env) for arg in args])

    def _case(self, expr: nodes.Case, scope, aggregates) -> RowFn:
        branches = [
            (
                self._compile(condition, scope, aggregates),
                self._compile(result, scope, aggregates),
            )
            for condition, result in expr.branches
        ]
        default = (
            None
            if expr.default is None
            else self._compile(expr.default, scope, aggregates)
        )

        def case(row, env):
            for condition, result in branches:
                if condition(row, env):
                    return result(row, env)
            if default is not None:
                return default(row, env)
            return None

        return case

    def _cast(self, expr: nodes.Cast, scope, aggregates) -> RowFn:
        operand = self._compile(expr.operand, scope, aggregates)
        try:
            data_type = DataType.from_name(expr.type_name)
        except TypeCheckError as error:
            return _raiser(error, operand)
        return lambda row, env: coerce(operand(row, env), data_type)

    def _star(self, expr: nodes.Star, scope, aggregates) -> RowFn:
        return _raiser(
            ExecutionError("'*' is only valid in a select list or COUNT(*)")
        )


_HANDLERS: dict[type, Callable[..., RowFn]] = {
    nodes.Literal: Compiler._literal,
    nodes.Parameter: Compiler._parameter,
    nodes.ColumnRef: Compiler._column,
    nodes.UnaryOp: Compiler._unary,
    nodes.BinaryOp: Compiler._binary,
    nodes.IsNull: Compiler._is_null,
    nodes.Like: Compiler._like,
    nodes.Between: Compiler._between,
    nodes.InList: Compiler._in_list,
    nodes.InSubquery: Compiler._in_subquery,
    nodes.Exists: Compiler._exists,
    nodes.ScalarSubquery: Compiler._scalar_subquery,
    nodes.FunctionCall: Compiler._function,
    nodes.Case: Compiler._case,
    nodes.Cast: Compiler._cast,
    nodes.Star: Compiler._star,
}


# -- arithmetic ---------------------------------------------------------------


def _type_error(left: Any, op: str, right: Any) -> ExecutionError:
    return ExecutionError(f"type error: {left!r} {op} {right!r}")


def _plain_arithmetic(op: str, apply: Callable[[Any, Any], Any]):
    def build(left: RowFn, right: RowFn) -> RowFn:
        def arithmetic(row, env):
            lhs = left(row, env)
            rhs = right(row, env)
            if lhs is None or rhs is None:
                return None
            try:
                return apply(lhs, rhs)
            except TypeError:
                raise _type_error(lhs, op, rhs) from None

        return arithmetic

    return build


def _divide(left: RowFn, right: RowFn) -> RowFn:
    def divide(row, env):
        lhs = left(row, env)
        rhs = right(row, env)
        if lhs is None or rhs is None:
            return None
        try:
            if rhs == 0:
                raise ExecutionError("division by zero")
            result = lhs / rhs
            if isinstance(lhs, int) and isinstance(rhs, int) and result == int(result):
                return int(result)
            return result
        except TypeError:
            raise _type_error(lhs, "/", rhs) from None

    return divide


def _modulo(left: RowFn, right: RowFn) -> RowFn:
    def modulo(row, env):
        lhs = left(row, env)
        rhs = right(row, env)
        if lhs is None or rhs is None:
            return None
        try:
            if rhs == 0:
                raise ExecutionError("modulo by zero")
            return lhs % rhs
        except TypeError:
            raise _type_error(lhs, "%", rhs) from None

    return modulo


_ARITHMETIC: dict[str, Callable[[RowFn, RowFn], RowFn]] = {
    "+": _plain_arithmetic("+", operator.add),
    "-": _plain_arithmetic("-", operator.sub),
    "*": _plain_arithmetic("*", operator.mul),
    "/": _divide,
    "%": _modulo,
}


# -- accumulators -------------------------------------------------------------
#
# Each builder takes (slot, value, direct): ``value`` reads the argument
# from a row -- ``value(row)`` when ``direct`` (an itemgetter over a
# column of the row itself), else ``value(row, env)``. The semantics are
# those of the accumulator classes in :mod:`repro.sqlengine.functions`.


def _count_star(slot: int) -> Accumulator:
    def step(state, row, env):
        state[slot] += 1

    return Accumulator(slot, (0,), step, operator.itemgetter(slot))


def _count(slot: int, value, direct: bool) -> Accumulator:
    if direct:

        def step(state, row, env):
            if value(row) is not None:
                state[slot] += 1

    else:

        def step(state, row, env):
            if value(row, env) is not None:
                state[slot] += 1

    return Accumulator(slot, (0,), step, operator.itemgetter(slot))


def _numeric(name: str, item: Any) -> None:
    if not isinstance(item, (int, float)) or isinstance(item, bool):
        raise ExecutionError(f"{name} over non-numeric value {item!r}")


def _sum(slot: int, value, direct: bool) -> Accumulator:
    def step(state, row, env):
        item = value(row) if direct else value(row, env)
        if item is None:
            return
        if type(item) not in _NUMBERS:
            _numeric("SUM", item)
        total = state[slot]
        state[slot] = item if total is None else total + item

    return Accumulator(slot, (None,), step, operator.itemgetter(slot))


def _avg(slot: int, value, direct: bool) -> Accumulator:
    count = slot + 1

    def step(state, row, env):
        item = value(row) if direct else value(row, env)
        if item is None:
            return
        if type(item) not in _NUMBERS:
            _numeric("AVG", item)
        state[slot] += item
        state[count] += 1

    def final(state):
        if state[count] == 0:
            return None
        return state[slot] / state[count]

    return Accumulator(slot, (0.0, 0), step, final)


def _extreme(better: Callable[[Any, Any], bool]):
    def build(slot: int, value, direct: bool) -> Accumulator:
        def step(state, row, env):
            item = value(row) if direct else value(row, env)
            if item is None:
                return
            best = state[slot]
            if best is None or better(item, best):
                state[slot] = item

        return Accumulator(slot, (None,), step, operator.itemgetter(slot))

    return build


_SPECIALIZED: dict[str, Callable[[int, Any, bool], Accumulator]] = {
    "COUNT": _count,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": _extreme(operator.lt),
    "MAX": _extreme(operator.gt),
}
