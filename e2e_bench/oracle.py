"""The answer oracle every workload is checked against.

Gold SQL runs on a second copy of the seeded sales database with the
planner turned off (``optimize=False``), the engine's naive reference
pipeline. The oracle calls ``Database.execute_statement`` directly, so
it never reads or fills the program's caches; in ``write_mix`` it
replays the same INSERTs in the same order as the program receives
them.
"""

from __future__ import annotations

from typing import Any, Optional

from e2e_bench import workloads


def _cell(value: Any) -> Any:
    # Grouped sums may add floats in another order than the gold plan.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return round(float(value), 6)
    return value


def canonical(rows) -> tuple:
    """Rows as an order-free multiset with rounded numbers."""
    return tuple(
        sorted((tuple(_cell(v) for v in row) for row in rows), key=repr)
    )


class Oracle:
    """Gold answers over the naive reference database for one seed."""

    def __init__(self, seed: int) -> None:
        from repro.datasets import build_sales_database

        self.db = build_sales_database(
            seed=seed,
            n_users=workloads.N_USERS,
            n_products=workloads.N_PRODUCTS,
            n_orders=workloads.N_ORDERS,
        )
        self.db.optimize = False
        self._version = 0
        self._memo: dict[tuple[int, str], Optional[tuple]] = {}

    def apply(self, write: workloads.Write) -> None:
        from repro.sqlengine import parse_sql

        self.db.execute_statement(parse_sql(write.sql))
        self._version += 1

    def rows(self, sql: str) -> Optional[tuple]:
        """Canonical result of ``sql`` now; None when it cannot run."""
        from repro.sqlengine import SqlEngineError, parse_sql

        key = (self._version, sql)
        if key not in self._memo:
            try:
                result = self.db.execute_statement(parse_sql(sql))
                self._memo[key] = canonical(result.rows)
            except SqlEngineError:
                self._memo[key] = None
        return self._memo[key]

    def matches(self, turn: workloads.Turn, answer: Any) -> bool:
        """Whether ``answer`` (see :func:`answer_of`) is right for
        ``turn`` against the database as it is now."""
        if answer is None:
            return False
        if turn.app == "knowledge_qa":
            return any(doc in turn.relevant for doc in answer)
        if turn.app == "data_analysis":
            failures, charts = answer
            return not failures and charts >= 3
        gold = self.rows(turn.gold)
        if turn.app == "text2sql":
            return gold is not None and (
                answer == turn.gold or self.rows(answer) == gold
            )
        if turn.app == "chat2viz":
            # ChartSpec.from_rows skips NULL values and stringifies labels.
            gold = canonical(
                (str(label), value)
                for label, value in gold
                if value is not None
            )
        return answer == gold


def answer_of(turn: workloads.Turn, response) -> Any:
    """The part of an app response the oracle judges, as a small
    hashable value; None for a failed turn (``ok=False``)."""
    if not response.ok:
        return None
    meta = response.metadata
    if turn.app == "knowledge_qa":
        return tuple(meta["citations"])
    if turn.app == "data_analysis":
        return tuple(meta["failures"]), meta["charts"]
    if turn.app == "text2sql":
        return response.payload
    if turn.app == "chat2viz":
        return canonical((p.label, p.value) for p in response.payload.points)
    return canonical(response.payload.rows)
