"""Executor edge cases discovered during integration work."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, "
        "amount REAL, day DATE)"
    )
    database.insert_rows(
        "sales",
        [
            (1, "north", 100.0, "2024-01-05"),
            (2, "south", 50.0, "2024-01-20"),
            (3, "north", 75.0, "2024-02-10"),
            (4, "east", None, "2024-02-15"),
            (5, "south", 25.0, "2024-03-01"),
        ],
    )
    return database


class TestGroupingEdgeCases:
    def test_group_by_expression(self, db):
        rows = db.execute(
            "SELECT STRFTIME('%Y-%m', day), COUNT(*) FROM sales "
            "GROUP BY STRFTIME('%Y-%m', day) ORDER BY 1"
        ).rows
        assert rows == [("2024-01", 2), ("2024-02", 2), ("2024-03", 1)]

    def test_having_aggregate_not_in_select(self, db):
        rows = db.execute(
            "SELECT region FROM sales GROUP BY region "
            "HAVING SUM(amount) > 60 ORDER BY region"
        ).rows
        assert rows == [("north",), ("south",)]

    def test_group_by_with_null_values_forms_group(self, db):
        rows = db.execute(
            "SELECT amount IS NULL, COUNT(*) FROM sales "
            "GROUP BY amount IS NULL ORDER BY 1"
        ).rows
        assert rows == [(False, 4), (True, 1)]

    def test_aggregate_over_join(self, db):
        db.execute("CREATE TABLE regions (region TEXT, zone TEXT)")
        db.execute(
            "INSERT INTO regions VALUES ('north','cold'),"
            "('south','warm'),('east','warm')"
        )
        rows = db.execute(
            "SELECT r.zone, SUM(s.amount) FROM sales s "
            "JOIN regions r ON s.region = r.region "
            "GROUP BY r.zone ORDER BY r.zone"
        ).rows
        assert rows == [("cold", 175.0), ("warm", 75.0)]

    def test_case_inside_aggregate(self, db):
        value = db.execute(
            "SELECT SUM(CASE WHEN region = 'north' THEN amount ELSE 0 END) "
            "FROM sales"
        ).scalar()
        assert value == 175.0

    def test_aggregate_of_expression(self, db):
        value = db.execute(
            "SELECT AVG(amount * 2) FROM sales WHERE amount IS NOT NULL"
        ).scalar()
        assert value == pytest.approx(125.0)


class TestDmlEdgeCases:
    def test_update_with_subquery_in_where(self, db):
        db.execute(
            "UPDATE sales SET amount = 0 WHERE id IN "
            "(SELECT id FROM sales WHERE region = 'north')"
        )
        assert db.execute(
            "SELECT SUM(amount) FROM sales WHERE region = 'north'"
        ).scalar() == 0

    def test_delete_with_scalar_subquery(self, db):
        db.execute(
            "DELETE FROM sales WHERE amount = "
            "(SELECT MAX(amount) FROM sales)"
        )
        assert db.table_rowcount("sales") == 4

    def test_insert_select_with_expressions(self, db):
        db.execute("CREATE TABLE archive (id INTEGER, doubled REAL)")
        db.execute(
            "INSERT INTO archive SELECT id, amount * 2 FROM sales "
            "WHERE amount IS NOT NULL"
        )
        assert db.execute("SELECT SUM(doubled) FROM archive").scalar() == 500.0

    def test_update_with_parameters(self, db):
        db.execute(
            "UPDATE sales SET region = ? WHERE id = ?",
            parameters=("west", 1),
        )
        assert db.execute(
            "SELECT region FROM sales WHERE id = 1"
        ).scalar() == "west"

    def test_parameters_in_select(self, db):
        rows = db.execute(
            "SELECT id FROM sales WHERE amount BETWEEN ? AND ? ORDER BY id",
            parameters=(50, 100),
        ).rows
        assert rows == [(1,), (2,), (3,)]


class TestOrderingEdgeCases:
    def test_order_by_desc_nulls_last(self, db):
        values = db.execute(
            "SELECT amount FROM sales ORDER BY amount DESC"
        ).column("amount")
        assert values[-1] is None
        assert values[:2] == [100.0, 75.0]

    def test_order_by_two_keys_mixed_direction(self, db):
        rows = db.execute(
            "SELECT region, amount FROM sales "
            "WHERE amount IS NOT NULL ORDER BY region ASC, amount DESC"
        ).rows
        assert rows == [
            ("north", 100.0), ("north", 75.0),
            ("south", 50.0), ("south", 25.0),
        ]

    def test_limit_zero(self, db):
        assert db.execute("SELECT * FROM sales LIMIT 0").rows == []

    def test_offset_beyond_end(self, db):
        assert db.execute(
            "SELECT * FROM sales LIMIT 10 OFFSET 99"
        ).rows == []


class TestMiscEdgeCases:
    def test_select_star_from_subquery_alias(self, db):
        rows = db.execute(
            "SELECT sub.* FROM (SELECT region FROM sales "
            "WHERE amount > 60) AS sub ORDER BY sub.region"
        ).rows
        assert rows == [("north",), ("north",)]

    def test_scalar_comparison_with_date_string(self, db):
        count = db.execute(
            "SELECT COUNT(*) FROM sales WHERE day >= '2024-02-01'"
        ).scalar()
        assert count == 3

    def test_concat_operator_in_projection(self, db):
        value = db.execute(
            "SELECT region || '-' || id FROM sales WHERE id = 1"
        ).scalar()
        assert value == "north-1"

    def test_division_by_zero_in_where_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM sales WHERE amount / 0 > 1")

    def test_union_of_view_and_table(self, db):
        db.execute(
            "CREATE VIEW big AS SELECT region FROM sales WHERE amount > 60"
        )
        rows = db.execute(
            "SELECT region FROM big UNION SELECT region FROM sales "
            "ORDER BY 1"
        ).rows
        assert rows == [("east",), ("north",), ("south",)]


@pytest.fixture(params=[True, False], ids=["planned", "naive"])
def tv(request):
    """A small table on the planned (compiled) and the naive path."""
    database = Database(optimize=request.param)
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
    database.insert_rows(
        "t", [(1, 1, "apple"), (2, 1, "avocado"), (3, 2, None), (4, 3, "kiwi")]
    )
    database.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)")
    return database


class TestAggregatesUnderPredicates:
    """Aggregates nested under BETWEEN, IN, IS NULL and LIKE in HAVING
    or ORDER BY read their group's result."""

    def test_having_sum_between(self, tv):
        rows = tv.execute(
            "SELECT k FROM t GROUP BY k HAVING SUM(id) BETWEEN 2 AND 4 "
            "ORDER BY k"
        ).rows
        assert rows == [(1,), (2,), (3,)]

    def test_having_count_in_list(self, tv):
        rows = tv.execute(
            "SELECT k FROM t GROUP BY k HAVING COUNT(*) IN (2, 5) ORDER BY k"
        ).rows
        assert rows == [(1,)]

    def test_having_max_is_null(self, tv):
        rows = tv.execute(
            "SELECT k FROM t GROUP BY k HAVING MAX(v) IS NULL"
        ).rows
        assert rows == [(2,)]

    def test_having_max_like(self, tv):
        rows = tv.execute(
            "SELECT k FROM t GROUP BY k HAVING MAX(v) LIKE 'a%'"
        ).rows
        assert rows == [(1,)]

    def test_order_by_count_between(self, tv):
        rows = tv.execute(
            "SELECT k FROM t GROUP BY k ORDER BY COUNT(*) BETWEEN 1 AND 1, k"
        ).rows
        assert rows == [(1,), (2,), (3,)]


class TestCompoundLimit:
    def test_non_integer_limit_is_an_execution_error(self, tv):
        with pytest.raises(ExecutionError, match="LIMIT/OFFSET"):
            tv.execute("SELECT id FROM t UNION SELECT k FROM t LIMIT 'x'")

    def test_null_offset_is_an_execution_error(self, tv):
        with pytest.raises(ExecutionError, match="LIMIT/OFFSET"):
            tv.execute("SELECT id FROM t LIMIT 2 OFFSET NULL")


class TestNamesResolveBeforeRows:
    """Unknown and ambiguous columns fail when the statement is bound,
    not when (or if) a row reaches the expression."""

    def test_unknown_column_over_empty_table(self, tv):
        with pytest.raises(ExecutionError, match="unknown column: nope"):
            tv.execute("SELECT nope FROM u")

    def test_unknown_column_when_filter_rejects_every_row(self, tv):
        with pytest.raises(ExecutionError, match="unknown column: nope"):
            tv.execute("SELECT nope FROM t WHERE 1 = 0")

    def test_unknown_outer_reference_in_correlated_subquery(self, tv):
        with pytest.raises(ExecutionError, match="unknown column: w.x"):
            tv.execute(
                "SELECT id FROM u WHERE EXISTS "
                "(SELECT 1 FROM t WHERE t.k = w.x)"
            )

    def test_ambiguous_column_over_empty_join(self, tv):
        with pytest.raises(ExecutionError, match="ambiguous"):
            tv.execute("SELECT id FROM u JOIN t ON u.k = t.k WHERE 1 = 0")


class TestOrderByWithStarSelectList:
    def test_hidden_sort_column_after_expanded_star(self, tv):
        # The star expands before ORDER BY items are matched to output
        # columns, so ``id`` sorts by id, not by the hidden t.k column.
        rows = tv.execute("SELECT *, k AS kk FROM t ORDER BY id DESC, t.k").rows
        assert [row[0] for row in rows] == [4, 3, 2, 1]
