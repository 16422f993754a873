"""Planned execution must be observationally equal to naive execution.

The planner's contract is *pure acceleration*: indexes, pushdown,
pruning and hash joins may change how rows are found, never which rows
are returned. Hypothesis generates random data and random predicates;
each query runs on two databases with identical contents — one fully
optimized (with secondary indexes), one with ``optimize=False,
enable_hash_join=False`` (the naive reference) — and the sorted row
multisets must match exactly.

Rows are compared as sorted multisets because index-backed scans are
allowed to surface rows in key order rather than heap order; for
queries with ORDER BY the engine's own sort fixes the order, which is
also asserted verbatim.

The planned database evaluates every expression through closures from
:mod:`repro.sqlengine.compiler`; the naive one walks the tree with the
:class:`~repro.sqlengine.expressions.Evaluator`. So the same suite also
fuzzes compiled against interpreted expressions: NULL logic, BETWEEN
and IN with NULL items, LIKE, CASE/CAST, arithmetic errors, mixed-type
equality, correlated subqueries, grouped HAVING, ORDER BY on hidden
expressions and DISTINCT. Where a query fails, both paths must fail
with the same error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Database, SqlEngineError, parse_sql
from repro.sqlengine.expressions import Evaluator, RowContext

values = st.one_of(
    st.none(),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(["east", "west", "north", "south"]),
)
ints = st.integers(min_value=-50, max_value=50)


@st.composite
def table_rows(draw, max_rows=30):
    count = draw(st.integers(min_value=0, max_value=max_rows))
    return [
        (i, draw(st.integers(-5, 5)), draw(values)) for i in range(count)
    ]


def build_pair(rows, extra_rows=None):
    """The same data twice: planned (indexed) vs naive reference."""
    planned = Database(name="planned")
    naive = Database(name="naive", optimize=False, enable_hash_join=False)
    for db in (planned, naive):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
        if rows:
            db.insert_rows("t", rows)
        if extra_rows is not None:
            db.execute(
                "CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)"
            )
            if extra_rows:
                db.insert_rows("u", extra_rows)
    planned.execute("CREATE INDEX idx_k ON t (k)")
    planned.execute("CREATE INDEX idx_id ON t (id) USING SORTED")
    return planned, naive


def sorted_rows(result):
    return sorted(result.rows, key=repr)


class TestPlannedEqualsNaive:
    @given(table_rows(), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_point_predicate(self, rows, probe):
        planned, naive = build_pair(rows)
        sql = f"SELECT id, v FROM t WHERE k = {probe}"
        assert sorted_rows(planned.execute(sql)) == sorted_rows(
            naive.execute(sql)
        )

    @given(table_rows(), st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_range_predicate(self, rows, low, high):
        planned, naive = build_pair(rows)
        sql = f"SELECT id FROM t WHERE id BETWEEN {low} AND {high}"
        assert sorted_rows(planned.execute(sql)) == sorted_rows(
            naive.execute(sql)
        )

    @given(table_rows(), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_conjunction_with_residual(self, rows, probe):
        planned, naive = build_pair(rows)
        sql = (
            f"SELECT id FROM t WHERE k = {probe} AND v <> 'east' "
            "AND id >= 0"
        )
        assert sorted_rows(planned.execute(sql)) == sorted_rows(
            naive.execute(sql)
        )

    @given(table_rows())
    @settings(max_examples=40, deadline=None)
    def test_aggregation_pipeline(self, rows):
        planned, naive = build_pair(rows)
        sql = (
            "SELECT k, COUNT(*), SUM(id) FROM t "
            "GROUP BY k HAVING COUNT(*) >= 1 ORDER BY k"
        )
        # ORDER BY pins the order: compare verbatim, not as multisets.
        assert planned.execute(sql).rows == naive.execute(sql).rows

    @given(
        table_rows(max_rows=15),
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(-5, 5)),
            max_size=15,
            unique_by=lambda r: r[0],
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_equi_join(self, rows, urows):
        planned, naive = build_pair(rows, extra_rows=urows)
        sql = (
            "SELECT t.id, u.id FROM t JOIN u ON t.k = u.k "
            "WHERE t.id >= 0"
        )
        assert sorted_rows(planned.execute(sql)) == sorted_rows(
            naive.execute(sql)
        )

    @given(
        table_rows(max_rows=15),
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(-5, 5)),
            max_size=15,
            unique_by=lambda r: r[0],
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_left_join_null_extension(self, rows, urows):
        planned, naive = build_pair(rows, extra_rows=urows)
        sql = "SELECT t.id, u.k FROM t LEFT JOIN u ON t.k = u.k"
        assert sorted_rows(planned.execute(sql)) == sorted_rows(
            naive.execute(sql)
        )

    @given(table_rows(), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_cte_wrapping(self, rows, probe):
        planned, naive = build_pair(rows)
        sql = (
            f"WITH c AS (SELECT id, k FROM t WHERE k = {probe}) "
            "SELECT id FROM c WHERE id >= 0"
        )
        assert sorted_rows(planned.execute(sql)) == sorted_rows(
            naive.execute(sql)
        )

    @given(table_rows(), st.integers(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_survives_dml(self, rows, probe):
        planned, naive = build_pair(rows)
        for db in (planned, naive):
            db.execute("INSERT INTO t VALUES (9001, 3, 'late')")
            db.execute("UPDATE t SET k = 4 WHERE id = 9001")
            db.execute("DELETE FROM t WHERE v = 'east'")
        sql = f"SELECT id, k, v FROM t WHERE k = {probe}"
        assert sorted_rows(planned.execute(sql)) == sorted_rows(
            naive.execute(sql)
        )


# -- compiled vs interpreted expressions ------------------------------------

int_atoms = st.one_of(
    st.sampled_from(["id", "k", "t.k", "NULL"]),
    st.integers(-3, 6).map(str),
)
text_atoms = st.sampled_from(["v", "NULL", "'east'", "'west'", "''"])
like_patterns = st.sampled_from(
    ["'e%'", "'%st'", "'_ast'", "'%'", "'E_ST'", "'n%h'", "NULL"]
)


def numeric(depth=2):
    if depth == 0:
        return int_atoms
    sub = numeric(depth - 1)
    return st.one_of(
        int_atoms,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "%"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(boolean(depth - 1), sub, sub).map(
            lambda t: f"CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END"
        ),
        sub.map(lambda a: f"CAST({a} AS REAL)"),
        sub.map(lambda a: f"-({a})"),
    )


def boolean(depth=2):
    num = numeric(0) if depth == 0 else numeric(depth - 1)
    leaves = st.one_of(
        st.tuples(num, st.sampled_from(["=", "<>", "<", ">", "<=", ">="]), num)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(num, st.sampled_from(["=", "<>"]), text_atoms).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"  # mixed-type equality
        ),
        st.tuples(text_atoms, st.sampled_from(["=", "<", ">="]), text_atoms)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(num, st.booleans(), num, num).map(
            lambda t: f"({t[0]} {'NOT ' if t[1] else ''}BETWEEN {t[2]} AND {t[3]})"
        ),
        st.tuples(num, st.booleans(), st.lists(num, min_size=1, max_size=3))
        .map(
            lambda t: f"({t[0]} {'NOT ' if t[1] else ''}IN ({', '.join(t[2])}))"
        ),
        st.tuples(text_atoms, st.booleans(), like_patterns).map(
            lambda t: f"({t[0]} {'NOT ' if t[1] else ''}LIKE {t[2]})"
        ),
        st.tuples(st.one_of(num, text_atoms), st.booleans()).map(
            lambda t: f"({t[0]} IS {'NOT ' if t[1] else ''}NULL)"
        ),
    )
    if depth == 0:
        return leaves
    sub = boolean(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, st.sampled_from(["AND", "OR"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        sub.map(lambda a: f"(NOT {a})"),
    )


def outcome(db, sql, ordered=False):
    """Rows (sorted unless ``ordered``) or the error a query raises."""
    try:
        rows = db.execute(sql).rows
    except SqlEngineError as exc:
        return ("error", type(exc).__name__)
    return ("rows", rows if ordered else sorted(rows, key=repr))


def detailed_outcome(db, sql):
    """Rows in order, or the error's type and message."""
    try:
        return ("rows", db.execute(sql).rows)
    except SqlEngineError as exc:
        return ("error", type(exc).__name__, str(exc))


class TestCompiledEqualsInterpreted:
    @given(table_rows(), boolean())
    @settings(max_examples=80, deadline=None)
    def test_predicates(self, rows, predicate):
        planned, naive = build_pair(rows)
        sql = f"SELECT id FROM t WHERE {predicate}"
        assert outcome(planned, sql) == outcome(naive, sql)

    @given(table_rows(), numeric(), boolean(1))
    @settings(max_examples=80, deadline=None)
    def test_projections_raise_the_same_errors(self, rows, value, predicate):
        # No WHERE: both paths scan the heap in order, so the first row
        # to fail (division or modulo by zero, a bad comparison) is the
        # same one and the messages must match verbatim.
        planned, naive = build_pair(rows)
        sql = f"SELECT id, {value}, {predicate} FROM t"
        assert detailed_outcome(planned, sql) == detailed_outcome(naive, sql)

    @given(
        table_rows(max_rows=12),
        st.lists(
            st.tuples(st.integers(0, 20), st.one_of(st.none(), st.integers(-5, 5))),
            max_size=12,
            unique_by=lambda r: r[0],
        ),
        st.sampled_from(
            [
                "SELECT id FROM t WHERE EXISTS "
                "(SELECT 1 FROM u WHERE u.k = t.k AND u.id > {n})",
                "SELECT id FROM t WHERE NOT EXISTS "
                "(SELECT 1 FROM u WHERE u.k = t.k)",
                "SELECT id FROM t WHERE t.k IN "
                "(SELECT u.k FROM u WHERE u.id <> t.id + {n})",
                "SELECT id FROM t WHERE t.k NOT IN (SELECT u.k FROM u)",
                "SELECT id, (SELECT MAX(u.id) FROM u WHERE u.k = t.k) FROM t",
                "SELECT id, (SELECT COUNT(*) FROM u WHERE u.k > t.k - {n}) "
                "FROM t WHERE k > (SELECT MIN(u.k) FROM u)",
                "SELECT k, (SELECT COUNT(*) FROM u WHERE u.k = t.k) FROM t "
                "GROUP BY k",
            ]
        ),
        st.integers(-3, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_correlated_subqueries(self, rows, urows, template, n):
        planned, naive = build_pair(rows, extra_rows=urows)
        sql = template.format(n=n)
        assert outcome(planned, sql) == outcome(naive, sql)

    @given(
        table_rows(),
        st.sampled_from(
            [
                "SUM(id) + COUNT(*) > {n}",
                "SUM(id) * 2 - COUNT(*) BETWEEN {n} AND {m}",
                "COUNT(v) IN ({n}, {m}, NULL)",
                "MAX(v) LIKE 'e%' OR MIN(id) = {n}",
                "AVG(id) IS NOT NULL AND NOT (MAX(id) < {m})",
                "SUM(id) / (COUNT(*) - {n}) > 1",
                "CASE WHEN COUNT(*) > {n} THEN MIN(id) ELSE MAX(id) END > {m}",
            ]
        ),
        st.integers(0, 4),
        st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_having_over_aggregate_arithmetic(self, rows, having, n, m):
        planned, naive = build_pair(rows)
        sql = (
            "SELECT k, SUM(id) * 2 - COUNT(*), MAX(v), COUNT(DISTINCT v) "
            f"FROM t GROUP BY k HAVING {having.format(n=n, m=m)} ORDER BY k"
        )
        assert outcome(planned, sql, ordered=True) == outcome(
            naive, sql, ordered=True
        )

    @given(table_rows(), numeric(1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_order_by_unselected_expression(self, rows, value, descending):
        planned, naive = build_pair(rows)
        direction = "DESC" if descending else "ASC"
        sql = f"SELECT id FROM t ORDER BY {value} {direction}, v, id LIMIT 20"
        assert outcome(planned, sql, ordered=True) == outcome(
            naive, sql, ordered=True
        )

    @given(table_rows(), boolean(1))
    @settings(max_examples=60, deadline=None)
    def test_distinct(self, rows, predicate):
        planned, naive = build_pair(rows)
        sql = f"SELECT DISTINCT k, v FROM t WHERE {predicate}"
        assert outcome(planned, sql) == outcome(naive, sql)


PLANNED_QUERIES = [
    "SELECT id, v FROM t WHERE k = 1 AND v LIKE 'a%'",
    "SELECT id FROM t WHERE id BETWEEN 1 AND 3 AND v IS NOT NULL",
    "SELECT t.id, u.id FROM t JOIN u ON t.k = u.k WHERE t.id + u.id > 2",
    "SELECT t.id, u.k FROM t LEFT JOIN u ON t.k = u.k AND u.id > t.id",
    "SELECT k, COUNT(*), AVG(id) FROM t GROUP BY k "
    "HAVING SUM(id) BETWEEN 1 AND 9 ORDER BY COUNT(*) DESC, k",
    "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)",
    "SELECT id, (SELECT MAX(u.id) FROM u WHERE u.k = t.k) FROM t "
    "WHERE t.k IN (SELECT k FROM u) ORDER BY id LIMIT 2 OFFSET 1",
    "WITH c AS (SELECT id, k * 2 AS kk FROM t) SELECT kk FROM c WHERE kk > 0",
    "SELECT id FROM t UNION SELECT k FROM u ORDER BY 1 LIMIT 3",
    "SELECT DISTINCT CASE WHEN k > 1 THEN 'hi' ELSE v END, CAST(id AS REAL) "
    "FROM t ORDER BY 1",
]


def test_planned_path_never_interprets(monkeypatch):
    """The planned path compiles every expression: with the interpreter
    disabled, representative SELECTs (and DML) still run."""
    planned = Database(name="compiled")
    planned.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
    planned.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)")
    planned.execute("CREATE INDEX idx_k ON t (k)")
    planned.insert_rows("t", [(1, 1, "ab"), (2, 2, None), (3, 2, "ac")])
    planned.insert_rows("u", [(1, 2), (2, 5)])
    expected = {sql: planned.execute(sql).rows for sql in PLANNED_QUERIES}

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the planned path fell back to the interpreter")

    monkeypatch.setattr(Evaluator, "evaluate", forbidden)
    monkeypatch.setattr(RowContext, "with_values", forbidden)
    monkeypatch.setattr(RowContext, "__init__", forbidden)
    fresh = Database(name="compiled-again")
    for db in (planned, fresh):
        db.execute(
            "CREATE TABLE w (id INTEGER PRIMARY KEY, k INTEGER DEFAULT 2)"
        )
        db.execute("INSERT INTO w (id) VALUES (1), (2 * 2)")
        db.execute("UPDATE w SET k = k * 10 WHERE id > 1")
        db.execute("DELETE FROM w WHERE k = 2")
        assert db.execute("SELECT id, k FROM w").rows == [(4, 20)]
    for sql, rows in expected.items():
        # execute_statement bypasses the SQL result cache.
        assert planned.execute_statement(parse_sql(sql)).rows == rows
    with pytest.raises(AssertionError):
        Database(name="naive", optimize=False).execute("SELECT 1 + 1")
