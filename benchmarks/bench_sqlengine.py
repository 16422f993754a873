"""Certifies the planned SQL engine's headline performance claims.

Five workloads, all on :class:`repro.sqlengine.Database`:

1. **Point lookup** — 100k-row table, equality predicate. A full scan
   is measured first, then ``CREATE INDEX`` and the same queries again.
   The indexed p50 must be at least 10x faster.
2. **Range scan** — the same table with a ``USING SORTED`` index; a
   narrow ``BETWEEN`` must beat the pre-index full scan by >= 5x.
3. **Join** — 10k x 10k equi-join. The hash-join side is measured at
   full size. A faithful nested-loop run at 10k x 10k would take
   minutes (the condition is re-evaluated for every one of the 100M
   row pairs), so the loop side is measured on a sampled outer table
   (``LOOP_SAMPLE`` rows x 10k inner) and linearly extrapolated — the
   nested loop visits ``outer x inner`` pairs, so its cost is linear in
   the outer cardinality. Even the *measured* sample alone must be
   slower than the full-size hash join.
4. **Full-scan filter** and 5. **GROUP BY** — 100k rows, no usable
   index, so both sides run ``SeqScan``. The planned path (expressions
   compiled to closures) is timed against ``optimize=False`` (the
   tree-walking interpreter) on the same data in the same run. The
   GROUP BY groups on a TEXT column with SUM, AVG and COUNT(*). Both
   must be at least 3x faster compiled.

EXPLAIN is consulted before each timed section to prove the intended
plan (SeqScan / IndexScan / IndexRangeScan / HashJoin /
NestedLoopJoin) is the one being measured.

Results are written to ``BENCH_sqlengine.json`` in the repo root.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from repro.sqlengine import Database, parse_sql

OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sqlengine.json"

#: Point-lookup / range-scan table size.
N_ROWS = 100_000
#: Distinct user_id values (each matches N_ROWS / N_USERS rows).
N_USERS = 5_000
#: Repetitions per timed query shape (different literals each time, so
#: neither the SQL result cache nor the parse memo can short-circuit).
REPS = 9
#: Join side cardinality (both tables).
JOIN_ROWS = 10_000
#: Outer rows actually executed for the nested-loop sample.
LOOP_SAMPLE = 200
#: Repetitions per compiled-vs-interpreted query shape.
COMPILED_REPS = 5
REGIONS = ("north", "south", "east", "west", "central", "online", "retail")


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _time_queries(db: Database, queries: list[str]) -> list[float]:
    samples = []
    for sql in queries:
        start = time.perf_counter()
        db.execute(sql)
        samples.append(time.perf_counter() - start)
    return samples


def _plan_text(db: Database, sql: str) -> str:
    return "\n".join(row[0] for row in db.execute("EXPLAIN " + sql).rows)


def _time_statements(db: Database, queries: list[str]) -> list[float]:
    """Like :func:`_time_queries`, but straight to the executor: the
    statement is parsed first and the SQL result cache is bypassed."""
    samples = []
    for sql in queries:
        statement = parse_sql(sql)
        start = time.perf_counter()
        db.execute_statement(statement)
        samples.append(time.perf_counter() - start)
    return samples


def _compiled_vs_interpreted() -> dict:
    """Full-scan filter and GROUP BY, planned (compiled) vs naive."""
    rows = [
        (i, i % N_USERS, (i * 7919) % N_ROWS, REGIONS[(i * 31) % len(REGIONS)],
         float(i % 97))
        for i in range(N_ROWS)
    ]
    shapes = {
        "full_scan_filter": [
            "SELECT sale_id, amount FROM sales_facts "
            f"WHERE amount > {40_000 + 97 * rep} AND region <> 'east'"
            for rep in range(COMPILED_REPS)
        ],
        "group_by": [
            "SELECT region, SUM(amount), AVG(score), COUNT(*) "
            "FROM sales_facts GROUP BY region"
        ] * COMPILED_REPS,
    }
    results: dict = {}
    timings: dict = {name: {} for name in shapes}
    for side, optimize in (("compiled", True), ("interpreted", False)):
        db = Database(name=f"bench_{side}", optimize=optimize)
        db.execute(
            "CREATE TABLE sales_facts (sale_id INTEGER PRIMARY KEY, "
            "user_id INTEGER, amount INTEGER, region TEXT, score REAL)"
        )
        db.insert_rows("sales_facts", rows)
        for name, queries in shapes.items():
            assert "SeqScan(sales_facts)" in _plan_text(db, queries[0])
            timings[name][side] = statistics.median(
                _time_statements(db, queries)
            )
        del db
    for name, sides in timings.items():
        results[name] = {
            "rows": N_ROWS,
            "reps": COMPILED_REPS,
            "compiled_ms": {"p50": round(sides["compiled"] * 1000, 3)},
            "interpreted_ms": {"p50": round(sides["interpreted"] * 1000, 3)},
            "speedup_p50": round(sides["interpreted"] / sides["compiled"], 2),
        }
    return results


def test_sqlengine_benchmark() -> None:
    # ------------------------------------------------------------------
    # Point lookup: full scan vs hash index at 100k rows.
    # ------------------------------------------------------------------
    db = Database(name="bench")
    db.execute(
        "CREATE TABLE events ("
        "event_id INTEGER PRIMARY KEY, user_id INTEGER, amount INTEGER)"
    )
    db.insert_rows(
        "events",
        [(i, i % N_USERS, (i * 7919) % N_ROWS) for i in range(N_ROWS)],
    )

    point_queries = [
        f"SELECT COUNT(*) FROM events WHERE user_id = {101 + 13 * rep}"
        for rep in range(REPS)
    ]
    assert "SeqScan(events)" in _plan_text(db, point_queries[0])
    scan_times = _time_queries(db, point_queries)

    db.execute("CREATE INDEX idx_user ON events (user_id)")
    assert "IndexScan(events.user_id" in _plan_text(db, point_queries[0])
    indexed_times = _time_queries(db, point_queries)

    scan_p50 = statistics.median(scan_times)
    indexed_p50 = statistics.median(indexed_times)
    point_speedup = scan_p50 / indexed_p50

    # ------------------------------------------------------------------
    # Range scan: sorted index vs the pre-index full scan baseline.
    # ------------------------------------------------------------------
    range_queries = [
        "SELECT COUNT(*) FROM events "
        f"WHERE amount BETWEEN {500 * rep} AND {500 * rep + 400}"
        for rep in range(REPS)
    ]
    assert "SeqScan(events)" in _plan_text(db, range_queries[0])
    range_scan_times = _time_queries(db, range_queries)

    db.execute("CREATE INDEX idx_amount ON events (amount) USING SORTED")
    assert "IndexRangeScan(events.amount" in _plan_text(db, range_queries[0])
    range_index_times = _time_queries(db, range_queries)

    range_scan_p50 = statistics.median(range_scan_times)
    range_index_p50 = statistics.median(range_index_times)
    range_speedup = range_scan_p50 / range_index_p50

    # ------------------------------------------------------------------
    # Join: hash at full 10k x 10k, nested loop on a sampled outer side.
    # ------------------------------------------------------------------
    join_sql = (
        "SELECT COUNT(*) FROM facts "
        "JOIN dims ON facts.dim_key = dims.dim_key"
    )
    rows = [(i, (i * 31) % JOIN_ROWS) for i in range(JOIN_ROWS)]

    hash_db = Database(name="bench_hash")
    for table in ("facts", "dims"):
        hash_db.execute(
            f"CREATE TABLE {table} "
            "(id INTEGER PRIMARY KEY, dim_key INTEGER)"
        )
        hash_db.insert_rows(table, rows)
    assert "HashJoin(INNER)" in _plan_text(hash_db, join_sql)
    hash_times = _time_queries(hash_db, [join_sql] * 3)
    hash_p50 = statistics.median(hash_times)

    loop_db = Database(name="bench_loop", enable_hash_join=False)
    loop_db.execute(
        "CREATE TABLE facts (id INTEGER PRIMARY KEY, dim_key INTEGER)"
    )
    loop_db.insert_rows("facts", rows[:LOOP_SAMPLE])
    loop_db.execute(
        "CREATE TABLE dims (id INTEGER PRIMARY KEY, dim_key INTEGER)"
    )
    loop_db.insert_rows("dims", rows)
    assert "NestedLoopJoin(INNER)" in _plan_text(loop_db, join_sql)
    loop_start = time.perf_counter()
    loop_db.execute(join_sql)
    loop_sample_time = time.perf_counter() - loop_start
    loop_extrapolated = loop_sample_time * (JOIN_ROWS / LOOP_SAMPLE)
    join_speedup = loop_extrapolated / hash_p50

    compiled = _compiled_vs_interpreted()

    payload = {
        **compiled,
        "point_lookup": {
            "rows": N_ROWS,
            "reps": REPS,
            "full_scan_ms": {
                "p50": round(scan_p50 * 1000, 3),
                "p95": round(_percentile(scan_times, 0.95) * 1000, 3),
            },
            "indexed_ms": {
                "p50": round(indexed_p50 * 1000, 3),
                "p95": round(_percentile(indexed_times, 0.95) * 1000, 3),
            },
            "speedup_p50": round(point_speedup, 2),
        },
        "range_scan": {
            "rows": N_ROWS,
            "reps": REPS,
            "full_scan_ms": {"p50": round(range_scan_p50 * 1000, 3)},
            "sorted_index_ms": {"p50": round(range_index_p50 * 1000, 3)},
            "speedup_p50": round(range_speedup, 2),
        },
        "join": {
            "rows": [JOIN_ROWS, JOIN_ROWS],
            "hash_ms": {"p50": round(hash_p50 * 1000, 3)},
            "nested_loop_sample": {
                "outer_rows": LOOP_SAMPLE,
                "inner_rows": JOIN_ROWS,
                "measured_ms": round(loop_sample_time * 1000, 3),
            },
            "nested_loop_ms_extrapolated": round(loop_extrapolated * 1000, 3),
            "speedup_vs_extrapolated": round(join_speedup, 2),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print("\nsql engine: planned vs naive execution")
    print(
        f"  point lookup : {scan_p50 * 1000:8.2f} ms scan vs "
        f"{indexed_p50 * 1000:8.2f} ms indexed ({point_speedup:.0f}x)"
    )
    print(
        f"  range scan   : {range_scan_p50 * 1000:8.2f} ms scan vs "
        f"{range_index_p50 * 1000:8.2f} ms sorted index "
        f"({range_speedup:.0f}x)"
    )
    print(
        f"  join 10kx10k : {hash_p50 * 1000:8.2f} ms hash vs "
        f"{loop_extrapolated * 1000:8.2f} ms nested loop "
        f"(extrapolated from {LOOP_SAMPLE}x{JOIN_ROWS} sample, "
        f"{join_speedup:.0f}x)"
    )
    for name, row in compiled.items():
        print(
            f"  {name:<13}: {row['interpreted_ms']['p50']:8.2f} ms "
            f"interpreted vs {row['compiled_ms']['p50']:8.2f} ms compiled "
            f"({row['speedup_p50']:.1f}x)"
        )
    print(f"  written to   : {OUTPUT.name}")

    assert point_speedup >= 10.0, (
        f"indexed point lookup only {point_speedup:.1f}x faster (need 10x)"
    )
    assert range_speedup >= 5.0, (
        f"sorted range scan only {range_speedup:.1f}x faster (need 5x)"
    )
    # The sampled nested loop alone (2% of the full outer side) must
    # already lose to the full-size hash join.
    assert loop_sample_time > hash_p50, (
        f"nested-loop sample ({loop_sample_time * 1000:.1f} ms) did not "
        f"exceed full hash join ({hash_p50 * 1000:.1f} ms)"
    )
    assert join_speedup >= 10.0, (
        f"hash join only {join_speedup:.1f}x faster than extrapolated "
        "nested loop (need 10x)"
    )
    for name, row in compiled.items():
        assert row["speedup_p50"] >= 3.0, (
            f"compiled {name} only {row['speedup_p50']:.1f}x faster than "
            "the interpreter (need 3x)"
        )
