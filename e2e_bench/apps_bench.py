"""The closed-loop apps workloads: cold_mix, warm_repeat and write_mix.

One client thread sends a turn, waits for the answer, and sends the
next: the program is booted with the default ``DbGptConfig`` and
driven only through ``DBGPT.chat`` and, for writes,
``Database.execute``.
"""

from __future__ import annotations

import gc
import statistics
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Optional

from e2e_bench import tracing, workloads
from e2e_bench.clock import Calibration
from e2e_bench.oracle import Oracle, answer_of
from e2e_bench.stats import pct, peak_rss_mb, ratio

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9
#: Untimed cold turns before the window, so lazy set-up is not timed.
COLD_WARMUP = 20
CACHE_TIERS = ("inference", "rag", "sql")


def boot(seed: int):
    """Boot, build the data, register the source and index the corpus."""
    from repro.core import DBGPT
    from repro.datasets import build_corpus, build_sales_database
    from repro.datasources import EngineSource
    from repro.rag.document import Document

    dbgpt = DBGPT.boot()
    dbgpt.register_source(
        EngineSource(
            build_sales_database(
                seed=seed,
                n_users=workloads.N_USERS,
                n_products=workloads.N_PRODUCTS,
                n_orders=workloads.N_ORDERS,
            )
        )
    )
    spec = build_corpus(seed=seed, docs_per_topic=workloads.DOCS_PER_TOPIC)
    dbgpt.add_documents(
        [Document(doc_id, text) for doc_id, text in spec.documents.items()]
    )
    return dbgpt


@dataclass
class Window:
    """What one timed window of turns produced.

    Times are reference-speed seconds: each raw wall time is divided
    by the host speed factor around it (see ``clock.py``). ``factor``
    is the whole window's factor, for the report. Times are kept in
    arrays of doubles, so the benchmark's own memory barely grows with
    the number of turns and ``peak_rss_mb`` stays the program's.
    """

    seconds: array = field(default_factory=lambda: array("d"))
    by_app: dict[str, array] = field(default_factory=dict)
    failed: int = 0
    within_slo: int = 0
    #: (turn, writes applied before it, answer) -> count.
    answers: Counter = field(default_factory=Counter)
    write_seconds: array = field(default_factory=lambda: array("d"))
    #: Client-side gaps between one turn's answer and the next send.
    gaps: array = field(default_factory=lambda: array("d"))
    errors: Counter = field(default_factory=Counter)
    factor: float = 1.0

    @property
    def turns(self) -> int:
        return len(self.seconds)

    @property
    def turns_per_s(self) -> float:
        return ratio(self.turns, sum(self.seconds))


_KINDS = ("turn", "write", "gap")


def _note(columns: tuple[array, array], end: float, elapsed: float) -> None:
    columns[0].append(end)
    columns[1].append(elapsed)


class AppsRun:
    """One booted instance plus the workload's input stream."""

    def __init__(self, workload: str, seed: int) -> None:
        self.seed = seed
        self.setup_seconds: list[float] = []
        self.dbgpt = None
        for _ in range(SETUPS):
            self.dbgpt = None
            gc.collect()
            calibration = Calibration()
            calibration.burst()
            start = perf_counter()
            self.dbgpt = boot(seed)
            elapsed = perf_counter() - start
            calibration.burst()
            self.setup_seconds.append(elapsed / calibration.factor)
        _spec, corpus = workloads.build_corpus_for(seed)
        self.writes: list[workloads.Write] = []
        self.database = self.dbgpt.default_source().database
        if workload == "cold_mix":
            self.stream: Iterator = workloads.cold_stream(seed, corpus)
            warmup = [next(self.stream) for _ in range(COLD_WARMUP)]
        elif workload == "warm_repeat":
            warmup = workloads.warm_pool(seed, corpus)
            self.stream = workloads.zipf_stream(warmup)
        else:
            warmup = workloads.write_pool(seed, corpus)
            self.stream = workloads.write_mix_stream(seed, corpus)
        for turn in warmup:
            self.dbgpt.chat(turn.app, turn.text)

    def window(
        self, seconds: float, recorder: Optional[tracing.Recorder] = None
    ) -> Window:
        """Send turns for ``seconds`` of wall time."""
        out = Window()
        calibration = Calibration()
        # (end time, raw seconds) per kind, scaled once probes are in.
        raw = {kind: (array("d"), array("d")) for kind in _KINDS}
        apps = array("B")
        chat = self.dbgpt.chat
        calibration.probe()
        deadline = perf_counter() + seconds
        last_end = None
        while perf_counter() < deadline:
            item = next(self.stream)
            if isinstance(item, workloads.Write):
                scope = recorder.turn(chat=False) if recorder else nullcontext()
                start = perf_counter()
                with scope:
                    self.database.execute(item.sql)
                end = perf_counter()
                _note(raw["write"], end, end - start)
                self.writes.append(item)
                calibration.tick()
                last_end = None
                continue
            scope = recorder.turn() if recorder else nullcontext()
            start = perf_counter()
            if last_end is not None:
                _note(raw["gap"], start, start - last_end)
            try:
                with scope:
                    response = chat(item.app, item.text)
            except Exception as exc:  # noqa: BLE001 - a failed turn
                response = None
                out.errors[type(exc).__name__] += 1
            end = perf_counter()
            answer = None if response is None else answer_of(item, response)
            _note(raw["turn"], end, end - start)
            apps.append(workloads.APPS.index(item.app))
            if answer is None:
                out.failed += 1
            elif (end - start) * 1000.0 <= workloads.SLO_MS:
                out.within_slo += 1
            out.answers[(item, len(self.writes), answer)] += 1
            calibration.tick()
            last_end = perf_counter()
        calibration.probe()
        out.factor = calibration.factor
        scaled = {
            kind: array("d", (
                elapsed / calibration.factor_at(end)
                for end, elapsed in zip(*raw[kind])
            ))
            for kind in _KINDS
        }
        out.seconds, out.write_seconds, out.gaps = (
            scaled["turn"], scaled["write"], scaled["gap"]
        )
        for index, elapsed in zip(apps, out.seconds):
            out.by_app.setdefault(
                workloads.APPS[index], array("d")
            ).append(elapsed)
        return out

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, lookups) per cache tier, lifetime."""
        counts = {}
        for tier, row in self.dbgpt.cache_stats().items():
            hits = row.get("hits", 0) + row.get("coalesced", 0)
            counts[tier] = (hits, hits + row.get("misses", 0))
        return counts

    def judge(self, windows: list[Window]) -> tuple[int, Counter, bool]:
        """(matched turns, mismatches by (app, template), correct).

        A run is correct when every turn outside
        ``workloads.KNOWN_DEFECT`` matched the oracle, except that
        knowledge_qa questions need only hit ``workloads.QA_MIN_HIT``.
        """
        oracle = Oracle(self.seed)
        answers: Counter = Counter()
        for window in windows:
            answers.update(window.answers)
        matched = 0
        mismatches: Counter = Counter()
        missed_questions = set()
        applied = 0
        for (turn, version, answer), count in sorted(
            answers.items(), key=lambda item: item[0][1]
        ):
            while applied < version:
                oracle.apply(self.writes[applied])
                applied += 1
            if oracle.matches(turn, answer):
                matched += count
                continue
            mismatches[(turn.app, turn.template)] += count
            if turn.app == "knowledge_qa":
                missed_questions.add(turn)
        questions = {
            turn for (turn, _v, _a) in answers if turn.app == "knowledge_qa"
        }
        qa_ok = len(missed_questions) <= (
            (1.0 - workloads.QA_MIN_HIT) * len(questions)
        )
        correct = qa_ok and all(
            template in workloads.KNOWN_DEFECT or app == "knowledge_qa"
            for app, template in mismatches
        )
        return matched, mismatches, correct


def _ms(seconds) -> list[float]:
    return [s * 1000.0 for s in seconds]


def end_to_end(
    run: AppsRun, window: Window, matched: int, rss_mb: float
) -> dict[str, float]:
    turns = window.turns
    ms = _ms(window.seconds)
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "turn_p50_ms": pct(ms, 50),
        "turn_p95_ms": pct(ms, 95),
        "turns_per_s": window.turns_per_s,
        "ok_share": ratio(turns - window.failed, turns),
        "answer_match": ratio(matched, turns),
        "slo_share": ratio(window.within_slo, turns),
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    plain: Window,
    traced: Window,
    recorder: tracing.Recorder,
    layers: tuple[dict[str, float], dict[str, int]],
    cache_before: dict,
    cache_after: dict,
) -> dict[str, float]:
    """Per-layer metrics of a traced run (see ``metrics.json``)."""
    seconds, calls = layers
    turns = traced.turns

    def self_ms(layer: str) -> float:
        return seconds.get(layer, 0.0) * 1000.0 / traced.factor

    def per_call(layer: str) -> float:
        return ratio(self_ms(layer), calls.get(layer, 0))

    total = sum(seconds.values())
    metrics = {
        "sqlengine.exec_self_ms_per_turn": ratio(self_ms("sqlengine"), turns),
        "sqlengine.execs_per_turn": ratio(calls.get("sqlengine", 0), turns),
        "cache.sql.self_ms_per_turn": ratio(self_ms("cache.sql"), turns),
        "cache.inference.self_ms_per_turn": ratio(
            self_ms("cache.inference"), turns
        ),
        "llm.prompt.self_ms_per_call": per_call("llm.prompt"),
        "datasources.queries_per_turn": ratio(
            calls.get("datasources", 0), turns
        ),
        "llm.prompt.queries_per_call": ratio(
            _children(recorder.spans, "llm.prompt", "datasources"),
            calls.get("llm.prompt", 0),
        ),
        "awel.self_ms_per_run": per_call("awel"),
        "apps.self_ms_per_turn": ratio(self_ms("apps"), turns),
        "llm.model.self_ms_per_call": per_call("llm.model"),
        "smmf.self_ms_per_call": per_call("smmf"),
        "rag.self_ms_per_call": per_call("rag"),
        "rag.calls_per_turn": ratio(calls.get("rag", 0), turns),
        "analysis.gate_self_ms_per_call": per_call("analysis"),
        "analysis.repair_share": ratio(recorder.repairs, recorder.gates),
        "agents.self_ms_per_plan": per_call("agents"),
        "viz.self_ms_per_call": per_call("viz"),
        "write.p50_ms": pct(_ms(plain.write_seconds), 50),
        "loadgen.late_p95_ms": pct(_ms(plain.gaps), 95),
        "obs.bench_tracing_overhead_pct": (
            ratio(plain.turns_per_s, traced.turns_per_s) - 1.0
        ) * 100.0,
        "obs.orphan_spans": float(recorder.orphans),
        "obs.host_speed_factor": plain.factor,
    }
    for tier in CACHE_TIERS:
        hits = cache_after[tier][0] - cache_before[tier][0]
        lookups = cache_after[tier][1] - cache_before[tier][1]
        metrics[f"cache.{tier}.hit_ratio"] = ratio(hits, lookups)
    for app in workloads.APPS:
        metrics[f"apps.{app}.p50_ms"] = pct(
            _ms(plain.by_app.get(app, [])), 50
        )
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_share"] = ratio(seconds.get(layer, 0.0), total)
    return metrics


def _children(spans, parent_layer: str, layer: str) -> int:
    """How many ``layer`` spans sit directly under a ``parent_layer``
    span (the value probes a prompt build issues, for one)."""
    by_id = {span.sid: span for span in spans}
    return sum(
        1 for span in spans
        if span.layer == layer and span.parent in by_id
        and by_id[span.parent].layer == parent_layer
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run; returns the result and report fields."""
    bench = AppsRun(workload, seed)
    if not trace:
        window = bench.window(seconds)
        # Before the oracle builds its own database.
        rss_mb = peak_rss_mb()
        matched, mismatches, correct = bench.judge([window])
        return {
            "correct": correct,
            "attempted": window.turns,
            "failed": window.failed,
            "metrics": end_to_end(bench, window, matched, rss_mb),
            "mismatches": mismatches,
            "errors": window.errors,
            "setup_seconds": bench.setup_seconds,
        }
    plain = bench.window(seconds / 2)
    recorder = tracing.Recorder()
    restore = tracing.instrument(recorder)
    try:
        before = bench.cache_counts()
        traced = bench.window(seconds / 2, recorder)
        after = bench.cache_counts()
    finally:
        restore()
    matched, mismatches, correct = bench.judge([plain, traced])
    layers = tracing.layer_totals(recorder.spans, recorder.turn_roots)
    return {
        "correct": correct,
        "attempted": plain.turns + traced.turns,
        "failed": plain.failed + traced.failed,
        "metrics": per_layer(
            plain, traced, recorder, layers, before, after
        ),
        "mismatches": mismatches,
        "errors": plain.errors + traced.errors,
        "setup_seconds": bench.setup_seconds,
        "layer_seconds": {
            layer: value / traced.factor for layer, value in layers[0].items()
        },
        "traced_turns": traced.turns,
    }
