"""Self-time attribution and the benchmark's own instrumentation."""

import random

import pytest

from e2e_bench import apps_bench, tracing
from e2e_bench.tracing import SUM_TOLERANCE, Span, layer_totals, self_times


def _close(a, b):
    return abs(a - b) <= SUM_TOLERANCE * max(1.0, abs(b))


def test_nested_spans_keep_what_children_do_not_cover():
    spans = [
        Span(1, None, "client", 0.0, 10.0),
        Span(2, 1, "apps", 1.0, 4.0),
        Span(3, 2, "sqlengine", 2.0, 3.0),
    ]
    result = self_times(spans)
    assert _close(result[1], 7.0)
    assert _close(result[2], 2.0)
    assert _close(result[3], 1.0)


def test_concurrent_children_share_their_overlap():
    # a and b overlap on [2, 6]: each keeps half of it, the parent none.
    spans = [
        Span(1, None, "awel", 0.0, 10.0),
        Span(2, 1, "agents", 0.0, 6.0),
        Span(3, 1, "agents", 2.0, 8.0),
    ]
    result = self_times(spans)
    assert _close(result[1], 2.0)
    assert _close(result[2], 4.0)
    assert _close(result[3], 4.0)


def test_child_outside_its_parent_is_clipped():
    spans = [
        Span(1, None, "client", 0.0, 4.0),
        Span(2, 1, "apps", 3.0, 9.0),
    ]
    result = self_times(spans)
    assert _close(result[1], 3.0)
    assert _close(result[2], 1.0)


def _random_tree(rng, sid, parent, start, end, depth, spans):
    spans.append(Span(sid, parent, f"layer{depth}", start, end))
    next_id = sid + 1
    if depth == 4:
        return next_id
    for _ in range(rng.randint(0, 4)):
        a, b = sorted(rng.uniform(start, end) for _ in range(2))
        next_id = _random_tree(rng, next_id, sid, a, b, depth + 1, spans)
    return next_id


@pytest.mark.parametrize("seed", range(20))
def test_self_times_sum_to_the_root(seed):
    rng = random.Random(seed)
    spans = []
    _random_tree(rng, 1, None, 0.0, 1.0, 0, spans)
    result = self_times(spans)
    assert all(value >= 0.0 for value in result.values())
    assert _close(sum(result.values()), 1.0)
    seconds, _calls = layer_totals(spans, {1})
    assert _close(sum(seconds.values()), 1.0)


def test_layer_calls_count_reentry_once_and_skip_other_roots():
    spans = [
        Span(1, None, "client", 0.0, 5.0),
        Span(2, 1, "rag", 1.0, 4.0),  # build_context
        Span(3, 2, "rag", 2.0, 3.0),  # ... calling retrieve
        Span(4, None, "client", 6.0, 7.0),  # a write's root
        Span(5, 4, "sqlengine", 6.0, 7.0),
    ]
    seconds, calls = layer_totals(spans, {1})
    assert calls == {"client": 1, "rag": 1}
    assert _close(seconds["rag"], 3.0)
    assert "sqlengine" not in seconds


def test_instrument_restores_every_target():
    import importlib

    def current():
        found = []
        for module_name, class_name, attr, _layer in tracing.TARGETS:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                found.append(owner.__dict__[attr])
            else:
                found.append(getattr(owner, attr))
        return found

    before = current()
    restore = tracing.instrument(tracing.Recorder())
    assert all(a is not b for a, b in zip(before, current()))
    restore()
    assert all(a is b for a, b in zip(before, current()))


def test_traced_turns_attribute_every_layer_and_sum_to_wall_time():
    dbgpt = apps_bench.boot(seed=5)
    recorder = tracing.Recorder()
    restore = tracing.instrument(recorder)
    try:
        for app, text in (
            ("chat2data", "What is the total amount per region?"),
            ("text2sql", "How many orders have amount greater than 300?"),
            ("chat2viz", "What is the average amount per category?"),
            ("knowledge_qa", "How does the index work?"),
            ("data_analysis", "Analyze orders by region, segment and month"),
        ):
            with recorder.turn():
                assert dbgpt.chat(app, text).ok
    finally:
        restore()
    roots = [s for s in recorder.spans if s.sid in recorder.turn_roots]
    wall = sum(s.end - s.start for s in roots)
    seconds, calls = layer_totals(recorder.spans, recorder.turn_roots)
    assert _close(sum(seconds.values()), wall)
    assert recorder.orphans == 0
    for layer in ("sqlengine", "cache.sql", "llm.model", "smmf", "rag",
                  "llm.prompt", "analysis", "awel", "agents", "viz", "apps"):
        assert calls.get(layer, 0) > 0, layer
    assert calls["apps"] == 5
