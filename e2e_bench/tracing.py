"""Spans recorded around the program's public calls, and self time.

The program's own spans do not yet reach every layer, so the benchmark
wraps one public function or method per layer boundary from its own
files (:func:`instrument`) and records a span per call. The current
span lives in a ``contextvars`` variable, which the program already
carries across its AWEL tasks and executor hops, so a span opened on a
worker thread still finds its parent.

Self time splits every instant of a turn among the spans running at
that instant: a span keeps the part of its interval that none of its
children cover, and an interval covered by several concurrent children
is shared equally between them. The layers' self times therefore sum
to the turn's wall time, up to float rounding (``SUM_TOLERANCE``),
even when AWEL runs plan steps concurrently.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple, Optional

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "e2e_bench_span", default=None
)

#: Relative error allowed between a tree's summed self times and its
#: root's duration: float rounding only.
SUM_TOLERANCE = 1e-9

#: The layer of the benchmark's own root span around each turn.
ROOT_LAYER = "client"

#: (module, class or None, attribute, layer). Module-level functions are
#: wrapped where the app modules bound them, which is where they are
#: called from.
TARGETS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.sqlengine.database", "Database", "execute_statement",
     "sqlengine"),
    ("repro.sqlengine.database", "Database", "execute", "cache.sql"),
    ("repro.datasources.engine_source", "EngineSource", "query",
     "datasources"),
    ("repro.smmf.client", "LLMClient", "generate", "cache.inference"),
    ("repro.smmf.api_server", "ApiServer", "handle", "smmf"),
    ("repro.llm.base", "LanguageModel", "generate", "llm.model"),
    ("repro.rag.knowledge_base", "KnowledgeBase", "retrieve", "rag"),
    ("repro.rag.knowledge_base", "KnowledgeBase", "build_context", "rag"),
    ("repro.awel.runner", "WorkflowRunner", "run", "awel"),
    ("repro.awel.runner", "WorkflowRunner", "run_async", "awel"),
    ("repro.agents.team", "DataAnalysisTeam", "run", "agents"),
    ("repro.viz.spec", "ChartSpec", "from_rows", "viz"),
    ("repro.apps.chat2viz", None, "render_ascii", "viz"),
    ("repro.apps.text2sql", None, "build_text2sql_prompt", "llm.prompt"),
    ("repro.apps.chat2data", None, "build_text2sql_prompt", "llm.prompt"),
    ("repro.apps.chat2db", None, "build_text2sql_prompt", "llm.prompt"),
    ("repro.apps.chat2viz", None, "build_text2sql_prompt", "llm.prompt"),
    ("repro.apps.knowledge_qa", None, "build_qa_prompt", "llm.prompt"),
    ("repro.apps.text2sql", None, "gate_sql", "analysis"),
    ("repro.apps.chat2db", None, "gate_sql", "analysis"),
    ("repro.apps.text2sql", "Text2SqlApp", "chat", "apps"),
    ("repro.apps.chat2data", "Chat2DataApp", "chat", "apps"),
    ("repro.apps.chat2db", "Chat2DbApp", "chat", "apps"),
    ("repro.apps.chat2viz", "Chat2VizApp", "chat", "apps"),
    ("repro.apps.knowledge_qa", "KnowledgeQAApp", "chat", "apps"),
    ("repro.apps.data_analysis", "GenerativeAnalysisApp", "chat", "apps"),
)

#: Every layer a turn's time can land in, in report order.
LAYERS = (
    "sqlengine", "cache.sql", "datasources", "cache.inference", "smmf",
    "llm.model", "llm.prompt", "rag", "analysis", "awel", "agents", "viz",
    "apps", ROOT_LAYER,
)


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    layer: str
    start: float
    end: float


class Recorder:
    """Collects spans in memory; computing happens after the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Root span ids of chat turns (writes get roots of their own).
        self.turn_roots: set[int] = set()
        self.repairs = 0
        self.gates = 0
        #: Spans that opened with no parent in their context while a
        #: turn was open; they are hung under the turn's root.
        self.orphans = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._root: Optional[int] = None

    def _open(self) -> tuple[int, Optional[int]]:
        parent = _CURRENT.get()
        if parent is None and self._root is not None:
            parent = self._root
            with self._lock:
                self.orphans += 1
        return next(self._ids), parent

    @contextmanager
    def turn(self, chat: bool = True):
        """The root span of one benchmark operation: a chat turn, or
        with ``chat=False`` a write."""
        sid = next(self._ids)
        if chat:
            self.turn_roots.add(sid)
        token = _CURRENT.set(sid)
        self._root = sid
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._root = None
            _CURRENT.reset(token)
            self.spans.append(Span(sid, None, ROOT_LAYER, start, end))

    def note_gate(self, result: Any) -> None:
        with self._lock:
            self.gates += 1
            self.repairs += bool(getattr(result, "repaired", False))

    def wrap(self, fn: Callable, layer: str,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` recording one ``layer`` span per call."""
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def awrapped(*args, **kwargs):
                sid, parent = self._open()
                token = _CURRENT.set(sid)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    _CURRENT.reset(token)
                    self.spans.append(Span(sid, parent, layer, start, end))

            return awrapped

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid, parent = self._open()
            token = _CURRENT.set(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                self.spans.append(Span(sid, parent, layer, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapped


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target in :data:`TARGETS`; returns the undo."""
    undo: list[tuple[Any, str, Any]] = []
    for module_name, class_name, attr, layer in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        on_result = recorder.note_gate if layer == "analysis" else None
        if isinstance(original, classmethod):
            patched: Any = classmethod(
                recorder.wrap(original.__func__, layer, on_result)
            )
        else:
            patched = recorder.wrap(original, layer, on_result)
        setattr(owner, attr, patched)
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# -- self time ---------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Seconds of wall time attributed to each span (see module doc).

    A child's part outside its parent's interval is dropped, so per
    tree the values always sum to the root's duration.
    """
    spans = list(spans)
    by_id = {span.sid: span for span in spans}
    children: dict[Optional[int], list[Span]] = defaultdict(list)
    for span in spans:
        parent = span.parent if span.parent in by_id else None
        children[parent].append(span)
    result = {span.sid: 0.0 for span in spans}
    stack = [
        (root, [(root.start, root.end, 1.0)]) for root in children[None]
    ]
    while stack:
        span, pieces = stack.pop()
        kids = children.get(span.sid, ())
        if not kids:
            result[span.sid] += sum((b - a) * w for a, b, w in pieces)
            continue
        shares: dict[int, list] = defaultdict(list)
        for lo, hi, weight in pieces:
            cuts = sorted(
                {lo, hi}
                | {t for k in kids for t in (k.start, k.end) if lo < t < hi}
            )
            for a, b in zip(cuts, cuts[1:]):
                active = [k for k in kids if k.start <= a and k.end >= b]
                if not active:
                    result[span.sid] += (b - a) * weight
                    continue
                share = weight / len(active)
                for kid in active:
                    shares[kid.sid].append((a, b, share))
        for kid in kids:
            stack.append((kid, shares.get(kid.sid, [])))
    return result


def layer_totals(
    spans: list[Span], roots: set[int]
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self seconds and calls over the trees under ``roots``.

    A call is a span whose parent belongs to another layer, so a layer
    re-entering itself (``build_context`` calling ``retrieve``, ``run``
    calling ``run_async``) counts once.
    """
    by_id = {span.sid: span for span in spans}
    root_of: dict[int, int] = {}

    def find_root(span: Span) -> int:
        path = []
        while span.sid not in root_of and span.parent in by_id:
            path.append(span.sid)
            span = by_id[span.parent]
        root = root_of.get(span.sid, span.sid)
        for sid in path:
            root_of[sid] = root
        root_of[span.sid] = root
        return root

    kept = [span for span in spans if find_root(span) in roots]
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, value in self_times(kept).items():
        seconds[by_id[sid].layer] += value
    for span in kept:
        parent = by_id.get(span.parent)
        if parent is None or parent.layer != span.layer:
            calls[span.layer] += 1
    return dict(seconds), dict(calls)
