"""The open-loop serving workload, serving_high.

``deploy()`` mounts ``SERVING_REPLICAS`` simulated replicas behind the
serving scheduler (``ServingConfig(enabled=True)``, every other knob at
its default). One asyncio thread sends requests through
``LLMClient.agenerate`` on a seeded Poisson schedule, whether or not
earlier ones have finished, and times each from its due time, so a
stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from e2e_bench import workloads
from e2e_bench.stats import pct, peak_rss_mb, ratio

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9
MODEL = "sim"


def _sim_model():
    from repro.serving.simulation import LatencySimModel

    return LatencySimModel(
        MODEL,
        latency_s=workloads.SERVING_LATENCY_S,
        per_item_s=workloads.SERVING_PER_ITEM_S,
    )


def boot():
    """Deploy the replicas and serve one request, which starts the
    scheduler's threads."""
    from repro.serving.config import ServingConfig
    from repro.smmf.deploy import deploy
    from repro.smmf.spec import ModelSpec

    controller, client = deploy(
        [
            ModelSpec(
                MODEL,
                _sim_model,
                replicas=workloads.SERVING_REPLICAS,
                latency_ms=workloads.SERVING_LATENCY_S * 1000.0,
            )
        ],
        serving=ServingConfig(enabled=True),
    )
    asyncio.run(client.agenerate(MODEL, "warm up", task="chat"))
    return controller, client


def expected_reply(prompt: str) -> str:
    """What the simulated model answers: an echo of the first line."""
    return f"sim answer: {prompt.strip().splitlines()[0][:120]}"


@dataclass
class Phase:
    """What one phase of the arrival schedule produced."""

    start: float = 0.0
    end: float = 0.0
    #: prompt -> (due, sent, done, reply or None when it failed).
    requests: dict[str, tuple] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)

    def latencies_ms(self) -> list[float]:
        return [
            (done - due) * 1000.0
            for due, _sent, done, reply in self.requests.values()
            if reply is not None
        ]


async def _drive(client, seed: int, rate: float, seconds: float,
                 first: int) -> Phase:
    from repro.smmf.client import ClientError

    phase = Phase()

    async def one(prompt: str, due: float, sent: float) -> None:
        try:
            reply = await client.agenerate(MODEL, prompt, task="chat")
        except ClientError as exc:
            reply = None
            key = exc.code or str(exc.status)
            phase.errors[key] = phase.errors.get(key, 0) + 1
        phase.requests[prompt] = (due, sent, perf_counter(), reply)

    tasks = []
    phase.start = perf_counter()
    for index, offset in enumerate(workloads.arrivals(seed, rate)):
        if offset >= seconds:
            break
        due = phase.start + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        prompt = workloads.serving_prompt(seed, first + index)
        tasks.append(asyncio.create_task(one(prompt, due, perf_counter())))
    await asyncio.gather(*tasks)
    phase.end = perf_counter()
    return phase


class ModelCalls:
    """Start, end and prompts of every simulated forward pass.

    A batched pass is one ``generate_batch`` call; a request the
    scheduler dispatches alone is one ``generate`` call.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[float, float, list[str]]] = []
        self._inside = threading.local()

    def install(self):
        from repro.llm.base import LanguageModel
        from repro.serving.simulation import LatencySimModel

        batch = LatencySimModel.generate_batch
        single = LanguageModel.generate
        calls, inside = self.calls, self._inside

        def generate_batch(model, requests):
            inside.active = True
            start = perf_counter()
            try:
                return batch(model, requests)
            finally:
                inside.active = False
                calls.append(
                    (start, perf_counter(), [r.prompt for r in requests])
                )

        def generate(model, request):
            if getattr(inside, "active", False):
                return single(model, request)
            start = perf_counter()
            try:
                return single(model, request)
            finally:
                calls.append((start, perf_counter(), [request.prompt]))

        LatencySimModel.generate_batch = generate_batch
        LatencySimModel.generate = generate

        def restore() -> None:
            LatencySimModel.generate_batch = batch
            del LatencySimModel.generate

        return restore


def _judge(phases: list[Phase]) -> tuple[int, int, int]:
    """(attempted, failed, matched) over ``phases``."""
    attempted = failed = matched = 0
    for phase in phases:
        for prompt, (_due, _sent, _done, reply) in phase.requests.items():
            attempted += 1
            failed += reply is None
            matched += reply == expected_reply(prompt)
    return attempted, failed, matched


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run of ``serving_high`` (``workload`` keeps the signature of
    ``apps_bench.run``); returns the result and report fields."""
    rate = workloads.SERVING_RATE
    setup_seconds = []
    controller = client = None
    for _ in range(SETUPS):
        if controller is not None:
            controller.scheduler.close()
        controller = client = None
        gc.collect()
        start = perf_counter()
        controller, client = boot()
        setup_seconds.append(perf_counter() - start)
    try:
        if not trace:
            phase = asyncio.run(_drive(client, seed, rate, seconds, 0))
            return _result(phase, setup_seconds)
        plain = asyncio.run(_drive(client, seed, rate, seconds / 2, 0))
        calls = ModelCalls()
        restore = calls.install()
        before = controller.scheduler.stats()
        try:
            traced = asyncio.run(
                _drive(client, seed, rate, seconds / 2, 10 ** 6)
            )
        finally:
            restore()
        after = controller.scheduler.stats()
        return _traced_result(plain, traced, calls, before, after)
    finally:
        controller.scheduler.close()


def _result(phase: Phase, setup_seconds: list[float]) -> dict:
    attempted, failed, matched = _judge([phase])
    latencies = phase.latencies_ms()
    ok = attempted - failed
    within = sum(1 for ms in latencies if ms <= workloads.SLO_MS)
    return {
        "correct": matched == ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setup_seconds),
            "turn_p50_ms": pct(latencies, 50),
            "turn_p95_ms": pct(latencies, 95),
            "turns_per_s": ratio(ok, phase.end - phase.start),
            "ok_share": ratio(ok, attempted),
            "answer_match": ratio(matched, attempted),
            "slo_share": ratio(within, attempted),
            "peak_rss_mb": peak_rss_mb(),
        },
        "errors": phase.errors,
        "setup_seconds": setup_seconds,
    }


def _traced_result(plain: Phase, traced: Phase, calls: ModelCalls,
                   before: dict, after: dict) -> dict:
    attempted, failed, matched = _judge([plain, traced])
    batches = after["dispatched_batches"] - before["dispatched_batches"]
    dispatched = after["dispatched_requests"] - before["dispatched_requests"]
    started: dict[str, float] = {}
    busy = 0.0
    for start, end, prompts in calls.calls:
        busy += end - start
        for prompt in prompts:
            started.setdefault(prompt, start)
    waits = [
        (started[prompt] - due) * 1000.0
        for prompt, (due, _sent, _done, _reply) in traced.requests.items()
        if prompt in started
    ]
    late = [
        (sent - due) * 1000.0
        for due, sent, _done, _reply in plain.requests.values()
    ]
    plain_p50 = pct(plain.latencies_ms(), 50)
    traced_p50 = pct(traced.latencies_ms(), 50)
    metrics = {
        "serving.mean_batch_size": ratio(dispatched, batches),
        "serving.admitted_into_flight": float(
            after["admitted_into_flight"] - before["admitted_into_flight"]
        ),
        "serving.shed": float(after["shed"] - before["shed"]),
        "serving.expired": float(after["expired"] - before["expired"]),
        "serving.queue_wait_p50_ms": pct(waits, 50),
        "smmf.worker_busy_share": ratio(
            busy,
            workloads.SERVING_REPLICAS * (traced.end - traced.start),
        ),
        "loadgen.late_p95_ms": pct(late, 95),
        "obs.bench_tracing_overhead_pct": (
            ratio(traced_p50, plain_p50) - 1.0
        ) * 100.0,
    }
    return {
        "correct": matched == attempted - failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": {**plain.errors, **traced.errors},
    }
