"""Run one workload of the end-to-end question benchmark.

    python3 e2e_bench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src/``.
Prints a readable report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. ``--workload all`` runs every workload in turn, each in
its own process, and prints their reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold_mix", "warm_repeat", "write_mix", "serving_high")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or completed.returncode
    return status


def _metadata(args) -> dict:
    from e2e_bench import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "db": {
            "orders": workloads.N_ORDERS,
            "users": workloads.N_USERS,
            "products": workloads.N_PRODUCTS,
        },
        "corpus_docs": 4 * workloads.DOCS_PER_TOPIC,
        "cold_mix": workloads.COLD_MIX,
        "warm_pool": workloads.WARM_POOL,
        "zipf_s": workloads.ZIPF_S,
        "write_every": workloads.WRITE_EVERY,
        "serving": {
            "replicas": workloads.SERVING_REPLICAS,
            "latency_ms": workloads.SERVING_LATENCY_S * 1000.0,
            "per_item_ms": workloads.SERVING_PER_ITEM_S * 1000.0,
            "rate_per_s": workloads.SERVING_RATE,
        },
        "slo_ms": workloads.SLO_MS,
    }


def _report(args, result: dict, spec: dict) -> None:
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"e2e_bench {json.dumps(_metadata(args))}")
    print(
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    if "setup_seconds" in result:
        runs = ", ".join(f"{s:.4f}" for s in result["setup_seconds"])
        print(f"setup runs (s): {runs}")
    for name, value in result["metrics"].items():
        entry = spec[kind][name]
        alias = entry.get("also_named", {}).get(args.workload, "")
        alias = f"  (= {alias})" if alias else ""
        print(f"  {name:<36} {value:>14.6f} {entry['unit']}{alias}")
    if not args.trace:
        failed_share = 1.0 - result["metrics"]["ok_share"]
        print(f"  {'failed_share':<36} {failed_share:>14.6f} share")
    for (app, template), count in sorted(result.get("mismatches", {}).items()):
        print(f"  mismatch {app}/{template}: {count}")
    for error, count in sorted(result.get("errors", {}).items()):
        print(f"  error {error}: {count}")
    layers = result.get("layer_seconds")
    if layers:
        total = sum(layers.values())
        turns = result["traced_turns"]
        print("self time by layer (traced half):")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(
                f"  {layer:<16} {seconds * 1000.0 / turns:10.4f} ms/turn "
                f"{seconds / total:8.2%}"
            )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "e2e_bench: run from the repository root; src/repro is missing",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
    from e2e_bench import apps_bench, serving_bench

    spec = json.loads((HERE / "metrics.json").read_text())
    module = serving_bench if args.workload.startswith("serving") else apps_bench
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {name: 0.0 for name in spec[kind]}
    metrics.update(result["metrics"])
    result["metrics"] = metrics
    _report(args, result, spec)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": spec[kind][name]["unit"]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
