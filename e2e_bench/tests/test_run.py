"""The command-line interface of ``e2e_bench/run.py``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "e2e_bench" / "metrics.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "e2e_bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_metric_spec():
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in BENCHMARK[kind]}
        assert list(listed) == list(SPEC[kind])
        for name, entry in listed.items():
            assert NAME.match(name)
            assert UNIT.match(entry["unit"])
            assert entry["unit"] == SPEC[kind][name]["unit"]
            assert entry["better"] == SPEC[kind][name]["better"]
            if kind == "end_to_end":
                assert entry["bound"] == SPEC[kind][name]["bound"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert len(json.dumps(BENCHMARK)) < 64 * 1024


@pytest.mark.parametrize(
    "workload,trace",
    [("warm_repeat", "0"), ("warm_repeat", "1"), ("serving_high", "1")],
)
def test_last_line_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2e_bench", tmp_path / "e2e_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "cold_mix", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
