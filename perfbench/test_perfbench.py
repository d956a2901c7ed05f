"""The benchmark's own tests (``python3 -m pytest perfbench``).

Smoke-size runs in fresh interpreters, exactly as the command line
runs them: every metric is printed with its unit, and the
deterministic counts of the traced ledger repeat at one seed and
differ at another.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Counts fixed by the inputs alone: entry-point calls, selection
#: events, checkpoint saves, spans.
DETERMINISTIC = (
    ".calls", "core.selection.events", "core.repository.size",
    "detectors.adwin.drifts", "trace.spans", "latency.samples",
)


def run_bench(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_unit(workload):
    lines, result = run_bench(workload, seed=3, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
        assert result["metrics"][name]["value"] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed_and_differ_at_another(workload):
    _, first = run_bench(workload, seed=5, trace=1)
    _, again = run_bench(workload, seed=5, trace=1)
    _, other = run_bench(workload, seed=6, trace=1)
    for result in (first, again, other):
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}

    def counts(result):
        return {
            k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(DETERMINISTIC) or k in DETERMINISTIC
        }

    assert counts(first) == counts(again)
    assert counts(first) != counts(other)
    assert first["metrics"]["classifiers.predict_learn.calls"]["value"] > 0
    assert first["metrics"]["metafeatures.extract_active.calls"]["value"] > 0
