"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at ``--tiny`` sizes for one second, untraced and traced.
The test checks that each metric named in BENCHMARK.json is printed with its
unit, that every output check runs and passes, and that per-layer counts
repeat exactly under one seed. It asserts nothing about wall-clock values.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# the harness also runs two workloads that BENCHMARK.json does not bound
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["search-synthetic", "search-biws-pool"]

SEARCH_CHECKS = {"records_equal_budget", "ids_issued_equal_budget",
                 "scores_in_unit_interval", "history_repeats_for_seed"}
BIWS_CHECKS = SEARCH_CHECKS | {"losses_finite", "supernet_reloads",
                               "one_write_back_per_iteration"}
CHECKS = {
    "train": {"losses_finite", "scores_in_unit_interval", "uniformity_in_range",
              "all_backbones_trained", "units_repeat_exactly"},
    "search-synthetic": SEARCH_CHECKS,
    "search-biws": BIWS_CHECKS,
    "search-biws-pool": BIWS_CHECKS | {"pool_history_equals_serial"},
}


def harness(root: Path, workload: str, trace: int, seed: int = 2):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(out) -> tuple[dict, list[str]]:
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_every_check_run(workload, trace):
    result, lines = result_of(harness(HERE.parent, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(m["unit"])
                   for line in lines), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    checks = {line.split()[1].rstrip(":"): line for line in lines if line.startswith("check ")}
    assert set(checks) == CHECKS[workload]
    assert all(": pass (" in line for line in checks.values()), checks
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "loadavg_before",
            "loadavg_after"} <= set(machine)


def test_traced_counts_repeat_exactly():
    counts = [name for name in (m["name"] for m in SPEC["per_layer"])
              if name.endswith(("calls_per_step", "_bytes", "_per_candidate", "final_loss",
                                "duplicate_ratio", "noop_ratio"))]
    first, _ = result_of(harness(HERE.parent, "search-biws", 1))
    second, _ = result_of(harness(HERE.parent, "search-biws", 1))
    assert first["metrics"]["tensor.calls_per_step"]["value"] > 0
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    out = harness(tmp_path, "train", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
