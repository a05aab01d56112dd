"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 0-9 --workloads train search-biws
    python3 perfbench/collect.py --seeds 0-9 --traced --out perfbench/baseline.json

Each run is one ``run.py`` process, one after another. For every workload and
metric the summary gives the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median, and flags an end-to-end spread above
a third of the metric's bound in BENCHMARK.json. ``--traced`` adds one traced
run per workload on the first seed. ``--out`` writes the summary, the raw
results and each run's machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return {"seed": seed, "trace": trace, "machine": machine,
            "checks": [line for line in lines if line.startswith("check ")],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    names = runs[0]["result"]["metrics"]
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, 0) for s in parse_seeds(args.seeds)]
        entry = {"runs": runs, "end_to_end": summarise(runs, bounds)}
        print(f"== {workload}: {len(runs)} runs, all correct: "
              f"{all(r['result']['correct'] for r in runs)}")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- spread"
            print(f"  {name:18s} median {s['median']:.6g} {s['unit']:4s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']}){flag}")
        if args.traced:
            entry["traced"] = run_once(workload, parse_seeds(args.seeds)[0], args.seconds, 1)
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
