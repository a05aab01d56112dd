"""Run one benchmark workload against the opnas sources beside this directory.

    python3 perfbench/run.py --workload search-biws --seed 3 --seconds 20 --trace 0

The harness imports ``opnas`` from ``../src`` (nothing else), builds the
workload's inputs from ``--seed``, then runs units of the workload for
``--seconds`` of wall time (the unit that crosses the limit finishes). It
checks the outputs, prints each metric by name and unit with its spread,
the machine record and each check, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the package's layer boundaries and
reports the per-layer metrics instead. ``--tiny`` shrinks every size for the
smoke test. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import TENSOR_OPS, Patches, Tracer, install, layer_metrics, op_microbench
from workloads import WORKLOADS, LossLog

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
MODULES = ("tensor", "search_space", "evolution", "model", "supernet", "metrics")

SETUP_REPS = 5  # set-ups before the first unit; one more after every unit
MICROBENCH_REPS = 200
# the tail is the highest ladder percentile with >= 10 samples beyond it,
# and the last rung when there are fewer than forty samples
TAIL_LADDER = (99, 95, 90, 75)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "candidates_per_s": "1/s",
    "candidate_s.p50": "s",
    "candidate_s.tail": "s",
    "iteration_s.p50": "s",
    "iteration_s.tail": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"tensor.calls_per_step": "count"}
    for op in TENSOR_OPS:
        units[f"tensor.{op}.calls_per_step"] = "count"
        units[f"tensor.{op}.self_ms_per_step"] = "ms"
        units[f"tensor.{op}.fwdbwd_us"] = "us"
    units.update({
        "tensor.backward_ms_per_step": "ms",
        "tensor.adam_ms_per_step": "ms",
        "model.step_ms": "ms",
        "model.step_self_ms": "ms",
        "model.forward_ms_per_step": "ms",
        "model.mask_ms_per_step": "ms",
        "model.build_ms": "ms",
        "model.proxy_ms": "ms",
        "model.diverged_ratio": "ratio",
        "model.tokens_per_s": "tokens/s",
        "model.final_loss": "nats",
        "metrics.uniformity_ms": "ms",
        "search_space.mutate_intra_us": "us",
        "search_space.mutate_inter_us": "us",
        "search_space.random_dag_us": "us",
        "search_space.payload_us": "us",
        "search_space.mutate_intra_noop_ratio": "ratio",
        "evolution.self_ms_per_iteration": "ms",
        "evolution.op_distribution_us": "us",
        "evolution.record_result_us": "us",
        "evolution.history_bytes_per_candidate": "bytes",
        "evolution.checkpoint_bytes": "bytes",
        "evolution.duplicate_ratio": "ratio",
        "evolution.pool_submit_bytes": "bytes",
        "evolution.pool_busy_ratio": "ratio",
        "evolution.failed_ratio": "ratio",
        "supernet.init_candidate_ms": "ms",
        "supernet.write_back_ms": "ms",
        "supernet.save_ms": "ms",
        "supernet.save_bytes": "bytes",
        "supernet.pickle_bytes": "bytes",
        "trace.untraced_candidates_per_s": "1/s",
        "trace.candidates_per_s": "1/s",
        "trace.overhead_candidates_per_s": "1/s",
    })
    return units


def load_opnas() -> dict:
    """Import the package from ../src only; exit with code 2 when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        modules = {m: importlib.import_module(f"opnas.{m}") for m in MODULES}
    except ImportError as e:
        print(f"perfbench: cannot import opnas from {SRC}: {e}", file=sys.stderr)
        raise SystemExit(2) from None
    origin = Path(modules["tensor"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: opnas resolved to {origin}, not under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return modules


# ---------------------------------------------------------------------------
# machine record


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_pinning": "none: processes are not pinned to CPUs",
        "cache_drop": "none: OS caches are not dropped between runs",
    }


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> int:
    """The highest ladder percentile with at least ten samples beyond it,
    else the lowest rung."""
    n = len(samples)
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), TAIL_LADDER[-1])


def best_of_units(per_unit: list[list[float]]) -> list[float]:
    """Per position, the fastest of the run's repeats of it.

    Units repeat the same work, so a position's time differs between units
    only by how the host treated it; the fastest repeat is the least
    disturbed one.
    """
    if len({len(u) for u in per_unit}) != 1:
        raise RuntimeError("units of one run differ in their number of timings")
    return [min(repeats) for repeats in zip(*per_unit)]


def iqr(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


class SetupTimer:
    """Set-up time: import in a fresh interpreter plus the in-process set-up.

    Samples are taken before the first unit and between units, so they
    spread over the run like the units do; ``setup_s`` is the median import
    plus the median set-up.
    """

    PROBE = ("import time; t = time.perf_counter(); import numpy, "
             + ", ".join(f"opnas.{m}" for m in MODULES)
             + "; print(time.perf_counter() - t)")

    def __init__(self, workload):
        self.workload = workload
        self.imports: list[float] = []
        self.setups: list[float] = []

    def sample(self) -> None:
        out = subprocess.run([sys.executable, "-c", self.PROBE],
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                             capture_output=True, text=True, timeout=120)
        self.imports.append(float(out.stdout.strip()))
        t0 = time.perf_counter()
        self.workload.setup()
        self.setups.append(time.perf_counter() - t0)

    def value(self) -> tuple[float, str]:
        imports, setups = statistics.median(self.imports), statistics.median(self.setups)
        detail = (f"import median {imports:.4f} s (IQR {iqr(self.imports):.4f}), "
                  f"set-up median {setups:.4f} s (IQR {iqr(self.setups):.4f}), "
                  f"{len(self.setups)} samples each")
        return imports + setups, detail


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of the harness, plus its largest pool worker's when it forks.

    Without a pool the only children are the set-up probes, which never run
    beside the workload, so their peak is left out.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------


def run_units(workload, losses, budget_s: float, tracer=None, between=None) -> list:
    """Closed loop over units until ``budget_s`` has passed (at least one);
    ``between`` runs after every unit."""
    units = []
    t0 = time.perf_counter()
    while not units or time.perf_counter() - t0 < budget_s:
        losses.tag = ("window", len(units))
        if tracer is None:
            units.append(workload.unit(keep=not units))
        else:
            with tracer.span("bench.unit"):
                units.append(workload.unit(keep=not units))
        if between is not None:
            between()
    return units


def end_to_end(window, setup_s: float, jobs: int) -> tuple[dict, list[str]]:
    # Every timing is the fastest repeat of its position over the run's
    # units (best_of_units): on a shared host the same work runs up to 1.6x
    # slower in spells of seconds to minutes, and the fastest repeat is the
    # figure that moves least between runs. A unit's time is the sum of its
    # pieces' fastest repeats.
    pieces = best_of_units([r.pieces for r in window])
    unit_s = sum(pieces)
    values = {
        "setup_s": setup_s,
        "candidates_per_s": window[0].recorded / unit_s,
        "peak_rss_mb": peak_rss_mb(jobs),
    }
    raw = [r.recorded / r.seconds for r in window]
    notes = [f"candidates_per_s: {window[0].recorded} candidates per unit over a unit "
             f"of {unit_s:.4f} s, its {len(window[0].pieces)} pieces each the fastest of "
             f"{len(window)} units; per-unit median {statistics.median(raw):.6g} 1/s, "
             f"IQR {iqr(raw):.6g}"]
    timings = {
        "candidate_s": best_of_units([r.candidate_s for r in window]),
        "iteration_s": [sum(pieces[lo:hi]) for lo, hi in window[0].iterations],
    }
    for name, best in timings.items():
        p = tail(best)
        values[f"{name}.p50"] = statistics.median(best)
        values[f"{name}.tail"] = float(np.percentile(best, p))
        beyond = len(best) * (100 - p) / 100
        notes.append(f"{name}: {len(best)} positions from the fastest of {len(window)} "
                     f"units; tail = p{p} ({beyond:g} positions beyond it); "
                     f"IQR over positions {iqr(best):.6g} s")
    return values, notes


def per_layer(workload, pre, window, tracer, losses, opnas) -> dict:
    table = tracer.table()
    units = table.of("bench.unit")
    first = table.under(units & (np.cumsum(units) == 1))
    values = layer_metrics(table, first, workload.batch, workload.seq_len,
                           [last for last, _ in losses.for_tag(("window", 0))])
    values.update(workload.layer_facts(window[0]))
    values.update(op_microbench(opnas["tensor"], MICROBENCH_REPS))

    attempted = sum(r.attempted for r in window)
    is_search = "searches" in window[0].facts
    values["evolution.failed_ratio"] = (
        (attempted - sum(r.recorded for r in window)) / attempted if is_search else 0.0)
    trained = [ok for tag, _, ok in losses.entries if tag in
               {("window", u) for u in range(len(window))}]
    values["model.diverged_ratio"] = trained.count(False) / len(trained) if trained else 0.0
    pool = table.of("evolution.pool")
    if pool.any():
        busy = sum(x for r in window for x in r.candidate_s)
        values["evolution.pool_busy_ratio"] = busy / (workload.jobs * table.dur[pool].sum())
    untraced = pre.recorded / pre.seconds
    traced = window[0].recorded / window[0].seconds
    values["trace.untraced_candidates_per_s"] = untraced
    values["trace.candidates_per_s"] = traced
    values["trace.overhead_candidates_per_s"] = traced - untraced
    return {name: float(values.get(name, 0.0)) for name in per_layer_units()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    opnas = load_opnas()
    load_before = os.getloadavg()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    patches = Patches()
    try:
        workload = WORKLOADS[args.workload](opnas, args.seed, args.tiny, work)
        losses = LossLog(opnas["model"].TrainingDiverged)
        for owner in (opnas["model"], opnas["supernet"]):
            patches.set(owner, "mlm_pretrain", losses.wrap(owner.mlm_pretrain))
        if args.trace:
            workload.setup()
            # one untraced unit first: every traced unit repeats its work, so
            # the two give the tracing overhead on identical work
            losses.tag = "pre"
            pre = workload.unit()
            tracer = Tracer()
            trace_patches = Patches()
            install(tracer, trace_patches, opnas)
            workload.tracer = tracer
            try:
                window = run_units(workload, losses, args.seconds - pre.seconds, tracer)
            finally:
                trace_patches.undo()
                workload.tracer = None
        else:
            setup = SetupTimer(workload)
            for _ in range(SETUP_REPS):
                setup.sample()
            pre = None
            window = run_units(workload, losses, args.seconds, between=setup.sample)
            setup_s, setup_note = setup.value()

        units = ([pre] if pre else []) + window
        losses.tag = "reference"
        ref = workload.reference(units)
        checks = workload.checks(units + ([ref] if ref else []), losses)
        if args.trace:
            metrics = per_layer(workload, pre, window, tracer, losses, opnas)
            spans_path = WORK / f"trace-{args.workload}.npz"
            tracer.save(spans_path)
            names, notes = per_layer_units(), [f"trace spans: {spans_path}"]
        else:
            metrics, notes = end_to_end(window, setup_s, getattr(workload, "jobs", 1))
            names = END_TO_END
            notes.append(f"setup_s: {setup_note}")
    finally:
        patches.undo()
        shutil.rmtree(work, ignore_errors=True)

    record = machine_record()
    record.update(loadavg_before=load_before, loadavg_after=os.getloadavg(),
                  workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny)
    print("machine " + json.dumps(record))
    for name, ok, detail in checks:
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    for note in notes:
        print(f"note {note}")
    for name, unit in names.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    attempted = sum(r.attempted for r in window)
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": attempted - sum(r.recorded for r in window),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
