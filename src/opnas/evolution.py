"""Priority-guided evolutionary search over backbone specs, plus baselines.

One loop serves all three strategies: propose a batch, score it, fold the
scores into the population and statistics, write the iteration's history
and checkpoint; stop when the proposal comes back empty. ``search`` mutates
the top K (inter-layer first, then one intra-layer edit) and draws the
edit's op by per-position UCB scores over every evaluation so far,
u = mu + alpha * sqrt(2 ln N / N_i), through a softmax; ops never seen at
a position score infinity so they are explored first. It stops at
max_iterations, after ``patience`` iterations without a better best, or
at max_evaluations. ``vanilla_ea`` draws the op uniformly. ``random_search``
draws independent specs in the evolved strategies' batch shape up to a
nominal budget; neither patience nor max_iterations stops it, and its batch
edges do not depend on the budget, so a run resumed at a larger
max_iterations equals a fresh one. Any strategy proposes random specs while its
population is empty, and raises ``EvaluationFailed`` once three batches in
a row score nothing (a streak read from the history, so it survives a
resume).

History: an append-only JSONL file with one record per evaluated candidate
{id, parent_id, spec, score, iteration, wall_ms}, and a JSON checkpoint
{version, config, iteration, next_id, evaluations, rng_state} written after
every completed iteration: only what the history cannot give. A run that
does not resume first deletes both files of any earlier run. A resume
replays the history's committed iterations through the loop's own
per-iteration fold, which rebuilds the population, statistics, best score
and patience counter, then replays the interrupted iteration from the
checkpointed rng state, so its history file is byte-identical to an
uninterrupted run. A resume and ``read_history`` take the committed rows by
one rule, ``_read_run``'s, and a resume cuts off the rest.
``clock=`` times each evaluator call into wall_ms; the default clock reads
0.0, so a fixed seed repeats the history byte for byte.

Evaluator contract: the loop calls ``evaluator(spec, candidate_id)``, which
returns a float in [0, 1] or an EvalResult. Exceptions and scores outside
[0, 1] (NaN included) discard the candidate with a logged reason and the
loop continues; so does, at jobs > 1, a payload that does not pickle (at
jobs=1 nothing checks it). An evaluator may also expose
``on_iteration_end(iteration, best)``, called once per completed iteration
with ``[(record, payload)]``: the EvalRecord of the iteration's best scored
candidate (score descending, then id ascending) and its EvalResult payload,
or ``[]`` when nothing scored (used for supernet weight write-back). The rest
of the batch is in the history; its payloads are dropped as soon as a
better candidate returns, so the loop keeps at most one payload per batch.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from itertools import groupby
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from opnas.model import check_number
from opnas.search_space import (
    ALL_OPS,
    KERNEL_MENU,
    MAX_PATH_LEN,
    BackboneSpec,
    DistFn,
    LayerSpec,
    backbone_from_payload,
    backbone_to_payload,
    mutate_inter,
    mutate_intra,
    random_dag,
    uniform_kernel_distribution,
    uniform_op_distribution,
)

__all__ = [
    "Candidate",
    "EvalRecord",
    "EvalResult",
    "SearchConfig",
    "UcbStats",
    "CheckpointError",
    "EvaluationFailed",
    "ucb_score",
    "op_distribution",
    "kernel_distribution",
    "record_result",
    "search",
    "vanilla_ea",
    "random_search",
    "read_history",
    "HISTORY_FILE",
    "CHECKPOINT_FILE",
]

log = logging.getLogger(__name__)

HISTORY_FILE = "history.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
CHECKPOINT_VERSION = 2
FAILED_BATCH_LIMIT = 3  # batches in a row that score nothing end a run
# what a checkpoint holds besides its version; the history gives the rest
_CHECKPOINT_FIELDS = {"config": dict, "iteration": int, "next_id": int,
                      "evaluations": int, "rng_state": list}


@dataclass(frozen=True)
class Candidate:
    id: int
    spec: BackboneSpec
    parent_id: int | None = None


@dataclass(frozen=True)
class EvalRecord:
    """One evaluated candidate, in history-file field order."""

    id: int
    parent_id: int | None
    spec: BackboneSpec
    score: float
    iteration: int
    wall_ms: float

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "parent_id": self.parent_id,
            "spec": backbone_to_payload(self.spec),
            "score": self.score,
            "iteration": self.iteration,
            "wall_ms": self.wall_ms,
        }

    @classmethod
    def from_json_dict(cls, d) -> "EvalRecord":
        """Parse a history row; ValueError names the first field it refuses."""
        if not isinstance(d, Mapping):
            raise ValueError(f"history row must be a JSON object, got {type(d).__name__}")
        for f in fields(cls):
            if f.name not in d:
                raise ValueError(f"history row has no {f.name}")
            if f.name != "spec":
                check_number(d[f.name], f.type, f.name)
        return cls(
            id=d["id"],
            parent_id=d["parent_id"],
            spec=backbone_from_payload(d["spec"]),
            score=_check_score(float(d["score"])),
            iteration=d["iteration"],
            wall_ms=float(d["wall_ms"]),
        )


@dataclass(frozen=True)
class EvalResult:
    """Score plus an optional payload the iteration hook can consume."""

    score: float
    payload: Any = None


@dataclass(frozen=True)
class SearchConfig:
    population_size: int = 20
    k: int = 5
    alpha: float = 0.5
    max_iterations: int = 50
    children_per_parent: int = 2
    seed: int = 0
    patience: int = 10
    num_layers: int = 12
    max_path_len: int = MAX_PATH_LEN
    max_evaluations: int | None = None
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):
            check_number(getattr(self, f.name), f.type, f.name)
        if not self.population_size >= self.k >= 1:
            raise ValueError("need population_size >= k >= 1")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.children_per_parent < 1 or self.max_iterations < 0:
            raise ValueError("children_per_parent >= 1 and max_iterations >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {self.max_evaluations}")
        if not 1 <= self.max_path_len <= MAX_PATH_LEN:  # what a spec may hold
            raise ValueError(f"max_path_len must be in 1..{MAX_PATH_LEN}")

    # fields that must match between a checkpoint and a resuming config
    _RESUME_FIELDS = ("population_size", "k", "alpha", "children_per_parent",
                      "seed", "num_layers", "max_path_len")


def _check_score(score: float) -> float:
    """``score`` itself if it lies in [0, 1]; NaN does not."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")
    return score


class CheckpointError(RuntimeError):
    """Checkpoint missing, malformed, or inconsistent with the config."""


class EvaluationFailed(RuntimeError):
    """Every candidate of FAILED_BATCH_LIMIT batches in a row failed evaluation."""


# ---------------------------------------------------------------------------
# operation-priority statistics


class UcbStats:
    """Per-(position, op) score statistics plus per-layer kernel counts.

    Positions index into a dag's node list (0-based). ``totals[j]`` counts
    every evaluated attention path long enough to have a node at j; a
    candidate with several attention layers contributes each layer's path
    independently.
    """

    def __init__(self):
        self.visits: dict[int, dict[str, int]] = {}
        self.sums: dict[int, dict[str, float]] = {}
        self.totals: dict[int, int] = {}
        self.kernel_counts: dict[int, dict[int, int]] = {}


def record_result(stats: UcbStats, record: EvalRecord) -> UcbStats:
    """Fold one record's spec and score into the statistics (in place)."""
    score = _check_score(record.score)
    for li, layer in enumerate(record.spec.layers):
        if layer.kind == "conv":
            counts = stats.kernel_counts.setdefault(li, {})
            counts[layer.kernel] = counts.get(layer.kernel, 0) + 1
            continue
        for j, node in enumerate(layer.dag.nodes):
            visits = stats.visits.setdefault(j, {})
            sums = stats.sums.setdefault(j, {})
            visits[node.op] = visits.get(node.op, 0) + 1
            sums[node.op] = sums.get(node.op, 0.0) + score
            stats.totals[j] = stats.totals.get(j, 0) + 1
    return stats


def ucb_score(stats: UcbStats, position: int, op: str, alpha: float) -> float:
    """u = mu + alpha * sqrt(2 ln N / N_i); +inf while (position, op) unseen."""
    total = stats.totals.get(position, 0)
    n_i = stats.visits.get(position, {}).get(op, 0)
    if total < 1 or n_i < 1:
        return math.inf
    mu = stats.sums[position][op] / n_i
    return mu + alpha * math.sqrt(2.0 * math.log(total) / n_i)


def op_distribution(stats: UcbStats, position: int, alpha: float) -> dict[str, float]:
    """Sampling probabilities over the ten ops at one path position.

    Softmax over finite UCB scores; if any op is still unseen, probability
    1 is split uniformly among the unseen ones so they are tried first.
    """
    scores = {op: ucb_score(stats, position, op, alpha) for op in ALL_OPS}
    unseen = [op for op, u in scores.items() if math.isinf(u)]
    if unseen:
        p = 1.0 / len(unseen)
        return {op: (p if op in unseen else 0.0) for op in ALL_OPS}
    peak = max(scores.values())
    exps = {op: math.exp(u - peak) for op, u in scores.items()}
    z = sum(exps.values())
    return {op: e / z for op, e in exps.items()}


def kernel_distribution(stats: UcbStats, layer: int) -> dict[int, float]:
    """Empirical kernel-size distribution at one layer; uniform until data."""
    counts = stats.kernel_counts.get(layer, {})
    total = sum(counts.values())
    if total == 0:
        return uniform_kernel_distribution(layer)
    return {k: counts.get(k, 0) / total for k in KERNEL_MENU}


# ---------------------------------------------------------------------------
# evaluator plumbing


def _zero_clock() -> float:
    """The default clock, module level so a pool can pickle it."""
    return 0.0


def _timed_eval(evaluator, spec, candidate_id, clock):
    """(EvalResult or error text, wall_ms) of one evaluator call."""
    t0 = clock()
    try:
        out = evaluator(spec, candidate_id)
        result = out if isinstance(out, EvalResult) else EvalResult(score=float(out))
        _check_score(result.score)
    except Exception as e:  # reported for the discard log, never raised
        return f"{type(e).__name__}: {e}", 0.0
    return result, (clock() - t0) * 1000.0


# ---------------------------------------------------------------------------
# search engine


def _random_backbone(rng: random.Random, num_layers: int, max_len: int) -> BackboneSpec:
    layers = []
    for _ in range(num_layers):
        if rng.random() < 0.5:
            layers.append(LayerSpec.attention(random_dag(rng, max_len)))
        else:
            layers.append(LayerSpec.conv(rng.choice(KERNEL_MENU)))
    return BackboneSpec(tuple(layers))


def _make_child(parent: BackboneSpec, stats: UcbStats, op_dists: DistFn,
                rng: random.Random, max_len: int) -> BackboneSpec:
    """Inter-layer mutation followed by one intra-layer edit."""
    spec = mutate_inter(parent, lambda li: kernel_distribution(stats, li), rng, max_len)
    att = spec.attention_indices
    if not att:
        return spec
    li = rng.choice(att)
    dag = mutate_intra(spec.layers[li].dag, op_dists, rng, max_len)
    layers = list(spec.layers)
    layers[li] = LayerSpec.attention(dag)
    return BackboneSpec(tuple(layers))


def _top(records: Sequence[EvalRecord], count: int) -> list[EvalRecord]:
    # score desc, then id asc: deterministic under ties
    return sorted(records, key=lambda r: (-r.score, r.id))[:count]


class _Run:
    """One run's loop state and the files that commit it: ``history.jsonl``
    and ``checkpoint.json`` under out_dir, or nothing when out_dir is None.
    The checkpoint holds the counters and rng; ``advance`` folds the rest
    from the records of every completed iteration."""

    def __init__(self, config: SearchConfig, out_dir: str | Path | None):
        self.config = config
        self.rng = random.Random(config.seed)
        self.stats = UcbStats()
        self.population: list[EvalRecord] = []
        self.history: list[EvalRecord] = []
        self.next_id = 0
        self.iteration = -1  # last completed iteration; init counts as 0
        self.evaluations = 0
        self.best_score: float | None = None
        self.stale = 0
        self.dir = Path(out_dir) if out_dir is not None else None
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    def advance(self, iteration: int, records: Sequence[EvalRecord]) -> None:
        """Fold one completed iteration's records, in id order; a resume
        replays the history through it (``_top`` is a strict order)."""
        for rec in records:
            record_result(self.stats, rec)
        self.evaluations += len(records)
        self.population = _top(self.population + list(records),
                               self.config.population_size)
        self.iteration = iteration
        top = self.population[0].score if self.population else None
        if top is not None and (self.best_score is None or top > self.best_score):
            self.best_score = top
            self.stale = 0
        else:
            self.stale += 1

    def commit(self, iteration: int, records: Sequence[EvalRecord], best,
               evaluator) -> None:
        """Complete one iteration: fold its records, hand the evaluator's
        ``on_iteration_end`` the batch's best, append the records to the
        history, then replace the checkpoint, which makes the iteration count."""
        self.history.extend(records)
        self.advance(iteration, records)
        hook = getattr(evaluator, "on_iteration_end", None)
        if hook is not None:
            hook(iteration, [] if best is None else [best])
        if self.dir is None:
            return
        if records:
            with open(self.dir / HISTORY_FILE, "a") as fh:
                for rec in records:
                    fh.write(json.dumps(rec.to_json_dict()) + "\n")
        checkpoint = {
            "version": CHECKPOINT_VERSION,
            "config": {f: getattr(self.config, f) for f in SearchConfig._RESUME_FIELDS},
            "iteration": self.iteration,
            "next_id": self.next_id,
            "evaluations": self.evaluations,
            "rng_state": self.rng.getstate(),  # tuples dump as JSON lists
        }
        tmp = self.dir / (CHECKPOINT_FILE + ".tmp")
        tmp.write_text(json.dumps(checkpoint, indent=2) + "\n")
        tmp.replace(self.dir / CHECKPOINT_FILE)

    def start_afresh(self) -> None:
        """Drop a previous run's history and checkpoint, so the files a
        fresh run leaves describe that run alone."""
        if self.dir is not None:
            (self.dir / HISTORY_FILE).unlink(missing_ok=True)
            (self.dir / CHECKPOINT_FILE).unlink(missing_ok=True)

    def resume(self) -> None:
        """Restore the run from its checkpoint and committed rows; cut the rest."""
        path = self.dir / CHECKPOINT_FILE if self.dir is not None else None
        if path is None or not path.exists():
            raise CheckpointError(f"no checkpoint at {path}")
        history_path = self.dir / HISTORY_FILE
        try:
            d, kept, size = _read_run(history_path)
        except ValueError as e:
            raise CheckpointError(str(e)) from None
        for f in SearchConfig._RESUME_FIELDS:
            want = d["config"].get(f)
            have = getattr(self.config, f)
            if want != have:
                raise CheckpointError(f"config field {f} changed: "
                                      f"checkpoint has {want!r}, run has {have!r}")
        try:
            version, internal, gauss = d["rng_state"]
            self.rng.setstate((version, tuple(internal), gauss))
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"malformed checkpoint: rng_state: {e}") from None
        self.next_id = d["next_id"]
        if history_path.exists():  # a crash inside ``commit`` may leave uncommitted rows
            os.truncate(history_path, size)
        self.history = kept
        groups = {it: list(g) for it, g in groupby(kept, key=lambda r: r.iteration)}
        for it in range(d["iteration"] + 1):  # empty iterations too
            self.advance(it, groups.get(it, []))


def _evaluate_batch(candidates, evaluator, jobs, clock, iteration):
    """Score a batch; returns (its scored candidates' records in id order, best).

    Each record is stamped with ``iteration``. ``best`` is (record, payload)
    of the batch's best record, ranked as ``_top`` ranks, or None when
    nothing scored. Outcomes are taken in id order and only the running
    best's payload is kept, so a payload (a candidate's trained weights,
    say) is dropped as soon as a better candidate returns. Failures are
    logged and dropped. With jobs > 1 the evaluator runs in a process pool
    of one-BLAS-thread workers, so the evaluator and clock must be picklable
    and the evaluator deterministic given (spec, candidate_id). Each worker
    gets both once, when it starts, and a submit carries only (spec,
    candidate_id); the pool lives for one batch, so its workers see the
    evaluator as the last iteration left it. Each future is released once
    read, since it holds the payload. A result that cannot come back from
    its worker (an unpicklable payload, say) is logged and dropped like an
    evaluator error. A worker that dies breaks the pool: every candidate not
    finished by then is logged and dropped too, and the next batch gets a
    new pool.
    """
    records, best = [], None
    if jobs <= 1 or len(candidates) <= 1:
        for cand in candidates:
            best = _fold(records, best, cand, iteration,
                         *_timed_eval(evaluator, cand.spec, cand.id, clock))
        return records, best
    with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                             initargs=(evaluator, clock)) as pool:
        futures = [pool.submit(_worker_eval, c.spec, c.id) for c in candidates]
        for cand in candidates:
            best = _fold(records, best, cand, iteration, *_read(futures.pop(0)))
    return records, best


# a pool worker's evaluator and clock, set once by ``_start_worker``
_worker_evaluator = _worker_clock = None


def _start_worker(evaluator, clock) -> None:
    """Pool initializer: one BLAS thread, and what every submit runs."""
    global _worker_evaluator, _worker_clock
    _one_blas_thread()
    _worker_evaluator, _worker_clock = evaluator, clock


def _worker_eval(spec: BackboneSpec, candidate_id: int) -> tuple:
    """A pool worker's ``_timed_eval`` of the evaluator it started with."""
    return _timed_eval(_worker_evaluator, spec, candidate_id, _worker_clock)


def _one_blas_thread() -> None:
    """One BLAS thread in this pool worker.

    The workers already fill the cores, so their own BLAS threads would
    only contend for them. Sets numpy's bundled OpenBLAS through ctypes; a
    silent no-op where that library or its symbol is missing. Only workers
    run it, so the parent keeps its setting.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _read(future) -> tuple:
    """A pool future's (outcome, wall_ms), as ``_timed_eval`` reports them."""
    try:
        return future.result()
    except BrokenProcessPool as e:
        return f"worker died: {e}", 0.0
    except Exception as e:  # an outcome that cannot come back, say
        return f"{type(e).__name__}: {e}", 0.0


def _fold(records: list, best, cand: Candidate, iteration: int, outcome,
          wall_ms: float):
    """Add one outcome to ``records``; returns the running best (record, payload)."""
    if isinstance(outcome, str):
        log.warning("candidate %d discarded: %s", cand.id, outcome)
        return best
    rec = EvalRecord(cand.id, cand.parent_id, cand.spec, outcome.score, iteration, wall_ms)
    records.append(rec)
    # outcomes arrive in id order, so only a strictly higher score outranks
    if best is None or rec.score > best[0].score:
        return rec, outcome.payload
    return best


def _random_batch(run: _Run, left: int | float) -> list[Candidate]:
    """Fresh random specs: population_size while the population is empty
    (seed or re-seed), else k * children_per_parent; at most ``left``."""
    config = run.config
    size = (config.k * config.children_per_parent if run.population
            else config.population_size)
    batch = [Candidate(id=run.next_id + i,
                       spec=_random_backbone(run.rng, config.num_layers,
                                             config.max_path_len))
             for i in range(min(size, left))]
    run.next_id += len(batch)
    return batch


def _children(run: _Run, op_dists: DistFn) -> list[Candidate]:
    """Proposal of the evolved strategies: children of the top k.

    The intra-layer edit draws its op from ``op_dists(position)``. While
    the population is empty (seed or re-seed) the proposal is a random
    batch. Empty once max_iterations, patience or max_evaluations binds.
    """
    config = run.config
    if run.iteration >= config.max_iterations or (
            run.iteration >= 0 and run.stale >= config.patience):
        return []
    budget = config.max_evaluations
    left = math.inf if budget is None else budget - run.evaluations
    if not run.population:
        return _random_batch(run, left)
    allowed = min(config.k * config.children_per_parent, left)
    children = []
    for parent in _top(run.population, config.k):
        for _ in range(config.children_per_parent):
            if len(children) >= allowed:
                break
            spec = _make_child(parent.spec, run.stats, op_dists, run.rng,
                               config.max_path_len)
            children.append(Candidate(id=run.next_id, spec=spec,
                                      parent_id=parent.id))
            run.next_id += 1
    return children


def _failed_streak(run: _Run) -> int:
    """Completed iterations since the last one that scored a candidate."""
    last = run.history[-1].iteration if run.history else -1
    return run.iteration - last


def _run(config: SearchConfig, evaluator, propose, out_dir, resume: bool,
         clock) -> list[EvalRecord]:
    """The one search loop; a strategy is its ``propose(run)`` rule."""
    run = _Run(config, out_dir)
    if resume:
        run.resume()
    else:
        run.start_afresh()
    while batch := propose(run):
        iteration = run.iteration + 1
        records, best = _evaluate_batch(batch, evaluator, config.jobs, clock, iteration)
        if not records and _failed_streak(run) + 1 >= FAILED_BATCH_LIMIT:
            first, last = iteration + 1 - FAILED_BATCH_LIMIT, iteration
            raise EvaluationFailed(f"every candidate of {FAILED_BATCH_LIMIT} batches in "
                                   f"a row failed evaluation (iterations {first}-{last})")
        run.commit(iteration, records, best, evaluator)
        del best  # the payload must not outlive its iteration into the next batch
    return run.history


def search(config: SearchConfig, evaluator, out_dir=None,
           resume: bool = False, clock=_zero_clock) -> list[EvalRecord]:
    """Operation-priority search: UCB-guided intra-layer mutation."""
    return _run(config, evaluator,
                lambda run: _children(
                    run, lambda j: op_distribution(run.stats, j, config.alpha)),
                out_dir, resume, clock)


def vanilla_ea(config: SearchConfig, evaluator, out_dir=None,
               resume: bool = False, clock=_zero_clock) -> list[EvalRecord]:
    """Same loop as search() but mutation ops are drawn uniformly."""
    return _run(config, evaluator,
                lambda run: _children(run, uniform_op_distribution),
                out_dir, resume, clock)


def random_search(config: SearchConfig, evaluator, out_dir=None,
                  resume: bool = False, clock=_zero_clock) -> list[EvalRecord]:
    """Independent random specs in the evolved strategies' batches (a seed
    batch of population_size, then k * children_per_parent per iteration),
    up to max_evaluations or else the most an evolved run could evaluate."""
    budget = config.max_evaluations
    if budget is None:
        budget = (config.population_size
                  + config.max_iterations * config.k * config.children_per_parent)
    return _run(config, evaluator,
                lambda run: _random_batch(run, budget - run.evaluations),
                out_dir, resume, clock)


def _read_run(history: Path) -> tuple[dict | None, list[EvalRecord], int]:
    """The checkpoint beside ``history`` (or None), the committed records and
    their byte length: the checkpoint's first ``evaluations`` rows (none if
    the file is missing) or, without one, every row. Each must be non-blank,
    end in a newline, parse, lie in iterations 0..``iteration``, and follow
    the row before with a higher id and no lower iteration; else a
    ValueError reads "<path> line N: <reason>". Writes nothing."""
    d, path = None, history.parent / CHECKPOINT_FILE
    if path.exists():
        try:
            d = json.loads(path.read_text())
        except ValueError as e:
            raise CheckpointError(f"malformed checkpoint: {e}") from None
        if not isinstance(d, dict):
            raise CheckpointError("malformed checkpoint: not a JSON object")
        if d.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {d.get('version')!r}")
        for field, kind in _CHECKPOINT_FIELDS.items():
            if type(d.get(field)) is not kind:  # so a bool is no int
                raise CheckpointError(f"malformed checkpoint: {field} is missing "
                                      f"or not {kind.__name__}")
    rows = (history.read_bytes().splitlines(keepends=True)
            if d is None or history.exists() else [])
    count, last = (len(rows), math.inf) if d is None else (d["evaluations"], d["iteration"])
    if not 0 <= count <= len(rows):
        raise CheckpointError(f"history holds {len(rows)} evaluations up to iteration "
                              f"{last}, checkpoint counts {count}")
    records: list[EvalRecord] = []
    for n, row in enumerate(rows[:count], start=1):
        try:
            if not row.strip():
                raise ValueError("blank line")
            if not row.endswith(b"\n"):  # the next append would join it
                raise ValueError("unterminated line")
            rec = EvalRecord.from_json_dict(json.loads(row))
            if not 0 <= rec.iteration <= last:
                raise ValueError(f"iteration {rec.iteration} is outside 0..{last}")
            if records and rec.id <= records[-1].id:
                raise ValueError(f"id {rec.id} follows id {records[-1].id}")
            if records and rec.iteration < records[-1].iteration:
                raise ValueError(f"iteration {rec.iteration} follows iteration "
                                 f"{records[-1].iteration}")
        except UnicodeDecodeError as e:  # its str ignores args
            raise ValueError(f"{history} line {n}: {e}") from None
        except ValueError as e:
            e.args = (f"{history} line {n}: {e}",)  # a SpecParseError stays one
            raise
        records.append(rec)
    return d, records, sum(map(len, rows[:count]))


def read_history(path: str | Path) -> list[EvalRecord]:
    """A history file's committed rows as checked records, by ``_read_run``."""
    return _read_run(Path(path))[1]
