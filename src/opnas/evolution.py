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
uninterrupted run (timing is injectable; wall_ms is the only
nondeterministic field under a real clock). Rows past the checkpoint's
iteration, a torn last line among them, were never committed and are dropped.

Evaluator contract: the loop calls ``evaluator(spec, candidate_id)``, which
returns a float in [0, 1] or an EvalResult. Exceptions and scores outside
[0, 1] (NaN included) discard the candidate with a logged reason and the
loop continues. An evaluator may also expose
``on_iteration_end(iteration, best)``, called once per completed iteration
with ``[(candidate, payload)]`` for the iteration's best scored candidate
(score descending, then id ascending) and its EvalResult payload, or with
``[]`` when nothing scored (used for supernet weight write-back). The rest
of the batch is in the history; its payloads are dropped as soon as a
better candidate returns, so the loop keeps at most one payload per batch.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
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
    score: float | None = None
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
    def from_json_dict(cls, d: Mapping) -> "EvalRecord":
        return cls(
            id=int(d["id"]),
            parent_id=None if d["parent_id"] is None else int(d["parent_id"]),
            spec=backbone_from_payload(d["spec"]),
            score=float(d["score"]),
            iteration=int(d["iteration"]),
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


def record_result(stats: UcbStats, candidate: Candidate, score: float) -> UcbStats:
    """Fold one evaluated candidate into the statistics (in place)."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")
    for li, layer in enumerate(candidate.spec.layers):
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


def _timed_eval(evaluator, spec, candidate_id, clock=time.perf_counter):
    """(EvalResult or error text, wall_ms); also the pool worker's entry point."""
    t0 = clock()
    try:
        out = evaluator(spec, candidate_id)
        result = out if isinstance(out, EvalResult) else EvalResult(score=float(out))
        if not 0.0 <= result.score <= 1.0:  # NaN fails this too
            raise ValueError(f"score must be in [0, 1], got {result.score}")
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


def _top(candidates: Sequence[Candidate], count: int) -> list[Candidate]:
    # score desc, then id asc: deterministic under ties
    return sorted(candidates, key=lambda c: (-c.score, c.id))[:count]


class _RunState:
    """Mutable loop state: the checkpoint's counters and rng, plus what
    ``advance`` folds from the scored candidates of every completed iteration."""

    def __init__(self, config: SearchConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.stats = UcbStats()
        self.population: list[Candidate] = []
        self.history: list[EvalRecord] = []
        self.next_id = 0
        self.iteration = -1  # last completed iteration; init counts as 0
        self.evaluations = 0
        self.best_score: float | None = None
        self.stale = 0

    def advance(self, iteration: int, scored: Sequence[Candidate]) -> None:
        """Fold one completed iteration's scored candidates, in id order; a
        resume replays the history through it (``_top`` is a strict order)."""
        for cand in scored:
            record_result(self.stats, cand, cand.score)
        self.evaluations += len(scored)
        self.population = _top(self.population + list(scored),
                               self.config.population_size)
        self.iteration = iteration
        top = self.population[0].score if self.population else None
        if top is not None and (self.best_score is None or top > self.best_score):
            self.best_score = top
            self.stale = 0
        else:
            self.stale += 1

    def checkpoint_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config": {f: getattr(self.config, f) for f in SearchConfig._RESUME_FIELDS},
            "iteration": self.iteration,
            "next_id": self.next_id,
            "evaluations": self.evaluations,
            "rng_state": self.rng.getstate(),  # tuples dump as JSON lists
        }

    def load_checkpoint(self, d) -> tuple[int, int]:
        """Check a checkpoint against the run's config and restore its rng and
        next id; returns its (iteration, evaluations) for the history replay."""
        if not isinstance(d, dict):
            raise CheckpointError("malformed checkpoint: not a JSON object")
        if d.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {d.get('version')!r}")
        for field, kind in _CHECKPOINT_FIELDS.items():
            if type(d.get(field)) is not kind:  # so a bool is no int
                raise CheckpointError(f"malformed checkpoint: {field} is missing "
                                      f"or not {kind.__name__}")
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
        return d["iteration"], d["evaluations"]


class _Sink:
    """History/checkpoint writer. With no out_dir everything stays in memory."""

    def __init__(self, out_dir: str | Path | None):
        self.dir = Path(out_dir) if out_dir is not None else None
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    @property
    def history_path(self) -> Path | None:
        return None if self.dir is None else self.dir / HISTORY_FILE

    @property
    def checkpoint_path(self) -> Path | None:
        return None if self.dir is None else self.dir / CHECKPOINT_FILE

    def start_afresh(self) -> None:
        """Drop a previous run's history and checkpoint, so the files a
        fresh run leaves describe that run alone."""
        if self.dir is not None:
            self.history_path.unlink(missing_ok=True)
            self.checkpoint_path.unlink(missing_ok=True)

    def append_history(self, records: Sequence[EvalRecord]) -> None:
        if self.dir is None or not records:
            return
        with open(self.history_path, "a") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json_dict()) + "\n")

    def write_checkpoint(self, state: _RunState) -> None:
        if self.dir is None:
            return
        tmp = self.checkpoint_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(state.checkpoint_dict(), indent=2) + "\n")
        tmp.replace(self.checkpoint_path)

    def load_for_resume(self, state: _RunState) -> None:
        """Restore the rng and ids from the checkpoint, drop the history rows
        of an uncommitted iteration, and replay the rest through ``advance``."""
        if self.dir is None or not self.checkpoint_path.exists():
            raise CheckpointError(f"no checkpoint at {self.checkpoint_path}")
        try:
            payload = json.loads(self.checkpoint_path.read_text())
        except json.JSONDecodeError as e:
            raise CheckpointError(f"malformed checkpoint: {e}") from None
        iteration, evaluations = state.load_checkpoint(payload)
        lines = (self.history_path.read_text().splitlines()
                 if self.history_path.exists() else [])
        kept: list[EvalRecord] = []
        for n, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rec = EvalRecord.from_json_dict(json.loads(line))
            except (KeyError, TypeError, ValueError) as e:
                if n == len(lines):
                    # torn by a crash inside append_history, which precedes
                    # the checkpoint write: never committed
                    break
                raise CheckpointError(f"{self.history_path} line {n}: {e}") from None
            if 0 <= rec.iteration <= iteration:
                kept.append(rec)
        if len(kept) != evaluations:
            raise CheckpointError(f"history holds {len(kept)} evaluations up to iteration "
                                  f"{iteration}, checkpoint counts {evaluations}")
        if lines:
            tmp = self.history_path.with_suffix(".jsonl.tmp")
            tmp.write_text("".join(json.dumps(r.to_json_dict()) + "\n" for r in kept))
            tmp.replace(self.history_path)
        state.history = kept
        scored = {it: [] for it in range(iteration + 1)}  # empty iterations too
        for rec in kept:
            scored[rec.iteration].append(Candidate(rec.id, rec.spec, rec.score,
                                                   rec.parent_id))
        for it, cands in scored.items():
            state.advance(it, cands)


def _evaluate_batch(candidates, evaluator, jobs, clock):
    """Score a batch; returns ([(scored candidate, wall_ms)] in id order, best).

    ``best`` is (candidate, payload) of the batch's best scored candidate,
    ranked as ``_top`` ranks, or None when nothing scored. Outcomes are
    taken in id order and only the running best's payload is kept, so a
    payload (a candidate's trained weights, say) is dropped as soon as a
    better candidate returns. Failures are logged and dropped. With
    jobs > 1 the evaluator runs in a process pool of one-BLAS-thread
    workers, so it must be picklable and deterministic given
    (spec, candidate_id); each future is released once read, since it
    holds the payload. A worker that dies breaks the pool: every candidate
    not finished by then is logged and dropped too, and the next batch
    gets a new pool.
    """
    scored, best = [], None
    if jobs <= 1 or len(candidates) <= 1:
        for cand in candidates:
            best = _fold(scored, best, cand,
                         *_timed_eval(evaluator, cand.spec, cand.id, clock))
        return scored, best
    with ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(_timed_eval, evaluator, c.spec, c.id)
                   for c in candidates]
        for cand in candidates:
            best = _fold(scored, best, cand, *_read(futures.pop(0), clock))
    return scored, best


def _one_blas_thread() -> None:
    """Pool initializer: one BLAS thread in this worker.

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


def _read(future, clock) -> tuple:
    """A pool future's (outcome, wall_ms), as ``_timed_eval`` reports them."""
    t0 = clock()
    try:
        outcome, wall_ms = future.result()
    except BrokenProcessPool as e:
        return f"worker died: {e}", 0.0
    if clock is not time.perf_counter:
        # an injected clock rules the records even in pool mode, so runs
        # stay reproducible under a constant clock
        wall_ms = (clock() - t0) * 1000.0
    return outcome, wall_ms


def _fold(scored: list, best, cand: Candidate, outcome, wall_ms: float):
    """Add one outcome to ``scored``; returns the running best (candidate, payload)."""
    if isinstance(outcome, str):
        log.warning("candidate %d discarded: %s", cand.id, outcome)
        return best
    cand = replace(cand, score=outcome.score)
    scored.append((cand, wall_ms))
    # outcomes arrive in id order, so only a strictly higher score outranks
    if best is None or cand.score > best[0].score:
        return cand, outcome.payload
    return best


def _finish_iteration(state: _RunState, sink: _Sink, evaluator,
                      scored, best, iteration: int) -> None:
    """Apply one iteration's results in candidate-id order, then persist."""
    records = [EvalRecord(cand.id, cand.parent_id, cand.spec, cand.score,
                          iteration, wall_ms) for cand, wall_ms in scored]
    state.history.extend(records)
    state.advance(iteration, [cand for cand, _ in scored])
    hook = getattr(evaluator, "on_iteration_end", None)
    if hook is not None:
        hook(iteration, [] if best is None else [best])
    sink.append_history(records)
    sink.write_checkpoint(state)


def _random_batch(state: _RunState, left: int | float) -> list[Candidate]:
    """Fresh random specs: population_size while the population is empty
    (seed or re-seed), else k * children_per_parent; at most ``left``."""
    config = state.config
    size = (config.k * config.children_per_parent if state.population
            else config.population_size)
    batch = [Candidate(id=state.next_id + i,
                       spec=_random_backbone(state.rng, config.num_layers,
                                             config.max_path_len))
             for i in range(min(size, left))]
    state.next_id += len(batch)
    return batch


def _children(state: _RunState, op_dists: DistFn) -> list[Candidate]:
    """Proposal of the evolved strategies: children of the top k.

    The intra-layer edit draws its op from ``op_dists(position)``. While
    the population is empty (seed or re-seed) the proposal is a random
    batch. Empty once max_iterations, patience or max_evaluations binds.
    """
    config = state.config
    if state.iteration >= config.max_iterations or (
            state.iteration >= 0 and state.stale >= config.patience):
        return []
    budget = config.max_evaluations
    left = math.inf if budget is None else budget - state.evaluations
    if not state.population:
        return _random_batch(state, left)
    allowed = min(config.k * config.children_per_parent, left)
    children = []
    for parent in _top(state.population, config.k):
        for _ in range(config.children_per_parent):
            if len(children) >= allowed:
                break
            spec = _make_child(parent.spec, state.stats, op_dists, state.rng,
                               config.max_path_len)
            children.append(Candidate(id=state.next_id, spec=spec,
                                      parent_id=parent.id))
            state.next_id += 1
    return children


def _failed_streak(state: _RunState) -> int:
    """Completed iterations since the last one that scored a candidate."""
    last = state.history[-1].iteration if state.history else -1
    return state.iteration - last


def _run(config: SearchConfig, evaluator, propose, out_dir, resume: bool,
         clock) -> list[EvalRecord]:
    """The one search loop; a strategy is its ``propose(state)`` rule."""
    clock = clock or time.perf_counter
    state = _RunState(config)
    sink = _Sink(out_dir)
    if resume:
        sink.load_for_resume(state)
    else:
        sink.start_afresh()
    while batch := propose(state):
        scored, best = _evaluate_batch(batch, evaluator, config.jobs, clock)
        if not scored and _failed_streak(state) + 1 >= FAILED_BATCH_LIMIT:
            first, last = state.iteration + 2 - FAILED_BATCH_LIMIT, state.iteration + 1
            raise EvaluationFailed(f"every candidate of {FAILED_BATCH_LIMIT} batches in "
                                   f"a row failed evaluation (iterations {first}-{last})")
        _finish_iteration(state, sink, evaluator, scored, best,
                          iteration=state.iteration + 1)
        del best  # the payload must not outlive its iteration into the next batch
    return state.history


def search(config: SearchConfig, evaluator, out_dir=None,
           resume: bool = False, clock=None) -> list[EvalRecord]:
    """Operation-priority search: UCB-guided intra-layer mutation."""
    return _run(config, evaluator,
                lambda state: _children(
                    state, lambda j: op_distribution(state.stats, j, config.alpha)),
                out_dir, resume, clock)


def vanilla_ea(config: SearchConfig, evaluator, out_dir=None,
               resume: bool = False, clock=None) -> list[EvalRecord]:
    """Same loop as search() but mutation ops are drawn uniformly."""
    return _run(config, evaluator,
                lambda state: _children(state, uniform_op_distribution),
                out_dir, resume, clock)


def random_search(config: SearchConfig, evaluator, out_dir=None,
                  resume: bool = False, clock=None) -> list[EvalRecord]:
    """Independent random specs in the evolved strategies' batches (a seed
    batch of population_size, then k * children_per_parent per iteration),
    up to max_evaluations or else the most an evolved run could evaluate."""
    budget = config.max_evaluations
    if budget is None:
        budget = (config.population_size
                  + config.max_iterations * config.k * config.children_per_parent)
    return _run(config, evaluator,
                lambda state: _random_batch(state, budget - state.evaluations),
                out_dir, resume, clock)


def read_history(path: str | Path) -> list[EvalRecord]:
    """Parse a history JSONL file back into records."""
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(EvalRecord.from_json_dict(json.loads(line)))
    return records
