"""Priority-guided evolutionary search over backbone specs, plus baselines.

The loop keeps a population of scored candidates, mutates the top K each
iteration (inter-layer first, then one intra-layer edit), and biases the
intra-layer op choice by per-position UCB scores accumulated from every
evaluation so far: u = mu + alpha * sqrt(2 ln N / N_i), turned into
sampling probabilities with a softmax. Ops never seen at a position get an
infinite score so they are explored first.

``vanilla_ea`` is the same loop with uniform op choice; ``random_search``
draws independent specs. All three share one history schema: an
append-only JSONL file with one record per evaluated candidate
{id, parent_id, spec, score, iteration, wall_ms}, and a JSON checkpoint
{population, stats, rng state, counters} written after every completed
iteration. A resumed run replays the interrupted iteration from the
checkpointed rng state, so its history file is byte-identical to an
uninterrupted run (timing is injectable; wall_ms is the only
nondeterministic field under a real clock).

Evaluator contract: a callable taking (spec) or (spec, candidate_id) and
returning a float in [0, 1] or an EvalResult. Exceptions and scores outside
[0, 1] (NaN included) discard the candidate with a logged reason and the
loop continues. An evaluator may also expose
``on_iteration_end(iteration, evaluated)`` to observe each completed
iteration (used for supernet weight write-back).
"""

from __future__ import annotations

import inspect
import json
import logging
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from opnas.search_space import (
    ALL_OPS,
    KERNEL_MENU,
    MAX_PATH_LEN,
    BackboneSpec,
    LayerSpec,
    backbone_from_payload,
    backbone_to_payload,
    mutate_inter,
    mutate_intra,
    random_dag,
)

__all__ = [
    "Candidate",
    "EvalRecord",
    "EvalResult",
    "SearchConfig",
    "UcbStats",
    "CheckpointError",
    "ucb_score",
    "op_distribution",
    "kernel_distribution",
    "record_result",
    "replay_stats",
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
CHECKPOINT_VERSION = 1


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
        if not self.population_size >= self.k >= 1:
            raise ValueError("need population_size >= k >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.children_per_parent < 1 or self.max_iterations < 0:
            raise ValueError("children_per_parent >= 1 and max_iterations >= 0")

    # fields that must match between a checkpoint and a resuming config
    _RESUME_FIELDS = ("population_size", "k", "alpha", "children_per_parent",
                      "seed", "num_layers", "max_path_len")


class CheckpointError(RuntimeError):
    """Checkpoint missing, malformed, or inconsistent with the config."""


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

    @property
    def n_max(self) -> int:
        """Length of the longest attention path recorded so far."""
        return max(self.totals, default=-1) + 1

    def to_json_dict(self) -> dict:
        return {
            "visits": {str(j): dict(v) for j, v in self.visits.items()},
            "sums": {str(j): dict(s) for j, s in self.sums.items()},
            "totals": {str(j): n for j, n in self.totals.items()},
            "kernel_counts": {
                str(li): {str(k): c for k, c in counts.items()}
                for li, counts in self.kernel_counts.items()
            },
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "UcbStats":
        stats = cls()
        stats.visits = {int(j): {op: int(n) for op, n in v.items()}
                        for j, v in d["visits"].items()}
        stats.sums = {int(j): {op: float(s) for op, s in v.items()}
                      for j, v in d["sums"].items()}
        stats.totals = {int(j): int(n) for j, n in d["totals"].items()}
        stats.kernel_counts = {
            int(li): {int(k): int(c) for k, c in counts.items()}
            for li, counts in d["kernel_counts"].items()
        }
        return stats


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


def replay_stats(records: Sequence[EvalRecord]) -> UcbStats:
    """Rebuild the statistics a run would hold after logging ``records``."""
    stats = UcbStats()
    for rec in records:
        cand = Candidate(rec.id, rec.spec, rec.score, rec.parent_id)
        record_result(stats, cand, rec.score)
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
        return {k: 1.0 / len(KERNEL_MENU) for k in KERNEL_MENU}
    return {k: counts.get(k, 0) / total for k in KERNEL_MENU}


# ---------------------------------------------------------------------------
# evaluator plumbing


def _takes_candidate_id(evaluator) -> bool:
    # opt-in by parameter name: a defaulted second arg like rng=None must
    # not silently receive the id
    try:
        sig = inspect.signature(evaluator)
    except (TypeError, ValueError):
        return False
    params = [p for p in sig.parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if len(params) < 2:
        return False
    return params[1].default is inspect.Parameter.empty \
        or params[1].name == "candidate_id"


def _call_evaluator(evaluator, takes_id: bool, spec: BackboneSpec,
                    candidate_id: int) -> EvalResult:
    out = evaluator(spec, candidate_id) if takes_id else evaluator(spec)
    result = out if isinstance(out, EvalResult) else EvalResult(score=float(out))
    if not 0.0 <= result.score <= 1.0:  # NaN fails this too
        raise ValueError(f"score must be in [0, 1], got {result.score}")
    return result


def _timed_eval(evaluator, takes_id, spec, candidate_id, clock):
    t0 = clock()
    result = _call_evaluator(evaluator, takes_id, spec, candidate_id)
    return result, (clock() - t0) * 1000.0


def _pool_eval(evaluator, takes_id, spec, candidate_id):
    # worker-side entry point; always times with the real clock
    try:
        result, wall_ms = _timed_eval(evaluator, takes_id, spec,
                                      candidate_id, time.perf_counter)
        return ("ok", result, wall_ms)
    except Exception as e:  # transported back for logging, never raised here
        return ("error", f"{type(e).__name__}: {e}", 0.0)


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


def _make_child(parent: BackboneSpec, stats: UcbStats, alpha: float,
                guided: bool, rng: random.Random, max_len: int) -> BackboneSpec:
    """Inter-layer mutation followed by one intra-layer edit."""
    spec = mutate_inter(parent, lambda li: kernel_distribution(stats, li), rng, max_len)
    att = [i for i, l in enumerate(spec.layers) if l.kind == "attention"]
    if not att:
        return spec
    li = rng.choice(att)
    if guided:
        dists = lambda j: op_distribution(stats, j, alpha)
    else:
        dists = lambda j: {op: 1.0 / len(ALL_OPS) for op in ALL_OPS}
    dag = mutate_intra(spec.layers[li].dag, dists, rng, max_len)
    layers = list(spec.layers)
    layers[li] = LayerSpec.attention(dag)
    return BackboneSpec(tuple(layers))


def _top(candidates: Sequence[Candidate], count: int) -> list[Candidate]:
    # score desc, then id asc: deterministic under ties
    return sorted(candidates, key=lambda c: (-c.score, c.id))[:count]


class _RunState:
    """Mutable loop state; mirrors exactly what the checkpoint stores."""

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

    def checkpoint_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config": {f: getattr(self.config, f) for f in SearchConfig._RESUME_FIELDS},
            "iteration": self.iteration,
            "next_id": self.next_id,
            "evaluations": self.evaluations,
            "best_score": self.best_score,
            "stale": self.stale,
            "population": [
                {
                    "id": c.id,
                    "parent_id": c.parent_id,
                    "score": c.score,
                    "spec": backbone_to_payload(c.spec),
                }
                for c in self.population
            ],
            "stats": self.stats.to_json_dict(),
            "rng_state": _rng_state_to_json(self.rng.getstate()),
        }

    def load_checkpoint(self, d: Mapping) -> None:
        if d.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {d.get('version')!r}")
        for f in SearchConfig._RESUME_FIELDS:
            want = d["config"].get(f)
            have = getattr(self.config, f)
            if want != have:
                raise CheckpointError(f"config field {f} changed: "
                                      f"checkpoint has {want!r}, run has {have!r}")
        self.iteration = int(d["iteration"])
        self.next_id = int(d["next_id"])
        self.evaluations = int(d["evaluations"])
        self.best_score = None if d["best_score"] is None else float(d["best_score"])
        self.stale = int(d["stale"])
        self.population = [
            Candidate(
                id=int(c["id"]),
                spec=backbone_from_payload(c["spec"]),
                score=float(c["score"]),
                parent_id=None if c["parent_id"] is None else int(c["parent_id"]),
            )
            for c in d["population"]
        ]
        self.stats = UcbStats.from_json_dict(d["stats"])
        self.rng.setstate(_rng_state_from_json(d["rng_state"]))


def _rng_state_to_json(state) -> list:
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(data) -> tuple:
    version, internal, gauss = data
    return (version, tuple(internal), gauss)


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
        if self.dir is None or not self.checkpoint_path.exists():
            raise CheckpointError(f"no checkpoint at {self.checkpoint_path}")
        try:
            payload = json.loads(self.checkpoint_path.read_text())
        except json.JSONDecodeError as e:
            raise CheckpointError(f"malformed checkpoint: {e}") from None
        state.load_checkpoint(payload)
        # drop any history lines from a partially completed iteration
        kept: list[EvalRecord] = []
        if self.history_path.exists():
            for line in self.history_path.read_text().splitlines():
                if not line.strip():
                    continue
                rec = EvalRecord.from_json_dict(json.loads(line))
                if rec.iteration <= state.iteration:
                    kept.append(rec)
            with open(self.history_path, "w") as fh:
                for rec in kept:
                    fh.write(json.dumps(rec.to_json_dict()) + "\n")
        state.history = kept


def _evaluate_batch(candidates, evaluator, takes_id, jobs, clock):
    """Score a batch; returns (scored candidate, payload, wall_ms) in id order.

    Failures are logged and dropped. With jobs > 1 the evaluator runs in a
    process pool, so it must be picklable and deterministic given
    (spec, candidate_id).
    """
    out = []
    if jobs <= 1 or len(candidates) <= 1:
        for cand in candidates:
            try:
                result, wall_ms = _timed_eval(evaluator, takes_id, cand.spec,
                                              cand.id, clock)
            except Exception as e:
                log.warning("candidate %d discarded: %s: %s",
                            cand.id, type(e).__name__, e)
                continue
            out.append((replace(cand, score=result.score), result.payload, wall_ms))
        return out
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_pool_eval, evaluator, takes_id, c.spec, c.id)
                   for c in candidates]
        for cand, fut in zip(candidates, futures):
            t0 = clock()
            status, result, wall_ms = fut.result()
            if clock is not time.perf_counter:
                # an injected clock rules the records even in pool mode, so
                # runs stay reproducible under a constant clock
                wall_ms = (clock() - t0) * 1000.0
            if status != "ok":
                log.warning("candidate %d discarded: %s", cand.id, result)
                continue
            out.append((replace(cand, score=result.score), result.payload, wall_ms))
    return out


def _finish_iteration(state: _RunState, sink: _Sink, evaluator,
                      evaluated, iteration: int) -> None:
    """Apply one iteration's results in candidate-id order, then persist."""
    records = []
    for cand, payload, wall_ms in evaluated:
        records.append(EvalRecord(cand.id, cand.parent_id, cand.spec,
                                  cand.score, iteration, wall_ms))
        record_result(state.stats, cand, cand.score)
        state.evaluations += 1
    state.history.extend(records)
    scored = [c for c, _, _ in evaluated]
    pool = state.population + scored
    state.population = _top(pool, state.config.population_size)
    hook = getattr(evaluator, "on_iteration_end", None)
    if hook is not None:
        hook(iteration, [(c, p) for c, p, _ in evaluated])
    state.iteration = iteration
    best = state.population[0].score if state.population else None
    if best is not None and (state.best_score is None or best > state.best_score):
        state.best_score = best
        state.stale = 0
    else:
        state.stale += 1
    sink.append_history(records)
    sink.write_checkpoint(state)


def _budget_left(state: _RunState) -> int | None:
    budget = state.config.max_evaluations
    if budget is None:
        return None
    return max(budget - state.evaluations, 0)


def _evolve(config: SearchConfig, evaluator, guided: bool,
            out_dir=None, resume: bool = False, clock=None) -> list[EvalRecord]:
    clock = clock or time.perf_counter
    takes_id = _takes_candidate_id(evaluator)
    state = _RunState(config)
    sink = _Sink(out_dir)
    if resume:
        sink.load_for_resume(state)
    if state.iteration < 0:
        count = config.population_size
        left = _budget_left(state)
        if left is not None:
            count = min(count, left)
        seeds = [Candidate(id=state.next_id + i,
                           spec=_random_backbone(state.rng, config.num_layers,
                                                 config.max_path_len))
                 for i in range(count)]
        state.next_id += count
        evaluated = _evaluate_batch(seeds, evaluator, takes_id, config.jobs, clock)
        if not evaluated:
            raise RuntimeError("every seed candidate failed evaluation")
        _finish_iteration(state, sink, evaluator, evaluated, iteration=0)

    while state.iteration < config.max_iterations:
        left = _budget_left(state)
        if left == 0 or state.stale >= config.patience or not state.population:
            break
        parents = _top(state.population, config.k)
        allowed = config.k * config.children_per_parent
        if left is not None:
            allowed = min(allowed, left)
        children = []
        for parent in parents:
            for _ in range(config.children_per_parent):
                if len(children) >= allowed:
                    break
                spec = _make_child(parent.spec, state.stats, config.alpha,
                                   guided, state.rng, config.max_path_len)
                children.append(Candidate(id=state.next_id, spec=spec,
                                          parent_id=parent.id))
                state.next_id += 1
        if not children:
            break
        evaluated = _evaluate_batch(children, evaluator, takes_id, config.jobs, clock)
        _finish_iteration(state, sink, evaluator, evaluated,
                          iteration=state.iteration + 1)
    return state.history


def search(config: SearchConfig, evaluator, out_dir=None,
           resume: bool = False, clock=None) -> list[EvalRecord]:
    """Operation-priority search: UCB-guided intra-layer mutation."""
    return _evolve(config, evaluator, guided=True,
                   out_dir=out_dir, resume=resume, clock=clock)


def vanilla_ea(config: SearchConfig, evaluator, out_dir=None,
               resume: bool = False, clock=None) -> list[EvalRecord]:
    """Same loop as search() but mutation ops are drawn uniformly."""
    return _evolve(config, evaluator, guided=False,
                   out_dir=out_dir, resume=resume, clock=clock)


def random_search(config: SearchConfig, evaluator, out_dir=None,
                  resume: bool = False, clock=None) -> list[EvalRecord]:
    """Independent random specs, batched population_size per iteration.

    History length equals the evaluation budget (max_evaluations if set,
    otherwise the same nominal budget the evolved runs get).
    """
    clock = clock or time.perf_counter
    takes_id = _takes_candidate_id(evaluator)
    budget = config.max_evaluations
    if budget is None:
        budget = (config.population_size
                  + config.max_iterations * config.k * config.children_per_parent)
    state = _RunState(config)
    sink = _Sink(out_dir)
    if resume:
        sink.load_for_resume(state)
    iteration = state.iteration
    empty_batches = 0
    while state.evaluations < budget:
        iteration += 1
        count = min(config.population_size, budget - state.evaluations)
        batch = [Candidate(id=state.next_id + i,
                           spec=_random_backbone(state.rng, config.num_layers,
                                                 config.max_path_len))
                 for i in range(count)]
        state.next_id += count
        evaluated = _evaluate_batch(batch, evaluator, takes_id, config.jobs, clock)
        empty_batches = 0 if evaluated else empty_batches + 1
        if empty_batches >= 3:
            raise RuntimeError("evaluator failed three whole batches in a row")
        _finish_iteration(state, sink, evaluator, evaluated, iteration=iteration)
    return state.history


def read_history(path: str | Path) -> list[EvalRecord]:
    """Parse a history JSONL file back into records."""
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(EvalRecord.from_json_dict(json.loads(line)))
    return records
