"""The benchmark's four workloads, driven through opnas's public API.

Each workload runs in units, and every unit of a run repeats the same work:
``train`` trains and scores its four backbones, the search workloads run one
complete search per strategy into a fresh run directory, as ``opnas search``
writes it. A run's metrics therefore do not depend on how many units its
time box admitted, and the units' outputs must match byte for byte. All
loops are closed: one candidate starts when the previous one returns.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def zero_clock() -> float:
    """The clock ``opnas search`` passes, so history bytes are comparable."""
    return 0.0


def synthetic_fitness(spec) -> float:
    """The README's synthetic landscape: share of add/softsign nodes."""
    per_layer = [
        sum(n.op in ("add", "softsign") for n in layer.dag.nodes) / len(layer.dag.nodes)
        if layer.kind == "attention" else 0.0
        for layer in spec.layers
    ]
    return sum(per_layer) / len(per_layer)


@dataclass
class UnitResult:
    start: float
    end: float
    attempted: int
    recorded: int
    candidate_s: list[float] = field(default_factory=list)
    # the unit's wall time cut at every candidate start and end and every
    # iteration end (pool: iteration ends only); equal positions repeat the
    # same work in every unit of a run
    pieces: list[float] = field(default_factory=list)
    # each iteration as a [lo, hi) range of pieces
    iterations: list[tuple[int, int]] = field(default_factory=list)
    # compared between repeats of a unit: history bytes per strategy, or
    # per-backbone (losses, score, uniformity) for train
    outputs: dict = field(default_factory=dict)
    # facts the checks and per-layer metrics read (paths, counts, scores)
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class LossLog:
    """Wraps ``mlm_pretrain`` to keep each call's last loss and finiteness."""

    def __init__(self, training_diverged):
        self.diverged_type = training_diverged
        self.tag = None
        self.entries: list[tuple[object, float, bool]] = []  # (tag, last, finite)

    def wrap(self, fn):
        def mlm_pretrain(*args, **kwargs):
            try:
                model, losses = fn(*args, **kwargs)
            except self.diverged_type:
                self.entries.append((self.tag, math.nan, False))
                raise
            self.entries.append((self.tag, losses[-1], all(map(math.isfinite, losses))))
            return model, losses

        return mlm_pretrain

    def for_tag(self, tag) -> list[tuple[float, bool]]:
        return [(last, ok) for t, last, ok in self.entries if t == tag]


class TimedEvaluator:
    """Search evaluator wrapper: times each call and each iteration hook.

    In the harness process calls are kept in memory; in a pool worker each
    call appends one ``start end`` line to ``<worker_dir>/<pid>.txt`` (the
    perf_counter clock is system-wide, so worker times share the parent's
    time line). The tracer and the in-memory records are not pickled, so a
    pool submit carries the wrapped evaluator and two small fields.
    """

    def __init__(self, inner, takes_id: bool, worker_dir: Path, tracer=None):
        self.inner = inner
        self.takes_id = takes_id
        self.worker_dir = worker_dir
        self.tracer = tracer
        self.owner = os.getpid()
        self.calls: list[tuple[float, float]] = []
        self.hook_ends: list[float] = []

    def __getstate__(self):
        state = dict(self.__dict__)
        state.update(tracer=None, calls=[], hook_ends=[])
        return state

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def __call__(self, spec, candidate_id):
        t0 = time.perf_counter()
        try:
            with self._span("bench.candidate"):
                if self.takes_id:
                    return self.inner(spec, candidate_id)
                return self.inner(spec)
        finally:
            t1 = time.perf_counter()
            if os.getpid() == self.owner:
                self.calls.append((t0, t1))
            else:
                with open(self.worker_dir / f"{os.getpid()}.txt", "a") as fh:
                    fh.write(f"{t0!r} {t1!r}\n")

    def on_iteration_end(self, iteration, evaluated):
        hook = getattr(self.inner, "on_iteration_end", None)
        with self._span("bench.hook"):
            if hook is not None:
                hook(iteration, evaluated)
        self.hook_ends.append(time.perf_counter())


def _read_worker_calls(worker_dir: Path) -> list[tuple[float, float]]:
    """Collect and remove the per-worker span files of finished pools."""
    calls = []
    for path in sorted(worker_dir.glob("*.txt")):
        for line in path.read_text().splitlines():
            t0, t1 = line.split()
            calls.append((float(t0), float(t1)))
        path.unlink()
    return sorted(calls)


def _intervals(start: float, ends: list[float]) -> list[float]:
    marks = [start] + ends
    return [b - a for a, b in zip(marks, marks[1:])]


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    batch = 0
    seq_len = 0

    def __init__(self, opnas: dict, seed: int, tiny: bool, work: Path):
        self.opnas = opnas
        self.seed = seed
        self.work = work
        self.worker_dir = work / "workers"
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = None
        self._dirs = 0

    def run_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"unit{self._dirs}"

    def setup(self) -> None:
        """Build the shared inputs; timed as set-up, repeated to take a median."""

    def unit(self, jobs: int | None = None, keep: bool = False) -> UnitResult:
        """Run one unit; ``keep`` retains the objects ``layer_facts`` reads."""
        raise NotImplementedError

    def reference(self, units: list[UnitResult]) -> UnitResult | None:
        """An untimed extra unit when the checks need one: a second repeat
        when the time box admitted a single unit."""
        return None if len(units) > 1 else self.unit()

    def checks(self, units: list[UnitResult], losses: LossLog) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def layer_facts(self, first: UnitResult) -> dict[str, float]:
        return {}


class Train(Workload):
    """Both bundled backbones from scratch at two depths, then scored."""

    name = "train"

    def __init__(self, opnas, seed, tiny, work):
        super().__init__(opnas, seed, tiny, work)
        m = opnas["model"]
        if tiny:
            self.depths, d, heads, self.vocab, self.seq_len = (2, 4), 16, 2, 16, 8
            self.corpus_size, self.steps, self.batch = 24, 2, 2
        else:
            self.depths, d, heads, self.vocab, self.seq_len = (4, 12), 64, 4, 64, 32
            self.corpus_size, self.steps, self.batch = 512, 5, 8
        self.optim = m.OptimConfig(batch_size=self.batch)
        self.configs = {L: m.ModelConfig(num_layers=L, d_model=d, n_heads=heads,
                                         vocab=self.vocab, seq_len=self.seq_len)
                        for L in self.depths}
        self.corpus = None
        self.plan = []

    def setup(self):
        m, ss = self.opnas["model"], self.opnas["search_space"]
        self.corpus = m.synth_corpus(seed=self.seed, size=self.corpus_size,
                                     vocab=self.vocab, seq_len=self.seq_len)
        self.plan = [(arch, L, build(L)) for L in self.depths
                     for arch, build in (("autobert-zero", ss.autobert_zero_backbone),
                                         ("standard-attention", ss.standard_backbone))]
        _, L, spec = self.plan[0]
        m.build_model(spec, self.configs[L], rng=np.random.default_rng([self.seed, 0]))

    def unit(self, jobs=None, keep=False):
        # per backbone, the calls opnas eval and opnas metrics make
        m, metrics = self.opnas["model"], self.opnas["metrics"]
        outputs, times, ends = {}, [], []
        start = time.perf_counter()
        for j, (arch, L, spec) in enumerate(self.plan):
            t0 = time.perf_counter()
            rng = np.random.default_rng([self.seed, j])
            try:
                model = m.build_model(spec, self.configs[L], rng=rng)
                model, losses = m.mlm_pretrain(model, self.corpus, self.steps, self.optim, rng)
            except m.TrainingDiverged:
                continue
            score = m.proxy_evaluate(model, self.corpus.heldout).value
            row = metrics.uniformity_report([(arch, model)], self.corpus.heldout)[0]
            ends.append(time.perf_counter())
            times.append(ends[-1] - t0)
            outputs[f"{arch}-L{L}"] = (tuple(losses), score, row["cosine"], row["residual"])
        end = time.perf_counter()
        # the unit is train's one iteration
        return UnitResult(start, end, attempted=len(self.plan), recorded=len(outputs),
                          candidate_s=times, pieces=_intervals(start, ends + [end]),
                          iterations=[(0, len(ends) + 1)], outputs=outputs)

    def checks(self, units, losses):
        rows = [row for r in units for row in r.outputs.values()]
        return [
            ("losses_finite", all(all(map(math.isfinite, row[0])) for row in rows),
             f"{sum(len(row[0]) for row in rows)} losses"),
            ("scores_in_unit_interval", all(0.0 <= row[1] <= 1.0 for row in rows),
             f"{len(rows)} proxy scores"),
            ("uniformity_in_range",
             all(-1.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0 for row in rows),
             "cosine in [-1, 1], residual in [0, 1]"),
            ("all_backbones_trained", all(r.recorded == r.attempted for r in units),
             f"{len(self.plan)} backbones per unit"),
            ("units_repeat_exactly", all(r.outputs == units[0].outputs for r in units),
             f"{len(units)} units: losses, scores and uniformity"),
        ]


class _Search(Workload):
    """Run-directory bookkeeping shared by the search workloads."""

    budget = 0

    def _search(self, algo, cfg, evaluator, takes_id: bool, out: Path):
        """One search as ``opnas search`` runs it.

        Returns the wrapper, the candidate times, the search's wall time cut
        into pieces, and each iteration's range of those pieces.
        """
        ev = TimedEvaluator(evaluator, takes_id, self.worker_dir, self.tracer)
        start = time.perf_counter()
        if self.tracer:
            with self.tracer.span("evolution.search"):
                algo(cfg, ev, out_dir=out, clock=zero_clock)
        else:
            algo(cfg, ev, out_dir=out, clock=zero_clock)
        end = time.perf_counter()
        if cfg.jobs <= 1:
            calls = ev.calls
            marks = sorted([t for call in calls for t in call] + ev.hook_ends)
        else:
            calls = _read_worker_calls(self.worker_dir)
            marks = list(ev.hook_ends)
        hooks = set(ev.hook_ends)
        cuts = [i + 1 for i, t in enumerate(marks) if t in hooks]
        return (ev, [b - a for a, b in calls], _intervals(start, marks + [end]),
                list(zip([0] + cuts, cuts)))

    def _history_facts(self, out: Path) -> tuple[dict, bytes]:
        ev = self.opnas["evolution"]
        history = (out / ev.HISTORY_FILE).read_bytes()
        checkpoint = json.loads((out / ev.CHECKPOINT_FILE).read_text())
        records = ev.read_history(out / ev.HISTORY_FILE)
        return {
            "dir": out,
            "history_bytes": len(history),
            "checkpoint_bytes": (out / ev.CHECKPOINT_FILE).stat().st_size,
            "records": len(records),
            "next_id": int(checkpoint["next_id"]),
            "scores_ok": all(0.0 <= r.score <= 1.0 for r in records),
            "iterations": len({r.iteration for r in records}),
        }, history

    def checks(self, units, losses):
        facts = [f for r in units for f in r.facts["searches"].values()]
        return [
            ("records_equal_budget", all(f["records"] == self.budget for f in facts),
             f"{len(facts)} searches x {self.budget} history records"),
            ("ids_issued_equal_budget", all(f["next_id"] == self.budget for f in facts),
             "checkpoint next_id"),
            ("scores_in_unit_interval", all(f["scores_ok"] for f in facts),
             "every history score"),
            ("history_repeats_for_seed", all(r.outputs == units[0].outputs for r in units),
             f"{len(units)} units, history bytes of every strategy"),
        ]

    def layer_facts(self, first):
        ev, ss = self.opnas["evolution"], self.opnas["search_space"]
        searches = list(first.facts["searches"].values())
        records = [r for f in searches for r in ev.read_history(f["dir"] / ev.HISTORY_FILE)]
        # search_space's own binding: evolution's may still be traced
        specs = [json.dumps(ss.backbone_to_payload(r.spec), sort_keys=True) for r in records]
        # what one pool submit carries besides the function reference
        submit = (first.facts["wrapped"], True, records[0].spec, 0)
        return {
            "evolution.history_bytes_per_candidate":
                sum(f["history_bytes"] for f in searches) / len(records),
            "evolution.checkpoint_bytes":
                sum(f["checkpoint_bytes"] for f in searches) / len(searches),
            "evolution.duplicate_ratio": (len(specs) - len(set(specs))) / len(specs),
            "evolution.pool_submit_bytes": float(len(pickle.dumps(submit))),
        }


class SearchSynthetic(_Search):
    """search, vanilla_ea and random_search on the README synthetic fitness."""

    name = "search-synthetic"

    def __init__(self, opnas, seed, tiny, work):
        super().__init__(opnas, seed, tiny, work)
        if tiny:
            self.layers, self.pop, self.k, self.cpp, self.max_len = 2, 4, 2, 1, 4
            self.budget = 8
        else:
            self.layers, self.pop, self.k, self.cpp, self.max_len = 12, 20, 5, 2, 12
            self.budget = 320

    def setup(self):
        # patience and max_iterations never bind: the evaluation budget ends
        # every search, so each writes exactly ``budget`` records
        self.config = self.opnas["evolution"].SearchConfig(
            population_size=self.pop, k=self.k, children_per_parent=self.cpp,
            num_layers=self.layers, max_path_len=self.max_len,
            max_evaluations=self.budget, max_iterations=self.budget,
            patience=self.budget, seed=self.seed, jobs=1)

    def unit(self, jobs=None, keep=False):
        ev = self.opnas["evolution"]
        result = UnitResult(time.perf_counter(), 0.0, 0, 0)
        dirs = {}
        for name, algo in (("op", ev.search), ("ea", ev.vanilla_ea),
                           ("rs", ev.random_search)):
            dirs[name] = self.run_dir()
            wrapped, cand, pieces, iters = self._search(algo, self.config,
                                                        synthetic_fitness, False, dirs[name])
            n = len(result.pieces)
            result.candidate_s += cand
            result.iterations += [(lo + n, hi + n) for lo, hi in iters]
            result.pieces += pieces
            if keep and name == "op":
                result.facts["wrapped"] = wrapped
        result.end = time.perf_counter()
        result.facts["searches"] = {}
        for name, out in dirs.items():
            facts, history = self._history_facts(out)
            result.facts["searches"][name] = facts
            result.outputs[name] = history
            result.attempted += facts["next_id"]
            result.recorded += facts["records"]
        return result


class SearchBiws(_Search):
    """OP-NAS search scored by BiwsEvaluator, supernet saved every iteration."""

    name = "search-biws"
    jobs = 1
    # The architecture sequence is fixed: at a few fine-tune steps the proxy
    # scores are nearly all tied, so the search seed alone decides which
    # backbones get trained, and their cost differs up to 2x. Every run
    # trains the sequence of this search seed; the run's seed picks the
    # corpus, the supernet initialization and the training streams.
    search_seed = 0

    def __init__(self, opnas, seed, tiny, work):
        super().__init__(opnas, seed, tiny, work)
        m = opnas["model"]
        if tiny:
            L, d, heads, self.vocab, self.seq_len = 2, 16, 2, 16, 8
            self.corpus_size, self.steps, self.batch = 16, 1, 2
            self.pop, self.k, self.cpp, self.budget = 4, 2, 1, 6
        else:
            L, d, heads, self.vocab, self.seq_len = 12, 64, 4, 64, 32
            self.corpus_size, self.steps, self.batch = 128, 2, 8
            # the CLI's 5 parents x 2 children per iteration, from a seed
            # population of 10 rather than 20, so that one run repeats the
            # search several times: 20 evaluations are two iterations
            self.pop, self.k, self.cpp, self.budget = 10, 5, 2, 20
        self.config = m.ModelConfig(num_layers=L, d_model=d, n_heads=heads,
                                    vocab=self.vocab, seq_len=self.seq_len)
        self.optim = m.OptimConfig(batch_size=self.batch)
        self.corpus = None

    def _search_config(self, jobs: int):
        return self.opnas["evolution"].SearchConfig(
            population_size=self.pop, k=self.k, children_per_parent=self.cpp,
            num_layers=self.config.num_layers, max_evaluations=self.budget,
            max_iterations=self.budget, patience=self.budget,
            seed=self.search_seed, jobs=jobs)

    def setup(self):
        m, sn_mod, ss = self.opnas["model"], self.opnas["supernet"], self.opnas["search_space"]
        self.corpus = m.synth_corpus(seed=self.seed, size=self.corpus_size,
                                     vocab=self.vocab, seq_len=self.seq_len)
        supernet = sn_mod.init_supernet(self.config, self.seed)
        out = self.work / "setup"
        out.mkdir(parents=True, exist_ok=True)
        supernet.save(out / "sn.npz")
        spec = ss.autobert_zero_backbone(self.config.num_layers)
        m.build_model(spec, self.config, params=sn_mod.init_candidate(supernet, spec))

    def unit(self, jobs=None, keep=False):
        # what opnas search --biws does with a fresh supernet checkpoint
        sn_mod = self.opnas["supernet"]
        jobs = self.jobs if jobs is None else jobs
        start = time.perf_counter()
        out = self.run_dir()
        out.mkdir(parents=True)
        sn_path = out / "sn.npz"
        supernet = sn_mod.init_supernet(self.config, self.seed)
        supernet.save(sn_path)
        evaluator = sn_mod.BiwsEvaluator(supernet, self.corpus, steps=self.steps,
                                         optim=self.optim, seed=self.seed,
                                         save_path=sn_path)
        searched = time.perf_counter()
        wrapped, cand, pieces, iters = self._search(
            self.opnas["evolution"].search, self._search_config(jobs), evaluator, True, out)
        end = time.perf_counter()
        facts, history = self._history_facts(out)
        loaded = sn_mod.Supernet.load(sn_path)
        result = UnitResult(start, end, attempted=facts["next_id"],
                            recorded=facts["records"], candidate_s=cand,
                            pieces=[searched - start] + pieces,
                            iterations=[(lo + 1, hi + 1) for lo, hi in iters],
                            outputs={"op": history})
        result.facts.update(
            searches={"op": facts},
            versions_ok=loaded.versions == [facts["iterations"]] * self.config.num_layers,
            reload_ok=(loaded.keys() == supernet.keys() and all(
                np.array_equal(loaded.store[k], supernet.store[k]) for k in supernet.keys())),
            save_bytes=sn_path.stat().st_size,
        )
        if keep:
            result.facts.update(wrapped=wrapped, supernet=supernet)
        return result

    def checks(self, units, losses):
        trained = [ok for _, _, ok in losses.entries]
        return super().checks(units, losses) + [
            ("losses_finite", bool(trained) and all(trained),
             f"{len(trained)} fine-tunes in this process"),
            ("supernet_reloads", all(r.facts["reload_ok"] for r in units),
             "Supernet.load(sn.npz) equals the in-memory store"),
            ("one_write_back_per_iteration", all(r.facts["versions_ok"] for r in units),
             "every layer version equals the iterations in the history"),
        ]

    def layer_facts(self, first):
        facts = super().layer_facts(first)
        facts["supernet.save_bytes"] = float(first.facts["save_bytes"])
        facts["supernet.pickle_bytes"] = float(len(pickle.dumps(first.facts["supernet"])))
        return facts


class SearchBiwsPool(SearchBiws):
    """search-biws with a two-worker process pool and default BLAS threading."""

    name = "search-biws-pool"
    jobs = 2

    def reference(self, units):
        # the serial run of the same inputs, which the pool must reproduce
        return self.unit(jobs=1)

    def checks(self, units, losses):
        serial = units[-1]
        return super().checks(units[:-1], losses) + [
            ("pool_history_equals_serial", serial.outputs == units[0].outputs,
             "jobs=2 history against a jobs=1 run, byte for byte"),
        ]


WORKLOADS = {w.name: w for w in (Train, SearchSynthetic, SearchBiws, SearchBiwsPool)}
