"""Selection arithmetic, history bookkeeping, and loop behavior."""

import ctypes
import json
import logging
import math
import os
import random
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opnas import evolution
from opnas import search_space as S
from opnas.cli import main
from opnas.evolution import (
    Candidate,
    CheckpointError,
    EvalRecord,
    EvalResult,
    EvaluationFailed,
    SearchConfig,
    UcbStats,
    kernel_distribution,
    op_distribution,
    random_search,
    read_history,
    record_result,
    search,
    ucb_score,
    vanilla_ea,
    _top,
)

STRATEGIES = (search, vanilla_ea, random_search)


def node_fraction_fitness(spec, candidate_id=None, wanted=("add", "softsign")):
    """Deterministic toy fitness: fraction of dag nodes using wanted ops."""
    total = hits = 0
    for layer in spec.layers:
        if layer.kind != "attention":
            continue
        for node in layer.dag.nodes:
            total += 1
            hits += node.op in wanted
    return hits / total if total else 0.0


def tiny_search_config(**overrides):
    base = dict(population_size=6, k=2, alpha=0.5, max_iterations=3,
                children_per_parent=2, seed=0, num_layers=2, max_path_len=6)
    base.update(overrides)
    return SearchConfig(**base)


def stats_from(pairs):
    """pairs: (spec, score) applied through the public recording API."""
    stats = UcbStats()
    for i, (spec, score) in enumerate(pairs):
        record_result(stats, EvalRecord(i, None, spec, score, 0, 0.0))
    return stats


def always_fails(spec, candidate_id):
    raise RuntimeError("synthetic failure")


class Crash(BaseException):
    """Stands in for a kill: the loop discards Exceptions, not this."""


def crash_at(crash_id, fitness=node_fraction_fitness):
    """Evaluator that scores with ``fitness`` until it reaches ``crash_id``."""
    def evaluator(spec, candidate_id):
        if candidate_id == crash_id:
            raise Crash()
        return fitness(spec, candidate_id)
    return evaluator


def single_op_spec(op, args=("q",)):
    if op in ("add", "matmul", "cosine", "euclidean"):
        dag = S.standard_attention_dag()
    else:
        dag = S.AttentionDag(inputs=("q", "k"), nodes=(S.DagNode(op, args),))
    return S.BackboneSpec((S.LayerSpec.attention(dag),))


# ---------------------------------------------------------------------------
# UCB arithmetic


def test_ucb_pinned_value():
    # mu = 0.5, alpha = 1, N = 8, N_i = 2 -> 0.5 + sqrt(ln 8)
    stats = UcbStats()
    stats.totals[0] = 8
    stats.visits[0] = {"neg": 2}
    stats.sums[0] = {"neg": 1.0}
    got = ucb_score(stats, 0, "neg", alpha=1.0)
    assert abs(got - (0.5 + math.sqrt(math.log(8)))) < 1e-12
    assert abs(got - 1.942026886600883) < 1e-9


def test_ucb_matches_oracle_on_random_tuples(rng):
    for _ in range(100):
        total = int(rng.integers(1, 500))
        n_i = int(rng.integers(1, total + 1))
        s = float(rng.random() * n_i)
        alpha = float(rng.random() * 2)
        stats = UcbStats()
        stats.totals[3] = total
        stats.visits[3] = {"scale": n_i}
        stats.sums[3] = {"scale": s}
        want = oracles.ucb(s / n_i, total, n_i, alpha)
        got = ucb_score(stats, 3, "scale", alpha)
        assert abs(got - want) < 1e-6


def test_alpha_zero_reduces_to_mean():
    stats = UcbStats()
    stats.totals[1] = 40
    stats.visits[1] = {"softmax": 5}
    stats.sums[1] = {"softmax": 2.0}
    assert ucb_score(stats, 1, "softmax", alpha=0.0) == pytest.approx(0.4, abs=1e-12)


def test_unseen_op_is_infinite():
    stats = UcbStats()
    stats.totals[0] = 10
    stats.visits[0] = {"neg": 10}
    stats.sums[0] = {"neg": 5.0}
    assert math.isinf(ucb_score(stats, 0, "transpose", alpha=0.5))
    assert math.isinf(ucb_score(stats, 7, "neg", alpha=0.5))


def test_distribution_sums_to_one():
    r = random.Random(0)
    pairs = [(S.BackboneSpec((S.LayerSpec.attention(S.random_dag(r)),)), r.random())
             for _ in range(30)]
    stats = stats_from(pairs)
    for pos in stats.totals:
        dist = op_distribution(stats, pos, alpha=0.5)
        assert abs(sum(dist.values()) - 1.0) < 1e-9
        assert all(p >= 0 for p in dist.values())


def test_all_unseen_gives_uniform():
    dist = op_distribution(UcbStats(), 0, alpha=0.5)
    assert all(abs(p - 0.1) < 1e-12 for p in dist.values())
    assert len(dist) == len(S.ALL_OPS)


def test_partially_unseen_splits_among_unseen():
    stats = stats_from([(single_op_spec("neg"), 0.9)])
    dist = op_distribution(stats, 0, alpha=0.5)
    unseen = [op for op in S.ALL_OPS if op != "neg"]
    for op in unseen:
        assert dist[op] == pytest.approx(1.0 / len(unseen))
    assert dist["neg"] == 0.0


def test_seen_ops_softmax_matches_oracle():
    # two ops observed at position 0 with different means
    specs = [
        (single_op_spec("neg"), 0.2),
        (single_op_spec("neg"), 0.4),
        (single_op_spec("logsigmoid"), 0.9),
    ]
    stats = stats_from(specs)
    # remaining ops must be seen too, else the unseen rule takes over
    for op in S.ALL_OPS:
        if op not in ("neg", "logsigmoid"):
            stats.visits[0][op] = 1
            stats.sums[0][op] = 0.1
            stats.totals[0] += 1
    alpha = 0.3
    scores = [ucb_score(stats, 0, op, alpha) for op in S.ALL_OPS]
    want = oracles.softmax_probs(scores)
    dist = op_distribution(stats, 0, alpha)
    got = np.array([dist[op] for op in S.ALL_OPS])
    assert np.allclose(got, want, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(extra=st.floats(0.01, 0.5), alpha=st.floats(0.0, 2.0))
def test_higher_mean_never_lowers_probability(extra, alpha):
    base = [(single_op_spec("neg"), 0.4), (single_op_spec("transpose"), 0.4)]
    lifted = [(single_op_spec("neg"), 0.4), (single_op_spec("transpose"),
                                             min(1.0, 0.4 + extra))]
    for op in S.ALL_OPS:
        base.append((single_op_spec(op) if op not in ("add", "matmul", "cosine",
                                                      "euclidean")
                     else single_op_spec(op), 0.3))
    # make both stat sets cover every op at position 0
    sa = stats_from(base)
    sb = stats_from(lifted + base[2:])
    if any(math.isinf(ucb_score(sa, 0, op, alpha)) for op in S.ALL_OPS):
        return
    pa = op_distribution(sa, 0, alpha)["transpose"]
    pb = op_distribution(sb, 0, alpha)["transpose"]
    assert pb >= pa - 1e-12


def test_kernel_distribution_uniform_then_empirical():
    stats = UcbStats()
    uniform = kernel_distribution(stats, 0)
    assert all(abs(p - 1 / len(S.KERNEL_MENU)) < 1e-12 for p in uniform.values())

    conv_spec = S.BackboneSpec((S.LayerSpec.conv(9),))
    for i in range(3):
        record_result(stats, EvalRecord(i, None, conv_spec, 0.5, 0, 0.0))
    record_result(stats, EvalRecord(3, None, S.BackboneSpec((S.LayerSpec.conv(65),)),
                                    0.5, 0, 0.0))
    dist = kernel_distribution(stats, 0)
    assert dist[9] == pytest.approx(0.75)
    assert dist[65] == pytest.approx(0.25)
    assert dist[3] == 0.0


def test_record_result_rejects_out_of_range():
    stats = UcbStats()
    for score in (1.5, -0.1, math.nan):
        rec = EvalRecord(0, None, S.standard_backbone(1), score, 0, 0.0)
        with pytest.raises(ValueError, match="score must be in"):
            record_result(stats, rec)
    assert stats.totals == {}


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(population_size=2, k=5)
    with pytest.raises(ValueError):
        SearchConfig(k=0)
    with pytest.raises(ValueError):
        SearchConfig(alpha=-0.1)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            SearchConfig(alpha=alpha)
    with pytest.raises(ValueError):
        SearchConfig(jobs=0)
    for field, value, low in (("max_evaluations", 0, 1), ("max_evaluations", -3, 1),
                              ("patience", -1, 0)):
        with pytest.raises(ValueError, match=f"^{field} must be >= {low}, got {value}$"):
            SearchConfig(**{field: value})
    assert SearchConfig(max_evaluations=1, patience=0).max_evaluations == 1


@pytest.mark.parametrize("field,value", [("k", 1.5), ("k", True), ("population_size", 4.0),
                                         ("jobs", 1.5), ("patience", 0.5),
                                         ("max_iterations", "2"), ("seed", True),
                                         ("max_evaluations", 2.0), ("alpha", True),
                                         ("alpha", "0.5")])
def test_config_refuses_a_value_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be (int|float)"):
        SearchConfig(**{field: value})


def test_config_takes_numpy_integers_and_integral_alpha():
    cfg = SearchConfig(population_size=np.int64(4), k=np.int32(2), alpha=1, seed=np.uint8(3))
    assert (cfg.k, cfg.alpha, cfg.seed) == (2, 1, 3)


@pytest.mark.parametrize("max_path_len", [0, 13])
def test_max_path_len_outside_what_a_spec_may_hold_is_refused(max_path_len):
    with pytest.raises(ValueError, match=r"max_path_len must be in 1\.\.12"):
        SearchConfig(max_path_len=max_path_len)


# ---------------------------------------------------------------------------
# the three loops


def test_search_is_deterministic(tmp_path):
    cfg = tiny_search_config()
    a = search(cfg, node_fraction_fitness, out_dir=tmp_path / "a")
    b = search(cfg, node_fraction_fitness, out_dir=tmp_path / "b")
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    assert (tmp_path / "a" / "history.jsonl").read_bytes() == \
        (tmp_path / "b" / "history.jsonl").read_bytes()


def test_history_file_matches_returned_records(tmp_path):
    cfg = tiny_search_config()
    records = search(cfg, node_fraction_fitness, out_dir=tmp_path)
    on_disk = read_history(tmp_path / "history.jsonl")
    assert [r.to_json_dict() for r in on_disk] == [r.to_json_dict() for r in records]


def test_history_ids_sequential_and_specs_valid(tmp_path):
    cfg = tiny_search_config()
    records = search(cfg, node_fraction_fitness, out_dir=tmp_path)
    assert [r.id for r in records] == list(range(len(records)))
    for rec in records:
        for layer in rec.spec.layers:
            if layer.kind == "attention":
                ok, reason = S.validate(layer.dag)
                assert ok, reason


def test_children_track_parents(tmp_path):
    cfg = tiny_search_config()
    records = search(cfg, node_fraction_fitness, out_dir=tmp_path)
    seeds = [r for r in records if r.iteration == 0]
    children = [r for r in records if r.iteration > 0]
    assert all(r.parent_id is None for r in seeds)
    ids = {r.id for r in records}
    assert children
    for child in children:
        assert child.parent_id in ids
        assert child.parent_id < child.id


def test_guided_and_vanilla_diverge(tmp_path):
    cfg = tiny_search_config(max_iterations=5)
    a = search(cfg, node_fraction_fitness)
    b = vanilla_ea(cfg, node_fraction_fitness)
    assert [r.spec for r in a] != [r.spec for r in b]


def test_random_search_budget_and_parents():
    cfg = tiny_search_config(max_iterations=4)
    records = random_search(cfg, node_fraction_fitness)
    budget = cfg.population_size + cfg.max_iterations * cfg.k * cfg.children_per_parent
    assert len(records) == budget
    assert all(r.parent_id is None for r in records)
    assert [r.id for r in records] == list(range(budget))
    # a seed batch, then the evolved strategies' batch shape
    sizes = np.bincount([r.iteration for r in records]).tolist()
    assert sizes == [cfg.population_size] + [cfg.k * cfg.children_per_parent] * 4


def test_max_evaluations_caps_all_algorithms(tmp_path):
    cfg = tiny_search_config(max_iterations=50, max_evaluations=17)
    for algo in STRATEGIES:
        out = tmp_path / algo.__name__
        records = algo(cfg, node_fraction_fitness, out_dir=out)
        assert len(records) == 17, algo.__name__
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["next_id"] == checkpoint["evaluations"] == 17, algo.__name__


def test_evaluator_receiving_candidate_id():
    seen = []

    def fitness(spec, candidate_id):
        seen.append(candidate_id)
        return node_fraction_fitness(spec)

    cfg = tiny_search_config(max_iterations=1)
    records = search(cfg, fitness)
    assert seen == [r.id for r in records]


def test_defaulted_second_parameter_receives_the_candidate_id():
    # the loop has one call shape: whatever the second parameter is named
    # or defaults to, it is handed the id
    seen = []

    def fitness(spec, rng=None):
        seen.append(rng)
        return node_fraction_fitness(spec)

    cfg = tiny_search_config(max_iterations=1)
    records = search(cfg, fitness)
    assert seen == [r.id for r in records] == list(range(len(records)))


def test_eval_result_payload_accepted():
    def fitness(spec, candidate_id):
        return EvalResult(score=node_fraction_fitness(spec), payload={"x": 1})

    cfg = tiny_search_config(max_iterations=1)
    records = search(cfg, fitness)
    assert all(0 <= r.score <= 1 for r in records)


def test_failing_candidates_are_discarded(tmp_path):
    calls = []

    def flaky(spec, candidate_id):
        calls.append(candidate_id)
        if candidate_id % 3 == 1:
            raise RuntimeError("synthetic failure")
        return node_fraction_fitness(spec)

    cfg = tiny_search_config()
    records = search(cfg, flaky, out_dir=tmp_path)
    logged = {r.id for r in records}
    assert all(i % 3 != 1 for i in logged)
    assert set(calls) - logged == {i for i in calls if i % 3 == 1}


BAD_SCORES = {2: math.nan, 5: 1.5}


def bad_score_fitness(spec, candidate_id):
    # module level so a process pool can pickle it
    return BAD_SCORES.get(candidate_id, node_fraction_fitness(spec))


@pytest.mark.parametrize("jobs", [1, 2])
def test_invalid_scores_are_discarded(jobs, tmp_path, caplog):
    cfg = tiny_search_config(max_iterations=2, jobs=jobs)
    with caplog.at_level(logging.WARNING, logger="opnas.evolution"):
        records = search(cfg, bad_score_fitness, out_dir=tmp_path)
    assert max(r.iteration for r in records) == 2
    assert not {r.id for r in records} & set(BAD_SCORES)
    assert read_history(tmp_path / "history.jsonl") == records
    for cid in BAD_SCORES:
        assert any(f"candidate {cid} discarded" in m and "[0, 1]" in m
                   for m in caplog.messages)


DYING_ID = 7  # a child of the first iteration


def dying_fitness(spec, candidate_id):
    # module level so a process pool can pickle it; the worker scoring
    # DYING_ID exits at once, as if killed
    if candidate_id == DYING_ID:
        os._exit(1)
    return node_fraction_fitness(spec)


def test_dead_worker_discards_its_candidates(tmp_path, caplog):
    cfg = tiny_search_config(max_iterations=2, jobs=2)
    with caplog.at_level(logging.WARNING, logger="opnas.evolution"):
        records = search(cfg, dying_fitness, out_dir=tmp_path)
    died = {int(m.split()[1]) for m in caplog.messages
            if m.startswith("candidate") and "worker died" in m}
    # the dead worker's candidate, and any other the broken pool left
    # unfinished, are discarded; later iterations run in a new pool
    assert DYING_ID in died
    assert not died & {r.id for r in records}
    assert max(r.iteration for r in records) == 2
    assert read_history(tmp_path / "history.jsonl") == records
    checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
    assert checkpoint["iteration"] == 2


def test_iteration_end_hook_sees_scored_candidates():
    class Ev:
        def __init__(self):
            self.iterations = []

        def __call__(self, spec, candidate_id):
            return node_fraction_fitness(spec)

        def on_iteration_end(self, iteration, evaluated):
            assert all(c.score is not None for c, _ in evaluated)
            self.iterations.append(iteration)

    ev = Ev()
    cfg = tiny_search_config(max_iterations=3)
    search(cfg, ev)
    assert ev.iterations == [0, 1, 2, 3]


FAILING_BATCH = range(6, 10)  # every child of iteration 1 (population 6, 2 x 2)


class BestRecorder:
    """Scores by id (tied best scores, one all-failed batch) and records what
    the hook is handed; module level so a process pool can pickle it."""

    def __init__(self):
        self.handed = []

    def __call__(self, spec, candidate_id):
        if candidate_id in FAILING_BATCH:
            raise RuntimeError("synthetic failure")
        return EvalResult(score=(candidate_id % 3) / 4, payload=("trained", candidate_id))

    def on_iteration_end(self, iteration, best):
        self.handed.append((iteration, best))


def test_hook_is_handed_the_batch_best_only():
    handed = {}
    for jobs in (1, 2):
        ev = BestRecorder()
        records = search(tiny_search_config(max_iterations=3, jobs=jobs), ev)
        assert [i for i, _ in ev.handed] == [0, 1, 2, 3]
        for iteration, best in ev.handed:
            batch = [r for r in records if r.iteration == iteration]
            if iteration == 1:
                assert batch == [] and best == []
                continue
            top = _top(batch, 1)[0]
            assert best == [(top, ("trained", top.id))]
        handed[jobs] = [(i, [(c.id, c.score) for c, _ in best]) for i, best in ev.handed]
    # ids 2 and 5 tie at 0.5 in the seed batch; the lower id wins
    assert handed[1][0] == (0, [(2, 0.5)])
    assert handed[2] == handed[1]


class Payload:
    """A weakly referenceable stand-in for a candidate's trained weights."""


def test_a_batch_holds_at_most_one_payload():
    class Ev:
        def __init__(self):
            self.refs, self.alive_at_call, self.alive_at_hook = [], [], []
            self.batch_start = True

        def alive(self):
            return sum(ref() is not None for ref in self.refs)

        def __call__(self, spec, candidate_id):
            self.alive_at_call.append((self.batch_start, self.alive()))
            self.batch_start = False
            payload = Payload()
            self.refs.append(weakref.ref(payload))
            return EvalResult(node_fraction_fitness(spec), payload)

        def on_iteration_end(self, iteration, best):
            self.alive_at_hook.append(self.alive())
            self.batch_start = True

    ev = Ev()
    search(tiny_search_config(max_iterations=3), ev)
    # the running best is the only earlier payload alive at a call, so at
    # most two are alive after it returns; none outlives its iteration
    assert all(alive <= (0 if start else 1) for start, alive in ev.alive_at_call)
    assert ev.alive_at_hook == [1, 1, 1, 1]


def test_patience_stops_stale_runs():
    cfg = tiny_search_config(max_iterations=40, patience=4)
    records = search(cfg, lambda spec, candidate_id: 0.5)
    # iteration 0 seeds the best score; 4 stale iterations follow
    assert max(r.iteration for r in records) <= 5


def test_parallel_jobs_match_serial(tmp_path):
    cfg_serial = tiny_search_config(max_iterations=2)
    cfg_par = tiny_search_config(max_iterations=2, jobs=2)
    for algo in STRATEGIES:
        serial, par = tmp_path / algo.__name__ / "s", tmp_path / algo.__name__ / "p"
        a = algo(cfg_serial, node_fraction_fitness, out_dir=serial)
        b = algo(cfg_par, node_fraction_fitness, out_dir=par)
        for name in ("history.jsonl", "checkpoint.json"):
            assert (serial / name).read_bytes() == (par / name).read_bytes(), \
                (algo.__name__, name)
        assert [r.id for r in a] == [r.id for r in b], algo.__name__


def test_the_default_clock_fixes_the_history_bytes(tmp_path):
    cfg = tiny_search_config(max_iterations=2)
    a = search(cfg, node_fraction_fitness, out_dir=tmp_path / "a")
    search(cfg, node_fraction_fitness, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "history.jsonl").read_bytes() == \
        (tmp_path / "b" / "history.jsonl").read_bytes()
    assert a and all(r.wall_ms == 0.0 for r in a)


class CountingClock:
    """A clock whose calls return 1.0, 2.0, ...; module level for the pool."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_run_clock_times_each_call_where_it_runs(jobs):
    # two reads per call, one second apart, in the worker too at jobs=2
    cfg = tiny_search_config(max_iterations=2, jobs=jobs)
    records = search(cfg, node_fraction_fitness, clock=CountingClock())
    assert records and all(r.wall_ms == 1000.0 for r in records)


class PickleCounter:
    """Evaluator that counts how often it is pickled; module level for the pool."""

    def __init__(self):
        self.pickled = 0

    def __getstate__(self):
        self.pickled += 1
        return {"pickled": 0}

    def __call__(self, spec, candidate_id):
        return node_fraction_fitness(spec)


def test_the_pool_gets_the_evaluator_once_per_worker():
    rng = random.Random(0)
    batch = [Candidate(i, evolution._random_backbone(rng, 2, 6)) for i in range(4)]
    ev = PickleCounter()
    records, _ = evolution._evaluate_batch(batch, ev, 2, evolution._zero_clock, iteration=0)
    assert [(r.id, r.score) for r in records] == \
        [(c.id, node_fraction_fitness(c.spec)) for c in batch]
    # once per worker at most, never with a submit
    assert ev.pickled <= 2


def unpicklable_payload_fitness(spec, candidate_id):
    # module level so a process pool can pickle it, though not its result
    return EvalResult(0.5, payload=threading.Lock())


def test_a_result_that_cannot_come_back_is_a_logged_discard(caplog):
    cfg = tiny_search_config(population_size=4, max_iterations=3, jobs=2)
    with caplog.at_level(logging.WARNING, logger="opnas.evolution"):
        with pytest.raises(EvaluationFailed, match="3 batches in a row"):
            search(cfg, unpicklable_payload_fitness)
    # three seed batches of 4, every one discarded with the pickling error
    discarded = [m for m in caplog.messages if "discarded" in m]
    assert len(discarded) == 12
    assert all("cannot pickle" in m for m in discarded), discarded


def test_a_serial_result_is_never_pickled(tmp_path, caplog):
    # at jobs=1 the payload never leaves the process, so nothing checks it
    cfg = tiny_search_config(population_size=4, max_iterations=3, jobs=1)
    with caplog.at_level(logging.WARNING, logger="opnas.evolution"):
        records = search(cfg, unpicklable_payload_fitness, tmp_path)
    assert not [m for m in caplog.messages if "discarded" in m]
    # a seed batch of 4, then 3 iterations of k * children_per_parent = 4
    assert [r.id for r in records] == list(range(4 + 3 * 4))
    assert all(r.score == 0.5 for r in records)
    assert read_history(tmp_path / "history.jsonl") == records


def _openblas(symbol):
    """``symbol`` of numpy's bundled OpenBLAS, or None where it is missing."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None:
            return fn
    return None


def blas_thread_fitness(spec, candidate_id):
    # module level so a process pool can pickle it; 1.0 means one thread
    return 1.0 / _openblas("scipy_openblas_get_num_threads64_")()


@pytest.mark.skipif(_openblas("scipy_openblas_set_num_threads64_") is None,
                    reason="numpy's bundled OpenBLAS 64 not found")
def test_pool_workers_run_one_blas_thread():
    get = _openblas("scipy_openblas_get_num_threads64_")
    set_threads = _openblas("scipy_openblas_set_num_threads64_")
    before = get()
    set_threads(2)  # what a worker would inherit on a 2-core host
    try:
        records = search(tiny_search_config(max_iterations=1, jobs=2),
                         blas_thread_fitness)
        parent = get()
    finally:
        set_threads(before)
    assert records and all(r.score == 1.0 for r in records)
    assert parent == 2


def test_blas_thread_initializer_is_silent_without_openblas(monkeypatch):
    def no_library(path):
        raise OSError(path)

    class NoSymbol:
        pass

    for cdll in (no_library, lambda path: NoSymbol()):
        monkeypatch.setattr(evolution.ctypes, "CDLL", cdll)
        evolution._one_blas_thread()


# ---------------------------------------------------------------------------
# checkpointing


RESUME_BASE = dict(population_size=6, k=2, alpha=0.5, children_per_parent=2,
                   seed=3, num_layers=2, max_path_len=6)
# a child of iteration 1 in an evolved run, a mid-batch candidate of
# iteration 1 in a random one
CRASH_ID = 8


def test_resume_reproduces_uninterrupted_run(tmp_path):
    cfg = SearchConfig(max_iterations=5, **RESUME_BASE)
    for algo in STRATEGIES:
        gold, cut = tmp_path / algo.__name__ / "gold", tmp_path / algo.__name__ / "cut"
        algo(cfg, node_fraction_fitness, out_dir=gold)
        with pytest.raises(Crash):
            algo(cfg, crash_at(CRASH_ID), out_dir=cut)
        algo(cfg, node_fraction_fitness, out_dir=cut, resume=True)
        for name in ("history.jsonl", "checkpoint.json"):
            assert (gold / name).read_bytes() == (cut / name).read_bytes(), \
                (algo.__name__, name)

    # a run that finished at fewer iterations extends to the same bytes; a
    # random run's batch edges do not move with its nominal budget either
    for algo in STRATEGIES:
        short = tmp_path / algo.__name__ / "short"
        algo(SearchConfig(max_iterations=2, **RESUME_BASE), node_fraction_fitness,
             out_dir=short)
        algo(cfg, node_fraction_fitness, out_dir=short, resume=True)
        for name in ("history.jsonl", "checkpoint.json"):
            assert (tmp_path / algo.__name__ / "gold" / name).read_bytes() == \
                (short / name).read_bytes(), (algo.__name__, name)


def test_resume_truncates_partial_iteration(tmp_path):
    cfg = SearchConfig(max_iterations=5, **RESUME_BASE)
    for algo in STRATEGIES:
        gold, cut = tmp_path / algo.__name__ / "gold", tmp_path / algo.__name__ / "cut"
        algo(cfg, node_fraction_fitness, out_dir=gold)
        with pytest.raises(Crash):
            algo(cfg, crash_at(CRASH_ID), out_dir=cut)

        # simulate a crash mid-iteration: extra rows after the checkpoint
        hist = cut / "history.jsonl"
        last = json.loads(hist.read_text().splitlines()[-1])
        last["iteration"] += 1
        last["id"] = 10_000
        with open(hist, "a") as fh:
            fh.write(json.dumps(last) + "\n")

        algo(cfg, node_fraction_fitness, out_dir=cut, resume=True)
        assert (gold / "history.jsonl").read_bytes() == hist.read_bytes(), algo.__name__


@pytest.mark.parametrize("algo", STRATEGIES, ids=lambda a: a.__name__)
def test_a_fresh_run_replaces_an_earlier_one(algo, tmp_path):
    cfg = tiny_search_config(max_iterations=1)
    algo(cfg, node_fraction_fitness, out_dir=tmp_path / "once")
    for _ in range(2):
        algo(cfg, node_fraction_fitness, out_dir=tmp_path / "twice")
    for name in ("history.jsonl", "checkpoint.json"):
        assert (tmp_path / "once" / name).read_bytes() == \
            (tmp_path / "twice" / name).read_bytes(), name
    # a fresh run killed in its first batch leaves no earlier run's files
    with pytest.raises(Crash):
        algo(cfg, crash_at(0), out_dir=tmp_path / "twice")
    assert not any((tmp_path / "twice").iterdir())


def test_resume_requires_checkpoint(tmp_path):
    cfg = tiny_search_config()
    with pytest.raises(CheckpointError):
        search(cfg, node_fraction_fitness, out_dir=tmp_path / "empty", resume=True)


def test_resume_rejects_changed_config(tmp_path):
    cfg = tiny_search_config(max_iterations=2)
    search(cfg, node_fraction_fitness, out_dir=tmp_path)
    changed = tiny_search_config(max_iterations=4, seed=99)
    with pytest.raises(CheckpointError):
        search(changed, node_fraction_fitness, out_dir=tmp_path, resume=True)


def test_checkpoint_written_every_iteration(tmp_path):
    cfg = tiny_search_config(max_iterations=2)
    search(cfg, node_fraction_fitness, out_dir=tmp_path)
    payload = json.loads((tmp_path / "checkpoint.json").read_text())
    assert payload["iteration"] == 2
    assert payload["next_id"] == payload["evaluations"] == \
        len(read_history(tmp_path / "history.jsonl"))
    # only what the history cannot give
    assert list(payload) == ["version", "config", "iteration", "next_id",
                             "evaluations", "rng_state"]
    assert payload["version"] == 2


@pytest.mark.parametrize("algo", (search, vanilla_ea), ids=lambda a: a.__name__)
def test_resume_replays_patience(algo, tmp_path):
    # the best score and the stale count come back from the history, so a
    # run cut after the best stopped improving still stops where it would
    cfg = SearchConfig(max_iterations=40, patience=2, **RESUME_BASE)
    gold = tmp_path / "gold"
    records = algo(cfg, node_fraction_fitness, out_dir=gold)
    last = max(r.iteration for r in records)
    assert last < cfg.max_iterations  # patience bound
    # cut inside the final iteration, when the checkpoint's stale count is 1
    crash_id = next(r.id for r in records if r.iteration == last) + 1
    cut = tmp_path / "cut"
    with pytest.raises(Crash):
        algo(cfg, crash_at(crash_id), out_dir=cut)
    assert json.loads((cut / "checkpoint.json").read_text())["iteration"] == last - 1
    algo(cfg, node_fraction_fitness, out_dir=cut, resume=True)
    for name in ("history.jsonl", "checkpoint.json"):
        assert (gold / name).read_bytes() == (cut / name).read_bytes(), name


@pytest.mark.parametrize("algo", STRATEGIES, ids=lambda a: a.__name__)
def test_resume_drops_a_torn_last_history_line(algo, tmp_path):
    cfg = SearchConfig(max_iterations=5, **RESUME_BASE)
    gold, cut = tmp_path / "gold", tmp_path / "cut"
    algo(cfg, node_fraction_fitness, out_dir=gold)
    with pytest.raises(Crash):
        algo(cfg, crash_at(CRASH_ID), out_dir=cut)
    # a crash while commit appends the rows: one of the next iteration written,
    # the second cut inside its line, and no checkpoint after them
    hist = cut / "history.jsonl"
    committed = len(hist.read_text().splitlines())
    rows = (gold / "history.jsonl").read_text().splitlines(keepends=True)
    with open(hist, "a") as fh:
        fh.write(rows[committed] + rows[committed + 1][:40])
    algo(cfg, node_fraction_fitness, out_dir=cut, resume=True)
    for name in ("history.jsonl", "checkpoint.json"):
        assert (gold / name).read_bytes() == (cut / name).read_bytes(), name


def test_resume_refuses_an_unparsable_inner_history_line(tmp_path):
    search(tiny_search_config(max_iterations=1), node_fraction_fitness,
           out_dir=tmp_path)
    hist = tmp_path / "history.jsonl"
    lines = hist.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:40] + "\n"
    hist.write_text("".join(lines))
    with pytest.raises(CheckpointError, match="line 3"):
        search(tiny_search_config(max_iterations=2), node_fraction_fitness,
               out_dir=tmp_path, resume=True)
    assert hist.read_text() == "".join(lines)


def damage_row(row: str, how: str) -> str:
    """A committed history line the program never writes."""
    if how == "blank":
        return "\n" + row
    if how == "unterminated":
        return row.rstrip("\n")
    d = json.loads(row)
    if how == "score-above-one":
        d["score"] = 5.0
    elif how == "duplicate-id":  # the id of the row before
        d["id"] -= 1
    elif how == "backward-iteration":
        d["iteration"] -= 1
    else:
        d["iteration"] = {"negative-iteration": -1, "uncommitted-iteration": 2}[how]
    return json.dumps(d) + "\n"


# each damage: the line it hits and the refusal after the path and line
DAMAGED_ROWS = {
    "blank": (4, "blank line"),
    "unterminated": (10, "unterminated line"),  # the last committed row
    "score-above-one": (4, r"score must be in \[0, 1\], got 5.0"),
    "negative-iteration": (4, r"iteration -1 is outside 0..1"),
    "uncommitted-iteration": (4, r"iteration 2 is outside 0..1"),
    "duplicate-id": (4, r"id 2 follows id 2"),
    "backward-iteration": (8, r"iteration 0 follows iteration 1"),  # rows 7-10 are 1s
}
# ``tiny_search_config(max_iterations=2)`` as an ``opnas search`` config
CLI_RESUME_CONFIG = {
    "search": {"population_size": 6, "k": 2, "alpha": 0.5, "max_iterations": 2,
               "children_per_parent": 2, "seed": 0, "max_path_len": 6},
    "model": {"num_layers": 2, "d_model": 16, "n_heads": 2, "vocab": 32, "seq_len": 16},
    "corpus": {"size": 32},
    "trainer": {"steps": 4, "batch_size": 4, "warmup": 2},
}


@pytest.mark.parametrize("how", DAMAGED_ROWS)
def test_resume_refuses_a_committed_row_it_could_not_have_written(how, tmp_path, capsys):
    run_dir = tmp_path / "run"
    search(tiny_search_config(max_iterations=1), node_fraction_fitness,
           out_dir=run_dir)
    hist = run_dir / "history.jsonl"
    lines = hist.read_text().splitlines(keepends=True)
    n, refusal = DAMAGED_ROWS[how]
    lines[n - 1] = damage_row(lines[n - 1], how)
    hist.write_text("".join(lines))
    verdict = rf"{re.escape(str(hist))} line {n}: {refusal}$"
    with pytest.raises(CheckpointError, match=verdict):
        search(tiny_search_config(max_iterations=2), node_fraction_fitness,
               out_dir=run_dir, resume=True)
    # one reader: ``opnas search --resume`` and ``opnas plot-data`` refuse
    # the row in the same words, with a checkpoint and a data error
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CLI_RESUME_CONFIG))
    for argv, code in ((["search", "--config", config, "--out-dir", run_dir, "--resume"], 3),
                       (["plot-data", hist, "--out-dir", tmp_path / "plot"], 5)):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == code, argv[0]
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("error: ") and re.search(verdict, err), err
    assert hist.read_text() == "".join(lines)
    assert not (run_dir / "config.json").exists()


@pytest.mark.parametrize("algo", STRATEGIES, ids=lambda a: a.__name__)
def test_resume_refuses_a_missing_committed_row(algo, tmp_path):
    algo(tiny_search_config(max_iterations=1), node_fraction_fitness,
         out_dir=tmp_path)
    hist = tmp_path / "history.jsonl"
    lines = hist.read_text().splitlines(keepends=True)
    del lines[1]
    hist.write_text("".join(lines))
    with pytest.raises(CheckpointError,
                       match=f"holds {len(lines)} evaluations .* counts {len(lines) + 1}"):
        algo(tiny_search_config(max_iterations=2), node_fraction_fitness,
             out_dir=tmp_path, resume=True)


def break_checkpoint(payload, how):
    """A checkpoint that is valid JSON but no valid version-2 checkpoint."""
    if how == "array":
        return []
    payload = dict(payload)
    if how == "no-next-id":
        del payload["next_id"]
    elif how == "string-iteration":
        payload["iteration"] = str(payload["iteration"])
    elif how == "bool-evaluations":
        payload["evaluations"] = True
    elif how == "short-rng-state":
        payload["rng_state"] = [3, [1, 2], None]
    return payload


MALFORMED = ("array", "no-next-id", "string-iteration", "bool-evaluations",
             "short-rng-state")


@pytest.mark.parametrize("how", MALFORMED)
def test_resume_refuses_a_malformed_checkpoint(how, tmp_path):
    cfg = tiny_search_config(max_iterations=1)
    search(cfg, node_fraction_fitness, out_dir=tmp_path)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(break_checkpoint(json.loads(path.read_text()), how)))
    with pytest.raises(CheckpointError, match="^malformed checkpoint: "):
        search(cfg, node_fraction_fitness, out_dir=tmp_path, resume=True)


def test_resume_refuses_a_version_1_checkpoint(tmp_path):
    cfg = tiny_search_config(max_iterations=1)
    search(cfg, node_fraction_fitness, out_dir=tmp_path)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": 1}))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        search(cfg, node_fraction_fitness, out_dir=tmp_path, resume=True)


# ---------------------------------------------------------------------------
# the failure rule: three batches in a row that score nothing end a run


@pytest.mark.parametrize("algo", STRATEGIES, ids=lambda a: a.__name__)
def test_three_empty_batches_raise(algo, tmp_path):
    calls = []

    def fails(spec, candidate_id):
        calls.append(candidate_id)
        raise RuntimeError("synthetic failure")

    cfg = tiny_search_config()
    with pytest.raises(EvaluationFailed, match="3 batches in a row"):
        algo(cfg, fails, out_dir=tmp_path)
    # with the population empty every strategy proposes random batches;
    # the first two were finished as empty iterations
    assert calls == list(range(3 * cfg.population_size))
    checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
    assert {k: checkpoint[k] for k in ("version", "iteration", "next_id", "evaluations")} \
        == {"version": 2, "iteration": 1, "next_id": 2 * cfg.population_size,
            "evaluations": 0}
    assert not (tmp_path / "history.jsonl").exists()


@pytest.mark.parametrize("algo", STRATEGIES, ids=lambda a: a.__name__)
def test_failure_streak_carries_across_resume(algo, tmp_path):
    cfg = tiny_search_config()
    pop = cfg.population_size
    # two batches score nothing, then the run is killed inside the third
    with pytest.raises(Crash):
        algo(cfg, crash_at(2 * pop, always_fails), out_dir=tmp_path)
    calls = []

    def fails(spec, candidate_id):
        calls.append(candidate_id)
        raise RuntimeError("synthetic failure")

    with pytest.raises(EvaluationFailed):
        algo(cfg, fails, out_dir=tmp_path, resume=True)
    # the streak is read from the history: the replayed third batch ends it
    assert calls == list(range(2 * pop, 3 * pop))


def test_scored_batch_resets_the_failure_streak():
    cfg = tiny_search_config(max_evaluations=30)
    pop = cfg.population_size

    def fitness(spec, candidate_id):
        # batches 0, 1, 3 and 4 fail; batch 2 scores
        if not 2 * pop <= candidate_id < 3 * pop:
            raise RuntimeError("synthetic failure")
        return node_fraction_fitness(spec)

    with pytest.raises(EvaluationFailed, match=r"iterations 3-5"):
        random_search(cfg, fitness)


@pytest.mark.parametrize("algo", (search, vanilla_ea), ids=lambda a: a.__name__)
def test_evolved_search_reseeds_after_failed_seed_batch(algo, tmp_path):
    cfg = tiny_search_config()
    pop = cfg.population_size

    def seeds_fail(spec, candidate_id):
        if candidate_id < pop:
            raise RuntimeError("synthetic failure")
        return node_fraction_fitness(spec)

    records = algo(cfg, seeds_fail, out_dir=tmp_path)
    reseed = [r for r in records if r.iteration == 1]
    assert [r.id for r in reseed] == list(range(pop, 2 * pop))
    assert all(r.parent_id is None for r in reseed)
    children = [r for r in records if r.iteration > 1]
    assert children and all(r.parent_id is not None for r in children)
    assert max(r.iteration for r in records) == cfg.max_iterations


# ---------------------------------------------------------------------------
# history records


def test_history_record_round_trip():
    r = random.Random(1)
    spec = S.BackboneSpec((S.LayerSpec.attention(S.random_dag(r)),))
    rec = EvalRecord(id=4, parent_id=2, spec=spec, score=0.75, iteration=3,
                     wall_ms=12.5)
    clone = EvalRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict())))
    assert clone == rec


def test_read_history_rejects_an_illegal_dag(tmp_path):
    dag = S.AttentionDag(("q", "k", "v"), (S.DagNode("add", ("q", "k")),))
    spec = S.BackboneSpec((S.LayerSpec.attention(dag),))
    rec = EvalRecord(id=0, parent_id=None, spec=spec, score=0.5, iteration=0,
                     wall_ms=0.0)
    p = tmp_path / "history.jsonl"
    p.write_text(json.dumps(rec.to_json_dict()) + "\n")
    with pytest.raises(S.SpecParseError, match=r"\$\.layers\[0\]: declared inputs"):
        read_history(p)


GOOD_RECORD = EvalRecord(id=3, parent_id=1, spec=S.standard_backbone(1), score=0.5,
                         iteration=1, wall_ms=2.0)
GOOD_ROW = GOOD_RECORD.to_json_dict()
# history rows a reader must refuse, and the field its ValueError names
BAD_ROWS = {
    "not-an-object": ([1, 2], "JSON object"),
    "unknown-fields-only": ({"id": 0, "nope": 1}, "parent_id"),
    "missing-field": ({k: v for k, v in GOOD_ROW.items() if k != "wall_ms"}, "wall_ms"),
    "null-id": ({**GOOD_ROW, "id": None}, "id"),
    "fractional-id": ({**GOOD_ROW, "id": 2.7}, "id"),  # no truncation to 2
    "bool-iteration": ({**GOOD_ROW, "iteration": True}, "iteration"),
    "string-parent": ({**GOOD_ROW, "parent_id": "1"}, "parent_id"),
    "string-score": ({**GOOD_ROW, "score": "0.5"}, "score"),
    "score-above-one": ({**GOOD_ROW, "score": 5.0}, "score"),
    "nan-score": ({**GOOD_ROW, "score": math.nan}, "score"),
    "null-wall-ms": ({**GOOD_ROW, "wall_ms": None}, "wall_ms"),
}


def test_read_history_rejects_garbage(tmp_path):
    assert EvalRecord.from_json_dict(GOOD_ROW) == GOOD_RECORD
    p = tmp_path / "history.jsonl"
    for row, field in BAD_ROWS.values():
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            read_history(p)
    # a byte no UTF-8 text holds is refused with its line like any other row
    p.write_bytes(json.dumps(GOOD_ROW).encode() + b"\n" + b'{"id": "\xff"}\n')
    with pytest.raises(ValueError, match=r"history.jsonl line 2: 'utf-8' codec"):
        read_history(p)
