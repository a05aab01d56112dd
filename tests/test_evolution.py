"""Selection arithmetic, history bookkeeping, and loop behavior."""

import json
import logging
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opnas import search_space as S
from opnas.evolution import (
    Candidate,
    CheckpointError,
    EvalRecord,
    EvalResult,
    SearchConfig,
    UcbStats,
    kernel_distribution,
    op_distribution,
    random_search,
    read_history,
    record_result,
    replay_stats,
    search,
    ucb_score,
    vanilla_ea,
)

ZERO_CLOCK = lambda: 0.0


def node_fraction_fitness(spec, wanted=("add", "softsign")):
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
        record_result(stats, Candidate(i, spec, score), score)
    return stats


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
    for pos in range(stats.n_max):
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
        record_result(stats, Candidate(i, conv_spec, 0.5), 0.5)
    record_result(stats, Candidate(3, S.BackboneSpec((S.LayerSpec.conv(65),)), 0.5),
                  0.5)
    dist = kernel_distribution(stats, 0)
    assert dist[9] == pytest.approx(0.75)
    assert dist[65] == pytest.approx(0.25)
    assert dist[3] == 0.0


def test_record_result_rejects_out_of_range():
    stats = UcbStats()
    cand = Candidate(0, S.standard_backbone(1), 1.5)
    with pytest.raises(ValueError):
        record_result(stats, cand, 1.5)


def test_n_max_tracks_longest_path():
    stats = UcbStats()
    assert stats.n_max == 0
    record_result(stats, Candidate(0, single_op_spec("neg"), 0.5), 0.5)
    assert stats.n_max == 1
    record_result(stats, Candidate(1, S.standard_backbone(1), 0.5), 0.5)
    assert stats.n_max == len(S.standard_attention_dag().nodes)


def test_stats_round_trip_json():
    r = random.Random(2)
    pairs = [(S.BackboneSpec((S.LayerSpec.attention(S.random_dag(r)),
                              S.LayerSpec.conv(r.choice(S.KERNEL_MENU)))),
              r.random()) for _ in range(10)]
    stats = stats_from(pairs)
    clone = UcbStats.from_json_dict(json.loads(json.dumps(stats.to_json_dict())))
    assert clone.visits == stats.visits
    assert clone.sums == stats.sums
    assert clone.totals == stats.totals
    assert clone.kernel_counts == stats.kernel_counts


def test_replay_matches_online_accumulation():
    r = random.Random(5)
    stats = UcbStats()
    records = []
    for i in range(20):
        spec = S.BackboneSpec((S.LayerSpec.attention(S.random_dag(r)),))
        score = r.random()
        record_result(stats, Candidate(i, spec, score), score)
        records.append(EvalRecord(i, None, spec, score, iteration=0, wall_ms=0.0))
    replayed = replay_stats(records)
    assert replayed.visits == stats.visits
    assert replayed.sums == stats.sums
    assert replayed.totals == stats.totals


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(population_size=2, k=5)
    with pytest.raises(ValueError):
        SearchConfig(k=0)
    with pytest.raises(ValueError):
        SearchConfig(alpha=-0.1)


# ---------------------------------------------------------------------------
# the three loops


def test_search_is_deterministic(tmp_path):
    cfg = tiny_search_config()
    a = search(cfg, node_fraction_fitness, out_dir=tmp_path / "a", clock=ZERO_CLOCK)
    b = search(cfg, node_fraction_fitness, out_dir=tmp_path / "b", clock=ZERO_CLOCK)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    assert (tmp_path / "a" / "history.jsonl").read_bytes() == \
        (tmp_path / "b" / "history.jsonl").read_bytes()


def test_history_file_matches_returned_records(tmp_path):
    cfg = tiny_search_config()
    records = search(cfg, node_fraction_fitness, out_dir=tmp_path, clock=ZERO_CLOCK)
    on_disk = read_history(tmp_path / "history.jsonl")
    assert [r.to_json_dict() for r in on_disk] == [r.to_json_dict() for r in records]


def test_history_ids_sequential_and_specs_valid(tmp_path):
    cfg = tiny_search_config()
    records = search(cfg, node_fraction_fitness, out_dir=tmp_path, clock=ZERO_CLOCK)
    assert [r.id for r in records] == list(range(len(records)))
    for rec in records:
        for layer in rec.spec.layers:
            if layer.kind == "attention":
                ok, reason = S.validate(layer.dag)
                assert ok, reason


def test_children_track_parents(tmp_path):
    cfg = tiny_search_config()
    records = search(cfg, node_fraction_fitness, out_dir=tmp_path, clock=ZERO_CLOCK)
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
    a = search(cfg, node_fraction_fitness, clock=ZERO_CLOCK)
    b = vanilla_ea(cfg, node_fraction_fitness, clock=ZERO_CLOCK)
    assert [r.spec for r in a] != [r.spec for r in b]


def test_random_search_budget_and_parents():
    cfg = tiny_search_config(max_iterations=4)
    records = random_search(cfg, node_fraction_fitness, clock=ZERO_CLOCK)
    budget = cfg.population_size + cfg.max_iterations * cfg.k * cfg.children_per_parent
    assert len(records) == budget
    assert all(r.parent_id is None for r in records)
    assert [r.id for r in records] == list(range(budget))


def test_max_evaluations_caps_all_algorithms(tmp_path):
    cfg = tiny_search_config(max_iterations=50, max_evaluations=17)
    for algo in (search, vanilla_ea, random_search):
        records = algo(cfg, node_fraction_fitness, clock=ZERO_CLOCK)
        assert len(records) == 17, algo.__name__


def test_evaluator_receiving_candidate_id():
    seen = []

    def fitness(spec, candidate_id):
        seen.append(candidate_id)
        return node_fraction_fitness(spec)

    cfg = tiny_search_config(max_iterations=1)
    records = search(cfg, fitness, clock=ZERO_CLOCK)
    assert seen == [r.id for r in records]


def test_eval_result_payload_accepted():
    def fitness(spec):
        return EvalResult(score=node_fraction_fitness(spec), payload={"x": 1})

    cfg = tiny_search_config(max_iterations=1)
    records = search(cfg, fitness, clock=ZERO_CLOCK)
    assert all(0 <= r.score <= 1 for r in records)


def test_failing_candidates_are_discarded(tmp_path):
    calls = []

    def flaky(spec, candidate_id):
        calls.append(candidate_id)
        if candidate_id % 3 == 1:
            raise RuntimeError("synthetic failure")
        return node_fraction_fitness(spec)

    cfg = tiny_search_config()
    records = search(cfg, flaky, out_dir=tmp_path, clock=ZERO_CLOCK)
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
        records = search(cfg, bad_score_fitness, out_dir=tmp_path, clock=ZERO_CLOCK)
    assert max(r.iteration for r in records) == 2
    assert not {r.id for r in records} & set(BAD_SCORES)
    assert read_history(tmp_path / "history.jsonl") == records
    for cid in BAD_SCORES:
        assert any(f"candidate {cid} discarded" in m and "[0, 1]" in m
                   for m in caplog.messages)


def test_iteration_end_hook_sees_scored_candidates():
    class Ev:
        def __init__(self):
            self.iterations = []

        def __call__(self, spec):
            return node_fraction_fitness(spec)

        def on_iteration_end(self, iteration, evaluated):
            assert all(c.score is not None for c, _ in evaluated)
            self.iterations.append(iteration)

    ev = Ev()
    cfg = tiny_search_config(max_iterations=3)
    search(cfg, ev, clock=ZERO_CLOCK)
    assert ev.iterations == [0, 1, 2, 3]


def test_patience_stops_stale_runs():
    cfg = tiny_search_config(max_iterations=40, patience=4)
    records = search(cfg, lambda spec: 0.5, clock=ZERO_CLOCK)
    # iteration 0 seeds the best score; 4 stale iterations follow
    assert max(r.iteration for r in records) <= 5


def test_parallel_jobs_match_serial(tmp_path):
    cfg_serial = tiny_search_config(max_iterations=2)
    cfg_par = tiny_search_config(max_iterations=2, jobs=2)
    a = search(cfg_serial, node_fraction_fitness, out_dir=tmp_path / "s",
               clock=ZERO_CLOCK)
    b = search(cfg_par, node_fraction_fitness, out_dir=tmp_path / "p",
               clock=ZERO_CLOCK)
    assert (tmp_path / "s" / "history.jsonl").read_bytes() == \
        (tmp_path / "p" / "history.jsonl").read_bytes()
    assert [r.id for r in a] == [r.id for r in b]


# ---------------------------------------------------------------------------
# checkpointing


def test_resume_reproduces_uninterrupted_run(tmp_path):
    base = dict(population_size=6, k=2, alpha=0.5, children_per_parent=2,
                seed=3, num_layers=2, max_path_len=6)
    gold_cfg = SearchConfig(max_iterations=5, **base)
    search(gold_cfg, node_fraction_fitness, out_dir=tmp_path / "gold",
           clock=ZERO_CLOCK)

    search(SearchConfig(max_iterations=2, **base), node_fraction_fitness,
           out_dir=tmp_path / "resumed", clock=ZERO_CLOCK)
    search(SearchConfig(max_iterations=5, **base), node_fraction_fitness,
           out_dir=tmp_path / "resumed", resume=True, clock=ZERO_CLOCK)

    assert (tmp_path / "gold" / "history.jsonl").read_bytes() == \
        (tmp_path / "resumed" / "history.jsonl").read_bytes()


def test_resume_truncates_partial_iteration(tmp_path):
    base = dict(population_size=6, k=2, alpha=0.5, children_per_parent=2,
                seed=3, num_layers=2, max_path_len=6)
    search(SearchConfig(max_iterations=5, **base), node_fraction_fitness,
           out_dir=tmp_path / "gold", clock=ZERO_CLOCK)
    search(SearchConfig(max_iterations=2, **base), node_fraction_fitness,
           out_dir=tmp_path / "cut", clock=ZERO_CLOCK)

    # simulate a crash mid-iteration: extra rows after the checkpoint
    hist = tmp_path / "cut" / "history.jsonl"
    last = json.loads(hist.read_text().splitlines()[-1])
    last["iteration"] += 1
    last["id"] = 10_000
    with open(hist, "a") as fh:
        fh.write(json.dumps(last) + "\n")

    search(SearchConfig(max_iterations=5, **base), node_fraction_fitness,
           out_dir=tmp_path / "cut", resume=True, clock=ZERO_CLOCK)
    assert (tmp_path / "gold" / "history.jsonl").read_bytes() == hist.read_bytes()


def test_resume_requires_checkpoint(tmp_path):
    cfg = tiny_search_config()
    with pytest.raises(CheckpointError):
        search(cfg, node_fraction_fitness, out_dir=tmp_path / "empty", resume=True,
               clock=ZERO_CLOCK)


def test_resume_rejects_changed_config(tmp_path):
    cfg = tiny_search_config(max_iterations=2)
    search(cfg, node_fraction_fitness, out_dir=tmp_path, clock=ZERO_CLOCK)
    changed = tiny_search_config(max_iterations=4, seed=99)
    with pytest.raises(CheckpointError):
        search(changed, node_fraction_fitness, out_dir=tmp_path, resume=True,
               clock=ZERO_CLOCK)


def test_checkpoint_written_every_iteration(tmp_path):
    cfg = tiny_search_config(max_iterations=2)
    search(cfg, node_fraction_fitness, out_dir=tmp_path, clock=ZERO_CLOCK)
    payload = json.loads((tmp_path / "checkpoint.json").read_text())
    assert payload["iteration"] == 2
    assert payload["next_id"] == len(read_history(tmp_path / "history.jsonl"))


# ---------------------------------------------------------------------------
# history records


def test_history_record_round_trip():
    r = random.Random(1)
    spec = S.BackboneSpec((S.LayerSpec.attention(S.random_dag(r)),))
    rec = EvalRecord(id=4, parent_id=2, spec=spec, score=0.75, iteration=3,
                     wall_ms=12.5)
    clone = EvalRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict())))
    assert clone == rec


def test_read_history_rejects_garbage(tmp_path):
    p = tmp_path / "history.jsonl"
    p.write_text('{"id": 0, "nope": 1}\n')
    with pytest.raises((KeyError, ValueError)):
        read_history(p)
