"""Synthetic corpus, masking, training loop, and encoder checks."""

import ctypes
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from opnas import model as M
from opnas import search_space as S
from opnas import tensor as T
from opnas.model import (
    BIGRAM_FOLLOW_P,
    CONTENT_LO,
    MASK_FRACTION,
    MASK_ID,
    PROXY_CHUNK,
    Corpus,
    ModelConfig,
    OptimConfig,
    bigram_successor,
    build_model,
    mask_tokens,
    mlm_pretrain,
    proxy_evaluate,
    synth_corpus,
)
from opnas.search_space import (
    AttentionDag,
    BackboneSpec,
    DagNode,
    LayerSpec,
    autobert_zero_backbone,
    standard_backbone,
)


# ---------------------------------------------------------------------------
# corpus


def test_corpus_deterministic():
    a = synth_corpus(seed=3, size=64, vocab=32, seq_len=16)
    b = synth_corpus(seed=3, size=64, vocab=32, seq_len=16)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.heldout, b.heldout)
    c = synth_corpus(seed=4, size=64, vocab=32, seq_len=16)
    assert not np.array_equal(a.train, c.train)


def test_corpus_shapes_and_split():
    corpus = synth_corpus(seed=0, size=80, vocab=32, seq_len=16,
                          heldout_fraction=0.25)
    assert corpus.train.shape == (60, 16)
    assert corpus.heldout.shape == (20, 16)
    assert corpus.train.dtype.kind == "i"


def test_corpus_token_ranges():
    corpus = synth_corpus(seed=1, size=64, vocab=32, seq_len=16)
    both = np.concatenate([corpus.train, corpus.heldout])
    assert both.min() >= 1  # mask id 0 never appears in clean data
    assert both.max() < 32


def test_sentinel_pairs_present_and_matched():
    corpus = synth_corpus(seed=2, size=64, vocab=32, seq_len=32)
    both = np.concatenate([corpus.train, corpus.heldout])
    n = both.shape[1]
    for row in both:
        openers = [(i, t) for i, t in enumerate(row) if 1 <= t <= 4]
        closers = [(i, t) for i, t in enumerate(row) if 5 <= t <= 8]
        assert len(openers) == 1 and len(closers) == 1
        (ia, opener), (ib, closer) = openers[0], closers[0]
        assert closer == opener + 4
        assert ia < n // 4 and ib >= 3 * n // 4


def test_bigram_statistics_near_follow_probability():
    corpus = synth_corpus(seed=5, size=400, vocab=64, seq_len=32)
    follows = total = 0
    for row in corpus.train:
        for a, b in zip(row[:-1], row[1:]):
            if a < CONTENT_LO or b < CONTENT_LO:
                continue
            total += 1
            follows += b == bigram_successor(int(a), 64)
    assert total > 5000
    # a followed pair can also arise by luck, so the observed rate sits
    # slightly above the nominal follow probability
    expected = BIGRAM_FOLLOW_P + (1 - BIGRAM_FOLLOW_P) / (64 - CONTENT_LO)
    assert abs(follows / total - expected) < 0.02


def test_bigram_successor_cycles_content_range():
    vocab = 32
    seen = set()
    t = CONTENT_LO
    for _ in range(vocab - CONTENT_LO):
        seen.add(t)
        t = bigram_successor(t, vocab)
    assert t == CONTENT_LO
    assert seen == set(range(CONTENT_LO, vocab))


def test_corpus_validation():
    with pytest.raises(ValueError):
        synth_corpus(seed=0, size=4, vocab=8, seq_len=16)  # vocab too small
    with pytest.raises(ValueError):
        synth_corpus(seed=0, size=0, vocab=32, seq_len=16)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
def test_corpus_refuses_a_heldout_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match="heldout_fraction must be in"):
        synth_corpus(seed=0, size=8, vocab=32, seq_len=16, heldout_fraction=fraction)


@pytest.mark.parametrize("field,value", [("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")),
                                         ("lr", float("inf")), ("warmup", -1),
                                         ("batch_size", 0), ("lr", True), ("lr", "0.001"),
                                         ("warmup", 1.9), ("batch_size", 4.0)])
def test_optim_config_refuses_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        OptimConfig(**{field: value})


# ---------------------------------------------------------------------------
# masking


def test_mask_fraction_and_split(rng):
    corpus = synth_corpus(seed=0, size=200, vocab=64, seq_len=32)
    stats = {"masked": 0, "mask_tok": 0, "random": 0, "kept": 0, "total": 0}
    for row in corpus.train:
        corrupted, mask = mask_tokens(row, rng, vocab=64)
        assert mask.any()
        assert corrupted.shape == row.shape
        assert np.array_equal(corrupted[~mask], row[~mask])
        stats["total"] += row.size
        stats["masked"] += int(mask.sum())
        stats["mask_tok"] += int((corrupted[mask] == MASK_ID).sum())
        changed = (corrupted != row) & mask & (corrupted != MASK_ID)
        stats["random"] += int(changed.sum())
    frac = stats["masked"] / stats["total"]
    assert abs(frac - MASK_FRACTION) < 0.01
    mask_share = stats["mask_tok"] / stats["masked"]
    assert abs(mask_share - 0.8) < 0.03


def test_mask_tokens_deterministic_given_rng():
    corpus = synth_corpus(seed=0, size=8, vocab=32, seq_len=16)
    a = mask_tokens(corpus.train[0], np.random.default_rng(11), vocab=32)
    b = mask_tokens(corpus.train[0], np.random.default_rng(11), vocab=32)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# model assembly


def test_build_model_fresh_deterministic(tiny_config):
    spec = standard_backbone(tiny_config.num_layers)
    a = build_model(spec, tiny_config, rng=3)
    b = build_model(spec, tiny_config, rng=3)
    for (ka, pa), (kb, pb) in zip(sorted(a.params.items()),
                                  sorted(b.params.items())):
        assert ka == kb
        assert np.array_equal(pa.data, pb.data)


def test_build_model_rejects_depth_mismatch(tiny_config):
    with pytest.raises(ValueError):
        build_model(standard_backbone(5), tiny_config)


def test_build_model_validates_provided_shapes(tiny_config):
    spec = standard_backbone(tiny_config.num_layers)
    good = build_model(spec, tiny_config, rng=0)
    params = {k: p.data.copy() for k, p in good.params.items()}
    params["layer0.att.q"] = np.zeros((3, 3))
    with pytest.raises(ValueError):
        build_model(spec, tiny_config, params=params)


def test_forward_shapes(tiny_config, tiny_corpus):
    spec = autobert_zero_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=0)
    ids = tiny_corpus.train[0]
    logits = model.forward(ids)
    assert logits.shape == (tiny_config.seq_len, tiny_config.vocab)
    hidden = model.encode(ids)
    assert hidden.shape == (tiny_config.seq_len, tiny_config.d_model)


@pytest.mark.parametrize("backbone", [autobert_zero_backbone, standard_backbone])
def test_batched_encode_and_forward_equal_stacked_sequences(backbone, tiny_config,
                                                            tiny_corpus):
    model = build_model(backbone(tiny_config.num_layers), tiny_config, rng=0)
    ids = tiny_corpus.heldout[:5]
    for run in (model.encode, model.forward):
        got = run(ids).data
        want = np.stack([run(seq).data for seq in ids])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_check_ids_rejects_bad_shapes(tiny_config, tiny_corpus):
    model = build_model(standard_backbone(tiny_config.num_layers), tiny_config, rng=0)
    ids = tiny_corpus.train[:2]
    for bad in (ids[None], ids[:, :-1], ids[0, :-1], ids[:0]):
        for run in (model.encode, model.forward):
            with pytest.raises(ValueError):
                run(bad)


def test_single_head_encoder_matches_reference(tiny_corpus):
    cfg = ModelConfig(num_layers=1, d_model=16, n_heads=1, vocab=32, seq_len=16)
    spec = standard_backbone(1)
    model = build_model(spec, cfg, rng=2)
    ids = tiny_corpus.train[0]

    p = {k: v.data for k, v in model.params.items()}
    x = p["tok_emb"][ids] + p["pos_emb"]
    want = oracles.reference_encoder_layer(
        x,
        p["layer0.att.q"][0], p["layer0.att.k"][0], p["layer0.att.v"][0],
        p["layer0.att.wo"], p["layer0.ffn.w1"], p["layer0.ffn.w2"],
        p["layer0.ln_att.gain"], p["layer0.ln_att.bias"],
        p["layer0.ln_ffn.gain"], p["layer0.ln_ffn.bias"],
    )
    got = model.encode(ids).data
    assert np.abs(got - want).max() < 1e-6


def test_gradients_reach_every_parameter(tiny_config, tiny_corpus):
    spec = autobert_zero_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=0)
    ids = tiny_corpus.train[0]
    corrupted, mask = mask_tokens(ids, np.random.default_rng(0),
                                  vocab=tiny_config.vocab)
    loss = T.masked_cross_entropy(model.forward(corrupted), ids, mask)
    T.backward(loss)
    for name, p in model.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


def test_residual_sums_are_freed_while_loss_lives(tiny_config, tiny_corpus, monkeypatch):
    spec = BackboneSpec((LayerSpec.attention(standard_backbone(1).layers[0].dag),
                         LayerSpec.conv(3)))
    ids = tiny_corpus.train[:4]
    masks = np.zeros(ids.shape, dtype=bool)
    masks[:, ::5] = True

    def grads(record):
        model = build_model(spec, tiny_config, rng=0)
        sums = []
        add = M.add

        def recording_add(a, b):
            out = add(a, b)
            sums.append(weakref.ref(out.data))
            return out

        if record:
            monkeypatch.setattr(M, "add", recording_add)
        loss = T.masked_cross_entropy(model.forward(ids), ids, masks)
        monkeypatch.undo()
        freed = [ref() is None for ref in sums]
        T.backward(loss)
        return freed, {name: p.grad for name, p in model.params.items()}

    freed, got = grads(record=True)
    # embedding + positions, then each block's residual sums: only the first
    # stays, since the first block's projections read a view of it
    assert freed == [False, True, True, True]
    _, want = grads(record=False)
    assert all(np.array_equal(got[name], want[name]) for name in want)


def test_training_peak_memory_does_not_grow_with_steps():
    config = ModelConfig(num_layers=4, d_model=32, n_heads=2)
    corpus = synth_corpus(seed=0, size=64, vocab=config.vocab, seq_len=config.seq_len)

    def peak(steps):
        model = build_model(standard_backbone(config.num_layers), config, rng=0)
        tracemalloc.start()
        try:
            mlm_pretrain(model, corpus, steps, OptimConfig(warmup=0), rng=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    # a step's graph must be freed before the next step builds its own
    assert three <= 1.1 * one, (one, three)


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_a_repeated_training_run_and_proxy_pass_fault_no_memory_back_in():
    # in a fresh interpreter, so no heap layout an earlier test left counts
    script = textwrap.dedent("""\
        import resource
        from opnas.model import (ModelConfig, OptimConfig, build_model, mlm_pretrain,
                                 proxy_evaluate, synth_corpus)
        from opnas.search_space import standard_backbone
        config = ModelConfig(num_layers=2, d_model=64, n_heads=4, seq_len=32)
        corpus = synth_corpus(seed=0, size=128, vocab=config.vocab, seq_len=config.seq_len)

        def unit():
            model = build_model(standard_backbone(config.num_layers), config, rng=0)
            mlm_pretrain(model, corpus, 3, OptimConfig(batch_size=8, warmup=0), rng=0)
            proxy_evaluate(model, corpus.heldout)

        unit()  # grows the heap to the unit's peak
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        unit()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(M.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout)
    # freed step graphs and proxy chunks stay in the heap for the next ones;
    # returned to the OS, they fault back in by the thousand
    assert faults < 64, faults


def test_backward_peak_above_the_forward_stays_below_half_the_parameters():
    # a walk that released nothing would hold the whole graph next to every
    # gradient, so its peak above the forward's level is at least the
    # parameters' bytes; released as it walks, the graph shrinks as fast as
    # the gradients grow
    config = ModelConfig(num_layers=6, d_model=64, n_heads=4, seq_len=16)
    corpus = synth_corpus(seed=0, size=16, vocab=config.vocab, seq_len=config.seq_len)
    model = build_model(standard_backbone(config.num_layers), config, rng=0)
    rng = np.random.default_rng(0)
    ids, masks = map(np.stack, zip(*(mask_tokens(seq, rng, config.vocab)
                                     for seq in corpus.train[:4])))
    param_bytes = sum(p.data.nbytes for p in model.parameters())
    tracemalloc.start()
    try:
        loss = T.masked_cross_entropy(model.forward(ids), corpus.train[:4], masks)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - after_forward < param_bytes / 2, (peak - after_forward, param_bytes)


def test_mlm_pretrain_leaves_no_gradients(tiny_config, tiny_corpus):
    model = build_model(autobert_zero_backbone(tiny_config.num_layers), tiny_config, rng=0)
    mlm_pretrain(model, tiny_corpus, 2, OptimConfig(batch_size=4), rng=0)
    assert all(p.grad is None for p in model.parameters())


# softmax(q k^T) v, plus a dead logsigmoid(p) -> euclidean branch: p is
# declared and has a projection, but no live node reads it
DEAD_CODE_DAG = AttentionDag(("q", "k", "v", "p"), (
    DagNode("transpose", ("k",)),
    DagNode("matmul", ("q", 0)),
    DagNode("softmax", (1,)),
    DagNode("logsigmoid", ("p",)),
    DagNode("euclidean", ("q", 3)),
    DagNode("matmul", (2, "v")),
))


def test_dead_code_changes_no_logit_loss_or_gradient(tiny_config, tiny_corpus, monkeypatch):
    spec = BackboneSpec((LayerSpec.attention(DEAD_CODE_DAG), LayerSpec.conv(3)))
    ids = tiny_corpus.train[:4]
    rng = np.random.default_rng(0)
    corrupted, mask = map(np.stack, zip(*[mask_tokens(seq, rng, vocab=tiny_config.vocab)
                                          for seq in ids]))

    def run():
        # records the ops the dead branch would run: euclidean calls and the
        # matmul operands, among them the p projection's weight
        ops, operands = [], set()
        monkeypatch.setitem(T.BINARY_OP_KINDS, "euclidean",
                            lambda a, b: ops.append("euclidean") or T.euclidean_distance(a, b))
        monkeypatch.setattr(M, "matmul", lambda a, b: operands.add(id(b)) or T.matmul(a, b))
        model = build_model(spec, tiny_config, rng=0)
        logits = model.forward(corrupted)
        loss = T.masked_cross_entropy(logits, ids, mask)
        T.backward(loss)
        projected_p = id(model.params["layer0.att.p"]) in operands
        trained, losses = mlm_pretrain(build_model(spec, tiny_config, rng=0), tiny_corpus,
                                       steps=3, optim=OptimConfig(batch_size=4, warmup=1),
                                       rng=np.random.default_rng(1))
        return SimpleNamespace(ops=ops, projected_p=projected_p, model=model,
                               logits=logits.data, loss=loss.item(), trained=trained,
                               losses=losses)

    pruned = run()
    # the reference evaluates every node and projects every declared input
    monkeypatch.setattr(S.AttentionDag, "live",
                        property(lambda dag: (tuple(range(len(dag.nodes))), dag.inputs)))
    full = run()

    assert pruned.ops == [] and not pruned.projected_p
    assert full.ops and full.projected_p
    assert np.array_equal(pruned.logits, full.logits)
    assert pruned.loss == full.loss
    for name, p in pruned.model.params.items():
        want = full.model.params[name].grad
        assert (p.grad is None) == (want is None), name
        assert p.grad is None or np.array_equal(p.grad, want), name
    assert pruned.model.params["layer0.att.p"].grad is None
    assert pruned.losses == full.losses
    for name, p in pruned.trained.params.items():
        assert np.array_equal(p.data, full.trained.params[name].data), name
    # Adam leaves the dead input's projection as it was built
    fresh = build_model(spec, tiny_config, rng=0)
    assert np.array_equal(pruned.trained.params["layer0.att.p"].data,
                          fresh.params["layer0.att.p"].data)


# ---------------------------------------------------------------------------
# training


def test_initial_loss_near_uniform(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=0)
    _, losses = mlm_pretrain(model, tiny_corpus, steps=1,
                             optim=OptimConfig(batch_size=4, warmup=1),
                             rng=np.random.default_rng(0))
    assert abs(losses[0] - np.log(tiny_config.vocab)) / np.log(tiny_config.vocab) < 0.1


def test_training_reduces_loss(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=0)
    model, losses = mlm_pretrain(model, tiny_corpus, steps=120,
                                 optim=OptimConfig(lr=3e-3, batch_size=8,
                                                   warmup=20),
                                 rng=np.random.default_rng(0))
    early = float(np.mean(losses[:10]))
    late = float(np.mean(losses[-10:]))
    assert late < early - 0.1


def test_training_deterministic(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    curves = []
    for _ in range(2):
        model = build_model(spec, tiny_config, rng=1)
        _, losses = mlm_pretrain(model, tiny_corpus, steps=10,
                                 optim=OptimConfig(batch_size=4, warmup=5),
                                 rng=np.random.default_rng(9))
        curves.append(losses)
    assert curves[0] == curves[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_is_training_diverged_when_warnings_are_errors(tiny_config, tiny_corpus):
    # the first update overflows every later matmul; that must end in the
    # documented exception, raised by an op's own finiteness check (the
    # loss op's included), not numpy's overflow warning
    model = build_model(standard_backbone(tiny_config.num_layers), tiny_config, rng=1)
    with pytest.raises(M.TrainingDiverged,
                       match=r"^step \d+: \w+ produced non-finite values$"):
        mlm_pretrain(model, tiny_corpus, steps=3,
                     optim=OptimConfig(lr=1e200, batch_size=4, warmup=0))


def test_proxy_score_fixed_masks(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=0)
    a = proxy_evaluate(model, tiny_corpus.heldout)
    b = proxy_evaluate(model, tiny_corpus.heldout)
    assert a.value == b.value
    assert 0.0 <= a.value <= 1.0
    assert "masked_token_accuracy" in a.components


def _per_sequence_proxy(model, heldout):
    """The proxy score one sequence at a time, as a plain reference."""
    correct = total = 0
    for seq in heldout:
        rng = np.random.default_rng([0, *seq])
        mask = rng.random(len(seq)) < MASK_FRACTION
        if not mask.any():
            mask[int(rng.integers(len(seq)))] = True
        pred = model.forward(np.where(mask, MASK_ID, seq)).data.argmax(axis=-1)
        correct += int((pred[mask] == seq[mask]).sum())
        total += int(mask.sum())
    return correct / total


@pytest.fixture(scope="module")
def trained_hybrid(tiny_config, tiny_corpus):
    """A model that predicts enough masked tokens for a proxy score to tell chunks apart."""
    model = build_model(autobert_zero_backbone(tiny_config.num_layers), tiny_config, rng=0)
    mlm_pretrain(model, tiny_corpus, 300, OptimConfig(lr=1e-2, batch_size=8, warmup=5),
                 rng=np.random.default_rng(0))
    return model


@pytest.mark.parametrize("count", [PROXY_CHUNK, 2 * PROXY_CHUNK + 3, 5])
def test_proxy_evaluate_equals_per_sequence_reference(count, trained_hybrid, tiny_corpus):
    heldout = tiny_corpus.heldout[:count]
    want = _per_sequence_proxy(trained_hybrid, heldout)
    assert want > 0.2
    assert proxy_evaluate(trained_hybrid, heldout).value == want


def test_scoring_forward_shares_arrays_and_equals_forward(trained_hybrid, tiny_corpus):
    scorer = trained_hybrid.without_grad()
    assert all(scorer.params[name].data is p.data
               for name, p in trained_hybrid.params.items())
    ids = tiny_corpus.heldout[:PROXY_CHUNK]
    got = scorer.forward(ids)
    assert not got.requires_grad and got._node is None  # no graph recorded
    assert np.array_equal(got.data, trained_hybrid.forward(ids).data)


def test_proxy_evaluate_records_no_graph(tiny_config, tiny_corpus, monkeypatch):
    model = build_model(autobert_zero_backbone(tiny_config.num_layers), tiny_config, rng=0)
    logits = []
    forward = M.Model.forward

    def recording_forward(self, ids):
        logits.append(forward(self, ids))
        return logits[-1]

    monkeypatch.setattr(M.Model, "forward", recording_forward)
    proxy_evaluate(model, tiny_corpus.heldout)
    assert len(logits) == -(-len(tiny_corpus.heldout) // PROXY_CHUNK)
    assert not any(out.requires_grad for out in logits)
    assert all(p.grad is None for p in model.parameters())


def test_mlm_pretrain_masks_each_drawn_sequence_in_draw_order(tiny_config, tiny_corpus,
                                                              monkeypatch):
    seen = []

    def recording_mask_tokens(seq, rng, vocab):
        seen.append(seq.copy())
        return mask_tokens(seq, rng, vocab)

    monkeypatch.setattr(M, "mask_tokens", recording_mask_tokens)
    model = build_model(standard_backbone(tiny_config.num_layers), tiny_config, rng=0)
    optim = OptimConfig(batch_size=3, warmup=2)
    mlm_pretrain(model, tiny_corpus, 4, optim, rng=np.random.default_rng(7))
    # replay the stream: each step draws its indices, then masks each sequence
    rng = np.random.default_rng(7)
    want = []
    for _ in range(4):
        for i in rng.integers(0, len(tiny_corpus.train), size=optim.batch_size):
            want.append(tiny_corpus.train[i])
            mask_tokens(tiny_corpus.train[i], rng, tiny_corpus.vocab)
    assert len(seen) == len(want) == 4 * optim.batch_size
    assert all(np.array_equal(a, b) for a, b in zip(seen, want))


def test_untrained_accuracy_near_chance(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=5)
    score = proxy_evaluate(model, tiny_corpus.heldout)
    assert score.value < 0.2


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=2, d_model=30, n_heads=4)
    with pytest.raises(ValueError, match="num_layers must be >= 1, got 0"):
        ModelConfig(num_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=2, d_model=32, n_heads=2, vocab=8)
    cfg = ModelConfig(num_layers=2, d_model=32, n_heads=4)
    assert cfg.d_h == 8


@pytest.mark.parametrize("field,value", [("num_layers", 2.9), ("d_model", 32.0),
                                         ("vocab", True), ("seq_len", "16")])
def test_model_config_refuses_a_non_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be int, got {value!r}"):
        ModelConfig(**{field: value})


def test_configs_take_numpy_numbers():
    assert ModelConfig(num_layers=np.int64(2), d_model=32, n_heads=np.int32(4)).d_h == 8
    assert OptimConfig(lr=np.float32(0.5), warmup=np.int64(0), batch_size=2).lr == 0.5
    assert OptimConfig(lr=1).lr == 1


def test_conv_only_backbone_trains(tiny_config, tiny_corpus):
    spec = BackboneSpec(tuple(LayerSpec.conv(3)
                              for _ in range(tiny_config.num_layers)))
    model = build_model(spec, tiny_config, rng=0)
    model, losses = mlm_pretrain(model, tiny_corpus, steps=5,
                                 optim=OptimConfig(batch_size=4, warmup=2),
                                 rng=np.random.default_rng(0))
    assert len(losses) == 5
    assert all(np.isfinite(v) for v in losses)


# ---------------------------------------------------------------------------
# compatibility with the per-head layout (one d x d_h Parameter per head,
# named layer{i}.att.{name}.h{h}); tests/data/README.md says how the
# reference file was written

COMPAT_CONFIG = ModelConfig(num_layers=4, d_model=8, n_heads=2, vocab=16, seq_len=8)
COMPAT_SPECS = {"hybrid": autobert_zero_backbone(4), "standard": standard_backbone(4)}


@pytest.fixture(scope="module")
def per_head():
    with np.load(Path(__file__).parent / "data" / "per_head_model.npz") as f:
        return dict(f)


@pytest.mark.parametrize("tag", COMPAT_SPECS)
def test_stacked_projections_equal_per_head_draws(tag, per_head):
    model = build_model(COMPAT_SPECS[tag], COMPAT_CONFIG, rng=0)
    heads = range(COMPAT_CONFIG.n_heads)
    stacked = [n for n in model.params if ".att." in n and not n.endswith(".wo")]
    assert {f"{tag}/{n}.h{h}" for n in stacked for h in heads} == \
        {k for k in per_head if k.startswith(f"{tag}/layer")}
    for name in stacked:
        want = np.stack([per_head[f"{tag}/{name}.h{h}"] for h in heads])
        assert np.array_equal(model.params[name].data, want)


@pytest.mark.parametrize("tag", COMPAT_SPECS)
def test_logits_and_first_loss_equal_per_head_model(tag, per_head):
    corpus = synth_corpus(seed=0, size=32, vocab=16, seq_len=8)
    model = build_model(COMPAT_SPECS[tag], COMPAT_CONFIG, rng=0)
    assert np.array_equal(model.forward(corpus.train[0]).data, per_head[f"{tag}/logits"])
    _, losses = mlm_pretrain(model, corpus, 3, OptimConfig(batch_size=4, warmup=2), rng=0)
    want = per_head[f"{tag}/losses"]
    assert losses[0] == want[0]
    # later steps may differ by float reassociation of the summed head gradients
    assert np.abs(np.array(losses) - want).max() < 1e-12


# a training fingerprint: bit-exact losses and final weights of a short run,
# written by an earlier commit (tests/data/README.md), so a kernel change
# cannot drift the training arithmetic unnoticed

FINGERPRINT_CONFIG = ModelConfig(num_layers=2, d_model=16, n_heads=2, vocab=32, seq_len=16)


@pytest.mark.parametrize("tag,backbone", [("autobert_zero", autobert_zero_backbone),
                                          ("standard", standard_backbone)])
def test_training_equals_the_pinned_fingerprint(tag, backbone):
    corpus = synth_corpus(seed=0, size=32, vocab=32, seq_len=16)
    model = build_model(backbone(2), FINGERPRINT_CONFIG, rng=0)
    _, losses = mlm_pretrain(model, corpus, 3, OptimConfig(batch_size=4, warmup=2), rng=0)
    with np.load(Path(__file__).parent / "data" / "training_fingerprint.npz") as f:
        want = {k[len(tag) + 1:]: f[k] for k in f.files if k.startswith(f"{tag}/")}
    assert np.array_equal(np.array(losses), want.pop("losses"))
    assert set(want) == set(model.params)
    for name, p in model.params.items():
        assert np.array_equal(p.data, want[name]), name
