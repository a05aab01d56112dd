"""Synthetic corpus, masking, training loop, and encoder checks."""

from pathlib import Path

import numpy as np
import pytest

import oracles
from opnas import tensor as T
from opnas.model import (
    BIGRAM_FOLLOW_P,
    CONTENT_LO,
    MASK_FRACTION,
    MASK_ID,
    Corpus,
    MlmEvaluator,
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
    BackboneSpec,
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


def test_proxy_score_fixed_masks(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=0)
    a = proxy_evaluate(model, tiny_corpus.heldout, mask_seed=0)
    b = proxy_evaluate(model, tiny_corpus.heldout, mask_seed=0)
    assert a.value == b.value
    assert 0.0 <= a.value <= 1.0
    assert "masked_token_accuracy" in a.components


def test_untrained_accuracy_near_chance(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=5)
    score = proxy_evaluate(model, tiny_corpus.heldout)
    assert score.value < 0.2


def test_evaluator_protocol(tiny_config, tiny_corpus):
    ev = MlmEvaluator(tiny_config, tiny_corpus, steps=4,
                      optim=OptimConfig(batch_size=4, warmup=2), seed=0)
    spec = standard_backbone(tiny_config.num_layers)
    s1 = ev(spec, candidate_id=3)
    s2 = ev(spec, candidate_id=3)
    assert s1 == s2
    assert 0.0 <= float(s1) <= 1.0
    other = ev(spec, candidate_id=4)
    assert isinstance(float(other), float)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=2, d_model=30, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=2, d_model=32, n_heads=2, vocab=8)
    cfg = ModelConfig(num_layers=2, d_model=32, n_heads=4)
    assert cfg.d_h == 8


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
