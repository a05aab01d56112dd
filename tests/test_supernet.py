"""Shared-weight store: slicing, transforms, write-back, evaluator."""

import logging
from pathlib import Path

import numpy as np
import pytest

from opnas.evolution import Candidate, EvalResult, SearchConfig, search
from opnas.model import ModelConfig, OptimConfig, build_model, mlm_pretrain, synth_corpus
from opnas.search_space import (
    INPUT_NAMES,
    KERNEL_MENU,
    MAX_KERNEL,
    TRANSFORM_SIZES,
    AttentionDag,
    BackboneSpec,
    DagNode,
    LayerSpec,
    autobert_zero_backbone,
    softplus_key_attention_dag,
    standard_backbone,
)
from opnas.supernet import (
    CENTER_INDEX,
    BiwsEvaluator,
    Supernet,
    center_slice,
    extract_conv_kernel,
    init_candidate,
    init_supernet,
    write_back,
    write_back_shared,
)


@pytest.fixture(scope="module")
def config():
    return ModelConfig(num_layers=4, d_model=32, n_heads=2, vocab=32, seq_len=16)


@pytest.fixture
def sn(config):
    return init_supernet(config, rng=0)


# ---------------------------------------------------------------------------
# slicing geometry


def test_center_slice_is_centered_and_sized():
    for k in KERNEL_MENU:
        s = center_slice(k)
        assert s.stop - s.start == k
        # the window is symmetric about the stored kernel's center row
        assert s.start == CENTER_INDEX - (k - 1) // 2
        assert s.stop == CENTER_INDEX + (k - 1) // 2 + 1
    assert center_slice(MAX_KERNEL) == slice(0, MAX_KERNEL)


def test_center_slice_rejects_off_menu():
    for bad in (1, 4, 11, 67):
        with pytest.raises(ValueError):
            center_slice(bad)


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic(config):
    a = init_supernet(config, rng=7)
    b = init_supernet(config, rng=7)
    assert a.keys() == b.keys()
    for key in a.keys():
        assert np.array_equal(a.store[key], b.store[key])


def test_init_identity_transforms_unit_gains(sn, config):
    for i in range(config.num_layers):
        for k in TRANSFORM_SIZES:
            assert np.array_equal(sn.store[f"layer{i}.conv.transform.{k}"], np.eye(k))
        for part in ("ln_att", "ln_ffn", "ln_conv"):
            assert np.array_equal(sn.store[f"layer{i}.{part}.gain"], np.ones(32))
            assert np.array_equal(sn.store[f"layer{i}.{part}.bias"], np.zeros(32))


def test_init_weight_scale():
    cfg = ModelConfig(num_layers=2, d_model=64, n_heads=4, vocab=64, seq_len=32)
    net = init_supernet(cfg, rng=0)
    w = net.store["layer0.att.q"]
    assert abs(w.std() - 0.02) / 0.02 < 0.2
    assert abs(w.mean()) < 0.01


def test_versions_start_at_zero(sn, config):
    assert sn.versions == [0] * config.num_layers


# ---------------------------------------------------------------------------
# extraction and write-back


def test_extract_full_kernel_is_store_copy(sn):
    k = extract_conv_kernel(sn, 0, MAX_KERNEL)
    assert np.array_equal(k, sn.store["layer0.conv.kernel"])
    k[0, 0] += 1.0
    assert k[0, 0] != sn.store["layer0.conv.kernel"][0, 0]


def test_extract_with_identity_transform_is_center_slice(sn):
    for k in TRANSFORM_SIZES:
        got = extract_conv_kernel(sn, 1, k)
        want = sn.store["layer1.conv.kernel"][center_slice(k)]
        assert np.array_equal(got, want)


def test_extract_rejects_off_menu(sn):
    with pytest.raises(ValueError):
        extract_conv_kernel(sn, 0, 11)


def test_conv_round_trip_identity_transform(sn):
    k = 9
    eff = extract_conv_kernel(sn, 0, k)
    eff2 = eff + 0.25
    write_back(sn, 0, {"kernel": eff2, "transform": np.eye(k)}, kind="conv")
    back = extract_conv_kernel(sn, 0, k)
    assert np.abs(back - eff2).max() < 1e-7


@pytest.mark.parametrize("k", TRANSFORM_SIZES)
def test_conv_round_trip_random_transform(sn, k, rng):
    eff = extract_conv_kernel(sn, 2, k)
    transform = np.eye(k) + 0.2 * rng.normal(size=(k, k))
    new_eff = transform @ (eff + 0.1 * rng.normal(size=eff.shape))
    write_back(sn, 2, {"kernel": new_eff, "transform": transform}, kind="conv")
    back = extract_conv_kernel(sn, 2, k)
    assert np.abs(back - new_eff).max() < 1e-7


def test_write_back_preserves_flanks(sn):
    before = sn.store["layer0.conv.kernel"].copy()
    k = 7
    write_back(sn, 0, {"kernel": extract_conv_kernel(sn, 0, k) + 1.0,
                       "transform": np.eye(k)}, kind="conv")
    after = sn.store["layer0.conv.kernel"]
    s = center_slice(k)
    assert np.array_equal(after[: s.start], before[: s.start])
    assert np.array_equal(after[s.stop :], before[s.stop :])
    assert not np.array_equal(after[s], before[s])


def test_singular_transform_falls_back_to_pinv(sn, caplog):
    k = 3
    transform = np.zeros((k, k))
    transform[0, 0] = 1.0  # rank 1, cond = inf
    eff = np.ones((k, sn.config.d_model))
    with caplog.at_level(logging.WARNING):
        write_back(sn, 3, {"kernel": eff, "transform": transform}, kind="conv")
    assert any("pseudo-inverse" in rec.message for rec in caplog.records)
    assert np.isfinite(sn.store["layer3.conv.kernel"]).all()


def test_attention_round_trip(sn, config, rng):
    # layer 1 reads all four projections
    every_input = AttentionDag(inputs=INPUT_NAMES, nodes=(
        DagNode("add", ("q", "k")), DagNode("add", (0, "v")), DagNode("add", (1, "p"))))
    layers = list(standard_backbone(config.num_layers).layers)
    layers[1] = LayerSpec.attention(every_input)
    spec = BackboneSpec(tuple(layers))
    w = {key.removeprefix("layer1.att."): value
         for key, value in init_candidate(sn, spec).items() if key.startswith("layer1.att.")}
    assert set(w) == {"q", "k", "v", "p", "wo"}
    w["v"] = w["v"] + rng.normal(size=w["v"].shape)
    write_back(sn, 1, w, kind="attention")
    back = init_candidate(sn, spec)
    for name in w:
        assert np.abs(back[f"layer1.att.{name}"] - w[name]).max() < 1e-7


def test_write_back_bumps_version_strictly(sn):
    seen = [sn.versions[0]]
    for _ in range(3):
        write_back(sn, 0, {"kernel": extract_conv_kernel(sn, 0, 65)}, kind="conv")
        seen.append(sn.versions[0])
    assert seen == [0, 1, 2, 3]
    assert sn.versions[1:] == [0, 0, 0]


def test_write_back_rejects_bad_shapes(sn):
    with pytest.raises(ValueError):
        write_back(sn, 0, {"kernel": np.ones((4, 4))}, kind="conv")
    with pytest.raises(ValueError):
        write_back(sn, 0, {"q": np.ones((3, 3))}, kind="attention")
    with pytest.raises(ValueError):
        write_back(sn, 0, {}, kind="dense")


def test_write_back_shared_replaces_glue(sn, rng):
    emb = rng.normal(size=sn.store["tok_emb"].shape)
    write_back_shared(sn, {"tok_emb": emb})
    assert np.array_equal(sn.store["tok_emb"], emb)


# ---------------------------------------------------------------------------
# candidate initialization


def test_init_candidate_views_match_store(sn, config):
    spec = autobert_zero_backbone(config.num_layers)
    params = init_candidate(sn, spec)
    assert np.array_equal(params["tok_emb"], sn.store["tok_emb"])
    # layer 1 runs the softplus-key formula: q and k projections only
    assert "layer1.att.q" in params and "layer1.att.v" not in params
    assert np.array_equal(params["layer1.att.k"], sn.store["layer1.att.k"])
    # conv layers with k < 65 carry the transform/slice pair
    assert params["layer0.conv.kernel"].shape == (65, config.d_model)
    small = [key for key in params if ".conv.slice" in key]
    assert small, "expected sliced kernels for k < 65"
    for key in small:
        layer = int(key.split(".")[0].removeprefix("layer"))
        k = params[key].shape[0]
        want = sn.store[f"layer{layer}.conv.kernel"][center_slice(k)]
        assert np.array_equal(params[key], want)


def test_init_candidate_rejects_depth_mismatch(sn):
    with pytest.raises(ValueError):
        init_candidate(sn, standard_backbone(2))


# ---------------------------------------------------------------------------
# evaluator and best-child write-back


@pytest.fixture(scope="module")
def corpus(config):
    return synth_corpus(seed=0, size=64, vocab=config.vocab,
                        seq_len=config.seq_len)


def test_evaluator_scores_and_writes_back(config, corpus):
    sn = init_supernet(config, rng=0)
    ev = BiwsEvaluator(sn, corpus, steps=6,
                       optim=OptimConfig(batch_size=4, warmup=3), seed=0)
    spec = autobert_zero_backbone(config.num_layers)
    res = ev(spec, candidate_id=0)
    assert isinstance(res, EvalResult)
    assert 0.0 <= res.score <= 1.0
    assert res.payload

    class Cand:
        id, spec_, score = 0, spec, res.score

        def __init__(self):
            self.spec = spec

    before = [v for v in sn.versions]
    store_before = sn.store["tok_emb"].copy()
    ev.on_iteration_end(0, [(Cand(), res.payload)])
    assert all(a > b for a, b in zip(sn.versions, before))
    assert not np.array_equal(sn.store["tok_emb"], store_before)


def test_evaluator_is_deterministic_per_candidate(config, corpus):
    spec = autobert_zero_backbone(config.num_layers)
    scores = []
    for _ in range(2):
        sn = init_supernet(config, rng=0)
        ev = BiwsEvaluator(sn, corpus, steps=6,
                           optim=OptimConfig(batch_size=4, warmup=3), seed=0)
        scores.append(ev(spec, candidate_id=5).score)
    assert scores[0] == scores[1]


def test_evaluator_writes_best_only(config, corpus):
    # the search loop hands the hook its batch's best child alone: 1 ties
    # with 2 and wins on the lower id; each child's trained embedding is
    # marked with its id to show whose weights were written back
    scores = {0: 0.2, 1: 0.8, 2: 0.8, 3: 0.5}

    class Marked(BiwsEvaluator):
        def __call__(self, spec, candidate_id):
            res = super().__call__(spec, candidate_id)
            res.payload["tok_emb"][...] = candidate_id
            return EvalResult(scores[candidate_id], res.payload)

    sn = init_supernet(config, rng=0)
    ev = Marked(sn, corpus, steps=2, optim=OptimConfig(batch_size=4, warmup=2), seed=0)
    cfg = SearchConfig(population_size=4, k=2, max_iterations=0, seed=0,
                       num_layers=config.num_layers)
    search(cfg, ev, clock=lambda: 0.0)
    assert np.all(sn.store["tok_emb"] == 1.0)
    assert sn.versions == [1] * config.num_layers
    # no second ranking rule: a hook given two pairs refuses them
    spec = autobert_zero_backbone(config.num_layers)
    pair = (Candidate(0, spec, 0.5), dict(sn.store))
    with pytest.raises(ValueError):
        ev.on_iteration_end(1, [pair, pair])


# ---------------------------------------------------------------------------
# determinism of BIWS runs over process pools and resumes


def _tiny_biws_search(out: Path, jobs: int = 1, max_iterations: int = 3,
                      resume: bool = False) -> None:
    config = ModelConfig(num_layers=2, d_model=16, n_heads=2, vocab=16, seq_len=8)
    corpus = synth_corpus(seed=0, size=16, vocab=16, seq_len=8)
    sn = Supernet.load(out / "sn.npz") if resume else init_supernet(config, rng=0)
    ev = BiwsEvaluator(sn, corpus, steps=1, optim=OptimConfig(batch_size=2),
                       seed=0, save_path=out / "sn.npz")
    cfg = SearchConfig(population_size=4, k=2, children_per_parent=1,
                       max_iterations=max_iterations, seed=0, num_layers=2,
                       jobs=jobs)
    search(cfg, ev, out_dir=out, resume=resume, clock=lambda: 0.0)


RUN_FILES = ("history.jsonl", "checkpoint.json", "sn.npz")


@pytest.fixture(scope="module")
def serial_biws_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    _tiny_biws_search(out)
    return out


def test_biws_pool_run_equals_serial(serial_biws_run, tmp_path):
    _tiny_biws_search(tmp_path, jobs=2)
    for name in RUN_FILES:
        assert (tmp_path / name).read_bytes() == (serial_biws_run / name).read_bytes(), name


def test_biws_resumed_run_equals_uninterrupted(serial_biws_run, tmp_path):
    _tiny_biws_search(tmp_path, max_iterations=1)
    _tiny_biws_search(tmp_path, resume=True)
    for name in RUN_FILES:
        assert (tmp_path / name).read_bytes() == (serial_biws_run / name).read_bytes(), name


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(config, tmp_path):
    sn = init_supernet(config, rng=4)
    write_back(sn, 2, {"kernel": extract_conv_kernel(sn, 2, 65) + 0.5}, kind="conv")
    path = tmp_path / "supernet.npz"
    sn.save(path)
    loaded = Supernet.load(path)
    assert loaded.config == config
    assert loaded.versions == sn.versions
    assert loaded.keys() == sn.keys()
    for key in sn.keys():
        assert np.array_equal(loaded.store[key], sn.store[key])
    assert loaded.rng_state == sn.rng_state


def test_save_writes_exactly_the_given_path(config, tmp_path):
    sn = init_supernet(config, rng=1)
    path = tmp_path / "sn.ckpt"
    sn.save(path)
    sn.versions[0] += 1
    sn.save(path)  # replaces the file in place
    assert [p.name for p in tmp_path.iterdir()] == ["sn.ckpt"]
    loaded = Supernet.load(path)
    assert loaded.versions == sn.versions
    assert np.array_equal(loaded.store["layer0.att.q"], sn.store["layer0.att.q"])


# ---------------------------------------------------------------------------
# compatibility with files written under the per-head model layout; see
# tests/data/README.md

DATA = Path(__file__).parent / "data"


def test_per_head_era_checkpoint_equals_fresh_store():
    old = Supernet.load(DATA / "supernet_v1.npz")
    new = init_supernet(ModelConfig(num_layers=1, d_model=4, n_heads=2,
                                    vocab=16, seq_len=8), rng=0)
    assert old.config == new.config
    assert list(old.store) == old.keys() == new.keys()
    for key in new.keys():
        assert np.array_equal(old.store[key], new.store[key]), key
    assert old.versions == new.versions
    assert old.rng_state == new.rng_state


def test_supernet_initialized_first_loss_equals_per_head_model():
    cfg = ModelConfig(num_layers=4, d_model=8, n_heads=2, vocab=16, seq_len=8)
    corpus = synth_corpus(seed=0, size=32, vocab=16, seq_len=8)
    sn = init_supernet(cfg, rng=0)
    with np.load(DATA / "per_head_model.npz") as per_head:
        for tag, spec in (("hybrid", autobert_zero_backbone(4)),
                          ("standard", standard_backbone(4))):
            model = build_model(spec, cfg, params=init_candidate(sn, spec))
            _, losses = mlm_pretrain(model, corpus, 3,
                                     OptimConfig(batch_size=4, warmup=2), rng=0)
            want = per_head[f"{tag}/biws_losses"]
            assert losses[0] == want[0]
            assert np.abs(np.array(losses) - want).max() < 1e-12
