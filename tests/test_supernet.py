"""Shared-weight store: slicing, transforms, write-back, evaluator."""

import json
from pathlib import Path

import numpy as np
import pytest

from opnas.evolution import EvalRecord, EvalResult, SearchConfig, search
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
    param_shapes,
    softplus_key_attention_dag,
    standard_backbone,
)
from opnas.supernet import (
    CENTER_INDEX,
    BiwsEvaluator,
    Supernet,
    center_slice,
    init_candidate,
    init_supernet,
    write_back,
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


def conv_backbone(k: int, num_layers: int = 4) -> BackboneSpec:
    return BackboneSpec((LayerSpec.conv(k),) * num_layers)


def effective_kernel(sn, layer: int, k: int) -> np.ndarray:
    """The kernel a k-tap conv layer convolves with: transform @ center rows."""
    params = init_candidate(sn, conv_backbone(k, sn.config.num_layers))
    kernel = params[f"layer{layer}.conv.kernel"]
    return kernel if k == MAX_KERNEL else params[f"layer{layer}.conv.transform.{k}"] @ kernel


def short_kernel(sn, layer: int, k: int) -> dict[str, np.ndarray]:
    """Layer ``layer``'s extracted k-tap kernel and transform, as writable copies."""
    params = init_candidate(sn, conv_backbone(k, sn.config.num_layers))
    stem = f"layer{layer}.conv"
    return {name: params[name].copy() for name in (f"{stem}.kernel", f"{stem}.transform.{k}")}


def test_extract_with_identity_transform_is_center_slice(sn):
    for k in TRANSFORM_SIZES:
        got = effective_kernel(sn, 1, k)
        want = sn.store["layer1.conv.kernel"][center_slice(k)]
        assert np.array_equal(got, want)


def assert_pair_comes_back(sn, layer: int, k: int, trained) -> None:
    """Extraction after write-back hands back the trained S and T, bit for bit."""
    back = short_kernel(sn, layer, k)
    kernel, transform = f"layer{layer}.conv.kernel", f"layer{layer}.conv.transform.{k}"
    assert np.array_equal(back[kernel], trained[kernel])
    assert np.array_equal(back[transform], trained[transform])
    assert np.array_equal(effective_kernel(sn, layer, k),
                          trained[transform] @ trained[kernel])


def test_conv_round_trip_identity_transform(sn):
    k = 9
    trained = short_kernel(sn, 0, k)
    trained["layer0.conv.kernel"] += 0.25
    write_back(sn, trained)
    assert_pair_comes_back(sn, 0, k, trained)


@pytest.mark.parametrize("k", TRANSFORM_SIZES)
def test_conv_round_trip_random_transform(sn, k, rng):
    trained = short_kernel(sn, 2, k)
    transform = np.eye(k) + 0.2 * rng.normal(size=(k, k))
    kernel = trained["layer2.conv.kernel"] + 0.1 * rng.normal(size=(k, sn.config.d_model))
    trained.update({"layer2.conv.kernel": kernel, f"layer2.conv.transform.{k}": transform})
    write_back(sn, trained)
    assert_pair_comes_back(sn, 2, k, trained)


def test_write_back_preserves_flanks(sn):
    before = sn.store["layer0.conv.kernel"].copy()
    k = 7
    trained = short_kernel(sn, 0, k)
    trained["layer0.conv.kernel"] += 1.0
    write_back(sn, trained)
    after = sn.store["layer0.conv.kernel"]
    s = center_slice(k)
    assert np.array_equal(after[: s.start], before[: s.start])
    assert np.array_equal(after[s.stop :], before[s.stop :])
    assert not np.array_equal(after[s], before[s])


def test_singular_transform_comes_back_exactly(sn, rng):
    k = 3
    transform = np.zeros((k, k))
    transform[0, 0] = 1.0  # rank 1, cond = inf
    # T S reads only row 0 of S, so solving back from T S would lose rows 1 and 2
    trained = {"layer3.conv.kernel": rng.normal(size=(k, sn.config.d_model)),
               "layer3.conv.transform.3": transform}
    write_back(sn, trained)
    assert_pair_comes_back(sn, 3, k, trained)


def test_attention_round_trip(sn, config, rng):
    # layer 1 reads all four projections
    every_input = AttentionDag(inputs=INPUT_NAMES, nodes=(
        DagNode("add", ("q", "k")), DagNode("add", (0, "v")), DagNode("add", (1, "p"))))
    layers = list(standard_backbone(config.num_layers).layers)
    layers[1] = LayerSpec.attention(every_input)
    spec = BackboneSpec(tuple(layers))
    w = {key: value for key, value in init_candidate(sn, spec).items()
         if key.startswith("layer1.att.")}
    assert set(w) == {f"layer1.att.{name}" for name in ("q", "k", "v", "p", "wo")}
    w["layer1.att.v"] = w["layer1.att.v"] + rng.normal(size=w["layer1.att.v"].shape)
    write_back(sn, w)
    back = init_candidate(sn, spec)
    for name in w:
        assert np.abs(back[name] - w[name]).max() < 1e-7


def test_write_back_bumps_version_strictly(sn):
    seen = [list(sn.versions)]
    for _ in range(3):
        write_back(sn, {"layer0.conv.kernel": sn.store["layer0.conv.kernel"]})
        seen.append(list(sn.versions))
    # one candidate spans every layer, so every layer's version moves
    assert seen == [[v] * 4 for v in (0, 1, 2, 3)]


def test_write_back_rejects_bad_shapes(sn):
    d = sn.config.d_model
    for trained in ({"layer0.conv.kernel": np.ones((4, 4))},
                    {"layer0.conv.kernel": np.ones((MAX_KERNEL, d + 1))},
                    {"layer0.att.q": np.ones((3, 3))},
                    {"layer0.conv.kernel": np.ones((5, d)),
                     "layer0.conv.transform.5": np.eye(3)}):
        with pytest.raises(ValueError):
            write_back(sn, trained)


MALFORMED = {
    "unknown name": {"layer0.conv.slice.5": np.ones((5, 32))},
    "kernel off the menu": {"layer0.conv.kernel": np.ones((4, 32))},
    "kernel without its transform": {"layer0.conv.kernel": np.ones((5, 32))},
    "short kernel of the wrong width": {"layer0.conv.kernel": np.ones((5, 31)),
                                        "layer0.conv.transform.5": np.eye(5)},
    "transform of the wrong shape": {"layer0.conv.kernel": np.ones((5, 32)),
                                     "layer0.conv.transform.5": np.eye(3)},
    "stored shape": {"layer1.att.wo": np.ones((32, 31))},
}


@pytest.mark.parametrize("bad", MALFORMED, ids=list(MALFORMED))
def test_write_back_refuses_malformed_before_writing(sn, bad):
    # a valid array comes first, so a write-as-you-go rule would store it
    trained = {"tok_emb": sn.store["tok_emb"] + 1.0, **MALFORMED[bad]}
    before = {key: value.copy() for key, value in sn.store.items()}
    with pytest.raises(ValueError):
        write_back(sn, trained)
    assert sn.versions == [0] * sn.config.num_layers
    assert all(np.array_equal(sn.store[key], value) for key, value in before.items())


# ---------------------------------------------------------------------------
# candidate initialization


def test_init_candidate_views_match_store(sn, config):
    spec = autobert_zero_backbone(config.num_layers)
    params = init_candidate(sn, spec)
    # read-only views: build_model makes the one copy, and nothing writes
    # through a view into the store
    for key, value in params.items():
        assert np.shares_memory(value, sn.store[key]), key
        assert not value.flags.writeable, key
    with pytest.raises(ValueError):
        params["tok_emb"][0, 0] = 1.0
    with pytest.raises(ValueError):
        params["layer0.conv.kernel"] += 1.0
    assert np.array_equal(params["tok_emb"], sn.store["tok_emb"])
    # layer 1 runs the softplus-key formula: q and k projections only
    assert "layer1.att.q" in params and "layer1.att.v" not in params
    assert np.array_equal(params["layer1.att.k"], sn.store["layer1.att.k"])
    # conv layers with k < 65 carry the kernel's center rows under its name
    assert params["layer0.conv.kernel"].shape == (65, config.d_model)
    small = [key for key in params
             if key.endswith(".conv.kernel") and len(params[key]) < 65]
    assert small, "expected sliced kernels for k < 65"
    for key in small:
        layer = int(key.split(".")[0].removeprefix("layer"))
        k = params[key].shape[0]
        want = sn.store[f"layer{layer}.conv.kernel"][center_slice(k)]
        assert np.array_equal(params[key], want)


def test_init_candidate_names_are_store_keys():
    # one conv layer per menu size, then one attention layer
    config = ModelConfig(num_layers=len(KERNEL_MENU) + 1, d_model=8, n_heads=2,
                         vocab=16, seq_len=8)
    spec = BackboneSpec((*map(LayerSpec.conv, KERNEL_MENU),
                         LayerSpec.attention(softplus_key_attention_dag())))
    store = init_supernet(config, rng=0)
    rng = np.random.default_rng(1)
    for i in range(config.num_layers):
        for k in TRANSFORM_SIZES:
            store.store[f"layer{i}.conv.transform.{k}"] = rng.normal(size=(k, k))
    params = init_candidate(store, spec)
    assert set(params) <= set(store.store)
    for i, k in enumerate(KERNEL_MENU):
        kernel = store.store[f"layer{i}.conv.kernel"]
        assert np.array_equal(params[f"layer{i}.conv.kernel"], kernel[center_slice(k)])
        transform = f"layer{i}.conv.transform.{k}"
        assert (transform in params) == (k != MAX_KERNEL)
        if k != MAX_KERNEL:
            assert np.array_equal(params[transform], store.store[transform])
    # the model convolves with transform @ center rows, the extracted kernel
    model = build_model(spec, config, params=params)
    assert set(model.params) == set(params)
    extracted = {name: value for name, value in params.items()
                 if ".conv.transform." not in name}
    for i, k in enumerate(TRANSFORM_SIZES):
        extracted[f"layer{i}.conv.kernel"] = (params[f"layer{i}.conv.transform.{k}"]
                                             @ params[f"layer{i}.conv.kernel"])
    ids = np.arange(config.seq_len) % config.vocab
    assert np.allclose(model.forward(ids).data,
                       build_model(spec, config, params=extracted).forward(ids).data,
                       rtol=0, atol=1e-12)
    missing = {name: value for name, value in params.items()
               if name != "layer2.conv.kernel"}
    with pytest.raises(ValueError, match=r"missing parameter layer2\.conv\.kernel"):
        build_model(spec, config, params=missing)
    with pytest.raises(ValueError, match=r"layer1\.conv\.transform\.5: shape"):
        build_model(spec, config, params={**params, "layer1.conv.transform.5": np.eye(3)})


def test_init_candidate_rejects_depth_mismatch(sn):
    with pytest.raises(ValueError):
        init_candidate(sn, standard_backbone(2))


# every way to read the parameter table of a spec, each refusing another depth
SPEC_READERS = {
    "param_shapes": lambda sn, spec: param_shapes(sn.config, spec),
    "fresh-build": lambda sn, spec: build_model(spec, sn.config),
    "build-with-params": lambda sn, spec: build_model(spec, sn.config, params=sn.store),
    "init_candidate": init_candidate,
}


@pytest.mark.parametrize("depth", [3, 5], ids=["shorter", "longer"])
@pytest.mark.parametrize("reader", SPEC_READERS)
def test_a_spec_of_another_depth_is_refused(reader, depth, sn):
    with pytest.raises(ValueError, match=f"spec has {depth} layers, config expects 4"):
        SPEC_READERS[reader](sn, standard_backbone(depth))


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


def test_evaluator_from_scratch_protocol(tiny_config, tiny_corpus, tmp_path):
    ev = BiwsEvaluator(tiny_config, tiny_corpus, steps=4,
                       optim=OptimConfig(batch_size=4, warmup=2), seed=0)
    spec = standard_backbone(tiny_config.num_layers)
    s1 = ev(spec, candidate_id=3)
    s2 = ev(spec, candidate_id=3)
    assert s1 == s2
    assert 0.0 <= s1.score <= 1.0
    assert s1.payload is None
    other = ev(spec, candidate_id=4)
    assert isinstance(other.score, float)
    # fresh weights and training share one generator keyed by (seed, id)
    rng = np.random.default_rng([0, 3])
    model = build_model(spec, tiny_config, rng=rng)
    mlm_pretrain(model, tiny_corpus, 4, OptimConfig(batch_size=4, warmup=2), rng)
    trained = ev.train(spec, 3)
    assert all(np.array_equal(p.data, trained.params[name].data)
               for name, p in model.params.items())
    ev.on_iteration_end(0, [(EvalRecord(3, None, spec, s1.score, 0, 0.0), None)])
    # no store to write back to, so nowhere to save one
    with pytest.raises(ValueError):
        BiwsEvaluator(tiny_config, tiny_corpus, save_path=tmp_path / "sn.npz")


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
    search(cfg, ev)
    assert np.all(sn.store["tok_emb"] == 1.0)
    assert sn.versions == [1] * config.num_layers
    # no second ranking rule: a hook given two pairs refuses them
    spec = autobert_zero_backbone(config.num_layers)
    pair = (EvalRecord(0, None, spec, 0.5, 1, 0.0), dict(sn.store))
    with pytest.raises(ValueError):
        ev.on_iteration_end(1, [pair, pair])


# ---------------------------------------------------------------------------
# determinism of BIWS runs over process pools and resumes


class Crash(BaseException):
    """A hard stop in the middle of a run, as a kill would make one."""


class CrashingBiws(BiwsEvaluator):
    """BiwsEvaluator that stops its run when it is handed candidate
    ``at_candidate``, or once the write-back of iteration ``after_hook`` is
    saved; module level so a process pool can pickle it."""

    def __init__(self, *args, at_candidate=None, after_hook=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.at_candidate, self.after_hook = at_candidate, after_hook

    def __call__(self, spec, candidate_id):
        if candidate_id == self.at_candidate:
            raise Crash(f"at candidate {candidate_id}")
        return super().__call__(spec, candidate_id)

    def on_iteration_end(self, iteration, best):
        super().on_iteration_end(iteration, best)
        if iteration == self.after_hook:
            raise Crash(f"after the write-back of iteration {iteration}")


def _tiny_biws_search(out: Path, jobs: int = 1, max_iterations: int = 3,
                      resume: bool = False, **crash) -> None:
    """Population 4, k 2, one child each: iteration 0 scores ids 0-3, then
    each iteration two children; ``crash`` goes to ``CrashingBiws``."""
    config = ModelConfig(num_layers=2, d_model=16, n_heads=2, vocab=16, seq_len=8)
    corpus = synth_corpus(seed=0, size=16, vocab=16, seq_len=8)
    sn = Supernet.load(out / "sn.npz") if resume else init_supernet(config, rng=0)
    evaluator = CrashingBiws if crash else BiwsEvaluator
    ev = evaluator(sn, corpus, steps=1, optim=OptimConfig(batch_size=2),
                   seed=0, save_path=out / "sn.npz", **crash)
    cfg = SearchConfig(population_size=4, k=2, children_per_parent=1,
                       max_iterations=max_iterations, seed=0, num_layers=2,
                       jobs=jobs)
    search(cfg, ev, out_dir=out, resume=resume)


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_biws_run_crashed_mid_batch_resumes_to_uninterrupted(serial_biws_run, tmp_path,
                                                             jobs):
    # candidate 5 is the second child of iteration 1: the crash comes after
    # candidate 4 is scored and before the iteration commits
    with pytest.raises(Crash):
        _tiny_biws_search(tmp_path, jobs=jobs, at_candidate=5)
    _tiny_biws_search(tmp_path, jobs=jobs, resume=True)
    for name in RUN_FILES:
        assert (tmp_path / name).read_bytes() == (serial_biws_run / name).read_bytes(), name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_biws_run_crashed_after_the_write_back_resumes_to_uninterrupted(serial_biws_run,
                                                                        tmp_path):
    # the hook has saved iteration 1's write-back to sn.npz, but the
    # checkpoint still names iteration 0, so the resume replays iteration 1
    # on a supernet that already holds its write-back
    with pytest.raises(Crash):
        _tiny_biws_search(tmp_path, after_hook=1)
    _tiny_biws_search(tmp_path, resume=True)
    for name in RUN_FILES:
        assert (tmp_path / name).read_bytes() == (serial_biws_run / name).read_bytes(), name


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(config, tmp_path):
    sn = init_supernet(config, rng=4)
    write_back(sn, {"layer2.conv.kernel": sn.store["layer2.conv.kernel"] + 0.5})
    path = tmp_path / "supernet.npz"
    sn.save(path)
    loaded = Supernet.load(path)
    assert loaded.config == config
    assert loaded.versions == sn.versions
    assert loaded.keys() == sn.keys()
    for key in sn.keys():
        assert np.array_equal(loaded.store[key], sn.store[key])
    with np.load(path) as data:
        meta = json.loads(str(data["__meta__"]))
    assert set(meta) == {"version", "config", "layer_versions", "keys"}


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


def _flip_kernel_bytes(raw: bytes, sn: Supernet) -> bytes:
    # the archive stores each array's bytes as they are
    at = raw.index(sn.store["layer0.conv.kernel"].tobytes())
    return raw[:at] + bytes(b ^ 0xFF for b in raw[at:at + 64]) + raw[at + 64:]


UNREADABLE = {
    "empty": lambda raw, sn: b"",
    "truncated": lambda raw, sn: raw[:3000],
    "corrupt": _flip_kernel_bytes,
}


@pytest.mark.parametrize("damage", UNREADABLE)
def test_load_refuses_an_unreadable_file(damage, sn, tmp_path):
    path = tmp_path / "sn.npz"
    sn.save(path)
    path.write_bytes(UNREADABLE[damage](path.read_bytes(), sn))
    with pytest.raises(ValueError, match="unreadable archive"):
        Supernet.load(path)


def test_load_refuses_an_archive_without_meta(config, tmp_path):
    path = tmp_path / "sn.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **init_supernet(config, rng=0).store)
    with pytest.raises(ValueError, match="__meta__ must be an object"):
        Supernet.load(path)


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
    # written when the file still held the generator state, which load ignores
    with np.load(DATA / "supernet_v1.npz") as data:
        assert "rng_state" in json.loads(str(data["__meta__"]))


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
