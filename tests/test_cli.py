"""End-to-end command behavior through main(argv)."""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from opnas.cli import main
from opnas.evolution import EvalRecord, SearchConfig, read_history, search
from opnas.model import ModelConfig, OptimConfig, synth_corpus
from opnas.search_space import (
    BackboneSpec,
    LayerSpec,
    autobert_zero_backbone,
    deserialize,
    serialize,
    standard_backbone,
)
from opnas.supernet import BiwsEvaluator, Supernet, init_supernet


TINY_CFG = {
    "search": {"population_size": 4, "k": 2, "max_iterations": 2,
               "children_per_parent": 1, "seed": 3},
    "model": {"num_layers": 2, "d_model": 16, "n_heads": 2, "vocab": 32,
              "seq_len": 16},
    "corpus": {"size": 32},
    "trainer": {"steps": 4, "batch_size": 4, "warmup": 2},
}


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CFG))
    return path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# search


def test_search_writes_artifacts(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert run("search", "--config", tiny_cfg, "--out-dir", out) == 0
    assert (out / "history.jsonl").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "best.json").exists()
    assert (out / "config.json").exists()
    printed = capsys.readouterr().out
    assert "best score" in printed
    # best.json parses back into a valid backbone
    deserialize((out / "best.json").read_text())


def test_search_deterministic_across_runs(tiny_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("search", "--config", tiny_cfg, "--out-dir", a) == 0
    assert run("search", "--config", tiny_cfg, "--out-dir", b) == 0
    assert (a / "history.jsonl").read_bytes() == (b / "history.jsonl").read_bytes()
    assert (a / "best.json").read_bytes() == (b / "best.json").read_bytes()


def test_search_resume_extends_byte_identically(tiny_cfg, tmp_path):
    cfg = json.loads(Path(tiny_cfg).read_text())
    cfg["search"]["max_iterations"] = 4
    full_cfg = tmp_path / "full.json"
    full_cfg.write_text(json.dumps(cfg))

    gold = tmp_path / "gold"
    assert run("search", "--config", full_cfg, "--out-dir", gold) == 0

    part = tmp_path / "part"
    assert run("search", "--config", tiny_cfg, "--out-dir", part) == 0
    assert run("search", "--config", full_cfg, "--out-dir", part, "--resume") == 0
    assert (gold / "history.jsonl").read_bytes() == \
        (part / "history.jsonl").read_bytes()


def test_search_resume_without_checkpoint_is_exit_3(tiny_cfg, tmp_path):
    assert run("search", "--config", tiny_cfg, "--out-dir", tmp_path / "none",
               "--resume") == 3


def test_search_baselines_run(tiny_cfg, tmp_path):
    for baseline in ("rs", "ea"):
        out = tmp_path / baseline
        assert run("search", "--config", tiny_cfg, "--out-dir", out,
                   "--baseline", baseline) == 0
        assert len(read_history(out / "history.jsonl")) > 0


@pytest.mark.parametrize("baseline", ["op", "rs"])
def test_search_that_scores_nothing_is_exit_5(baseline, tiny_cfg, tmp_path, capsys):
    cfg = json.loads(Path(tiny_cfg).read_text())
    cfg["trainer"]["lr"] = 1e200  # every candidate's training diverges
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(cfg))
    assert run("search", "--config", bad_cfg, "--out-dir", tmp_path / "run",
               "--baseline", baseline) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: every candidate of 3 batches")


def test_search_flag_overrides_config(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert run("search", "--config", tiny_cfg, "--out-dir", out,
               "--population", "3", "--k", "1", "--iterations", "1") == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["search"]["population_size"] == 3
    assert resolved["search"]["k"] == 1
    assert resolved["search"]["max_iterations"] == 1


def test_search_biws_writes_supernet(tiny_cfg, tmp_path):
    ckpt = tmp_path / "sn.npz"
    out = tmp_path / "run"
    assert run("search", "--config", tiny_cfg, "--out-dir", out,
               "--biws", ckpt) == 0
    sn = Supernet.load(ckpt)
    assert any(v > 0 for v in sn.versions)


def test_search_biws_keeps_any_checkpoint_suffix(tiny_cfg, tmp_path):
    ckpt = tmp_path / "sn.ckpt"
    assert run("search", "--config", tiny_cfg, "--out-dir", tmp_path / "a",
               "--biws", ckpt) == 0
    assert not (tmp_path / "sn.ckpt.npz").exists()
    first = sum(Supernet.load(ckpt).versions)
    assert first > 0
    # a second run continues from the saved store instead of a fresh one
    assert run("search", "--config", tiny_cfg, "--out-dir", tmp_path / "b",
               "--biws", ckpt) == 0
    assert sum(Supernet.load(ckpt).versions) > first


def test_search_biws_resume_without_supernet_is_exit_3(tiny_cfg, tmp_path, capsys):
    ckpt, out = tmp_path / "sn.npz", tmp_path / "run"
    assert run("search", "--config", tiny_cfg, "--out-dir", out, "--biws", ckpt) == 0
    ckpt.unlink()
    history = (out / "history.jsonl").read_bytes()
    # fresh weights cannot continue the run: the resumed history would differ
    assert run("search", "--config", tiny_cfg, "--out-dir", out, "--biws", ckpt,
               "--resume", "--iterations", "3") == 3
    assert capsys.readouterr().err.strip() == \
        f"error: cannot resume: no supernet checkpoint at {ckpt}"
    assert not ckpt.exists()
    assert (out / "history.jsonl").read_bytes() == history


@pytest.mark.parametrize("keep", [3000, 0], ids=["truncated", "empty"])
@pytest.mark.parametrize("command", ["search", "eval"])
def test_cut_short_supernet_is_exit_3(command, keep, tiny_cfg, tmp_path, capsys):
    cfg = json.loads(Path(tiny_cfg).read_text())
    ckpt = tmp_path / "sn.npz"
    init_supernet(ModelConfig(**cfg["model"]), 0).save(ckpt)
    cut = ckpt.read_bytes()[:keep]
    ckpt.write_bytes(cut)
    if command == "eval":
        spec_path = tmp_path / "std.json"
        spec_path.write_text(serialize(standard_backbone(2)))
        argv = ("eval", spec_path)
    else:
        argv = ("search",)
    assert run(*argv, "--config", tiny_cfg, "--out-dir", tmp_path / "o",
               "--biws", ckpt) == 3
    assert capsys.readouterr().err.startswith("error: bad supernet checkpoint: ")
    assert ckpt.read_bytes() == cut


# how each file differs from what Supernet.save writes
MALFORMED_SUPERNETS = {
    "unknown-config-key": lambda meta, store: meta["config"].update(extra=1),
    "missing-config-key": lambda meta, store: meta["config"].pop("ffn_ratio"),
    "wrong-shape": lambda meta, store: store.update({"layer0.ffn.w1": np.zeros((16, 8))}),
    "short-layer-versions": lambda meta, store: meta.update(layer_versions=[0]),
    # JSON, but no object; it replaces the __meta__ written from ``meta``
    "meta-not-object": lambda meta, store: store.update(__meta__=np.array("[1, 2]")),
    "extra-array": lambda meta, store: store.update(junk=np.zeros(3)),
    "missing-meta-field": lambda meta, store: meta.pop("layer_versions"),
    "missing-array": lambda meta, store: store.pop("layer0.ffn.w1"),
    # write-back into an int64 kernel would truncate what it stores
    "int64-array": lambda meta, store: store.update(
        {"layer0.conv.kernel": store["layer0.conv.kernel"].astype(np.int64)}),
}


@pytest.mark.parametrize("command", ["search", "eval"])
@pytest.mark.parametrize("damage", MALFORMED_SUPERNETS)
def test_malformed_supernet_is_exit_3(damage, command, tiny_cfg, tmp_path, capsys):
    cfg = json.loads(Path(tiny_cfg).read_text())
    ckpt = tmp_path / "sn.npz"
    init_supernet(ModelConfig(**cfg["model"]), 0).save(ckpt)
    with np.load(ckpt) as data:
        store = {key: data[key] for key in data.files}
    meta = json.loads(str(store.pop("__meta__")))
    MALFORMED_SUPERNETS[damage](meta, store)
    with open(ckpt, "wb") as fh:
        np.savez(fh, **{"__meta__": np.array(json.dumps(meta)), **store})
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    argv = ("eval", spec_path) if command == "eval" else ("search",)
    out = tmp_path / "o"
    assert run(*argv, "--config", tiny_cfg, "--out-dir", out, "--biws", ckpt) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad supernet checkpoint: "), err
    assert not (out / "history.jsonl").exists()


def test_plain_array_supernet_is_exit_3_and_leaves_config_json(tiny_cfg, tmp_path, capsys):
    out, ckpt = tmp_path / "run", tmp_path / "sn.npz"
    out.mkdir()
    (out / "config.json").write_text("{}")
    with open(ckpt, "wb") as fh:
        np.save(fh, np.zeros(3))  # an .npy array, not an .npz archive
    assert run("search", "--config", tiny_cfg, "--out-dir", out, "--biws", ckpt) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: bad supernet checkpoint: not an .npz archive"]
    assert (out / "config.json").read_text() == "{}"


def test_search_with_no_evaluation_is_exit_5(tiny_cfg, tmp_path, capsys):
    # every candidate diverges at its first step, and no iteration follows
    # the initial population, so no batch limit is reached
    cfg = json.loads(Path(tiny_cfg).read_text())
    cfg["search"].update(population_size=2, max_iterations=0)
    cfg["trainer"].update(lr=1e300, warmup=0)
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(cfg))
    assert run("search", "--config", bad_cfg, "--out-dir", tmp_path / "run") == 5
    assert capsys.readouterr().err.splitlines()[-1] == "error: search produced no evaluations"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_search_jobs_below_1_is_exit_2(jobs, tiny_cfg, tmp_path):
    out = tmp_path / "run"
    assert run("search", "--config", tiny_cfg, "--out-dir", out, "--jobs", jobs) == 2
    assert not (out / "history.jsonl").exists()


@pytest.fixture(scope="module")
def biws_run(tmp_path_factory):
    """A finished tiny ``--biws`` search whose supernet sits in its run directory."""
    work = tmp_path_factory.mktemp("biws-run")
    cfg = work / "tiny.json"
    cfg.write_text(json.dumps(TINY_CFG))
    out = work / "run"
    assert run("search", "--config", cfg, "--out-dir", out, "--biws", out / "sn.npz") == 0
    return cfg, out


@pytest.fixture
def run_copy(biws_run, tmp_path):
    """A fresh copy of ``biws_run``: (run directory, argv resuming it)."""
    cfg, out = biws_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    return copy, ("search", "--config", cfg, "--out-dir", copy,
                  "--biws", copy / "sn.npz", "--resume")


@pytest.mark.parametrize("missing", ["checkpoint.json", "sn.npz"])
def test_refused_search_leaves_config_json(missing, run_copy):
    out, resume = run_copy
    before = (out / "config.json").read_bytes()
    (out / missing).unlink()
    assert run(*resume, "--iterations", "7") == 3
    assert (out / "config.json").read_bytes() == before


def test_refused_search_in_a_new_directory_writes_no_config_json(tiny_cfg, tmp_path):
    out = tmp_path / "none"
    assert run("search", "--config", tiny_cfg, "--out-dir", out, "--resume") == 3
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("payload", [[], {"version": 2}, "drop next_id"],
                         ids=["array", "version-only", "no-next-id"])
def test_malformed_search_checkpoint_is_exit_3(payload, run_copy, capsys):
    out, resume = run_copy
    path = out / "checkpoint.json"
    if payload == "drop next_id":
        payload = json.loads(path.read_text())
        del payload["next_id"]
    path.write_text(json.dumps(payload))
    assert run(*resume) == 3
    assert capsys.readouterr().err.startswith("error: malformed checkpoint: ")


def test_version_1_search_checkpoint_is_exit_3(run_copy, capsys):
    out, resume = run_copy
    path = out / "checkpoint.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": 1}))
    assert run(*resume) == 3
    assert capsys.readouterr().err.strip() == "error: unsupported checkpoint version 1"


def test_missing_history_row_is_exit_3(run_copy, capsys):
    out, resume = run_copy
    hist = out / "history.jsonl"
    lines = hist.read_text().splitlines(keepends=True)
    del lines[2]
    hist.write_text("".join(lines))
    assert run(*resume, "--iterations", "3") == 3
    assert capsys.readouterr().err.strip() == (
        f"error: history holds {len(lines)} evaluations up to iteration 2, "
        f"checkpoint counts {len(lines) + 1}")
    assert hist.read_text() == "".join(lines)


def test_resume_drops_a_torn_last_history_line(run_copy):
    out, resume = run_copy
    hist = out / "history.jsonl"
    committed = hist.read_bytes()
    # a crash inside the next iteration's history append
    hist.write_bytes(committed + committed.splitlines(keepends=True)[-1][:30])
    assert run(*resume) == 0
    assert hist.read_bytes() == committed


def test_search_max_path_len_beyond_what_eval_reads_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({**TINY_CFG, "search": {**TINY_CFG["search"],
                                                     "max_path_len": 20}}))
    out = tmp_path / "run"
    assert run("search", "--config", cfg, "--out-dir", out) == 2
    assert "max_path_len must be in 1..12" in capsys.readouterr().err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("section,key", [("corpus", "sise"), ("trainer", "stpes"),
                                         ("metrics", "seed")])
def test_unknown_config_key_is_exit_2(section, key, tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({**TINY_CFG, section: {key: 5}}))
    out = tmp_path / "run"
    assert run("search", "--config", cfg, "--out-dir", out) == 2
    assert capsys.readouterr().err.strip() == \
        f"error: unknown key {key!r} in config section {section!r}"
    assert not (out / "config.json").exists()


BAD_VALUES = [("trainer", "lr", -1), ("trainer", "lr", 0), ("trainer", "warmup", -5),
              ("trainer", "steps", 0), ("trainer", "batch_size", 0),
              ("corpus", "size", 1), ("corpus", "heldout_fraction", 1.0),
              ("trainer", "steps", "abc"), ("metrics", "seeds", 0),
              ("corpus", "heldout_fraction", -0.5), ("model", "num_layers", 0),
              ("search", "alpha", float("nan")), ("search", "alpha", float("inf")),
              # integer keys take integers, never a float, a bool or a string
              ("search", "k", 1.5), ("search", "k", True), ("search", "population_size", 4.0),
              ("search", "jobs", 1.5), ("search", "patience", 0.5),
              ("search", "max_iterations", "2"), ("trainer", "steps", 2.7),
              ("trainer", "warmup", 1.9), ("corpus", "size", 40.5),
              ("corpus", "seed", True), ("model", "num_layers", 2.9),
              # search budgets out of range
              ("search", "max_evaluations", 0), ("search", "max_evaluations", -3),
              ("search", "patience", -1)]


@pytest.mark.parametrize("section,key,value", BAD_VALUES,
                         ids=[f"{s}.{k}={v}" for s, k, v in BAD_VALUES])
@pytest.mark.parametrize("command", ["search", "metrics"])
def test_bad_config_value_is_exit_2(command, section, key, value, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TINY_CFG, section: {**TINY_CFG.get(section, {}),
                                                     key: value}}))
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    argv = ("metrics", spec_path) if command == "metrics" else ("search",)
    out = tmp_path / "run"
    assert run(*argv, "--config", cfg, "--out-dir", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (out / "config.json").exists()


NEGATIVE_SEEDS = [("flag", "search.seed"), ("search", "search.seed"),
                  ("corpus", "corpus.seed")]


@pytest.mark.parametrize("source,key", NEGATIVE_SEEDS, ids=[s for s, _ in NEGATIVE_SEEDS])
@pytest.mark.parametrize("command", ["search", "eval", "metrics"])
def test_negative_seed_is_exit_2(command, source, key, tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_CFG))
    flags = ("--seed", -1) if source == "flag" else ()
    if source != "flag":
        cfg.setdefault(source, {})["seed"] = -1
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg))
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    argv = (command,) if command == "search" else (command, spec_path)
    assert run(*argv, "--config", cfg_path, "--out-dir", out, *flags) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad configuration: {key} must be >= 0, got -1"]
    assert not (out / "config.json").exists()


def test_search_num_layers_must_equal_the_models(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg.write_text(json.dumps({**TINY_CFG, "search": {**TINY_CFG["search"],
                                                     "num_layers": 4}}))
    assert run("search", "--config", cfg, "--out-dir", out) == 2
    assert capsys.readouterr().err.strip() == ("error: bad configuration: "
                                               "search.num_layers 4 differs from "
                                               "model.num_layers 2")
    assert not (out / "config.json").exists()
    cfg.write_text(json.dumps({**TINY_CFG, "search": {**TINY_CFG["search"],
                                                     "num_layers": 2}}))
    assert run("search", "--config", cfg, "--out-dir", out) == 0
    assert json.loads((out / "config.json").read_text())["search"]["num_layers"] == 2


def test_config_json_is_a_valid_config(tiny_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("search", "--config", tiny_cfg, "--out-dir", a) == 0
    assert run("search", "--config", a / "config.json", "--out-dir", b) == 0
    for name in ("history.jsonl", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert run("search", "--config", a / "config.json", "--out-dir", a, "--resume",
               "--iterations", "4") == 0
    assert json.loads((a / "config.json").read_text())["search"]["max_iterations"] == 4


def test_search_writes_the_resolved_config(tmp_path):
    cfg = json.loads(json.dumps(TINY_CFG))
    del cfg["search"]["k"]
    path, out = tmp_path / "cfg.json", tmp_path / "run"
    path.write_text(json.dumps(cfg))
    assert run("search", "--config", path, "--out-dir", out, "--seed", "5",
               "--population", "3") == 0
    resolved = json.loads((out / "config.json").read_text())
    resolved.pop("out_dir", None)  # where the file sits is not pinned here
    pinned = {
        "search": {"population_size": 3, "k": 3, "alpha": 0.5, "max_iterations": 2,
                   "children_per_parent": 1, "seed": 5, "patience": 10,
                   "num_layers": 2, "max_path_len": 12, "max_evaluations": None,
                   "jobs": 1},
        "model": {"num_layers": 2, "d_model": 16, "n_heads": 2, "vocab": 32,
                  "seq_len": 16, "ffn_ratio": 4},
        "corpus": {"size": 32, "seed": 5, "heldout_fraction": 0.125},
        "trainer": {"steps": 4, "lr": 0.001, "warmup": 2, "batch_size": 4},
        "metrics": {"seeds": 1},
    }
    # every section, key and value, in order
    assert json.dumps(resolved) == json.dumps(pinned)


def test_out_dir_env_fallback(tiny_cfg, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("OPNAS_OUT_DIR", str(env_dir))
    assert run("search", "--config", tiny_cfg) == 0
    assert (env_dir / "history.jsonl").exists()


def test_bad_config_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("search", "--config", bad) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"searhc": {}}))
    assert run("search", "--config", unknown) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"search": {"population_size": 2, "k": 9}}))
    assert run("search", "--config", invalid) == 2
    not_an_object = tmp_path / "scalar.json"
    not_an_object.write_text(json.dumps({"trainer": 5}))
    assert run("search", "--config", not_an_object) == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_dry_run_reports_params(tiny_cfg, tmp_path, capsys):
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    assert run("eval", spec_path, "--config", tiny_cfg, "--dry-run") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["params"] > 0
    assert "score" not in payload


def test_eval_trains_and_scores(tiny_cfg, tmp_path, capsys):
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    assert run("eval", spec_path, "--config", tiny_cfg,
               "--out-dir", tmp_path / "e") == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["score"] <= 1.0


@pytest.mark.parametrize("source", ["scratch", "biws"])
def test_eval_scores_the_spec_as_search_candidate_0(source, tiny_cfg, tmp_path, capsys):
    # a larger heldout split and a higher rate than tiny_cfg's, so that the
    # score is not 0 and candidates 0 and 1 score apart
    cfg = json.loads(Path(tiny_cfg).read_text())
    cfg["corpus"]["size"] = 64
    cfg["trainer"].update(steps=8, lr=3e-2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    config = ModelConfig(**cfg["model"])
    spec = autobert_zero_backbone(2)
    spec_path = tmp_path / "hybrid.json"
    spec_path.write_text(serialize(spec))
    flags, weights = [], config
    if source == "biws":
        ckpt = tmp_path / "sn.npz"
        init_supernet(config, 5).save(ckpt)
        flags, weights = ["--biws", ckpt], Supernet.load(ckpt)
    inputs = {p: p.read_bytes() for p in (spec_path, *flags[1:])}
    assert run("eval", spec_path, "--config", cfg_path, "--out-dir", tmp_path / "e",
               *flags) == 0
    score = json.loads(capsys.readouterr().out)["score"]
    assert 0.0 <= score <= 1.0
    # the command never modifies its inputs
    assert all(p.read_bytes() == data for p, data in inputs.items())
    corpus = synth_corpus(seed=cfg["search"]["seed"], size=cfg["corpus"]["size"],
                          vocab=config.vocab, seq_len=config.seq_len)
    trainer = cfg["trainer"]
    evaluator = BiwsEvaluator(weights, corpus, steps=trainer["steps"],
                              optim=OptimConfig(lr=trainer["lr"],
                                                batch_size=trainer["batch_size"],
                                                warmup=trainer["warmup"]),
                              seed=cfg["search"]["seed"])
    assert score == evaluator(spec, 0).score
    assert score != evaluator(spec, 1).score


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["train", "dry-run"])
def test_eval_biws_of_another_width_is_exit_3(dry_run, tiny_cfg, tmp_path, capsys):
    cfg = json.loads(Path(tiny_cfg).read_text())
    wide = ModelConfig(**{**cfg["model"], "d_model": 32})
    ckpt = tmp_path / "sn.npz"
    init_supernet(wide, 0).save(ckpt)
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    assert run("eval", spec_path, "--config", tiny_cfg, "--out-dir", tmp_path / "e",
               "--biws", ckpt, *dry_run) == 3
    assert capsys.readouterr().err.strip() == \
        "error: supernet checkpoint config differs from run config"


@pytest.mark.parametrize("command", ["eval", "metrics"])
@pytest.mark.parametrize("steps", [4, 1])
def test_diverging_model_is_exit_5(command, steps, tiny_cfg, tmp_path, capsys):
    # 4 steps: training diverges (TrainingDiverged); 1 step: the one update
    # leaves non-finite activations for scoring or encoding (NonFiniteError)
    cfg = json.loads(Path(tiny_cfg).read_text())
    cfg["trainer"].update(lr=1e200, steps=steps)
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(cfg))
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    assert run(command, spec_path, "--config", bad_cfg, "--out-dir", tmp_path / "o") == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: ")


def test_eval_corrupted_spec_is_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "layers": [{"type": "dense"}]}')
    assert run("eval", bad, "--dry-run") == 4
    assert "dense" in capsys.readouterr().err


def test_eval_illegal_dag_is_exit_4(tmp_path, capsys):
    payload = json.loads(serialize(standard_backbone(1)))
    # break the output shape: final node yields n x n scores
    payload["layers"][0]["inputs"] = ["q", "k"]
    payload["layers"][0]["nodes"] = [
        {"op": "transpose", "args": ["k"]},
        {"op": "matmul", "args": ["q", 0]},
    ]
    bad = tmp_path / "illegal.json"
    bad.write_text(json.dumps(payload))
    assert run("eval", bad, "--dry-run") == 4
    err = capsys.readouterr().err
    assert "$.layers[0]" in err and "is not n x d_h" in err


def test_eval_dry_run_warns_of_a_conv_only_backbone(tmp_path, capsys):
    specs = {"conv": BackboneSpec((LayerSpec.conv(3), LayerSpec.conv(5))),
             "std": standard_backbone(2)}
    printed = {}
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(serialize(spec))
        assert run("eval", tmp_path / f"{name}.json", "--dry-run") == 0
        printed[name] = json.loads(capsys.readouterr().out)
    assert printed["conv"]["warnings"] == ["backbone has no attention layers"]
    assert "warnings" not in printed["std"]


def test_eval_missing_file_is_exit_4(tmp_path):
    assert run("eval", tmp_path / "absent.json", "--dry-run") == 4


# ---------------------------------------------------------------------------
# export-arch


def test_export_arch_matches_golden(tmp_path):
    import importlib.resources as res

    out = tmp_path / "arch"
    assert run("export-arch", "autobert-zero", "--out-dir", out) == 0
    assert run("export-arch", "standard-attention", "--out-dir", out) == 0
    golden = res.files("opnas") / "golden"
    assert (out / "autobert-zero.json").read_bytes() == \
        (golden / "autobert-zero.json").read_bytes()
    assert (out / "standard-attention.json").read_bytes() == \
        (golden / "standard-attention.json").read_bytes()


def test_export_arch_unknown_is_exit_2(tmp_path):
    assert run("export-arch", "mystery-net", "--out-dir", tmp_path) == 2


def test_export_arch_of_an_odd_depth_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"num_layers": 3}}))
    out = tmp_path / "arch"
    assert run("export-arch", "autobert-zero", "--config", cfg, "--out-dir", out) == 2
    assert capsys.readouterr().err.strip() == \
        "error: bad configuration: layer count must be even and >= 2, got 3"
    assert run("export-arch", "standard-attention", "--config", cfg,
               "--out-dir", out) == 0
    assert len(deserialize((out / "standard-attention.json").read_text()).layers) == 3


@pytest.mark.parametrize("argv", [("export-arch", "autobert-zero", "--seed", "1"),
                                  ("plot-data", "h.jsonl", "--seed", "1"),
                                  ("plot-data", "h.jsonl", "--config", "c.json")],
                         ids=["export-arch-seed", "plot-data-seed", "plot-data-config"])
def test_commands_refuse_flags_they_do_not_read(argv, tmp_path):
    with pytest.raises(SystemExit) as exit_:
        run(*argv, "--out-dir", tmp_path / "o")
    assert exit_.value.code == 2
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# metrics


def test_metrics_csv_contract(tiny_cfg, tmp_path, capsys):
    spec_path = tmp_path / "std.json"
    spec_path.write_text(serialize(standard_backbone(2)))
    out = tmp_path / "m"
    assert run("metrics", spec_path, "--config", tiny_cfg, "--out-dir", out) == 0
    text = (out / "uniformity.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "model,cosine,residual,seed"
    assert len(lines) == 2
    tag, cosine, residual, seed = lines[1].split(",")
    assert tag == "std"
    assert -1.0 <= float(cosine) <= 1.0
    assert float(residual) >= 0.0
    assert seed == "0"
    assert capsys.readouterr().out == text


def test_metrics_multiple_specs_and_seeds(tiny_cfg, tmp_path):
    cfg = json.loads(Path(tiny_cfg).read_text())
    cfg["metrics"] = {"seeds": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(serialize(standard_backbone(2)))
    b.write_text(serialize(standard_backbone(2)))
    out = tmp_path / "m"
    assert run("metrics", a, b, "--config", cfg_path, "--out-dir", out) == 0
    lines = (out / "uniformity.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert [l.split(",")[3] for l in lines[1:]] == ["0", "1", "0", "1"]


def test_metrics_bad_spec_is_exit_4(tiny_cfg, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert run("metrics", bad, "--config", tiny_cfg,
               "--out-dir", tmp_path / "m") == 4


@pytest.mark.parametrize("names", [("good.json", "missing.json"), ("missing.json",)])
def test_metrics_with_a_bad_spec_writes_and_trains_nothing(names, tiny_cfg, tmp_path,
                                                           monkeypatch):
    (tmp_path / "good.json").write_text(serialize(standard_backbone(2)))
    trained = []
    train = BiwsEvaluator.train

    def counting_train(self, spec, seed):
        trained.append(seed)
        return train(self, spec, seed)

    monkeypatch.setattr(BiwsEvaluator, "train", counting_train)
    out = tmp_path / "m"
    assert run("metrics", *(tmp_path / n for n in names), "--config", tiny_cfg,
               "--out-dir", out) == 4
    assert trained == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# plot-data


def test_plot_data_cumulative_best(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert run("search", "--config", tiny_cfg, "--out-dir", out) == 0
    capsys.readouterr()
    plot_dir = tmp_path / "plots"
    assert run("plot-data", out / "history.jsonl", "--out-dir", plot_dir) == 0
    text = (plot_dir / "plot.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "algorithm,evaluation,score,best_score"

    records = read_history(out / "history.jsonl")
    assert len(lines) - 1 == len(records)
    best = float("-inf")
    for line, rec in zip(lines[1:], records):
        tag, idx, score, best_col = line.split(",")
        assert tag == "run"
        best = max(best, rec.score)
        assert float(score) == pytest.approx(rec.score, abs=1e-12)
        assert float(best_col) == pytest.approx(best, abs=1e-12)
    # the best column never decreases
    bests = [float(l.split(",")[3]) for l in lines[1:]]
    assert bests == sorted(bests) or all(b >= a for a, b in zip(bests, bests[1:]))


GOOD_ROW = EvalRecord(id=0, parent_id=None, spec=standard_backbone(2), score=0.5,
                      iteration=0, wall_ms=1.0).to_json_dict()


def test_plot_data_malformed_is_exit_5(tmp_path, capsys):
    bad = tmp_path / "history.jsonl"
    for line in ("not json at all", "[1, 2]", json.dumps({**GOOD_ROW, "id": None}),
                 json.dumps({**GOOD_ROW, "iteration": 2.7}),
                 json.dumps({**GOOD_ROW, "score": 5.0})):
        bad.write_text(json.dumps(GOOD_ROW) + "\n" + line + "\n")
        assert run("plot-data", bad, "--out-dir", tmp_path / "p") == 5, line
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read history "), err
        assert err[0].count(str(bad)) == 1, err


def test_plot_data_missing_file_is_exit_5(tmp_path, capsys):
    absent = tmp_path / "absent.jsonl"
    assert run("plot-data", absent, "--out-dir", tmp_path / "p") == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read history "), err
    assert err[0].count(str(absent)) == 1, err


def half_score(spec, candidate_id):
    return 0.5 if candidate_id % 2 else 0.25


def test_plot_data_reads_the_rows_a_resume_keeps(tmp_path, capsys):
    # a run killed inside its history append: one whole row and one torn row
    # of an iteration its checkpoint never counted
    out = tmp_path / "run"
    search(SearchConfig(population_size=4, k=2, max_iterations=1, children_per_parent=1,
                        num_layers=2, seed=3), half_score, out_dir=out)
    hist = out / "history.jsonl"
    committed = hist.read_text()
    last = json.loads(committed.splitlines()[-1])
    extra = [json.dumps({**last, "id": i, "iteration": 2}) + "\n" for i in (6, 7)]
    hist.write_text(committed + extra[0] + extra[1][:40])
    crashed = hist.read_bytes()
    assert run("plot-data", hist, "--out-dir", tmp_path / "p") == 0
    plot = capsys.readouterr().out.splitlines()
    assert len(plot) == 1 + len(committed.splitlines())
    assert hist.read_bytes() == crashed
    # a resume keeps the same rows
    tiny = {**TINY_CFG, "search": {**TINY_CFG["search"], "population_size": 4, "k": 2,
                                   "max_iterations": 1, "children_per_parent": 1}}
    (tmp_path / "tiny.json").write_text(json.dumps(tiny))
    assert run("search", "--config", tmp_path / "tiny.json", "--out-dir", out,
               "--resume") == 0
    assert hist.read_text() == committed
    # without a checkpoint beside it every row counts, the uncommitted one too
    bare = tmp_path / "bare" / "run" / "history.jsonl"
    bare.parent.mkdir(parents=True)
    bare.write_text(committed + extra[0])
    capsys.readouterr()
    assert run("plot-data", bare, "--out-dir", tmp_path / "p") == 0
    assert capsys.readouterr().out.splitlines()[:len(plot)] == plot
    assert len(read_history(bare)) == len(plot)


@pytest.mark.parametrize("checkpoint", ["{not json", "[]", '{"version": 1}'])
def test_plot_data_beside_a_malformed_checkpoint_is_exit_3(checkpoint, tmp_path, capsys):
    hist = tmp_path / "history.jsonl"
    hist.write_text(json.dumps(GOOD_ROW) + "\n")
    (tmp_path / "checkpoint.json").write_text(checkpoint)
    assert run("plot-data", hist, "--out-dir", tmp_path / "p") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read checkpoint beside "), err
    assert not (tmp_path / "p" / "plot.csv").exists()


# ---------------------------------------------------------------------------
# pinned run bytes

RUN_FINGERPRINT = Path(__file__).parent / "data" / "run_fingerprint.json"


def run_fingerprint(cfg: dict, work: Path) -> dict:
    """sha256 of every file a tiny search, BIWS search and metrics run keep.

    The recipe behind ``tests/data/run_fingerprint.json``; see the README
    there.
    """
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "tiny.json"
    cfg_path.write_text(json.dumps({**cfg, "metrics": {"seeds": 2}}))
    (work / "std.json").write_text(serialize(standard_backbone(2)))
    (work / "hybrid.json").write_text(serialize(autobert_zero_backbone(2)))
    commands = {
        "search": ("search", "--baseline", "op"),
        "search-biws": ("search", "--baseline", "op",
                        "--biws", work / "search-biws" / "sn.npz"),
        "metrics": ("metrics", work / "std.json", work / "hybrid.json"),
    }
    kept = {
        "search": ("history.jsonl", "checkpoint.json", "best.json"),
        "search-biws": ("history.jsonl", "checkpoint.json", "best.json", "sn.npz"),
        "metrics": ("uniformity.csv",),
    }
    digests = {}
    for name, argv in commands.items():
        out = work / name
        assert run(*argv, "--config", cfg_path, "--out-dir", out) == 0, name
        digests[name] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                         for f in kept[name]}
    return digests


def test_runs_equal_the_pinned_fingerprint(tiny_cfg, tmp_path):
    cfg = json.loads(Path(tiny_cfg).read_text())
    assert run_fingerprint(cfg, tmp_path / "runs") == \
        json.loads(RUN_FINGERPRINT.read_text())
