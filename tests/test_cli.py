"""End-to-end command behavior through main(argv)."""

import json
from pathlib import Path

import numpy as np
import pytest

from opnas.cli import main
from opnas.evolution import read_history
from opnas.search_space import deserialize, serialize, standard_backbone
from opnas.supernet import Supernet


@pytest.fixture
def tiny_cfg(tmp_path):
    cfg = {
        "search": {"population_size": 4, "k": 2, "max_iterations": 2,
                   "children_per_parent": 1, "seed": 3},
        "model": {"num_layers": 2, "d_model": 16, "n_heads": 2, "vocab": 32,
                  "seq_len": 16},
        "corpus": {"size": 32},
        "trainer": {"steps": 4, "batch_size": 4, "warmup": 2},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
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
    assert "dense" in capsys.readouterr().err or True


def test_eval_illegal_dag_is_exit_4(tmp_path, capsys):
    payload = json.loads(serialize(standard_backbone(1)))
    # break the output shape: final node yields n x n scores
    payload["layers"][0]["nodes"] = [
        {"op": "transpose", "args": ["k"]},
        {"op": "matmul", "args": ["q", 0]},
    ]
    bad = tmp_path / "illegal.json"
    bad.write_text(json.dumps(payload))
    assert run("eval", bad, "--dry-run") == 4
    assert "layer 0" in capsys.readouterr().err


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


def test_plot_data_malformed_is_exit_5(tmp_path):
    bad = tmp_path / "history.jsonl"
    bad.write_text("not json at all\n")
    assert run("plot-data", bad, "--out-dir", tmp_path / "p") == 5


def test_plot_data_missing_file_is_exit_5(tmp_path):
    assert run("plot-data", tmp_path / "absent.jsonl",
               "--out-dir", tmp_path / "p") == 5
