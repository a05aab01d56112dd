"""Token-uniformity measures against closed forms and double loops."""

import numpy as np
import pytest

from opnas.metrics import (
    mean_pairwise_cosine,
    relative_residual_norm,
    uniformity_report,
)
from opnas import model as M
from opnas.model import ModelConfig, build_model, synth_corpus
from opnas.search_space import standard_backbone


def cosine_oracle(x):
    n = x.shape[0]
    norms = np.linalg.norm(x, axis=1)
    vals = []
    for i in range(n):
        for j in range(i + 1, n):
            d = norms[i] * norms[j]
            vals.append(x[i] @ x[j] / d if d > 0 else 0.0)
    return float(np.mean(vals))


def residual_oracle(x):
    mu = x.mean(axis=0)
    return float(np.linalg.norm(x - mu, "fro") / np.linalg.norm(x, "fro"))


def test_identical_rows_fully_uniform():
    x = np.tile(np.array([2.0, -1.0, 0.5]), (6, 1))
    assert mean_pairwise_cosine(x) == pytest.approx(1.0, abs=1e-12)
    assert relative_residual_norm(x) == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_rows_zero_cosine():
    assert mean_pairwise_cosine(np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_matches_double_loop_oracle(rng):
    for _ in range(20):
        x = rng.normal(size=(rng.integers(2, 9), rng.integers(2, 9)))
        assert mean_pairwise_cosine(x) == pytest.approx(cosine_oracle(x), abs=1e-9)
        assert relative_residual_norm(x) == pytest.approx(residual_oracle(x),
                                                          abs=1e-9)


def test_cosine_invariant_to_row_scaling(rng):
    x = rng.normal(size=(5, 7))
    scaled = x * rng.uniform(0.1, 10.0, size=(5, 1))
    assert mean_pairwise_cosine(scaled) == pytest.approx(mean_pairwise_cosine(x),
                                                         abs=1e-9)


def test_residual_invariant_to_global_scaling(rng):
    x = rng.normal(size=(5, 7))
    assert relative_residual_norm(3.7 * x) == pytest.approx(
        relative_residual_norm(x), abs=1e-9)


def test_rank_one_matrix_has_zero_residual_direction(rng):
    u = rng.normal(size=(6, 1))
    x = np.abs(u) @ np.ones((1, 4))
    # rows are positive multiples of one vector: cosine exactly 1
    assert mean_pairwise_cosine(x) == pytest.approx(1.0, abs=1e-9)


def test_zero_column_mean_gives_residual_one(rng):
    x = rng.normal(size=(8, 5))
    x = x - x.mean(axis=0, keepdims=True)
    assert relative_residual_norm(x) == pytest.approx(1.0, abs=1e-12)


def test_zero_row_contributes_zero_cosine(rng):
    x = rng.normal(size=(4, 3))
    x[2] = 0.0
    got = mean_pairwise_cosine(x)
    assert got == pytest.approx(cosine_oracle(x), abs=1e-12)
    assert np.isfinite(got)


def test_input_validation():
    with pytest.raises(ValueError):
        mean_pairwise_cosine(np.ones((1, 4)))
    with pytest.raises(ValueError):
        mean_pairwise_cosine(np.ones(4))
    with pytest.raises(ValueError):
        relative_residual_norm(np.zeros((3, 3)))


def test_uniformity_report_rows(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    models = [("a", build_model(spec, tiny_config, rng=0)),
              ("b", build_model(spec, tiny_config, rng=1))]
    rows = uniformity_report(models, tiny_corpus.heldout, batch=4)
    assert [r["model"] for r in rows] == ["a", "b"]
    for row in rows:
        assert -1.0 <= row["cosine"] <= 1.0
        assert 0.0 <= row["residual"]
        assert set(row) == {"model", "cosine", "residual"}


def test_uniformity_report_averages_sequences(tiny_config, tiny_corpus):
    spec = standard_backbone(tiny_config.num_layers)
    model = build_model(spec, tiny_config, rng=0)
    one = uniformity_report([("m", model)], tiny_corpus.heldout[:1], batch=1)[0]
    hidden = model.encode(tiny_corpus.heldout[0]).data
    assert one["cosine"] == pytest.approx(mean_pairwise_cosine(hidden), abs=1e-12)
    assert one["residual"] == pytest.approx(relative_residual_norm(hidden),
                                            abs=1e-12)


def test_uniformity_report_records_no_graph(tiny_config, tiny_corpus, monkeypatch):
    model = build_model(standard_backbone(tiny_config.num_layers), tiny_config, rng=0)
    reps = []
    encode = M.Model.encode

    def recording_encode(self, ids):
        reps.append(encode(self, ids))
        return reps[-1]

    monkeypatch.setattr(M.Model, "encode", recording_encode)
    uniformity_report([("m", model)], tiny_corpus.heldout, batch=4)
    assert len(reps) == 1 and not reps[0].requires_grad
    assert all(p.grad is None for p in model.parameters())
    assert np.array_equal(reps[0].data, encode(model, tiny_corpus.heldout[:4]).data)
