"""Bi-branch weight-sharing store for candidate initialization.

Every layer of the supernet holds the weights of the two maximal layer
types at once: an attention branch with all four input projections (each
stacked over heads, H x d x d_h) plus the output mix, and a conv branch
with the GLU projection, the largest (65-tap) kernel, and one learned
k x k transformation matrix per smaller kernel size, shared across
channels (the elastic-kernel transforms of Once-for-All, Cai et al. 2020,
arXiv:1908.09791). Candidates initialize by extraction - attention layers
take the projections for the inputs their dag uses, conv layers take the
center slice of the big kernel mapped through the transformation matrix -
train briefly, and the best child of each search iteration writes its
trained weights back. The search loop keeps only that child's weights
(the running best of the batch) and hands them to the write-back hook; a
beaten child's weights are dropped when a better child returns, so the
supernet is the only weight set that outlives its candidate.

Store keys and shapes are ``opnas.search_space.param_shapes(config)``, the
table models are built from, so a model parameter and its store entry
share one name and one shape and are copied across without reshaping.

Write-back keeps the stored 65-kernel the single source of truth: the
candidate trains the transform T and the slice S jointly (its effective
kernel is T @ S), and write_back stores T and solves T^-1 (T S) = S back
into the center rows. Parameters the search never varies (embeddings,
FFNs, layer norms) live in the same store and follow the same
best-child-writes-back rule.

Checkpoint format: one .npz container holding every weight array under its
store key, plus a ``__meta__`` JSON string with {version, config,
layer_versions, rng_state, keys in declared order}.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from opnas.evolution import EvalResult
from opnas.model import (
    ModelConfig,
    OptimConfig,
    build_model,
    mlm_pretrain,
    proxy_evaluate,
)
from opnas.search_space import (
    KERNEL_MENU,
    MAX_KERNEL,
    TRANSFORM_SIZES,
    BackboneSpec,
    param_shapes,
)

__all__ = [
    "CENTER_INDEX",
    "Supernet",
    "init_supernet",
    "center_slice",
    "extract_conv_kernel",
    "write_back",
    "write_back_shared",
    "init_candidate",
    "BiwsEvaluator",
]

log = logging.getLogger(__name__)

CENTER_INDEX = (MAX_KERNEL - 1) // 2

INIT_STD = 0.02
COND_LIMIT = 1e8

CHECKPOINT_VERSION = 1


def center_slice(k: int) -> slice:
    """Row range of the k-tap sub-kernel inside the 65-tap kernel.

    Centered on index 32: rows 32-(k-1)/2 .. 32+(k-1)/2 inclusive.
    """
    if k not in KERNEL_MENU:
        raise ValueError(f"kernel {k} not in menu {KERNEL_MENU}")
    half = (k - 1) // 2
    return slice(CENTER_INDEX - half, CENTER_INDEX + half + 1)


class Supernet:
    """Weight store plus per-layer version counters.

    ``store`` maps the keys of ``param_shapes(config)`` to arrays; their
    declared order (also the rng draw order at init) is: tok_emb, pos_emb,
    then per layer i:
    layer{i}.att.{q,k,v,p} (each H x d x d_h), layer{i}.att.wo (d x d),
    layer{i}.conv.proj (d x 2d), layer{i}.conv.kernel (65 x d),
    layer{i}.conv.transform.{k} for k in 3..31 (k x k),
    layer{i}.ffn.w1 (d x rd), layer{i}.ffn.w2 (rd x d), and the
    layer{i}.ln_{att,ffn,conv}.{gain,bias} vectors.
    """

    def __init__(self, config: ModelConfig, store: dict[str, np.ndarray],
                 versions: list[int], rng_state: dict | None = None):
        self.config = config
        self.store = store
        self.versions = versions
        self.rng_state = rng_state or {}

    def keys(self) -> list[str]:
        return list(param_shapes(self.config))

    def save(self, path: str | Path) -> None:
        """Write the checkpoint to exactly ``path``, replacing it atomically."""
        path = Path(path)
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_json_dict(),
            "layer_versions": list(self.versions),
            "rng_state": self.rng_state,
            "keys": self.keys(),
        }
        # through a handle: given a name, np.savez appends ".npz" to any other suffix
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **self.store)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "Supernet":
        with np.load(path) as data:
            meta = json.loads(str(data["__meta__"]))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported supernet checkpoint version "
                                 f"{meta.get('version')!r}")
            config = ModelConfig.from_json_dict(meta["config"])
            store = {key: data[key].copy() for key in meta["keys"]}
        return cls(config, store, list(meta["layer_versions"]), meta["rng_state"])


def init_supernet(config: ModelConfig, rng: np.random.Generator | int = 0) -> Supernet:
    """Fresh supernet: scaled-normal weights (std 0.02), identity transforms."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    store: dict[str, np.ndarray] = {}
    for key, shape in param_shapes(config).items():
        if key.endswith(".gain"):
            store[key] = np.ones(shape)
        elif key.endswith(".bias"):
            store[key] = np.zeros(shape)
        elif ".conv.transform." in key:
            store[key] = np.eye(shape[0])
        else:
            store[key] = rng.normal(0.0, INIT_STD, size=shape)
    versions = [0] * config.num_layers
    return Supernet(config, store, versions, rng.bit_generator.state)


# ---------------------------------------------------------------------------
# extraction


def extract_conv_kernel(sn: Supernet, layer: int, k: int) -> np.ndarray:
    """Center slice of the stored 65-kernel through the k x k transform."""
    if k not in KERNEL_MENU:
        raise ValueError(f"kernel {k} not in menu {KERNEL_MENU}")
    kernel = sn.store[f"layer{layer}.conv.kernel"]
    if k == MAX_KERNEL:
        return kernel.copy()
    transform = sn.store[f"layer{layer}.conv.transform.{k}"]
    return transform @ kernel[center_slice(k)]


# ---------------------------------------------------------------------------
# write-back


def write_back(sn: Supernet, layer: int, weights: Mapping[str, np.ndarray],
               kind: str) -> Supernet:
    """Store one layer's trained weights; bumps the layer version.

    attention: ``weights`` holds any of q/k/v/p (H x d x d_h) plus wo.
    conv: ``weights`` holds proj, the effective kernel (k x d), and for
    k < 65 the trained transform (k x k). The transform is stored first,
    then the center slice is recovered as transform^-1 @ kernel; a
    near-singular transform falls back to the pseudo-inverse with a
    logged warning.
    """
    if kind == "attention":
        for name, value in weights.items():
            key = f"layer{layer}.att.{name}"
            _checked_assign(sn, key, value)
    elif kind == "conv":
        if "proj" in weights:
            _checked_assign(sn, f"layer{layer}.conv.proj", weights["proj"])
        kernel = np.asarray(weights["kernel"], dtype=np.float64)
        k = kernel.shape[0]
        if k == MAX_KERNEL:
            _checked_assign(sn, f"layer{layer}.conv.kernel", kernel)
        else:
            if k not in TRANSFORM_SIZES:
                raise ValueError(f"kernel size {k} not in menu {KERNEL_MENU}")
            transform = np.asarray(weights["transform"], dtype=np.float64)
            _checked_assign(sn, f"layer{layer}.conv.transform.{k}", transform)
            if np.linalg.cond(transform) > COND_LIMIT:
                log.warning("layer %d kernel %d transform ill-conditioned; "
                            "using pseudo-inverse", layer, k)
                slice_rows = np.linalg.pinv(transform) @ kernel
            else:
                slice_rows = np.linalg.solve(transform, kernel)
            sn.store[f"layer{layer}.conv.kernel"][center_slice(k)] = slice_rows
    else:
        raise ValueError(f"unknown layer kind {kind!r}")
    sn.versions[layer] += 1
    return sn


def _checked_assign(sn: Supernet, key: str, value) -> None:
    value = np.asarray(value, dtype=np.float64)
    want = sn.store[key].shape
    if value.shape != want:
        raise ValueError(f"{key}: shape {value.shape} != stored {want}")
    sn.store[key] = value.copy()


def write_back_shared(sn: Supernet, weights: Mapping[str, np.ndarray]) -> Supernet:
    """Update non-searched parameters (embeddings, FFN, layer norms)."""
    for key, value in weights.items():
        if key not in sn.store:
            raise KeyError(f"unknown store key {key!r}")
        _checked_assign(sn, key, value)
    return sn


# ---------------------------------------------------------------------------
# candidate initialization


def init_candidate(sn: Supernet, spec: BackboneSpec) -> dict[str, np.ndarray]:
    """Model parameter set for ``spec``: copies of the store under its keys.

    Conv layers with k < 65 get a (transform, slice) pair whose product is
    the effective kernel, so the transform keeps training with the
    candidate and write-back can invert it.
    """
    if len(spec.layers) != sn.config.num_layers:
        raise ValueError(f"spec has {len(spec.layers)} layers, supernet expects "
                         f"{sn.config.num_layers}")
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(sn.config, spec).items():
        if name.endswith(".conv.kernel") and shape[0] != MAX_KERNEL:
            k = shape[0]
            stem = name.removesuffix(".kernel")
            params[f"{stem}.transform"] = sn.store[f"{stem}.transform.{k}"].copy()
            params[f"{stem}.slice"] = sn.store[name][center_slice(k)].copy()
        else:
            params[name] = sn.store[name].copy()
    return params


def _write_back_candidate(sn: Supernet, spec: BackboneSpec,
                          trained: Mapping[str, np.ndarray]) -> None:
    """Fold one trained candidate into the supernet (branches then glue)."""
    for i, layer in enumerate(spec.layers):
        if layer.kind == "attention":
            weights = {name: trained[f"layer{i}.att.{name}"]
                       for name in (*layer.dag.inputs, "wo")}
            write_back(sn, i, weights, "attention")
        else:
            k = layer.kernel
            weights = {"proj": trained[f"layer{i}.conv.proj"]}
            if k == MAX_KERNEL:
                weights["kernel"] = trained[f"layer{i}.conv.kernel"]
            else:
                transform = trained[f"layer{i}.conv.transform"]
                weights["transform"] = transform
                weights["kernel"] = transform @ trained[f"layer{i}.conv.slice"]
            write_back(sn, i, weights, "conv")
    # the glue: every parameter outside the two branches
    write_back_shared(sn, {name: trained[name] for name in param_shapes(sn.config, spec)
                           if ".att." not in name and ".conv." not in name})


class BiwsEvaluator:
    """Search evaluator that trains supernet-initialized candidates.

    Each call builds the spec's model from a supernet extraction,
    fine-tunes it for ``steps`` on the corpus, scores heldout masked-token
    accuracy, and returns the trained model's own arrays as the payload.
    After every iteration the search loop hands ``on_iteration_end`` the
    iteration's best child, whose weights are written back (and the
    supernet is checkpointed when ``save_path`` is set). Training
    randomness is keyed by (seed, candidate id), so scores are
    reproducible and parallel evaluation matches serial.
    """

    def __init__(self, supernet: Supernet, corpus, steps: int = 100,
                 optim: OptimConfig | None = None, seed: int = 0,
                 save_path: str | Path | None = None):
        self.supernet = supernet
        self.corpus = corpus
        self.steps = steps
        self.optim = optim or OptimConfig()
        self.seed = seed
        self.save_path = Path(save_path) if save_path else None

    def __call__(self, spec: BackboneSpec, candidate_id: int) -> EvalResult:
        model = build_model(spec, self.supernet.config,
                            params=init_candidate(self.supernet, spec))
        rng = np.random.default_rng([self.seed, candidate_id])
        mlm_pretrain(model, self.corpus, self.steps, self.optim, rng)
        score = proxy_evaluate(model, self.corpus.heldout)
        # the model is dropped on return, so its arrays need no copy
        return EvalResult(score.value,
                          payload={name: p.data for name, p in model.params.items()})

    def on_iteration_end(self, iteration: int, best) -> None:
        """Write back ``best``, the iteration's [(candidate, payload)] or []."""
        if not best:
            return
        [(cand, trained)] = best
        _write_back_candidate(self.supernet, cand.spec, trained)
        if self.save_path is not None:
            self.supernet.save(self.save_path)
