"""Bi-branch weight-sharing store for candidate initialization.

Every layer of the supernet holds the weights of the two maximal layer
types at once: an attention branch with all four input projections (each
stacked over heads, H x d x d_h) plus the output mix, and a conv branch
with the GLU projection, the largest (65-tap) kernel, and one learned
k x k transformation matrix per smaller kernel size, shared across
channels (the elastic-kernel transforms of Once-for-All, Cai et al. 2020,
arXiv:1908.09791). Candidates initialize by extraction - attention layers
take the projections for the inputs their dag uses, conv layers take the
center rows of the big kernel and the transformation matrix of their size -
train briefly, and the best child of each search iteration writes its
trained weights back. The search loop keeps only that child's weights
(the running best of the batch) and hands them to the write-back hook; a
beaten child's weights are dropped when a better child returns, so the
supernet is the only weight set that outlives its candidate.

Store keys and shapes are ``opnas.search_space.param_shapes(config)``, the
table models are built from, so a model parameter and its store entry
share one name and are copied across without reshaping; a k-tap kernel
holds the stored kernel's k center rows. A fresh store draws every entry
with ``opnas.model.init_param``, the rule a fresh model uses.

``BiwsEvaluator`` is the one candidate evaluator of the package: searches,
``opnas eval`` and ``opnas metrics`` all train through its ``train``. Its
weight source is either a supernet (extraction in, write-back after each
iteration) or a ``ModelConfig`` (fresh weights, nothing kept); either
way one generator keyed by (seed, candidate id) drives the candidate.

``write_back`` is the one write-back rule. It stores every trained array
under its own name: the candidate trains the short kernel S and the
transform T jointly (its effective kernel is T @ S), and write-back stores
S into the 65-kernel's center rows and T under its key, so the next
extraction hands back exactly the pair that was trained. Parameters the
search never varies (embeddings, FFNs, layer norms) live in the same store
and follow the same best-child-writes-back rule. It checks the whole
candidate before it writes anything, so a refused candidate leaves the
store as it was.

Checkpoint format: one .npz container holding every weight array under its
store key, plus a ``__meta__`` JSON string with {version, config,
layer_versions, keys in declared order}, every array float64;
``Supernet.load`` refuses any other content (no .npz archive, a missing
meta entry, field or array, an array under any other name or of another
dtype) with ``ValueError``, and ignores the ``rng_state`` field in the
``__meta__`` of version-1 files written before it was dropped.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from opnas.evolution import EvalResult
from opnas.model import (
    Corpus,
    Model,
    ModelConfig,
    OptimConfig,
    build_model,
    init_param,
    mlm_pretrain,
    proxy_evaluate,
)
from opnas.search_space import (
    KERNEL_MENU,
    MAX_KERNEL,
    BackboneSpec,
    param_shapes,
)

__all__ = [
    "CENTER_INDEX",
    "Supernet",
    "init_supernet",
    "center_slice",
    "init_candidate",
    "write_back",
    "BiwsEvaluator",
]

CENTER_INDEX = (MAX_KERNEL - 1) // 2

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
                 versions: list[int]):
        self.config = config
        self.store = store
        self.versions = versions

    def keys(self) -> list[str]:
        return list(param_shapes(self.config))

    def save(self, path: str | Path) -> None:
        """Write the checkpoint to exactly ``path``, replacing it atomically."""
        path = Path(path)
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "layer_versions": list(self.versions),
            "keys": self.keys(),
        }
        # through a handle: given a name, np.savez appends ".npz" to any other suffix
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **self.store)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "Supernet":
        """Read what ``save`` wrote; ValueError on anything else: no .npz
        archive, a missing meta entry, field or array, or a stray or non-float64 array."""
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            meta = json.loads(str(data["__meta__"])) if "__meta__" in data.files else None
            if not (isinstance(meta, dict) and set(meta) >= {"config", "keys", "layer_versions"}):
                raise ValueError("__meta__ must be an object with config, keys and layer_versions")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported supernet checkpoint version "
                                 f"{meta.get('version')!r}")
            stored, names = meta["config"], {f.name for f in fields(ModelConfig)}
            if not isinstance(stored, dict) or set(stored) != names:
                raise ValueError(f"config {stored!r} does not hold the keys {sorted(names)}")
            config = ModelConfig(**stored)
            shapes = param_shapes(config)
            if meta["keys"] != list(shapes):
                raise ValueError("keys are not the store layout of its config")
            stray = sorted(set(data.files) - {"__meta__", *shapes})
            if stray:
                raise ValueError(f"array {stray[0]!r} is not a store key")
            store = {key: data[key].copy() for key in shapes if key in data.files}
        for key, shape in shapes.items():
            found = store.get(key)
            if found is None or found.dtype != np.float64 or found.shape != shape:
                held = "no array" if found is None else f"{found.dtype} {found.shape}"
                raise ValueError(f"{key} holds {held}, expected float64 {shape}")
        versions = meta["layer_versions"]
        if not (isinstance(versions, list) and len(versions) == config.num_layers
                and all(type(v) is int and v >= 0 for v in versions)):
            raise ValueError(f"layer_versions must be {config.num_layers} ints >= 0, "
                             f"got {versions!r}")
        return cls(config, store, versions)


def init_supernet(config: ModelConfig, rng: np.random.Generator | int = 0) -> Supernet:
    """Fresh supernet: ``init_param`` for every store key, in declared order."""
    rng = np.random.default_rng(rng)
    store = {key: init_param(key, shape, rng)
             for key, shape in param_shapes(config).items()}
    return Supernet(config, store, [0] * config.num_layers)


# ---------------------------------------------------------------------------
# candidate initialization and write-back


def init_candidate(sn: Supernet, spec: BackboneSpec) -> dict[str, np.ndarray]:
    """Model parameter set for ``spec``: read-only views of store arrays under
    their keys, so ``build_model`` makes the model's one copy.

    A conv layer with k < 65 gets the stored kernel's k center rows and the
    store's k x k transform, whose product is the effective kernel, so the
    transform keeps training with the candidate and is written back with it.
    """
    if len(spec.layers) != sn.config.num_layers:
        raise ValueError(f"spec has {len(spec.layers)} layers, supernet expects "
                         f"{sn.config.num_layers}")
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(sn.config, spec).items():
        k = shape[0]
        if name.endswith(".conv.kernel") and k != MAX_KERNEL:
            params[name] = sn.store[name][center_slice(k)]
            transform = name.replace(".kernel", f".transform.{k}")
            params[transform] = sn.store[transform].view()
        else:
            params[name] = sn.store[name].view()
    for view in params.values():
        view.flags.writeable = False
    return params


def write_back(sn: Supernet, trained: Mapping[str, np.ndarray]) -> None:
    """Fold one trained candidate into the supernet; bumps every layer's version.

    Each array is stored under its own name; a k-tap kernel (k < 65) goes
    into the 65-kernel's k center rows and must come with its transform, so
    the stored pair is the pair the candidate trained. ``trained`` is
    checked whole first: a name that is not a store key, a kernel length
    off the menu, a short kernel without its transform or a shape other
    than the store's is a ValueError, and the store and versions stay as
    they were.
    """
    arrays: dict[str, np.ndarray] = {}
    rows: dict[str, slice] = {}
    for name, value in trained.items():
        if name not in sn.store:
            raise ValueError(f"{name} is not a supernet key")
        arrays[name] = value = np.asarray(value, dtype=np.float64)
        want = sn.store[name].shape
        if name.endswith(".conv.kernel") and value.ndim == 2 and len(value) != MAX_KERNEL:
            k = len(value)
            if k not in KERNEL_MENU:
                raise ValueError(f"{name}: kernel {k} not in menu {KERNEL_MENU}")
            if name.replace(".kernel", f".transform.{k}") not in trained:
                raise ValueError(f"{name}: a {k}-tap kernel needs its transform")
            rows[name], want = center_slice(k), (k, want[1])
        if value.shape != want:
            raise ValueError(f"{name}: shape {value.shape} != stored {want}")
    for name, value in arrays.items():
        if name in rows:
            sn.store[name][rows[name]] = value
        else:
            sn.store[name] = value.copy()
    for i in range(len(sn.versions)):
        sn.versions[i] += 1


class BiwsEvaluator:
    """Search evaluator: trains each candidate briefly and scores it.

    The first argument is the weight source. A ``Supernet`` initializes
    each candidate by extraction (``init_candidate``), the trained arrays
    come back as the payload, and ``on_iteration_end`` writes the
    iteration's best child back (checkpointing the supernet when
    ``save_path`` is set). A ``ModelConfig`` trains each candidate from
    fresh weights; the payload is None and the hook does nothing.
    Either way ``train`` keys all randomness by (seed, candidate id), so
    scores are reproducible and parallel evaluation matches serial while
    payloads pickle: at ``jobs > 1`` one that does not makes its candidate
    a logged discard, and at ``jobs=1`` nothing checks it.
    """

    def __init__(self, source: Supernet | ModelConfig, corpus: Corpus,
                 steps: int = 100, optim: OptimConfig | None = None, seed: int = 0,
                 save_path: str | Path | None = None):
        self.supernet = source if isinstance(source, Supernet) else None
        if self.supernet is None and save_path is not None:
            raise ValueError("save_path needs a supernet weight source")
        self.config = source.config if self.supernet is not None else source
        self.corpus = corpus
        self.steps = steps
        self.optim = optim or OptimConfig()
        self.seed = seed
        self.save_path = Path(save_path) if save_path else None

    def train(self, spec: BackboneSpec, candidate_id: int) -> Model:
        """Build ``spec`` from the weight source and pretrain it.

        One generator, ``default_rng([seed, candidate_id])``, draws fresh
        weights (from scratch only) and then the training batches and masks.
        """
        rng = np.random.default_rng([self.seed, candidate_id])
        if self.supernet is None:
            model = build_model(spec, self.config, rng=rng)
        else:
            model = build_model(spec, self.config,
                                params=init_candidate(self.supernet, spec))
        mlm_pretrain(model, self.corpus, self.steps, self.optim, rng)
        return model

    def __call__(self, spec: BackboneSpec, candidate_id: int) -> EvalResult:
        model = self.train(spec, candidate_id)
        score = proxy_evaluate(model, self.corpus.heldout)
        if self.supernet is None:
            return EvalResult(score.value)
        # the model is dropped on return, so its arrays need no copy
        return EvalResult(score.value,
                          payload={name: p.data for name, p in model.params.items()})

    def on_iteration_end(self, iteration: int, best) -> None:
        """Write back ``best``, the iteration's [(record, payload)] or []."""
        if self.supernet is None or not best:
            return
        [(_, trained)] = best
        write_back(self.supernet, trained)
        if self.save_path is not None:
            self.supernet.save(self.save_path)
