"""Toy masked-token task: model assembly, pretraining, proxy scoring.

A backbone spec becomes an executable model: token + learned positional
embeddings, then per layer either an attention block (each input the dag's
live nodes read projected by one stacked H x d x d_h weight into H heads,
the live nodes run once over all heads, heads merged into n x d and mixed
by W_O, with residual + layer norm and a softsign FFN sublayer run as one
``feed_forward`` op) or a conv block (projection to 2d, GLU, depthwise
conv, residual + layer norm), finished by a tied-embedding masked-token
head. A model runs one sequence, ids (n,), or a batch, ids (B, n), through
the same ops: every tensor carries the batch as a leading axis, so a
training step, a proxy chunk or a uniformity pass is one graph.

``search_space.param_shapes`` is the one parameter table: it names and
shapes every model parameter (``layer{i}.att.{q,k,v,p}``,
``layer{i}.conv.kernel``, ...) and, called without a spec, every supernet
store key. Weights move between a model and the supernet under the same
names: a short kernel is the stored kernel's center rows, convolved through
its ``layer{i}.conv.transform.{k}`` when the model holds that store key.

The corpus is synthetic and deterministic: sequences follow a cyclic
bigram template with probability 0.8 (local structure a small conv can
exploit) and carry one long-range sentinel pair per sequence (an opener
token early, its matching closer late) so attention capacity matters too.
The proxy score consumed by the search loop is masked-token accuracy on
the heldout split under a fixed, content-keyed evaluation mask. Search
candidates, ``opnas eval`` and ``opnas metrics`` go through
``opnas.supernet.BiwsEvaluator``, which pairs ``build_model`` with
``mlm_pretrain`` for fresh and supernet-extracted weights alike.
``init_param`` is the one fresh-weight rule, shared with the supernet.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from opnas.search_space import BackboneSpec, eval_dag, param_shapes
from opnas.tensor import (
    Adam,
    NonFiniteError,
    Tensor,
    add,
    backward,
    concat,  # unused here: perfbench/spans.py wraps model.concat by name
    depthwise_conv1d,
    embedding,
    feed_forward,
    glu,
    layer_norm,
    masked_cross_entropy,
    matmul,
    merge_heads,
    mul_const,  # no caller in src: perfbench/spans.py wraps model.mul_const by name
    reshape,
    softsign,  # unused here: perfbench/spans.py wraps model.softsign by name
    transpose,
)

__all__ = [
    "MASK_ID",
    "CONTENT_LO",
    "BIGRAM_FOLLOW_P",
    "check_number",
    "ModelConfig",
    "OptimConfig",
    "Corpus",
    "ProxyScore",
    "TrainingDiverged",
    "Model",
    "init_param",
    "build_model",
    "synth_corpus",
    "check_corpus_split",
    "bigram_successor",
    "mask_tokens",
    "mlm_pretrain",
    "proxy_evaluate",
]

MASK_ID = 0
N_SENTINEL_PAIRS = 4  # openers 1..4 pair with closers 5..8
CONTENT_LO = 1 + 2 * N_SENTINEL_PAIRS
MIN_VOCAB = 16

BIGRAM_FOLLOW_P = 0.8
MASK_FRACTION = 0.15
MASK_TOKEN_P = 0.8
RANDOM_TOKEN_P = 0.1

# held-out sequences per proxy forward. Scoring builds no graph, so a chunk
# holds only its live activations and memory does not bound it. It stays at a
# training batch's size so scoring runs the shapes training runs, the shapes
# at which batched logits are checked to equal per-sequence logits bit for
# bit; the scores are then exactly those of one forward per sequence
PROXY_CHUNK = 8

INIT_STD = 0.02


def check_number(value, kind: str, name: str) -> None:
    """Refuse ``value`` unless it is a number of ``kind``, a field annotation.

    An "int" takes an integral number (numpy integers too), a "float" any
    real number, and neither a bool; a kind ending in " | None" also takes
    None. Every config dataclass checks its fields with it, and the CLI its
    key-by-key sections.
    """
    if value is None and kind.endswith(" | None"):
        return
    number = numbers.Integral if kind.startswith("int") else numbers.Real
    if isinstance(value, bool) or not isinstance(value, number):
        raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 12
    d_model: int = 64
    n_heads: int = 4
    vocab: int = 64
    seq_len: int = 32
    ffn_ratio: int = 4

    def __post_init__(self):
        for f in fields(self):
            check_number(getattr(self, f.name), f.type, f.name)
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.seq_len < 8:
            raise ValueError("seq_len must be >= 8")
        if self.vocab < MIN_VOCAB:
            raise ValueError(f"vocab must be >= {MIN_VOCAB}")

    @property
    def d_h(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 1e-3
    warmup: int = 60
    batch_size: int = 8

    def __post_init__(self):
        for f in fields(self):
            check_number(getattr(self, f.name), f.type, f.name)
        if not 0 < self.lr < float("inf"):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class Corpus:
    train: np.ndarray
    heldout: np.ndarray
    vocab: int
    seq_len: int


@dataclass(frozen=True)
class ProxyScore:
    value: float
    components: dict = field(default_factory=dict)


class TrainingDiverged(RuntimeError):
    """A step's forward or loss went non-finite; the message names the step
    and the op."""


# ---------------------------------------------------------------------------
# synthetic corpus


def bigram_successor(token: int, vocab: int) -> int:
    """The template successor of a content token (cyclic shift)."""
    m = vocab - CONTENT_LO
    return CONTENT_LO + (token - CONTENT_LO + 1) % m


def check_corpus_split(size: int, heldout_fraction: float) -> None:
    """Refuse a split that leaves no training or no heldout sequence."""
    if size < 2:
        raise ValueError(f"size must be >= 2 (one training and one heldout "
                         f"sequence), got {size}")
    if not 0 < heldout_fraction < 1:
        raise ValueError(f"heldout_fraction must be in (0, 1), got {heldout_fraction}")


def synth_corpus(seed: int, size: int = 512, vocab: int = 64, seq_len: int = 32,
                 heldout_fraction: float = 0.125) -> Corpus:
    """Deterministic corpus with local bigram and long-range pair structure.

    Each sequence is a content-token walk following the bigram template
    with probability 0.8, overwritten with one sentinel pair: an opener in
    the first quarter and its matching closer in the last quarter.
    """
    if vocab < MIN_VOCAB:
        raise ValueError(f"vocab must be >= {MIN_VOCAB}")
    check_corpus_split(size, heldout_fraction)
    rng = np.random.default_rng(seed)
    seqs = np.empty((size, seq_len), dtype=np.int64)
    for s in range(size):
        tok = int(rng.integers(CONTENT_LO, vocab))
        for t in range(seq_len):
            seqs[s, t] = tok
            if rng.random() < BIGRAM_FOLLOW_P:
                tok = bigram_successor(tok, vocab)
            else:
                tok = int(rng.integers(CONTENT_LO, vocab))
        opener = int(rng.integers(1, 1 + N_SENTINEL_PAIRS))
        pos_a = int(rng.integers(0, seq_len // 4))
        pos_b = int(rng.integers(3 * seq_len // 4, seq_len))
        seqs[s, pos_a] = opener
        seqs[s, pos_b] = opener + N_SENTINEL_PAIRS
    n_heldout = max(1, int(size * heldout_fraction))
    return Corpus(train=seqs[:-n_heldout], heldout=seqs[-n_heldout:],
                  vocab=vocab, seq_len=seq_len)


def _mask_positions(n: int, rng: np.random.Generator) -> np.ndarray:
    """Each of n positions masked with probability MASK_FRACTION, at least one."""
    mask = rng.random(n) < MASK_FRACTION
    if not mask.any():
        mask[int(rng.integers(n))] = True
    return mask


def mask_tokens(seq: np.ndarray, rng: np.random.Generator,
                vocab: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard MLM corruption: 15% positions; 80% mask / 10% random / 10% kept."""
    mask = _mask_positions(len(seq), rng)
    corrupted = seq.copy()
    for i in np.flatnonzero(mask):
        r = rng.random()
        if r < MASK_TOKEN_P:
            corrupted[i] = MASK_ID
        elif r < MASK_TOKEN_P + RANDOM_TOKEN_P:
            corrupted[i] = int(rng.integers(vocab))
    return corrupted, mask


# ---------------------------------------------------------------------------
# model assembly


class Model:
    """Executable backbone; parameters named and shaped by ``param_shapes``."""

    def __init__(self, spec: BackboneSpec, config: ModelConfig,
                 params: dict[str, Tensor]):
        self.spec = spec
        self.config = config
        self.params = params

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def without_grad(self) -> "Model":
        """This model over plain ``Tensor`` leaves sharing the same arrays.

        No leaf requires grad, so its forward records no graph and frees
        each intermediate once the next op has used it; the logits are
        those of ``forward`` bit for bit. Scoring runs through it.
        """
        return Model(self.spec, self.config,
                     {name: Tensor(p.data) for name, p in self.params.items()})

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        n = self.config.seq_len
        if ids.ndim not in (1, 2) or ids.shape[-1] != n:
            raise ValueError(f"expected token ids of shape ({n},) or (B, {n}), "
                             f"got shape {ids.shape}")
        if ids.min() < 0 or ids.max() >= self.config.vocab:
            raise ValueError("token id out of vocab range")
        return ids

    def encode(self, ids: np.ndarray) -> Tensor:
        """Final-layer representations: (n, d) for ids (n,), (B, n, d) for (B, n)."""
        ids = self._check_ids(ids)
        p = self.params
        x = add(embedding(p["tok_emb"], ids), p["pos_emb"])
        for i, layer in enumerate(self.spec.layers):
            if layer.kind == "attention":
                x = self._attention_block(i, layer.dag, x)
            else:
                x = self._conv_block(i, layer.kernel, x)
        return x

    def forward(self, ids: np.ndarray) -> Tensor:
        """Masked-token logits, (..., n, V), tied to the token embedding."""
        return matmul(self.encode(ids), transpose(self.params["tok_emb"]))

    def _attention_block(self, i: int, dag, x: Tensor) -> Tensor:
        p = self.params
        # (..., 1, n, d) @ (H, d, d_h) -> (..., H, n, d_h): every head at once
        lifted = reshape(x, x.shape[:-2] + (1,) + x.shape[-2:])
        # only the inputs the dag's live nodes read are projected: a dead
        # input's weight gets no gradient, and Adam leaves it as it is
        _, live_inputs = dag.live
        env = {name: matmul(lifted, p[f"layer{i}.att.{name}"]) for name in live_inputs}
        mixed = matmul(merge_heads(eval_dag(dag, env)), p[f"layer{i}.att.wo"])
        x = layer_norm(add(x, mixed),
                       p[f"layer{i}.ln_att.gain"], p[f"layer{i}.ln_att.bias"])
        ffn = feed_forward(x, p[f"layer{i}.ffn.w1"], p[f"layer{i}.ffn.w2"])
        return layer_norm(add(x, ffn),
                          p[f"layer{i}.ln_ffn.gain"], p[f"layer{i}.ln_ffn.bias"])

    def _conv_block(self, i: int, k: int, x: Tensor) -> Tensor:
        p = self.params
        gated = glu(matmul(x, p[f"layer{i}.conv.proj"]))
        kernel = p[f"layer{i}.conv.kernel"]
        transform = p.get(f"layer{i}.conv.transform.{k}")
        if transform is not None:
            kernel = matmul(transform, kernel)
        out = depthwise_conv1d(gated, kernel)
        return layer_norm(add(x, out),
                          p[f"layer{i}.ln_conv.gain"], p[f"layer{i}.ln_conv.bias"])


def init_param(key: str, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Fresh value of one ``param_shapes`` entry, model parameter or store key.

    Layer-norm gains are 1 and biases 0, a ``.conv.transform.{k}`` is the
    identity (only the supernet's table has such keys), and anything else is
    drawn from ``rng`` as normal(0, INIT_STD).
    """
    if key.endswith(".gain"):
        return np.ones(shape)
    if key.endswith(".bias"):
        return np.zeros(shape)
    if ".conv.transform." in key:
        return np.eye(shape[0])
    return rng.normal(0.0, INIT_STD, size=shape)


def build_model(spec: BackboneSpec, config: ModelConfig,
                params: Mapping[str, np.ndarray] | None = None,
                rng: np.random.Generator | int = 0) -> Model:
    """Assemble a model from fresh-random weights or a provided parameter set.

    With ``params`` (e.g. a supernet extraction) arrays are copied in and
    validated against the spec: every ``param_shapes`` entry, plus a conv
    layer's ``layer{i}.conv.transform.{k}`` (k x k) when ``params`` holds
    one. A missing entry, such as a dag input with no matching projection,
    is a hard error. Fresh weights come from ``init_param``, drawn in
    ``param_shapes`` order.
    """
    if len(spec.layers) != config.num_layers:
        raise ValueError(f"spec has {len(spec.layers)} layers, config expects "
                         f"{config.num_layers}")
    built: dict[str, Tensor] = {}
    if params is not None:
        needed = param_shapes(config, spec)
        for i, layer in enumerate(spec.layers):
            transform = f"layer{i}.conv.transform.{layer.kernel}"
            if layer.kind == "conv" and transform in params:
                needed[transform] = (layer.kernel, layer.kernel)
        for name, shape in needed.items():
            if name not in params:
                raise ValueError(f"missing parameter {name}")
            arr = np.asarray(params[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name}: shape {arr.shape} != expected {shape}")
            built[name] = Tensor(arr.copy(), requires_grad=True)
        return Model(spec, config, built)
    rng = np.random.default_rng(rng)
    for name, shape in param_shapes(config, spec).items():
        built[name] = Tensor(init_param(name, shape, rng), requires_grad=True)
    return Model(spec, config, built)


# ---------------------------------------------------------------------------
# training and scoring


def mlm_pretrain(model: Model, corpus: Corpus, steps: int,
                 optim: OptimConfig | None = None,
                 rng: np.random.Generator | int = 0) -> tuple[Model, list[float]]:
    """Masked-token pretraining; returns the model and per-step losses.

    The recorded loss is the batch loss before that step's update, so
    losses[0] reflects the initialization. Each step draws its batch, masks
    the sequences one at a time in draw order, and runs them as one (B, n)
    forward and loss. Linear learning-rate warmup over ``optim.warmup``
    steps. The first op of a step's forward or loss that goes non-finite
    raises ``NonFiniteError``, the loss op included, and that becomes
    TrainingDiverged ``step N: <op> produced non-finite values``, also with
    numpy warnings as errors: a step ignores overflow and invalid-value
    warnings, so no ``RuntimeWarning`` comes first.
    A step's graph (its nodes and the arrays their backward reads) lives
    only through that step, and ``backward`` releases it as it walks; the
    gradients are dropped after the update, so one step's forward never
    runs next to the previous step's graph or gradients, and every
    parameter's ``grad`` is None on return.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    optim = optim or OptimConfig()
    rng = np.random.default_rng(rng)
    opt = Adam(model.parameters(), lr=optim.lr)
    opt.zero_grad()  # gradients the caller left would add into the first step
    losses: list[float] = []
    for step in range(steps):
        idx = rng.integers(0, len(corpus.train), size=optim.batch_size)
        seqs = corpus.train[idx]
        corrupted, masks = zip(*(mask_tokens(seq, rng, corpus.vocab) for seq in seqs))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                loss = masked_cross_entropy(model.forward(np.stack(corrupted)), seqs,
                                            np.stack(masks))
            except NonFiniteError as e:
                raise TrainingDiverged(f"step {step}: {e}") from e
            losses.append(float(loss.data))
            backward(loss)
            if optim.warmup > 0:
                opt.lr = optim.lr * min(1.0, (step + 1) / optim.warmup)
            opt.step()
            # this step's gradients and graph are freed before the next forward
            opt.zero_grad()
            del loss
    return model, losses


def _eval_mask(seq: np.ndarray) -> np.ndarray:
    """The fixed evaluation mask of one sequence, seeded by its content."""
    return _mask_positions(len(seq), np.random.default_rng([0, *seq]))


def proxy_evaluate(model: Model, heldout: np.ndarray) -> ProxyScore:
    """Masked-token accuracy under a fixed evaluation mask.

    Each sequence's mask is seeded by (0, its token content), so
    the score is independent of batch order and identical across calls.
    The forward runs without a graph over chunks of ``PROXY_CHUNK``
    sequences, under the same ``np.errstate`` as a training step, so
    non-finite weights raise ``NonFiniteError``.
    """
    heldout = np.asarray(heldout)
    if len(heldout) == 0:
        raise ValueError("heldout split is empty")
    masks = np.stack([_eval_mask(seq) for seq in heldout])
    corrupted = np.where(masks, MASK_ID, heldout)
    scorer = model.without_grad()
    correct = 0
    for lo in range(0, len(heldout), PROXY_CHUNK):
        chunk = slice(lo, lo + PROXY_CHUNK)
        with np.errstate(over="ignore", invalid="ignore"):
            pred = scorer.forward(corrupted[chunk]).data.argmax(axis=-1)
        correct += int((pred == heldout[chunk])[masks[chunk]].sum())
    value = correct / int(masks.sum())
    return ProxyScore(value=value, components={"masked_token_accuracy": value})
