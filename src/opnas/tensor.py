"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors are float64 numpy arrays plus a recorded computation graph. The op
set is deliberately small: the ten primitives usable inside searched
attention graphs (six unary, four binary), the layer building blocks
(linear, depthwise conv, GLU, layer norm, embedding, concat, head merge),
the masked cross-entropy loss, and a handful of helpers the tests need
(sum, mul). The graph primitives act on the last two axes and carry any
leading axes along, so one call runs every attention head at once.

Every forward op validates that its output is finite; NaN/Inf on finite
inputs is a bug in the caller's graph and raises ``NonFiniteError``
immediately instead of propagating garbage.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeError",
    "NonFiniteError",
    "UNARY_OP_KINDS",
    "BINARY_OP_KINDS",
    "apply_unary",
    "apply_binary",
    "neg",
    "transpose",
    "scale",
    "softmax",
    "logsigmoid",
    "softsign",
    "add",
    "matmul",
    "cosine_similarity",
    "euclidean_distance",
    "linear",
    "depthwise_conv1d",
    "glu",
    "layer_norm",
    "masked_cross_entropy",
    "embedding",
    "concat",
    "merge_heads",
    "mul",
    "mul_const",
    "tensor_sum",
    "backward",
    "Adam",
    "adam_step",
]

LAYER_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf from finite inputs."""


def _as_array(data) -> np.ndarray:
    # asarray, not ascontiguousarray: the latter promotes 0-d scalars to (1,)
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A float64 array with an optional reverse-mode gradient tape entry.

    ``grad`` is a plain numpy buffer of the same shape, populated by
    :func:`backward`. Tensors are treated as immutable once created;
    optimizers mutate ``Parameter.data`` in place between graph builds.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        return float(self.data)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_const(self, float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return neg(self)


class Parameter(Tensor):
    """A named trainable leaf. Names must be unique within one model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _make(data: np.ndarray, parents: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


# ---------------------------------------------------------------------------
# unary primitives


def neg(x: Tensor) -> Tensor:
    return _make(-x.data, (x,), lambda g: (-g,), "neg")


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes. Requires rank >= 2."""
    if x.ndim < 2:
        raise ShapeError(f"transpose requires rank >= 2, got shape {x.shape}")
    return _make(x.data.swapaxes(-1, -2), (x,), lambda g: (g.swapaxes(-1, -2),), "transpose")


def scale(x: Tensor) -> Tensor:
    """Divide by sqrt(size of the last axis)."""
    if x.ndim < 1:
        raise ShapeError("scale requires rank >= 1")
    c = 1.0 / math.sqrt(x.shape[-1])
    return _make(x.data * c, (x,), lambda g: (g * c,), "scale")


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis."""
    if x.ndim < 1:
        raise ShapeError("softmax requires rank >= 1")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _make(y, (x,), grad_fn, "softmax")


def logsigmoid(x: Tensor) -> Tensor:
    # -log(1 + exp(-x)), computed stably for large |x|
    y = -np.logaddexp(0.0, -x.data)

    def grad_fn(g):
        return (g / (1.0 + np.exp(x.data)),)

    return _make(y, (x,), grad_fn, "logsigmoid")


def softsign(x: Tensor) -> Tensor:
    denom = 1.0 + np.abs(x.data)
    y = x.data / denom

    def grad_fn(g):
        return (g / denom**2,)

    return _make(y, (x,), grad_fn, "softsign")


# ---------------------------------------------------------------------------
# binary primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add requires identical shapes, got {a.shape} and {b.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the leading axes broadcasting added to ``shape``."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes, with equal leading axes.

    A rank-2 operand is instead shared across the other's leading axes
    (e.g. (n, d) @ (H, d, d_h) -> (H, n, d_h)), and its gradient is summed
    over them.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    if a.shape[:-2] != b.shape[:-2] and a.ndim > 2 and b.ndim > 2:
        raise ShapeError(f"matmul leading axes differ: {a.shape} x {b.shape}")

    def grad_fn(g):
        return (_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape),
                _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _make(a.data @ b.data, (a, b), grad_fn, "matmul")


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Row-pairwise cosine similarity: (..., n, d) twice -> (..., n, n).

    A zero-norm row yields similarity 0 against everything (and zero
    gradient), so degenerate operands stay usable instead of producing NaN.
    """
    if a.ndim < 2 or a.shape != b.shape:
        raise ShapeError(f"cosine requires two equal rank >= 2 shapes, got {a.shape} and {b.shape}")
    na = np.linalg.norm(a.data, axis=-1)
    nb = np.linalg.norm(b.data, axis=-1)
    denom = na[..., :, None] * nb[..., None, :]
    raw = a.data @ b.data.swapaxes(-1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(denom > 0.0, raw / np.where(denom > 0.0, denom, 1.0), 0.0)
    c = np.clip(c, -1.0, 1.0)

    def grad_fn(g):
        safe = denom > 0.0
        w = np.where(safe, g / np.where(safe, denom, 1.0), 0.0)
        gc = g * c
        na2 = np.where(na > 0.0, na**2, 1.0)
        nb2 = np.where(nb > 0.0, nb**2, 1.0)
        da = w @ b.data - (gc.sum(axis=-1) / na2)[..., None] * a.data
        db = w.swapaxes(-1, -2) @ a.data - (gc.sum(axis=-2) / nb2)[..., None] * b.data
        da[na == 0.0] = 0.0
        db[nb == 0.0] = 0.0
        return (da, db)

    return _make(c, (a, b), grad_fn, "cosine")


def euclidean_distance(a: Tensor, b: Tensor) -> Tensor:
    """Row-pairwise euclidean distance: (..., n, d) twice -> (..., n, n).

    Coincident rows give distance 0; the gradient there is taken as 0
    (subgradient choice) so candidate graphs containing d(x, x) terms
    still train.
    """
    if a.ndim < 2 or a.shape != b.shape:
        raise ShapeError(f"euclidean requires two equal rank >= 2 shapes, got {a.shape} and {b.shape}")
    diff = a.data[..., :, None, :] - b.data[..., None, :, :]
    e = np.sqrt((diff**2).sum(axis=-1))

    def grad_fn(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(e > 0.0, g / np.where(e > 0.0, e, 1.0), 0.0)
        da = d.sum(axis=-1)[..., None] * a.data - d @ b.data
        db = d.sum(axis=-2)[..., None] * b.data - d.swapaxes(-1, -2) @ a.data
        return (da, db)

    return _make(e, (a, b), grad_fn, "euclidean")


UNARY_OP_KINDS: dict[str, Callable[[Tensor], Tensor]] = {
    "neg": neg,
    "transpose": transpose,
    "scale": scale,
    "softmax": softmax,
    "logsigmoid": logsigmoid,
    "softsign": softsign,
}

BINARY_OP_KINDS: dict[str, Callable[[Tensor, Tensor], Tensor]] = {
    "add": add,
    "matmul": matmul,
    "cosine": cosine_similarity,
    "euclidean": euclidean_distance,
}


def apply_unary(op: str, x: Tensor) -> Tensor:
    try:
        fn = UNARY_OP_KINDS[op]
    except KeyError:
        raise KeyError(f"unknown unary op {op!r}") from None
    return fn(x)


def apply_binary(op: str, a: Tensor, b: Tensor) -> Tensor:
    try:
        fn = BINARY_OP_KINDS[op]
    except KeyError:
        raise KeyError(f"unknown binary op {op!r}") from None
    return fn(a, b)


# ---------------------------------------------------------------------------
# model building blocks


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x (n x d) times w (d x m). No bias; the op set stays minimal."""
    return matmul(x, w)


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 1-D convolution with same-length zero padding.

    ``kernel`` is k x d with odd k. Kernel weights are softmax-normalized
    along the k axis per channel (lightweight-conv convention) before the
    sliding window is applied, so raw kernel values act as logits.
    """
    if x.ndim != 2 or kernel.ndim != 2:
        raise ShapeError("depthwise_conv1d requires rank-2 x and kernel")
    k, d = kernel.shape
    n, dx = x.shape
    if d != dx:
        raise ShapeError(f"kernel channels {d} != input channels {dx}")
    if k % 2 == 0:
        raise ShapeError(f"kernel length must be odd, got {k}")
    half = (k - 1) // 2

    shifted = kernel.data - kernel.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    kn = e / e.sum(axis=0, keepdims=True)

    xpad = np.zeros((n + k - 1, d))
    xpad[half : half + n] = x.data
    y = np.zeros((n, d))
    for j in range(k):
        y += kn[j][None, :] * xpad[j : j + n]

    def grad_fn(g):
        dxpad = np.zeros_like(xpad)
        dkn = np.zeros_like(kn)
        for j in range(k):
            dxpad[j : j + n] += kn[j][None, :] * g
            dkn[j] = (g * xpad[j : j + n]).sum(axis=0)
        dx_ = dxpad[half : half + n]
        # backprop through per-channel softmax of the kernel logits
        inner = (dkn * kn).sum(axis=0, keepdims=True)
        dkernel = kn * (dkn - inner)
        return (dx_, dkernel)

    return _make(y, (x, kernel), grad_fn, "depthwise_conv1d")


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over a channel split: a * sigmoid(b)."""
    if x.ndim != 2 or x.shape[-1] % 2 != 0:
        raise ShapeError(f"glu requires rank-2 input with even last axis, got {x.shape}")
    m = x.shape[-1] // 2
    a = x.data[:, :m]
    b = x.data[:, m:]
    s = 0.5 * (1.0 + np.tanh(0.5 * b))  # numerically stable sigmoid
    y = a * s

    def grad_fn(g):
        da = g * s
        db = g * a * s * (1.0 - s)
        return (np.concatenate([da, db], axis=1),)

    return _make(y, (x,), grad_fn, "glu")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if x.ndim != 2 or x.shape[-1] < 2:
        raise ShapeError(f"layer_norm requires rank-2 input with d >= 2, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("gain/bias must be vectors matching the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xh = (x.data - mu) * inv
    y = xh * gain.data + bias.data

    def grad_fn(g):
        dgain = (g * xh).sum(axis=0)
        dbias = g.sum(axis=0)
        dxh = g * gain.data
        dx = inv * (
            dxh
            - dxh.mean(axis=-1, keepdims=True)
            - xh * (dxh * xh).mean(axis=-1, keepdims=True)
        )
        return (dx, dgain, dbias)

    return _make(y, (x, gain, bias), grad_fn, "layer_norm")


def masked_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-softmax probability over masked positions only."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be rank 2, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n = logits.shape[0]
    if targets.shape != (n,) or mask.shape != (n,):
        raise ShapeError("targets and mask must be vectors matching the first axis")
    if not mask.any():
        raise ValueError("masked_cross_entropy requires at least one masked position")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    idx = np.arange(n)
    m = int(mask.sum())
    loss = -logp[idx[mask], targets[mask]].mean()

    def grad_fn(g):
        p = np.exp(logp)
        d = np.zeros_like(p)
        d[mask] = p[mask]
        d[idx[mask], targets[mask]] -= 1.0
        return (g * d / m,)

    return _make(np.float64(loss), (logits,), grad_fn, "masked_cross_entropy")


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into a (V x d) table; gradient scatter-adds per id."""
    ids = np.asarray(ids, dtype=np.int64)
    if weight.ndim != 2:
        raise ShapeError("embedding weight must be rank 2")
    if ids.ndim != 1:
        raise ShapeError("ids must be a vector")
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= weight.shape[0]):
        raise ShapeError("token id out of range")

    def grad_fn(g):
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids, g)
        return (dw,)

    return _make(weight.data[ids], (weight,), grad_fn, "embedding")


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors along the last axis."""
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.ndim != 2 or t.shape[0] != rows:
            raise ShapeError("concat operands must be rank 2 with equal row counts")
    widths = [t.shape[1] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=1)

    def grad_fn(g):
        outs = []
        start = 0
        for w in widths:
            outs.append(g[:, start : start + w])
            start += w
        return tuple(outs)

    return _make(data, tuple(tensors), grad_fn, "concat")


def merge_heads(x: Tensor) -> Tensor:
    """(H, n, d_h) -> (n, H * d_h); head h fills columns h*d_h .. (h+1)*d_h - 1."""
    if x.ndim != 3:
        raise ShapeError(f"merge_heads requires rank-3 input, got shape {x.shape}")
    heads, n, d_h = x.shape
    data = x.data.transpose(1, 0, 2).reshape(n, heads * d_h)

    def grad_fn(g):
        return (g.reshape(n, heads, d_h).transpose(1, 0, 2),)

    return _make(data, (x,), grad_fn, "merge_heads")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul requires identical shapes, got {a.shape} and {b.shape}")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def mul_const(x: Tensor, c: float) -> Tensor:
    return _make(x.data * c, (x,), lambda g: (g * c,), "mul_const")


def tensor_sum(x: Tensor) -> Tensor:
    return _make(np.float64(x.data.sum()), (x,), lambda g: (g * np.ones_like(x.data),), "sum")


# ---------------------------------------------------------------------------
# reverse-mode pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be scalar. Gradients add into existing buffers, so one
    optimizer step can aggregate several backward passes; leaves not
    reachable from ``loss`` are left untouched.
    """
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            # leaf: accumulate into the public buffer
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
            continue
        parent_grads = node._grad_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


# ---------------------------------------------------------------------------
# optimizer


def adam_step(
    values: list[np.ndarray],
    grads: list[np.ndarray],
    state: dict,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> dict:
    """One Adam update, in place on ``values``. Returns the advanced state.

    ``state`` holds first/second moments ("m", "v") and the step count
    ("t"); pass ``{}`` to start. Deterministic given its inputs.
    """
    b1, b2 = betas
    if not state:
        state["m"] = [np.zeros_like(v) for v in values]
        state["v"] = [np.zeros_like(v) for v in values]
        state["t"] = 0
    state["t"] += 1
    t = state["t"]
    for i, (val, g) in enumerate(zip(values, grads)):
        if g is None:
            continue
        m = state["m"][i] = b1 * state["m"][i] + (1 - b1) * g
        v = state["v"][i] = b2 * state["v"][i] + (1 - b2) * g**2
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        val -= lr * mhat / (np.sqrt(vhat) + eps)
    return state


class Adam:
    """Adam with bias correction over a fixed parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.state: dict = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        values = [p.data for p in self.params]
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        adam_step(values, grads, self.state, self.lr, self.betas, self.eps)
