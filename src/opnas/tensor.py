"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors are float64 numpy arrays plus a recorded computation graph. The op
set is deliberately small: the ten primitives usable inside searched
attention graphs (six unary, four binary), the layer building blocks
(depthwise conv, GLU, layer norm, the softsign feed-forward, embedding,
concat, head merge, reshape), the masked cross-entropy loss, and a handful
of helpers the tests need (sum, mul). Every op but concat acts on the last one or two axes and
carries leading axes along, so one call runs every sequence of a batch and
every attention head at once: a (B, H, n, d_h) dag operand is B x H
independent matrices, layer blocks take (..., n, d), and the loss takes
(B, n, V) logits.

Every forward op that runs validates that its output is finite; NaN/Inf on
finite inputs is a bug in the caller's graph and raises ``NonFiniteError``
immediately instead of propagating garbage. An attention dag runs only its
live nodes (``search_space.eval_dag``), so a dead node is never checked.
The check sums the output first: a finite sum proves every element finite,
and only a non-finite sum (a NaN or infinite element, or finite elements
whose sum overflows) is followed by the elementwise test that decides.

A graph is recorded only when some operand requires grad. The tape is
kept apart from the data: an op output that records one gets a small
``_Node`` holding its gradient function and its grad-requiring parents'
nodes (a grad-requiring leaf is its own node), never the parent
``Tensor``s. Each gradient function closes over only the arrays and shapes
its backward reads. So a recorded graph keeps alive the nodes, those saved
arrays and the leaves, and no op output as such: a residual sum, or a
product that only ``scale`` reads, is freed once the caller drops it.
Dropping the loss frees the whole graph, and so does walking it:
``backward`` drops each node's gradient function, with the arrays it saved,
once it has run, so a graph can be walked once. Over leaves that require
no grad (plain ``Tensor``s) nothing is recorded, so a forward-only pass
frees each intermediate once the next op has used it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    "depthwise_conv1d",
    "glu",
    "layer_norm",
    "feed_forward",
    "masked_cross_entropy",
    "embedding",
    "concat",
    "merge_heads",
    "reshape",
    "mul",
    "mul_const",
    "tensor_sum",
    "backward",
    "Adam",
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
    """A float64 array with an optional reverse-mode tape node.

    ``grad`` is a plain numpy buffer of the same shape, populated by
    :func:`backward`. An op output that records a graph has a ``_Node``
    (``None`` otherwise); the node refers to its parents' nodes, not to
    them, so the graph outlives no ``Tensor`` but the leaves and the loss,
    and a step's graph is freed with its loss. Tensors are treated as
    immutable once created; optimizers mutate ``Parameter.data`` in place
    between graph builds.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

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


class _Node:
    """Tape entry of one op output: its gradient function and its parents' entries.

    ``parents`` lines up with the tuple ``grad_fn`` returns: the node of a
    recorded parent, the parent itself for a grad-requiring leaf, ``None``
    for a parent that requires no grad.
    """

    __slots__ = ("grad_fn", "parents")

    def __init__(self, grad_fn: Callable[[np.ndarray], tuple],
                 parents: tuple[_Node | Tensor | None, ...]):
        self.grad_fn = grad_fn
        self.parents = parents


def _tape(t: Tensor) -> _Node | Tensor | None:
    """What a graph keeps of operand ``t``: its node, itself as a leaf, or nothing."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _check_finite(data: np.ndarray, op: str) -> None:
    # a finite sum proves every element finite; only a non-finite sum, which
    # finite elements can also give by overflowing, needs the elementwise test
    if not np.isfinite(data.sum()) and not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")


def _make(data: np.ndarray, parents: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(grad_fn, tuple(map(_tape, parents)))
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
    xd = x.data
    y = -np.logaddexp(0.0, -xd)

    def grad_fn(g):
        # exp overflows to inf for x > ~709, and g / (1 + inf) is exactly 0,
        # the true limit: the overflow is expected, not a fault
        with np.errstate(over="ignore"):
            e = np.exp(xd)
        return (g / (1.0 + e),)

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
    """Elementwise sum of equal shapes.

    One operand may instead have lower rank and equal the other's trailing
    shape (e.g. (B, n, d) + (n, d)); it is added to every leading index and
    its gradient is summed over the leading axes.
    """
    sa, sb = a.shape, b.shape
    lo, hi = sorted((sa, sb), key=len)
    if hi[len(hi) - len(lo):] != lo:
        raise ShapeError(f"add requires equal or trailing shapes, got {sa} and {sb}")
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)), "add")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the leading axes broadcasting added to ``shape``."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading axes broadcast as in numpy.

    E.g. (B, 1, n, d) @ (H, d, d_h) -> (B, H, n, d_h), or (B, n, d) @ (d, m)
    with the rank-2 operand shared by every leading index. Leading axes that
    are neither equal nor 1 raise ``ShapeError``.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul leading axes differ: {a.shape} x {b.shape}") from None

    ad, bd = a.data, b.data

    def grad_fn(g):
        return (_matmul_grad(g, ad.shape, bd, lhs=True),
                _matmul_grad(g, bd.shape, ad, lhs=False))

    return _make(ad @ bd, (a, b), grad_fn, "matmul")


def _matmul_grad(g: np.ndarray, shape: tuple[int, ...], other: np.ndarray,
                 lhs: bool) -> np.ndarray:
    """Gradient of the matmul operand of ``shape`` with output gradient ``g``.

    The leading axes along which that operand was broadcast are summed. They join
    the contraction (the columns of ``g`` for the left operand, its rows
    for the right), so one product sums them and no per-index partial
    gradients are materialised.
    """
    nd = g.ndim
    xs = (1,) * (nd - len(shape)) + shape
    oshape = (1,) * (nd - other.ndim) + other.shape
    summed = [i for i in range(nd - 2) if xs[i] == 1 and g.shape[i] != 1]
    kept = [i for i in range(nd - 2) if i not in summed]
    s = math.prod(g.shape[i] for i in summed)
    o = other.reshape(oshape)
    row, col = nd - 2, nd - 1
    g_lead = [g.shape[i] for i in kept]
    o_lead = [oshape[i] for i in kept]
    if lhs:  # g @ other^T
        gt = g.transpose(kept + [row] + summed + [col]).reshape(
            g_lead + [g.shape[row], s * g.shape[col]])
        ot = o.transpose(kept + summed + [col, row]).reshape(
            o_lead + [s * oshape[col], oshape[row]])
        return (gt @ ot).reshape(shape)
    # other^T @ g
    perm = kept + summed + [row, col]
    gt = g.transpose(perm).reshape(g_lead + [s * g.shape[row], g.shape[col]])
    ot = o.transpose(perm).reshape(o_lead + [s * oshape[row], oshape[col]])
    return (ot.swapaxes(-1, -2) @ gt).reshape(shape)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Row-pairwise cosine similarity: (..., n, d) twice -> (..., n, n).

    A zero-norm row yields similarity 0 against everything (and zero
    gradient), so degenerate operands stay usable instead of producing NaN.
    """
    if a.ndim < 2 or a.shape != b.shape:
        raise ShapeError(f"cosine requires two equal rank >= 2 shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    na = np.linalg.norm(ad, axis=-1)
    nb = np.linalg.norm(bd, axis=-1)
    denom = na[..., :, None] * nb[..., None, :]
    raw = ad @ bd.swapaxes(-1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(denom > 0.0, raw / np.where(denom > 0.0, denom, 1.0), 0.0)
    c = np.clip(c, -1.0, 1.0)

    def grad_fn(g):
        safe = denom > 0.0
        w = np.where(safe, g / np.where(safe, denom, 1.0), 0.0)
        gc = g * c
        na2 = np.where(na > 0.0, na**2, 1.0)
        nb2 = np.where(nb > 0.0, nb**2, 1.0)
        da = w @ bd - (gc.sum(axis=-1) / na2)[..., None] * ad
        db = w.swapaxes(-1, -2) @ ad - (gc.sum(axis=-2) / nb2)[..., None] * bd
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
    # squared differences summed one coordinate at a time over (..., n, n)
    # buffers: no (..., n, n, d) difference array, and each matrix pair's
    # entries depend on that pair alone, so any batch gives the same bits
    ad, bd = a.data, b.data
    e = np.zeros(ad.shape[:-1] + (ad.shape[-2],))
    diff = np.empty_like(e)
    for c in range(ad.shape[-1]):
        np.subtract(ad[..., :, c, None], bd[..., None, :, c], out=diff)
        diff *= diff
        e += diff
    np.sqrt(e, out=e)

    def grad_fn(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(e > 0.0, g / np.where(e > 0.0, e, 1.0), 0.0)
        da = d.sum(axis=-1)[..., None] * ad - d @ bd
        db = d.sum(axis=-2)[..., None] * bd - d.swapaxes(-1, -2) @ ad
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


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 1-D convolution along n of (..., n, d), same-length zero padding.

    ``kernel`` is k x d with odd k. Kernel weights are softmax-normalized
    along the k axis per channel (lightweight-conv convention) before the
    sliding window is applied, so raw kernel values act as logits. The
    kernel gradient sums over every leading index.
    """
    if x.ndim < 2 or kernel.ndim != 2:
        raise ShapeError("depthwise_conv1d requires rank >= 2 x and a rank-2 kernel")
    k, d = kernel.shape
    n, dx = x.shape[-2:]
    if d != dx:
        raise ShapeError(f"kernel channels {d} != input channels {dx}")
    if k % 2 == 0:
        raise ShapeError(f"kernel length must be odd, got {k}")
    half = (k - 1) // 2

    shifted = kernel.data - kernel.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    kn = e / e.sum(axis=0, keepdims=True)

    xpad = np.zeros(x.shape[:-2] + (n + k - 1, d))
    xpad[..., half : half + n, :] = x.data
    # windows[..., j, :, t] = xpad[..., t + j, :]; the unoptimized einsum adds
    # the taps in order j = 0 .. k-1, the order of a loop over the taps (an
    # optimized one may route through BLAS, whose sums depend on the batch)
    y = np.einsum("...jdn,jd->...nd", sliding_window_view(xpad, n, axis=-2), kn)

    def grad_fn(g):
        gpad = np.zeros_like(xpad)
        gpad[..., half : half + n, :] = g
        # dx[t] = sum_j kn[j] * g[t + half - j]: the same windows, reversed
        dx_ = np.einsum("...jdn,jd->...nd",
                        sliding_window_view(gpad, n, axis=-2)[..., ::-1, :, :], kn)
        flat = xpad.reshape((-1,) + xpad.shape[-2:])
        dkn = np.einsum("bjdn,bnd->jd", sliding_window_view(flat, n, axis=-2),
                        g.reshape(-1, n, d))
        # backprop through per-channel softmax of the kernel logits
        inner = (dkn * kn).sum(axis=0, keepdims=True)
        dkernel = kn * (dkn - inner)
        return (dx_, dkernel)

    return _make(y, (x, kernel), grad_fn, "depthwise_conv1d")


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over a split of the last axis: a * sigmoid(b)."""
    if x.ndim < 2 or x.shape[-1] % 2 != 0:
        raise ShapeError(f"glu requires rank >= 2 input with even last axis, got {x.shape}")
    m = x.shape[-1] // 2
    a = x.data[..., :m]
    b = x.data[..., m:]
    s = 0.5 * (1.0 + np.tanh(0.5 * b))  # numerically stable sigmoid
    y = a * s

    def grad_fn(g):
        da = g * s
        db = g * a * s * (1.0 - s)
        return (np.concatenate([da, db], axis=-1),)

    return _make(y, (x,), grad_fn, "glu")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization of (..., n, d) to zero mean / unit variance, then affine.

    The gain and bias gradients sum over every row.
    """
    if x.ndim < 2 or x.shape[-1] < 2:
        raise ShapeError(f"layer_norm requires rank >= 2 input with d >= 2, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("gain/bias must be vectors matching the last axis")
    xh = x.data - x.data.mean(axis=-1, keepdims=True)
    y = np.square(xh)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xh *= inv
    gd = gain.data
    np.multiply(xh, gd, out=y)
    y += bias.data

    def grad_fn(g):
        dgain = (g * xh).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        # dx = inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), in place in dxh
        dxh = g * gd
        m1 = dxh.mean(axis=-1, keepdims=True)
        m2 = (dxh * xh).mean(axis=-1, keepdims=True)
        dxh -= m1
        dxh -= xh * m2
        dxh *= inv
        return (dxh, dgain, dbias)

    return _make(y, (x, gain, bias), grad_fn, "layer_norm")


def feed_forward(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """``softsign(x @ w1) @ w2`` as one op: (..., n, d) -> (..., n, m).

    The values and gradients are those of ``matmul``, ``softsign`` and
    ``matmul`` bit for bit, and each stage is checked finite as those ops
    check it. The graph keeps only ``h = x @ w1`` besides ``x`` and the
    weights: the backward recomputes softsign's denominator and output
    from ``h`` with softsign's own expressions, so no (..., n, hidden)
    activation but ``h`` lives between forward and backward.
    """
    if x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2:
        raise ShapeError(f"feed_forward requires a rank >= 2 input and rank-2 weights, "
                         f"got {x.shape}, {w1.shape} and {w2.shape}")
    if x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeError(f"feed_forward inner dimensions differ: "
                         f"{x.shape} x {w1.shape} x {w2.shape}")
    xd, w1d, w2d = x.data, w1.data, w2.data
    h = xd @ w1d
    _check_finite(h, "matmul")
    s = 1.0 + np.abs(h)  # softsign's denominator, then its output in place
    np.divide(h, s, out=s)
    _check_finite(s, "softsign")

    def grad_fn(g):
        denom = 1.0 + np.abs(h)
        dw2 = _matmul_grad(g, w2d.shape, h / denom, lhs=False)
        # softsign's gradient ds / denom**2, with denom squared in place
        ds = _matmul_grad(g, h.shape, w2d, lhs=True)
        ds /= np.square(denom, out=denom)
        del denom
        return (_matmul_grad(ds, xd.shape, w1d, lhs=True),
                _matmul_grad(ds, w1d.shape, xd, lhs=False), dw2)

    return _make(s @ w2d, (x, w1, w2), grad_fn, "matmul")


def masked_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Negative log-softmax probability of the targets at masked positions.

    ``logits`` is (n, V) for one sequence or (B, n, V) for a batch, with
    ``targets`` and ``mask`` shaped like its leading axes. The loss is the
    mean over sequences of each sequence's mean over its own masked
    positions (not a mean over all masked tokens), so every sequence needs
    at least one masked position.
    """
    if logits.ndim not in (2, 3):
        raise ShapeError(f"logits must be rank 2 or 3, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if targets.shape != logits.shape[:-1] or mask.shape != logits.shape[:-1]:
        raise ShapeError("targets and mask must match the leading axes of the logits")
    shape = logits.shape
    data = logits.data.reshape((-1,) + shape[-2:])
    targets = targets.reshape(data.shape[:2])
    mask = mask.reshape(data.shape[:2])
    counts = mask.sum(axis=1)
    if not counts.all():
        raise ValueError("masked_cross_entropy requires a masked position in every sequence")

    shifted = data - data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    rows, pos = np.nonzero(mask)
    picked = logp[rows, pos, targets[rows, pos]]
    per_seq = [-part.mean() for part in np.split(picked, np.cumsum(counts)[:-1])]
    # summed in sequence order, then scaled: one separate loss per sequence
    # averaged the same way would give the same bits
    n_seq = len(per_seq)
    loss = sum(per_seq) * (1.0 / n_seq)

    def grad_fn(g):
        d = np.zeros_like(logp)
        d[mask] = np.exp(logp[mask])
        d[rows, pos, targets[rows, pos]] -= 1.0
        share = g * (1.0 / n_seq)  # each sequence's weight in the mean
        return ((share * d / counts[:, None, None]).reshape(shape),)

    return _make(np.float64(loss), (logits,), grad_fn, "masked_cross_entropy")


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into a (V x d) table: ids (..., n) -> (..., n, d).

    The gradient scatter-adds per id over every leading index.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if weight.ndim != 2:
        raise ShapeError("embedding weight must be rank 2")
    if ids.ndim < 1:
        raise ShapeError("ids must have at least one axis")
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= weight.shape[0]):
        raise ShapeError("token id out of range")

    shape = weight.shape

    def grad_fn(g):
        dw = np.zeros(shape)
        np.add.at(dw, ids.reshape(-1), g.reshape(-1, shape[1]))
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
    """(..., H, n, d_h) -> (..., n, H * d_h); head h fills columns h*d_h .. (h+1)*d_h - 1."""
    if x.ndim < 3:
        raise ShapeError(f"merge_heads requires rank >= 3 input, got shape {x.shape}")
    *lead, heads, n, d_h = x.shape
    data = x.data.swapaxes(-3, -2).reshape(*lead, n, heads * d_h)

    def grad_fn(g):
        return (g.reshape(*lead, n, heads, d_h).swapaxes(-3, -2),)

    return _make(data, (x,), grad_fn, "merge_heads")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in a new shape of equal size, e.g. (B, n, d) -> (B, 1, n, d)."""
    old = x.shape
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {old} to {shape}") from None
    return _make(data, (x,), lambda g: (g.reshape(old),), "reshape")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul requires identical shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


def mul_const(x: Tensor, c: float) -> Tensor:
    return _make(x.data * c, (x,), lambda g: (g * c,), "mul_const")


def tensor_sum(x: Tensor) -> Tensor:
    shape = x.shape
    return _make(np.float64(x.data.sum()), (x,), lambda g: (g * np.ones(shape),), "sum")


# ---------------------------------------------------------------------------
# reverse-mode pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be scalar. Gradients add into existing buffers, so one
    optimizer step can aggregate several backward passes; leaves not
    reachable from ``loss`` are left untouched.

    The walk releases the tape as it goes: once a node's gradient function
    has run it is dropped, with the arrays it saved, so the graph shrinks
    while the gradients grow. A graph can therefore be walked once; a
    second ``backward`` through any of its nodes raises ``RuntimeError``
    before any gradient is written.
    """
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = _tape(loss)
    if root is None:
        return

    # each entry of the walk is a _Node, or a leaf Tensor standing as its own node
    topo: list[_Node | Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Node):
            if node.grad_fn is None:
                raise RuntimeError("backward through a graph that was already walked: "
                                   "its saved arrays were released")
            stack.extend((p, False) for p in node.parents if p is not None)

    grads: dict[int, np.ndarray] = {id(root): np.ones(())}
    # nodes whose pending gradient is a sum this walk allocated; any other
    # pending gradient may be an array an op returned (add and reshape pass
    # their ``g`` on), which must not be written into
    owned: set[int] = set()
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Tensor):
            # leaf: accumulate into the public buffer
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
            continue
        grad_fn, node.grad_fn = node.grad_fn, None
        parent_grads = grad_fn(g)
        del grad_fn, g  # frees what this node saved before the sums below
        for p, pg in zip(node.parents, parent_grads):
            if pg is None or p is None:
                continue
            key = id(p)
            if key in owned:
                grads[key] += pg
            elif key in grads:
                grads[key] = grads[key] + pg
                owned.add(key)
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction over a fixed parameter list.

    A parameter whose ``grad`` is None steps with a zero gradient: its
    moments still decay. Deterministic given its inputs.
    """

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update, in place on every ``Parameter.data``."""
        b1, b2 = self.betas
        self.t += 1
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            step = (1 - b1) * g
            m *= b1
            m += step
            np.square(g, out=step)
            step *= 1 - b2
            v *= b2
            v += step
            # data -= lr (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=step)
            step *= self.lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.data -= step
