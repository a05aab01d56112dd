"""Independent reference implementations used to check the library.

Everything here is plain numpy, written directly from the math with no
imports from the package's compute paths, so a bug in the library cannot
hide in its own test oracle.
"""

from __future__ import annotations

import numpy as np

FD_STEP = 1e-5


def finite_difference(f, arrays, index, h=FD_STEP):
    """Central-difference gradient of scalar f w.r.t. arrays[index]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    x = base[index].reshape(-1)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        up = f(*base)
        x[i] = orig - h
        down = f(*base)
        x[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(got, want):
    """max |got - want| / max(1, |want|), elementwise."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / denom))


# ---------------------------------------------------------------------------
# primitive forward references


def softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def logsigmoid(x):
    return -np.logaddexp(0.0, -x)


def softsign(x):
    return x / (1.0 + np.abs(x))


def scale(x):
    return x / np.sqrt(x.shape[-1])


def cosine_rows(a, b):
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            d = na[i] * nb[j]
            if d > 0:
                out[i, j] = np.clip(a[i] @ b[j] / d, -1.0, 1.0)
    return out


def euclidean_rows(a, b):
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = np.sqrt(np.sum((a[i] - b[j]) ** 2))
    return out


# ---------------------------------------------------------------------------
# attention dags, every node evaluated


def dag_ancestors(dag):
    """The node indices and declared inputs the last node depends on, found
    by a recursive walk from the output, both in declaration order."""
    nodes, inputs = set(), set()

    def visit(ref):
        if isinstance(ref, str):
            inputs.add(ref)
        elif ref not in nodes:
            nodes.add(ref)
            for arg in dag.nodes[ref].args:
                visit(arg)

    visit(len(dag.nodes) - 1)
    return sorted(nodes), [name for name in dag.inputs if name in inputs]


def eval_dag_every_node(dag, inputs, unary, binary):
    """Run every node of the dag in order, dead ones included, and return the
    last. ``unary(op, x)`` and ``binary(op, a, b)`` run one op, so a test can
    pass in the library's op tables and compare graphs, not kernels."""
    values = []
    for node in dag.nodes:
        args = [values[r] if isinstance(r, int) else inputs[r] for r in node.args]
        if len(args) == 1:
            values.append(unary(node.op, args[0]))
        else:
            values.append(binary(node.op, args[0], args[1]))
    return values[-1]


# ---------------------------------------------------------------------------
# attention formulas in closed form


def standard_attention(q, k, v):
    d = q.shape[-1]
    return softmax_rows((q / np.sqrt(d)) @ k.T) @ v


def softplus_key_attention(q, k, v):
    d = q.shape[-1]
    softplus_kt = np.logaddexp(0.0, k.T)
    scores = softmax_rows((q / np.sqrt(d)) @ softplus_kt)
    return scores @ (k + q)


def key_value_mix_attention(q, k, v):
    d = q.shape[-1]
    mixed = k / np.sqrt(d) + v
    scores = softmax_rows((q / np.sqrt(d)) @ mixed.T)
    return scores @ v


# ---------------------------------------------------------------------------
# layer references


def layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + bias


def layer_norm_grads(x, gain, g, eps=1e-5):
    """(dx, dgain, dbias) of layer_norm's output with upstream ``g``, in the
    operation order the engine's forward normalizes and its backward reduces:
    dx = inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), written out longhand.
    """
    d = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xc).mean(axis=-1, keepdims=True) + eps)
    xh = xc * inv
    dxh = g * gain
    dx = inv * (dxh - dxh.mean(axis=-1, keepdims=True)
                - xh * (dxh * xh).mean(axis=-1, keepdims=True))
    return dx, (g * xh).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def glu(x):
    a, b = np.split(x, 2, axis=-1)
    return a / (1.0 + np.exp(-b))


def depthwise_conv(x, kernel):
    """x (n, d), kernel (k, d); kernel columns softmax-normalized, zero pad."""
    k, d = kernel.shape
    w = softmax_rows(kernel.T).T
    half = (k - 1) // 2
    n = x.shape[0]
    out = np.zeros_like(x)
    for t in range(n):
        for j in range(k):
            src = t + j - half
            if 0 <= src < n:
                out[t] += w[j] * x[src]
    return out


def depthwise_conv_taps(x, kernel, g):
    """Depthwise conv of x (..., n, d) as a loop over the kernel taps.

    Returns (y, dx, dkernel): the output and the gradients of sum(g * y).
    The arithmetic is the library's tap loop, step for step, so a rewrite
    with the same sums must match it bit for bit.
    """
    k, d = kernel.shape
    n = x.shape[-2]
    half = (k - 1) // 2
    e = np.exp(kernel - kernel.max(axis=0, keepdims=True))
    kn = e / e.sum(axis=0, keepdims=True)
    xpad = np.zeros(x.shape[:-2] + (n + k - 1, d))
    xpad[..., half : half + n, :] = x
    y = np.zeros(x.shape)
    for j in range(k):
        y += kn[j] * xpad[..., j : j + n, :]
    dxpad = np.zeros_like(xpad)
    dkn = np.zeros_like(kn)
    for j in range(k):
        dxpad[..., j : j + n, :] += kn[j] * g
        dkn[j] = (g * xpad[..., j : j + n, :]).reshape(-1, d).sum(axis=0)
    inner = (dkn * kn).sum(axis=0, keepdims=True)
    return y, dxpad[..., half : half + n, :], kn * (dkn - inner)


def masked_cross_entropy(logits, targets, mask):
    """Mean negative log-probability of targets at masked positions."""
    logp = logits - logits.max(axis=-1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    rows = np.nonzero(mask)[0]
    return float(-np.mean([logp[r, targets[r]] for r in rows]))


def reference_encoder_layer(x, wq, wk, wv, wo, w1, w2,
                            g_att, b_att, g_ffn, b_ffn):
    """One standard single-head attention block, written longhand."""
    q, k, v = x @ wq, x @ wk, x @ wv
    att = standard_attention(q, k, v) @ wo
    h = layer_norm(x + att, g_att, b_att)
    ffn = softsign(h @ w1) @ w2
    return layer_norm(h + ffn, g_ffn, b_ffn)


# ---------------------------------------------------------------------------
# optimizer


def adam(value, grads, lr, betas=(0.9, 0.999), eps=1e-8):
    """Adam with bias correction from zero moments, one step per gradient.

    Each step allocates its results in the textbook order of operations, so
    an in-place update doing the same operations matches it bit for bit.
    """
    b1, b2 = betas
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        value = value - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    return value


# ---------------------------------------------------------------------------
# selection arithmetic


def ucb(mu, total, visits, alpha):
    if visits < 1:
        return float("inf")
    return mu + alpha * np.sqrt(2.0 * np.log(total) / visits)


def softmax_probs(values):
    values = np.asarray(values, dtype=np.float64)
    e = np.exp(values - values.max())
    return e / e.sum()
