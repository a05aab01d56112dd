"""Gradient and forward checks for the autodiff core.

Every differentiable op is verified against central finite differences;
forward values are pinned against independently computed references.
"""

import warnings
import weakref

import numpy as np
import pytest

import oracles
from opnas import tensor as T
from opnas.search_space import KERNEL_MENU

GRAD_TOL = 1e-4


def check_grad(build, arrays, n_checks=3, seed=0):
    """Compare analytic gradients of sum(w * f(xs)) against finite differences.

    ``build`` maps a list of Tensors to an output Tensor. A random
    projection w makes the scalar sensitive to every output entry.
    """
    rng = np.random.default_rng(seed)
    out_probe = build([T.Tensor(a) for a in arrays])
    w = rng.normal(size=out_probe.shape)

    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    T.backward(T.tensor_sum(T.mul(out, T.Tensor(w))))

    def scalar(*arrs):
        vals = build([T.Tensor(a) for a in arrs])
        return float((vals.data * w).sum())

    for i, t in enumerate(tensors):
        fd = oracles.finite_difference(scalar, arrays, i)
        got = t.grad if t.grad is not None else np.zeros_like(fd)
        err = oracles.relative_error(got, fd)
        assert err < GRAD_TOL, f"arg {i}: relative error {err}"


UNARY_CASES = [
    ("neg", T.neg, (4, 3)),
    ("transpose", T.transpose, (4, 3)),
    ("scale", T.scale, (4, 3)),
    ("softmax", T.softmax, (4, 6)),
    ("logsigmoid", T.logsigmoid, (4, 3)),
    ("softsign", T.softsign, (4, 3)),
]

BINARY_CASES = [
    ("add", T.add, (4, 3), (4, 3)),
    ("matmul", T.matmul, (4, 3), (3, 5)),
    ("cosine", T.cosine_similarity, (4, 3), (4, 3)),
    ("euclidean", T.euclidean_distance, (4, 3), (4, 3)),
]

# leading (head) axes: each op also equals a per-head loop over its 2-D form
HEADS = 3

BATCHED_CASES = [
    ("matmul shared lhs", T.matmul, (4, 5), (HEADS, 5, 2)),
    ("matmul shared rhs", T.matmul, (HEADS, 4, 5), (5, 2)),
    ("matmul per head", T.matmul, (HEADS, 4, 5), (HEADS, 5, 2)),
    ("cosine per head", T.cosine_similarity, (HEADS, 4, 3), (HEADS, 4, 3)),
    ("euclidean per head", T.euclidean_distance, (HEADS, 4, 3), (HEADS, 4, 3)),
]


@pytest.mark.parametrize("name,op,shape", UNARY_CASES)
def test_unary_gradients(name, op, shape, rng):
    for trial in range(5):
        x = rng.normal(size=shape)
        check_grad(lambda ts: op(ts[0]), [x], seed=trial)


@pytest.mark.parametrize("name,op,sa,sb", BINARY_CASES + BATCHED_CASES)
def test_binary_gradients(name, op, sa, sb, rng):
    for trial in range(5):
        a = rng.normal(size=sa)
        b = rng.normal(size=sb)
        check_grad(lambda ts: op(ts[0], ts[1]), [a, b], seed=trial)


def test_unary_forward_values():
    x = np.array([[0.0, 1.0, -1.0]])
    assert np.allclose(T.neg(T.Tensor(x)).data, -x)
    assert np.allclose(T.logsigmoid(T.Tensor(np.zeros((1, 1)))).data,
                       -0.6931471805599453)
    assert np.allclose(T.softsign(T.Tensor(np.array([[1.0, -1.0]]))).data,
                       [[0.5, -0.5]])
    assert np.allclose(T.scale(T.Tensor(np.ones((2, 4)))).data, 0.5)
    s = T.softmax(T.Tensor(np.array([[1.0, 1.0, 1.0]]))).data
    assert np.allclose(s, 1.0 / 3.0)


def test_logsigmoid_saturates_without_warnings():
    # exp(800) overflows inside the backward; the gradient's limit, 0, comes
    # out exactly and no RuntimeWarning escapes
    x = T.Tensor(np.array([[800.0, -800.0, 0.5]]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T.backward(T.tensor_sum(T.logsigmoid(x)))
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == 1.0
    assert x.grad[0, 2] == 1.0 / (1.0 + np.exp(0.5))
    check_grad(lambda ts: T.logsigmoid(ts[0]), [np.array([[-30.0, -2.0, 0.5, 30.0]])])


def test_transpose_swaps_last_two_axes(rng):
    x = rng.normal(size=(3, 5))
    assert np.array_equal(T.transpose(T.Tensor(x)).data, x.T)


def test_matmul_requires_rank_two(rng):
    with pytest.raises(T.ShapeError):
        T.matmul(T.Tensor(rng.normal(size=(3,))), T.Tensor(rng.normal(size=(3, 2))))
    with pytest.raises(T.ShapeError):
        T.matmul(T.Tensor(rng.normal(size=(3, 2))), T.Tensor(rng.normal(size=(3, 2))))


def test_add_requires_equal_shapes(rng):
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(rng.normal(size=(3, 2))), T.Tensor(rng.normal(size=(2, 3))))


def test_cosine_forward_matches_double_loop(rng):
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(5, 4))
    got = T.cosine_similarity(T.Tensor(a), T.Tensor(b)).data
    assert np.allclose(got, oracles.cosine_rows(a, b), atol=1e-12)


def test_cosine_zero_row_is_zero_and_differentiable(rng):
    a = rng.normal(size=(3, 4))
    a[1] = 0.0
    b = rng.normal(size=(3, 4))
    ta = T.Tensor(a, requires_grad=True)
    out = T.cosine_similarity(ta, T.Tensor(b))
    assert np.all(out.data[1] == 0.0)
    T.backward(T.tensor_sum(out))
    assert np.isfinite(ta.grad).all()
    assert np.all(ta.grad[1] == 0.0)


def test_euclidean_forward_matches_double_loop(rng):
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(5, 4))
    got = T.euclidean_distance(T.Tensor(a), T.Tensor(b)).data
    assert np.allclose(got, oracles.euclidean_rows(a, b), atol=1e-12)


def test_euclidean_model_shape_matches_double_loop(rng):
    # d_h = 16: the coordinate sum runs in order, not numpy's pairwise order
    a = rng.normal(size=(2, 3, 32, 16))
    b = rng.normal(size=(2, 3, 32, 16))
    got = T.euclidean_distance(T.Tensor(a), T.Tensor(b)).data
    for i, h in np.ndindex(2, 3):
        assert np.abs(got[i, h] - oracles.euclidean_rows(a[i, h], b[i, h])).max() < 1e-12


def test_euclidean_coincident_rows_zero_grad(rng):
    a = rng.normal(size=(3, 4))
    b = a.copy()
    ta = T.Tensor(a, requires_grad=True)
    out = T.euclidean_distance(ta, T.Tensor(b))
    assert np.allclose(np.diag(out.data), 0.0)
    T.backward(T.tensor_sum(out))
    assert np.isfinite(ta.grad).all()


def test_depthwise_conv_gradients(rng):
    x = rng.normal(size=(6, 4))
    kern = rng.normal(size=(3, 4))
    check_grad(lambda ts: T.depthwise_conv1d(ts[0], ts[1]), [x, kern])


def test_depthwise_conv_forward_matches_reference(rng):
    x = rng.normal(size=(8, 3))
    kern = rng.normal(size=(5, 3))
    got = T.depthwise_conv1d(T.Tensor(x), T.Tensor(kern)).data
    assert np.allclose(got, oracles.depthwise_conv(x, kern), atol=1e-12)


def _conv_with_grads(x, kern, g):
    tx = T.Tensor(x, requires_grad=True)
    tk = T.Tensor(kern, requires_grad=True)
    y = T.depthwise_conv1d(tx, tk)
    # d sum(y * g) / dy is exactly g
    T.backward(T.tensor_sum(T.mul(y, T.Tensor(g))))
    return y.data, tx.grad, tk.grad


@pytest.mark.parametrize("k", KERNEL_MENU)
@pytest.mark.parametrize("shape", [(8, 3), (3, 8, 3), (4, 32, 16)])
def test_depthwise_conv_equals_tap_loop_bit_for_bit(k, shape, rng):
    # n = 8 puts the wider kernels past 2n - 1 taps: every output reads
    # only some of them, the rest fall on padding
    x = rng.normal(size=shape)
    kern = rng.normal(size=(k, shape[-1]))
    g = rng.normal(size=shape)
    for got, want in zip(_conv_with_grads(x, kern, g),
                         oracles.depthwise_conv_taps(x, kern, g)):
        assert np.array_equal(got, want)


def test_depthwise_conv_rejects_even_kernel(rng):
    with pytest.raises(T.ShapeError):
        T.depthwise_conv1d(T.Tensor(rng.normal(size=(6, 4))),
                           T.Tensor(rng.normal(size=(4, 4))))


def test_glu_gradients_and_halving(rng):
    x = rng.normal(size=(4, 6))
    check_grad(lambda ts: T.glu(ts[0]), [x])
    # zero gate passes half the signal
    a = rng.normal(size=(3, 2))
    packed = np.concatenate([a, np.zeros_like(a)], axis=1)
    assert np.allclose(T.glu(T.Tensor(packed)).data, a / 2.0)


def test_layer_norm_gradients_and_forward(rng):
    x = rng.normal(size=(4, 6))
    g = rng.normal(size=(6,))
    b = rng.normal(size=(6,))
    check_grad(lambda ts: T.layer_norm(ts[0], ts[1], ts[2]), [x, g, b])
    got = T.layer_norm(T.Tensor(x), T.Tensor(g), T.Tensor(b)).data
    assert np.allclose(got, oracles.layer_norm(x, g, b), atol=1e-12)


@pytest.mark.parametrize("shape", [(4, 6), (3, 4, 6)])
def test_layer_norm_gradient_equals_longhand_bit_for_bit(shape, rng):
    x, gain, bias = rng.normal(size=shape), rng.normal(size=6), rng.normal(size=6)
    g = rng.normal(size=shape)
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    # sum(y * g) hands layer_norm's backward exactly g
    T.backward(T.tensor_sum(T.mul(T.layer_norm(*leaves), T.Tensor(g))))
    for leaf, want in zip(leaves, oracles.layer_norm_grads(x, gain, g)):
        assert np.array_equal(leaf.grad, want)


FFN_SHAPES = [(5, 4), (3, 5, 4)]


def three_op_ffn(x, w1, w2):
    return T.matmul(T.softsign(T.matmul(x, w1)), w2)


@pytest.mark.parametrize("shape", FFN_SHAPES)
def test_feed_forward_equals_three_ops_bit_for_bit(shape, rng):
    arrays = [rng.normal(size=shape), rng.normal(size=(4, 16)), rng.normal(size=(16, 4))]
    w = rng.normal(size=shape)

    def run(op):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        # the residual add gives x a second gradient, summed in the model's order
        T.backward(T.tensor_sum(T.mul(T.add(leaves[0], out), T.Tensor(w))))
        return out.data, [leaf.grad for leaf in leaves]

    got, want = run(T.feed_forward), run(three_op_ffn)
    assert np.array_equal(got[0], want[0])
    assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))


@pytest.mark.parametrize("shape", FFN_SHAPES)
def test_feed_forward_gradients_and_forward(shape, rng):
    x, w1, w2 = rng.normal(size=shape), rng.normal(size=(4, 16)), rng.normal(size=(16, 4))
    check_grad(lambda ts: T.feed_forward(*ts), [x, w1, w2])
    got = T.feed_forward(T.Tensor(x), T.Tensor(w1), T.Tensor(w2)).data
    assert np.allclose(got, oracles.softsign(x @ w1) @ w2, atol=1e-12)


def test_feed_forward_rejects_bad_shapes(rng):
    def ff(sx, s1, s2):
        return T.feed_forward(*(T.Tensor(rng.normal(size=s)) for s in (sx, s1, s2)))

    assert ff((2, 5, 4), (4, 8), (8, 3)).shape == (2, 5, 3)
    for shapes in [((4,), (4, 8), (8, 4)),          # rank-1 input
                   ((5, 4), (1, 4, 8), (8, 4)),     # rank-3 weight
                   ((5, 4), (4, 8), (8,)),          # rank-1 weight
                   ((5, 3), (4, 8), (8, 4)),        # x and w1 differ
                   ((5, 4), (4, 8), (7, 4))]:       # w1 and w2 differ
        with pytest.raises(T.ShapeError):
            ff(*shapes)


def test_feed_forward_checks_every_stage_finite(rng, monkeypatch):
    x, w1, w2 = np.full((2, 3), 1e200), np.full((3, 4), 1e200), np.ones((4, 2))
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="^matmul"):
        T.feed_forward(T.Tensor(x), T.Tensor(w1), T.Tensor(w2))  # x @ w1 overflows
    x, w1, w2 = np.ones((2, 3)), np.ones((3, 4)), np.full((4, 2), 1e308)
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="^matmul"):
        T.feed_forward(T.Tensor(x), T.Tensor(w1), T.Tensor(w2))  # the output overflows
    # softsign of a finite h is finite (|s| < 1); only a faulty denominator
    # reaches its check
    monkeypatch.setattr(T.np, "abs", lambda a: np.full_like(a, -1.0))
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(T.NonFiniteError, match="^softsign"):
        T.feed_forward(T.Tensor(x), T.Tensor(w1), T.Tensor(np.ones((4, 2))))


def test_masked_cross_entropy_matches_reference(rng):
    logits = rng.normal(size=(6, 10))
    targets = rng.integers(0, 10, size=6)
    mask = np.array([1, 0, 1, 1, 0, 0], dtype=bool)
    got = T.masked_cross_entropy(T.Tensor(logits), targets, mask)
    want = oracles.masked_cross_entropy(logits, targets, mask)
    assert abs(float(got.data) - want) < 1e-12


def test_masked_cross_entropy_gradients(rng):
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    mask = np.array([1, 1, 0, 1, 0], dtype=bool)
    check_grad(lambda ts: T.masked_cross_entropy(ts[0], targets, mask), [logits])


def test_masked_cross_entropy_requires_masked_position(rng):
    logits = rng.normal(size=(3, 4))
    with pytest.raises(ValueError):
        T.masked_cross_entropy(T.Tensor(logits), np.zeros(3, dtype=int),
                               np.zeros(3, dtype=bool))


def test_embedding_gradients_scatter(rng):
    table = rng.normal(size=(9, 4))
    ids = np.array([1, 3, 3, 0])
    t = T.Tensor(table, requires_grad=True)
    out = T.embedding(t, ids)
    assert np.allclose(out.data, table[ids])
    T.backward(T.tensor_sum(out))
    # repeated id 3 accumulates twice
    assert np.allclose(t.grad[3], 2.0)
    assert np.allclose(t.grad[1], 1.0)
    assert np.allclose(t.grad[2], 0.0)


def test_concat_gradients(rng):
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))
    check_grad(lambda ts: T.concat([ts[0], ts[1]]), [a, b])


# ---------------------------------------------------------------------------
# leading (head) axes; BATCHED_CASES also run through test_binary_gradients


def _head(x, h):
    return x if x.ndim == 2 else x[h]


@pytest.mark.parametrize("name,op,sa,sb", BATCHED_CASES)
def test_batched_binary_forward_matches_head_loop(name, op, sa, sb, rng):
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)
    got = op(T.Tensor(a), T.Tensor(b)).data
    want = np.stack([op(T.Tensor(_head(a, h)), T.Tensor(_head(b, h))).data
                     for h in range(HEADS)])
    assert np.array_equal(got, want)


def test_batched_cosine_zero_row_is_zero(rng):
    a = rng.normal(size=(HEADS, 3, 4))
    a[1, 2] = 0.0
    ta = T.Tensor(a, requires_grad=True)
    out = T.cosine_similarity(ta, T.Tensor(rng.normal(size=(HEADS, 3, 4))))
    assert np.all(out.data[1, 2] == 0.0)
    T.backward(T.tensor_sum(out))
    assert np.all(ta.grad[1, 2] == 0.0) and np.isfinite(ta.grad).all()


def test_matmul_rejects_mismatched_leading_axes(rng):
    with pytest.raises(T.ShapeError):
        T.matmul(T.Tensor(rng.normal(size=(2, 3, 4))),
                 T.Tensor(rng.normal(size=(3, 4, 5))))


def test_merge_heads_matches_concat(rng):
    x = rng.normal(size=(HEADS, 4, 2))
    got = T.merge_heads(T.Tensor(x)).data
    want = T.concat([T.Tensor(x[h]) for h in range(HEADS)]).data
    assert np.array_equal(got, want)
    check_grad(lambda ts: T.merge_heads(ts[0]), [x])
    with pytest.raises(T.ShapeError):
        T.merge_heads(T.Tensor(rng.normal(size=(4, 2))))


# ---------------------------------------------------------------------------
# leading (sequence) axes: each batched op equals a loop over its 2-D form,
# and its gradients match central differences

BATCH = 2
N, D = 4, 5

BROADCAST_MATMULS = [
    ("lifted sequences x stacked heads", (BATCH, 1, N, D), (HEADS, D, 2)),
    ("sequences x shared weight", (BATCH, N, D), (D, 3)),
    ("per sequence and head", (BATCH, HEADS, N, 2), (BATCH, HEADS, 2, 3)),
]


@pytest.mark.parametrize("name,sa,sb", BROADCAST_MATMULS)
def test_broadcast_matmul_matches_matrix_loop(name, sa, sb, rng):
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    lead = np.broadcast_shapes(sa[:-2], sb[:-2])
    full_a = np.broadcast_to(a, lead + sa[-2:])
    full_b = np.broadcast_to(b, lead + sb[-2:])
    assert got.shape == lead + (sa[-2], sb[-1])
    for idx in np.ndindex(lead):
        want = T.matmul(T.Tensor(full_a[idx]), T.Tensor(full_b[idx])).data
        assert np.array_equal(got[idx], want)
    for trial in range(3):
        check_grad(lambda ts: T.matmul(ts[0], ts[1]), [a, b], seed=trial)


@pytest.mark.parametrize("op", [T.cosine_similarity, T.euclidean_distance])
def test_rank_four_distances_match_matrix_loop(op, rng):
    a = rng.normal(size=(BATCH, HEADS, N, 3))
    b = rng.normal(size=(BATCH, HEADS, N, 3))
    got = op(T.Tensor(a), T.Tensor(b)).data
    for i, h in np.ndindex(BATCH, HEADS):
        assert np.array_equal(got[i, h], op(T.Tensor(a[i, h]), T.Tensor(b[i, h])).data)
    check_grad(lambda ts: op(ts[0], ts[1]), [a, b])


def test_add_trailing_shape_matches_loop(rng):
    x = rng.normal(size=(BATCH, N, D))
    pos = rng.normal(size=(N, D))
    for a, b in ((x, pos), (pos, x)):
        got = T.add(T.Tensor(a), T.Tensor(b)).data
        want = np.stack([T.add(T.Tensor(x[i]), T.Tensor(pos)).data for i in range(BATCH)])
        assert np.array_equal(got, want)
        check_grad(lambda ts: T.add(ts[0], ts[1]), [a, b])
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(x), T.Tensor(rng.normal(size=(BATCH, D))))


def test_merge_heads_rank_four_matches_concat(rng):
    x = rng.normal(size=(BATCH, HEADS, N, 2))
    got = T.merge_heads(T.Tensor(x)).data
    want = np.stack([T.concat([T.Tensor(x[i, h]) for h in range(HEADS)]).data
                     for i in range(BATCH)])
    assert np.array_equal(got, want)
    check_grad(lambda ts: T.merge_heads(ts[0]), [x])


def test_reshape_round_trips_values_and_gradient(rng):
    x = rng.normal(size=(BATCH, N, D))
    assert np.array_equal(T.reshape(T.Tensor(x), (BATCH, 1, N, D)).data[:, 0], x)
    check_grad(lambda ts: T.reshape(ts[0], (BATCH, 1, N, D)), [x])
    with pytest.raises(T.ShapeError):
        T.reshape(T.Tensor(x), (N, N))


def _per_sequence(op, x, *rest):
    return np.stack([op(T.Tensor(x[i]), *rest).data for i in range(len(x))])


def test_batched_depthwise_conv_matches_loop(rng):
    x = rng.normal(size=(BATCH, N + 2, 3))
    kern = rng.normal(size=(3, 3))
    got = T.depthwise_conv1d(T.Tensor(x), T.Tensor(kern)).data
    assert np.array_equal(got, _per_sequence(T.depthwise_conv1d, x, T.Tensor(kern)))
    check_grad(lambda ts: T.depthwise_conv1d(ts[0], ts[1]), [x, kern])


def test_batched_glu_matches_loop(rng):
    x = rng.normal(size=(BATCH, N, 6))
    assert np.array_equal(T.glu(T.Tensor(x)).data, _per_sequence(T.glu, x))
    check_grad(lambda ts: T.glu(ts[0]), [x])


def test_batched_layer_norm_matches_loop(rng):
    x = rng.normal(size=(BATCH, N, 6))
    g = rng.normal(size=(6,))
    b = rng.normal(size=(6,))
    got = T.layer_norm(T.Tensor(x), T.Tensor(g), T.Tensor(b)).data
    assert np.array_equal(got, _per_sequence(T.layer_norm, x, T.Tensor(g), T.Tensor(b)))
    check_grad(lambda ts: T.layer_norm(ts[0], ts[1], ts[2]), [x, g, b])


def test_batched_embedding_matches_loop_and_scatters(rng):
    table = rng.normal(size=(9, 4))
    ids = np.array([[1, 3, 3, 0], [3, 8, 1, 1]])
    t = T.Tensor(table, requires_grad=True)
    out = T.embedding(t, ids)
    assert np.array_equal(out.data, np.stack([T.embedding(T.Tensor(table), row).data
                                              for row in ids]))
    T.backward(T.tensor_sum(out))
    assert np.array_equal(t.grad[:, 0], np.bincount(ids.ravel(), minlength=9))
    check_grad(lambda ts: T.embedding(ts[0], ids), [table])


def _batch_for_loss(rng, vocab=7):
    logits = rng.normal(size=(3, N + 1, vocab))
    targets = rng.integers(0, vocab, size=(3, N + 1))
    mask = np.array([[1, 0, 1, 1, 0], [0, 0, 0, 1, 0], [1, 1, 1, 1, 1]], dtype=bool)
    return logits, targets, mask


def test_batched_masked_cross_entropy_is_mean_of_sequence_means(rng):
    logits, targets, mask = _batch_for_loss(rng)
    got = T.masked_cross_entropy(T.Tensor(logits), targets, mask).item()
    per_seq = [T.masked_cross_entropy(T.Tensor(logits[i]), targets[i], mask[i]).item()
               for i in range(3)]
    # the same bits as summing the sequence losses in order, then scaling
    assert got == sum(per_seq) * (1.0 / 3)
    oracle = np.mean([oracles.masked_cross_entropy(logits[i], targets[i], mask[i])
                      for i in range(3)])
    assert abs(got - oracle) < 1e-12
    check_grad(lambda ts: T.masked_cross_entropy(ts[0], targets, mask), [logits])


def test_batched_masked_cross_entropy_requires_masked_position_per_sequence(rng):
    logits, targets, mask = _batch_for_loss(rng)
    mask[1] = False
    with pytest.raises(ValueError):
        T.masked_cross_entropy(T.Tensor(logits), targets, mask)
    with pytest.raises(T.ShapeError):
        T.masked_cross_entropy(T.Tensor(logits), targets[:, :-1], mask[:, :-1])


def test_softmax_rows_sum_to_one(rng):
    x = rng.normal(size=(5, 7)) * 10
    s = T.softmax(T.Tensor(x)).data
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert np.allclose(s, oracles.softmax_rows(x), atol=1e-12)


def test_nonfinite_forward_raises():
    big = np.full((2, 2), 1e308)
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
        T.add(T.Tensor(big), T.Tensor(big))


def test_finite_check_tests_elements_not_their_sum():
    # finite elements whose sum overflows pass
    with np.errstate(over="ignore"):
        out = T.scale(T.Tensor([1.5e308, 1.5e308]))
    assert np.isfinite(out.data).all()
    # any NaN or infinite element raises, whatever the sum
    for bad in ([1.0, np.nan], [np.inf, 1.0], [-np.inf, 2.0], [np.inf, -np.inf]):
        with np.errstate(invalid="ignore"), pytest.raises(T.NonFiniteError):
            T.neg(T.Tensor(bad))


def test_gradients_accumulate_across_backward_calls(rng):
    x = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    T.backward(T.tensor_sum(T.neg(x)))
    first = x.grad.copy()
    T.backward(T.tensor_sum(T.neg(x)))
    assert np.allclose(x.grad, 2 * first)


def test_op_output_no_backward_reads_is_freed_while_loss_lives(rng):
    a = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = rng.normal(size=(2, 3))
    s = T.add(a, b)  # scale's backward reads no input, so nothing keeps s
    alive = weakref.ref(s.data)
    loss = T.tensor_sum(T.mul(T.neg(T.scale(s)), T.Tensor(w)))
    del s
    assert alive() is None
    T.backward(loss)
    # the gradient the tape computes in this order: w, -w, then -w * c
    want = (-(w * np.ones((2, 3)))) * (1.0 / np.sqrt(3))
    assert np.array_equal(a.grad, want) and np.array_equal(b.grad, want)


def test_backward_frees_saved_arrays_while_loss_lives(rng):
    x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h = T.neg(x)
    saved = weakref.ref(h.data)  # mul's backward reads it
    loss = T.tensor_sum(T.mul(h, T.Tensor(rng.normal(size=(2, 3)))))
    del h
    assert saved() is not None
    T.backward(loss)
    assert saved() is None


def test_second_backward_through_a_walked_graph_raises(rng):
    x = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    y = T.neg(x)
    first, second = T.tensor_sum(y), T.tensor_sum(T.scale(y))
    T.backward(first)
    grad = x.grad.copy()
    for loss in (first, second):  # the same loss, and one that shares y's node
        with pytest.raises(RuntimeError, match="already walked"):
            T.backward(loss)
        assert np.array_equal(x.grad, grad)  # nothing written


def test_repeated_gradient_sums_without_writing_op_outputs(rng):
    x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = T.neg(x)
    s = T.add(T.add(y, y), y)  # y's gradient arrives three times
    handed = []
    outer = s._node.grad_fn

    def recording(g):
        handed.append((g, g.copy()))
        return outer(g)  # add passes this very array on, to y and to the inner add

    s._node.grad_fn = recording
    w = rng.normal(size=(2, 3))
    T.backward(T.tensor_sum(T.mul(s, T.Tensor(w))))
    [(g, before)] = handed
    assert np.array_equal(g, before)
    assert np.array_equal(x.grad, -((g + g) + g))


def test_backward_requires_scalar(rng):
    x = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(T.neg(x))


def test_scalar_tensor_has_empty_shape():
    assert T.Tensor(3.0).shape == ()
    assert T.tensor_sum(T.Tensor(np.ones((2, 2)))).shape == ()


def test_adam_moves_against_gradient():
    p = T.Parameter(np.array([[1.0, -2.0]]), name="p")
    opt = T.Adam([p], lr=0.1)
    opt.zero_grad()
    T.backward(T.tensor_sum(p))
    before = p.data.copy()
    opt.step()
    # gradient of sum is +1 everywhere, Adam steps in -grad direction
    assert np.all(p.data < before)


def test_adam_none_grad_is_noop():
    p = T.Parameter(np.array([[1.0, 2.0]]), name="p")
    opt = T.Adam([p], lr=0.5)
    opt.zero_grad()
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_matches_functional_form():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(3, 2))
    grad = rng.normal(size=(3, 2))

    p = T.Parameter(data.copy(), name="p")
    p.grad = grad.copy()
    opt = T.Adam([p], lr=0.01)
    opt.step()
    opt.zero_grad()
    p.grad = grad.copy()
    opt.step()

    want = oracles.adam(data, [grad, grad], lr=0.01)
    assert np.allclose(p.data, want, atol=1e-12)


def test_adam_equals_allocating_update_bit_for_bit():
    rng = np.random.default_rng(6)
    # starting near zero, the steps are as large as the values, so a step
    # that differs in its last bits changes the result
    start = [1e-6 * rng.normal(size=(4, 3)), 1e-6 * rng.normal(size=(5,))]
    grads = [[rng.normal(size=a.shape) for _ in range(4)] for a in start]
    # params[1] has no gradient at steps 1 and 3: a zero gradient, so its
    # moments decay
    grads[1][1] = grads[1][3] = None
    params = [T.Parameter(a.copy(), name=f"p{i}") for i, a in enumerate(start)]
    opt = T.Adam(params, lr=0.01)
    for step in range(4):
        opt.zero_grad()
        for p, gs in zip(params, grads):
            p.grad = None if gs[step] is None else gs[step].copy()
        opt.step()
    for p, a, gs in zip(params, start, grads):
        full = [np.zeros_like(a) if g is None else g for g in gs]
        assert np.array_equal(p.data, oracles.adam(a, full, lr=0.01))
