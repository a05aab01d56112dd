"""Gradient and forward checks for the autodiff core.

Every differentiable op is verified against central finite differences;
forward values are pinned against independently computed references.
"""

import numpy as np
import pytest

import oracles
from opnas import tensor as T

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


def test_euclidean_coincident_rows_zero_grad(rng):
    a = rng.normal(size=(3, 4))
    b = a.copy()
    ta = T.Tensor(a, requires_grad=True)
    out = T.euclidean_distance(ta, T.Tensor(b))
    assert np.allclose(np.diag(out.data), 0.0)
    T.backward(T.tensor_sum(out))
    assert np.isfinite(ta.grad).all()


def test_linear_gradients(rng):
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 5))
    check_grad(lambda ts: T.linear(ts[0], ts[1]), [x, w])


def test_depthwise_conv_gradients(rng):
    x = rng.normal(size=(6, 4))
    kern = rng.normal(size=(3, 4))
    check_grad(lambda ts: T.depthwise_conv1d(ts[0], ts[1]), [x, kern])


def test_depthwise_conv_forward_matches_reference(rng):
    x = rng.normal(size=(8, 3))
    kern = rng.normal(size=(5, 3))
    got = T.depthwise_conv1d(T.Tensor(x), T.Tensor(kern)).data
    assert np.allclose(got, oracles.depthwise_conv(x, kern), atol=1e-12)


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


def test_softmax_rows_sum_to_one(rng):
    x = rng.normal(size=(5, 7)) * 10
    s = T.softmax(T.Tensor(x)).data
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert np.allclose(s, oracles.softmax_rows(x), atol=1e-12)


def test_nonfinite_forward_raises():
    big = np.full((2, 2), 1e308)
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
        T.add(T.Tensor(big), T.Tensor(big))


def test_gradients_accumulate_across_backward_calls(rng):
    x = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    T.backward(T.tensor_sum(T.neg(x)))
    first = x.grad.copy()
    T.backward(T.tensor_sum(T.neg(x)))
    assert np.allclose(x.grad, 2 * first)


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

    values = [data.copy()]
    state = {}
    for _ in range(2):
        state = T.adam_step(values, [grad], state, lr=0.01)
    assert np.allclose(p.data, values[0], atol=1e-12)
