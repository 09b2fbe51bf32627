import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbqgen import autodiff as ad


def finite_diff(f, params, eps=1e-5):
    """Independent central-difference oracle; never touches backward()."""
    grads = []
    with ad.no_grad():
        for p in params:
            flat = p.value.data.reshape(-1)
            g = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = f().item()
                flat[i] = orig - eps
                lo = f().item()
                flat[i] = orig
                g[i] = (hi - lo) / (2 * eps)
            grads.append(g.reshape(p.value.data.shape))
    return grads


def analytic_grads(f, params):
    for p in params:
        p.zero_grad()
    loss = f()
    ad.backward(loss)
    return [p.grad.copy() for p in params]


def rel_err(a, n):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom))


def check_op(f, params):
    a = analytic_grads(f, params)
    n = finite_diff(f, params)
    return max(rel_err(x, y) for x, y in zip(a, n))


def test_matmul_identity():
    i2 = ad.tensor(np.eye(2))
    out = ad.matmul(i2, i2)
    assert np.array_equal(out.data, np.eye(2))


def test_matmul_hand():
    a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.tensor([[1.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    a = ad.tensor(np.zeros((3, 4)))
    b = ad.tensor(np.zeros((3, 2)))
    with pytest.raises(ad.ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
        ad.matmul(a, b)


def test_matmul_gradients_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = ad.Parameter("a", rng.normal(size=(3, 4)))
    b = ad.Parameter("b", rng.normal(size=(4, 2)))

    def f():
        return ad.sum_all(ad.tanh(ad.matmul(a.value, b.value)))

    assert check_op(f, [a, b]) < 1e-4


def test_softmax_uniform_on_equal_logits():
    out = ad.softmax_rows(ad.tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_no_overflow():
    out = ad.softmax_rows(ad.tensor([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] > 0.999999
    assert out.data[0, 1] < 1e-6


def test_softmax_nan_rejected():
    with pytest.raises(ad.NumericError):
        ad.softmax_rows(ad.tensor([[np.nan, 0.0]]))


def test_softmax_backward_vs_finite_differences():
    rng = np.random.default_rng(1)
    p = ad.Parameter("x", rng.normal(size=(2, 5)))
    w = ad.tensor(rng.normal(size=(2, 5)))

    def f():
        return ad.sum_all(ad.mul(ad.softmax_rows(p.value), w))

    assert check_op(f, [p]) < 1e-4


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_softmax_rows_sum_to_one(m, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=10.0, size=(m, n))
    out = ad.softmax_rows(ad.tensor(x))
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-9)


def norm_only(n, gain=None, bias=None):
    """FFN weights that zero the sublayer, so ffn_forward is the bare layer norm."""
    return ad.FFNWeights(
        ad.Parameter("w1", np.zeros((n, 2 * n))),
        ad.Parameter("b1", np.zeros((1, 2 * n))),
        ad.Parameter("w2", np.zeros((2 * n, n))),
        ad.Parameter("b2", np.zeros((1, n))),
        ad.Parameter("g", np.ones((1, n)) if gain is None else gain),
        ad.Parameter("b", np.zeros((1, n)) if bias is None else bias),
    )


def test_layer_norm_constant_row_is_zero():
    out, _ = ad.ffn_forward(np.array([[5.0, 5.0, 5.0]]), norm_only(3))
    assert np.allclose(out, 0.0)


def test_layer_norm_two_values():
    # (x - mu)/sigma for [1, 3]: mu=2, sigma=1 -> [-1, 1] up to the 1e-5 eps
    out, _ = ad.ffn_forward(np.array([[1.0, 3.0]]), norm_only(2))
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_gradients():
    rng = np.random.default_rng(2)
    x = ad.Parameter("x", rng.normal(size=(3, 6)))
    w = norm_only(6, gain=rng.normal(size=(1, 6)), bias=rng.normal(size=(1, 6)))
    probe = ad.tensor(rng.normal(size=(3, 6)))

    def f():
        return ad.sum_all(ad.mul(ad.ffn_block(x.value, w), probe))

    assert check_op(f, [x, w.ln_gain, w.ln_bias]) < 1e-4


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_layer_norm_standardizes_rows(n, seed):
    # the 1e-5 variance bound needs row variance >> eps, so skip degenerate rows
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=(4, n))
    if np.any(x.var(axis=1) < 2.0):
        return
    out, _ = ad.ffn_forward(x, norm_only(n))
    assert np.all(np.abs(out.mean(axis=1)) < 1e-7)
    assert np.all(np.abs(out.var(axis=1) - 1.0) < 1e-5)


def test_sigmoid_points():
    assert ad.sigmoid(ad.tensor([[0.0]])).item() == 0.5


def test_gather_grad_counts_occurrences():
    table = ad.Parameter("emb", np.arange(12, dtype=np.float64).reshape(4, 3))
    ids = [2, 0, 2]
    out = ad.sum_all(ad.gather(table.value, ids))
    table.zero_grad()
    ad.backward(out)
    # each gathered row receives one unit of gradient per occurrence
    expected = np.zeros((4, 3))
    expected[2] = 2.0
    expected[0] = 1.0
    assert np.array_equal(table.grad, expected)


def test_gather_out_of_bounds_names_index():
    table = ad.tensor(np.zeros((4, 3)))
    with pytest.raises(IndexError, match="7"):
        ad.gather(table, [1, 7])


def test_backward_non_scalar_rejected():
    p = ad.Parameter("p", np.ones((2, 2)))
    out = ad.mul(p.value, p.value)
    with pytest.raises(ad.ContractError):
        ad.backward(out)


def test_backward_is_additive():
    rng = np.random.default_rng(3)
    init = rng.normal(size=(2, 3))

    def losses(p):
        l1 = ad.sum_all(ad.mul(p.value, p.value))
        l2 = ad.sum_all(ad.tanh(p.value))
        return l1, l2

    p = ad.Parameter("p", init.copy())
    l1, l2 = losses(p)
    ad.backward(l1)
    ad.backward(l2)
    separate = p.grad.copy()

    p2 = ad.Parameter("p", init.copy())
    l1, l2 = losses(p2)
    ad.backward(ad.add(l1, l2))
    assert np.allclose(separate, p2.grad, rtol=1e-12, atol=1e-15)


def test_grad_check_quadratic():
    # f(theta) = sum(theta^2): analytic gradient 2*theta
    p = ad.Parameter("p", np.array([[0.3, -1.2, 2.0]]))

    def f():
        return ad.sum_all(ad.mul(p.value, p.value))

    assert ad.grad_check(f, [p]) < 1e-7


def test_grad_check_constant_function():
    p = ad.Parameter("p", np.ones((1, 2)))
    c = ad.tensor([[4.0]])

    def f():
        return ad.add(ad.scale(ad.sum_all(p.value), 0.0), c)

    assert ad.grad_check(f, [p]) == 0.0


def test_neg_log_prob_floor_keeps_loss_finite():
    p = ad.tensor([[0.0, 1.0]])
    out = ad.neg_log_prob(p, [0])
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(-np.log(1e-12))


def test_concat_roundtrip_gradients():
    rng = np.random.default_rng(4)
    a = ad.Parameter("a", rng.normal(size=(2, 3)))
    b = ad.Parameter("b", rng.normal(size=(2, 2)))
    w = ad.tensor(rng.normal(size=(2, 5)))

    def f():
        return ad.sum_all(ad.mul(ad.concat([a.value, b.value], axis=1), w))

    assert check_op(f, [a, b]) < 1e-4


PRIMITIVE_CASES = {
    "matmul": lambda p, q, w: ad.matmul(p, q),
    "transpose": lambda p, q, w: ad.matmul(ad.transpose(p), w),
    "add": lambda p, q, w: ad.add(p, q),
    "sub": lambda p, q, w: ad.sub(p, q),
    "mul": lambda p, q, w: ad.mul(p, q),
    "tanh": lambda p, q, w: ad.tanh(p),
    "sigmoid": lambda p, q, w: ad.sigmoid(p),
    "softmax": lambda p, q, w: ad.softmax_rows(p),
    "concat0": lambda p, q, w: ad.concat([p, q], axis=0),
    "gather": lambda p, q, w: ad.gather(p, [1, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    p = ad.Parameter("p", rng.normal(size=(3, 3)) + 2.0)
    q = ad.Parameter("q", rng.normal(size=(3, 3)) + 2.0)
    w = ad.tensor(rng.normal(size=(3, 3)))
    op = PRIMITIVE_CASES[name]
    probe = ad.tensor(rng.normal(size=op(p.value, q.value, w).shape))

    def f():
        return ad.sum_all(ad.mul(op(p.value, q.value, w), probe))

    assert check_op(f, [p, q]) < 1e-4


def attention_weights(rng, d):
    mats = [ad.Parameter(nm, rng.normal(size=(d, d)) * 0.3) for nm in ("wq", "wk", "wv", "wo")]
    gain = ad.Parameter("g", 1.0 + 0.3 * rng.normal(size=(1, d)))
    bias = ad.Parameter("b", 0.3 * rng.normal(size=(1, d)))
    return ad.AttentionWeights(*mats, gain, bias)


def ffn_weights(rng, d):
    return ad.FFNWeights(
        ad.Parameter("w1", rng.normal(size=(d, 2 * d)) * 0.5),
        ad.Parameter("b1", rng.normal(size=(1, 2 * d)) * 0.5),
        ad.Parameter("w2", rng.normal(size=(2 * d, d)) * 0.5),
        ad.Parameter("b2", rng.normal(size=(1, d)) * 0.5),
        ad.Parameter("g", 1.0 + 0.3 * rng.normal(size=(1, d))),
        ad.Parameter("b", 0.3 * rng.normal(size=(1, d))),
    )


def dropout_mask(rng, shape, rate=0.3):
    return (rng.random(shape) >= rate) / (1.0 - rate)


def sublayer_params(w):
    return [getattr(w, name) for name in vars(w)]


@pytest.mark.parametrize("causal", [False, True])
def test_multihead_attention_gradients(causal):
    # self-attention block, with and without a dropout mask
    # 10 rows: numpy sums rows of 8 or more pairwise, so the masked zeros
    # take part in the rounding of the softmax sums
    rng = np.random.default_rng(11 + causal)
    d = 4
    w = attention_weights(rng, d)
    for n in (3, 10):
        x = ad.Parameter("x", rng.normal(size=(n, d)))
        for mask in (None, dropout_mask(rng, (n, d))):
            drop = None if mask is None else (lambda shape, m=mask: m)

            def f():
                out = ad.attention_block(x.value, x.value, w, 2, causal=causal, drop=drop)
                return ad.sum_all(ad.tanh(out))

            assert check_op(f, [x] + sublayer_params(w)) < 1e-4


def test_multihead_attention_cross_gradients():
    rng = np.random.default_rng(13)
    d = 4
    x = ad.Parameter("x", rng.normal(size=(3, d)))
    kv = ad.Parameter("kv", rng.normal(size=(2, d)))
    w = attention_weights(rng, d)
    for mask in (None, dropout_mask(rng, (3, d))):
        drop = None if mask is None else (lambda shape, m=mask: m)

        def f():
            return ad.sum_all(ad.tanh(ad.attention_block(x.value, kv.value, w, 2, drop=drop)))

        assert check_op(f, [x, kv] + sublayer_params(w)) < 1e-4


@pytest.mark.parametrize("masked", [False, True])
def test_ffn_block_gradients(masked):
    rng = np.random.default_rng(17 + masked)
    d = 4
    x = ad.Parameter("x", rng.normal(size=(3, d)))
    w = ffn_weights(rng, d)
    mask = dropout_mask(rng, (3, d)) if masked else None
    drop = None if mask is None else (lambda shape: mask)

    def f():
        return ad.sum_all(ad.tanh(ad.ffn_block(x.value, w, drop=drop)))

    assert check_op(f, [x] + sublayer_params(w)) < 1e-4


def numpy_add_norm(x, y, w, mask):
    z = x + (y if mask is None else y * mask)
    xhat = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + 1e-5)
    return w.ln_gain.value.data * xhat + w.ln_bias.value.data


def numpy_attention(x, kv, w, heads, causal, mask):
    # all rows at once, causality as an additive -inf mask above the diagonal
    d = x.shape[1]
    dh = d // heads
    q, k, v = x @ w.wq.value.data, kv @ w.wk.value.data, kv @ w.wv.value.data
    out = np.zeros_like(q)
    for j in range(heads):
        sl = slice(j * dh, (j + 1) * dh)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        if causal:
            s = s + np.triu(np.full(s.shape, -np.inf), k=1)
        a = np.exp(s - s.max(axis=1, keepdims=True))
        out[:, sl] = (a / a.sum(axis=1, keepdims=True)) @ v[:, sl]
    return numpy_add_norm(x, out @ w.wo.value.data, w, mask)


def numpy_ffn(x, w, mask):
    hidden = np.maximum(x @ w.w1.value.data + w.b1.value.data, 0.0)
    return numpy_add_norm(x, hidden @ w.w2.value.data + w.b2.value.data, w, mask)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("case", ["causal", "self", "cross", "ffn"])
def test_sublayer_forward_matches_numpy_composition(case, masked):
    rng = np.random.default_rng(19)
    d, n, heads = 6, 5, 3
    x = rng.normal(size=(n, d))
    kv = rng.normal(size=(4, d)) if case == "cross" else x
    mask = dropout_mask(rng, (n, d)) if masked else None
    drop = None if mask is None else (lambda shape: mask)
    if case == "ffn":
        w = ffn_weights(rng, d)
        expected = numpy_ffn(x, w, mask)
        recorded = ad.ffn_block(ad.tensor(x), w, drop=drop).data
        kernel, _ = ad.ffn_forward(x, w, mask)
    else:
        w = attention_weights(rng, d)
        causal = case == "causal"
        expected = numpy_attention(x, kv, w, heads, causal, mask)
        kv_t = ad.tensor(kv)
        recorded = ad.attention_block(
            kv_t if kv is x else ad.tensor(x), kv_t, w, heads, causal=causal, drop=drop
        ).data
        K, V = kv @ w.wk.value.data, kv @ w.wv.value.data
        kernel, _ = ad.attention_forward(x, K, V, w, heads, causal=causal, mask=mask)
    np.testing.assert_allclose(recorded, expected, rtol=1e-12, atol=1e-12)
    assert np.array_equal(kernel, recorded)


def test_no_grad_blocks_recording():
    p = ad.Parameter("p", np.ones((1, 2)))
    with ad.no_grad():
        out = ad.sum_all(ad.mul(p.value, p.value))
    assert not out.requires_grad
    with pytest.raises(ad.ContractError):
        ad.backward(out)
