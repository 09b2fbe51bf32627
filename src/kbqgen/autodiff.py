"""Small dense-tensor autodiff engine for the question generation model.

All tensors are 2-D row-major arrays (scalars are [1,1], vectors [1,n]).
float64 is the default and the only mode the test suite uses; finite
differences are not trustworthy in float32, which is offered purely as a
training-speed option. Every operation records its inputs and a backward
closure on its output, so a forward pass rebuilds the computation record
from scratch (define-by-run) and ``backward`` replays it once in reverse
topological order.

Transformer sublayers are single ops: ``attention_block`` and ``ffn_block``
each record LayerNorm(x + Dropout(Sublayer(x))) with one hand-written
backward, over the plain-numpy kernels ``attention_forward`` and
``ffn_forward`` that incremental decoding calls directly. Ops defined
outside this module (the decoder's copy head) use ``record`` and ``accum``
the same way.

Graphs are single-use: an optimizer may mutate Parameter values between
passes, never during one. Recording is skipped entirely inside ``no_grad``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the operation."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class ContractError(RuntimeError):
    """An operation was called outside its contract."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Skip graph recording (decoding, finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A 2-D array plus a lazily allocated gradient slot and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, np.ndarray):
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            arr = np.atleast_2d(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter:
    """A named trainable tensor; ``grad`` accumulates until explicitly zeroed."""

    def __init__(self, name, data):
        self.name = name
        self.value = Tensor(data, requires_grad=True)
        self.value.grad = np.zeros_like(self.value.data)

    @property
    def grad(self):
        return self.value.grad

    def zero_grad(self):
        self.value.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.data.shape})"


def tensor(data):
    """Constant (non-differentiable) tensor from array-like data."""
    return Tensor(data)


def accum(t, g):
    """Add g into t's gradient slot; a no-op for constants."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def record(data, parents, backward_fn):
    """Wrap an op's output; ``backward_fn(g)`` accumulates into the parents.

    Outside ``no_grad``, and when a parent requires grad, the output keeps
    its parents and closure for ``backward``; otherwise it is a constant.
    """
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(parents)
        out._backward = backward_fn
        return out
    return Tensor(data)


def _toposort(root):
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.requires_grad and id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss):
    """Accumulate d(loss)/d(x) into .grad of every reachable tensor.

    The reverse sweep walks the recorded operations once, in reverse
    topological order; tensors not on a path to ``loss`` keep their grads.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward on a constant: nothing requires grad")
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _reduce_to(g, shape):
    """Sum a broadcasted gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    if shape == (1, 1):
        return g.sum().reshape(1, 1)
    if shape == (1, g.shape[1]):
        return g.sum(axis=0, keepdims=True)
    if shape == (g.shape[0], 1):
        return g.sum(axis=1, keepdims=True)
    raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")


def _check_broadcast(a, b, op):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or sb == (1, 1) or sa == (1, 1):
        return
    if sb == (1, sa[1]) or sb == (sa[0], 1):
        return
    if sa == (1, sb[1]) or sa == (sb[0], 1):
        return
    raise ShapeError(f"{op}: shapes {sa} and {sb} do not align")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a, b):
    """Matrix product [m,k]x[k,n] -> [m,n]."""
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}"
        )

    def bwd(g):
        accum(a, g @ b.data.T)
        accum(b, a.data.T @ g)

    return record(a.data @ b.data, (a, b), bwd)


def transpose(a):
    def bwd(g):
        accum(a, g.T)

    return record(a.data.T.copy(), (a,), bwd)


def add(a, b):
    _check_broadcast(a, b, "add")

    def bwd(g):
        accum(a, _reduce_to(g, a.data.shape))
        accum(b, _reduce_to(g, b.data.shape))

    return record(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_broadcast(a, b, "sub")

    def bwd(g):
        accum(a, _reduce_to(g, a.data.shape))
        accum(b, _reduce_to(-g, b.data.shape))

    return record(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_broadcast(a, b, "mul")

    def bwd(g):
        accum(a, _reduce_to(g * b.data, a.data.shape))
        accum(b, _reduce_to(g * a.data, b.data.shape))

    return record(a.data * b.data, (a, b), bwd)


def scale(a, c):
    """Multiply by a Python float constant."""
    c = float(c)

    def bwd(g):
        accum(a, g * c)

    return record(a.data * c, (a,), bwd)


def tanh(a):
    out_data = np.tanh(a.data)

    def bwd(g):
        accum(a, g * (1.0 - out_data * out_data))

    return record(out_data, (a,), bwd)


def sigmoid(a):
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def bwd(g):
        accum(a, g * out_data * (1.0 - out_data))

    return record(out_data, (a,), bwd)


def concat(parts, axis):
    """Concatenate along axis 0 (rows) or 1 (columns)."""
    if axis not in (0, 1):
        raise ShapeError(f"concat axis must be 0 or 1, got {axis}")
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            piece = g[lo:hi] if axis == 0 else g[:, lo:hi]
            accum(p, piece)

    return record(np.concatenate([p.data for p in parts], axis=axis), parts, bwd)


def gather(a, rows):
    """Pick rows by index; backward scatter-adds into the source rows."""
    rows = np.asarray(rows, dtype=np.int64)
    n = a.data.shape[0]
    for r in rows:
        if r < 0 or r >= n:
            raise IndexError(f"gather index {int(r)} out of range for {n} rows")

    def bwd(g):
        gf = np.zeros_like(a.data)
        np.add.at(gf, rows, g)
        accum(a, gf)

    return record(a.data[rows], (a,), bwd)


def sum_all(a):
    def bwd(g):
        accum(a, np.broadcast_to(g, a.data.shape))

    return record(a.data.sum().reshape(1, 1), (a,), bwd)


def softmax(x):
    """Row-wise softmax of an array with max-subtraction; rows are nonnegative and sum to 1."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(p, g):
    """Cotangent of the logits of p = softmax(logits), given the cotangent g of p."""
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def softmax_rows(a):
    """Recorded row-wise softmax."""
    if np.isnan(a.data).any():
        raise NumericError("softmax_rows over NaN input")
    out_data = softmax(a.data)

    def bwd(g):
        accum(a, softmax_backward(out_data, g))

    return record(out_data, (a,), bwd)


def neg_log_prob(p, cols, floor=1e-12):
    """Per-row -log p[r, cols[r]], clamped below at ``floor``; [m,n] -> [m,1].

    In the clamp region the gradient is zero (the clamped loss is constant
    there), which keeps early training finite without exploding steps.
    """
    cols = np.asarray(cols, dtype=np.int64)
    m = p.data.shape[0]
    rows = np.arange(m)
    vals = p.data[rows, cols]
    out_data = -np.log(np.maximum(vals, floor)).reshape(m, 1)

    def bwd(g):
        gf = np.zeros_like(p.data)
        live = vals > floor
        gf[rows[live], cols[live]] = -g[live, 0] / vals[live]
        accum(p, gf)

    return record(out_data, (p,), bwd)


# ---------------------------------------------------------------------------
# transformer sublayers: LayerNorm(x + Dropout(Sublayer(x)))
# ---------------------------------------------------------------------------
#
# Each sublayer kind has one plain-numpy forward kernel returning
# (out, saved) and one recorded op that wraps it with a hand-written
# backward. Training records the ops; incremental decoding calls the
# kernels directly on one new row, so both run the same arithmetic.


@dataclass
class AttentionWeights:
    """Multi-head attention sublayer; [d,d] projections with per-head column
    blocks of width d/heads, then the [1,d] layer-norm gain and bias."""

    wq: Parameter
    wk: Parameter
    wv: Parameter
    wo: Parameter
    ln_gain: Parameter
    ln_bias: Parameter


@dataclass
class FFNWeights:
    """Position-wise ReLU feed-forward sublayer plus its layer norm."""

    w1: Parameter  # [d, 2d]
    b1: Parameter  # [1, 2d]
    w2: Parameter  # [2d, d]
    b2: Parameter  # [1, d]
    ln_gain: Parameter
    ln_bias: Parameter


def _add_norm(x, y, w, mask, eps=1e-5):
    """LayerNorm(x + y * mask) with w's [1,n] gain and bias; (out, (xhat, s))."""
    if mask is not None:
        y = y * mask
    z = x + y
    # the arithmetic of z.mean and z.var, without their Python-level wrappers
    # and with the mean taken once
    n = z.shape[1]
    c = z - z.sum(axis=1, keepdims=True) / n
    s = np.sqrt((c * c).sum(axis=1, keepdims=True) / n + eps)
    xhat = c / s
    return w.ln_gain.value.data * xhat + w.ln_bias.value.data, (xhat, s)


def _add_norm_backward(g, w, mask, xhat, s):
    """Accumulate the layer-norm gain/bias grads; returns (d residual, d sublayer)."""
    accum(w.ln_bias.value, g.sum(axis=0, keepdims=True))
    accum(w.ln_gain.value, (g * xhat).sum(axis=0, keepdims=True))
    dxhat = g * w.ln_gain.value.data
    n = g.shape[1]
    m1 = dxhat.sum(axis=1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=1, keepdims=True) / n
    dz = (dxhat - m1 - xhat * m2) / s
    return dz, dz if mask is None else dz * mask


def _drop_mask(drop, x):
    return None if drop is None else drop(x.data.shape).astype(x.data.dtype, copy=False)


def attention_forward(x, K, V, w, n_heads, causal=False, mask=None):
    """Attention sublayer on arrays: LayerNorm(x + Dropout(heads(x, K, V) W_o)).

    x [n,d] holds the query rows; K and V [m,d] are keys and values already
    projected by w.wk and w.wv. With ``causal`` (n == m) an additive -inf
    mask above the diagonal gives key rows after t zero weight, so row t
    depends only on rows up to t; a longer input changes earlier rows by
    rounding at most. ``mask`` multiplies the output projection (dropout).
    """
    n, d = x.shape
    dh = d // n_heads
    scale_factor = 1.0 / math.sqrt(d / n_heads)
    Q = x @ w.wq.value.data
    heads = np.empty((n, d), dtype=Q.dtype)
    attn = []
    if causal:
        future = np.triu(np.full((n, n), -np.inf, dtype=Q.dtype), k=1)
    for j in range(n_heads):
        sl = slice(j * dh, (j + 1) * dh)
        s = (Q[:, sl] @ K[:, sl].T) * scale_factor
        if causal:
            s += future
        a = softmax(s)
        attn.append(a)
        heads[:, sl] = a @ V[:, sl]
    out, norm = _add_norm(x, heads @ w.wo.value.data, w, mask)
    return out, (scale_factor, Q, heads, attn, norm)


def attention_block(x, kv, w, n_heads, causal=False, drop=None):
    """Recorded attention sublayer: Q/K/V projections, per-head attention,
    output projection, dropout, residual and layer norm as one op.

    kv [m,d] supplies keys and values; it is x itself for self-attention.
    ``drop(shape)`` hands out the dropout mask; None means no dropout.
    """
    wq, wk, wv, wo = w.wq.value, w.wk.value, w.wv.value, w.wo.value
    K = kv.data @ wk.data
    V = kv.data @ wv.data
    mask = _drop_mask(drop, x)
    out, (scale_factor, Q, heads, attn, norm) = attention_forward(
        x.data, K, V, w, n_heads, causal, mask
    )
    dh = Q.shape[1] // n_heads

    def bwd(g):
        dx, dy = _add_norm_backward(g, w, mask, *norm)
        accum(wo, heads.T @ dy)
        dheads = dy @ wo.data.T
        dQ = np.empty_like(Q)
        dK = np.empty_like(K)
        dV = np.empty_like(V)
        for j in range(n_heads):
            sl = slice(j * dh, (j + 1) * dh)
            A, dHj = attn[j], dheads[:, sl]
            dV[:, sl] = A.T @ dHj
            # masked entries have A == 0, so their score gradient is 0 too
            dS = softmax_backward(A, dHj @ V[:, sl].T)
            dQ[:, sl] = scale_factor * (dS @ K[:, sl])
            dK[:, sl] = scale_factor * (dS.T @ Q[:, sl])
        accum(wq, x.data.T @ dQ)
        accum(wk, kv.data.T @ dK)
        accum(wv, kv.data.T @ dV)
        accum(x, dx + dQ @ wq.data.T)
        accum(kv, dK @ wk.data.T + dV @ wv.data.T)

    return record(out, (x, kv, wq, wk, wv, wo, w.ln_gain.value, w.ln_bias.value), bwd)


def ffn_forward(x, w, mask=None):
    """Feed-forward sublayer on arrays: LayerNorm(x + Dropout(ReLU(x W1 + b1) W2 + b2))."""
    pre = x @ w.w1.value.data + w.b1.value.data
    hidden = np.maximum(pre, 0.0)
    out, norm = _add_norm(x, hidden @ w.w2.value.data + w.b2.value.data, w, mask)
    return out, (pre, hidden, norm)


def ffn_block(x, w, drop=None):
    """Recorded feed-forward sublayer: both matmuls with biases, ReLU,
    dropout, residual and layer norm as one op."""
    mask = _drop_mask(drop, x)
    out, (pre, hidden, norm) = ffn_forward(x.data, w, mask)

    def bwd(g):
        dx, dy = _add_norm_backward(g, w, mask, *norm)
        accum(w.b2.value, dy.sum(axis=0, keepdims=True))
        accum(w.w2.value, hidden.T @ dy)
        dpre = (dy @ w.w2.value.data.T) * (pre > 0)
        accum(w.b1.value, dpre.sum(axis=0, keepdims=True))
        accum(w.w1.value, x.data.T @ dpre)
        accum(x, dx + dpre @ w.w1.value.data.T)

    parents = (x, w.w1.value, w.b1.value, w.w2.value, w.b2.value, w.ln_gain.value, w.ln_bias.value)
    return record(out, parents, bwd)


def grad_check(f, params, eps=1e-5):
    """Worst relative error of analytic grads vs central finite differences.

    ``f`` must be a deterministic closure over ``params`` returning a scalar
    tensor. Denominator per coordinate is max(|analytic|, |numeric|, 1e-8).
    Only meaningful in float64.
    """
    if eps <= 0:
        raise ContractError("grad_check needs eps > 0")
    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.value.data.reshape(-1)
            aflat = a.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = f().item()
                flat[i] = orig - eps
                lo = f().item()
                flat[i] = orig
                num = (hi - lo) / (2.0 * eps)
                err = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
                worst = max(worst, err)
    return worst
