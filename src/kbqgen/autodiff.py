"""Small dense-tensor autodiff engine for the question generation model.

All tensors on the tape are 2-D row-major arrays (scalars are [1,1], vectors
[1,n]); a batch stacks its sequences' rows back to back. float64 is the
default and the only mode in which finite differences (and so
``grad_check``) are trustworthy; float32 is offered as a training-speed
option and the test suite trains in it once. Every operation records its
inputs and a backward closure on its output, so a forward pass rebuilds the
computation record from scratch (define-by-run) and ``backward`` replays it
once in reverse topological order.

The generic primitives are the few the model still composes (add, scale,
gather, sum_all, segment_sum, neg_log_prob), plus mul for fixed-cotangent
probes; add and mul take operands of equal shape, with no broadcasting.
Every layer is one recorded op with a hand-written backward over a
plain-numpy kernel. ``attention_block`` and ``ffn_block`` here record
LayerNorm(x + Dropout(Sublayer(x))) over the kernels ``attention_forward``
and ``ffn_forward``, which incremental decoding calls directly. Attention
runs over sequences: a ``Layout`` names each sequence's query and key rows
among the packed ones, the kernel gathers them into padded [S, T] blocks
(``Sequences``) for batched matmuls, and one additive [S, Tq, Tk] bias
masks pad keys and, in the decoder, later rows. Ops defined outside this
module, the encoder's gated fusion and the decoder's copy head, use
``record``, ``accum``, ``softmax``, ``softmax_backward`` and ``Sequences``
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
        # np.zeros leaves pages unmapped until written (zeros_like writes them all), so a
        # model that only decodes never faults its gradients in
        self.value.grad = np.zeros(self.value.data.shape, self.value.data.dtype)

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
    Each recorded op drops its gradient, closure and parents once swept, so
    a batch's saved activations are freed as the sweep goes.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward on a constant: nothing requires grad")
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b):
    _check_same_shape(a, b, "add")

    def bwd(g):
        accum(a, g)
        accum(b, g)

    return record(a.data + b.data, (a, b), bwd)


def mul(a, b):
    _check_same_shape(a, b, "mul")

    def bwd(g):
        accum(a, g * b.data)
        accum(b, g * a.data)

    return record(a.data * b.data, (a, b), bwd)


def scale(a, c):
    """Multiply by a Python float constant."""
    c = float(c)

    def bwd(g):
        accum(a, g * c)

    return record(a.data * c, (a,), bwd)


def gather(a, rows):
    """Pick rows by index; backward scatter-adds into the source rows."""
    rows = np.asarray(rows, dtype=np.int64)
    n = a.data.shape[0]
    bad = (rows < 0) | (rows >= n)
    if bad.any():
        raise IndexError(f"gather index {int(rows[bad.argmax()])} out of range for {n} rows")

    def bwd(g):  # runs only when a requires grad
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, rows, g)

    return record(a.data[rows], (a,), bwd)


def sum_all(a):
    def bwd(g):
        accum(a, np.broadcast_to(g, a.data.shape))

    return record(a.data.sum().reshape(1, 1), (a,), bwd)


def segment_sum(a, segments, n_segments):
    """Sum the rows of a by segment id; [m,k] -> [n_segments,k], an empty segment sums to 0."""
    segments = np.asarray(segments, dtype=np.int64)
    out = np.zeros((n_segments, a.data.shape[1]), dtype=a.data.dtype)
    np.add.at(out, segments, a.data)

    def bwd(g):
        accum(a, g[segments])

    return record(out, (a,), bwd)


def softmax(x):
    """Softmax over the last axis with max-subtraction; rows are nonnegative and sum to 1."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(p, g):
    """Cotangent of the logits of p = softmax(logits), given the cotangent g of p."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def neg_log_prob(p, cols, floor=1e-12, rows=None):
    """-log p[rows[i], cols[i]] per pick, clamped below at ``floor``; [m,n] -> [len(cols),1].

    ``rows`` defaults to every row in order, one pick per row. In the clamp
    region the gradient is zero (the clamped loss is constant there), which
    keeps early training finite without exploding steps.
    """
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(p.data.shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
    vals = p.data[rows, cols]
    out_data = -np.log(np.maximum(vals, floor)).reshape(-1, 1)

    def bwd(g):
        gf = np.zeros_like(p.data)
        live = vals > floor
        np.add.at(gf, (rows[live], cols[live]), -g[live, 0] / vals[live])
        accum(p, gf)

    return record(out_data, (p,), bwd)


# ---------------------------------------------------------------------------
# transformer sublayers: LayerNorm(x + Dropout(Sublayer(x)))
# ---------------------------------------------------------------------------
#
# Each sublayer kind has one plain-numpy forward kernel returning
# (out, saved) and one recorded op that wraps it with a hand-written
# backward. Training records the ops; incremental decoding calls the
# kernels directly on one new row per hypothesis, so both run the same
# arithmetic.


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


class Sequences:
    """Rows of S sequences packed back to back, and their padded [S, T] layout.

    ``pad`` moves the packed rows into [S, T, k] blocks with zero rows after
    each sequence's end; ``unpad`` drops those rows again. With equal
    lengths both are reshapes. ``width`` may exceed the longest sequence.
    """

    __slots__ = ("count", "width", "valid")

    def __init__(self, lengths, width=None):
        lengths = [int(n) for n in lengths]
        self.count = len(lengths)
        self.width = max(lengths) if width is None else width
        self.valid = None  # [S, T] bool, True on real rows; None when nothing is padded
        if min(lengths) != self.width:
            self.valid = np.arange(self.width) < np.array(lengths)[:, None]

    def pad(self, rows):
        if self.valid is None:
            return rows.reshape(self.count, self.width, rows.shape[-1])
        out = np.zeros(self.valid.shape + rows.shape[-1:], dtype=rows.dtype)
        out[self.valid] = rows
        return out

    def unpad(self, padded):
        if self.valid is None:
            return padded.reshape(-1, padded.shape[-1])
        return padded[self.valid]


@dataclass
class Layout:
    """Which packed rows attend to which: sequence s's query rows see only its key rows.

    ``bias`` [S, Tq, Tk] is added to every head's scores: -inf on pad keys
    and, causally, on keys after the query's own position; a pad query row
    gets zeros, so no softmax row is all -inf (its output is dropped).
    """

    queries: Sequences
    keys: Sequences
    bias: np.ndarray | None


def layout(q_lengths, k_lengths=None, causal=False):
    """The Layout of sequences with the given query and key row counts (keys default to queries)."""
    queries = Sequences(q_lengths)
    keys = queries if k_lengths is None else Sequences(k_lengths)
    masked = np.zeros((queries.count, queries.width, keys.width), dtype=bool)
    if keys.valid is not None:
        masked |= ~keys.valid[:, None, :]
    if causal:
        masked |= np.triu(np.ones((queries.width, keys.width), dtype=bool), k=1)
    if queries.valid is not None:
        masked &= queries.valid[:, :, None]
    bias = np.where(masked, -np.inf, 0.0) if masked.any() else None
    return Layout(queries, keys, bias)


def _split_heads(rows, seqs, n_heads):
    """Packed [n, d] rows -> padded [S, heads, T, d/heads]."""
    padded = seqs.pad(rows)
    s, t, d = padded.shape
    return padded.reshape(s, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(blocks, seqs):
    """Padded [S, heads, T, dh] -> packed [n, heads*dh], pad rows dropped."""
    s, h, t, dh = blocks.shape
    return seqs.unpad(blocks.transpose(0, 2, 1, 3).reshape(s, t, h * dh))


def attention_forward(x, K, V, w, n_heads, layout, mask=None):
    """Attention sublayer on arrays: LayerNorm(x + Dropout(heads(x, K, V) W_o)).

    x [n,d] holds the query rows; K and V [m,d] are keys and values already
    projected by w.wk and w.wv. ``layout`` splits both into sequences; each
    sequence's queries attend only to its own keys, under its bias, in one
    batched matmul over padded blocks. A -inf bias entry gives that key zero
    weight and zero gradient, so the rows a query may see decide its output
    up to rounding. ``mask`` multiplies the output projection (dropout).
    """
    d = x.shape[1]
    scale_factor = 1.0 / math.sqrt(d / n_heads)
    Q = x @ w.wq.value.data
    Qp = _split_heads(Q, layout.queries, n_heads)
    Kp = _split_heads(K, layout.keys, n_heads)
    Vp = _split_heads(V, layout.keys, n_heads)
    s = (Qp @ Kp.transpose(0, 1, 3, 2)) * scale_factor
    if layout.bias is not None:
        s += layout.bias[:, None]
    attn = softmax(s)
    heads = _merge_heads(attn @ Vp, layout.queries)
    out, norm = _add_norm(x, heads @ w.wo.value.data, w, mask)
    return out, (scale_factor, Qp, Kp, Vp, heads, attn, norm)


def attention_block(x, kv, w, n_heads, layout, mask=None):
    """Recorded attention sublayer: Q/K/V projections, per-head attention,
    output projection, dropout, residual and layer norm as one op.

    kv [m,d] supplies keys and values; it is x itself for self-attention.
    ``layout`` is attention_forward's split into sequences. ``mask`` is the
    [n,d] dropout mask in x's dtype; None means no dropout.
    """
    wq, wk, wv, wo = w.wq.value, w.wk.value, w.wv.value, w.wo.value
    K = kv.data @ wk.data
    V = kv.data @ wv.data
    out, (scale_factor, Qp, Kp, Vp, heads, attn, norm) = attention_forward(
        x.data, K, V, w, n_heads, layout, mask
    )
    queries, keys = layout.queries, layout.keys

    def bwd(g):
        dx, dy = _add_norm_backward(g, w, mask, *norm)
        accum(wo, heads.T @ dy)
        dH = _split_heads(dy @ wo.data.T, queries, n_heads)  # pad query rows get zeros
        dV = _merge_heads(attn.transpose(0, 1, 3, 2) @ dH, keys)
        # masked entries have attn == 0, so their score gradient is 0 too
        dS = softmax_backward(attn, dH @ Vp.transpose(0, 1, 3, 2))
        dQ = scale_factor * _merge_heads(dS @ Kp, queries)
        dK = scale_factor * _merge_heads(dS.transpose(0, 1, 3, 2) @ Qp, keys)
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


def ffn_block(x, w, mask=None):
    """Recorded feed-forward sublayer: both matmuls with biases, ReLU,
    dropout under ``mask``, residual and layer norm as one op."""
    out, (pre, _, norm) = ffn_forward(x.data, w, mask)  # the sweep recomputes ReLU(pre)

    def bwd(g):
        dx, dy = _add_norm_backward(g, w, mask, *norm)
        accum(w.b2.value, dy.sum(axis=0, keepdims=True))
        accum(w.w2.value, np.maximum(pre, 0.0).T @ dy)
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
