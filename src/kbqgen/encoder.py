"""Context encoder and the context-augmented fact representation.

A shared transformer encoder (no position signal: contexts are type bags)
turns each of the three textual contexts into a matrix; an attentive summary
from the atom's KB embedding is then fused with that embedding through a
gated unit, and the three augmented rows are stacked into the 3 x d fact
representation the decoder attends over. The fusion is one recorded op,
``fuse``, over the plain-numpy kernel ``fusion_forward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import SEG_OBJECT, SEG_PREDICATE, SEG_SUBJECT


@dataclass
class EncoderLayerParams:
    attn: ad.AttentionWeights
    ffn: ad.FFNWeights


@dataclass
class EncoderParams:
    word_emb: ad.Parameter  # [|V|, d], shared with the decoder
    seg_emb: ad.Parameter  # [3, d]
    layers: list
    n_heads: int

    @property
    def d(self):
        return self.word_emb.value.data.shape[1]


@dataclass
class FusionParams:
    w_f: ad.Parameter  # [d, 2d]
    w_g: ad.Parameter  # [d, 2d]


@dataclass
class AugmentedFact:
    """Rows [h_s; h_p; h_o] plus the per-atom context matrices for copying."""

    h_f: ad.Tensor  # [3, d]
    context_rows: ad.Tensor  # [|s|+|p|+|o|, d] in copy-source order


def encode_context(token_ids, segment_label, params, drop=None):
    """Encode one context: token+segment embeddings through L self-attention
    layers with residual layer norms around both sub-layers.

    There is deliberately no position embedding here; permuting the input
    tokens permutes the output rows and nothing else.
    """
    if len(token_ids) == 0:
        raise ad.ContractError("encode_context needs at least one token")
    x = ad.add(
        ad.gather(params.word_emb.value, list(token_ids)),
        ad.gather(params.seg_emb.value, [segment_label]),
    )
    for layer in params.layers:
        x = ad.attention_block(x, x, layer.attn, params.n_heads, drop=drop)
        x = ad.ffn_block(x, layer.ffn, drop=drop)
    return x


def _sigmoid(x):
    """Logistic function, split by sign so neither branch overflows exp."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fusion_forward(h, rows, lengths, fusion):
    """Fusion kernel on arrays: g*tanh(W_f [c;h]) + (1-g)*h, g = sigmoid(W_g [c;h]).

    h [n,d] holds the atoms' KB rows; rows [L,d] stacks their contexts, with
    ``lengths[i]`` rows for atom i. c is each atom's attention summary of
    its own context: an additive -inf mask gives the other contexts' rows
    zero weight in the one [n,L] score matrix. Returns (out, saved).
    """
    scale_factor = 1.0 / math.sqrt(h.shape[1])
    scores = (h @ rows.T) * scale_factor
    if np.isnan(scores).any():
        raise ad.NumericError("fusion attention over NaN scores")
    ends = np.cumsum(lengths)
    cols = np.arange(rows.shape[0])
    own = (cols >= (ends - lengths)[:, None]) & (cols < ends[:, None])
    attn = ad.softmax(scores + np.where(own, 0.0, -np.inf).astype(scores.dtype, copy=False))
    cat = np.concatenate([attn @ rows, h], axis=1)
    f = np.tanh(cat @ fusion.w_f.value.data.T)
    g = _sigmoid(cat @ fusion.w_g.value.data.T)
    return g * f + (1.0 - g) * h, (scale_factor, attn, cat, f, g)


def fuse(h_f, context_rows, lengths, fusion):
    """Recorded fusion: per-atom context attention and the gated unit as one op."""
    w_f, w_g = fusion.w_f.value, fusion.w_g.value
    h, rows = h_f.data, context_rows.data
    out, (scale_factor, attn, cat, f, g) = fusion_forward(h, rows, lengths, fusion)
    d = h.shape[1]

    def bwd(grad):
        dpre_f = grad * g * (1.0 - f * f)
        dpre_g = grad * (f - h) * g * (1.0 - g)
        ad.accum(w_f, dpre_f.T @ cat)
        ad.accum(w_g, dpre_g.T @ cat)
        dcat = dpre_f @ w_f.data + dpre_g @ w_g.data
        dc = dcat[:, :d]
        # masked entries have attn == 0, so their score gradient is 0 too
        ds = scale_factor * ad.softmax_backward(attn, dc @ rows.T)
        ad.accum(context_rows, attn.T @ dc + ds.T @ h)
        ad.accum(h_f, grad * (1.0 - g) + dcat[:, d:] + ds @ rows)

    return ad.record(out, (h_f, context_rows, w_f, w_g), bwd)


def augment_fact(fact, contexts, kb_table, enc_params, fusion_params, use_fusion=True, drop=None):
    """Encode the three contexts, fuse each with its KB embedding, stack rows.

    With ``use_fusion`` off the fact rows are the bare KB embeddings (the
    ablated encoder); context matrices are still produced for the copier.
    """
    ctx_matrices = [
        encode_context(contexts.subject_ids, SEG_SUBJECT, enc_params, drop=drop),
        encode_context(contexts.predicate_ids, SEG_PREDICATE, enc_params, drop=drop),
        encode_context(contexts.object_ids, SEG_OBJECT, enc_params, drop=drop),
    ]
    context_rows = ad.concat(ctx_matrices, axis=0)
    h_f = ad.gather(kb_table, [fact.subject, fact.predicate, fact.object])
    if use_fusion:
        lengths = [m.shape[0] for m in ctx_matrices]
        h_f = fuse(h_f, context_rows, lengths, fusion_params)
    return AugmentedFact(h_f=h_f, context_rows=context_rows)
