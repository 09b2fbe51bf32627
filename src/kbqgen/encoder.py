"""Context encoder and the context-augmented fact representation.

A shared transformer encoder (no position signal: contexts are type bags)
encodes the three textual contexts of a fact in one pass over their stacked
rows; a segment mask keeps each row's attention inside its own context. An
attentive summary of each context from its atom's KB embedding is then fused
with that embedding through a gated unit, and the three augmented rows form
the 3 x d fact representation the decoder attends over. The fusion is one
recorded op, ``fuse``, over the plain-numpy kernel ``fusion_forward``; it
and the encoder take their masks from ``ad.segment_bias``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


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


def encode_contexts(token_ids, segment_ids, params, drop=None):
    """Encode stacked contexts in one pass: token+segment embeddings through
    L self-attention layers with residual layer norms around both sub-layers.

    ``segment_ids`` labels each row's context; the segment mask makes each
    context's rows equal that context encoded alone, up to rounding. There
    is deliberately no position embedding: permuting a context's tokens
    permutes its output rows and nothing else. ``drop(shape)`` is asked for
    [n_i, d] masks context by context, within one layer by layer, attention
    before FFN; each sublayer applies the row-concatenation of its masks.
    """
    if len(token_ids) == 0:
        raise ad.ContractError("encode_contexts needs at least one token")
    x = ad.add(
        ad.gather(params.word_emb.value, list(token_ids)),
        ad.gather(params.seg_emb.value, segment_ids),
    )
    bias = ad.segment_bias(segment_ids, segment_ids, x.data.dtype)
    sublayer_drop = None
    if drop is not None:
        sizes = [len(list(run)) for _, run in itertools.groupby(segment_ids)]
        per_context = [[drop((n, params.d)) for _ in range(2 * len(params.layers))] for n in sizes]
        masks = iter([np.concatenate(m) for m in zip(*per_context)])
        sublayer_drop = lambda shape: next(masks)
    for layer in params.layers:
        x = ad.attention_block(x, x, layer.attn, params.n_heads, bias=bias, drop=sublayer_drop)
        x = ad.ffn_block(x, layer.ffn, drop=sublayer_drop)
    return x


def _sigmoid(x):
    """Logistic function, split by sign so neither branch overflows exp."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fusion_forward(h, rows, segment_ids, fusion):
    """Fusion kernel on arrays: g*tanh(W_f [c;h]) + (1-g)*h, g = sigmoid(W_g [c;h]).

    h [n,d] holds the atoms' KB rows; rows [L,d] stacks their contexts, and
    ``segment_ids[j]`` is the atom whose context holds row j. c is each
    atom's attention summary of its own context: the segment mask gives the
    other contexts' rows zero weight in the one [n,L] score matrix. Returns
    (out, saved).
    """
    scale_factor = 1.0 / math.sqrt(h.shape[1])
    scores = (h @ rows.T) * scale_factor
    if np.isnan(scores).any():
        raise ad.NumericError("fusion attention over NaN scores")
    attn = ad.softmax(scores + ad.segment_bias(np.arange(len(h)), segment_ids, scores.dtype))
    cat = np.concatenate([attn @ rows, h], axis=1)
    f = np.tanh(cat @ fusion.w_f.value.data.T)
    g = _sigmoid(cat @ fusion.w_g.value.data.T)
    return g * f + (1.0 - g) * h, (scale_factor, attn, cat, f, g)


def fuse(h_f, context_rows, segment_ids, fusion):
    """Recorded fusion: per-atom context attention and the gated unit as one op."""
    w_f, w_g = fusion.w_f.value, fusion.w_g.value
    h, rows = h_f.data, context_rows.data
    out, (scale_factor, attn, cat, f, g) = fusion_forward(h, rows, segment_ids, fusion)
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
    """Encode the three contexts in one pass, fuse each with its KB embedding, stack rows.

    With ``use_fusion`` off the fact rows are the bare KB embeddings (the
    ablated encoder); context rows are still produced for the copier.
    """
    if not (contexts.subject_ids and contexts.predicate_ids and contexts.object_ids):
        raise ad.ContractError("each context needs at least one token, or its fusion row is NaN")
    segment_ids = contexts.segment_ids
    context_rows = encode_contexts(
        contexts.subject_ids + contexts.predicate_ids + contexts.object_ids,
        segment_ids, enc_params, drop=drop,
    )
    h_f = ad.gather(kb_table, [fact.subject, fact.predicate, fact.object])
    if use_fusion:
        h_f = fuse(h_f, context_rows, segment_ids, fusion_params)
    return AugmentedFact(h_f=h_f, context_rows=context_rows)
