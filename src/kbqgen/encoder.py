"""Context encoder and the context-augmented fact representation.

A shared transformer encoder (no position signal: contexts are type bags)
encodes every textual context of a batch of facts in one pass over their
stacked rows; each context is its own attention sequence, so a row attends
only inside its context. An attentive summary of each context from its
atom's KB embedding is then fused with that embedding through a gated unit,
and each fact's three augmented rows form the 3 x d representation the
decoder attends over. The fusion is one recorded op, ``fuse``, over the
plain-numpy kernel ``fusion_forward``, in which each atom attends over its
own context padded to the longest (``ad.Sequences``).
"""

from __future__ import annotations

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
    """Rows [h_s; h_p; h_o] of each fact plus the context rows for copying."""

    h_f: ad.Tensor  # [3B, d], three rows per fact
    context_rows: ad.Tensor  # [sum of |s|+|p|+|o|, d], each fact's in copy-source order


def encode_contexts(token_ids, segment_ids, lengths, params, masks=None):
    """Encode stacked contexts in one pass: token+segment embeddings through
    L self-attention layers with residual layer norms around both sub-layers.

    ``lengths`` gives each context's row count; each context is one
    attention sequence, so its rows equal that context encoded alone, up to
    rounding. There is deliberately no position embedding: permuting a
    context's tokens permutes its output rows and nothing else. ``masks``
    holds one [n, d] dropout mask over all rows per sublayer, layer by
    layer, attention before FFN; None means no dropout.
    """
    if len(token_ids) == 0:
        raise ad.ContractError("encode_contexts needs at least one token")
    x = ad.add(
        ad.gather(params.word_emb.value, list(token_ids)),
        ad.gather(params.seg_emb.value, segment_ids),
    )
    within = ad.layout(lengths)
    for i, layer in enumerate(params.layers):
        attn_mask, ffn_mask = masks[2 * i : 2 * i + 2] if masks else (None, None)
        x = ad.attention_block(x, x, layer.attn, params.n_heads, layout=within, mask=attn_mask)
        x = ad.ffn_block(x, layer.ffn, mask=ffn_mask)
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

    h [n,d] holds the atoms' KB rows; rows [L,d] stacks their contexts in
    atom order, ``lengths[i]`` rows for atom i. c is each atom's attention
    summary of its own context, padded to the longest with -inf scores on
    the pads. Returns (out, saved).
    """
    scale_factor = 1.0 / math.sqrt(h.shape[1])
    contexts = ad.Sequences(lengths)
    R = contexts.pad(rows)  # [n, T, d]
    scores = (R @ h[:, :, None])[:, :, 0] * scale_factor
    if np.isnan(scores).any():
        raise ad.NumericError("fusion attention over NaN scores")
    if contexts.valid is not None:
        scores[~contexts.valid] = -np.inf
    attn = ad.softmax(scores)
    cat = np.concatenate([(attn[:, None, :] @ R)[:, 0], h], axis=1)
    f = np.tanh(cat @ fusion.w_f.value.data.T)
    g = _sigmoid(cat @ fusion.w_g.value.data.T)
    return g * f + (1.0 - g) * h, (scale_factor, contexts, R, attn, cat, f, g)


def fuse(h_f, context_rows, lengths, fusion):
    """Recorded fusion: per-atom context attention and the gated unit as one op."""
    w_f, w_g = fusion.w_f.value, fusion.w_g.value
    h = h_f.data
    out, (scale_factor, contexts, R, attn, cat, f, g) = fusion_forward(
        h, context_rows.data, lengths, fusion)
    d = h.shape[1]

    def bwd(grad):
        dpre_f = grad * g * (1.0 - f * f)
        dpre_g = grad * (f - h) * g * (1.0 - g)
        ad.accum(w_f, dpre_f.T @ cat)
        ad.accum(w_g, dpre_g.T @ cat)
        dcat = dpre_f @ w_f.data + dpre_g @ w_g.data
        dc = dcat[:, :d]
        # pad entries have attn == 0, so their score gradient is 0 too
        ds = scale_factor * ad.softmax_backward(attn, (R @ dc[:, :, None])[:, :, 0])
        dR = attn[:, :, None] * dc[:, None, :] + ds[:, :, None] * h[:, None, :]
        ad.accum(context_rows, contexts.unpad(dR))
        ad.accum(h_f, grad * (1.0 - g) + dcat[:, d:] + (ds[:, None, :] @ R)[:, 0])

    return ad.record(out, (h_f, context_rows, w_f, w_g), bwd)


def augment_facts(facts, context_sets, kb_table, enc_params, fusion_params, masks=None):
    """Encode every fact's three contexts in one pass, fuse each with its KB
    embedding, and stack three rows per fact.

    The context rows are also returned, for the copier. ``masks`` are
    encode_contexts' per-sublayer dropout masks.
    """
    lengths = [len(ids) for c in context_sets
               for ids in (c.subject_ids, c.predicate_ids, c.object_ids)]
    if 0 in lengths:
        raise ad.ContractError("each context needs at least one token, or its fusion row is NaN")
    token_ids = [t for c in context_sets for t in c.subject_ids + c.predicate_ids + c.object_ids]
    segment_ids = [s for c in context_sets for s in c.segment_ids]
    context_rows = encode_contexts(token_ids, segment_ids, lengths, enc_params, masks)
    atoms = [a for f in facts for a in (f.subject, f.predicate, f.object)]
    h_f = fuse(ad.gather(kb_table, atoms), context_rows, lengths, fusion_params)
    return AugmentedFact(h_f=h_f, context_rows=context_rows)
