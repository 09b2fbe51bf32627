"""Context encoder and the context-augmented fact representation.

A shared transformer encoder (no position signal: contexts are type bags)
turns each of the three textual contexts into a matrix; an attentive summary
from the atom's KB embedding is then fused with that embedding through a
gated unit, and the three augmented rows are stacked into the 3 x d fact
representation the decoder attends over.
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


def attentive_vector(e, context):
    """Attention summary of context rows [n,d] queried by e [1,d]."""
    d = e.data.shape[1]
    logits = ad.scale(ad.matmul(context, ad.transpose(e)), 1.0 / math.sqrt(d))
    weights = ad.softmax_rows(ad.transpose(logits))
    return ad.matmul(weights, context)


def gated_fuse(c, e, fusion):
    """g*tanh(W_f [c;e]) + (1-g)*e with g = sigmoid(W_g [c;e])."""
    cat = ad.concat([c, e], axis=1)
    f = ad.tanh(ad.matmul(cat, ad.transpose(fusion.w_f.value)))
    g = ad.sigmoid(ad.matmul(cat, ad.transpose(fusion.w_g.value)))
    ones = ad.tensor(np.ones_like(g.data))
    return ad.add(ad.mul(g, f), ad.mul(ad.sub(ones, g), e))


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
    h_f = ad.gather(kb_table, [fact.subject, fact.predicate, fact.object])
    if use_fusion:
        # each atom attends over its own context; the gate is row-wise, so
        # the three rows share one pass through it
        summaries = [
            attentive_vector(ad.gather(h_f, [i]), ctx) for i, ctx in enumerate(ctx_matrices)
        ]
        h_f = gated_fuse(ad.concat(summaries, axis=0), h_f, fusion_params)
    return AugmentedFact(h_f=h_f, context_rows=ad.concat(ctx_matrices, axis=0))
