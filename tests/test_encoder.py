import math

import numpy as np
import pytest

from kbqgen import autodiff as ad
from kbqgen import encoder as enc
from kbqgen import trainer as tr
from kbqgen.corpus import (BOS, EOS, SEG_OBJECT, SEG_PREDICATE, SEG_SUBJECT, ContextSet, Example,
                           Fact, KBVocab, Vocab)
from kbqgen.model import Model


def tiny_model(seed=0, d=8, heads=2, layers=1, **kwargs):
    vocab = Vocab([f"w{i}" for i in range(10)])
    kbvocab = KBVocab(["e0", "e1", "e2"], ["p0"])
    return Model(vocab, kbvocab, d=d, heads=heads, layers=layers, seed=seed, **kwargs)


def test_single_token_attends_to_itself():
    m = tiny_model()
    out = enc.encode_contexts([5], [SEG_SUBJECT], [1], m.encoder)
    assert out.shape == (1, m.d)
    # with one token the self-attention convexly = that token; spot-check
    # by removing attention influence: two different tokens give different rows
    out2 = enc.encode_contexts([6], [SEG_SUBJECT], [1], m.encoder)
    assert not np.allclose(out.data, out2.data)


def test_permutation_equivariance():
    # no positional signal: permuting tokens permutes output rows identically
    m = tiny_model(layers=2)
    ids = [5, 6, 7, 8]
    perm = [2, 0, 3, 1]
    out = enc.encode_contexts(ids, [SEG_SUBJECT] * 4, [4], m.encoder)
    out_perm = enc.encode_contexts([ids[i] for i in perm], [SEG_SUBJECT] * 4, [4], m.encoder)
    assert np.array_equal(out.data[perm], out_perm.data)


def test_segment_wiring():
    m = tiny_model()
    same = enc.encode_contexts([5, 6], [SEG_SUBJECT] * 2, [2], m.encoder)
    other = enc.encode_contexts([5, 6], [SEG_PREDICATE] * 2, [2], m.encoder)
    assert not np.allclose(same.data, other.data)
    m.registry["seg_emb"].value.data[...] = 0.0
    zeroed_s = enc.encode_contexts([5, 6], [SEG_SUBJECT] * 2, [2], m.encoder)
    zeroed_p = enc.encode_contexts([5, 6], [SEG_PREDICATE] * 2, [2], m.encoder)
    assert np.array_equal(zeroed_s.data, zeroed_p.data)


def encode_alone(ids, segment, params, masks=None):
    """Per-context oracle: one context through the layers with no score mask;
    ``masks`` are its dropout masks in layer order, attention before FFN."""
    masks = masks or [None] * (2 * len(params.layers))
    x = ad.tensor(params.word_emb.value.data[ids] + params.seg_emb.value.data[segment])
    for i, layer in enumerate(params.layers):
        x = ad.attention_block(x, x, layer.attn, params.n_heads, layout=ad.layout([len(ids)]),
                               mask=masks[2 * i])
        x = ad.ffn_block(x, layer.ffn, mask=masks[2 * i + 1])
    return x.data


CONTEXTS = (([5, 6], SEG_SUBJECT), ([7, 8, 9], SEG_PREDICATE), ([6], SEG_OBJECT))


def stacked(contexts):
    ids = [t for toks, _ in contexts for t in toks]
    segments = [seg for toks, seg in contexts for _ in toks]
    return ids, segments, [len(toks) for toks, _ in contexts]


def test_no_cross_context_state():
    # each context's rows in the stacked pass equal that context encoded
    # alone, without dropout and with each context's own masks
    m = tiny_model(layers=2)
    rng = np.random.default_rng(0)
    sublayers = 2 * len(m.encoder.layers)
    for dropout in (False, True):
        masks = [
            [(rng.random((len(toks), m.d)) >= 0.3) / 0.7 for _ in range(sublayers)]
            if dropout else None
            for toks, _ in CONTEXTS
        ]
        # one mask per sublayer over all rows: the row-concatenation of the contexts' masks
        stacked_masks = [np.concatenate(m) for m in zip(*masks)] if dropout else None
        out = enc.encode_contexts(*stacked(CONTEXTS), m.encoder, stacked_masks).data
        start = 0
        for (toks, seg), ctx_masks in zip(CONTEXTS, masks):
            alone = encode_alone(toks, seg, m.encoder, ctx_masks)
            np.testing.assert_allclose(out[start : start + len(toks)], alone, rtol=1e-12, atol=1e-12)
            start += len(toks)


def reference_dropout_masks(model, examples, drops):
    """The per-sublayer protocol, as a reference: each example's ``drop`` is
    asked once per sublayer, context-major in order s, p, o, per context
    layer by layer with attention then FFN, then per decoder layer
    self-attention, fact attention and FFN; each sublayer's batched mask is
    the row-concatenation of its examples' masks."""
    enc_masks = [[] for _ in range(2 * model.n_layers)]
    dec_masks = [[] for _ in range(3 * model.n_layers)]
    for ex, drop in zip(examples, drops):
        c = ex.contexts
        for n in (len(c.subject_ids), len(c.predicate_ids), len(c.object_ids)):
            for masks in enc_masks:
                masks.append(drop((n, model.d)))
        for masks in dec_masks:
            masks.append(drop((len(ex.question) - 1, model.d)))
    dtype = model.kb_emb.value.data.dtype
    return ([np.concatenate(m).astype(dtype, copy=False) for m in enc_masks],
            [np.concatenate(m).astype(dtype, copy=False) for m in dec_masks])


def _words_example(vocab, subject, predicate, obj, question):
    ids = lambda words: tuple(vocab.id(w) for w in words)
    ctx = ContextSet(subject, predicate, obj, ids(subject), ids(predicate), ids(obj))
    return Example(Fact(0, 3, 2), ctx, (BOS, *ids(question), EOS), question, question, obj, None)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dropout_masks_equal_the_per_sublayer_draws_from_one_ask_per_example(dtype):
    m = tiny_model(layers=2, dtype=dtype)
    examples = [  # contexts and questions of unequal lengths
        _words_example(m.vocab, ("w5", "w6"), ("w7",), ("w8", "w9"), ("w5", "w7")),
        _words_example(m.vocab, ("w6",), ("w7", "w8", "w9"), ("w5",), ("w6",)),
        _words_example(m.vocab, ("w5", "w6", "w7"), ("w8", "w9"), ("w5", "w6", "w7", "w8"),
                       ("w9", "w8", "w7", "w6", "w5")),
    ]
    cfg = tr.TrainConfig(dropout=0.3, seed=11)
    asked = []

    def counted(idx):
        drop = tr._dropout(cfg, 0, idx)
        return lambda shape: asked.append(idx) or drop(shape)

    got = m._dropout_masks(examples, [counted(i) for i in range(len(examples))])
    assert asked == [0, 1, 2]
    want = reference_dropout_masks(m, examples, [tr._dropout(cfg, 0, i) for i in range(len(examples))])
    for got_masks, want_masks in zip(got, want):
        assert len(got_masks) == len(want_masks)
        for g, w in zip(got_masks, want_masks):
            assert g.dtype == dtype and g.shape == w.shape and np.array_equal(g, w)


def test_empty_context_rejected():
    m = tiny_model()
    with pytest.raises(ad.ContractError):
        enc.encode_contexts([], [], [], m.encoder)
    # an empty predicate context would leave its fusion row all -inf
    ctx = ContextSet(("w5",), (), ("w8",), (m.vocab.id("w5"),), (), (m.vocab.id("w8"),))
    with pytest.raises(ad.ContractError, match="at least one token"):
        enc.augment_facts([Fact(0, 3, 2)], [ctx], m.kb_emb.value, m.encoder, m.fusion)


def fusion_weights(rng, d, scale=0.5, dtype=np.float64):
    return enc.FusionParams(
        w_f=ad.Parameter("fusion.w_f", (rng.normal(size=(d, 2 * d)) * scale).astype(dtype)),
        w_g=ad.Parameter("fusion.w_g", (rng.normal(size=(d, 2 * d)) * scale).astype(dtype)),
    )


def summaries(h, rows, lengths, fusion):
    """The attention summaries c that fusion_forward gates into h."""
    _, (_scale, _contexts, _padded, _attn, cat, _f, _g) = enc.fusion_forward(h, rows, lengths, fusion)
    return cat[:, : h.shape[1]]


def numpy_fusion(h, rows, lengths, fusion):
    """Per-atom oracle: each atom attends over its own context alone, then the gate."""
    d = h.shape[1]
    w_f, w_g = fusion.w_f.value.data, fusion.w_g.value.data
    out = []
    for e, ctx in zip(h, np.split(rows, np.cumsum(lengths)[:-1])):
        logits = ctx @ e / math.sqrt(d)
        a = np.exp(logits - logits.max())
        cat = np.concatenate([(a / a.sum()) @ ctx, e])
        g = 1.0 / (1.0 + np.exp(-(w_g @ cat)))
        out.append(g * np.tanh(w_f @ cat) + (1.0 - g) * e)
    return np.array(out)


def fusion_inputs(rng, d=6, lengths=(1, 2, 5)):
    """KB rows, stacked context rows and their row counts; the last context
    repeats a token."""
    h = rng.normal(size=(len(lengths), d))
    rows = rng.normal(size=(sum(lengths), d))
    rows[-1] = rows[-3]
    return h, rows, list(lengths)


def test_attentive_vector_single_row():
    # a one-row context is its own summary, whatever the query
    rng = np.random.default_rng(0)
    h, rows, lengths = fusion_inputs(rng, d=4, lengths=(1, 1, 1))
    c = summaries(h, rows, lengths, fusion_weights(rng, 4))
    assert np.allclose(c, rows)


def test_attentive_vector_identical_rows():
    row = np.array([0.3, -0.7, 1.1, 0.0])
    rng = np.random.default_rng(1)
    h = np.array([[2.0, 0.0, -1.0, 5.0], [0.1, 0.2, 0.3, 0.4], [-1.0, 1.0, -1.0, 1.0]])
    rows = np.tile(row, (9, 1))
    c = summaries(h, rows, [4, 2, 3], fusion_weights(rng, 4))
    assert np.allclose(c, np.tile(row, (3, 1)))


def test_attentive_vector_hand_case():
    # d=2, atom 0 over a 2-row context: logits = C.e/sqrt(2), two-logit softmax
    # by hand; atom 1 has a one-row context and must not see atom 0's rows
    ctx = np.array([[1.0, 0.0], [0.0, 1.0]])
    e = np.array([2.0, 1.0])
    logits = ctx @ e / math.sqrt(2)
    w = np.exp(logits - logits.max())
    expected = (w / w.sum()) @ ctx
    rows = np.vstack([ctx, [[3.0, -3.0]]])
    h = np.array([e, [1.0, 1.0]])
    c = summaries(h, rows, [2, 1], fusion_weights(np.random.default_rng(2), 2))
    assert np.allclose(c[0], expected, atol=1e-12)
    assert np.array_equal(c[1], [3.0, -3.0])


def test_gated_fuse_zero_gate_weights():
    # W_g = 0 makes g = sigmoid(0) = 0.5 exactly: h = 0.5 f + 0.5 e
    rng = np.random.default_rng(0)
    h, rows, lengths = fusion_inputs(rng, d=8)
    fusion = fusion_weights(rng, 8)
    fusion.w_g.value.data[...] = 0.0
    out, _ = enc.fusion_forward(h, rows, lengths, fusion)
    cat = np.concatenate([summaries(h, rows, lengths, fusion), h], axis=1)
    f = np.tanh(cat @ fusion.w_f.value.data.T)
    assert np.allclose(out, 0.5 * f + 0.5 * h)


def test_gated_fuse_stays_in_unit_box():
    rng = np.random.default_rng(1)
    fusion = fusion_weights(rng, 8, scale=0.3)
    for _ in range(20):
        rows = rng.normal(size=(8, 8)) * 3
        h = rng.uniform(-0.999, 0.999, size=(3, 8))
        out, _ = enc.fusion_forward(h, rows, [1, 2, 5], fusion)
        assert np.all(out > -1.0) and np.all(out < 1.0)


def test_gated_fuse_convex_between_f_and_e():
    rng = np.random.default_rng(2)
    h, rows, lengths = fusion_inputs(rng, d=8)
    fusion = fusion_weights(rng, 8)
    out, (_scale, _contexts, _padded, _attn, _cat, f, _g) = enc.fusion_forward(h, rows, lengths, fusion)
    assert np.all(out >= np.minimum(f, h) - 1e-12) and np.all(out <= np.maximum(f, h) + 1e-12)


def test_fusion_forward_matches_per_atom_composition():
    rng = np.random.default_rng(3)
    h, rows, lengths = fusion_inputs(rng)
    fusion = fusion_weights(rng, h.shape[1])
    kernel, _ = enc.fusion_forward(h, rows, lengths, fusion)
    np.testing.assert_allclose(kernel, numpy_fusion(h, rows, lengths, fusion), rtol=1e-12, atol=1e-12)
    recorded = enc.fuse(ad.tensor(h), ad.tensor(rows), lengths, fusion).data
    assert np.array_equal(recorded, kernel)


def test_fusion_gradients():
    rng = np.random.default_rng(4)
    h0, rows0, lengths = fusion_inputs(rng)
    h = ad.Parameter("h_f", h0)
    rows = ad.Parameter("context_rows", rows0)
    fusion = fusion_weights(rng, h0.shape[1])
    probe = ad.tensor(rng.normal(size=h0.shape))

    def f():
        return ad.sum_all(ad.mul(enc.fuse(h.value, rows.value, lengths, fusion), probe))

    assert ad.grad_check(f, [h, rows, fusion.w_f, fusion.w_g]) < 1e-4


def test_fusion_segments_are_isolated():
    # each atom reads only its own context: editing the middle context's
    # rows leaves the other two output rows bit-identical
    rng = np.random.default_rng(5)
    h, rows, lengths = fusion_inputs(rng)
    fusion = fusion_weights(rng, h.shape[1])
    before, _ = enc.fusion_forward(h, rows, lengths, fusion)
    edited = rows.copy()
    edited[1:3] = rng.normal(size=(2, h.shape[1])) * 5
    after, _ = enc.fusion_forward(h, edited, lengths, fusion)
    assert np.array_equal(before[[0, 2]], after[[0, 2]])
    assert not np.allclose(before[1], after[1])


def test_fusion_refuses_nan_scores():
    rng = np.random.default_rng(6)
    h, rows, lengths = fusion_inputs(rng)
    rows[4, 0] = np.nan
    with pytest.raises(ad.NumericError, match="NaN"):
        enc.fusion_forward(h, rows, lengths, fusion_weights(rng, h.shape[1]))


def test_fusion_float32_stays_float32():
    rng = np.random.default_rng(7)
    h, rows, lengths = fusion_inputs(rng)
    fusion = fusion_weights(rng, h.shape[1], dtype=np.float32)
    out, _ = enc.fusion_forward(h.astype(np.float32), rows.astype(np.float32), lengths, fusion)
    assert out.dtype == np.float32


def _example_contexts(vocab):
    return ContextSet(
        subject_words=("w5", "w6"),
        predicate_words=("w7",),
        object_words=("w8", "w9"),
        subject_ids=(vocab.id("w5"), vocab.id("w6")),
        predicate_ids=(vocab.id("w7"),),
        object_ids=(vocab.id("w8"), vocab.id("w9")),
    )


def test_augment_fact_shapes_and_order():
    m = tiny_model()
    fact = Fact(0, 3, 2)
    ctx = _example_contexts(m.vocab)
    out = enc.augment_facts([fact], [ctx], m.kb_emb.value, m.encoder, m.fusion)
    assert out.h_f.shape == (3, m.d)
    assert out.context_rows.shape == (5, m.d)
    # the rows are the s, p, o KB embeddings, each fused with its own context
    fused, _ = enc.fusion_forward(m.kb_emb.value.data[[0, 3, 2]], out.context_rows.data, [2, 1, 2], m.fusion)
    assert np.array_equal(out.h_f.data, fused)


def test_fusion_path_gradients():
    # larger init keeps attention away from its near-uniform regime, where
    # gradients shrink below what finite differences can resolve
    m = tiny_model(seed=7, d=8, heads=2, layers=1, init_range=0.5)
    fact = Fact(1, 3, 0)
    ctx = _example_contexts(m.vocab)
    probe = ad.tensor(np.random.default_rng(5).normal(size=(3, m.d)))
    checked = [
        m.registry[name]
        for name in (
            "fusion.w_f", "fusion.w_g", "kb_emb", "seg_emb",
            "enc0.wq", "enc0.ffn_w1", "enc0.ln1_gain",
        )
    ]

    def f():
        out = enc.augment_facts([fact], [ctx], m.kb_emb.value, m.encoder, m.fusion)
        return ad.sum_all(ad.mul(out.h_f, probe))

    assert ad.grad_check(f, checked) < 1e-4
