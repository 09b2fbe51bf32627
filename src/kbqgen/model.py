"""Model assembly: every trainable matrix in one addressable registry.

Draws encoder, fusion, decoder and KB-embedding parameters from a seed, or
copies them from given weights (a checkpoint's tensors), wires the shared
word-embedding table across encoder input, decoder input and output
logits, and provides the teacher-forced forward pass whose step
distributions feed the objective directly. The fusion is always on:
every fact row is its KB embedding fused with its atom's context by the
gated unit. The forward pass takes a batch of examples and records one
graph for all of them; one example is a batch of one, through the same
``forward_example``. Dropout is decided here: the layers get one mask
array per sublayer, stacked from the examples' masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from .corpus import EOS
from .textckpt import ConfigError

INIT_RANGE = 0.08
MISFITS_NAMED = 5  # per kind of misfit, so that a refusal stays one short line


def _capped(names):
    if len(names) <= MISFITS_NAMED:
        return repr(names)
    return f"{repr(names[:MISFITS_NAMED])[:-1]}, … and {len(names) - MISFITS_NAMED} more]"


def check_fit(kind, arrays, shapes):
    """Refuse checkpoint arrays (name -> array) whose names or shapes differ from ``shapes``."""
    missing, unknown = sorted(shapes.keys() - arrays.keys()), sorted(arrays.keys() - shapes.keys())
    wrong = [f"{n} {a.shape}" for n, a in arrays.items() if n in shapes and a.shape != shapes[n]]
    if missing or unknown or wrong:
        raise ConfigError(f"checkpoint {kind}s do not fit this model: missing {_capped(missing)}, "
                          f"unknown {_capped(unknown)}, wrong shape {_capped(wrong)}")


@dataclass
class BatchForward:
    distributions: ad.Tensor  # [sum T, n_extended], each example's T rows in turn
    modes: ad.Tensor  # [sum T, 3]
    copy: dec.CopyBatch
    steps: list  # T per example
    gold_ext_ids: list  # len sum T
    answer_ext_ids: list  # one list per example


@dataclass
class ForwardResult:
    distributions: ad.Tensor  # [T, n_extended]
    modes: ad.Tensor  # [T, 3]
    copy_source: dec.CopySource
    gold_ext_ids: list  # len T
    answer_ext_ids: list


class Model:
    """Encoder, fusion, decoder and KB-embedding parameters, named in one registry.

    The fusion is always on: ``encode_facts`` passes every fact's gathered
    KB rows through it. Without ``weights`` the matrices are drawn uniform in
    +-``init_range`` from ``seed`` (``kb_emb`` from ``seed + 1``). With
    ``weights`` (name -> array, e.g. a checkpoint's tensors) nothing is
    drawn: each parameter is a copy of ``weights[name]`` in ``dtype``, and
    any missing, unknown or wrong-shape names are refused together in one
    ConfigError.
    """

    def __init__(self, vocab, kbvocab, d=32, heads=2, layers=2, seed=0, max_len=40,
                 weights=None, use_kb_copy=True, use_ctx_copy=True, dtype=np.float64,
                 init_range=INIT_RANGE):
        if d % heads:
            raise ad.ShapeError(f"hidden size {d} not divisible by {heads} heads")
        self.vocab = vocab
        self.kbvocab = kbvocab
        self.d = d
        self.heads = heads
        self.n_layers = layers
        self.max_len = max_len
        self.use_kb_copy = use_kb_copy
        self.use_ctx_copy = use_ctx_copy
        self.registry = {}
        rng = np.random.default_rng(seed) if weights is None else None

        def param(name, shape, draw):
            if weights is None:
                return self._add(name, draw())
            given = weights.get(name, np.empty(0))
            fits = given.shape == shape  # a misfit gets zeros, so that check_fit names every misfit
            return self._add(name, np.array(given, dtype) if fits else np.zeros(shape, dtype))

        def uniform(name, shape, stream=lambda: rng):
            return param(name, shape, lambda: stream().uniform(
                -init_range, init_range, size=shape).astype(dtype, copy=False))

        def filled(name, shape, value):
            return param(name, shape, lambda: np.full(shape, value, dtype=dtype))

        def ln_pair(prefix):
            return filled(f"{prefix}_gain", (1, d), 1.0), filled(f"{prefix}_bias", (1, d), 0.0)

        word = uniform("word_emb", (len(vocab), d))
        seg = uniform("seg_emb", (3, d))

        def attention(prefix, ln):
            wq, wk, wv, wo = (uniform(f"{prefix}{nm}", (d, d)) for nm in ("wq", "wk", "wv", "wo"))
            return ad.AttentionWeights(wq, wk, wv, wo, *ln_pair(ln))

        def ffn(prefix, ln):
            return ad.FFNWeights(
                uniform(f"{prefix}.ffn_w1", (d, 2 * d)),
                filled(f"{prefix}.ffn_b1", (1, 2 * d), 0.0),
                uniform(f"{prefix}.ffn_w2", (2 * d, d)),
                filled(f"{prefix}.ffn_b2", (1, d), 0.0),
                *ln_pair(ln),
            )

        enc_layers = [
            enc.EncoderLayerParams(
                attention(f"enc{i}.", f"enc{i}.ln1"), ffn(f"enc{i}", f"enc{i}.ln2")
            )
            for i in range(layers)
        ]
        self.encoder = enc.EncoderParams(word_emb=word, seg_emb=seg, layers=enc_layers, n_heads=heads)
        self.fusion = enc.FusionParams(
            w_f=uniform("fusion.w_f", (d, 2 * d)),
            w_g=uniform("fusion.w_g", (d, 2 * d)),
        )

        dec_layers = [
            dec.DecoderLayerParams(
                attention(f"dec{i}.self_", f"dec{i}.self_ln"),
                attention(f"dec{i}.fact_", f"dec{i}.fact_ln"),
                ffn(f"dec{i}", f"dec{i}.ffn_ln"),
            )
            for i in range(layers)
        ]
        self.decoder = dec.DecoderParams(
            word_emb=word,
            pos_table=dec.sinusoid_table(max_len, d).astype(dtype),
            layers=dec_layers,
            n_heads=heads,
            w_mode=uniform("mode.w", (3, 2 * d)),
            kb_w1=uniform("mode.kb_w1", (max(d // 2, 1), d)),
            kb_w2=uniform("mode.kb_w2", (1, max(d // 2, 1))),
            w_ctx=uniform("copy.w_ctx", (d, d)),
        )
        self.kb_emb = uniform("kb_emb", (len(kbvocab), d), lambda: np.random.default_rng(seed + 1))
        if weights is not None:
            check_fit("tensor", weights, {n: p.value.data.shape for n, p in self.registry.items()})

    def _add(self, name, data):
        if name in self.registry:
            raise ValueError(f"duplicate parameter name {name!r}")
        param = ad.Parameter(name, data)
        self.registry[name] = param
        return param

    def parameters(self):
        return list(self.registry.values())

    def zero_grads(self):
        for p in self.registry.values():
            p.zero_grad()

    def encode_facts(self, examples, masks=None):
        return enc.augment_facts([ex.fact for ex in examples], [ex.contexts for ex in examples],
                                 self.kb_emb.value, self.encoder, self.fusion, masks=masks)

    def encode_fact(self, example):
        return self.encode_facts([example])

    def _dropout_masks(self, examples, drops):
        """One dropout mask per encoder and per decoder sublayer, or (None, None).

        Each example's ``drop(shape)`` is asked once, for one [rows, d] block
        that holds all its masks one after another, in the order of that
        example run alone: its three contexts in turn, each layer by layer
        with attention before FFN, then per decoder layer self-attention,
        fact attention and FFN over its question rows. A seeded ``random()``
        stream split at any point is the same stream, so the masks equal
        those drawn one sublayer at a time. Each batched sublayer's mask is
        the row-concatenation of its examples' masks, in the model's dtype.
        """
        if drops is None:
            return None, None
        n_enc, n_dec = 2 * self.n_layers, 3 * self.n_layers
        enc_masks, dec_masks = [[] for _ in range(n_enc)], [[] for _ in range(n_dec)]
        for ex, drop in zip(examples, drops):
            c = ex.contexts
            # (rows per sublayer, the sublayers' mask lists), in draw order
            parts = [(n, enc_masks) for n in (len(c.subject_ids), len(c.predicate_ids), len(c.object_ids))]
            parts.append((len(ex.question) - 1, dec_masks))
            block = drop((sum(n * len(out) for n, out in parts), self.d))
            start = 0
            for n, out in parts:
                for masks in out:
                    masks.append(block[start : start + n])
                    start += n
        dtype = self.kb_emb.value.data.dtype
        return ([np.concatenate(m).astype(dtype, copy=False) for m in enc_masks],
                [np.concatenate(m).astype(dtype, copy=False) for m in dec_masks])

    def forward_example(self, example, drop=None):
        """Teacher-forced step distributions, as one recorded graph.

        ``example`` is one example, or a list of examples run as one batch;
        ``drop`` is then one dropout mask source, or a list with one per
        example, or None for no dropout. A list gives a BatchForward and one
        example a ForwardResult, built by the same graph as a batch of one.
        The distributions are the exact tensors the objective consumes;
        gold tokens are already mapped into each example's extended
        vocabulary (a gold word present in the contexts scores the mixture
        mass on that shared symbol).
        """
        if not isinstance(example, list):
            out = self.forward_example([example], None if drop is None else [drop])
            return ForwardResult(out.distributions, out.modes, out.copy.sources[0],
                                 out.gold_ext_ids, out.answer_ext_ids[0])
        examples = example
        sources = [dec.CopySource(ex.contexts, self.vocab) for ex in examples]
        steps = [len(ex.question) - 1 for ex in examples]
        copy = dec.CopyBatch(sources, steps)
        enc_masks, dec_masks = self._dropout_masks(examples, drop)
        fact_enc = self.encode_facts(examples, masks=enc_masks)
        input_ids = [t for ex in examples for t in ex.question[:-1]]
        states = dec.decode_states(input_ids, fact_enc.h_f, self.decoder, masks=dec_masks, steps=steps)
        prev_emb = ad.gather(self.decoder.word_emb.value, input_ids)
        distributions, modes = dec.step_distributions(
            states, prev_emb, fact_enc, copy, self.decoder,
            use_kb_copy=self.use_kb_copy, use_ctx_copy=self.use_ctx_copy,
        )
        eos = self.vocab.token(EOS)
        gold_ext = [src.extended_id(tok) for ex, src in zip(examples, sources)
                    for tok in list(ex.question_words) + [eos]]
        answer_ext = [[src.extended_id(tok) for tok in ex.answer_type_words]
                      for ex, src in zip(examples, sources)]
        return BatchForward(distributions, modes, copy, steps, gold_ext, answer_ext)
