"""Model assembly: every trainable matrix in one addressable registry.

Builds encoder, fusion, decoder and KB-embedding parameters from a seed,
wires the shared word-embedding table across encoder input, decoder input
and output logits, and provides the teacher-forced forward pass whose step
distributions feed the objective directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from .corpus import EOS

INIT_RANGE = 0.08


@dataclass
class ForwardResult:
    distributions: ad.Tensor  # [T, n_extended]
    modes: ad.Tensor  # [T, 3]
    copy_source: dec.CopySource
    gold_ext_ids: list  # len T
    answer_ext_ids: list


class Model:
    def __init__(self, vocab, kbvocab, d=32, heads=2, layers=2, seed=0, max_len=40,
                 kb_table=None, word_vectors=None, use_fusion=True, use_kb_copy=True,
                 use_ctx_copy=True, dtype=np.float64, init_range=INIT_RANGE):
        if d % heads:
            raise ad.ShapeError(f"hidden size {d} not divisible by {heads} heads")
        self.vocab = vocab
        self.kbvocab = kbvocab
        self.d = d
        self.heads = heads
        self.n_layers = layers
        self.max_len = max_len
        self.use_fusion = use_fusion
        self.use_kb_copy = use_kb_copy
        self.use_ctx_copy = use_ctx_copy
        self.registry = {}
        rng = np.random.default_rng(seed)

        def uniform(name, shape):
            return self._add(name, rng.uniform(-init_range, init_range, size=shape).astype(dtype))

        def ln_pair(prefix):
            gain = self._add(f"{prefix}_gain", np.ones((1, d), dtype=dtype))
            bias = self._add(f"{prefix}_bias", np.zeros((1, d), dtype=dtype))
            return gain, bias

        word = uniform("word_emb", (len(vocab), d))
        if word_vectors:
            table = word.value.data
            for i, tok in enumerate(vocab.tokens):
                vec = word_vectors.get(tok)
                if vec is not None:
                    table[i] = np.asarray(vec, dtype=dtype)
        seg = uniform("seg_emb", (3, d))

        def attention(prefix, ln):
            wq, wk, wv, wo = (uniform(f"{prefix}{nm}", (d, d)) for nm in ("wq", "wk", "wv", "wo"))
            return ad.AttentionWeights(wq, wk, wv, wo, *ln_pair(ln))

        def ffn(prefix, ln):
            return ad.FFNWeights(
                uniform(f"{prefix}.ffn_w1", (d, 2 * d)),
                self._add(f"{prefix}.ffn_b1", np.zeros((1, 2 * d), dtype=dtype)),
                uniform(f"{prefix}.ffn_w2", (2 * d, d)),
                self._add(f"{prefix}.ffn_b2", np.zeros((1, d), dtype=dtype)),
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

        if kb_table is not None:
            if kb_table.shape != (len(kbvocab), d):
                raise ad.ShapeError(
                    f"KB table shape {kb_table.shape} does not match ({len(kbvocab)}, {d})"
                )
            self.kb_emb = self._add("kb_emb", np.asarray(kb_table, dtype=dtype).copy())
        else:
            self.kb_emb = self._add(
                "kb_emb",
                np.random.default_rng(seed + 1).uniform(
                    -init_range, init_range, size=(len(kbvocab), d)
                ).astype(dtype),
            )

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

    def encode_fact(self, example, drop=None):
        return enc.augment_fact(
            example.fact, example.contexts, self.kb_emb.value,
            self.encoder, self.fusion, use_fusion=self.use_fusion, drop=drop,
        )

    def forward_example(self, example, drop=None):
        """Teacher-forced step distributions for one example.

        The returned distributions are the exact tensors the objective
        consumes; gold tokens are already mapped into the extended
        vocabulary (a gold word present in the contexts scores the mixture
        mass on that shared symbol).
        """
        copy_source = dec.CopySource(example.contexts, self.vocab)
        fact_enc = self.encode_fact(example, drop=drop)
        input_ids = list(example.question[:-1])
        states = dec.decode_states(input_ids, fact_enc.h_f, self.decoder, drop=drop)
        prev_emb = ad.gather(self.decoder.word_emb.value, input_ids)
        distributions, modes = dec.step_distributions(
            states, prev_emb, fact_enc, copy_source, self.decoder,
            use_kb_copy=self.use_kb_copy, use_ctx_copy=self.use_ctx_copy,
        )
        target_tokens = list(example.question_words) + [self.vocab.token(EOS)]
        gold_ext = [copy_source.extended_id(tok) for tok in target_tokens]
        answer_ext = [copy_source.extended_id(tok) for tok in example.answer_type_words]
        return ForwardResult(
            distributions=distributions,
            modes=modes,
            copy_source=copy_source,
            gold_ext_ids=gold_ext,
            answer_ext_ids=answer_ext,
        )
