"""Transformer decoder with fact attention and the three-mode copy mixture.

Each step mixes (1) vocabulary generation, (2) KB copy, which emits the
subject placeholder and later expands to the full subject name, and
(3) context copy over the concatenated context tokens with max-reduced
scores for repeated tokens. The step distributions live in an extended
vocabulary: the word vocab plus one slot per out-of-vocabulary context
token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import BOS, EOS, SUBJ, UNK


@dataclass
class DecoderLayerParams:
    self_wq: ad.Parameter
    self_wk: ad.Parameter
    self_wv: ad.Parameter
    self_wo: ad.Parameter
    self_ln_gain: ad.Parameter
    self_ln_bias: ad.Parameter
    fact_wq: ad.Parameter
    fact_wk: ad.Parameter
    fact_wv: ad.Parameter
    fact_wo: ad.Parameter
    fact_ln_gain: ad.Parameter
    fact_ln_bias: ad.Parameter
    ffn_w1: ad.Parameter
    ffn_b1: ad.Parameter
    ffn_w2: ad.Parameter
    ffn_b2: ad.Parameter
    ffn_ln_gain: ad.Parameter
    ffn_ln_bias: ad.Parameter


@dataclass
class DecoderParams:
    word_emb: ad.Parameter  # tied with the encoder table and output logits
    pos_table: np.ndarray  # [max_len, d] sinusoidal constants
    layers: list
    n_heads: int
    w_mode: ad.Parameter  # [3, 2d]
    kb_w1: ad.Parameter  # [d/2, d] first perceptron layer for the KB-copy logit
    kb_w2: ad.Parameter  # [1, d/2]
    w_ctx: ad.Parameter  # [d, d] bilinear context-copy scorer

    @property
    def d(self):
        return self.word_emb.value.data.shape[1]


def sinusoid_table(max_len, d):
    pos = np.arange(max_len)[:, None].astype(np.float64)
    idx = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (idx // 2)) / d)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return table


class CopySource:
    """Concatenated context tokens with extended-vocabulary bookkeeping.

    Positions group by token identity (first-occurrence order); tokens
    absent from the word vocab get extension slots after it, so they can be
    emitted even though their input embedding falls back to UNK.
    """

    def __init__(self, contexts, vocab):
        self.tokens = contexts.all_words
        if not self.tokens:
            raise ad.ContractError("empty copy source: contexts must be non-empty")
        self.segments = contexts.segment_ids
        self.vocab_size = len(vocab)
        group_of = {}
        self.groups = []
        self.group_tokens = []
        for m, tok in enumerate(self.tokens):
            if tok not in group_of:
                group_of[tok] = len(self.groups)
                self.groups.append([])
                self.group_tokens.append(tok)
            self.groups[group_of[tok]].append(m)
        self._group_of = group_of
        self.group_ext_ids = []
        self.oov_tokens = []  # the token of each extension slot, in slot order
        for tok in self.group_tokens:
            if tok in vocab:
                self.group_ext_ids.append(vocab.id(tok))
            else:
                self.group_ext_ids.append(self.vocab_size + len(self.oov_tokens))
                self.oov_tokens.append(tok)
        self.n_oov = len(self.oov_tokens)
        self.n_extended = self.vocab_size + self.n_oov
        self._vocab = vocab
        self._scatter = None

    def scatter_matrix(self):
        if self._scatter is None:
            m = np.zeros((len(self.groups), self.n_extended))
            for g, ext in enumerate(self.group_ext_ids):
                m[g, ext] = 1.0
            self._scatter = m
        return self._scatter

    def extended_id(self, token):
        g = self._group_of.get(token)
        if g is not None:
            return self.group_ext_ids[g]
        if token in self._vocab:
            return self._vocab.id(token)
        return UNK

    def extended_token(self, ext_id):
        if ext_id < self.vocab_size:
            return self._vocab.token(ext_id)
        return self.oov_tokens[ext_id - self.vocab_size]


def decode_states(prev_ids, h_f, params, drop=None):
    """All decoder states for a teacher-forced prefix; [T, d].

    prev_ids must start with BOS. Causal self-attention guarantees that
    appending tokens leaves earlier rows bit-identical.
    """
    if len(prev_ids) == 0:
        raise ad.ContractError("decode_states needs at least the BOS token")
    if prev_ids[0] != BOS:
        raise ad.ContractError("decoder input must start with BOS")
    t_len = len(prev_ids)
    if t_len > params.pos_table.shape[0]:
        raise ad.ContractError(
            f"sequence length {t_len} exceeds position table {params.pos_table.shape[0]}"
        )
    d = params.d
    scale_factor = 1.0 / math.sqrt(d / params.n_heads)
    x = ad.add(
        ad.gather(params.word_emb.value, list(prev_ids)),
        ad.tensor(params.pos_table[:t_len]),
    )
    for layer in params.layers:
        attn = ad.multihead_attention(
            x, x, layer.self_wq.value, layer.self_wk.value, layer.self_wv.value,
            layer.self_wo.value, n_heads=params.n_heads, scale_factor=scale_factor,
            causal=True,
        )
        if drop is not None:
            attn = drop(attn)
        x = ad.layer_norm(ad.add(x, attn), layer.self_ln_gain.value, layer.self_ln_bias.value)
        fact = ad.multihead_attention(
            x, h_f, layer.fact_wq.value, layer.fact_wk.value, layer.fact_wv.value,
            layer.fact_wo.value, n_heads=params.n_heads, scale_factor=scale_factor,
        )
        if drop is not None:
            fact = drop(fact)
        x = ad.layer_norm(ad.add(x, fact), layer.fact_ln_gain.value, layer.fact_ln_bias.value)
        hidden = ad.relu(ad.add(ad.matmul(x, layer.ffn_w1.value), layer.ffn_b1.value))
        ffn = ad.add(ad.matmul(hidden, layer.ffn_w2.value), layer.ffn_b2.value)
        if drop is not None:
            ffn = drop(ffn)
        x = ad.layer_norm(ad.add(x, ffn), layer.ffn_ln_gain.value, layer.ffn_ln_bias.value)
    return x


def mode_mask(use_kb_copy, use_ctx_copy):
    """[1, 3] logit offsets that switch the disabled copy modes off."""
    return np.array([[0.0, 0.0 if use_kb_copy else -1e9, 0.0 if use_ctx_copy else -1e9]])


def mode_switch(states, prev_emb, params, use_kb_copy=True, use_ctx_copy=True):
    """Per-step (p_genv, p_cpkb, p_cpctx) as rows of [T, 3].

    The generation and context logits are linear in [s_t; y_{t-1}]; the
    KB-copy logit comes from the two-layer perceptron on s_t. Disabled modes
    are masked to effectively -inf before the softmax.
    """
    cat = ad.concat([states, prev_emb], axis=1)
    lin = ad.matmul(cat, ad.transpose(params.w_mode.value))  # [T, 3]
    kb_logit = ad.matmul(
        ad.relu(ad.matmul(states, ad.transpose(params.kb_w1.value))),
        ad.transpose(params.kb_w2.value),
    )
    logits = ad.concat(
        [ad.gather_cols(lin, [0]), kb_logit, ad.gather_cols(lin, [2])], axis=1
    )
    mask = mode_mask(use_kb_copy, use_ctx_copy)
    if mask.any():
        logits = ad.add(logits, ad.tensor(mask))
    return ad.softmax_rows(logits)


def vocab_distribution(states, params):
    """Softmax over the word vocab from tied-embedding logits; [T, |V|]."""
    logits = ad.matmul(states, ad.transpose(params.word_emb.value))
    return ad.softmax_rows(logits)


def kb_copy_distribution(copy_source):
    """The KB-copy mode's conditional distribution: a point mass on <subj>."""
    row = np.zeros((1, copy_source.n_extended))
    row[0, SUBJ] = 1.0
    return ad.tensor(row)


def context_copy_distribution(states, context_rows, copy_source, params):
    """Max-reduced, renormalized copy scores over unique context tokens.

    Per-position scores are a softmax over all of the concatenated context;
    each unique token then keeps the maximum over its positions (never the
    sum), and the reduced scores are renormalized into a distribution.
    """
    keys = ad.matmul(context_rows, params.w_ctx.value)  # [L, d]
    scores = ad.softmax_rows(ad.matmul(states, ad.transpose(keys)))  # [T, L]
    reduced = ad.group_max_rows(scores, copy_source.groups)  # [T, G]
    ones = ad.tensor(np.ones((len(copy_source.groups), 1)))
    total = ad.matmul(reduced, ones)  # [T, 1]
    return ad.div(reduced, total)


def mix_distributions(modes, p_vocab, p_ctx, copy_source):
    """Eq-style mixture over the extended vocabulary; rows sum to 1.

    A context token that is also a vocab word accumulates both its
    generation and its copy mass on the shared entry; the KB-copy mode
    weighs kb_copy_distribution.
    """
    t_len = modes.data.shape[0]
    p_g = ad.gather_cols(modes, [0])
    p_k = ad.gather_cols(modes, [1])
    p_c = ad.gather_cols(modes, [2])
    if copy_source.n_oov:
        base = ad.concat(
            [p_vocab, ad.tensor(np.zeros((t_len, copy_source.n_oov)))], axis=1
        )
    else:
        base = p_vocab
    term_gen = ad.mul(base, p_g)
    term_kb = ad.matmul(p_k, kb_copy_distribution(copy_source))
    scattered = ad.matmul(p_ctx, ad.tensor(copy_source.scatter_matrix()))
    term_ctx = ad.mul(scattered, p_c)
    return ad.add(ad.add(term_gen, term_kb), term_ctx)


def step_distributions(states, prev_emb, fact_enc, copy_source, params,
                       use_kb_copy=True, use_ctx_copy=True):
    """The full per-step extended distributions [T, n_extended] plus modes."""
    modes = mode_switch(states, prev_emb, params, use_kb_copy, use_ctx_copy)
    p_vocab = vocab_distribution(states, params)
    p_ctx = context_copy_distribution(states, fact_enc.context_rows, copy_source, params)
    dist = mix_distributions(modes, p_vocab, p_ctx, copy_source)
    return dist, modes


def surface_realize(tokens, subject_name):
    """Expand the subject placeholder into the full name; join with spaces."""
    out = []
    for tok in tokens:
        if tok == "<subj>":
            out.extend(subject_name)
        else:
            out.append(tok)
    return " ".join(out)


def _feedback_id(ext_id, vocab_size):
    # copied OOV tokens feed the UNK embedding at the next step
    return ext_id if ext_id < vocab_size else UNK


def _ln_row(x, gain, bias, eps=1e-5):
    mu = x.mean()
    s = np.sqrt(x.var() + eps)
    return gain[0] * ((x - mu) / s) + bias[0]


def _softmax_vec(x):
    e = np.exp(x - x.max())
    return e / e.sum()


class Generator:
    """Incremental decoding state: cached keys/values, one step at a time.

    Pure numpy mirror of decode_states plus the step head, used for greedy
    and beam search where re-running the whole prefix every step would be
    cubic in length. Tests pin its outputs to the recorded-graph path.
    """

    def __init__(self, model, example):
        self.model = model
        self.copy_source = CopySource(example.contexts, model.vocab)
        with ad.no_grad():
            fact_enc = model.encode_fact(example)
        params = model.decoder
        self.h_f = fact_enc.h_f.data
        self.ctx_keys = fact_enc.context_rows.data @ params.w_ctx.value.data
        self.fact_kv = [
            (self.h_f @ layer.fact_wk.value.data, self.h_f @ layer.fact_wv.value.data)
            for layer in params.layers
        ]
        self.self_cache = [([], []) for _ in params.layers]
        self.t = 0
        self.mode_mask = mode_mask(model.use_kb_copy, model.use_ctx_copy)[0]

    def clone(self):
        other = object.__new__(Generator)
        other.model = self.model
        other.copy_source = self.copy_source
        other.h_f = self.h_f
        other.ctx_keys = self.ctx_keys
        other.fact_kv = self.fact_kv
        other.self_cache = [(ks.copy(), vs.copy()) for ks, vs in self.self_cache]
        other.t = self.t
        other.mode_mask = self.mode_mask
        return other

    def step(self, token_id):
        """Feed one input token; returns (dist, modes, p_vocab, p_ctx) rows."""
        params = self.model.decoder
        d = params.d
        heads = params.n_heads
        dh = d // heads
        scale_factor = 1.0 / math.sqrt(d / heads)
        emb = params.word_emb.value.data[token_id]
        x = emb + params.pos_table[self.t]
        for li, layer in enumerate(params.layers):
            ks, vs = self.self_cache[li]
            ks.append(x @ layer.self_wk.value.data)
            vs.append(x @ layer.self_wv.value.data)
            q = x @ layer.self_wq.value.data
            k_all = np.stack(ks)
            v_all = np.stack(vs)
            out = np.empty(d)
            for j in range(heads):
                sl = slice(j * dh, (j + 1) * dh)
                alpha = _softmax_vec((k_all[:, sl] @ q[sl]) * scale_factor)
                out[sl] = alpha @ v_all[:, sl]
            x = _ln_row(
                x + out @ layer.self_wo.value.data,
                layer.self_ln_gain.value.data, layer.self_ln_bias.value.data,
            )
            kf, vf = self.fact_kv[li]
            q = x @ layer.fact_wq.value.data
            out = np.empty(d)
            for j in range(heads):
                sl = slice(j * dh, (j + 1) * dh)
                alpha = _softmax_vec((kf[:, sl] @ q[sl]) * scale_factor)
                out[sl] = alpha @ vf[:, sl]
            x = _ln_row(
                x + out @ layer.fact_wo.value.data,
                layer.fact_ln_gain.value.data, layer.fact_ln_bias.value.data,
            )
            hidden = np.maximum(x @ layer.ffn_w1.value.data + layer.ffn_b1.value.data[0], 0.0)
            x = _ln_row(
                x + hidden @ layer.ffn_w2.value.data + layer.ffn_b2.value.data[0],
                layer.ffn_ln_gain.value.data, layer.ffn_ln_bias.value.data,
            )
        self.t += 1

        cat = np.concatenate([x, emb])
        lin = params.w_mode.value.data @ cat
        kb_logit = params.kb_w2.value.data[0] @ np.maximum(params.kb_w1.value.data @ x, 0.0)
        logits = np.array([lin[0], kb_logit, lin[2]]) + self.mode_mask
        modes = _softmax_vec(logits)

        p_vocab = _softmax_vec(params.word_emb.value.data @ x)
        sc = _softmax_vec(self.ctx_keys @ x)
        src = self.copy_source
        reduced = np.array([max(sc[m] for m in group) for group in src.groups])
        p_ctx = reduced / reduced.sum()

        dist = np.zeros(src.n_extended)
        dist[: src.vocab_size] = modes[0] * p_vocab
        dist[SUBJ] += modes[1]
        for g, ext in enumerate(src.group_ext_ids):
            dist[ext] += modes[2] * p_ctx[g]
        return dist, modes, p_vocab, p_ctx


def greedy_decode(model, example, max_len=32):
    """Argmax decoding; ties break toward the lowest extended index.

    Returns (tokens, mode_chars) without BOS/EOS; mode chars are g/k/c for
    the mixture component contributing most to each emitted token.
    """
    gen = Generator(model, example)
    src = gen.copy_source
    token_id = BOS
    tokens = []
    mode_chars = []
    for _ in range(max_len):
        dist, modes, p_vocab, p_ctx = gen.step(token_id)
        ext_id = int(np.argmax(dist))
        if ext_id == EOS:
            break
        tokens.append(src.extended_token(ext_id))
        mode_chars.append(_chosen_mode(ext_id, modes, p_vocab, p_ctx, src))
        token_id = _feedback_id(ext_id, src.vocab_size)
    return tokens, "".join(mode_chars)


def _chosen_mode(ext_id, mode_row, vocab_row, ctx_row, copy_source):
    gen = mode_row[0] * (vocab_row[ext_id] if ext_id < copy_source.vocab_size else 0.0)
    kb = mode_row[1] if ext_id == SUBJ else 0.0
    tok = copy_source.extended_token(ext_id)
    g = copy_source._group_of.get(tok)
    ctx = mode_row[2] * ctx_row[g] if g is not None else 0.0
    return "gkc"[int(np.argmax([gen, kb, ctx]))]


def beam_decode(model, example, beam_width=3, max_len=32):
    """Length-normalized beam search; width 1 reproduces greedy exactly."""
    root = Generator(model, example)
    src = root.copy_source
    beams = [(root, BOS, [], [], 0.0)]  # generator, next input, tokens, modes, logprob
    finished = []
    for _ in range(max_len):
        candidates = []
        for gen, token_id, tokens, mode_chars, logprob in beams:
            dist, modes, p_vocab, p_ctx = gen.step(token_id)
            logs = np.log(np.maximum(dist, 1e-12))
            top = np.argsort(-logs, kind="stable")[: beam_width + 1]
            for ext_id in top:
                ext_id = int(ext_id)
                candidates.append(
                    (logprob + logs[ext_id], ext_id, gen, tokens, mode_chars,
                     modes, p_vocab, p_ctx)
                )
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = []
        for score, ext_id, gen, tokens, mode_chars, mode_row, vocab_row, ctx_row in candidates:
            if len(beams) >= beam_width:
                break
            if ext_id == EOS:
                finished.append((score / (len(tokens) + 1), tokens, mode_chars))
                continue
            beams.append(
                (
                    gen.clone(),
                    _feedback_id(ext_id, src.vocab_size),
                    tokens + [src.extended_token(ext_id)],
                    mode_chars + [_chosen_mode(ext_id, mode_row, vocab_row, ctx_row, src)],
                    score,
                )
            )
        if not beams:
            break
    for _gen, _next, tokens, mode_chars, logprob in beams:
        finished.append((logprob / max(len(tokens), 1), tokens, mode_chars))
    if not finished:
        return [], ""
    finished.sort(key=lambda f: -f[0])
    _, tokens, mode_chars = finished[0]
    return tokens, "".join(mode_chars)
