"""Transformer decoder with fact attention and the three-mode copy mixture.

Each step mixes (1) vocabulary generation, (2) KB copy, which emits the
subject placeholder and later expands to the full subject name, and
(3) context copy over the concatenated context tokens with max-reduced
scores for repeated tokens. The step distributions live in an extended
vocabulary: the word vocab plus one slot per out-of-vocabulary context
token.

The copy head is four recorded ops (mode_switch, vocab_distribution,
context_copy_distribution, mix_distributions), each a plain-numpy forward
kernel plus a hand-written backward. The incremental Generator calls the
same kernels, and the transformer sublayer kernels, on one new row per step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import BOS, EOS, SUBJ, UNK


@dataclass
class DecoderLayerParams:
    self_attn: ad.AttentionWeights  # causal, over the decoder prefix
    fact_attn: ad.AttentionWeights  # over the 3 x d fact representation
    ffn: ad.FFNWeights


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
        self.group_ext_ids = np.array(self.group_ext_ids)
        self.n_oov = len(self.oov_tokens)
        self.n_extended = self.vocab_size + self.n_oov
        self._vocab = vocab
        # positions per group, padded with the group's first position; the
        # pads never change a maximum or which position first holds it
        width = max(map(len, self.groups))
        self.group_index = np.array([g + g[:1] * (width - len(g)) for g in self.groups])

    def extended_id(self, token):
        g = self._group_of.get(token)
        if g is not None:
            return int(self.group_ext_ids[g])
        if token in self._vocab:
            return self._vocab.id(token)
        return UNK

    def extended_token(self, ext_id):
        if ext_id < self.vocab_size:
            return self._vocab.token(ext_id)
        return self.oov_tokens[ext_id - self.vocab_size]


def decode_states(prev_ids, h_f, params, drop=None):
    """All decoder states for a teacher-forced prefix; [T, d].

    prev_ids must start with BOS. Causal self-attention makes row t depend
    only on tokens up to t: appending tokens changes earlier rows by
    rounding at most.
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
    x = ad.add(
        ad.gather(params.word_emb.value, list(prev_ids)),
        ad.tensor(params.pos_table[:t_len]),
    )
    for layer in params.layers:
        x = ad.attention_block(x, x, layer.self_attn, params.n_heads, causal=True, drop=drop)
        x = ad.attention_block(x, h_f, layer.fact_attn, params.n_heads, drop=drop)
        x = ad.ffn_block(x, layer.ffn, drop=drop)
    return x


def mode_mask(use_kb_copy, use_ctx_copy):
    """[1, 3] logit offsets that switch the disabled copy modes off."""
    return np.array([[0.0, 0.0 if use_kb_copy else -1e9, 0.0 if use_ctx_copy else -1e9]])


def mode_forward(s, y, params, offsets):
    """Mode kernel on arrays: softmax of [lin_g, kb, lin_c] + offsets; (modes, saved)."""
    cat = np.concatenate([s, y], axis=1)
    logits = cat @ params.w_mode.value.data.T  # the middle column is replaced
    pre = s @ params.kb_w1.value.data.T
    hidden = np.maximum(pre, 0.0)
    logits[:, 1:2] = hidden @ params.kb_w2.value.data.T
    return ad.softmax(logits + offsets), (cat, pre, hidden)


def mode_switch(states, prev_emb, params, use_kb_copy=True, use_ctx_copy=True):
    """Per-step (p_genv, p_cpkb, p_cpctx) as rows of [T, 3].

    The generation and context logits are linear in [s_t; y_{t-1}]; the
    KB-copy logit comes from the two-layer perceptron on s_t. Disabled modes
    are masked to effectively -inf before the softmax.
    """
    w, w1, w2 = params.w_mode.value, params.kb_w1.value, params.kb_w2.value
    offsets = mode_mask(use_kb_copy, use_ctx_copy)
    modes, (cat, pre, hidden) = mode_forward(states.data, prev_emb.data, params, offsets)
    d = params.d

    def bwd(g):
        dlogits = ad.softmax_backward(modes, g)
        dlin = dlogits * np.array([[1.0, 0.0, 1.0]])
        ad.accum(w, dlin.T @ cat)
        dcat = dlin @ w.data
        dkb = dlogits[:, 1:2]
        ad.accum(w2, dkb.T @ hidden)
        dpre = (dkb @ w2.data) * (pre > 0)
        ad.accum(w1, dpre.T @ states.data)
        ad.accum(states, dcat[:, :d] + dpre @ w1.data)
        ad.accum(prev_emb, dcat[:, d:])

    return ad.record(modes, (states, prev_emb, w, w1, w2), bwd)


def vocab_forward(s, params):
    """Vocabulary kernel on arrays: softmax of the tied-embedding logits."""
    return ad.softmax(s @ params.word_emb.value.data.T)


def vocab_distribution(states, params):
    """Softmax over the word vocab from tied-embedding logits; [T, |V|]."""
    emb = params.word_emb.value
    p = vocab_forward(states.data, params)

    def bwd(g):
        dlogits = ad.softmax_backward(p, g)
        ad.accum(emb, dlogits.T @ states.data)
        ad.accum(states, dlogits @ emb.data)

    return ad.record(p, (states, emb), bwd)


def context_copy_forward(s, keys, copy_source):
    """Context-copy kernel on arrays; keys are the context rows times w_ctx.

    Returns (p_ctx [T, G], (scores [T, L], reduced [T, G], total [T, 1])):
    the position scores, each group's maximum score and their row sums.
    """
    scores = ad.softmax(s @ keys.T)
    reduced = scores[:, copy_source.group_index].max(axis=2)
    total = reduced.sum(axis=1, keepdims=True)
    return reduced / total, (scores, reduced, total)


def context_copy_distribution(states, context_rows, copy_source, params):
    """Max-reduced, renormalized copy scores over unique context tokens.

    Per-position scores are a softmax over all of the concatenated context;
    each unique token then keeps the maximum over its positions (never the
    sum), and the reduced scores are renormalized into a distribution. The
    gradient of a group goes to the one position its maximum came from.
    """
    w_ctx = params.w_ctx.value
    keys = context_rows.data @ w_ctx.data  # [L, d]
    p, (scores, _, total) = context_copy_forward(states.data, keys, copy_source)

    def bwd(g):
        # the lowest position among those holding the group's maximum
        index = copy_source.group_index
        arg = index[np.arange(len(index)), scores[:, index].argmax(axis=2)]
        dscores = np.zeros_like(scores)
        np.put_along_axis(dscores, arg, (g - (g * p).sum(axis=1, keepdims=True)) / total, axis=1)
        dlogits = ad.softmax_backward(scores, dscores)
        ad.accum(states, dlogits @ keys)
        dkeys = dlogits.T @ states.data
        ad.accum(w_ctx, context_rows.data.T @ dkeys)
        ad.accum(context_rows, dkeys @ w_ctx.data.T)

    return ad.record(p, (states, context_rows, w_ctx), bwd)


def mix_forward(modes, p_vocab, p_ctx, copy_source):
    """Mixture kernel on arrays; [T, n_extended].

    The KB-copy mode is a point mass on <subj>. Each copy group has its own
    extended id, so the context-copy mass scatters without collisions.
    """
    dist = np.zeros((len(modes), copy_source.n_extended), dtype=p_vocab.dtype)
    dist[:, : copy_source.vocab_size] = modes[:, :1] * p_vocab
    dist[:, SUBJ] += modes[:, 1]
    dist[:, copy_source.group_ext_ids] += modes[:, 2:] * p_ctx
    return dist


def mix_distributions(modes, p_vocab, p_ctx, copy_source):
    """Eq-style mixture over the extended vocabulary; rows sum to 1.

    A context token that is also a vocab word accumulates both its
    generation and its copy mass on the shared entry.
    """
    m, pv, pc = modes.data, p_vocab.data, p_ctx.data
    ext = copy_source.group_ext_ids

    def bwd(g):
        g_vocab, g_ctx = g[:, : copy_source.vocab_size], g[:, ext]
        dmodes = [(g_vocab * pv).sum(axis=1), g[:, SUBJ], (g_ctx * pc).sum(axis=1)]
        ad.accum(modes, np.column_stack(dmodes))
        ad.accum(p_vocab, g_vocab * m[:, :1])
        ad.accum(p_ctx, g_ctx * m[:, 2:])

    return ad.record(mix_forward(m, pv, pc, copy_source), (modes, p_vocab, p_ctx), bwd)


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


class Generator:
    """Incremental decoding state: cached keys/values, one step at a time.

    Each step runs one new row through the same kernels that training
    records: the sublayers (ad.attention_forward, ad.ffn_forward) and the
    copy head (mode_forward, vocab_forward, context_copy_forward,
    mix_forward). Causal self-attention reads the per-layer K/V cache, fact
    attention the fact K/V and context copy the copy keys, all projected
    once per example. Used for greedy and beam search, where re-running the
    whole prefix every step would be cubic in length. Tests pin its outputs
    to the recorded-graph path.
    """

    def __init__(self, model, example):
        self.model = model
        self.copy_source = CopySource(example.contexts, model.vocab)
        with ad.no_grad():
            fact_enc = model.encode_fact(example)
        params = model.decoder
        h_f = fact_enc.h_f.data
        self.ctx_keys = fact_enc.context_rows.data @ params.w_ctx.value.data
        self.fact_kv = [
            (h_f @ layer.fact_attn.wk.value.data, h_f @ layer.fact_attn.wv.value.data)
            for layer in params.layers
        ]
        empty = np.empty((0, params.d), dtype=h_f.dtype)
        # arrays are replaced, never written in place, so clones may share them
        self.self_cache = [(empty, empty) for _ in params.layers]
        self.t = 0
        self.mode_offsets = mode_mask(model.use_kb_copy, model.use_ctx_copy)

    def clone(self):
        other = copy.copy(self)
        other.self_cache = list(self.self_cache)
        return other

    def step(self, token_id):
        """Feed one input token; returns (dist, modes, p_vocab, p_ctx) rows."""
        params = self.model.decoder
        emb = params.word_emb.value.data[token_id : token_id + 1]
        x = emb + params.pos_table[self.t]
        for li, layer in enumerate(params.layers):
            attn = layer.self_attn
            ks, vs = self.self_cache[li]
            ks = np.concatenate([ks, x @ attn.wk.value.data])
            vs = np.concatenate([vs, x @ attn.wv.value.data])
            self.self_cache[li] = (ks, vs)
            # the new row is the last position, so it sees every cached row
            x, _ = ad.attention_forward(x, ks, vs, attn, params.n_heads)
            x, _ = ad.attention_forward(x, *self.fact_kv[li], layer.fact_attn, params.n_heads)
            x, _ = ad.ffn_forward(x, layer.ffn)
        self.t += 1

        src = self.copy_source
        modes, _ = mode_forward(x, emb, params, self.mode_offsets)
        p_vocab = vocab_forward(x, params)
        p_ctx, _ = context_copy_forward(x, self.ctx_keys, src)
        dist = mix_forward(modes, p_vocab, p_ctx, src)
        return dist[0], modes[0], p_vocab[0], p_ctx[0]


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
