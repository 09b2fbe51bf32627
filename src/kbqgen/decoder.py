"""Transformer decoder with fact attention and the three-mode copy mixture.

Each step mixes (1) vocabulary generation, (2) KB copy, which emits the
subject placeholder and later expands to the full subject name, and
(3) context copy over the concatenated context tokens with max-reduced
scores for repeated tokens. The step distributions live in an extended
vocabulary: the word vocab plus one slot per out-of-vocabulary context
token.

Training stacks a batch's questions as rows: each question is one causal
self-attention sequence, and its rows attend to its own fact's three rows.
The copy head is four recorded ops (mode_switch, vocab_distribution,
context_copy_distribution, mix_distributions), each a plain-numpy forward
kernel plus a hand-written backward, over all rows of the batch at once.
Context copy pads each example's context and copy groups to the batch
maximum (``CopyBatch``), and the mixture's extended vocabulary is padded to
the largest one. The incremental Generator calls the same kernels, and the
transformer sublayer kernels, on one new row per live hypothesis per step.
Greedy and beam decoding are one search over its rows; greedy is width 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import BOS, EOS, PAD, SUBJ, UNK


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


class CopyBatch:
    """The copy sources of a batch's examples, padded to the batch maximum.

    ``steps[b]`` rows of the stacked decoder states belong to example b;
    None means one example owning every row. Each example's context is a
    key sequence (``contexts``), and its copy groups are padded to the most
    groups: a pad group reads one extra, always-masked key column, so its
    copy probability is exactly 0, and it scatters that 0 onto <pad>. The
    extended vocabulary is the word vocab plus the most out-of-vocabulary
    slots of any example.
    """

    def __init__(self, sources, steps=None):
        self.sources = sources
        self.steps = steps
        self.vocab_size = sources[0].vocab_size
        self.n_extended = self.vocab_size + max(src.n_oov for src in sources)
        n_groups = [len(src.groups) for src in sources]
        width = max(n_groups)
        lengths = [len(src.tokens) for src in sources]
        pad_key = max(lengths)  # the extra key column that pad groups read
        self.contexts = ad.Sequences(lengths, pad_key + (min(n_groups) < width))
        positions = max(len(g) for src in sources for g in src.groups)
        self.group_index = np.full((len(sources), width, positions), pad_key)  # [B, G, W]
        self.group_ext_ids = np.full((len(sources), width), PAD)
        for b, src in enumerate(sources):
            # each group's positions, padded with its first; the pads never
            # change a maximum or which position first holds it
            self.group_index[b, : len(src.groups)] = [g + g[:1] * (positions - len(g)) for g in src.groups]
            self.group_ext_ids[b, : len(src.groups)] = src.group_ext_ids

    @staticmethod
    def of(copy):
        """A CopyBatch as given, or a CopySource as a batch of one."""
        return copy if isinstance(copy, CopyBatch) else CopyBatch([copy])

    def _steps(self, n_rows):
        return [n_rows] if self.steps is None else self.steps

    def rows(self, n_rows):
        """The decoder rows as query sequences, one per example."""
        return ad.Sequences(self._steps(n_rows))

    def columns(self, n_rows):
        """The index of each row's copy groups in the extended vocabulary: ``dist[index]`` is [n, G]."""
        example = np.repeat(np.arange(len(self.sources)), self._steps(n_rows))
        return np.arange(n_rows)[:, None], self.group_ext_ids[example]


def decode_states(prev_ids, h_f, params, masks=None, steps=None):
    """All decoder states for teacher-forced prefixes stacked as rows; [sum T, d].

    ``steps`` gives each question's row count (default: one question), and
    h_f holds three fact rows per question. Each prefix must start with
    BOS. Self-attention is causal within each question: a -inf bias on
    later rows makes row t depend only on its question's tokens up to t, so
    appending tokens changes earlier rows by rounding at most. ``masks``
    holds one [sum T, d] dropout mask per sublayer, per layer
    self-attention, fact attention and FFN; None means no dropout.
    """
    if len(prev_ids) == 0:
        raise ad.ContractError("decode_states needs at least the BOS token")
    steps = [len(prev_ids)] if steps is None else list(steps)
    starts = np.cumsum([0] + steps[:-1])
    if any(prev_ids[i] != BOS for i in starts):
        raise ad.ContractError("decoder input must start with BOS")
    if max(steps) > params.pos_table.shape[0]:
        raise ad.ContractError(
            f"sequence length {max(steps)} exceeds position table {params.pos_table.shape[0]}"
        )
    positions = np.arange(len(prev_ids)) - np.repeat(starts, steps)
    x = ad.add(
        ad.gather(params.word_emb.value, list(prev_ids)),
        ad.tensor(params.pos_table[positions]),
    )
    causal = ad.layout(steps, causal=True)
    to_fact = ad.layout(steps, [3] * len(steps))
    for i, layer in enumerate(params.layers):
        self_mask, fact_mask, ffn_mask = masks[3 * i : 3 * i + 3] if masks else (None,) * 3
        x = ad.attention_block(x, x, layer.self_attn, params.n_heads, layout=causal, mask=self_mask)
        x = ad.attention_block(x, h_f, layer.fact_attn, params.n_heads, layout=to_fact,
                               mask=fact_mask)
        x = ad.ffn_block(x, layer.ffn, mask=ffn_mask)
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


def context_copy_forward(s, keys, copy):
    """Context-copy kernel on arrays; keys are the context rows times w_ctx.

    ``copy`` is a CopySource or CopyBatch; each example's rows score only
    its own context. Returns (p_ctx [n, G], (scores [B, T, L], reduced
    [B, T, G], total [B, T, 1])): the position scores, each group's maximum
    score and their row sums, with each example's rows padded to the most.
    """
    copy = CopyBatch.of(copy)
    rows = copy.rows(len(s))
    scores = rows.pad(s) @ copy.contexts.pad(keys).transpose(0, 2, 1)  # [B, T, L]
    if copy.contexts.valid is not None:
        # every context has a real key, so pad rows stay finite too; unpad drops them
        scores = np.where(copy.contexts.valid[:, None, :], scores, -np.inf)
    scores = ad.softmax(scores)
    reduced = _grouped(scores, copy.group_index).max(axis=3)
    total = reduced.sum(axis=2, keepdims=True)
    return rows.unpad(reduced / total), (scores, reduced, total)


def _grouped(scores, index):
    """Scores [B, T, L] at each group's positions, index [B, G, W] -> [B, T, G, W]."""
    # the two index arrays around the slice put their axes first: [B, G, W, T]
    return scores[np.arange(len(index))[:, None, None], :, index].transpose(0, 3, 1, 2)


def context_copy_distribution(states, context_rows, copy, params):
    """Max-reduced, renormalized copy scores over unique context tokens.

    Per-position scores are a softmax over all of the example's concatenated
    context; each unique token then keeps the maximum over its positions
    (never the sum), and the reduced scores are renormalized into a
    distribution. The gradient of a group goes to the one position its
    maximum came from. A pad group has score and gradient 0.
    """
    w_ctx = params.w_ctx.value
    keys = context_rows.data @ w_ctx.data  # [L, d]
    p, (scores, _, total) = context_copy_forward(states.data, keys, copy)
    copy = CopyBatch.of(copy)
    rows, keys_p = copy.rows(len(p)), copy.contexts.pad(keys)

    def bwd(g):
        # the lowest position among those holding the group's maximum
        first = _grouped(scores, copy.group_index).argmax(axis=3)[..., None]
        arg = np.take_along_axis(copy.group_index[:, None], first, axis=3)
        dreduced = rows.pad(g - (g * p).sum(axis=1, keepdims=True)) / total
        dscores = np.zeros_like(scores)
        np.put_along_axis(dscores, arg[..., 0], dreduced, axis=2)
        dlogits = ad.softmax_backward(scores, dscores)
        ad.accum(states, rows.unpad(dlogits @ keys_p))
        dkeys = copy.contexts.unpad(dlogits.transpose(0, 2, 1) @ rows.pad(states.data))
        ad.accum(w_ctx, context_rows.data.T @ dkeys)
        ad.accum(context_rows, dkeys @ w_ctx.data.T)

    return ad.record(p, (states, context_rows, w_ctx), bwd)


def mix_forward(modes, p_vocab, p_ctx, copy):
    """Mixture kernel on arrays; [n, n_extended].

    The KB-copy mode is a point mass on <subj>. Each of an example's copy
    groups has its own extended id, so the context-copy mass scatters
    without collisions; the pad groups' zeros all land on <pad>.
    """
    copy = CopyBatch.of(copy)
    dist = np.zeros((len(modes), copy.n_extended), dtype=p_vocab.dtype)
    dist[:, : copy.vocab_size] = modes[:, :1] * p_vocab
    dist[:, SUBJ] += modes[:, 1]
    dist[copy.columns(len(modes))] += modes[:, 2:] * p_ctx
    return dist


def mix_distributions(modes, p_vocab, p_ctx, copy):
    """Eq-style mixture over the extended vocabulary; rows sum to 1.

    A context token that is also a vocab word accumulates both its
    generation and its copy mass on the shared entry.
    """
    copy = CopyBatch.of(copy)
    m, pv, pc = modes.data, p_vocab.data, p_ctx.data
    index = copy.columns(len(m))

    def bwd(g):
        # a pad group's gradient meets its zero probability and zero copy score
        g_vocab, g_ctx = g[:, : copy.vocab_size], g[index]
        dmodes = [(g_vocab * pv).sum(axis=1), g[:, SUBJ], (g_ctx * pc).sum(axis=1)]
        ad.accum(modes, np.column_stack(dmodes))
        ad.accum(p_vocab, g_vocab * m[:, :1])
        ad.accum(p_ctx, g_ctx * m[:, 2:])

    return ad.record(mix_forward(m, pv, pc, copy), (modes, p_vocab, p_ctx), bwd)


def step_distributions(states, prev_emb, fact_enc, copy, params,
                       use_kb_copy=True, use_ctx_copy=True):
    """The full per-step extended distributions [n, n_extended] plus modes.

    ``copy`` is one example's CopySource or a batch's CopyBatch.
    """
    copy = CopyBatch.of(copy)
    modes = mode_switch(states, prev_emb, params, use_kb_copy, use_ctx_copy)
    p_vocab = vocab_distribution(states, params)
    p_ctx = context_copy_distribution(states, fact_enc.context_rows, copy, params)
    dist = mix_distributions(modes, p_vocab, p_ctx, copy)
    return dist, modes


def surface_realize(tokens, subject_name):
    """The tokens with each subject placeholder expanded into the full name's tokens."""
    out = []
    for tok in tokens:
        if tok == "<subj>":
            out.extend(subject_name)
        else:
            out.append(tok)
    return out


def _feedback_id(ext_id, vocab_size):
    # copied OOV tokens feed the UNK embedding at the next step
    return ext_id if ext_id < vocab_size else UNK


class Generator:
    """Incremental decoding state for one example: one row per live hypothesis.

    Each step runs one new row per hypothesis through the kernels training
    records: ad.attention_forward, ad.ffn_forward and the copy head's
    mode/vocab/context-copy/mix kernels. Each layer caches self-attention K
    and V as [rows, steps, d]; each row's query is one attention sequence
    over its own cached steps. Fact K/V and the copy keys are projected
    once and shared. It starts with one row; ``keep`` gathers rows, which is
    how a beam search reorders them. Tests pin it to the recorded graph.
    """

    def __init__(self, model, example):
        self.model = model
        self.copy_source = CopySource(example.contexts, model.vocab)
        self._copy = CopyBatch([self.copy_source])
        with ad.no_grad():
            fact_enc = model.encode_fact(example)
        params = model.decoder
        h_f = fact_enc.h_f.data
        self.ctx_keys = fact_enc.context_rows.data @ params.w_ctx.value.data
        self.fact_kv = [
            (h_f @ layer.fact_attn.wk.value.data, h_f @ layer.fact_attn.wv.value.data)
            for layer in params.layers
        ]
        empty = np.empty((1, 0, params.d), dtype=h_f.dtype)
        self.self_cache = [(empty, empty) for _ in params.layers]
        self.queries = ad.Sequences([1])  # one query per row, each its own sequence
        self.to_fact = ad.Layout(ad.Sequences([1]), ad.Sequences([3]), None)  # all rows see the 3 fact rows
        self.t = 0
        self.mode_offsets = mode_mask(model.use_kb_copy, model.use_ctx_copy)

    def keep(self, rows):
        """Continue with the given rows: new row i carries on from old row rows[i]."""
        self.self_cache = [(ks[rows], vs[rows]) for ks, vs in self.self_cache]
        self.queries = ad.Sequences([1] * len(rows))
        self.to_fact = ad.Layout(ad.Sequences([len(rows)]), ad.Sequences([3]), None)

    def step(self, token_ids):
        """Feed one input id per row; returns (dist, modes, p_vocab, p_ctx) of [rows, ·]."""
        rows = len(self.self_cache[0][0])
        if len(token_ids) != rows:
            raise ad.ContractError(f"step needs one id per row: {rows} rows, {len(token_ids)} ids")
        params = self.model.decoder
        emb = params.word_emb.value.data.take(token_ids, axis=0)
        x = emb + params.pos_table[self.t]
        self.t += 1
        own_steps = ad.Layout(self.queries, ad.Sequences([self.t] * rows), None)
        for li, layer in enumerate(params.layers):
            attn = layer.self_attn
            ks, vs = self.self_cache[li]
            ks = np.concatenate([ks, (x @ attn.wk.value.data)[:, None]], axis=1)
            vs = np.concatenate([vs, (x @ attn.wv.value.data)[:, None]], axis=1)
            self.self_cache[li] = (ks, vs)
            x, _ = ad.attention_forward(x, ks.reshape(-1, ks.shape[2]), vs.reshape(-1, ks.shape[2]),
                                        attn, params.n_heads, own_steps)
            x, _ = ad.attention_forward(x, *self.fact_kv[li], layer.fact_attn, params.n_heads,
                                        self.to_fact)
            x, _ = ad.ffn_forward(x, layer.ffn)

        modes, _ = mode_forward(x, emb, params, self.mode_offsets)
        p_vocab = vocab_forward(x, params)
        p_ctx, _ = context_copy_forward(x, self.ctx_keys, self._copy)
        return mix_forward(modes, p_vocab, p_ctx, self._copy), modes, p_vocab, p_ctx


def greedy_decode(model, example, max_len=32):
    """Greedy decoding: the search with one live hypothesis.

    Returns (tokens, mode_chars) without BOS/EOS; mode chars are g/k/c for
    the mixture component contributing most to each emitted token.
    """
    return _search(model, example, 1, max_len)


def beam_decode(model, example, beam_width=3, max_len=32):
    """Length-normalized beam search; returns (tokens, mode_chars) as greedy_decode does."""
    return _search(model, example, beam_width, max_len)


def _chosen_mode(ext_id, mode_row, vocab_row, ctx_row, copy_source):
    gen = mode_row[0] * (vocab_row[ext_id] if ext_id < copy_source.vocab_size else 0.0)
    kb = mode_row[1] if ext_id == SUBJ else 0.0
    tok = copy_source.extended_token(ext_id)
    g = copy_source._group_of.get(tok)
    ctx = mode_row[2] * ctx_row[g] if g is not None else 0.0
    return "gkc"[[gen, kb, ctx].index(max(gen, kb, ctx))]  # the first largest, like np.argmax


def _search(model, example, width, max_len):
    """Length-normalized beam search over one Generator, one row per live beam.

    Each row proposes its top width+1 tokens (a stable sort: ties go to the
    lower ext_id). All proposals rank by (-log probability, ext_id) and the
    first ``width`` that are not EOS live on; an EOS ranked before them
    finishes its beam, scored per token with EOS counted. After max_len
    steps the live beams finish too. Width 1 is greedy decoding: it ends at
    the first EOS that ranks first, which outscores the runner-up. Wider
    searches stop once no live beam can beat the best finished score: a
    beam's log probability only falls, and it ends with at most max_len
    tokens, so its final score is at most logprob / max_len.
    """
    if width < 1:
        raise ad.ContractError(f"beam width must be at least 1, got {width}")
    gen = Generator(model, example)
    src = gen.copy_source
    inputs, beams, finished = [BOS], [([], "", 0.0)], []  # beam: tokens, mode chars, logprob
    for _ in range(max_len):
        dist, modes, p_vocab, p_ctx = gen.step(inputs)
        neg = -np.log(np.maximum(dist, 1e-12))
        k = min(width + 1, neg.shape[1])
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
        # stable-sort only the ids at or above each row's k-th largest log
        top = np.where(neg <= kth, neg, np.inf).argsort(axis=1, kind="stable")[:, :k].tolist()
        candidates = [(beams[r][2] - neg[r, e], e, r) for r, row in enumerate(top) for e in row]
        candidates.sort(key=lambda c: (-c[0], c[1]))
        kept, inputs, next_beams = [], [], []
        for score, ext_id, r in candidates:
            if len(kept) == width:
                break
            tokens, mode_chars, _ = beams[r]
            if ext_id == EOS:
                finished.append((score / (len(tokens) + 1), tokens, mode_chars))
                continue
            mode = _chosen_mode(ext_id, modes[r], p_vocab[r], p_ctx[r], src)
            kept.append(r)
            inputs.append(_feedback_id(ext_id, src.vocab_size))
            next_beams.append((tokens + [src.extended_token(ext_id)], mode_chars + mode, score))
        if kept != list(range(len(beams))):
            gen.keep(kept)
        beams = next_beams
        best = max(f[0] for f in finished) if finished else None
        if best is not None and (width == 1 or max(b[2] for b in beams) / max_len <= best):
            break  # greedy ends at its first EOS; a wider search once no live beam can win
    finished += [(logprob / max(len(tokens), 1), tokens, chars) for tokens, chars, logprob in beams]
    _, tokens, mode_chars = max(finished, key=lambda f: f[0])
    return tokens, mode_chars
