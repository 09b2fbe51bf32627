import numpy as np
import pytest

from kbqgen import autodiff as ad
from kbqgen import decoder as dec
from kbqgen import encoder as enc
from kbqgen.corpus import BOS, EOS, SUBJ, UNK, ContextSet, Example, Fact, KBVocab, Vocab
from kbqgen.model import Model


def make_vocab():
    return Vocab(["which", "city", "is", "located", "in", "?", "what", "of", "old"])


def make_contexts(vocab, words=("city", "old", "located", "city", "rarity")):
    # subject: 2 tokens, predicate: 2, object: 1; "city" repeats across
    # contexts and "rarity" is out-of-vocabulary
    s, p, o = words[:2], words[2:4], words[4:]
    return ContextSet(
        subject_words=tuple(s),
        predicate_words=tuple(p),
        object_words=tuple(o),
        subject_ids=tuple(vocab.id(t) for t in s),
        predicate_ids=tuple(vocab.id(t) for t in p),
        object_ids=tuple(vocab.id(t) for t in o),
    )


def make_example(vocab, question=("which", "city", "?")):
    contexts = make_contexts(vocab)
    return Example(
        fact=Fact(0, 3, 1),
        contexts=contexts,
        question=(BOS,) + tuple(vocab.id(t) for t in question) + (EOS,),
        question_words=tuple(question),
        raw_question_words=tuple(question),
        answer_type_words=tuple(sorted(set(contexts.object_words))),
        subject_span=None,
    )


def make_model(seed=0, layers=1, **kw):
    vocab = make_vocab()
    kbvocab = KBVocab(["e0", "e1", "e2"], ["p0"])
    return Model(vocab, kbvocab, d=8, heads=2, layers=layers, seed=seed, **kw)


def test_copy_source_groups_and_extension():
    vocab = make_vocab()
    src = dec.CopySource(make_contexts(vocab), vocab)
    assert src.tokens == ("city", "old", "located", "city", "rarity")
    assert src.groups == [[0, 3], [1], [2], [4]]
    assert src.group_tokens == ["city", "old", "located", "rarity"]
    assert src.n_oov == 1
    assert src.extended_id("rarity") == len(vocab)
    assert src.extended_id("city") == vocab.id("city")
    assert src.extended_id("never-anywhere") == UNK
    assert src.extended_token(len(vocab)) == "rarity"


def test_decode_states_requires_bos():
    m = make_model()
    h_f = ad.tensor(np.zeros((3, m.d)))
    with pytest.raises(ad.ContractError):
        dec.decode_states([], h_f, m.decoder)
    with pytest.raises(ad.ContractError):
        dec.decode_states([5], h_f, m.decoder)


def test_causality_appending_is_bit_exact():
    m = make_model()
    rng = np.random.default_rng(0)
    h_f = ad.tensor(rng.normal(size=(3, m.d)))
    prefix = [BOS, 5, 6, 7]
    full = dec.decode_states(prefix + [8, 9], h_f, m.decoder)
    part = dec.decode_states(prefix, h_f, m.decoder)
    assert np.array_equal(full.data[: len(prefix)], part.data)


@pytest.mark.parametrize("d, heads", [(8, 2), (32, 4)])
def test_causality_prefix_rows_agree(d, heads):
    # row t depends only on tokens up to t; a longer input may change its
    # rounding, never more
    vocab = make_vocab()
    m = Model(vocab, KBVocab(["e0"], ["p0"]), d=d, heads=heads, layers=2, seed=4)
    rng = np.random.default_rng(5)
    h_f = ad.tensor(rng.normal(size=(3, d)))
    ids = [BOS] + rng.integers(0, len(vocab), size=23).tolist()
    full = dec.decode_states(ids, h_f, m.decoder).data
    for t in range(1, len(ids)):
        part = dec.decode_states(ids[:t], h_f, m.decoder).data
        np.testing.assert_allclose(part, full[:t], rtol=0, atol=1e-12 * np.abs(full).max())


def test_decode_states_gradients():
    m = make_model(seed=2, init_range=0.5)
    rng = np.random.default_rng(1)
    h_f = ad.Parameter("h_f", rng.normal(size=(3, m.d)))
    probe = ad.tensor(rng.normal(size=(3, m.d)))
    checked = [h_f] + [
        m.registry[n]
        for n in ("dec0.self_wq", "dec0.fact_wk", "dec0.ffn_w1", "dec0.fact_ln_gain", "word_emb")
    ]

    def f():
        states = dec.decode_states([BOS, 5, 6], h_f.value, m.decoder)
        return ad.sum_all(ad.mul(states, probe))

    assert ad.grad_check(f, checked) < 1e-4


def test_mode_switch_uniform_at_zero_weights():
    m = make_model()
    m.registry["mode.w"].value.data[...] = 0.0
    m.registry["mode.kb_w1"].value.data[...] = 0.0
    m.registry["mode.kb_w2"].value.data[...] = 0.0
    states = ad.tensor(np.random.default_rng(3).normal(size=(4, m.d)))
    prev = ad.tensor(np.random.default_rng(4).normal(size=(4, m.d)))
    modes = dec.mode_switch(states, prev, m.decoder)
    assert np.allclose(modes.data, 1 / 3)


def test_mode_switch_rows_sum_to_one():
    m = make_model(seed=5)
    rng = np.random.default_rng(6)
    modes = dec.mode_switch(
        ad.tensor(rng.normal(size=(7, m.d))), ad.tensor(rng.normal(size=(7, m.d))), m.decoder
    )
    assert np.all(modes.data > 0)
    assert np.allclose(modes.data.sum(axis=1), 1.0, atol=1e-9)


def test_mode_switch_hand_case():
    # d=2 so [s_t; y_prev] has 4 entries; three-logit softmax by hand,
    # with the KB logit coming from the zeroed perceptron (= 0)
    vocab = make_vocab()
    kbvocab = KBVocab(["e0"], ["p0"])
    m = Model(vocab, kbvocab, d=2, heads=1, layers=1, seed=0)
    w = np.array(
        [[1.0, 0.0, 0.5, -0.5], [9.9, 9.9, 9.9, 9.9], [0.0, 2.0, -1.0, 0.0]]
    )
    m.registry["mode.w"].value.data[...] = w
    m.registry["mode.kb_w1"].value.data[...] = 0.0
    m.registry["mode.kb_w2"].value.data[...] = 0.0
    s = np.array([[0.3, -0.2]])
    y = np.array([[0.1, 0.4]])
    cat = np.concatenate([s, y], axis=1)[0]
    logits = np.array([w[0] @ cat, 0.0, w[2] @ cat])
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    modes = dec.mode_switch(ad.tensor(s), ad.tensor(y), m.decoder)
    assert np.allclose(modes.data[0], expected, atol=1e-12)


def test_mode_switch_masking_disables_modes():
    m = make_model(seed=8)
    rng = np.random.default_rng(9)
    s, y = ad.tensor(rng.normal(size=(3, m.d))), ad.tensor(rng.normal(size=(3, m.d)))
    no_kb = dec.mode_switch(s, y, m.decoder, use_kb_copy=False)
    assert np.all(no_kb.data[:, 1] == 0.0)
    no_ctx = dec.mode_switch(s, y, m.decoder, use_ctx_copy=False)
    assert np.all(no_ctx.data[:, 2] == 0.0)
    assert np.allclose(no_kb.data.sum(axis=1), 1.0)


def test_vocab_distribution_is_tied_softmax():
    m = make_model(seed=10)
    rng = np.random.default_rng(11)
    states = ad.tensor(rng.normal(size=(2, m.d)))
    out = dec.vocab_distribution(states, m.decoder)
    table = m.registry["word_emb"].value.data
    logits = states.data @ table.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.allclose(out.data, e / e.sum(axis=1, keepdims=True))


def test_kb_copy_distribution_point_mass():
    # with all weight on the KB-copy mode the mixture is a point mass on <subj>
    vocab = make_vocab()
    src = dec.CopySource(make_contexts(vocab), vocab)
    rng = np.random.default_rng(24)
    p_vocab = rng.random((1, len(vocab)))
    p_ctx = rng.random((1, len(src.groups)))
    out = dec.mix_distributions(
        ad.tensor([[0.0, 1.0, 0.0]]),
        ad.tensor(p_vocab / p_vocab.sum()), ad.tensor(p_ctx / p_ctx.sum()), src,
    )
    assert out.data[0, SUBJ] == 1.0
    assert out.data.sum() == 1.0


def copy_source_of(tokens):
    # a copy source over one context holding `tokens` in order
    vocab = make_vocab()
    return dec.CopySource(ContextSet(tuple(tokens), (), ()), vocab)


def copy_scores(scores, copy_source):
    # runs the context-copy kernel so that its position scores equal `scores`:
    # a one-dimensional state of 1 against keys log(scores)
    keys = np.log(np.asarray(scores, dtype=np.float64))[:, None]
    return dec.context_copy_forward(np.ones((1, 1)), keys, copy_source)


def test_context_copy_hand_renormalization():
    # chi = [city, of, city] with position scores [0.2, 0.5, 0.3]:
    # pre-normalization {city: 0.3, of: 0.5}; post {city: 0.375, of: 0.625}
    src = copy_source_of(["city", "of", "city"])
    assert src.groups == [[0, 2], [1]]
    p, (scores, reduced, total) = copy_scores([0.2, 0.5, 0.3], src)
    assert np.allclose(scores, [[0.2, 0.5, 0.3]])
    assert np.allclose(reduced, [[0.3, 0.5]])
    assert np.allclose(total, 0.8)
    assert np.allclose(p, [[0.375, 0.625]])


def test_context_copy_ties_route_to_first_position():
    # city sits at positions 0 and 2 with equal scores: the maximum and its
    # gradient come from position 0 only
    src = copy_source_of(["city", "of", "city"])
    p, _ = copy_scores([0.4, 0.2, 0.4], src)
    assert np.allclose(p, [[2 / 3, 1 / 3]])
    rows = ad.Parameter("rows", np.log([[0.4], [0.2], [0.4]]))
    m = Model(make_vocab(), KBVocab(["e0"], ["p0"]), d=1, heads=1, layers=1)
    m.registry["copy.w_ctx"].value.data[...] = 1.0
    out = dec.context_copy_distribution(ad.tensor([[1.0]]), rows.value, src, m.decoder)
    rows.zero_grad()
    ad.backward(ad.sum_all(ad.mul(out, ad.tensor([[1.0, 0.0]]))))
    # both tied positions share the softmax term; only position 0 also
    # receives the group's gradient, (1 - 2/3) / 0.6, times its score 0.4
    assert rows.grad[0, 0] - rows.grad[2, 0] == pytest.approx(0.4 * (1 / 3) / 0.6, abs=1e-12)


def test_context_copy_distinct_tokens_is_softmax():
    vocab = make_vocab()
    ctx = make_contexts(vocab, words=("which", "old", "located", "in", "rarity"))
    src = dec.CopySource(ctx, vocab)
    assert all(len(g) == 1 for g in src.groups)
    m = make_model(seed=12)
    rng = np.random.default_rng(13)
    states = ad.tensor(rng.normal(size=(2, m.d)))
    rows = ad.tensor(rng.normal(size=(5, m.d)))
    out = dec.context_copy_distribution(states, rows, src, m.decoder)
    keys = rows.data @ m.registry["copy.w_ctx"].value.data
    logits = states.data @ keys.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.allclose(out.data, e / e.sum(axis=1, keepdims=True))


def test_context_copy_matches_bruteforce_oracle():
    # 5-token source with one token at three positions
    vocab = make_vocab()
    ctx = ContextSet(
        subject_words=("city", "old"),
        predicate_words=("city", "in"),
        object_words=("city",),
        subject_ids=(vocab.id("city"), vocab.id("old")),
        predicate_ids=(vocab.id("city"), vocab.id("in")),
        object_ids=(vocab.id("city"),),
    )
    src = dec.CopySource(ctx, vocab)
    m = make_model(seed=14)
    rng = np.random.default_rng(15)
    states = ad.tensor(rng.normal(size=(3, m.d)))
    rows = ad.tensor(rng.normal(size=(5, m.d)))
    out = dec.context_copy_distribution(states, rows, src, m.decoder)

    keys = rows.data @ m.registry["copy.w_ctx"].value.data
    logits = states.data @ keys.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    sc = e / e.sum(axis=1, keepdims=True)
    for t in range(3):
        by_token = {}
        for pos, tok in enumerate(src.tokens):
            by_token[tok] = max(by_token.get(tok, 0.0), sc[t, pos])
        z = sum(by_token.values())
        for g, tok in enumerate(src.group_tokens):
            assert out.data[t, g] == pytest.approx(by_token[tok] / z, abs=1e-12)


def test_maxout_uses_max_never_sum():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        scores = rng.random(n)
        scores /= scores.sum()
        split = int(rng.integers(2, n))
        shared = sorted(rng.choice(n, size=split, replace=False).tolist())
        src = copy_source_of(["city" if i in shared else f"w{i}" for i in range(n)])
        assert src.groups[src.group_tokens.index("city")] == shared
        _, (_, reduced, _) = copy_scores(scores, src)
        reduced = reduced[0, src.group_tokens.index("city")]
        assert reduced == pytest.approx(max(scores[i] for i in shared))
        assert reduced < sum(scores[i] for i in shared)


HEAD_CASES = [
    pytest.param("mode_switch", True, True, id="mode_switch"),
    pytest.param("mode_switch", False, True, id="mode_switch-no-kb-copy"),
    pytest.param("mode_switch", True, False, id="mode_switch-no-ctx-copy"),
    pytest.param("vocab_distribution", True, True, id="vocab_distribution"),
    pytest.param("context_copy_distribution", True, True, id="context_copy_distribution"),
    pytest.param("mix_distributions", True, True, id="mix_distributions"),
    pytest.param("mix_distributions", False, True, id="mix_distributions-no-kb-copy"),
    pytest.param("mix_distributions", True, False, id="mix_distributions-no-ctx-copy"),
]


@pytest.mark.parametrize("op, use_kb_copy, use_ctx_copy", HEAD_CASES)
def test_copy_head_op_gradients(op, use_kb_copy, use_ctx_copy):
    # the source repeats "city" and holds the OOV "rarity", so the mixture
    # has an extension slot and a group of two positions
    m = make_model(seed=23, init_range=0.5)
    src = dec.CopySource(make_contexts(m.vocab), m.vocab)
    assert src.n_oov == 1 and [0, 3] in src.groups
    rng = np.random.default_rng(25)
    states = ad.Parameter("states", rng.normal(size=(3, m.d)))
    prev = ad.Parameter("prev", rng.normal(size=(3, m.d)))
    rows = ad.Parameter("rows", rng.normal(size=(5, m.d)))
    flags = {"use_kb_copy": use_kb_copy, "use_ctx_copy": use_ctx_copy}
    named = lambda *names: [m.registry[n] for n in names]
    if op == "mode_switch":
        run = lambda: dec.mode_switch(states.value, prev.value, m.decoder, **flags)
        checked = [states, prev] + named("mode.w", "mode.kb_w1", "mode.kb_w2")
    elif op == "vocab_distribution":
        run = lambda: dec.vocab_distribution(states.value, m.decoder)
        checked = [states] + named("word_emb")
    elif op == "context_copy_distribution":
        run = lambda: dec.context_copy_distribution(states.value, rows.value, src, m.decoder)
        checked = [states, rows] + named("copy.w_ctx")
    else:
        # the mixture over the other three ops, with a disabled mode's
        # column exactly zero
        run = lambda: dec.step_distributions(
            states.value, prev.value, enc.AugmentedFact(None, rows.value), src, m.decoder, **flags
        )[0]
        checked = [states, prev, rows] + named("mode.w", "mode.kb_w1", "copy.w_ctx")
    probe = ad.tensor(rng.normal(size=run().data.shape))
    assert ad.grad_check(lambda: ad.sum_all(ad.mul(run(), probe)), checked) < 1e-4


def test_mix_scalar_case():
    # modes (0.5, 0.2, 0.3), P_genv(w) = 0.1 for w not in chi, w != <subj>
    vocab = make_vocab()
    src = dec.CopySource(make_contexts(vocab), vocab)
    n_v = len(vocab)
    modes = ad.tensor([[0.5, 0.2, 0.3]])
    p_vocab = np.zeros((1, n_v))
    w = vocab.id("what")  # not a context token
    p_vocab[0, w] = 0.1
    p_vocab[0, vocab.id("?")] = 0.9
    p_ctx = np.full((1, len(src.groups)), 1.0 / len(src.groups))
    out = dec.mix_distributions(modes, ad.tensor(p_vocab), ad.tensor(p_ctx), src)
    assert out.data[0, w] == pytest.approx(0.05)
    assert out.data[0, SUBJ] == pytest.approx(0.2)


def test_mix_pure_generation_mode():
    vocab = make_vocab()
    src = dec.CopySource(make_contexts(vocab), vocab)
    rng = np.random.default_rng(17)
    p_vocab = rng.random((2, len(vocab)))
    p_vocab /= p_vocab.sum(axis=1, keepdims=True)
    p_ctx = rng.random((2, len(src.groups)))
    p_ctx /= p_ctx.sum(axis=1, keepdims=True)
    out = dec.mix_distributions(
        ad.tensor([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        ad.tensor(p_vocab), ad.tensor(p_ctx), src,
    )
    assert np.array_equal(out.data[:, : len(vocab)], p_vocab)
    assert np.all(out.data[:, len(vocab):] == 0.0)


def test_extended_distribution_sums_to_one():
    m = make_model(seed=18)
    example = make_example(m.vocab)
    for seed in range(20):
        m2 = make_model(seed=seed)
        result = m2.forward_example(example)
        sums = result.distributions.data.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(result.distributions.data >= 0)


def test_shared_token_accumulates_generation_and_copy_mass():
    m = make_model(seed=19)
    example = make_example(m.vocab)
    result = m.forward_example(example)
    src = result.copy_source
    t = 0
    city = m.vocab.id("city")
    g = src.group_tokens.index("city")
    modes = result.modes.data[t]
    states_probe = result.distributions.data[t, city]
    # recompute the two contributions independently
    fact_enc = m.encode_fact(example)
    input_ids = list(example.question[:-1])
    states = dec.decode_states(input_ids, fact_enc.h_f, m.decoder)
    pv = dec.vocab_distribution(states, m.decoder).data[t, city]
    pc = dec.context_copy_distribution(
        states, fact_enc.context_rows, src, m.decoder
    ).data[t, g]
    assert states_probe == pytest.approx(modes[0] * pv + modes[2] * pc, abs=1e-12)


def test_teacher_forced_distributions_feed_objective_unchanged(monkeypatch):
    from kbqgen import trainer as tr

    m = make_model(seed=20)
    example = make_example(m.vocab)
    result = m.forward_example(example)
    before = result.distributions.data.tobytes()
    # the training loss reads exactly these distributions
    monkeypatch.setattr(m, "forward_example", lambda ex, drop=None: result)
    total, breakdown = tr.example_loss(m, example, tr.TrainConfig(lam=0.2))
    assert result.distributions.data.tobytes() == before
    assert breakdown.argmin_pair is not None
    assert np.isfinite(breakdown.total_loss)


SHORT_QUESTION = ("which", "city", "?")
# 16 decoder rows: the masked self-attention sums rows of 8 or more keys
# pairwise, where the recorded graph and the one-row step round differently
LONG_QUESTION = ("what", "old", "city", "is", "located", "in", "which", "city", "of",
                 "old", "what", "is", "in", "old", "?")


@pytest.mark.parametrize("layers, use_kb_copy, use_ctx_copy, question", [
    pytest.param(1, True, True, SHORT_QUESTION, id="1"),
    pytest.param(3, True, True, SHORT_QUESTION, id="3"),
    pytest.param(1, False, True, SHORT_QUESTION, id="1-no-kb-copy"),
    pytest.param(1, True, False, SHORT_QUESTION, id="1-no-ctx-copy"),
    pytest.param(2, True, True, LONG_QUESTION, id="2-long-question"),
])
def test_incremental_generator_matches_recorded_graph(layers, use_kb_copy, use_ctx_copy,
                                                      question):
    # feeding the gold prefix step by step reproduces the teacher-forced
    # distributions computed in one recorded pass; with several layers a
    # K/V cache read from the wrong layer would show
    tol = {"rtol": 1e-10, "atol": 1e-12}
    for seed in (0, 3, 9):
        m = make_model(seed=seed, layers=layers, use_kb_copy=use_kb_copy,
                       use_ctx_copy=use_ctx_copy)
        example = make_example(m.vocab, question=question)
        result = m.forward_example(example)
        fact_enc = m.encode_fact(example)
        input_ids = list(example.question[:-1])
        states = dec.decode_states(input_ids, fact_enc.h_f, m.decoder)
        p_vocab = dec.vocab_distribution(states, m.decoder).data
        p_ctx = dec.context_copy_distribution(
            states, fact_enc.context_rows, result.copy_source, m.decoder
        ).data
        gen = dec.Generator(m, example)
        for t, token_id in enumerate(input_ids):
            dist, modes, vocab_row, ctx_row = gen.step(token_id)
            np.testing.assert_allclose(dist, result.distributions.data[t], **tol)
            np.testing.assert_allclose(modes, result.modes.data[t], **tol)
            np.testing.assert_allclose(vocab_row, p_vocab[t], **tol)
            np.testing.assert_allclose(ctx_row, p_ctx[t], **tol)


def test_greedy_decode_deterministic_and_bounded():
    m = make_model(seed=21)
    example = make_example(m.vocab)
    tokens1, modes1 = dec.greedy_decode(m, example, max_len=10)
    tokens2, modes2 = dec.greedy_decode(m, example, max_len=10)
    assert tokens1 == tokens2 and modes1 == modes2
    assert len(tokens1) <= 10
    assert len(modes1) == len(tokens1)


def test_beam_width_one_equals_greedy():
    # 100 random instances: vary parameters and context composition
    words = ["which", "city", "is", "located", "in", "?", "what", "of", "old",
             "rarity", "oddity", "river", "part"]
    rng = np.random.default_rng(7)
    for trial in range(100):
        m = make_model(seed=1000 + trial)
        picks = rng.choice(words, size=5, replace=True).tolist()
        example = make_example(m.vocab, question=("which", "city", "?"))
        example = Example(
            fact=example.fact,
            contexts=make_contexts(m.vocab, words=tuple(picks)),
            question=example.question,
            question_words=example.question_words,
            raw_question_words=example.raw_question_words,
            answer_type_words=tuple(sorted(set(picks[4:]))),
            subject_span=None,
        )
        greedy_tokens, greedy_modes = dec.greedy_decode(m, example, max_len=8)
        beam_tokens, beam_modes = dec.beam_decode(m, example, beam_width=1, max_len=8)
        assert beam_tokens == greedy_tokens
        assert beam_modes == greedy_modes


def test_oov_context_token_can_be_emitted():
    m = make_model(seed=22)
    example = make_example(m.vocab)
    src = dec.CopySource(example.contexts, m.vocab)
    rare_ext = src.extended_id("rarity")
    assert rare_ext >= len(m.vocab)
    assert dec._feedback_id(rare_ext, len(m.vocab)) == UNK
    assert src.extended_token(rare_ext) == "rarity"


def test_surface_realize_expands_subject():
    out = dec.surface_realize(
        ["which", "city", "is", "<subj>", "located", "in", "?"],
        ("statue", "of", "liberty"),
    )
    assert out == "which city is statue of liberty located in ?"


def test_surface_realize_identity_without_placeholder():
    assert dec.surface_realize(["what", "is", "this", "?"], ("x",)) == "what is this ?"
