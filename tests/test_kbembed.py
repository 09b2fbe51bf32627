import numpy as np
import pytest

from kbqgen import autodiff as ad
from kbqgen import corpus
from kbqgen import encoder as enc
from kbqgen import kbembed as kb
from kbqgen.corpus import BOS, EOS, ContextSet, Example, Fact, KBVocab, Vocab
from kbqgen.model import Model
from kbqgen.textckpt import ConfigError


def chain_kb(n_entities=20, n_predicates=3):
    """Toy chain: p0 steps +1, p1 steps -1, p2 steps +2 around a ring."""
    vocab = KBVocab([f"e{i}" for i in range(n_entities)], [f"p{j}" for j in range(n_predicates)])
    steps = [1, -1, 2]
    triples = []
    for j, step in enumerate(steps[:n_predicates]):
        for i in range(n_entities):
            triples.append((i, n_entities + j, (i + step) % n_entities))
    return vocab, triples


def transe_distance(table, s, p, o):
    return float(np.linalg.norm(table[s] + table[p] - table[o]))


def test_init_random_deterministic_and_shaped():
    a = kb.init_random(5, 4, seed=9)
    b = kb.init_random(5, 4, seed=9)
    assert a.table.shape == (5, 4)
    assert np.array_equal(a.table, b.table)


def test_init_random_mean_near_zero():
    # law of large numbers over >= 10^4 entries
    emb = kb.init_random(200, 64, seed=1)
    assert abs(emb.table.mean()) < 0.01


def test_zero_epochs_matches_init():
    vocab, triples = chain_kb(6, 1)
    emb = kb.pretrain_transe(triples, vocab, d=8, epochs=0, seed=4)
    assert np.array_equal(emb.table, kb.init_random(len(vocab), 8, seed=4).table)


def test_margin_must_be_positive():
    vocab, triples = chain_kb(6, 1)
    with pytest.raises(ConfigError):
        kb.pretrain_transe(triples, vocab, d=8, margin=0.0, seed=0)


def test_single_triple_is_driven_under_margin():
    vocab = KBVocab(["e0", "e1", "e2"], ["p0"])
    triples = [(0, 3, 1)]
    emb = kb.pretrain_transe(triples, vocab, d=8, margin=1.0, lr=0.05, epochs=300, seed=2)
    assert transe_distance(emb.table, 0, 3, 1) < 1.0
    # the trainer is its own oracle: loss must have decreased overall
    assert emb.epoch_losses[-1] < emb.epoch_losses[0]


def test_epoch_loss_non_increasing_window():
    vocab, triples = chain_kb()
    emb = kb.pretrain_transe(triples, vocab, d=16, margin=1.0, lr=0.02, epochs=12, seed=3)
    window = emb.epoch_losses[-11:]
    for prev, nxt in zip(window, window[1:]):
        assert nxt <= prev * 1.05
    assert window[-1] <= window[0]


def test_entity_rows_unit_norm_after_training():
    vocab, triples = chain_kb()
    emb = kb.pretrain_transe(triples, vocab, d=16, epochs=3, seed=5)
    norms = np.linalg.norm(emb.table[: vocab.n_entities], axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_filtered_mean_rank_beats_random_baseline():
    vocab, triples = chain_kb(20, 3)
    emb = kb.pretrain_transe(triples, vocab, d=16, margin=1.0, lr=0.02, epochs=60, seed=7)
    true_objects = {}
    for s, p, o in triples:
        true_objects.setdefault((s, p), set()).add(o)
    # brute-force oracle: rank the gold object among all entities by distance
    ranks = []
    for s, p, o in triples:
        d_true = transe_distance(emb.table, s, p, o)
        rank = 1
        for cand in range(vocab.n_entities):
            if cand == o or cand in true_objects[(s, p)]:
                continue
            if transe_distance(emb.table, s, p, cand) < d_true:
                rank += 1
        ranks.append(rank)
    assert float(np.mean(ranks)) < vocab.n_entities / 2


def reference_transe(triples, kbvocab, d, margin=1.0, lr=0.01, epochs=50, neg_per_pos=1, seed=0):
    """The row-at-a-time TransE loop with np.linalg.norm, kept as the bit-for-bit reference."""
    triples = list(triples)
    n_entities = kbvocab.n_entities
    table = kb.init_random(len(kbvocab), d, seed).table
    rng = np.random.default_rng(seed * 2_654_435_761 % 2**63 + 1)

    def corrupt(s, o):
        s_neg, o_neg = s, o
        if rng.random() < 0.5:
            s_neg = int(rng.integers(n_entities))
            while s_neg == s:
                s_neg = int(rng.integers(n_entities))
        else:
            o_neg = int(rng.integers(n_entities))
            while o_neg == o:
                o_neg = int(rng.integers(n_entities))
        return s_neg, o_neg

    probes = [corrupt(s, o) for s, p, o in triples]

    def probe_loss():
        total = 0.0
        for (s, p, o), (s_neg, o_neg) in zip(triples, probes):
            d_pos = np.linalg.norm(table[s] + table[p] - table[o])
            d_neg = np.linalg.norm(table[s_neg] + table[p] - table[o_neg])
            total += max(0.0, margin + d_pos - d_neg)
        return total / len(triples)

    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(triples))
        for idx in order:
            s, p, o = triples[idx]
            for _neg in range(neg_per_pos):
                s_neg, o_neg = corrupt(s, o)
                diff_pos = table[s] + table[p] - table[o]
                diff_neg = table[s_neg] + table[p] - table[o_neg]
                d_pos = np.linalg.norm(diff_pos)
                d_neg = np.linalg.norm(diff_neg)
                if margin + d_pos - d_neg > 0:
                    u = diff_pos / max(d_pos, 1e-12)
                    v = diff_neg / max(d_neg, 1e-12)
                    table[s] -= lr * u
                    table[o] += lr * u
                    table[s_neg] += lr * v
                    table[o_neg] -= lr * v
                    table[p] -= lr * (u - v)
        norms = np.linalg.norm(table[:n_entities], axis=1, keepdims=True)
        table[:n_entities] /= np.maximum(norms, 1e-12)
        losses.append(probe_loss())
    return table, tuple(losses)


def desk_train_kb(tmp_path):
    """The KB and every split's facts of the desk-train benchmark corpus."""
    corpus.write_corpus(corpus.synth_corpus(1, 24, 8, 220), tmp_path)
    dataset = corpus.load_dataset(tmp_path)
    triples = [(ex.fact.subject, ex.fact.predicate, ex.fact.object)
               for split in sorted(dataset.splits) for ex in dataset.splits[split]]
    return dataset.kbvocab, triples


def self_loop_kb():
    vocab, triples = chain_kb(6, 2)
    return vocab, triples + [(2, 6, 2), (4, 7, 4)]


def two_entity_kb():
    return KBVocab(["e0", "e1"], ["p0", "p1"]), [(0, 2, 1), (1, 2, 0), (0, 3, 0)]


@pytest.mark.parametrize("make_kb, kwargs", [
    pytest.param(chain_kb, dict(d=16, lr=0.02, epochs=12, seed=0), id="chain-seed-0"),
    pytest.param(chain_kb, dict(d=16, lr=0.02, epochs=12, seed=1), id="chain-seed-1"),
    pytest.param(chain_kb, dict(d=16, lr=0.02, epochs=12, seed=2), id="chain-seed-2"),
    pytest.param(chain_kb, dict(d=16, epochs=8, neg_per_pos=3, seed=4), id="neg-per-pos-3"),
    pytest.param(self_loop_kb, dict(d=8, lr=0.05, epochs=20, seed=5), id="self-loop"),
    pytest.param(two_entity_kb, dict(d=4, lr=0.05, epochs=30, neg_per_pos=2, seed=6), id="two-entities"),
    pytest.param(desk_train_kb, dict(d=32, epochs=40, seed=1), id="desk-train"),
])
def test_pretrain_transe_is_bit_identical_to_the_reference(tmp_path, make_kb, kwargs):
    vocab, triples = make_kb(tmp_path) if make_kb is desk_train_kb else make_kb()
    table, losses = reference_transe(triples, vocab, **kwargs)
    emb = kb.pretrain_transe(triples, vocab, **kwargs)
    assert np.array_equal(emb.table, table)
    assert emb.epoch_losses == losses
    assert all(type(loss) is float for loss in emb.epoch_losses)


def kb_model(table):
    """A model over five entities and one predicate whose KB table is ``table``."""
    kbvocab = KBVocab([f"e{i}" for i in range(5)], ["p0"])
    model = Model(Vocab(["w"]), kbvocab, d=4, heads=2, layers=1)
    model.kb_emb.value.data[...] = table
    return model


def kb_example(fact):
    ids = (Vocab(["w"]).id("w"),)
    return Example(
        fact=fact, contexts=ContextSet(("w",), ("w",), ("w",), ids, ids, ids),
        question=(BOS, EOS), question_words=(), raw_question_words=(),
        answer_type_words=(), subject_span=None,
    )


def test_lookup_rows_and_gradients():
    emb = kb.init_random(6, 4, seed=0)
    model = kb_model(emb.table)
    out = model.encode_fact(kb_example(Fact(0, 0, 0)))
    # the fact rows are the looked-up table rows, each through the gated unit
    rows = ad.Tensor(emb.table[[0, 0, 0]], requires_grad=True)
    alone = enc.fuse(rows, ad.tensor(out.context_rows.data), [1, 1, 1], model.fusion)
    assert np.array_equal(out.h_f.data, alone.data)
    model.zero_grads()
    ad.backward(ad.sum_all(out.h_f))
    ad.backward(ad.sum_all(alone))
    # the lookup scatter-adds each occurrence's row gradient into the table
    assert np.allclose(model.kb_emb.grad[0], rows.grad.sum(axis=0), rtol=1e-12, atol=0)
    assert np.array_equal(model.kb_emb.grad[1:], np.zeros((5, 4)))


def test_lookup_is_pure():
    emb = kb.init_random(6, 4, seed=0)
    table = emb.table.copy()
    model = kb_model(emb.table)
    before = model.kb_emb.value.data.copy()
    model.encode_fact(kb_example(Fact(1, 5, 2)))
    model.encode_fact(kb_example(Fact(1, 5, 2)))
    assert np.array_equal(model.kb_emb.value.data, before)
    assert np.array_equal(emb.table, table)
