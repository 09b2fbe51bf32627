import numpy as np
import pytest

from kbqgen import autodiff as ad
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
    assert not a.pretrained


def test_init_random_mean_near_zero():
    # law of large numbers over >= 10^4 entries
    emb = kb.init_random(200, 64, seed=1)
    assert abs(emb.table.mean()) < 0.01


def test_zero_epochs_matches_init():
    vocab, triples = chain_kb(6, 1)
    emb = kb.pretrain_transe(triples, vocab, d=8, epochs=0, seed=4)
    assert np.array_equal(emb.table, kb.init_random(len(vocab), 8, seed=4).table)
    assert not emb.pretrained


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


def bare_kb_model(table):
    """A model whose fact rows are the gathered KB rows, without fusion."""
    kbvocab = KBVocab([f"e{i}" for i in range(5)], ["p0"])
    return Model(Vocab(["w"]), kbvocab, d=4, heads=2, layers=1, kb_table=table, use_fusion=False)


def kb_example(fact):
    ids = (Vocab(["w"]).id("w"),)
    return Example(
        fact=fact, contexts=ContextSet(("w",), ("w",), ("w",), ids, ids, ids),
        question=(BOS, EOS), question_words=(), raw_question_words=(),
        answer_type_words=(), subject_span=None,
    )


def test_lookup_rows_and_gradients():
    emb = kb.init_random(6, 4, seed=0)
    model = bare_kb_model(emb.table)
    h_f = model.encode_fact(kb_example(Fact(0, 0, 0))).h_f
    e_s, e_p, e_o = h_f.data
    assert np.array_equal(e_s, e_p) and np.array_equal(e_s, e_o)
    assert np.array_equal(e_s, emb.table[0])
    model.zero_grads()
    ad.backward(ad.sum_all(h_f))
    # the gather scatter-adds one unit per occurrence into the table
    assert np.allclose(model.kb_emb.grad[0], 3.0)
    assert np.allclose(model.kb_emb.grad[1:], 0.0)


def test_lookup_is_pure():
    emb = kb.init_random(6, 4, seed=0)
    table = emb.table.copy()
    model = bare_kb_model(emb.table)
    before = model.kb_emb.value.data.copy()
    model.encode_fact(kb_example(Fact(1, 5, 2)))
    model.encode_fact(kb_example(Fact(1, 5, 2)))
    assert np.array_equal(model.kb_emb.value.data, before)
    assert np.array_equal(emb.table, table)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    vocab, triples = chain_kb(8, 2)
    emb = kb.pretrain_transe(triples, vocab, d=8, epochs=2, seed=11)
    path = tmp_path / "kb.ckpt"
    kb.save_checkpoint(emb, path)
    loaded = kb.load_checkpoint(path)
    assert loaded.pretrained == emb.pretrained
    assert np.array_equal(loaded.table, emb.table)
