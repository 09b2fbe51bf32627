import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbqgen import corpus as cp
from kbqgen.textckpt import ConfigError


def test_tokenize_detaches_punctuation():
    assert cp.tokenize("Which city?") == ["which", "city", "?"]


def test_tokenize_empty():
    assert cp.tokenize("") == []


def test_tokenize_hyphen_and_clitic():
    # rule applied by hand: case-fold, whitespace split, punctuation detached,
    # clitic apostrophe kept with the following letters
    assert cp.tokenize("New-York's") == ["new", "-", "york", "'s"]


def _tiny_kb(tmp_path):
    (tmp_path / "entities.tsv").write_text(
        "e0\tstatue of liberty\tmonument\tsculpture\n"
        "e1\tnew york\tadministrative region\tus state\n"
        "e2\tnew york city\tplace\tcity\n",
        encoding="utf-8",
    )
    (tmp_path / "predicates.tsv").write_text(
        "p0\tlocation\tcontainedby\tlocation\t\n"
        "p1\tperson\tplace\tbirth\tX was born in Y\n",
        encoding="utf-8",
    )
    return cp.load_kb(tmp_path / "entities.tsv", tmp_path / "predicates.tsv")


def test_load_kb_assigns_dense_ids(tmp_path):
    entities, predicates, kbvocab = _tiny_kb(tmp_path)
    assert len(kbvocab) == 5
    assert kbvocab.n_entities == 3
    assert sorted(entities) == ["e0", "e1", "e2"]
    assert predicates["p1"].ds_patterns == (("x", "was", "born", "in", "y"),)
    assert kbvocab.token(kbvocab.id("p0")) == "p0"


def test_load_kb_duplicate_id_rejected(tmp_path):
    (tmp_path / "entities.tsv").write_text("e0\ta\tt\tt\ne0\tb\tt\tt\n", encoding="utf-8")
    (tmp_path / "predicates.tsv").write_text("p0\td\tr\tt\t\n", encoding="utf-8")
    with pytest.raises(cp.IngestionError, match="2"):
        cp.load_kb(tmp_path / "entities.tsv", tmp_path / "predicates.tsv")


def test_load_kb_missing_column_rejected(tmp_path):
    (tmp_path / "entities.tsv").write_text("e0\ta\tt\n", encoding="utf-8")
    (tmp_path / "predicates.tsv").write_text("p0\td\tr\tt\t\n", encoding="utf-8")
    with pytest.raises(cp.IngestionError, match="columns"):
        cp.load_kb(tmp_path / "entities.tsv", tmp_path / "predicates.tsv")


def test_context_set_includes_range_and_topic(tmp_path):
    entities, predicates, kbvocab = _tiny_kb(tmp_path)
    fact = cp.Fact(kbvocab.id("e0"), kbvocab.id("p0"), kbvocab.id("e2"))
    ctx = cp.build_context_set(fact, entities, predicates, kbvocab)
    # predicate p0 has no DS patterns, so domain/range/topic still cover it
    assert set(ctx.predicate_words) >= {"location", "containedby"}
    assert ctx.segment_ids == (cp.SEG_SUBJECT,) * len(ctx.subject_words) + (
        cp.SEG_PREDICATE,
    ) * len(ctx.predicate_words) + (cp.SEG_OBJECT,) * len(ctx.object_words)


def test_context_set_merges_entity_types(tmp_path):
    entities, predicates, kbvocab = _tiny_kb(tmp_path)
    fact = cp.Fact(kbvocab.id("e1"), kbvocab.id("p0"), kbvocab.id("e2"))
    ctx = cp.build_context_set(fact, entities, predicates, kbvocab)
    # broad "administrative region" combined with the refined "us state"
    assert set(ctx.subject_words) == {"administrative", "region", "us", "state"}


def test_context_set_dedups_identical_types(tmp_path):
    (tmp_path / "entities.tsv").write_text("e0\ta name\tcity\tcity\n", encoding="utf-8")
    (tmp_path / "predicates.tsv").write_text("p0\td\tr\tt\t\n", encoding="utf-8")
    entities, predicates, kbvocab = cp.load_kb(
        tmp_path / "entities.tsv", tmp_path / "predicates.tsv"
    )
    fact = cp.Fact(0, kbvocab.id("p0"), 0)
    ctx = cp.build_context_set(fact, entities, predicates, kbvocab)
    assert ctx.subject_words == ("city",)


def test_prepare_example_substitutes_subject(tmp_path):
    entities, predicates, kbvocab = _tiny_kb(tmp_path)
    vocab = cp.Vocab(["which", "city", "is", "located", "in", "?"])
    fact = cp.Fact(kbvocab.id("e0"), kbvocab.id("p0"), kbvocab.id("e2"))
    ex = cp.prepare_example(
        "which city is statue of liberty located in?", fact, entities, predicates, kbvocab, vocab
    )
    assert ex.question_words == ("which", "city", "is", "<subj>", "located", "in", "?")
    assert ex.subject_span == (3, 3)
    assert ex.question[0] == cp.BOS and ex.question[-1] == cp.EOS
    assert set(ex.answer_type_words) == set(ex.contexts.object_words)


def test_prepare_example_subject_absent(tmp_path):
    entities, predicates, kbvocab = _tiny_kb(tmp_path)
    vocab = cp.Vocab([])
    fact = cp.Fact(kbvocab.id("e0"), kbvocab.id("p0"), kbvocab.id("e2"))
    ex = cp.prepare_example("where is it ?", fact, entities, predicates, kbvocab, vocab)
    assert ex.question_words == ("where", "is", "it", "?")
    assert ex.subject_span is None


def test_substitute_subject_first_occurrence_only():
    tokens = ["the", "old", "star", "near", "old", "star", "?"]
    out, span = cp.substitute_subject(tokens, ("old", "star"))
    assert out == ("the", "<subj>", "near", "old", "star", "?")
    assert span == (1, 2)


def test_prepare_example_empty_question_rejected(tmp_path):
    entities, predicates, kbvocab = _tiny_kb(tmp_path)
    with pytest.raises(cp.IngestionError):
        cp.prepare_example("", cp.Fact(0, 3, 2), entities, predicates, kbvocab, cp.Vocab([]))


def test_vocab_reserves_specials_and_roundtrips():
    v = cp.Vocab(["city", "which"])
    assert v.tokens[:5] == cp.SPECIAL_TOKENS
    assert v.id("<subj>") == cp.SUBJ
    for i in range(len(v)):
        assert v.id(v.token(i)) == i
    assert v.id("never-seen") == cp.UNK


def test_vocab_min_freq():
    v = cp.Vocab.from_questions([["a", "b"], ["a", "c"]], min_freq=2)
    assert "a" in v
    assert "b" not in v and "c" not in v


def test_synth_corpus_deterministic(tmp_path):
    c1 = cp.synth_corpus(7, n_entities=20, n_predicates=6, n_facts=60)
    c2 = cp.synth_corpus(7, n_entities=20, n_predicates=6, n_facts=60)
    cp.write_corpus(c1, tmp_path / "a")
    cp.write_corpus(c2, tmp_path / "b")
    for name in ("entities.tsv", "predicates.tsv", "facts.train.tsv", "facts.valid.tsv", "facts.test.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_corpus_loads_and_covers_predicates(tmp_path):
    corpus = cp.synth_corpus(3, n_entities=24, n_predicates=8, n_facts=80)
    cp.write_corpus(corpus, tmp_path)
    ds = cp.load_dataset(tmp_path)
    train_preds = {ex.fact.predicate for ex in ds.examples("train")}
    assert len(train_preds) == 8
    for split in ("train", "valid", "test"):
        for ex in ds.examples(split):
            # the diversified predicate context is never empty
            assert len(ex.contexts.predicate_words) > 0
            assert set(ex.answer_type_words) <= set(ex.contexts.object_words)
            assert len(ex.question_words) >= 1
            # the synthetic questions always name the subject
            assert ex.subject_span is not None


def test_basic_contexts_fall_back_to_unk(tmp_path):
    corpus = cp.synth_corpus(3, n_entities=24, n_predicates=8, n_facts=80)
    cp.write_corpus(corpus, tmp_path)
    ds = cp.load_dataset(tmp_path, diversified=False)
    pattern_free = [
        ex for ex in ds.examples("train")
        if not ds.predicates[ds.kbvocab.token(ex.fact.predicate)].ds_patterns
    ]
    assert pattern_free, "synthetic corpus should include pattern-free predicates"
    for ex in pattern_free:
        assert ex.contexts.predicate_words == ("<unk>",)


_VALID_CORPUS = {
    "entities.tsv": [["e0", "old star", "city", "city"], ["e1", "red lake", "river", "lake"]],
    "predicates.tsv": [["p0", "located", "in", "place", "x in y"],
                       ["p1", "born", "", "origin", ""]],
    "facts.train.tsv": [["e0", "p0", "e1", "what is old star in ?"],
                        ["e1", "p1", "e0", "red lake ?"]],
    "facts.test.tsv": [["e1", "p0", "e0", "where is red lake ?"]],
}
_CELLS = st.sampled_from(["e0", "e1", "p0", "p1", "", " ", "city", "a;b"]) | st.text(max_size=6)


@st.composite
def corpus_files(draw):
    """A small valid corpus with a few random edits per file: a cell
    replaced by an id, word, empty or random text, a column dropped or
    added, a file left out, and stray bytes at a random offset in one file."""
    files = {}
    stray = draw(st.sampled_from([None, None, None, *_VALID_CORPUS]))
    for name, rows in _VALID_CORPUS.items():
        if name == "facts.test.tsv" and draw(st.booleans()):
            continue
        rows = [list(row) for row in rows]
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.sampled_from(rows))
            how = draw(st.sampled_from(["replace", "replace", "replace", "drop", "append"]))
            if how == "replace" and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(_CELLS)
            elif how == "drop" and row:
                row.pop()
            else:
                row.append(draw(_CELLS))
        data = "\n".join("\t".join(row) for row in rows).encode()
        if name == stray:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at:]
        files[name] = data
    return files


@settings(max_examples=300, deadline=None)
@given(corpus_files())
def test_fuzzed_tsv_files_load_or_fail_cleanly(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).write_bytes(data)
        try:
            dataset = cp.load_dataset(root, min_freq=1)
        except (cp.IngestionError, ConfigError):
            return
        n = dataset.kbvocab.n_entities
        for examples in dataset.splits.values():
            for ex in examples:
                assert ex.fact.subject < n and ex.fact.object < n <= ex.fact.predicate
