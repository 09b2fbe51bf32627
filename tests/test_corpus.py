import dataclasses
import gc
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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


def _load_tiny(tmp_path, *questions, fact="e0\tp0\te2"):
    """load_dataset over the tiny KB, one train row of fact per question, every token kept."""
    _tiny_kb(tmp_path)
    rows = "".join(f"{fact}\t{q}\n" for q in questions)
    (tmp_path / "facts.train.tsv").write_text(rows, encoding="utf-8")
    return cp.load_dataset(tmp_path, min_freq=1)


def test_context_set_includes_range_and_topic(tmp_path):
    (ex,) = _load_tiny(tmp_path, "where is it ?").examples("train")
    ctx = ex.contexts
    # predicate p0 has no DS patterns, so domain/range/topic still cover it
    assert set(ctx.predicate_words) >= {"location", "containedby"}
    assert ctx.segment_ids == (cp.SEG_SUBJECT,) * len(ctx.subject_words) + (
        cp.SEG_PREDICATE,
    ) * len(ctx.predicate_words) + (cp.SEG_OBJECT,) * len(ctx.object_words)


def test_context_set_merges_entity_types(tmp_path):
    (ex,) = _load_tiny(tmp_path, "where is it ?", fact="e1\tp0\te2").examples("train")
    # broad "administrative region" combined with the refined "us state"
    assert set(ex.contexts.subject_words) == {"administrative", "region", "us", "state"}


def test_context_set_dedups_identical_types(tmp_path):
    (tmp_path / "entities.tsv").write_text("e0\ta name\tcity\tcity\n", encoding="utf-8")
    (tmp_path / "predicates.tsv").write_text("p0\td\tr\tt\t\n", encoding="utf-8")
    (tmp_path / "facts.train.tsv").write_text("e0\tp0\te0\twhere is it ?\n", encoding="utf-8")
    (ex,) = cp.load_dataset(tmp_path).examples("train")
    assert ex.contexts.subject_words == ex.contexts.object_words == ("city",)


def test_load_dataset_substitutes_subject(tmp_path):
    dataset = _load_tiny(tmp_path, "which city is statue of liberty located in?")
    (ex,) = dataset.examples("train")
    assert ex.question_words == ("which", "city", "is", "<subj>", "located", "in", "?")
    assert ex.raw_question_words == ("which", "city", "is", "statue", "of", "liberty", "located", "in", "?")
    assert ex.subject_span == (3, 3)
    assert ex.question == (cp.BOS, *dataset.vocab.ids(ex.question_words), cp.EOS)
    assert cp.UNK not in ex.question
    assert ex.contexts.object_words == ("place", "city")
    assert ex.answer_type_words == ("city", "place")


def test_load_dataset_subject_absent(tmp_path):
    (ex,) = _load_tiny(tmp_path, "where is it ?").examples("train")
    assert ex.question_words == ex.raw_question_words == ("where", "is", "it", "?")
    assert ex.subject_span is None


def test_load_dataset_refuses_a_whitespace_question(tmp_path):
    with pytest.raises(cp.IngestionError) as exc:
        _load_tiny(tmp_path, "where is it ?", " \u3000 ")
    assert str(exc.value) == f"{tmp_path / 'facts.train.tsv'}:2: empty question"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("refused", [False, True])
def test_load_dataset_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled, refused):
    _tiny_kb(tmp_path)
    rows = "e0\tp0\te2\twhere is it ?\n" + ("e0\tp0\te2\twhere\tis it ?\n" if refused else "")
    (tmp_path / "facts.train.tsv").write_text(rows, encoding="utf-8")
    seen = []
    tokenize = cp.tokenize
    monkeypatch.setattr(cp, "tokenize", lambda text: seen.append(gc.isenabled()) or tokenize(text))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if refused:  # the second train row has five columns
            with pytest.raises(cp.IngestionError, match=":2: expected 4 tab-separated columns, got 5"):
                cp.load_dataset(tmp_path)
        else:
            cp.load_dataset(tmp_path)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)
    assert after is enabled


def test_records_are_slotted_frozen_values(tmp_path):
    dataset = _load_tiny(tmp_path, "which city is statue of liberty located in?")
    (ex,) = dataset.examples("train")
    for rec in (ex.fact, dataset.predicates["p1"], dataset.entities["e0"], ex.contexts, ex):
        assert not hasattr(rec, "__dict__"), type(rec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, dataclasses.fields(rec)[0].name, None)
        twin = dataclasses.replace(rec)
        assert twin is not rec and twin == rec and hash(twin) == hash(rec), type(rec)
    # a Fact rebuilt from its ids finds the ContextSet that its first example keyed
    assert {ex.fact: ex.contexts}[cp.Fact(0, 3, 2)] is ex.contexts
    assert dataclasses.replace(ex.fact, object=1) != ex.fact


def test_substitute_subject_first_occurrence_only():
    tokens = ["the", "old", "star", "near", "old", "star", "?"]
    out, span = cp.substitute_subject(tokens, ("old", "star"))
    assert out == ("the", "<subj>", "near", "old", "star", "?")
    assert span == (1, 2)


def naive_substitute(tokens, name):
    """The leftmost exact match of name in tokens, tried at every start position."""
    tokens, name = tuple(tokens), tuple(name)
    for start in range(len(tokens) - len(name) + 1):
        if name and tokens[start:start + len(name)] == name:
            return tokens[:start] + ("<subj>",) + tokens[start + len(name):], (start, len(name))
    return tokens, None


_WORDS = st.sampled_from(["a", "b", "c"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_WORDS, max_size=10), st.lists(_WORDS, max_size=4))
@example(["a", "a", "b", "a", "a", "b", "a", "a", "c"], ["a", "a", "c"])  # repeated partial matches
@example(["b", "c", "a", "b"], ["a", "b"])  # the name at the end
@example(["a", "b"], ["a", "b", "c"])  # a name longer than the question
@example(["a"], [])
def test_substitute_subject_equals_a_scan_of_every_start(tokens, name):
    assert cp.substitute_subject(tokens, name) == naive_substitute(tokens, name)
    assert cp.substitute_subject(tuple(tokens), tuple(name)) == naive_substitute(tokens, name)


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


def reference_load(data_dir, diversified, min_freq):
    """(vocab tokens, splits) by the per-example algorithm: each question
    tokenized and substituted for the vocabulary, then again per example,
    and all three contexts rebuilt for every example."""
    data_dir = Path(data_dir)
    entities, predicates, kbvocab = cp.load_kb(data_dir / "entities.tsv", data_dir / "predicates.tsv")
    rows = {split: cp.load_facts(data_dir / f"facts.{split}.tsv", kbvocab)
            for split in ("train", "valid", "test") if (data_dir / f"facts.{split}.tsv").exists()}

    def name(fact):
        return entities[kbvocab.token(fact.subject)].name

    counts = {}
    for fact, question in rows["train"]:
        for t in naive_substitute(cp.tokenize(question), name(fact))[0]:
            counts[t] = counts.get(t, 0) + 1
    vocab = cp.Vocab(sorted(t for t, c in counts.items() if c >= min_freq and t not in cp.SPECIAL_TOKENS))

    def context(words, fallback):
        words = tuple(dict.fromkeys(words)) or fallback
        return words[:cp.CONTEXT_CAP], tuple(vocab.id(t) for t in words[:cp.CONTEXT_CAP])

    def example(fact, question):
        s, p, o = (kbvocab.token(i) for i in (fact.subject, fact.predicate, fact.object))
        s_rec, p_rec, o_rec = entities[s], predicates[p], entities[o]
        patterns = tuple(t for pat in p_rec.ds_patterns for t in pat)
        if diversified:
            subj = context(s_rec.frequent_type + s_rec.notable_type, ())
            pred = context(patterns + p_rec.domain_words + p_rec.range_words + p_rec.topic_words, ())
            obj = context(o_rec.frequent_type + o_rec.notable_type, ())
        else:
            subj, pred, obj = (context(words, ("<unk>",))
                               for words in (s_rec.frequent_type, patterns, o_rec.frequent_type))
        raw = tuple(cp.tokenize(question))
        subst, span = naive_substitute(raw, name(fact))
        contexts = cp.ContextSet(subj[0], pred[0], obj[0], subj[1], pred[1], obj[1])
        return cp.Example(fact, contexts, (cp.BOS,) + tuple(vocab.id(t) for t in subst) + (cp.EOS,),
                          subst, raw, tuple(sorted(set(obj[0]))), span)

    return vocab.tokens, {split: [example(*row) for row in split_rows] for split, split_rows in rows.items()}


def _hand_corpus(root):
    """Shared entity types, a subject named twice, a partial name match, OOV
    context words, a question without its subject and a fact in two splits."""
    files = {
        "entities.tsv": "e0\told star\tcity\tcity\n"
                        "e1\tred lake\tcity\tlake\n"
                        "e2\told\tmetropolis\tcity\n"
                        "e3\tstar\tsettlement\tcity\n",
        "predicates.tsv": "p0\tlocated\tin\tplace\tx is in y;located in\n"
                          "p1\tnear\tcontainment\tvicinity\t\n",
        "facts.train.tsv": "e0\tp0\te1\twhich old star is old star in ?\n"
                           "e1\tp1\te0\tis red river near red lake ?\n"
                           "e2\tp0\te3\twhere is old ?\n"
                           "e0\tp1\te2\tis old star near old ?\n"
                           "e3\tp1\te0\twhat is near it ?\n",
        "facts.valid.tsv": "e0\tp0\te1\twhere is the old star ?\n",
        "facts.test.tsv": "e1\tp1\te0\tred red lake lake ?\n"
                          "e3\tp0\te2\tstar star old star ?\n",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize("diversified", [True, False])
@pytest.mark.parametrize("min_freq", [1, 2])
@pytest.mark.parametrize("which", ["synth", "hand-built"])
def test_load_dataset_equals_the_per_example_algorithm(tmp_path, which, diversified, min_freq):
    if which == "synth":
        cp.write_corpus(cp.synth_corpus(3, n_entities=24, n_predicates=8, n_facts=80), tmp_path)
    else:
        _hand_corpus(tmp_path)
    dataset = cp.load_dataset(tmp_path, diversified=diversified, min_freq=min_freq)
    tokens, splits = reference_load(tmp_path, diversified, min_freq)
    assert dataset.vocab.tokens == tokens
    assert list(dataset.splits) == list(splits)
    for split, examples in splits.items():
        assert dataset.examples(split) == examples
    if which == "hand-built":
        assert "metropolis" not in dataset.vocab
        # one fact in two splits shares its contexts; one entity its context words
        train, valid = dataset.examples("train"), dataset.examples("valid")
        assert valid[0].contexts is train[0].contexts
        assert train[0].contexts.subject_words is train[3].contexts.subject_words
