import math
from random import Random
from types import SimpleNamespace

import pytest

from kbqgen import metrics as mt


def toks(*sentences):
    return [s.split() for s in sentences]


def test_bleu_identity_is_100():
    cands = toks("which city is it ?", "what is the name ?")
    assert mt.bleu4(cands, cands) == pytest.approx(100.0)


def test_bleu_disjoint_is_0():
    assert mt.bleu4(toks("a b c"), toks("x y z")) == 0.0


def test_bleu_hand_case():
    # "the cat sat" vs "the cat sat down": p1=p2=p3=1, smoothed p4=1,
    # BP=exp(1-4/3); hand value = 100*exp(-1/3)
    value = mt.bleu4(toks("the cat sat"), toks("the cat sat down"))
    assert value == pytest.approx(100.0 * math.exp(-1.0 / 3.0), abs=5e-5)
    assert round(value, 4) == 71.6531


def test_bleu_pools_counts_across_corpus():
    cands = toks("the cat sat", "a dog ran fast today")
    refs = toks("the cat sat down", "a dog ran fast today")
    pooled = mt.bleu4(cands, refs)
    assert 0 < pooled < 100
    # order of examples must not matter
    assert pooled == mt.bleu4(cands[::-1], refs[::-1])


def test_rouge_identity_and_disjoint():
    cands = toks("which city is it ?")
    assert mt.rouge_l(cands, cands) == pytest.approx(100.0)
    assert mt.rouge_l(toks("a b"), toks("c d")) == 0.0


def test_rouge_hand_case_brute_force():
    # "a b c" vs "a c b": brute-force LCS over all subsequences gives 2,
    # P = R = 2/3, so F = 2/3 for any beta
    def subsequences(seq):
        out = [()]
        for x in seq:
            out += [s + (x,) for s in out]
        return set(out)

    cand, ref = ["a", "b", "c"], ["a", "c", "b"]
    common = subsequences(tuple(cand)) & subsequences(tuple(ref))
    assert max(len(s) for s in common) == 2
    assert mt.rouge_l([cand], [ref]) == pytest.approx(100.0 * 2.0 / 3.0)


def test_meteor_identical_pair():
    cand = "which city is the old tower located in ?".split()
    m = len(cand)
    expected = 100.0 * (1.0 - 0.5 * (1.0 / m) ** 3)
    assert mt.meteor_lite([cand], [cand]) == pytest.approx(expected, abs=1e-9)


def test_meteor_zero_matches():
    assert mt.meteor_lite(toks("aaa bbb"), toks("ccc ddd")) == 0.0


def test_meteor_stem_match():
    # "located" vs "locates": one suffix strip each -> "locat" == "locat"
    score = mt.meteor_lite(toks("it locates here"), toks("it located here"))
    assert score > 0.0
    m, chunks = 3, 1
    # all three tokens align contiguously despite the stem match
    expected = 100.0 * (1.0 - 0.5 * (chunks / m) ** 3)
    assert score == pytest.approx(expected, abs=1e-9)


def test_meteor_penalty_bounds():
    rng = Random(0)
    words = ["w%d" % i for i in range(12)]
    for _ in range(100):
        cand = [rng.choice(words) for _ in range(rng.randint(1, 10))]
        ref = [rng.choice(words) for _ in range(rng.randint(1, 10))]
        score = mt.meteor_lite([cand], [ref])
        assert 0.0 <= score <= 100.0


def test_answer_coverage_ratio():
    cands = toks("which city ?", "what is it ?", "the river runs", "who is he ?")
    answers = [{"city"}, {"city"}, {"river"}, {"person"}]
    assert mt.answer_coverage(cands, answers) == pytest.approx(50.0)


def test_answer_coverage_realized_question():
    cand = "which city is statue of liberty located in".split()
    assert mt.answer_coverage([cand], [{"city", "town"}]) == 100.0


def test_answer_coverage_exact_integer_ratio():
    cands = [["a"]] * 3
    answers = [{"a"}, {"b"}, {"c"}]
    assert mt.answer_coverage(cands, answers) == 100.0 * 1 / 3


def test_metrics_permutation_invariant():
    cands = toks("the cat sat", "a dog ran", "which city is it ?")
    refs = toks("the cat sat down", "a dog runs", "which town is it ?")
    answers = [{"cat"}, {"dog"}, {"city"}]
    perm = [2, 0, 1]
    shuffled = lambda xs: [xs[i] for i in perm]
    assert mt.bleu4(cands, refs) == pytest.approx(mt.bleu4(shuffled(cands), shuffled(refs)))
    assert mt.rouge_l(cands, refs) == pytest.approx(mt.rouge_l(shuffled(cands), shuffled(refs)))
    assert mt.meteor_lite(cands, refs) == pytest.approx(
        mt.meteor_lite(shuffled(cands), shuffled(refs))
    )
    assert mt.answer_coverage(cands, answers) == mt.answer_coverage(
        shuffled(cands), shuffled(answers)
    )


def scored_example(written, substituted, answers):
    """The fields of a corpus Example that metrics.evaluate may read."""
    return SimpleNamespace(raw_question_words=tuple(written.split()),
                           question_words=tuple(substituted.split()), answer_type_words=answers)


def test_evaluate_report_and_lines():
    cands = toks("which city is it ?", "what is that ?")
    examples = [scored_example("which city is it ?", "which city is <subj> ?", ("city",)),
                scored_example("what is this ?", "what is <subj> ?", ("thing",))]
    report = mt.evaluate(cands, examples)
    assert report.records[0].reference == "which city is it ?"  # the question as written
    assert report.bleu4 <= 100.0
    assert report.records[0].covered and not report.records[1].covered
    assert report.records[0].matched_answer_word == "city"
    lines = mt.report_lines(report)
    assert lines[0].startswith("bleu4\t")
    assert len(lines) == 4
    table = mt.report_table(report)
    assert "BLEU-4" in table and "Answer coverage" in table


def test_annotation_sample_is_seeded(tmp_path):
    rows = [(f"e{i} p0 e9", "located in", f"question {i} ?") for i in range(30)]
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    n1 = mt.export_annotation_sample(rows, 10, seed=4, path=p1)
    n2 = mt.export_annotation_sample(rows, 10, seed=4, path=p2)
    assert n1 == n2 == 10
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0].split("\t")
    assert header == ["fact", "predicate_context", "question", "predicate_match(0/1)", "naturalness(0-5)"]
