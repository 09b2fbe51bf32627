"""Corpus-level BLEU-4, ROUGE-L, METEOR-lite, answer coverage, exports.

All metrics take token lists (one candidate per reference, as in the
single-gold-question dataset) and return percentages in [0, 100]. METEOR
here is the dependency-free variant: exact matches, then one-suffix
stemming; no synonym resources, so scores are comparable only against this
module's own formula. ``evaluate`` scores a split's generations against the
split's own examples; every consumer of a split's scores goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random


@dataclass
class ExampleRecord:
    candidate: str
    reference: str
    covered: bool
    matched_answer_word: str | None


@dataclass
class EvalReport:
    bleu4: float
    rouge_l: float
    meteor: float
    answer_coverage: float
    records: list


def _ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu4(candidates, references):
    """Corpus BLEU-4: pooled modified n-gram precisions times brevity penalty.

    Higher-order precisions (n >= 2) get add-one smoothing when their
    matched count is zero; a zero unigram precision short-circuits to 0.
    """
    if len(candidates) != len(references):
        raise ValueError("candidate/reference count mismatch")
    if not candidates:
        return 0.0
    matched = [0] * 5
    total = [0] * 5
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            c_counts = _ngram_counts(cand, n)
            r_counts = _ngram_counts(ref, n)
            total[n] += max(len(cand) - n + 1, 0)
            matched[n] += sum(min(c, r_counts.get(g, 0)) for g, c in c_counts.items())
    if cand_len == 0 or matched[1] == 0:
        return 0.0
    log_sum = math.log(matched[1] / total[1])
    for n in range(2, 5):
        if matched[n] == 0:
            log_sum += math.log((matched[n] + 1) / (total[n] + 1))
        else:
            log_sum += math.log(matched[n] / total[n])
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum / 4.0)


def _lcs_length(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _mean_score(score, candidates, references):
    """100 times the mean of score(cand, ref) over aligned lists; 0.0 for none."""
    if len(candidates) != len(references):
        raise ValueError("candidate/reference count mismatch")
    if not candidates:
        return 0.0
    scores = [score(list(cand), list(ref)) for cand, ref in zip(candidates, references)]
    return 100.0 * sum(scores) / len(scores)


def rouge_l(candidates, references, beta=1.2):
    """Mean per-example LCS F-measure."""

    def f_measure(cand, ref):
        lcs = _lcs_length(cand, ref)  # 0 when either is empty
        if lcs == 0:
            return 0.0
        p = lcs / len(cand)
        r = lcs / len(ref)
        return (1 + beta**2) * r * p / (r + beta**2 * p)

    return _mean_score(f_measure, candidates, references)


def _stem(token):
    for suffix in ("ing", "es", "ed", "s"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def _align(cand, ref):
    """Greedy unigram alignment: exact matches first, then stem matches.

    Returns matched (candidate index, reference index) pairs ordered by
    candidate position.
    """
    pairs = {}
    used_ref = set()
    for key in (lambda t: t, _stem):
        ref_keys = [key(t) for t in ref]
        for i, tok in enumerate(cand):
            if i in pairs:
                continue
            want = key(tok)
            for j, rk in enumerate(ref_keys):
                if j not in used_ref and rk == want:
                    pairs[i] = j
                    used_ref.add(j)
                    break
    return sorted(pairs.items())


def _chunks(pairs):
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def _meteor_one(cand, ref):
    pairs = _align(cand, ref)
    m = len(pairs)  # 0 when either is empty
    if m == 0:
        return 0.0
    p = m / len(cand)
    r = m / len(ref)
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    penalty = 0.5 * (_chunks(pairs) / m) ** 3
    return f_mean * (1.0 - penalty)


def meteor_lite(candidates, references):
    """Unigram F (recall-weighted 9:1) with a fragmentation penalty.

    score = F_mean * (1 - 0.5 * (chunks / matches)^3); the penalty is
    therefore at most 0.5 and vanishes for a single contiguous alignment of
    a long sentence.
    """
    return _mean_score(_meteor_one, candidates, references)


def _first_answer_words(candidates, answer_word_sets):
    """Each candidate's first token that is one of its answer words, or None."""
    if len(candidates) != len(answer_word_sets):
        raise ValueError("candidate/answer-set count mismatch")
    return [next((tok for tok in cand if tok in answers), None)
            for cand, answers in zip(candidates, map(set, answer_word_sets))]


def _percent(flags):
    """Percentage of true flags: integer counting, then one division."""
    return 100.0 * sum(flags) / len(flags) if flags else 0.0


def answer_coverage(candidates, answer_word_sets):
    """Percentage of candidates containing at least one of their answer words."""
    return _percent([m is not None for m in _first_answer_words(candidates, answer_word_sets)])


def evaluate(candidates, examples):
    """Full report on a split's generations, one token list per example, in split order.

    The one place that decides what a split is scored against: every score reads each
    example's gold question as written (subject name included) and its answer words.
    """
    references = [ex.raw_question_words for ex in examples]
    scores = [metric(candidates, references) for metric in (bleu4, rouge_l, meteor_lite)]
    matches = _first_answer_words(candidates, [ex.answer_type_words for ex in examples])
    records = [ExampleRecord(" ".join(cand), " ".join(ref), matched is not None, matched)
               for cand, ref, matched in zip(candidates, references, matches)]
    return EvalReport(*scores, answer_coverage=_percent([r.covered for r in records]), records=records)


# (EvalReport field, label) of each score, in report order
_REPORT_ROWS = (("bleu4", "BLEU-4"), ("rouge_l", "ROUGE-L"), ("meteor", "METEOR-lite"),
                ("answer_coverage", "Answer coverage"))


def report_lines(report):
    """Machine-readable metric<TAB>value lines."""
    return [f"{key}\t{getattr(report, key):.4f}" for key, _ in _REPORT_ROWS]


def report_table(report):
    """Aligned human-readable table."""
    width = max(len(label) for _, label in _REPORT_ROWS)
    return "\n".join(f"{label:<{width}}  {getattr(report, key):8.4f}" for key, label in _REPORT_ROWS)


def export_annotation_sample(rows, n, seed, path):
    """Seeded sample of generations for human judgment, as TSV.

    ``rows`` are (fact ids, predicate context text, generated question)
    triples; judgment columns are left empty for the annotators.
    """
    rng = Random(seed)
    sample = rows if len(rows) <= n else rng.sample(list(rows), n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fact\tpredicate_context\tquestion\tpredicate_match(0/1)\tnaturalness(0-5)\n")
        for fact, context, question in sample:
            fh.write(f"{fact}\t{context}\t{question}\t\t\n")
    return len(sample)
