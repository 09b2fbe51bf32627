"""Facts, diversified textual contexts, vocabularies, and a synthetic corpus.

File formats (all tab-separated UTF-8, tokenized on load):
    entities.tsv    id, name, frequent type, notable type
    predicates.tsv  id, domain, range, topic, semicolon-joined DS patterns
                    (pattern column may be empty)
    facts.*.tsv     subject id, predicate id, object id, question text

load_dataset is the one path from these files to Examples: load_kb and
load_facts check the rows, and it builds each atom's context_words and each
fact's ContextSet once. Everything loaded here is immutable afterwards and
safe to share read-only.
"""

from __future__ import annotations

import io
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from random import Random

PAD, BOS, EOS, UNK, SUBJ = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>", "<subj>")

SEG_SUBJECT, SEG_PREDICATE, SEG_OBJECT = 0, 1, 2

CONTEXT_CAP = 16  # per-context token cap; bounds the copy source length

_TOKEN_RE = re.compile(r"'\w+|\w+|[^\w\s]")


class IngestionError(ValueError):
    pass


def tokenize(text):
    """Case-fold, split on whitespace, detach punctuation as its own token.

    Clitic apostrophes stay attached to the following letters, so
    "New-York's" -> [new, -, york, 's].
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Fact:
    """A (subject, predicate, object) triple as dense KB-vocabulary indices."""

    subject: int
    predicate: int
    object: int


@dataclass(frozen=True)
class PredicateRecord:
    id: str
    domain_words: tuple
    range_words: tuple
    topic_words: tuple
    ds_patterns: tuple  # tuple of token tuples, possibly empty


@dataclass(frozen=True)
class EntityRecord:
    id: str
    name: tuple
    frequent_type: tuple
    notable_type: tuple


@dataclass(frozen=True)
class ContextSet:
    """Deduplicated textual contexts for the three atoms of one fact.

    ``*_words`` hold token strings (needed for copying and out-of-vocabulary
    identity); ``*_ids`` the word-vocab indices (UNK for OOV tokens) used as
    encoder input; ``segment_ids`` labels each concatenated position.
    """

    subject_words: tuple
    predicate_words: tuple
    object_words: tuple
    subject_ids: tuple = ()
    predicate_ids: tuple = ()
    object_ids: tuple = ()

    @property
    def segment_ids(self):
        return (
            (SEG_SUBJECT,) * len(self.subject_words)
            + (SEG_PREDICATE,) * len(self.predicate_words)
            + (SEG_OBJECT,) * len(self.object_words)
        )

    @property
    def all_words(self):
        return self.subject_words + self.predicate_words + self.object_words


@dataclass(frozen=True)
class Example:
    fact: Fact
    contexts: ContextSet
    question: tuple  # word-vocab ids, BOS ... EOS
    question_words: tuple  # tokens after subject-placeholder substitution
    raw_question_words: tuple  # tokens as written, used as evaluation reference
    answer_type_words: tuple  # sorted object-context tokens
    subject_span: tuple | None  # (start, length) in raw_question_words


class Vocab:
    """Word vocabulary with the five special tokens pinned at indices 0-4."""

    def __init__(self, tokens=()):
        self._tokens = list(SPECIAL_TOKENS)
        self._index = {t: i for i, t in enumerate(self._tokens)}
        for t in tokens:
            if t not in self._index:
                self._index[t] = len(self._tokens)
                self._tokens.append(t)

    @classmethod
    def from_questions(cls, token_lists, min_freq=2):
        counts = Counter(chain.from_iterable(token_lists))
        kept = sorted(t for t, c in counts.items() if c >= min_freq and t not in SPECIAL_TOKENS)
        return cls(kept)

    def id(self, token):
        return self._index.get(token, UNK)

    def ids(self, tokens):
        return tuple(map(self._index.get, tokens, repeat(UNK)))

    def __contains__(self, token):
        return token in self._index

    def token(self, idx):
        return self._tokens[idx]

    def __len__(self):
        return len(self._tokens)

    @property
    def tokens(self):
        return tuple(self._tokens)


class KBVocab:
    """Dense indices over entity and predicate ids (entities first)."""

    def __init__(self, entity_ids, predicate_ids):
        self._tokens = list(entity_ids) + list(predicate_ids)
        self._index = {t: i for i, t in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise IngestionError("duplicate id across entities and predicates")
        self.n_entities = len(entity_ids)
        self.n_predicates = len(predicate_ids)

    def id(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise IngestionError(f"unknown KB id {token!r}") from None

    def token(self, idx):
        return self._tokens[idx]

    def fact_ids(self, fact):
        """The fact as "<subject> <predicate> <object>" ids, as generation files name it."""
        return " ".join(self._tokens[i] for i in (fact.subject, fact.predicate, fact.object))

    def __len__(self):
        return len(self._tokens)


def read_utf8(path):
    """The whole text of a UTF-8 file; a bad byte is an IngestionError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise IngestionError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _tsv_rows(path, n_cols):
    """Yield (line number, columns) for each non-blank line of a UTF-8 TSV file."""
    for lineno, line in enumerate(io.StringIO(read_utf8(path), newline=None), 1):
        if not line.strip():
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) != n_cols:
            raise IngestionError(
                f"{path}:{lineno}: expected {n_cols} tab-separated columns, got {len(cols)}"
            )
        yield lineno, cols


def load_kb(entities_file, predicates_file):
    """Parse entity and predicate tables into records plus a dense KB vocab."""
    entities = {}
    for lineno, (eid, name, freq, notable) in _tsv_rows(entities_file, 4):
        where = f"{entities_file}:{lineno}"
        if eid in entities:
            raise IngestionError(f"{where}: duplicate entity id {eid!r}")
        rec = EntityRecord(
            id=eid,
            name=tuple(tokenize(name)),
            frequent_type=tuple(tokenize(freq)),
            notable_type=tuple(tokenize(notable)),
        )
        if not rec.name:
            raise IngestionError(f"{where}: empty entity name")
        if not rec.frequent_type and not rec.notable_type:
            raise IngestionError(f"{where}: entity {eid!r} has no type words")
        entities[eid] = rec

    predicates = {}
    for lineno, (pid, domain, rng, topic, patterns) in _tsv_rows(predicates_file, 5):
        where = f"{predicates_file}:{lineno}"
        if pid in predicates:
            raise IngestionError(f"{where}: duplicate predicate id {pid!r}")
        if pid in entities:
            raise IngestionError(f"{where}: predicate id {pid!r} is also an entity id")
        rec = PredicateRecord(
            id=pid,
            domain_words=tuple(tokenize(domain)),
            range_words=tuple(tokenize(rng)),
            topic_words=tuple(tokenize(topic)),
            ds_patterns=tuple(tuple(tokenize(p)) for p in patterns.split(";") if p.strip()),
        )
        if not (rec.domain_words or rec.range_words or rec.topic_words):
            raise IngestionError(f"{where}: predicate {pid!r} has no domain/range/topic words")
        predicates[pid] = rec

    kbvocab = KBVocab(sorted(entities), sorted(predicates))
    return entities, predicates, kbvocab


def context_words(rec, diversified=True):
    """One KB atom's context: an entity's frequent then notable type words, or a
    predicate's DS pattern words then its domain/range/topic words. The basic
    mode keeps only the first part; an empty context is a single UNK token
    (load_kb refuses records that would leave a diversified one empty)."""
    if isinstance(rec, EntityRecord):
        first, rest = rec.frequent_type, rec.notable_type
    else:
        first = tuple(t for pat in rec.ds_patterns for t in pat)
        rest = rec.domain_words + rec.range_words + rec.topic_words
    words = tuple(dict.fromkeys(first + rest if diversified else first))  # first occurrences kept
    return (words or (SPECIAL_TOKENS[UNK],))[:CONTEXT_CAP]


def substitute_subject(question_tokens, name_tokens):
    """Replace the first exact occurrence of the subject name with <subj>.

    Matching is token-sequence equality on case-folded tokens; only the
    leftmost occurrence is replaced. Returns (tokens, span or None) where
    span is (start, length) in the original token list.
    """
    tokens, name = tuple(question_tokens), tuple(name_tokens)
    n = len(name)
    if 0 < n <= len(tokens):
        start, stop = 0, len(tokens) - n + 1
        try:
            while True:  # candidate starts are the positions of the name's first token
                start = tokens.index(name[0], start, stop)
                if tokens[start : start + n] == name:
                    return tokens[:start] + (SPECIAL_TOKENS[SUBJ],) + tokens[start + n :], (start, n)
                start += 1
        except ValueError:
            pass
    return tokens, None


@dataclass
class Dataset:
    entities: dict
    predicates: dict
    kbvocab: KBVocab
    vocab: Vocab
    splits: dict = field(default_factory=dict)  # split name -> list[Example]

    def examples(self, split):
        try:
            return self.splits[split]
        except KeyError:
            raise IngestionError(f"no {split!r} split: facts.{split}.tsv is missing") from None


def load_facts(path, kbvocab):
    """(Fact, question text) per row of a facts file.

    Subject and object must be entity ids and the predicate a predicate id.
    """
    rows = []
    n_entities = kbvocab.n_entities
    for lineno, (s, p, o, question) in _tsv_rows(path, 4):
        try:
            fact = Fact(kbvocab.id(s), kbvocab.id(p), kbvocab.id(o))
        except IngestionError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc}") from None
        if fact.subject >= n_entities:
            raise IngestionError(f"{path}:{lineno}: subject {s!r} is not an entity id")
        if fact.predicate < n_entities:
            raise IngestionError(f"{path}:{lineno}: predicate {p!r} is not a predicate id")
        if fact.object >= n_entities:
            raise IngestionError(f"{path}:{lineno}: object {o!r} is not an entity id")
        if not question.strip():
            raise IngestionError(f"{path}:{lineno}: empty question")
        rows.append((fact, question))
    return rows


def load_dataset(data_dir, diversified=True, min_freq=2):
    """Load a corpus directory into Examples with a train-derived vocabulary.

    This is the one path from corpus rows to Examples. Each question is
    tokenized and subject-substituted once: the train split's substituted
    tokens count the vocabulary and then make its examples. Each KB atom's
    context words, their word ids and their sorted set (an object's answer
    words) are built once, and each fact's ContextSet once, so examples share
    them.
    """
    data_dir = Path(data_dir)
    entities, predicates, kbvocab = load_kb(
        data_dir / "entities.tsv", data_dir / "predicates.tsv"
    )
    rows = {}
    for split in ("train", "valid", "test"):
        path = data_dir / f"facts.{split}.tsv"
        if path.exists():
            rows[split] = load_facts(path, kbvocab)
    if "train" not in rows:
        raise IngestionError(f"{data_dir}: missing facts.train.tsv")

    names = [entities[kbvocab.token(i)].name for i in range(kbvocab.n_entities)]
    questions = {split: [] for split in rows}  # (raw tokens, substitute_subject's result) per row
    for split, split_rows in rows.items():
        for fact, question in split_rows:
            raw = tuple(tokenize(question))
            questions[split].append((raw, substitute_subject(raw, names[fact.subject])))
    vocab = Vocab.from_questions((subst for _, (subst, _) in questions["train"]), min_freq=min_freq)

    records = {**entities, **predicates}
    atoms = []  # per KB id: context words, their word ids, their sorted set
    for i in range(len(kbvocab)):
        words = context_words(records[kbvocab.token(i)], diversified)
        atoms.append((words, vocab.ids(words), tuple(sorted(set(words)))))

    dataset = Dataset(entities, predicates, kbvocab, vocab)
    contexts = {}  # Fact -> its ContextSet, shared by the fact's rows in every split
    for split, split_rows in rows.items():
        examples = dataset.splits[split] = []
        for (fact, _), (raw, (subst, span)) in zip(split_rows, questions[split]):
            ctx = contexts.get(fact)
            if ctx is None:
                (s, s_ids, _), (p, p_ids, _), (o, o_ids, _) = (
                    atoms[fact.subject], atoms[fact.predicate], atoms[fact.object])
                ctx = contexts[fact] = ContextSet(s, p, o, s_ids, p_ids, o_ids)
            examples.append(Example(fact, ctx, (BOS, *vocab.ids(subst), EOS), subst, raw,
                                    atoms[fact.object][2], span))
    return dataset


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

_TYPES = [
    # (frequent/broad word, notable/refined word); the synthetic corpus keeps
    # them equal so each object context carries exactly one answer word whose
    # strongest channel is the trained question vocabulary rather than a
    # copy-only slot (out-of-vocabulary answer words invite the answer-aware
    # loss to hijack arbitrary copy steps instead of the phrasing branch)
    ("city", "city"),
    ("river", "river"),
    ("writer", "writer"),
    ("singer", "singer"),
    ("company", "company"),
    ("team", "team"),
    ("book", "book"),
    ("film", "film"),
    ("mountain", "mountain"),
    ("painter", "painter"),
    ("song", "song"),
    ("museum", "museum"),
]

_RELATIONS = [
    ("located", "in"),
    ("born", "in"),
    ("written", "by"),
    ("part", "of"),
    ("named", "after"),
    ("next", "to"),
    ("famous", "for"),
    ("owned", "by"),
    ("based", "on"),
    ("close", "to"),
    ("found", "in"),
    ("made", "by"),
]

# name pools stay disjoint from type and relation words so that answer
# coverage is not triggered by subject names
_NAME_FIRST = ["green", "old", "silver", "north", "royal", "little", "grand", "white", "red", "iron"]
_NAME_SECOND = ["star", "lake", "house", "bridge", "garden", "tower", "stone", "field", "harbor", "crown"]

# abstract per-relation words for predicate contexts; distinct from both
# template tokens and type words, so copied context tokens cannot shadow
# answer words or relation phrasing
_RELATION_TOPICS = [
    "containment", "origin", "authorship", "membership", "naming", "vicinity",
    "fame", "ownership", "adaptation", "closeness", "presence", "creation",
]


@dataclass
class SynthCorpus:
    entities: list  # EntityRecord in file order
    predicates: list  # PredicateRecord in file order
    fact_rows: dict  # split -> list of (s, p, o, question text)


def synth_corpus(seed, n_entities, n_predicates, n_facts):
    """Deterministic desk-scale corpus.

    Each predicate owns a fixed question template naming the subject; even
    predicates additionally mention the object's refined type word, so the
    answer-aware loss has headroom on the odd half. Roughly 40% of
    predicates carry DS patterns, the rest rely on domain/range/topic.
    Sizes that cannot give such a corpus are an IngestionError.
    """
    if min(n_entities, n_predicates, n_facts) < 1:
        raise IngestionError("synth sizes must be >= 1")
    n_names = len(_NAME_FIRST) * (len(_NAME_SECOND) + 1)  # two-word names plus one-word ones
    if n_entities > n_names:
        raise IngestionError(f"synth has {n_names} distinct entity names, got {n_entities} entities")
    rng = Random(seed)

    # ~6 entities per type keeps enough distinct (subject, object) pairs
    # per predicate for corpora of a few hundred facts
    n_types = min(len(_TYPES), max(2, n_entities // 6))
    entities = []
    used_names = set()
    for i in range(n_entities):
        freq, notable = _TYPES[i % n_types]
        while True:
            name = (rng.choice(_NAME_FIRST), rng.choice(_NAME_SECOND))
            if rng.random() < 0.2:
                name = name[:1]
            if name not in used_names:
                used_names.add(name)
                break
        entities.append(
            EntityRecord(
                id=f"e{i}",
                name=name,
                frequent_type=(freq,),
                notable_type=(notable,),
            )
        )

    by_type = {}
    for i, ent in enumerate(entities):
        by_type.setdefault(ent.notable_type[0], []).append(i)
    type_names = sorted(by_type)

    predicates = []
    templates = []
    domain_types = []
    range_types = []
    for j in range(n_predicates):
        r1, r2 = _RELATIONS[j % len(_RELATIONS)]
        suffix = () if j < len(_RELATIONS) else (str(j),)
        domain_t = type_names[j % len(type_names)]
        range_t = type_names[(j + 1) % len(type_names)]
        has_pattern = j % 5 in (0, 2)  # ~40% of predicates carry DS patterns
        ds = (r1, r2) + suffix if has_pattern else ()
        # Relation words stay copyable from the predicate context (they
        # speed template learning up considerably), but no answer word ever
        # appears there: the range column holds an abstract topic word, so
        # the answer-aware loss cannot hijack copy-mode relation steps with
        # a class word. Its only strong channel is the trained branch in
        # even predicates' questions, where 48% of golds name the refined
        # type and the rest say "one", a single token apart. Odd predicates
        # are type-free and keep answer words only in the object context.
        abstract = _RELATION_TOPICS[j % len(_RELATION_TOPICS)]
        predicates.append(
            PredicateRecord(
                id=f"p{j}",
                domain_words=(r1,),
                range_words=(abstract,),
                topic_words=(r1,) + suffix,
                ds_patterns=(ds,) if ds else (),
            )
        )
        domain_types.append(domain_t)
        range_types.append(range_t)
        rel = " ".join((r1, r2) + suffix)
        # type-flavored questions are long (diluting the per-step gold
        # pressure that resists the answer-aware swing between variants);
        # type-free questions stay short so the same pressure cannot force
        # answer words into them
        if j % 2 == 0:
            templates.append(
                ("can you name the " + range_t + " that {name} is " + rel + " ?",
                 "can you name the one that {name} is " + rel + " ?")
            )
        else:
            templates.append(("what " + rel + " {name} ?",))

    fact_rows = []
    seen_triples = set()
    j = 0
    attempts = 0
    while len(fact_rows) < n_facts and attempts < n_facts * 50:
        attempts += 1
        pid = j % n_predicates
        j += 1
        s_idx = rng.choice(by_type[domain_types[pid]])
        o_idx = rng.choice(by_type[range_types[pid]])
        if s_idx == o_idx:
            continue
        triple = (s_idx, pid, o_idx)
        if triple in seen_triples:
            continue
        seen_triples.add(triple)
        variants = templates[pid]
        template = variants[0] if len(variants) == 1 or rng.random() < 0.48 else variants[1]
        question = template.format(name=" ".join(entities[s_idx].name))
        fact_rows.append((entities[s_idx].id, predicates[pid].id, entities[o_idx].id, question))

    rng.shuffle(fact_rows)
    n_total = len(fact_rows)
    n_valid = max(1, round(n_total * 0.15))
    n_test = max(1, round(n_total * 0.15))
    n_train = n_total - n_valid - n_test
    n_used = len({row[1] for row in fact_rows})
    if n_train < n_used:
        # the draw stops short of n_facts when few distinct triples exist
        raise IngestionError(
            f"synth drew {n_total} distinct facts over {n_used} predicates: too few to hold one "
            "fact per predicate in train plus a valid and a test fact"
        )
    train = fact_rows[:n_train]
    held = fact_rows[n_train:]

    # every predicate must be seen in training; swap held-out rows in if not.
    # With n_train >= n_used, a train predicate with two rows is always left
    counts = Counter(row[1] for row in train)
    for i, row in enumerate(held):
        if not counts[row[1]]:
            k = next(k for k, r in enumerate(train) if counts[r[1]] > 1)
            counts[train[k][1]] -= 1
            counts[row[1]] += 1
            train[k], held[i] = held[i], train[k]

    splits = {
        "train": train,
        "valid": held[:n_valid],
        "test": held[n_valid:],
    }
    return SynthCorpus(entities=entities, predicates=predicates, fact_rows=splits)


def write_corpus(corpus, out_dir):
    """Write a SynthCorpus as the TSV files load_dataset expects."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "entities.tsv", "w", encoding="utf-8") as fh:
        for ent in corpus.entities:
            fh.write(
                "\t".join(
                    (ent.id, " ".join(ent.name), " ".join(ent.frequent_type), " ".join(ent.notable_type))
                )
                + "\n"
            )
    with open(out_dir / "predicates.tsv", "w", encoding="utf-8") as fh:
        for pred in corpus.predicates:
            patterns = ";".join(" ".join(p) for p in pred.ds_patterns)
            fh.write(
                "\t".join(
                    (
                        pred.id,
                        " ".join(pred.domain_words),
                        " ".join(pred.range_words),
                        " ".join(pred.topic_words),
                        patterns,
                    )
                )
                + "\n"
            )
    for split, rows in corpus.fact_rows.items():
        with open(out_dir / f"facts.{split}.tsv", "w", encoding="utf-8") as fh:
            for s, p, o, question in rows:
                fh.write("\t".join((s, p, o, question)) + "\n")
