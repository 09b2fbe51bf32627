"""Seeded kbqgen workloads, timed from outside through the stable entry points.

Every workload runs the pipeline a user runs: set up (load the corpus, then
build the model, which pretrains TransE when the config asks), train, decode
a slice of the test split, save the trained checkpoint and load it back.
After the first set-up and a warm-up round, a run repeats fixed rounds until
its seconds are spent: each round sets up again, trains one epoch over a
fixed slice of the training split and decodes each example of a fixed slice
of the test split greedily and with beam 3, using the untrained first set-up
model (which decodes to max_len, so the work is fixed). A checkpoint round
trip (a save, then loads of it) ends every round where it is cheap. Where a
save costs a quarter of the run, a round ends with either one save or one
load instead, so that saves and loads are spread over the whole run like
the other stages. Every stage thus gets several samples of the same work,
all kept in ``Pipeline.samples``.

End-to-end numbers come only from these calls: ``corpus.load_dataset``,
``kbembed.pretrain_transe``, ``trainer.build_model``, ``trainer.train``,
``trainer.decode_split``, ``trainer.save_checkpoint``,
``trainer.load_checkpoint`` and ``trainer.model_from_checkpoint``. The inputs
come from ``corpus.synth_corpus`` with the run's seed.

Each operation (a training epoch, a decoded example, a checkpoint save or
load) is counted as attempted. An operation that raises, or whose output
check fails, is counted as failed, and the run is then not correct.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kbqgen import corpus, kbembed, trainer

LOADS_PER_SAVE = 3  # a load is a third of a save's cost, so it gets more of the repeats
SAVE_EVERY = 3  # without a trip in every round, a save every third round, a load in the others


@dataclass(frozen=True)
class Workload:
    name: str
    config: tuple  # key=value lines for trainer.parse_config
    corpus_size: tuple  # (entities, predicates, facts) for corpus.synth_corpus
    train_examples: int  # training examples per round: one trainer.train epoch
    decode_examples: int  # test examples per round, decoded greedily and with beam 3
    ckpt_each_round: bool  # a checkpoint round trip in every round, else see Pipeline.checkpoint_io
    probe_examples: int  # examples for the traced run's per-layer probes
    probe_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-train", config=("transe=true",), corpus_size=(24, 8, 220),
            train_examples=48, decode_examples=4, ckpt_each_round=True,
            probe_examples=8, probe_repeats=5,
        ),
        Workload(
            name="paper", config=("profile=paper",), corpus_size=(110, 2000, 20000),
            train_examples=12, decode_examples=2, ckpt_each_round=False,
            probe_examples=4, probe_repeats=3,
        ),
    )
}


def clock():
    return time.perf_counter()


def make_config(workload, seed, *extra):
    """The workload's config; `extra` key=value lines override it."""
    lines = list(workload.config) + [f"seed={seed}", "epochs=1", *extra]
    return trainer.parse_config(text="\n".join(lines) + "\n")


def make_corpus(workload, seed, data_dir):
    entities, predicates, facts = workload.corpus_size
    corpus.write_corpus(corpus.synth_corpus(seed, entities, predicates, facts), data_dir)


def with_splits(dataset, **splits):
    """A shallow copy of a dataset that holds only the given splits."""
    view = copy.copy(dataset)
    view.splits = dict(splits)
    return view


@dataclass
class Setup:
    dataset: object
    kb_matrix: object  # what build_model's kbembed.pretrain_transe call returned; None without one
    model: object
    load_s: float
    build_s: float  # all of build_model, TransE included
    pretrain_s: float  # the kbembed.pretrain_transe call inside build_model; None without one


def set_up(config, data_dir):
    """load_dataset, then build_model, which pretrains TransE when the config asks.

    build_model's call of kbembed.pretrain_transe is timed, and its result kept
    so that training can reuse it, by wrapping that entry point meanwhile.
    """
    pretrained = []
    pretrain = kbembed.pretrain_transe

    def timed_pretrain(*args, **kwargs):
        t0 = clock()
        kb_matrix = pretrain(*args, **kwargs)
        pretrained.append((kb_matrix, clock() - t0))
        return kb_matrix

    t0 = clock()
    dataset = corpus.load_dataset(data_dir, diversified=config.diversified, min_freq=config.min_freq)
    t1 = clock()
    kbembed.pretrain_transe = timed_pretrain
    try:
        model = trainer.build_model(config, dataset)
    finally:
        kbembed.pretrain_transe = pretrain
    t2 = clock()
    kb_matrix, pretrain_s = pretrained[0] if pretrained else (None, None)
    return Setup(dataset, kb_matrix, model, t1 - t0, t2 - t1, pretrain_s)


class Op:
    """`count` operations that pass or fail together; the first failure is kept."""

    def __init__(self, what, count):
        self.what = what
        self.count = count
        self.error = None

    def check(self, ok, reason):
        if not ok and self.error is None:
            self.error = f"{self.what}: {reason}"
        return ok


class Ops:
    def __init__(self):
        self.ops = []

    def attempt(self, what, fn, count=1):
        """Run fn as `count` operations; returns (op, value), value None if fn raised."""
        op = Op(what, count)
        self.ops.append(op)
        try:
            return op, fn()
        except Exception as exc:  # a failed operation is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            op.error = f"{what}: {type(exc).__name__}: {exc}"
            return op, None

    @property
    def attempted(self):
        return sum(op.count for op in self.ops)

    @property
    def failed(self):
        return sum(op.count for op in self.ops if op.error is not None)

    @property
    def failures(self):
        return [op.error for op in self.ops if op.error is not None]


def digest(outputs):
    h = hashlib.sha256()
    for tokens, modes in outputs:
        h.update((" ".join(tokens) + "\t" + modes + "\n").encode())
    return h.hexdigest()[:16]


def same_arrays(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class Pipeline:
    """One workload run: its stages, their timings and the output checks."""

    def __init__(self, workload, seed, data_dir, work_dir):
        self.workload = workload
        self.config = make_config(workload, seed)
        self.data_dir = data_dir
        self.work_dir = Path(work_dir)
        self.ops = Ops()
        self.samples = {}  # metric name -> one value per measured unit
        self.record = {"loss_history": None, "decode_digest": {}}
        self.setup = None
        self.train_result = None
        self.saved = None  # (path, checkpoint, tokens decoded before the save) while a file exists
        self.measuring = False  # off during the warm-up round

    def add(self, name, value):
        if self.measuring:
            self.samples.setdefault(name, []).append(value)

    # -- stages ------------------------------------------------------------

    def set_up(self):
        """One timed set-up; the run keeps the first one's dataset and model."""
        s = set_up(self.config, self.data_dir)
        self.add("setup_s", s.load_s + s.build_s)
        self.add("corpus.load_dataset_s", s.load_s)
        self.add("model.build_s", s.build_s - (s.pretrain_s or 0.0))
        if s.pretrain_s is not None:
            self.add("kbembed.pretrain_s", s.pretrain_s)
        if self.setup is not None:
            return
        self.setup = s
        ds, w = s.dataset, self.workload
        test = ds.examples("test")
        self.train_view = with_splits(ds, train=ds.examples("train")[: w.train_examples], valid=[])
        self.decode_views = [with_splits(ds, test=[ex]) for ex in test[: w.decode_examples]]
        self.first_decodes = {}  # (beam, example index) -> the first round's output

    def decode_round(self, beam):
        """decode_split of each example of the decode slice, one call and one sample each.

        Uses the first set-up's (untrained) model, so every round decodes the
        same tokens.
        """
        model, key = self.setup.model, "greedy" if beam == 1 else f"beam{beam}"
        outputs = []
        for i, view in enumerate(self.decode_views):
            t0 = clock()
            op, out = self.ops.attempt(
                f"decode {key}",
                lambda: trainer.decode_split(model, view, "test", beam=beam, max_len=self.config.max_len),
            )
            wall = clock() - t0
            if out is None:
                continue
            outputs.extend(out)
            if op.check(out == self.first_decodes.setdefault((beam, i), out), "a repeat decoded other tokens"):
                self.add(f"{key}_ms_per_ex", 1000.0 * wall)
        self.record["decode_digest"].setdefault(key, digest(outputs))

    def train_unit(self):
        """One trainer.train call, with an empty validation split."""
        cfg, view = self.config, self.train_view
        t0 = clock()
        op, result = self.ops.attempt(
            "train", lambda: trainer.train(cfg, view, kb_matrix=self.setup.kb_matrix), count=cfg.epochs
        )
        wall = clock() - t0
        if result is None:
            return
        losses = [loss for _epoch, loss, _bleu in result.history]
        op.check(not result.aborted and len(losses) == cfg.epochs, "training aborted")
        op.check(all(map(math.isfinite, losses)), "an epoch loss is not finite")
        if self.record["loss_history"] is None:
            self.record["loss_history"] = losses
        op.check(losses == self.record["loss_history"], "a repeat gave other losses")
        if op.error is None:
            self.add("train_ex_per_s", len(view.examples("train")) * cfg.epochs / wall)
            self.train_result = result

    def checkpoint_save(self):
        """save_checkpoint of the last trained checkpoint; returns its path, None if it failed.

        Keeps what the loads check against: the checkpoint, and the tokens a
        model rebuilt from it decodes on one example.
        """
        ckpt = self.train_result.last
        path = self.work_dir / "model.ckpt"
        before = self.decode_one(trainer.model_from_checkpoint(self.config, self.setup.dataset, ckpt))
        t0 = clock()
        op, _ = self.ops.attempt("checkpoint save", lambda: trainer.save_checkpoint(ckpt, path))
        t1 = clock()
        if op.error is not None:
            return None
        self.add("ckpt_save_s", t1 - t0)
        self.add("trainer.ckpt_mb", path.stat().st_size / 1e6)
        self.saved = (path, ckpt, before)
        return path

    def checkpoint_load(self):
        """load + rebuild of the saved checkpoint: bit-exact tensors, the same decoded tokens."""
        cfg, ds = self.config, self.setup.dataset
        path, ckpt, before = self.saved

        def load():
            loaded = trainer.load_checkpoint(path)
            return loaded, trainer.model_from_checkpoint(cfg, ds, loaded)

        gc.collect()
        t0 = clock()
        op, out = self.ops.attempt("checkpoint load", load)
        t1 = clock()
        if out is None:
            return
        loaded, model = out
        op.check(
            loaded.epoch == ckpt.epoch and loaded.config_hash == ckpt.config_hash
            and same_arrays(loaded.tensors, ckpt.tensors) and same_arrays(loaded.moments, ckpt.moments),
            "round trip is not bit-exact",
        )
        op.check(self.decode_one(model) == before, "the reloaded model decodes other tokens")
        if op.error is None:
            self.add("ckpt_load_s", t1 - t0)

    def decode_one(self, model):
        return trainer.decode_split(model, self.decode_views[0], "test", max_len=self.config.max_len)

    def checkpoint_round_trip(self):
        """A save, then LOADS_PER_SAVE loads of it; the file is removed after."""
        path = self.checkpoint_save()
        if path is None:
            return
        for _ in range(LOADS_PER_SAVE):
            self.checkpoint_load()
        path.unlink()
        self.saved = None

    def check_raw_decodes(self):
        """The decode slice's raw decodes: one mode per token, beam 1 == greedy.

        decode_split returns realized words, in which <subj> became the
        subject's name, so these checks call the decoder functions it
        delegates to, which return the emitted tokens. Every round decodes
        the same tokens as the first (see decode_round), so checking the
        slice once covers every round's decodes.
        """
        from kbqgen import decoder as dec

        if not (hasattr(dec, "beam_decode") and hasattr(dec, "greedy_decode")):
            self.record["raw_decode_checks"] = "skipped: decoder.beam_decode or greedy_decode is gone"
            return
        model, max_len = self.setup.model, self.config.max_len
        examples = [view.examples("test")[0] for view in self.decode_views]

        def problems():
            found = []
            for ex in examples:
                greedy = dec.greedy_decode(model, ex, max_len=max_len)
                beam3 = dec.beam_decode(model, ex, beam_width=3, max_len=max_len)
                if any(len(tokens) != len(modes) for tokens, modes in (greedy, beam3)):
                    found.append("mode string and tokens differ in length")
                if dec.beam_decode(model, ex, beam_width=1, max_len=max_len) != greedy:
                    found.append("beam width 1 differs from greedy")
            return found

        op, found = self.ops.attempt("raw decode checks", problems, count=len(examples))
        for reason in found or ():
            op.check(False, reason)
        self.record["raw_decode_checks"] = op.error is None

    # -- the run -----------------------------------------------------------

    def checkpoint_io(self, index):
        """The checkpoint IO that ends a round; index counts measured rounds from 0.

        Where a save is cheap, every round makes a round trip. Elsewhere every
        SAVE_EVERY-th measured round, from the first, saves the checkpoint,
        and the others load the last save once, so that the few saves and
        loads a run has are spread over it. There the warm-up round (index
        None) makes none, since a save costs a quarter of the run.
        """
        if self.train_result is None:
            return
        if self.workload.ckpt_each_round:
            self.checkpoint_round_trip()
        elif index is not None and index % SAVE_EVERY == 0:
            self.checkpoint_save()
        elif self.saved is not None:
            self.checkpoint_load()

    def round(self, index=None, spans=None):
        """A set-up, one train epoch, a greedy and a beam-3 decode round, then checkpoint IO.

        With spans (layers.Spans), the round runs traced and its time is a
        traced_round_s sample instead of a round_s one. Either sample times
        the round without its checkpoint IO, which holds no traced layer.
        """
        gc.collect()  # every round starts from the same collector state
        if spans is not None:
            spans.install()
        t0 = clock()
        try:
            self.set_up()
            self.train_unit()
            self.decode_round(1)
            self.decode_round(3)
        finally:
            if spans is not None:
                spans.remove()
        self.add("traced_round_s" if spans is not None else "round_s", clock() - t0)
        self.checkpoint_io(index)

    def run(self, seconds, spans=None):
        """Set up, warm up, then measure for `seconds`, at least one round.

        With spans, the rounds alternate between untraced and traced, so that
        each traced round can be compared with the untraced one just before
        it; there are at least two.
        """
        self.set_up()
        self.check_raw_decodes()
        self.round()  # warm-up: its checks count, its timings do not
        self.measuring = True
        t_end = clock() + seconds
        rounds, min_rounds = 0, 1 if spans is None else 2
        while rounds < min_rounds or clock() < t_end:
            self.round(rounds, spans if spans is not None and rounds % 2 == 1 else None)
            rounds += 1
        self.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
