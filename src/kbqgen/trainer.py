"""RMSProp training with decreasing learning rate, checkpoints, ablations.

All randomness (shuffling, dropout masks, TransE negatives) derives from the
config seed plus epoch/example counters, so a run is reproducible bit-for-bit
in float64 and a checkpoint resume continues the exact trajectory. Each batch
is recorded as one graph over its examples' stacked rows (in chunks of at
most CHUNK examples) and swept once; its loss and gradients equal the sum
over its examples run alone, up to rounding.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, fields, replace
from random import Random

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import kbembed
from . import metrics
from . import objective as obj
from . import textckpt
from .corpus import read_utf8
from .model import Model, check_fit
from .textckpt import ConfigError

RHO = 0.9
EPSILON = 1e-8
# examples per recorded graph: bounds the live activations at the paper batch of 200
CHUNK = 32


_POSITIVE = ("lr0", "transe_lr", "transe_margin")
_AT_LEAST = {"seed": 0, "max_len": 2, "transe_epochs": 0, "transe_neg": 1, "grad_clip": 0,
             "patience": 0, "min_freq": 1, "lam": 0, "batch_size": 1, "epochs": 0}


@dataclass
class TrainConfig:
    lr0: float = 0.001
    lr_decay: float = 0.97
    batch_size: int = 16
    epochs: int = 30
    lam: float = 0.2
    seed: int = 0
    d: int = 32
    heads: int = 2
    layers: int = 2
    dropout: float = 0.1
    transe: bool = False
    transe_epochs: int = 40
    transe_margin: float = 1.0
    transe_lr: float = 0.01
    transe_neg: int = 1
    max_len: int = 40
    grad_clip: float = 5.0
    patience: int = 0
    min_freq: int = 2
    use_kb_copy: bool = True
    use_ctx_copy: bool = True
    diversified: bool = True
    word_vectors: str = ""
    dtype: str = "float64"
    profile: str = "desk"

    def validate(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for key in _POSITIVE:
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for key, low in _AT_LEAST.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if min(self.d, self.heads, self.layers) < 1:
            raise ConfigError(f"d, heads and layers must be >= 1, got {self.d}, {self.heads}, {self.layers}")
        if self.d % self.heads:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype}")
        if self.profile not in ("desk", "paper"):
            raise ConfigError(f"profile must be desk or paper, got {self.profile}")
        return self

    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def canonical_text(self):
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = str(v).lower()
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def hash(self):
        return config_hash(self.canonical_text())


def config_hash(text):
    """The confighash of canonical key=value config text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_PAPER_PROFILE = {"d": 200, "heads": 4, "layers": 5, "batch_size": 200}

_KEY_ALIASES = {"lambda": "lam"}


def parse_config(path=None, text=None, overrides=None):
    """Parse key=value lines into a TrainConfig; unknown keys are rejected.

    ``profile=paper`` fills in paper-scale dims for any key not set
    explicitly. Explicit keys and overrides always win.
    """
    if text is None:
        text = "" if path is None else read_utf8(path)
    label = "line " if path is None else f"{path}:"  # a file's lines are named like its other errors
    known = {f.name: f for f in fields(TrainConfig)}
    seen = {}

    def parse_pair(raw, where):
        if "=" not in raw:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        ftype = known[key].type
        try:
            if ftype == "bool":
                if value.lower() not in ("true", "false", "on", "off", "1", "0"):
                    raise ValueError(value)
                parsed = value.lower() in ("true", "on", "1")
            elif ftype == "int":
                parsed = int(value)
            elif ftype == "float":
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(f"{where}: bad value {value!r} for {key}") from None
        seen[key] = parsed

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parse_pair(line, f"{label}{lineno}")
    for raw in overrides or []:
        parse_pair(raw, "override")

    if seen.get("profile") == "paper":
        for key, value in _PAPER_PROFILE.items():
            seen.setdefault(key, value)
    return TrainConfig(**seen).validate()


class RMSProp:
    """v <- rho v + (1-rho) g^2; theta <- theta - lr g / (sqrt(v) + eps)."""

    def __init__(self, params):
        self.params = list(params)
        # np.zeros leaves pages unmapped until the first step writes them; zeros_like writes them all
        self.moments = {p.name: np.zeros(p.value.data.shape, p.value.data.dtype) for p in self.params}

    def step(self, lr, clip=0.0):
        """One update; returns the global gradient norm, before clipping.

        A norm that is not finite touches no weight and no moment.
        """
        norm_sq = 0.0
        for p in self.params:
            norm_sq += float((p.grad * p.grad).sum())
        norm = math.sqrt(norm_sq)
        if not math.isfinite(norm):
            return norm
        if 0.0 < clip < norm:
            factor = clip / norm
            for p in self.params:
                p.value.grad *= factor
        for p in self.params:
            g = p.grad
            v = self.moments[p.name]
            v *= RHO
            v += (1.0 - RHO) * g * g
            p.value.data -= lr * g / (np.sqrt(v) + EPSILON)
            p.zero_grad()
        return norm


@dataclass
class Checkpoint:
    tensors: dict  # name -> array
    moments: dict  # name -> array
    epoch: int
    config_hash: str
    config_text: str = ""  # canonical key=value lines, so checkpoints are self-contained


@dataclass
class TrainResult:
    """A run's checkpoints: copies of the arrays at their epoch, except the last
    epoch's, which holds the trained arrays themselves. A first-epoch abort
    returns the rebuilt epoch-0 (or resume) checkpoint as both."""

    best: Checkpoint
    last: Checkpoint
    history: list  # (epochs done, train loss, valid bleu4), the epoch numbered from 1
    validated: bool  # False without a valid split: best is then the last checkpoint
    aborted: bool = False


def save_checkpoint(ckpt, path):
    header = [("epoch", ckpt.epoch), ("confighash", ckpt.config_hash)]
    header += [("config", line) for line in ckpt.config_text.splitlines() if line]
    blocks = [(f"tensor/{name}", arr) for name, arr in ckpt.tensors.items()]
    blocks += [(f"moment/{name}", arr) for name, arr in ckpt.moments.items()]
    textckpt.write(path, header, blocks)


def load_checkpoint(path):
    header, blocks = textckpt.read(path)
    tensors = {b[len("tensor/"):]: arr for b, arr in blocks.items() if b.startswith("tensor/")}
    moments = {b[len("moment/"):]: arr for b, arr in blocks.items() if b.startswith("moment/")}
    if len(tensors) + len(moments) != len(blocks):
        raise ConfigError(f"{path}: a block named neither tensor/<name> nor moment/<name>")
    ckpt = Checkpoint(
        tensors=tensors, moments=moments,
        epoch=textckpt.field(path, header, "epoch", int),
        config_hash=textckpt.field(path, header, "confighash"),
        config_text="".join(line + "\n" for line in header.get("config", ())),
    )
    if ckpt.config_hash != config_hash(ckpt.config_text):
        raise ConfigError(f"{path}: its confighash {ckpt.config_hash} is not the hash of its config lines")
    return ckpt


def _checkpoint(tensors, moments, epoch, config, copy=False):
    """A checkpoint of these arrays under config; copies them when training goes on after it."""
    keep = np.copy if copy else (lambda a: a)
    return Checkpoint(
        tensors={name: keep(a) for name, a in tensors.items()},
        moments={name: keep(v) for name, v in moments.items()},
        epoch=epoch,
        config_hash=config.hash(),
        config_text=config.canonical_text(),
    )


def _weights(model):
    return {name: p.value.data for name, p in model.registry.items()}


def _start_checkpoint(config, dataset, kb_matrix, resume, model):
    """The checkpoint a run started from, for an abort in its first epoch: resume's
    arrays in the model's dtype under config's hash, or a fresh build_model (fixed
    by the seed and kb_matrix) with zero moments."""
    if resume is not None:
        dtype = config.np_dtype()
        return _checkpoint({n: np.asarray(resume.tensors[n], dtype) for n in model.registry},
                           {n: np.asarray(resume.moments[n], dtype) for n in model.registry},
                           resume.epoch, config)
    tensors = _weights(build_model(config, dataset, kb_matrix))
    return _checkpoint(tensors, {n: np.zeros(a.shape, a.dtype) for n, a in tensors.items()}, 0, config)


def load_word_vectors(path, vocab, d):
    """Pretrained vectors for the in-vocabulary tokens of a word-vector file.

    One token per line, then d whitespace-separated decimals. Lines with
    fewer than two fields and rows for tokens outside `vocab` are skipped
    unread; an in-vocabulary row that is not exactly d finite numbers is
    refused with a ConfigError naming the file and line, and a file that is
    not UTF-8 with read_utf8's IngestionError.
    """
    vectors = {}
    for lineno, line in enumerate(io.StringIO(read_utf8(path), newline=None), 1):
        parts = line.split()
        if len(parts) < 2 or parts[0] not in vocab:
            continue
        token = parts[0]
        where = f"{path}:{lineno}: vector for {token!r}"
        vec = []
        for x in parts[1:]:
            try:
                vec.append(float(x))
            except ValueError:
                raise ConfigError(f"{where}: not a number: {x!r}") from None
        if len(vec) != d:
            raise ConfigError(f"{where}: has {len(vec)} numbers, expected d={d}")
        if not all(map(math.isfinite, vec)):
            raise ConfigError(f"{where}: non-finite value")
        vectors[token] = vec
    return vectors


def pretrain_kb(config, dataset):
    """TransE table over every split's facts; depends only on them, d, the transe_* keys and the seed."""
    triples = [
        (ex.fact.subject, ex.fact.predicate, ex.fact.object)
        for split in sorted(dataset.splits)
        for ex in dataset.splits[split]
    ]
    return kbembed.pretrain_transe(
        triples, dataset.kbvocab, d=config.d,
        margin=config.transe_margin, lr=config.transe_lr,
        epochs=config.transe_epochs, neg_per_pos=config.transe_neg,
        seed=config.seed,
    )


def _model(config, dataset, weights=None):
    return Model(
        dataset.vocab, dataset.kbvocab,
        d=config.d, heads=config.heads, layers=config.layers, seed=config.seed,
        max_len=config.max_len, weights=weights,
        use_kb_copy=config.use_kb_copy, use_ctx_copy=config.use_ctx_copy, dtype=config.np_dtype(),
    )


def build_model(config, dataset, kb_matrix=None):
    """Model for a dataset per config; pretrains TransE when asked and no kb_matrix is given."""
    if kb_matrix is None and config.transe:
        kb_matrix = pretrain_kb(config, dataset)
    model = _model(config, dataset)
    if kb_matrix is not None:
        table = model.kb_emb.value.data
        if kb_matrix.table.shape != table.shape:
            raise ad.ShapeError(f"KB table shape {kb_matrix.table.shape} does not match {table.shape}")
        table[...] = kb_matrix.table
    if config.word_vectors:
        for token, vec in load_word_vectors(config.word_vectors, dataset.vocab, config.d).items():
            model.encoder.word_emb.value.data[dataset.vocab.id(token)] = vec
    return model


def batch_loss(model, examples, config, drops=None):
    """Per-example total losses [B, 1] from one recorded graph, plus a breakdown per example."""
    result = model.forward_example(list(examples), drops)
    ques = obj.question_loss(result.distributions, result.gold_ext_ids, steps=result.steps)
    ans, pairs = obj.answer_losses(result.distributions, result.answer_ext_ids, result.steps)
    total = obj.total_loss(ques, ans, config.lam)
    return total, [
        obj.LossBreakdown(ques_loss=qv, ans_loss=av, total_loss=tv, argmin_pair=pair)
        for qv, av, tv, pair in zip(ques.data[:, 0].tolist(), ans.data[:, 0].tolist(),
                                    total.data[:, 0].tolist(), pairs)
    ]


def example_loss(model, example, config, drop=None):
    """Total loss tensor [1, 1] plus breakdown for one teacher-forced example."""
    total, (breakdown,) = batch_loss(model, [example], config, None if drop is None else [drop])
    return total, breakdown


def _dropout(config, epoch, idx):
    """Example idx's inverted dropout masks in an epoch, from its own seeded stream.

    Model._dropout_masks asks once per example, for one block of all its masks.
    """
    rng = np.random.default_rng([config.seed, epoch, idx])
    return lambda shape: (rng.random(shape) >= config.dropout) / (1.0 - config.dropout)


def decode_split(model, dataset, split, beam=1, max_len=32):
    """Greedy/beam decode a split; returns realized token lists and modes."""
    outputs = []
    for example in dataset.examples(split):
        if beam == 1:
            tokens, modes = dec.greedy_decode(model, example, max_len=max_len)
        else:
            tokens, modes = dec.beam_decode(model, example, beam_width=beam, max_len=max_len)
        name = dataset.entities[dataset.kbvocab.token(example.fact.subject)].name
        outputs.append((dec.surface_realize(tokens, name), modes))
    return outputs


def score_split(model, dataset, split, max_len=32):
    """metrics.evaluate's report on a greedy decode of the split."""
    decoded = decode_split(model, dataset, split, max_len=max_len)
    return metrics.evaluate([tokens for tokens, _ in decoded], dataset.examples(split))


def _epoch_rng(seed, epoch):
    return Random(seed * 1_000_003 + epoch)


def train(config, dataset, kb_matrix=None, resume=None, log=None):
    """Full training run; returns best-valid and final checkpoints.

    Per epoch: seeded shuffle, one recorded graph and one reverse sweep per
    chunk of each batch, one RMSProp step per batch at lr0 * decay^epoch,
    then score_split on the validation split, whose BLEU-4 picks the best
    epoch. Without a validation split (absent or empty) the best checkpoint
    is the last one. A loss or gradient norm that is not finite, or a forward
    pass that raises NumericError, aborts with the last finite checkpoint.

    Every epoch's checkpoint but the last (by epochs or patience) is a copy;
    the last, like a run with no epoch to run, holds the model's and the
    optimizer's own arrays. None is taken before the first step: an abort
    in the first epoch rebuilds the one the run started from.
    """
    config.validate()
    train_examples = dataset.examples("train")
    for i, ex in enumerate(train_examples, 1):
        if len(ex.question) - 1 > config.max_len:  # one decoder step per token after BOS
            raise ConfigError(f"train example {i} ({dataset.kbvocab.fact_ids(ex.fact)}): its question has "
                              f"{len(ex.question) - 1} decoder steps, more than max_len={config.max_len}")
    if resume is None and kb_matrix is None and config.transe:
        kb_matrix = pretrain_kb(config, dataset)  # kept, should the first epoch abort
    model = (build_model(config, dataset, kb_matrix=kb_matrix) if resume is None
             else model_from_checkpoint(config, dataset, resume))
    optimizer = RMSProp(model.parameters())
    start_epoch = 0
    if resume is not None:
        check_fit("moment", resume.moments, {n: v.shape for n, v in optimizer.moments.items()})
        for name, v in optimizer.moments.items():
            v[...] = resume.moments[name]
        start_epoch = resume.epoch
    validate = bool(dataset.splits.get("valid"))
    history = []
    best = last = None
    best_bleu = -1.0
    stale = 0
    for epoch in range(start_epoch, config.epochs):
        lr = config.lr0 * config.lr_decay**epoch
        order = list(range(len(train_examples)))
        _epoch_rng(config.seed, epoch).shuffle(order)
        epoch_loss = 0.0
        diverged = False
        for batch_start in range(0, len(order), config.batch_size):
            batch = order[batch_start : batch_start + config.batch_size]
            for chunk_start in range(0, len(batch), CHUNK):
                chunk = batch[chunk_start : chunk_start + CHUNK]
                drops = [_dropout(config, epoch, idx) for idx in chunk] if config.dropout > 0 else None
                try:
                    total, breakdowns = batch_loss(model, [train_examples[i] for i in chunk], config, drops)
                except ad.NumericError:  # a forward-pass check met weights gone non-finite
                    diverged = True
                    break
                losses = [b.total_loss for b in breakdowns]
                if not all(map(math.isfinite, losses)):
                    diverged = True
                    break
                ad.backward(ad.scale(ad.sum_all(total), 1.0 / len(batch)))
                for loss in losses:  # in example order, so the sum rounds as one at a time
                    epoch_loss += loss
            if diverged or not math.isfinite(optimizer.step(lr, clip=config.grad_clip)):
                diverged = True
                break
        if diverged:
            if last is None:
                best = last = _start_checkpoint(config, dataset, kb_matrix, resume, model)
            return TrainResult(best=best, last=last, history=history, validated=validate, aborted=True)
        mean_loss = epoch_loss / max(len(train_examples), 1)
        bleu = score_split(model, dataset, "valid", max_len=config.max_len).bleu4 if validate else 0.0
        history.append((epoch + 1, mean_loss, bleu))
        if log is not None:
            log(*history[-1])
        improved = not validate or bleu > best_bleu
        stale = 0 if improved else stale + 1
        final = epoch + 1 == config.epochs or (config.patience and stale >= config.patience)
        last = _checkpoint(_weights(model), optimizer.moments, epoch + 1, config, copy=not final)
        if improved:
            best_bleu = bleu
            best = last
        if final:
            break
    if last is None:  # no epoch to run
        best = last = _checkpoint(_weights(model), optimizer.moments, start_epoch, config)
    return TrainResult(best=best, last=last, history=history, validated=validate)


def model_from_checkpoint(config, dataset, ckpt):
    """The model that ckpt's tensors describe under config's dims and switches.

    Every weight is a copy of ckpt.tensors: nothing is drawn, TransE does not
    run and no word-vector file is read. A tensor set that does not fit the
    model (missing, unknown or wrong-shape names) is one ConfigError. A
    config-hash difference alone is allowed: a run may resume under more
    epochs.
    """
    return _model(config, dataset, weights=ckpt.tensors)


# ---------------------------------------------------------------------------
# ablation grids
# ---------------------------------------------------------------------------

LAMBDA_GRID = (0.0, 0.05, 0.2, 0.5, 1.0)

# grid name -> (split it scores, cells); a cell is a name and the config keys it sets
GRIDS = {
    "lambda-transe": ("test", tuple(
        (f"{'transe' if transe else 'no_transe'}_lambda_{lam}", {"transe": transe, "lam": lam})
        for transe in (True, False) for lam in LAMBDA_GRID
    )),
    "components": ("valid", (
        ("full", {"diversified": True}),
        ("no_ctx_copy", {"use_ctx_copy": False, "diversified": True}),
        ("no_kb_copy", {"use_kb_copy": False, "diversified": True}),
        ("no_answer_loss", {"lam": 0.0, "diversified": True}),
        ("no_diversified_contexts", {"diversified": False}),
    )),
}


def ablate(config, load_dataset_fn, grid, seeds, log=None):
    """Run each cell of GRIDS[grid] for each seed; one row per cell and seed, in table order.

    A run trains config with the seed and the cell's keys set, rebuilds the
    model from its best checkpoint and reads BLEU-4 and answer coverage from
    score_split on the grid's split. ``load_dataset_fn(diversified)`` supplies
    the data, since that key changes the data itself; each distinct dataset
    is loaded once. TransE is pretrained at most once per seed and shared by
    the cells that use it: they all keep the same facts. Every seed (each
    given once) and the split are checked before the first cell trains.
    """
    split, cells = GRIDS[grid]
    runs = [(name, replace(config, seed=seed, **keys).validate()) for name, keys in cells for seed in seeds]
    repeated = next((seed for i, seed in enumerate(seeds) if seed in seeds[:i]), None)
    if repeated is not None:  # a mean over seeds would count it twice
        raise ConfigError(f"seed {repeated} is given more than once")
    datasets = {}
    for _, run_cfg in runs:
        if run_cfg.diversified not in datasets:
            datasets[run_cfg.diversified] = load_dataset_fn(run_cfg.diversified)
            datasets[run_cfg.diversified].examples(split)  # refuses a missing split
    kb_by_seed, rows = {}, []
    for name, run_cfg in runs:
        dataset = datasets[run_cfg.diversified]
        if run_cfg.transe and run_cfg.seed not in kb_by_seed:
            kb_by_seed[run_cfg.seed] = pretrain_kb(run_cfg, dataset)
        kb_matrix = kb_by_seed[run_cfg.seed] if run_cfg.transe else None
        model = model_from_checkpoint(run_cfg, dataset, train(run_cfg, dataset, kb_matrix).best)
        report = score_split(model, dataset, split, max_len=run_cfg.max_len)
        rows.append({"cell": name, "seed": run_cfg.seed, "bleu4": report.bleu4,
                     "answer_coverage": report.answer_coverage})
        if log is not None:
            log(rows[-1])
    return rows
