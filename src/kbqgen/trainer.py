"""RMSProp training with decreasing learning rate, checkpoints, ablations.

All randomness (shuffling, dropout masks, TransE negatives) derives from the
config seed plus epoch/example counters, so a run is reproducible bit-for-bit
in float64 and a checkpoint resume continues the exact trajectory.
"""

from __future__ import annotations

import hashlib
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
from .model import Model
from .textckpt import ConfigError

RHO = 0.9
EPSILON = 1e-8


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
    freeze_kb: bool = False
    transe_epochs: int = 40
    transe_margin: float = 1.0
    transe_lr: float = 0.01
    transe_neg: int = 1
    max_len: int = 40
    grad_clip: float = 5.0
    patience: int = 0
    min_freq: int = 2
    use_fusion: bool = True
    use_kb_copy: bool = True
    use_ctx_copy: bool = True
    diversified: bool = True
    question_only: bool = False
    word_vectors: str = ""
    dtype: str = "float64"
    profile: str = "desk"

    def validate(self):
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
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
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


_PAPER_PROFILE = {"d": 200, "heads": 4, "layers": 5, "batch_size": 200}

_KEY_ALIASES = {"lambda": "lam"}


def parse_config(path=None, text=None, overrides=None):
    """Parse key=value lines into a TrainConfig; unknown keys are rejected.

    ``profile=paper`` fills in paper-scale dims for any key not set
    explicitly. Explicit keys and overrides always win.
    """
    if text is None:
        text = ""
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
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
        parse_pair(line, f"line {lineno}")
    for raw in overrides or []:
        parse_pair(raw, "override")

    if seen.get("profile") == "paper":
        for key, value in _PAPER_PROFILE.items():
            seen.setdefault(key, value)
    return TrainConfig(**seen).validate()


class RMSProp:
    """v <- rho v + (1-rho) g^2; theta <- theta - lr g / (sqrt(v) + eps)."""

    def __init__(self, params, skip_names=()):
        self.params = list(params)
        self.skip = set(skip_names)
        self.moments = {p.name: np.zeros_like(p.value.data) for p in self.params}

    def step(self, lr, clip=0.0):
        """One update; returns the global gradient norm, before clipping.

        A norm that is not finite touches no weight and no moment.
        """
        norm_sq = 0.0
        for p in self.params:
            if p.name in self.skip:
                continue
            norm_sq += float((p.grad * p.grad).sum())
        norm = math.sqrt(norm_sq)
        if not math.isfinite(norm):
            return norm
        if 0.0 < clip < norm:
            factor = clip / norm
            for p in self.params:
                p.value.grad *= factor
        for p in self.params:
            if p.name not in self.skip:
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
    best: Checkpoint
    last: Checkpoint
    history: list  # (epoch, train loss, valid bleu4)
    validated: bool  # False without a valid split: best is then the last checkpoint
    aborted: bool = False


def save_checkpoint(ckpt, path):
    header = [("epoch", ckpt.epoch), ("confighash", ckpt.config_hash)]
    header += [("config", line) for line in ckpt.config_text.splitlines() if line]
    blocks = [(f"tensor/{name}", arr) for name, arr in ckpt.tensors.items()]
    blocks += [(f"moment/{name}", arr) for name, arr in ckpt.moments.items()]
    textckpt.write(path, "kbqgen-model", header, blocks)


def load_checkpoint(path):
    header, blocks = textckpt.read(path, "kbqgen-model")
    tensors = {b[len("tensor/"):]: arr for b, arr in blocks.items() if b.startswith("tensor/")}
    moments = {b[len("moment/"):]: arr for b, arr in blocks.items() if b.startswith("moment/")}
    if len(tensors) + len(moments) != len(blocks):
        raise ConfigError(f"{path}: a block named neither tensor/<name> nor moment/<name>")
    return Checkpoint(
        tensors=tensors, moments=moments,
        epoch=textckpt.field(path, header, "epoch", int),
        config_hash=textckpt.field(path, header, "confighash"),
        config_text="".join(line + "\n" for line in header.get("config", ())),
    )


def _snapshot(model, optimizer, epoch, config):
    return Checkpoint(
        tensors={name: p.value.data.copy() for name, p in model.registry.items()},
        moments={name: v.copy() for name, v in optimizer.moments.items()},
        epoch=epoch,
        config_hash=config.hash(),
        config_text=config.canonical_text(),
    )


def _restore(model, ckpt, optimizer=None):
    """Copy a checkpoint's tensors, and with an optimizer its moments, in place.

    Refuses unknown or missing names and wrong shapes before it writes
    anything. A config-hash difference alone is allowed: a run may resume
    under more epochs.
    """
    targets = [("tensor", ckpt.tensors, {n: p.value.data for n, p in model.registry.items()})]
    if optimizer is not None:
        targets.append(("moment", ckpt.moments, optimizer.moments))
    for kind, source, dest in targets:
        missing, unknown = sorted(dest.keys() - source.keys()), sorted(source.keys() - dest.keys())
        wrong = [f"{n} {a.shape}" for n, a in source.items() if n in dest and a.shape != dest[n].shape]
        if missing or unknown or wrong:
            raise ConfigError(f"checkpoint {kind}s do not fit this model: missing {missing}, "
                              f"unknown {unknown}, wrong shape {wrong}")
    for _, source, dest in targets:
        for name, arr in source.items():
            dest[name][...] = arr


def load_word_vectors(path, vocab, d):
    """Pretrained vectors for the in-vocabulary tokens of a word-vector file.

    One token per line, then d whitespace-separated decimals. Lines with
    fewer than two fields and rows for tokens outside `vocab` are skipped
    unread; an in-vocabulary row that is not exactly d finite numbers is
    refused with a ConfigError naming the file and line.
    """
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
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
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return vectors


def build_model(config, dataset, kb_matrix=None):
    """Model for a dataset per config; pretrains TransE when asked."""
    if kb_matrix is None and config.transe:
        triples = [
            (ex.fact.subject, ex.fact.predicate, ex.fact.object)
            for split in sorted(dataset.splits)
            for ex in dataset.splits[split]
        ]
        kb_matrix = kbembed.pretrain_transe(
            triples, dataset.kbvocab, d=config.d,
            margin=config.transe_margin, lr=config.transe_lr,
            epochs=config.transe_epochs, neg_per_pos=config.transe_neg,
            seed=config.seed,
        )
    vectors = (
        load_word_vectors(config.word_vectors, dataset.vocab, config.d)
        if config.word_vectors else None
    )
    return Model(
        dataset.vocab, dataset.kbvocab,
        d=config.d, heads=config.heads, layers=config.layers, seed=config.seed,
        max_len=config.max_len,
        kb_table=kb_matrix.table if kb_matrix is not None else None,
        word_vectors=vectors,
        use_fusion=config.use_fusion, use_kb_copy=config.use_kb_copy,
        use_ctx_copy=config.use_ctx_copy, dtype=config.np_dtype(),
    )


def example_loss(model, example, config, drop=None):
    """Total loss tensor plus breakdown for one teacher-forced example."""
    result = model.forward_example(example, drop=drop)
    ques = obj.question_loss(result.distributions, result.gold_ext_ids)
    if config.question_only:
        breakdown = obj.LossBreakdown(
            ques_loss=ques.item(), ans_loss=0.0, total_loss=ques.item(), argmin_pair=None
        )
        return ques, breakdown
    ans, pair = obj.answer_loss(result.distributions, result.answer_ext_ids)
    total = obj.total_loss(ques, ans, config.lam)
    return total, obj.LossBreakdown(
        ques_loss=ques.item(), ans_loss=ans.item(), total_loss=total.item(), argmin_pair=pair
    )


def decode_split(model, dataset, split, beam=1, max_len=32):
    """Greedy/beam decode a split; returns realized token lists and modes."""
    outputs = []
    for example in dataset.examples(split):
        if beam <= 1:
            tokens, modes = dec.greedy_decode(model, example, max_len=max_len)
        else:
            tokens, modes = dec.beam_decode(model, example, beam_width=beam, max_len=max_len)
        name = dataset.entities[dataset.kbvocab.token(example.fact.subject)].name
        realized = dec.surface_realize(tokens, name).split()
        outputs.append((realized, modes))
    return outputs


def valid_bleu(model, dataset, split="valid", max_len=32):
    decoded = decode_split(model, dataset, split, max_len=max_len)
    return metrics.bleu4(
        [tokens for tokens, _ in decoded],
        [list(ex.raw_question_words) for ex in dataset.examples(split)],
    )


def _epoch_rng(seed, epoch):
    return Random(seed * 1_000_003 + epoch)


def train(config, dataset, kb_matrix=None, resume=None, log=None):
    """Full training run; returns best-valid and final checkpoints.

    Per epoch: seeded shuffle, gradient accumulation over each batch, one
    RMSProp step per batch at lr0 * decay^epoch, then greedy BLEU-4 on the
    validation split. Without a validation split (absent or empty) the best
    checkpoint is the last one. A loss or gradient norm that is not finite
    aborts with the last finite checkpoint.
    """
    config.validate()
    model = build_model(config, dataset, kb_matrix=kb_matrix)
    optimizer = RMSProp(
        model.parameters(), skip_names=("kb_emb",) if config.freeze_kb else ()
    )
    start_epoch = 0
    if resume is not None:
        _restore(model, resume, optimizer)
        start_epoch = resume.epoch
    train_examples = dataset.examples("train")
    validate = bool(dataset.splits.get("valid"))
    history = []
    last = _snapshot(model, optimizer, start_epoch, config)
    best = last
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
            model.zero_grads()
            for idx in batch:
                drop = None
                if config.dropout > 0:
                    rng = np.random.default_rng([config.seed, epoch, idx])
                    # inverted dropout masks, drawn in the order the sublayers ask
                    drop = lambda shape, r=rng: (
                        (r.random(shape) >= config.dropout) / (1.0 - config.dropout)
                    )
                total, breakdown = example_loss(model, train_examples[idx], config, drop=drop)
                if not math.isfinite(breakdown.total_loss):
                    diverged = True
                    break
                ad.backward(ad.scale(total, 1.0 / len(batch)))
                epoch_loss += breakdown.total_loss
            if diverged or not math.isfinite(optimizer.step(lr, clip=config.grad_clip)):
                diverged = True
                break
        if diverged:
            return TrainResult(best=best, last=last, history=history, validated=validate, aborted=True)
        mean_loss = epoch_loss / max(len(train_examples), 1)
        bleu = valid_bleu(model, dataset, max_len=config.max_len) if validate else 0.0
        history.append((epoch, mean_loss, bleu))
        if log is not None:
            log(epoch, mean_loss, bleu)
        last = _snapshot(model, optimizer, epoch + 1, config)
        if not validate or bleu > best_bleu:
            best_bleu = bleu
            best = last
            stale = 0
        else:
            stale += 1
            if config.patience and stale >= config.patience:
                break
    return TrainResult(best=best, last=last, history=history, validated=validate)


def model_from_checkpoint(config, dataset, ckpt):
    model = build_model(replace(config, transe=False), dataset)
    _restore(model, ckpt)
    return model


# ---------------------------------------------------------------------------
# ablation grids
# ---------------------------------------------------------------------------

LAMBDA_GRID = (0.0, 0.05, 0.2, 0.5, 1.0)

COMPONENT_VARIANTS = (
    ("full", {}),
    ("no_ctx_copy", {"use_ctx_copy": False}),
    ("no_kb_copy", {"use_kb_copy": False}),
    ("no_answer_loss", {"question_only": True}),
    ("no_diversified_contexts", {"diversified": False}),
)


def ablate_lambda_transe(config, dataset, lambdas=LAMBDA_GRID, transe_options=(True, False),
                         split="test", log=None):
    """Grid over answer-loss weight x TransE init; BLEU-4 and coverage per cell."""
    examples = dataset.examples(split)
    rows = []
    for use_transe in transe_options:
        for lam in lambdas:
            run_cfg = replace(config, lam=lam, transe=use_transe)
            model = model_from_checkpoint(run_cfg, dataset, train(run_cfg, dataset).best)
            tokens = [t for t, _ in decode_split(model, dataset, split, max_len=config.max_len)]
            bleu = metrics.bleu4(tokens, [list(ex.raw_question_words) for ex in examples])
            coverage = metrics.answer_coverage(tokens, [set(ex.answer_type_words) for ex in examples])
            rows.append({"transe": use_transe, "lambda": lam, "bleu4": bleu, "answer_coverage": coverage})
            if log is not None:
                log(rows[-1])
    return rows


def ablate_components(config, load_dataset_fn, seeds=(0, 1, 2), split="valid", log=None):
    """Single-component ablations; per-variant median valid BLEU over seeds.

    ``load_dataset_fn(diversified)`` supplies the dataset, since dropping
    diversified contexts changes the data itself, not just the model.
    """
    rows = []
    for name, flags in COMPONENT_VARIANTS:
        flags = {"diversified": True, **flags}
        dataset = load_dataset_fn(flags["diversified"])
        dataset.examples(split)  # refuse a missing split before any training
        bleus = []
        for seed in seeds:
            run_cfg = replace(config, seed=seed, **flags)
            model = model_from_checkpoint(run_cfg, dataset, train(run_cfg, dataset).best)
            bleus.append(valid_bleu(model, dataset, split, max_len=config.max_len))
        rows.append({"variant": name, "bleu4_median": float(np.median(bleus)), "bleu4_runs": bleus})
        if log is not None:
            log(rows[-1])
    return rows
