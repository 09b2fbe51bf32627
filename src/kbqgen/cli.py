"""Batch command-line interface for the whole pipeline.

Subcommands: synth, train, generate, eval, gradcheck, ablate.
Every command is deterministic for a fixed --seed (--seeds for ablate, 64-bit
mode) and writes only under its --out/--out-dir. Exit codes: 0 success, 1
runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import autodiff as ad
from . import corpus as cp
from . import metrics
from . import trainer as tr
from .model import Model


def _config_from_args(args, extra_overrides=()):
    overrides = [*extra_overrides, *(getattr(args, "set", None) or [])]
    for key in ("lam", "transe", "seed"):  # the --lambda, --transe and --seed flags
        if getattr(args, key, None) is not None:
            overrides.append(f"{key}={getattr(args, key)}")
    return tr.parse_config(path=getattr(args, "config", None), overrides=overrides)


def cmd_synth(args):
    corpus = cp.synth_corpus(args.seed, args.entities, args.predicates, args.facts)
    cp.write_corpus(corpus, args.out_dir)
    n = {split: len(rows) for split, rows in corpus.fact_rows.items()}
    print(f"wrote corpus to {args.out_dir}: " + " ".join(f"{k}={v}" for k, v in n.items()))
    if sum(n.values()) < args.facts:
        print(f"synth: asked for {args.facts} facts, wrote {sum(n.values())}: "
              "the draw found no more distinct facts", file=sys.stderr)
    return 0


def cmd_train(args):
    cfg = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = cp.load_dataset(args.data_dir, diversified=cfg.diversified, min_freq=cfg.min_freq)

    def line(epoch, loss, bleu):
        return f"{epoch}\t{loss:.6f}\t{bleu:.4f}"

    result = tr.train(cfg, dataset, log=lambda *row: print(line(*row)))
    (out_dir / "train_log.tsv").write_text("".join(line(*row) + "\n" for row in result.history),
                                           encoding="utf-8")
    (out_dir / "config.txt").write_text(cfg.canonical_text(), encoding="utf-8")
    tr.save_checkpoint(result.best, out_dir / "model.ckpt")
    if result.aborted:
        print("training diverged; kept last finite checkpoint", file=sys.stderr)
        return 1
    if result.validated:
        best_epoch = result.best.epoch
        best_bleu = next((bleu for epoch, _, bleu in result.history if epoch == best_epoch), 0.0)
        print(f"best valid BLEU-4 {best_bleu:.4f} at epoch {best_epoch}; checkpoint in {out_dir}")
    else:
        print("no validation ran (no facts.valid.tsv examples); saved the last epoch's checkpoint",
              file=sys.stderr)
        print(f"checkpoint of epoch {result.best.epoch} in {out_dir}")
    return 0


def cmd_generate(args):
    if args.beam < 1:
        raise tr.ConfigError(f"--beam must be at least 1, got {args.beam}")
    ckpt = tr.load_checkpoint(args.checkpoint)
    try:
        cfg = tr.parse_config(text=ckpt.config_text)
    except tr.ConfigError as exc:  # its line numbers count config lines, not lines of the file
        raise tr.ConfigError(f"{args.checkpoint}: config {exc}") from None
    dataset = cp.load_dataset(args.data_dir, diversified=cfg.diversified, min_freq=cfg.min_freq)
    model = tr.model_from_checkpoint(cfg, dataset, ckpt)
    decoded = tr.decode_split(model, dataset, args.split, beam=args.beam, max_len=cfg.max_len)
    lines = [
        f"{dataset.kbvocab.fact_ids(example.fact)}\t{' '.join(realized)}\t{modes}"
        for example, (realized, modes) in zip(dataset.examples(args.split), decoded)
    ]
    Path(args.out).write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    print(f"wrote {len(lines)} generations to {args.out}")
    return 0


def cmd_eval(args):
    if args.annotation_size < 0:
        raise tr.ConfigError(f"--annotation-size must be >= 0, got {args.annotation_size}")
    dataset = cp.load_dataset(args.data_dir)
    examples = dataset.examples(args.split)
    lines = cp.read_utf8(args.generations).splitlines()
    if len(lines) != len(examples):
        raise cp.IngestionError(
            f"{args.generations}: {len(lines)} lines for {len(examples)} {args.split} examples"
        )
    candidates, ann_rows = [], []
    for i, (line, example) in enumerate(zip(lines, examples), 1):
        parts = line.split("\t")
        if len(parts) < 2:
            raise cp.IngestionError(f"{args.generations}:{i}: expected fact<TAB>question")
        fact_ids = dataset.kbvocab.fact_ids(example.fact)
        if parts[0] != fact_ids:
            raise cp.IngestionError(
                f"{args.generations}:{i}: fact ids {parts[0]!r} do not match split ({fact_ids!r})"
            )
        candidates.append(parts[1].split())
        ann_rows.append((parts[0], " ".join(example.contexts.predicate_words), parts[1]))
    report = metrics.evaluate(candidates, examples)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(metrics.report_table(report) + "\n", encoding="utf-8")
    (out_dir / "report.tsv").write_text(
        "".join(l + "\n" for l in metrics.report_lines(report)), encoding="utf-8"
    )
    per_example = ["candidate\treference\tcovered\tmatched_answer_word"]
    for rec in report.records:
        per_example.append(
            f"{rec.candidate}\t{rec.reference}\t{int(rec.covered)}\t{rec.matched_answer_word or ''}"
        )
    (out_dir / "per_example.tsv").write_text(
        "".join(l + "\n" for l in per_example), encoding="utf-8"
    )
    metrics.export_annotation_sample(
        ann_rows, n=min(args.annotation_size, len(ann_rows)), seed=args.seed,
        path=out_dir / "annotation_sample.tsv",
    )
    print(metrics.report_table(report))
    return 0


def _gradcheck_fixture(cfg):
    """Tiny deterministic instance: |V|=30, 3-token contexts."""
    words = [f"w{i}" for i in range(25)]
    vocab = cp.Vocab(words)
    assert len(vocab) == 30
    kbvocab = cp.KBVocab(["e0", "e1", "e2"], ["p0"])
    words = (("w1", "w2", "w3"), ("w4", "w2", "w5"), ("w6", "w7", "w2"))  # subject, predicate, object
    contexts = cp.ContextSet(*words, *map(vocab.ids, words))
    question = ("w1", "w4", "<subj>", "w6", "?")
    example = cp.Example(  # the question as substituted and as written are the same
        cp.Fact(0, 3, 2), contexts, (cp.BOS, *vocab.ids(question), cp.EOS), question, question,
        answer_type_words=("w2", "w6"),
        subject_span=(2, 1),
    )
    model = Model(
        vocab, kbvocab, d=cfg.d, heads=cfg.heads, layers=cfg.layers,
        seed=cfg.seed, max_len=cfg.max_len, init_range=0.5,
        use_kb_copy=cfg.use_kb_copy, use_ctx_copy=cfg.use_ctx_copy,
    )
    return model, example


def cmd_gradcheck(args):
    cfg = _config_from_args(args, extra_overrides=["d=8", "heads=2", "layers=1"])
    if cfg.dtype != "float64":
        raise tr.ConfigError(f"gradcheck runs in float64 only: finite differences are not "
                             f"trustworthy in {cfg.dtype}")
    model, example = _gradcheck_fixture(cfg)

    def f():
        total, _ = tr.example_loss(model, example, cfg)
        return total

    worst = ad.grad_check(f, model.parameters(), eps=1e-5)
    print(f"gradcheck worst relative error {worst:.3e} over "
          f"{sum(p.value.data.size for p in model.parameters())} coordinates")
    return 0 if worst < 1e-4 else 1


def _seeds(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise tr.ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None


def cmd_ablate(args):
    cfg = _config_from_args(args)

    def load(diversified):
        return cp.load_dataset(args.data_dir, diversified=diversified, min_freq=cfg.min_freq)

    rows = tr.ablate(cfg, load, args.grid, _seeds(args.seeds), log=lambda r: print(_fmt_row(r)))
    lines = ["cell\tseed\tbleu4\tanswer_coverage"]
    lines += [f"{r['cell']}\t{r['seed']}\t{r['bleu4']:.4f}\t{r['answer_coverage']:.4f}" for r in rows]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"ablate_{args.grid.replace('-', '_')}.tsv").write_text(
        "".join(l + "\n" for l in lines), encoding="utf-8"
    )
    print(f"wrote ablation table to {out_dir}")
    return 0


def _fmt_row(row):
    return "  ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items())


def build_parser():
    parser = argparse.ArgumentParser(prog="kbqgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entities", type=int, default=24)
    p.add_argument("--predicates", type=int, default=8)
    p.add_argument("--facts", type=int, default=90)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train the question generator")
    p.add_argument("--config")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--transe", choices=["on", "off"])
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="decode a data split with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=1)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("eval", help="score a generation file against a split")
    p.add_argument("--generations", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--annotation-size", type=int, default=20)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run an ablation grid")
    p.add_argument("--config")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--grid", choices=["lambda-transe", "components"], default="lambda-transe")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds, each run on every cell")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (tr.ConfigError, cp.IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ad.ContractError, ad.ShapeError, ad.NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
