"""Batch command-line interface for the whole pipeline.

Subcommands: synth, pretrain-kb, train, generate, eval, gradcheck, ablate.
Every command is deterministic for a fixed --seed (64-bit mode) and writes
only under its --out/--out-dir. Exit codes: 0 success, 1 runtime failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import autodiff as ad
from . import corpus as cp
from . import kbembed
from . import metrics
from . import trainer as tr
from .model import Model


def _config_from_args(args, extra_overrides=()):
    overrides = list(extra_overrides)
    for item in getattr(args, "set", None) or []:
        overrides.append(item)
    if getattr(args, "lam", None) is not None:
        overrides.append(f"lam={args.lam}")
    if getattr(args, "transe", None) is not None:
        overrides.append(f"transe={args.transe}")
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    return tr.parse_config(path=getattr(args, "config", None), overrides=overrides)


def cmd_synth(args):
    corpus = cp.synth_corpus(args.seed, args.entities, args.predicates, args.facts)
    cp.write_corpus(corpus, args.out_dir)
    n = {split: len(rows) for split, rows in corpus.fact_rows.items()}
    print(f"wrote corpus to {args.out_dir}: " + " ".join(f"{k}={v}" for k, v in n.items()))
    return 0


def _fact_files(path):
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("facts.*.tsv"))
        if not files:
            raise cp.IngestionError(f"{path}: no facts.*.tsv files")
        return path, files
    return path.parent, [path]


def cmd_pretrain_kb(args):
    cfg = _config_from_args(args)
    data_dir, fact_files = _fact_files(args.facts)
    entities, predicates, kbvocab = cp.load_kb(
        data_dir / "entities.tsv", data_dir / "predicates.tsv"
    )
    triples = [fact for path in fact_files for fact, _question in cp.load_facts(path, kbvocab)]
    emb = kbembed.pretrain_transe(
        triples, kbvocab, d=cfg.d, margin=cfg.transe_margin, lr=cfg.transe_lr,
        epochs=cfg.transe_epochs, neg_per_pos=cfg.transe_neg, seed=cfg.seed,
    )
    kbembed.save_checkpoint(emb, args.out)
    print(f"pretrained KB embeddings on {len(triples)} triples -> {args.out}")
    print(f"final epoch loss {emb.epoch_losses[-1]:.6f}" if emb.epoch_losses else "no epochs run")
    return 0


def cmd_train(args):
    cfg = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = cp.load_dataset(args.data_dir, diversified=cfg.diversified, min_freq=cfg.min_freq)
    log_lines = []

    def log(epoch, loss, bleu):
        log_lines.append(f"{epoch}\t{loss:.6f}\t{bleu:.4f}")
        print(log_lines[-1])

    result = tr.train(cfg, dataset, log=log)
    (out_dir / "train_log.tsv").write_text("".join(l + "\n" for l in log_lines), encoding="utf-8")
    (out_dir / "config.txt").write_text(cfg.canonical_text(), encoding="utf-8")
    tr.save_checkpoint(result.best, out_dir / "model.ckpt")
    if result.aborted:
        print("training diverged; kept last finite checkpoint", file=sys.stderr)
        return 1
    if result.validated:
        best_epoch, _, best_bleu = max(result.history, key=lambda h: h[2]) if result.history else (0, 0, 0)
        print(f"best valid BLEU-4 {best_bleu:.4f} at epoch {best_epoch}; checkpoint in {out_dir}")
    else:
        print("no validation ran (no facts.valid.tsv examples); saved the last epoch's checkpoint",
              file=sys.stderr)
        print(f"checkpoint of epoch {result.best.epoch} in {out_dir}")
    return 0


def _fact_ids(dataset, example):
    fact = example.fact
    return " ".join(dataset.kbvocab.token(i) for i in (fact.subject, fact.predicate, fact.object))


def cmd_generate(args):
    ckpt = tr.load_checkpoint(args.checkpoint)
    cfg = tr.parse_config(text=ckpt.config_text)
    dataset = cp.load_dataset(args.data_dir, diversified=cfg.diversified, min_freq=cfg.min_freq)
    model = tr.model_from_checkpoint(cfg, dataset, ckpt)
    decoded = tr.decode_split(model, dataset, args.split, beam=args.beam, max_len=cfg.max_len)
    lines = [
        f"{_fact_ids(dataset, example)}\t{' '.join(realized)}\t{modes}"
        for example, (realized, modes) in zip(dataset.examples(args.split), decoded)
    ]
    Path(args.out).write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    print(f"wrote {len(lines)} generations to {args.out}")
    return 0


def cmd_eval(args):
    dataset = cp.load_dataset(args.data_dir)
    examples = dataset.examples(args.split)
    lines = Path(args.generations).read_text(encoding="utf-8").splitlines()
    if len(lines) != len(examples):
        raise cp.IngestionError(
            f"{args.generations}: {len(lines)} lines for {len(examples)} {args.split} examples"
        )
    candidates, ann_rows = [], []
    for i, (line, example) in enumerate(zip(lines, examples), 1):
        parts = line.split("\t")
        if len(parts) < 2:
            raise cp.IngestionError(f"{args.generations}:{i}: expected fact<TAB>question")
        fact_ids = _fact_ids(dataset, example)
        if parts[0] != fact_ids:
            raise cp.IngestionError(
                f"{args.generations}:{i}: fact ids {parts[0]!r} do not match split ({fact_ids!r})"
            )
        candidates.append(parts[1].split())
        ann_rows.append((parts[0], " ".join(example.contexts.predicate_words), parts[1]))
    references = [list(ex.raw_question_words) for ex in examples]
    answer_sets = [set(ex.answer_type_words) for ex in examples]
    report = metrics.evaluate(candidates, references, answer_sets)

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
    contexts = cp.ContextSet(
        subject_words=("w1", "w2", "w3"),
        predicate_words=("w4", "w2", "w5"),
        object_words=("w6", "w7", "w2"),
        subject_ids=tuple(vocab.id(t) for t in ("w1", "w2", "w3")),
        predicate_ids=tuple(vocab.id(t) for t in ("w4", "w2", "w5")),
        object_ids=tuple(vocab.id(t) for t in ("w6", "w7", "w2")),
    )
    question = ("w1", "w4", "<subj>", "w6", "?")
    example = cp.Example(
        fact=cp.Fact(0, 3, 2),
        contexts=contexts,
        question=(cp.BOS,) + tuple(vocab.id(t) for t in question) + (cp.EOS,),
        question_words=question,
        raw_question_words=question,
        answer_type_words=("w2", "w6"),
        subject_span=(2, 1),
    )
    model = Model(
        vocab, kbvocab, d=cfg.d, heads=cfg.heads, layers=cfg.layers,
        seed=cfg.seed, max_len=cfg.max_len, init_range=0.5,
    )
    return model, example


def cmd_gradcheck(args):
    cfg = _config_from_args(args, extra_overrides=["d=8", "heads=2", "layers=1"])
    model, example = _gradcheck_fixture(cfg)

    def f():
        total, _ = tr.example_loss(model, example, cfg)
        return total

    worst = ad.grad_check(f, model.parameters(), eps=1e-5)
    print(f"gradcheck worst relative error {worst:.3e} over "
          f"{sum(p.value.data.size for p in model.parameters())} coordinates")
    return 0 if worst < 1e-4 else 1


def cmd_ablate(args):
    cfg = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [0, 1, 2]
    if args.grid == "lambda-transe":
        dataset = cp.load_dataset(args.data_dir, diversified=cfg.diversified, min_freq=cfg.min_freq)
        rows = tr.ablate_lambda_transe(cfg, dataset, log=lambda r: print(_fmt_row(r)))
        header = "transe\tlambda\tbleu4\tanswer_coverage"
        body = [
            f"{str(r['transe']).lower()}\t{r['lambda']}\t{r['bleu4']:.4f}\t{r['answer_coverage']:.4f}"
            for r in rows
        ]
        (out_dir / "ablate_lambda_transe.tsv").write_text(
            "".join(l + "\n" for l in [header] + body), encoding="utf-8"
        )
    else:
        def load(diversified):
            return cp.load_dataset(args.data_dir, diversified=diversified, min_freq=cfg.min_freq)

        rows = tr.ablate_components(cfg, load, seeds=seeds, log=lambda r: print(_fmt_row(r)))
        header = "variant\tbleu4_median\tbleu4_runs"
        body = [
            f"{r['variant']}\t{r['bleu4_median']:.4f}\t"
            + ",".join(f"{b:.4f}" for b in r["bleu4_runs"])
            for r in rows
        ]
        (out_dir / "ablate_components.tsv").write_text(
            "".join(l + "\n" for l in [header] + body), encoding="utf-8"
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

    p = sub.add_parser("pretrain-kb", help="TransE-pretrain the KB embedding table")
    p.add_argument("--config")
    p.add_argument("--facts", required=True, help="corpus dir or a facts TSV file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_pretrain_kb)

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
    p.add_argument("--seeds", help="comma-separated seeds for the components grid")
    p.add_argument("--seed", type=int)
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
