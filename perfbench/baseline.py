"""Reproduce the ROADMAP's ad-hoc baseline table with this harness.

    python3 perfbench/baseline.py --seed 3 --out perfbench/results/baseline.json

Runs each workload untraced and traced (one process each, through run.py) and
adds the two rows no workload covers: a desk epoch that includes its
validation decode, and the paper profile's forward/backward per example on
the desk corpus. Prints a markdown table of the ROADMAP figure next to this
harness's figure for every row, and writes every number to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts the checkout's src/ on sys.path
import suite
from harness import WORKLOADS, clock, make_config, make_corpus, set_up, with_splits
from kbqgen import autodiff as ad
from kbqgen import trainer

EXAMPLES = 12  # examples timed for the per-example forward/backward row


def desk_epoch(seed, data_dir):
    """One desk epoch with and without its validation greedy decode, in s."""
    cfg = make_config(WORKLOADS["desk-train"], seed)
    setup = set_up(cfg, data_dir)
    ds = setup.dataset
    times = {}
    for name, view in (("with_valid", ds), ("train_only", with_splits(ds, train=ds.examples("train"), valid=[]))):
        t0 = clock()
        trainer.train(cfg, view, kb_matrix=setup.kb_matrix)
        times[name] = clock() - t0
    return times


def paper_on_desk_corpus(seed, data_dir):
    """Paper-profile forward (loss included) and backward per example, in ms."""
    cfg = make_config(WORKLOADS["paper"], seed)
    setup = set_up(cfg, data_dir)
    fwd, bwd = [], []
    for ex in setup.dataset.examples("train")[:EXAMPLES]:
        t0 = clock()
        total, _ = trainer.example_loss(setup.model, ex, cfg)
        t1 = clock()
        ad.backward(total)
        t2 = clock()
        setup.model.zero_grads()
        fwd.append(1000 * (t1 - t0))
        bwd.append(1000 * (t2 - t1))
    return {"fwd_ms": statistics.median(fwd), "bwd_ms": statistics.median(bwd)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            record, result = suite.run_once(name, args.seed, args.seconds, trace)
            if not result["correct"]:
                raise SystemExit(f"{name} trace={trace} failed: {record['failures']}")
            runs.setdefault(name, {}).update({m: v["value"] for m, v in result["metrics"].items()})
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        desk_dir = Path(tmp) / "desk"
        make_corpus(WORKLOADS["desk-train"], args.seed, desk_dir)
        epoch = desk_epoch(args.seed, desk_dir)
        paper_desk = paper_on_desk_corpus(args.seed, desk_dir)

    desk, paper = runs["desk-train"], runs["paper"]
    rows = [
        ("Desk dims: forward / backward per example", "3.8 / 4.6 ms",
         f"{desk['model.fwd_ms'] + desk['objective.fwd_ms']:.1f} / {desk['autodiff.backward_ms']:.1f} ms",
         "desk-train traced: model.fwd_ms + objective.fwd_ms, autodiff.backward_ms"),
        ("Desk dims: one epoch, of which validation greedy decode", "2.0 s, 0.75 s",
         f"{epoch['with_valid']:.2f} s, {epoch['with_valid'] - epoch['train_only']:.2f} s",
         "trainer.train for one epoch with and without the valid split"),
        ("Desk dims, untrained model to max_len 40: greedy / beam-3", "20 / 50 ms per example",
         f"{desk['greedy_ms_per_ex']:.1f} / {desk['beam3_ms_per_ex']:.1f} ms per example",
         "desk-train: greedy_ms_per_ex, beam3_ms_per_ex"),
        ("Paper profile, desk corpus: forward / backward per example", "29 / 104 ms",
         f"{paper_desk['fwd_ms']:.0f} / {paper_desk['bwd_ms']:.0f} ms",
         f"trainer.example_loss and ad.backward, median of {EXAMPLES} examples"),
        ("Paper profile, vocab 2,027: forward + backward", "129 ms per example",
         f"{1000 / paper['train_ex_per_s']:.0f} ms per example "
         f"({paper['model.fwd_ms'] + paper['objective.fwd_ms']:.0f} + {paper['autodiff.backward_ms']:.0f})",
         "paper: 1 / train_ex_per_s; traced model.fwd_ms + objective.fwd_ms, autodiff.backward_ms"),
        ("Paper profile: text checkpoint size, save, load", "119 MB, 9.3 s, 2.8 s",
         f"{paper['trainer.ckpt_mb']:.0f} MB, {paper['ckpt_save_s']:.1f} s, {paper['ckpt_load_s']:.1f} s",
         "paper: trainer.ckpt_mb, ckpt_save_s, ckpt_load_s (load includes model_from_checkpoint)"),
        ("Paper profile, untrained, vocab 2,027: greedy / beam-3", "not in the table",
         f"{paper['greedy_ms_per_ex']:.0f} / {paper['beam3_ms_per_ex']:.0f} ms per example",
         "paper: greedy_ms_per_ex, beam3_ms_per_ex"),
    ]
    print("| Measurement | ROADMAP (ad hoc) | This harness | Source |")
    print("|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        report = {
            "seed": args.seed, "seconds": args.seconds,
            "workloads": runs, "desk_epoch_s": epoch, "paper_on_desk_corpus": paper_desk,
            "rows": [dict(zip(("measurement", "roadmap", "harness", "source"), r)) for r in rows],
            "environment": run.environment(),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
