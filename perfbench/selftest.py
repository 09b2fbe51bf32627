"""Self-test of the benchmark harness; runs in well under a minute.

    python3 perfbench/selftest.py

1. A smoke run of every workload, untraced and traced, at a tiny size: every
   metric named in BENCHMARK.json is emitted with its unit and every check
   passes.
2. Injected faults (a truncated checkpoint, a mode string one character
   short on decodes that include a two-word subject) are counted in
   ``failed`` and do not crash the harness.
3. In a directory holding only BENCHMARK.json and this directory, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # pins BLAS threads and puts the checkout's src/ on sys.path
from harness import WORKLOADS, make_corpus
from kbqgen import corpus, trainer
from kbqgen import decoder as dec

TINY_CONFIG = ("d=8", "heads=2", "layers=1", "batch_size=4", "transe_epochs=2")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    return replace(
        workload, config=workload.config + TINY_CONFIG, corpus_size=(12, 4, 40),
        train_examples=8, decode_examples=2, probe_examples=1, probe_repeats=1,
    )


def check_smoke():
    for workload in WORKLOADS.values():
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            record, result = run.run_workload(tiny(workload), 1, 0.2, trace, SPEC)
            where = f"{workload.name} trace={trace}"
            assert result["correct"] and result["failed"] == 0, (where, record["failures"])
            assert result["attempted"] >= 1, where
            for m in wanted:
                got = result["metrics"].get(m["name"])
                assert got is not None, (where, m["name"], record["absent"].get(m["name"]))
                assert got["unit"] == m["unit"] and isinstance(got["value"], float), (where, got)
            print(f"ok smoke {where}: {len(result['metrics'])} metrics, {result['attempted']} ops")


def with_fault(module, attr, make):
    """Run tiny desk-train with module.<attr> replaced by make(original)."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        return run.run_workload(tiny(WORKLOADS["desk-train"]), 1, 0.2, 0, SPEC)
    finally:
        setattr(module, attr, original)


def decoded_subject_names(workload, seed):
    """Subject names of the test examples a run of the workload decodes."""
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        make_corpus(workload, seed, Path(tmp))
        ds = corpus.load_dataset(Path(tmp))
        return [ds.entities[ds.kbvocab.token(ex.fact.subject)].name
                for ex in ds.examples("test")[: workload.decode_examples]]


def check_faults():
    def truncating(save):
        def save_truncated(ckpt, path):
            save(ckpt, path)
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[: len(data) // 2])
        return save_truncated

    record, result = with_fault(trainer, "save_checkpoint", truncating)
    # each round's load fails, one operation each, and nothing else does
    assert not result["correct"] and result["failed"] == len(record["failures"]) >= 1, result
    assert all(f.startswith("checkpoint load") for f in record["failures"]), record["failures"]
    print(f"ok fault truncated checkpoint: failed {result['failed']}/{result['attempted']}")

    # realized words hide a short mode string when the subject's name has two
    # words, so the fault must be caught on such decodes too
    names = decoded_subject_names(tiny(WORKLOADS["desk-train"]), 1)
    assert any(len(name) >= 2 for name in names), names

    def short_modes(greedy_decode):
        def decode_short(*args, **kwargs):
            tokens, modes = greedy_decode(*args, **kwargs)
            return tokens, modes[:-1]
        return decode_short

    record, result = with_fault(dec, "greedy_decode", short_modes)
    assert not result["correct"] and result["failed"] >= 1, result
    assert any("mode string" in f for f in record["failures"]), record["failures"]
    print(f"ok fault short mode string: failed {result['failed']}/{result['attempted']}")


def check_without_program():
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        here = Path(__file__).resolve().parent
        shutil.copytree(here, bare / here.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{here.name}/run.py", "--workload", "desk-train", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok without src/: exit {proc.returncode}, no result")


if __name__ == "__main__":
    run.WORK_DIR.mkdir(exist_ok=True)
    check_smoke()
    check_faults()
    check_without_program()
    print("selftest passed")
