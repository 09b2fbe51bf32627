"""Run one kbqgen benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and the metric names and units come from
``BENCHMARK.json`` at the root. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The last line of standard output is the result object; the line
before it is a record of the run (environment, loss history, decode digests,
failures, every sample and the reason for any absent metric). The exit code
is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads; one thread gives the steadiest timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / ".work"

# the checkout's source goes first, so an installed copy can never be measured
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root):
    """HEAD's commit read from .git without starting git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(ROOT),
    }


def summarise(samples, metrics, trace):
    """One value per metric from its samples in the run.

    End-to-end timings other than setup_s report the mean: the stage's total
    time over its repeats, or for a rate its work over its total time (every
    repeat does the same work). Repeats are spread over the whole run, so the
    mean averages the shared machine's slow spells of several seconds, which
    a fastest or a median sample of a few long repeats does not (see
    README.md). setup_s and the per-layer metrics report the median.
    """
    values = {}
    for m in metrics:
        got = samples.get(m["name"])
        if not got:
            continue
        if trace or m["name"] == "setup_s":
            values[m["name"]] = statistics.median(got)
        elif m["better"] == "higher":
            values[m["name"]] = statistics.harmonic_mean(got)
        else:
            values[m["name"]] = statistics.mean(got)
    return values


def measure(workload, seed, seconds, trace, data_dir, work_dir):
    """Run the pipeline; returns (pipeline, per-layer values, absent reasons).

    The per-layer values are those a traced run adds to the pipeline's samples.
    """
    pipeline = harness.Pipeline(workload, seed, data_dir, work_dir)
    if not trace:
        pipeline.run(seconds)
        return pipeline, {}, {}

    spans = layers.Spans()
    pipeline.run(seconds, spans=spans)
    values = spans.medians()
    absent = dict(spans.absent)
    setup = pipeline.setup
    probe_examples = setup.dataset.examples("train")[: workload.probe_examples]
    probed, probe_absent = layers.probe_layers(
        setup.model, pipeline.config, probe_examples, workload.probe_repeats
    )
    values.update(probed)
    absent.update(probe_absent)
    if setup.pretrain_s is None:
        # this workload does not pretrain: time build_model's TransE for one epoch instead
        with_transe = harness.make_config(workload, seed, "transe=true", "transe_epochs=1")
        pretrain_s = harness.set_up(with_transe, data_dir).pretrain_s
        if pretrain_s is not None:
            values["kbembed.pretrain_s"] = pretrain_s
        else:
            absent["kbembed.pretrain_s"] = "trainer.build_model no longer calls kbembed.pretrain_transe"
    # untraced and traced rounds alternate after the warm-up and repeat the same work;
    # pairing each traced round with the untraced one before it cancels slow drift
    samples = pipeline.samples
    pairs = zip(samples["round_s"], samples["traced_round_s"])
    values["trace.overhead_pct"] = 100.0 * statistics.median(traced / plain - 1.0 for plain, traced in pairs)
    return pipeline, values, absent


def run_workload(workload, seed, seconds, trace, spec):
    """One run in a scratch directory; returns (record, result) as printed."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        data_dir = Path(tmp) / "corpus"
        harness.make_corpus(workload, seed, data_dir)
        pipeline, layer_values, absent = measure(workload, seed, seconds, trace, data_dir, tmp)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = {**summarise(pipeline.samples, wanted, trace), **layer_values}
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        else:
            absent.setdefault(m["name"], "not measured in this run")
    ops = pipeline.ops
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "samples": dict(sorted(pipeline.samples.items())),
        **pipeline.record,
        "failures": ops.failures,
        "absent": absent,
    }
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    return record, result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import kbqgen

    if Path(kbqgen.__file__).resolve().parent != ROOT / "src" / "kbqgen":
        print(f"error: kbqgen imported from {kbqgen.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv, harness.WORKLOADS)
    record, result = run_workload(harness.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spec)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
