"""Run every workload over a range of seeds and summarise each metric's spread.

    python3 perfbench/suite.py --seeds 1-10 --sets 2 --out perfbench/results/suite.json

Each run is its own process (``perfbench/run.py``), started one at a time and
awaited, for ``run_seconds`` from ``BENCHMARK.json``. For every workload and
metric the summary gives the median, the quartiles, the spread (the distance
between the quartiles as a share of the median) and the metric's bound. With
``--sets 2`` the seeds run twice, and the summary also compares the two
medians and checks that every seed's loss history and decode digests repeat.
The report keeps each run's record, every sample included, set by set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace=0):
    """One run.py process; returns (record, result) parsed from its last two lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} printed no result (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def summarise(runs, bounds):
    """Per metric: quartile statistics over the runs, plus the metric's bound."""
    names = sorted({name for _record, result in runs for name in result["metrics"]})
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for _rec, r in runs if name in r["metrics"]]
        stats = spread(values) if len(values) >= 2 else {"median": values[0]}
        stats.update(n=len(values), bound=bounds.get(name), values=values)
        out[name] = stats
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        sets = []
        for index in range(args.sets):
            runs = []
            for seed in args.seeds:
                t0 = time.monotonic()
                record, result = run_once(workload, seed, spec["run_seconds"])
                all_ok &= result["correct"]
                print(f"{workload} set {index + 1} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} in {time.monotonic() - t0:.0f} s",
                      file=sys.stderr)
                runs.append((record, result))
            sets.append(runs)
        entry = {"sets": [summarise(runs, bounds) for runs in sets], "environment": sets[0][0][0]["environment"]}
        entry["records"] = [
            [{k: rec.get(k) for k in ("seed", "loss_history", "decode_digest", "failures", "absent", "samples")}
             for rec, _res in runs]
            for runs in sets
        ]
        if len(sets) > 1:
            first, second = entry["sets"][0], entry["sets"][1]
            entry["median_change"] = {
                name: second[name]["median"] / first[name]["median"] - 1.0
                for name in first if name in second and first[name]["median"]
            }
            keys = ("loss_history", "decode_digest")
            entry["repeatable"] = all(
                {k: a[0].get(k) for k in keys} == {k: b[0].get(k) for k in keys}
                for a, b in zip(sets[0], sets[1])
            )
            all_ok &= entry["repeatable"]
        report["workloads"][workload] = entry
        for name, stats in entry["sets"][0].items():
            extra = f" change {entry['median_change'][name]:+.3f}" if "median_change" in entry else ""
            print(f"{workload:13s} {name:26s} median {stats['median']:.6g} spread {stats.get('spread') or 0:.4f}"
                  f" bound {stats['bound']}{extra}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
