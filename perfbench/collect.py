#!/usr/bin/env python3
"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads queries --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --traced-seed 1 --out summary.json

Each run is ``run.py`` in its own process, one after another, for the
run length in BENCHMARK.json.  Per workload it prints the first run's
report (every metric with its unit, op latencies and fail_ratio included),
then for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  With ``--traced-seed`` it also records one traced run per
workload.  Run it on two commits with the same arguments to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The run's result object and the report lines printed before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *report, last = proc.stdout.strip().splitlines()
    return json.loads(last), report


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs, metas = [], []
        for seed in args.seeds:
            result, report = run(workload, seed, bench["run_seconds"], 0)
            if not runs:
                print("\n".join(report))
            runs.append(result)
            metas.append(next(json.loads(line[4:]) for line in report if line.startswith("run {")))
        entry = {
            "seeds": args.seeds,
            "machine": {k: metas[0][k] for k in ("python", "nproc", "cpu_model", "commit")},
            "calibration_s": [m["calibration_s"] for m in metas],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["values"] = values
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 else ("  > bound/3" if s["spread"] <= bound else "  > BOUND")
            print(
                f"  {name:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                f" spread {s['spread']:.3f} (bound {bound}){flag}"
            )
        if args.traced_seed is not None:
            traced, _ = run(workload, args.traced_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items() if v["value"]}
        summary[workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
