#!/usr/bin/env python3
"""Run one benchmark workload against this checkout's qwalk and report it.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 45 --trace 0

Run from the checkout's root or anywhere else; qwalk is always imported
from the ``src`` directory next to ``perfbench``.  With ``--trace 0`` the
run times untraced rounds and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics, whose names and units come from BENCHMARK.json.  The full record
(run metadata, inputs digest, op counts, every metric and, when traced,
every span) is written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from qwbench import harness, integral, limits, measure, metrics, runinfo, verify

# Each workload runs two parts in turn.  Two workloads, not one per part,
# so that a run can be long enough to outlast the machine's slow phases
# within the time the whole set of runs may take (see README, *Noise*).
WORKLOADS = {
    "queries": (measure, verify),  # event queries and the suite: census masks
    "tables": (limits, integral),  # limit tables and integrals: no event census
}
# Set-ups before the timed rounds, and again after them: at least SETUPS,
# and more until they took SETUP_SECONDS.  setup_s is the fastest of all.
SETUPS = 3
SETUP_SECONDS = 1.0
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


def run_for(ops, seconds: float, checker: harness.Checker) -> list[harness.Round]:
    """Whole rounds until their timed seconds reach ``seconds`` (at least one)."""
    rounds: list[harness.Round] = []
    while not rounds or sum(r.wall_s for r in rounds) < seconds:
        rounds.append(checker.add(harness.run_round(ops)))
    return rounds


def build(name: str, qw, seed: int, timed=harness.untimed) -> harness.Workload:
    return harness.combine(name, [part.build(qw, seed, timed) for part in WORKLOADS[name]])


def set_ups(name: str, seed: int) -> tuple[list[float], harness.Workload]:
    """Time set-ups, each a fresh import of qwalk plus building the workload;
    return their seconds and the last set-up's workload."""
    seconds, wl = [], None
    while len(seconds) < SETUPS or sum(seconds) < SETUP_SECONDS:
        wl = None  # drop the previous set-up's inputs before timing the next
        gc.collect()
        start = perf_counter()
        qw = harness.load_qwalk(fresh=True)
        wl = build(name, qw, seed)
        seconds.append(perf_counter() - start)
    return seconds, wl


def untraced(name: str, seed: int, seconds: float) -> dict:
    """Set-ups, timed rounds, then set-ups again: a slow phase of the machine
    that covers one end of the run does not set ``setup_s``."""
    setups, wl = set_ups(name, seed)
    checker = harness.Checker(wl.ops)
    rounds = run_for(wl.ops, seconds, checker)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = harness.Tally()
    checker.tally(tally)
    details = {
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "latency": {part: metrics.latency(rounds, ops) for part, ops in wl.latency_ops.items()},
    }
    result = {"digest": wl.digest, "op_counts": wl.op_counts(), "tally": tally, "details": details}
    ops_per_round = len(wl.ops)
    checker = wl = None  # the later set-ups start from the same empty heap as the first
    setups += set_ups(name, seed)[0]
    details["setups"] = setups
    result["values"] = metrics.end_to_end(setups, rounds, ops_per_round, rss_mb)
    return result


def traced(name: str, seed: int, seconds: float) -> dict:
    qw = harness.load_qwalk()
    tracer = harness.Tracer(name)
    tracer.begin_setup()
    wl = build(name, qw, seed, tracer.timed)
    tracer.end_setup()
    traced_ops, plain_ops = wl.traced_ops, wl.traced_plain_ops
    plain_checker, traced_checker = harness.Checker(plain_ops), harness.Checker(traced_ops)
    plain: list[harness.Round] = []
    spanned: list[harness.Round] = []
    while not spanned or sum(r.wall_s for r in plain + spanned) < seconds:
        plain.append(plain_checker.add(harness.run_round(plain_ops)))
        spanned.append(traced_checker.add(tracer.run_round(traced_ops)))
    tally = harness.Tally()
    plain_checker.tally(tally)
    traced_checker.tally(tally)
    check_names = [name for name, _ in qw.verify.CHECKS]
    values = metrics.per_layer(tracer, plain, spanned, check_names)
    details = {
        "untraced_rounds": len(plain),
        "traced_rounds": len(spanned),
        "self_time_total_s": sum(tracer.self_times().values()),
        "traced_wall_total_s": sum(r.wall_s for r in spanned),
        "spans": tracer.spans,
    }
    return {
        "digest": wl.digest,
        "op_counts": wl.op_counts(),
        "tally": tally,
        "values": values,
        "details": details,
    }


def select(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, by name and unit, in BENCHMARK.json order; a
    declared metric that was not computed is an error in the benchmark."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in values:
            raise KeyError(f"metric {name} was not computed")
        out[name] = {"value": values[name], "unit": spec["unit"]}
    return out


def report(args, meta: dict, result: dict, declared: dict) -> None:
    tally, details = result["tally"], result["details"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print("run " + json.dumps(meta))
    print(f"inputs digest {result['digest']}  ops per round {json.dumps(result['op_counts'])}")
    for name, m in declared.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    for part, lat in details.get("latency", {}).items():
        print(f"{'op_p50_ms ' + part:<48} {lat['op_p50_ms']:.6g} ms  ({lat['op_samples']} samples)")
        if "op_tail_ms" in lat:
            print(
                f"{'op_tail_ms ' + part:<48} {lat['op_tail_ms']:.6g} ms  (p{lat['op_tail_percentile']:g}, "
                f"{lat['op_samples']} samples, {lat['op_tail_beyond']} beyond)"
            )
    ratio = (tally.failed + tally.refused) / tally.attempted
    print(
        f"{'fail_ratio':<48} {ratio:.6g}  ({tally.failed} wrong or raised, "
        f"{tally.refused} refused, of {tally.attempted} attempted)"
    )
    for failure in tally.failures:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("QWALK_THREADS", None)
    try:
        declared_all = json.loads(BENCHMARK_JSON.read_text())
        meta = runinfo.run_metadata(harness.ROOT, args.seed)
        run = traced if args.trace else untraced
        result = run(args.workload, args.seed, args.seconds)
        section = "per_layer" if args.trace else "end_to_end"
        declared = select(result["values"], declared_all[section])
    except Exception:
        traceback.print_exc()
        return 1
    report(args, meta, result, declared)
    tally = result["tally"]
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "run": meta,
        "inputs_digest": result["digest"],
        "ops_per_round": result["op_counts"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "refused": tally.refused,
        "failures": tally.failures,
        "metrics": result["values"],
        "details": result["details"],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": declared,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
