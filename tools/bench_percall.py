#!/usr/bin/env python3
"""Nanoseconds per call of qwalk's small query primitives.

    python3 tools/bench_percall.py
    python3 tools/bench_percall.py --src ../other-checkout/src
    python3 tools/bench_percall.py --baseline ../parent/src > BENCH_percall.json

Each primitive runs over a fixed, seeded batch of inputs; a call's cost is
the fastest of REPEAT timed batches divided by the batch size, with the
garbage collector off while a batch runs.  At the small sizes the
reproduction suite uses, these costs are per-call overhead (argument
checks, object construction, cache lookups), not arithmetic, so they are
timed here one primitive at a time rather than inside the end-to-end
benchmark in ``perfbench/``.

With ``--baseline`` the library there and this one (or ``--src``) are
measured in turn, each in a fresh interpreter, alternating for TURNS turns
per side.  A fresh process can land in a fast or a slow phase of a shared
host, so each side reports the spread of its processes: the minimum and
the median of their ns per call.  Both sides must produce identical
results, checked by a digest of each batch's outputs, or the run fails.
A primitive that one library refuses with ResourceLimitError is recorded
as refused on that side, with the refusal's message, and not compared.
The table goes to stderr and the JSON record to stdout.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import operator
import os
import platform
import random
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SEED = 20261018
REPEAT = 5
TURNS = 8


def _pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    out = []
    while len(out) < count:
        i, j = rng.getrandbits(n), rng.getrandbits(n)
        if i != j:
            out.append((i, j))
    return out


def _variables(qw, rng: random.Random, space, count: int) -> list:
    """count seeded variables in turn of three kinds: signed rationals over
    one denominator, sparse supports of up to 64 paths, event indicators."""
    RV = qw.RandomVariable
    size = space.size
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            nums = tuple(rng.randint(-24, 24) for _ in range(size))
            out.append(RV(space, nums, rng.randint(1, 4)))
        elif kind == 1:
            nums = [0] * size
            for j in rng.sample(range(size), min(64, size)):
                nums[j] = rng.randint(-9, 9)
            out.append(RV(space, tuple(nums), 2))
        else:
            out.append(RV.indicator(qw.Event(space, rng.getrandbits(size))))
    return out


def build_ops(qw) -> list[tuple[str, list, object, object]]:
    """(name, inputs, call, project): call(*input) is timed once per input;
    project maps its result to plain data for the digest."""
    rng = random.Random(SEED)
    ops = []

    def dyadic_parts(d):
        return d.num, d.log2_den

    for n in (10, 20):
        state = qw.DecoherenceState(qw.PathSpace(n))
        pairs = _pairs(rng, n, 20000)
        ops.append((
            f"pair_measure n={n}",
            [(state, i, j) for i, j in pairs],
            qw.pair_measure,
            dyadic_parts,
        ))
        ops.append((
            f"entry_sign n={n}",
            pairs,
            state.entry_sign,
            int,
        ))
    for n, count in ((10, 5000), (20, 20)):
        state = qw.DecoherenceState(qw.PathSpace(n))
        events = [(qw.Event(state.space, rng.getrandbits(1 << n)),) for _ in range(count)]
        ops.append((f"census n={n}", events, state.census, tuple))
    ops.append((
        "Dyadic(odd, k)",
        [(2 * rng.getrandbits(30) + 1, rng.randint(1, 40)) for _ in range(20000)],
        qw.Dyadic,
        dyadic_parts,
    ))
    bases = [
        (qw.CylinderEvent(14, qw.Event(qw.PathSpace(14), rng.getrandbits(1 << 14))), 15)
        for _ in range(4)
    ]
    bases += [
        (qw.CylinderEvent(8, qw.Event(qw.PathSpace(8), rng.getrandbits(1 << 8))), 15)
        for _ in range(4)
    ]
    ops.append((
        "refine to level 15",
        bases,
        qw.refine,
        lambda cyl: (cyl.level, hex(cyl.base.mask)),
    ))
    ops.append((
        "enumerate_precluded(6, 4)",
        [(qw.DecoherenceState(qw.PathSpace(6)), 4)],
        qw.enumerate_precluded,
        lambda events: [ev.mask for ev in events],
    ))
    power = qw.SetSystem(10, tuple(range(1 << 10)))
    ops.append(("is_quadratic_algebra(2**10)", [(power,)], qw.is_quadratic_algebra, tuple))
    ops.append((
        "is_q_measure(2**10)",
        [(power, qw.cardinality_squared_table(power))],
        qw.is_q_measure,
        tuple,
    ))
    dyadics = [qw.Dyadic(rng.getrandbits(60) - (1 << 59), rng.randint(0, 70)) for _ in range(20000)]
    ops.append(("float(Dyadic)", [(d,) for d in dyadics], float, float.hex))
    # odd pairs equal but built apart, even ones a value and its neighbour
    compared = [
        (d, qw.Dyadic(d.num, d.log2_den) if i % 2 else dyadics[i - 1])
        for i, d in enumerate(dyadics)
    ]
    ops.append(("Dyadic ==", compared, operator.eq, bool))

    def fraction_parts(f):
        return f.numerator, f.denominator

    strategies = qw.IntegralStrategy
    for n, count, routes in (
        (2, 3000, (strategies.TRACE, strategies.EIGEN)),
        (10, 6, (strategies.DEFINITION,)),
        (16, 6, (strategies.TRACE, strategies.EIGEN)),
    ):
        state = qw.DecoherenceState(qw.PathSpace(n))
        variables = _variables(qw, rng, state.space, count)
        for route in routes:
            ops.append((
                f"integral {route.value} n={n}",
                [(state, v, route) for v in variables],
                qw.integral,
                fraction_parts,
            ))
    state = qw.DecoherenceState(qw.PathSpace(10))
    events = [qw.Event(state.space, rng.getrandbits(1 << 10)) for _ in range(2001)]
    ops.append((
        "functional n=10",
        list(zip(events, events[1:])),
        state.functional,
        # .real and .imag read the same on a real value and a complex one
        lambda v: (dyadic_parts(v.real), dyadic_parts(v.imag)),
    ))
    ops.append((
        "Dyadic(even, k) reduced",
        [(rng.getrandbits(30) << rng.randint(1, 40), rng.randint(1, 40)) for _ in range(20000)],
        qw.Dyadic,
        dyadic_parts,
    ))
    space = qw.PathSpace(10)
    masks = [(space, rng.getrandbits(1 << 10)) for _ in range(5000)]
    ops.append(("Event n=10", masks, qw.Event, lambda ev: ev.mask))
    ops.append((
        "vector_measure n=10",
        [(qw.Event(*args),) for args in masks],
        qw.DecoherenceState(space).vector_measure,
        lambda v: (v.even, v.odd, v.steps),
    ))
    state = qw.DecoherenceState(qw.PathSpace(4))
    ops.append((
        "integral trace n=4",
        [(state, v, strategies.TRACE) for v in _variables(qw, rng, state.space, 3000)],
        qw.integral,
        fraction_parts,
    ))
    state = qw.DecoherenceState(qw.PathSpace(8))
    ops.append((
        "pair_measure n=8",
        [(state, i, j) for i, j in _pairs(rng, 8, 20000)],
        qw.pair_measure,
        dyadic_parts,
    ))
    # the count variables: n + 1 distinct values over 2**n paths
    state = qw.DecoherenceState(qw.PathSpace(10))
    ops.append((
        "integral definition n=10 ties",
        [
            (state, make(state.space), strategies.DEFINITION)
            for make in (qw.RandomVariable.ones, qw.RandomVariable.changes)
        ],
        qw.integral,
        fraction_parts,
    ))
    # the same route where a 4**n worst-case cap once refused it
    state = qw.DecoherenceState(qw.PathSpace(16))
    ops.append((
        "integral definition n=16 changes",
        [(state, qw.RandomVariable.changes(state.space), strategies.DEFINITION)] * 3,
        qw.integral,
        fraction_parts,
    ))
    # the closed forms with cos(n*pi/4), and the variation witness
    ops.append((
        "complement closed form n<=512",
        [(n,) for n in range(1, 513)],
        qw.complement_of_constant_closed_form,
        lambda d: d.as_fraction(),
    ))
    ops.append((
        "variation_lower_bound n<=64",
        [(n,) for n in range(1, 65)],
        qw.variation_lower_bound,
        int,
    ))
    # a limit table per symbolic-event family, at-most-3 up to its refusal
    limits_rng = random.Random(f"{SEED}:limits")
    paths = tuple(
        qw.EventualPath(
            tuple(limits_rng.randrange(2) for _ in range(limits_rng.randint(0, 48))),
            limits_rng.randrange(2),
        )
        for _ in range(8)
    )
    for name, event, n_max in (
        ("at-most-1", qw.AtMostKOnes(1), 512),
        ("at-most-2", qw.AtMostKOnes(2), 512),
        ("at-most-3", qw.AtMostKOnes(3), 181),
        ("8-path set", qw.FinitePathSet(paths), 512),
        ("8-path complement", qw.ComplementOfFinitePathSet(paths), 512),
        ("finitely many ones", qw.FinitelyManyOnes(), 512),
    ):
        ops.append((
            f"limit {name} n<={n_max}",
            [(event, n_max)] * 10,
            qw.limit_mu_hat,
            lambda r: (r.verdict.value, r.at_n, [(n, e.num, e.log2_den) for n, e, _ in r.values]),
        ))
    return ops


def time_op(inputs: list, call) -> tuple[float, list]:
    """Fastest of REPEAT batches, in ns per call, and the last results."""
    best = None
    for _ in range(REPEAT):
        gc.collect()
        gc.disable()
        try:
            start = perf_counter_ns()
            results = [call(*args) for args in inputs]
            elapsed = perf_counter_ns() - start
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return best / len(inputs), results


def measure(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import qwalk

    calls = {}
    for name, inputs, call, project in build_ops(qwalk):
        try:
            ns, results = time_op(inputs, call)
        except qwalk.ResourceLimitError as exc:
            calls[name] = {"batch": len(inputs), "refused": str(exc)}
            continue
        digest = hashlib.sha256(repr([project(r) for r in results]).encode()).hexdigest()
        calls[name] = {"ns_per_call": round(ns, 1), "batch": len(inputs), "digest": digest[:16]}
    return {"host": host(), "src": str(src), "repeat": REPEAT, "calls": calls}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host() -> dict:
    return {
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_side(src: Path) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--src", str(src)],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout
    return json.loads(out)


def compare(baseline: Path, change: Path) -> dict:
    ns: dict[str, dict[str, list]] = {"baseline": {}, "change": {}}
    digests: dict[str, dict[str, str]] = {"baseline": {}, "change": {}}
    refused: dict[str, dict[str, str]] = {"baseline": {}, "change": {}}
    batches = {}
    for turn in range(TURNS):
        # alternate which side goes first, so a slow phase hits both
        order = [("baseline", baseline), ("change", change)]
        for side, src in order if turn % 2 == 0 else order[::-1]:
            for name, rec in run_side(src)["calls"].items():
                batches[name] = rec["batch"]
                if "refused" in rec:
                    refused[side][name] = rec["refused"]
                    continue
                ns[side].setdefault(name, []).append(rec["ns_per_call"])
                digests[side][name] = rec["digest"]
    calls = {}
    for name, batch in batches.items():
        rec = {"batch": batch}
        for side in ("baseline", "change"):
            if name in refused[side]:
                rec[f"{side}_refused"] = refused[side][name]
            else:
                rec[f"{side}_min_ns"] = min(ns[side][name])
                rec[f"{side}_median_ns"] = round(median(ns[side][name]), 1)
        if name not in refused["baseline"] and name not in refused["change"]:
            if digests["change"][name] != digests["baseline"][name]:
                raise SystemExit(f"{name}: results differ between the two libraries")
            rec["speedup_min"] = round(rec["baseline_min_ns"] / rec["change_min_ns"], 2)
            rec["speedup_median"] = round(rec["baseline_median_ns"] / rec["change_median_ns"], 2)
        calls[name] = rec
    return {
        "host": host(),
        "method": (
            f"fastest of {REPEAT} batches per process; min and median over "
            f"{TURNS} alternating fresh processes per side"
        ),
        "calls": calls,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="library to measure")
    parser.add_argument("--baseline", type=Path, help="second library to compare against")
    args = parser.parse_args(argv)
    if args.baseline is not None:
        record = compare(args.baseline.resolve(), args.src.resolve())
        print(f"{'ns/call, min | median':28s} {'baseline':>27s}    {'change':>27s}", file=sys.stderr)
        for name, rec in record["calls"].items():
            sides = [
                f"{'refused':>29s}" if f"{side}_refused" in rec
                else f"{rec[f'{side}_min_ns']:>13.1f} | {rec[f'{side}_median_ns']:<13.1f}"
                for side in ("baseline", "change")
            ]
            speedup = f"  x{rec['speedup_min']} | x{rec['speedup_median']}" if "speedup_min" in rec else ""
            print(f"{name:28s} {sides[0]} -> {sides[1]}{speedup}", file=sys.stderr)
    else:
        record = measure(args.src.resolve())
        for name, rec in record["calls"].items():
            cost = "refused" if "refused" in rec else f"{rec['ns_per_call']:>14.1f} ns/call"
            print(f"{name:28s} {cost}", file=sys.stderr)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
