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
as refused on that side, with the refusal's message, and not compared; a
row named "(refused)" times the refusal itself, its message the result.
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
from fractions import Fraction
from importlib import import_module
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
    # the exact eigen-equation check, over the residue-class layout of paths
    ops.append((
        "eigen_equation_holds n=1..10",
        [(qw.DecoherenceState(qw.PathSpace(n)),) for n in range(1, 11)],
        qw.DecoherenceState.eigen_equation_holds,
        bool,
    ))
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
    # the count variables, whose class counts come from their step structure
    counts = [make(state.space) for make in (qw.RandomVariable.ones, qw.RandomVariable.changes)]
    for route in (strategies.TRACE, strategies.EIGEN):
        ops.append((
            f"integral {route.value} n=16 counts",
            [(state, v, route) for v in counts] * 3,
            qw.integral,
            fraction_parts,
        ))
    # TRACE on each kind of variable apart, where counting the class weights
    # is most of a call, and past 2**16 paths on all three
    kinds_rng = random.Random(f"{SEED}:kinds")
    state = qw.DecoherenceState(qw.PathSpace(16))
    variables = _variables(qw, kinds_rng, state.space, 9)
    for kind, name in enumerate(("rational", "sparse", "indicator")):
        ops.append((
            f"integral trace n=16 {name}",
            [(state, v, strategies.TRACE) for v in variables[kind::3]],
            qw.integral,
            fraction_parts,
        ))
    state = qw.DecoherenceState(qw.PathSpace(18))
    ops.append((
        "integral trace n=18",
        [(state, v, strategies.TRACE) for v in _variables(qw, kinds_rng, state.space, 3)],
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
        "change_residue_profile_closed_form n<=40",
        [(n,) for n in range(1, 41)],
        qw.change_residue_profile_closed_form,
        tuple,
    ))

    def refusal(event, n):
        """limit_term's refusal message, timed like any result."""
        try:
            qw.limit_term(event, n)
        except qw.ResourceLimitError as exc:
            return str(exc)
        raise AssertionError(f"limit_term({event!r}, {n}) was not refused")

    ops.append((
        "limit_term at-most-3 n=512 (refused)",
        [(qw.AtMostKOnes(3), 512)] * 20,
        refusal,
        str,
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
    # the set's trie alone, digested by the pairs it sweeps, which do not
    # depend on how its states are numbered; a library without `_trie` built
    # it as `_automaton(FinitePathSet(paths), n)`
    cyl = import_module(f"{qw.__name__}.cylinder")
    ops.append((
        "_trie 8-path set n=512",
        [(paths, 512)] * 10,
        getattr(cyl, "_trie", None) or (lambda paths, n: cyl._automaton(qw.FinitePathSet(paths), n)),
        lambda automaton: cyl._sweep(*automaton, 512)[0],
    ))
    # small cylindrical hulls, and strong disjointness stepped through levels
    ops.append((
        "approximant at-most-1|2 n=1..16",
        [(qw.AtMostKOnes(k), n) for k in (1, 2) for n in range(1, 17)],
        qw.approximant,
        lambda cyl: (cyl.level, hex(cyl.base.mask)),
    ))
    # a finite path set's hull: one bit set per distinct prefix
    hull_rng = random.Random(f"{SEED}:hull")
    many = qw.FinitePathSet(tuple(
        qw.EventualPath(
            tuple(hull_rng.randrange(2) for _ in range(hull_rng.randint(0, 30))),
            hull_rng.randrange(2),
        )
        for _ in range(64)
    ))
    ops.append((
        "approximant 64-path set n=20",
        [(many, 20)] * 4,
        qw.approximant,
        lambda cyl: (cyl.level, hex(cyl.base.mask)),
    ))
    ops.append((
        "strongly_disjoint at-most-2 vs at-most-3 to 40",
        [(qw.AtMostKOnes(2), qw.AtMostKOnes(3), 40)] * 4,
        qw.strongly_disjoint,
        lambda w: (w.witnessed, w.at_level),
    ))
    # the seeded set against subsets of it, which never part, and against a
    # one-path set that parts from it at some level
    other = qw.FinitePathSet((qw.EventualPath(paths[0].prefix[:20] + (1, 0, 1), 1),))
    ops.append((
        "strongly_disjoint finite sets to 200",
        [(qw.FinitePathSet(paths), qw.FinitePathSet(paths[:m]), 200) for m in (1, 4, 8)]
        + [(qw.FinitePathSet(paths), other, 200)],
        qw.strongly_disjoint,
        lambda w: (w.witnessed, w.at_level),
    ))
    # the two min-matrix checks: an integer elimination, and the entrywise
    # identity over pairs of distinct value keys
    min_rng = random.Random(f"{SEED}:min-matrix")
    # values as in the verify suite, and 40 values that are all but surely
    # distinct, so that the elimination runs to its last pivot
    for m, top, count in ((8, 12, 200), (40, 10**6, 5)):
        ops.append((
            f"min_matrix_det_check {m} values",
            [
                (sorted(
                    Fraction(min_rng.randint(0, top), min_rng.choice((1, 2, 3))) for _ in range(m)
                ),)
                for _ in range(count)
            ],
            qw.min_matrix_det_check,
            bool,
        ))
    for n, count in ((6, 50), (10, 2)):
        state = qw.DecoherenceState(qw.PathSpace(n))
        triples = []
        for _ in range(count):
            order = list(range(state.space.size))
            min_rng.shuffle(order)
            triples.append((state, *(
                qw.RandomVariable(
                    state.space,
                    tuple(min_rng.randint(-6, 6) if j in part else 0 for j in range(len(order))),
                    2,
                )
                for part in (set(order[i::3]) for i in range(3))
            )))
        ops.append((
            f"disjoint_support_grade2_check n={n}",
            triples,
            qw.disjoint_support_grade2_check,
            bool,
        ))
    # the amplitude pair at the widest benchmark horizon: a measure of 1 to
    # 64 members, one of a dense mask, and the grade-2 identity on three
    # disjoint sparse events; then the rank-two reconstruction check
    pair_rng = random.Random(f"{SEED}:pair")
    state = qw.DecoherenceState(qw.PathSpace(20))
    size = state.space.size

    def sparse_masks(parts: int) -> list[int]:
        members = pair_rng.sample(range(size), pair_rng.randint(parts, 64))
        return [sum(1 << j for j in members[i::parts]) for i in range(parts)]

    ops.append((
        "mu rank2 n=20 sparse",
        [(state, qw.Event(state.space, sparse_masks(1)[0])) for _ in range(40)],
        qw.mu,
        dyadic_parts,
    ))
    ops.append((
        "mu rank2 n=20 dense",
        [(state, qw.Event(state.space, pair_rng.getrandbits(size))) for _ in range(40)],
        qw.mu,
        dyadic_parts,
    ))
    ops.append((
        "grade2_check n=20 sparse",
        [(state, *(qw.Event(state.space, m) for m in sparse_masks(3))) for _ in range(20)],
        qw.grade2_check,
        bool,
    ))
    ops.append((
        "check_eigen_reconstruction",
        [()] * 3,
        import_module(f"{qw.__name__}.verify").check_eigen_reconstruction,
        repr,
    ))
    # events built from member lists: a wide sparse list, the suite's small
    # lists, idle-padded embeddings and a finite set's hull
    mask_rng = random.Random(f"{SEED}:mask")
    space = qw.PathSpace(20)
    ops.append((
        "Event.from_indices n=20 sparse",
        [(space, [mask_rng.randrange(space.size) for _ in range(16_000)]) for _ in range(3)],
        qw.Event.from_indices,
        lambda ev: hex(ev.mask),
    ))
    space = qw.PathSpace(3)
    ops.append((
        "Event.from_indices n=3",
        [(space, mask_rng.sample(range(8), 3)) for _ in range(20000)],
        qw.Event.from_indices,
        lambda ev: hex(ev.mask),
    ))
    fine = qw.PathSpace(6)
    ops.append((
        "embed_right_pad 3->6",
        [(qw.Event(space, mask_rng.getrandbits(8)), fine) for _ in range(20000)],
        import_module(f"{qw.__name__}.qmeasure").embed_right_pad,
        lambda ev: hex(ev.mask),
    ))
    hull = qw.FinitePathSet(tuple(
        qw.EventualPath(
            tuple(mask_rng.randrange(2) for _ in range(mask_rng.randint(0, 40))),
            mask_rng.randrange(2),
        )
        for _ in range(256)
    ))
    ops.append((
        "approximant finite set n=24",
        [(hull, 24)] * 4,
        qw.approximant,
        lambda cyl: (cyl.level, hex(cyl.base.mask)),
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
        print(f"{'ns/call, min | median':46s} {'baseline':>27s}    {'change':>27s}", file=sys.stderr)
        for name, rec in record["calls"].items():
            sides = [
                f"{'refused':>29s}" if f"{side}_refused" in rec
                else f"{rec[f'{side}_min_ns']:>13.1f} | {rec[f'{side}_median_ns']:<13.1f}"
                for side in ("baseline", "change")
            ]
            speedup = f"  x{rec['speedup_min']} | x{rec['speedup_median']}" if "speedup_min" in rec else ""
            print(f"{name:46s} {sides[0]} -> {sides[1]}{speedup}", file=sys.stderr)
    else:
        record = measure(args.src.resolve())
        for name, rec in record["calls"].items():
            cost = "refused" if "refused" in rec else f"{rec['ns_per_call']:>14.1f} ns/call"
            print(f"{name:46s} {cost}", file=sys.stderr)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
