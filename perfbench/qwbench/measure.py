"""``measure``: a seeded stream of event queries at horizons 4 to 20.

The mix per round is fixed; the seed picks the events.  Sparse events have
1 to 64 members; dense ones hold each path with probability 1/2 (a dense
pair or triple of disjoint events splits such a union).  The decoherence
and q-measure layers do nearly all the work, at a cost that today follows
the mask width 2**n rather than the member count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import oracles
from .harness import OK, Call, Op, Raised, Workload, digest, untimed

HORIZONS = (4, 8, 12, 16, 20)
SPARSE_MAX = 64
# Ops per horizon and round: (sparse, dense).  The sparse counts are the
# shares of the reproduction suite's own calls to each query, scaled to 40
# per horizon and rounded (at least 1); ``perfbench/suite_mix.py`` measures
# them again.  The one dense op per event kind is an assumption: it puts the
# mask-width case of every kind into every horizon.
SUITE_SCALE = 40
MIX = {
    "mu": (26, 1),
    "grade2": (6, 1),
    "interference": (4, 0),
    "vector_measure": (2, 1),
    "functional": (1, 1),
    "regularity": (1, 1),
}
# preclusion sweeps per round: (n, max_cardinality or None for a full sweep);
# an assumed small share, as the suite sweeps only seven times in all
PRECLUSION = ((3, None), (4, None), (5, 4), (6, 3))

EVENTS_PER_KIND = {
    "mu": 1,
    "functional": 2,
    "vector_measure": 1,
    "grade2": 3,
    "regularity": 2,
}


def _sparse(rng: random.Random, size: int, parts: int) -> list[int]:
    """``parts`` disjoint nonempty masks with 1..64 members between them."""
    total = rng.randint(parts, min(SPARSE_MAX, size))
    members = rng.sample(range(size), total)
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    masks = []
    for lo, hi in zip(bounds, bounds[1:]):
        mask = 0
        for j in members[lo:hi]:
            mask |= 1 << j
        masks.append(mask)
    return masks


def _dense(rng: random.Random, size: int, parts: int) -> list[int]:
    """``parts`` disjoint masks whose union holds each path with prob. 1/2."""
    union = rng.getrandbits(size) or 1
    masks = []
    for _ in range(parts - 1):
        part = union & rng.getrandbits(size)
        masks.append(part)
        union &= ~part
    masks.append(union)
    return masks


def generate(seed: int, horizons=HORIZONS, mix=MIX, preclusion=PRECLUSION) -> list[tuple]:
    """The round's op specs: (kind, n, dense, payload), in a seeded order."""
    rng = random.Random(f"measure:{seed}")
    specs = []
    for n in horizons:
        size = 1 << n
        for kind, (sparse, dense) in mix.items():
            for is_dense, count in ((False, sparse), (True, dense)):
                for _ in range(count):
                    if kind == "interference":
                        payload = tuple(rng.sample(range(size), 2))
                    elif kind == "functional":
                        make = _dense if is_dense else _sparse
                        payload = (make(rng, size, 1)[0], make(rng, size, 1)[0])
                    else:
                        make = _dense if is_dense else _sparse
                        payload = tuple(make(rng, size, EVENTS_PER_KIND[kind]))
                    specs.append((kind, n, is_dense, payload))
    for n, max_card in preclusion:
        specs.append(("precluded", n, False, max_card))
    rng.shuffle(specs)
    return specs


def build(qw, seed: int, timed=untimed, **plan) -> Workload:
    dec, qm = qw.decoherence, qw.qmeasure
    specs = generate(seed, **plan)
    table = oracles.ResidueTable()
    states = {}
    ops = []
    for kind, n, is_dense, payload in specs:
        if n not in states:
            states[n] = timed("decoherence.state_build", dec.DecoherenceState, qw.PathSpace(n))
        state = states[n]
        events = ()
        if kind not in ("interference", "precluded"):
            events = tuple(timed("decoherence.state_build", dec.Event, state.space, m) for m in payload)
        ops.append(_op(qm, table, kind, n, is_dense, state, events, payload))
    return Workload("measure", ops, digest(specs))


def _op(qm, table, kind, n, is_dense, state, events, payload) -> Op:
    size = 1 << n

    def census(ev):
        return table.census(n, ev.mask)

    def dec_counts(*evs):
        return {
            "decoherence.mask_bits": size * len(evs),
            "decoherence.members": sum(ev.mask.bit_count() for ev in evs),
        }

    if kind == "mu":
        (ev,) = events

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            value = out[0]
            if value.as_fraction() != oracles.measure_of(census(ev), n):
                return "RANK2 measure differs from the census oracle"
            if not is_dense:
                for strategy in (qm.Strategy.PAIRWISE, qm.Strategy.DENSE):
                    if qm.mu(state, ev, strategy) != value:
                        return f"RANK2 measure differs from {strategy.value}"
            return OK

        return Op("mu", [Call("qmeasure.mu", qm.mu, (state, ev))], check)

    if kind == "functional":
        a, b = events

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            ca, cb = census(a), census(b)
            want = (ca[0] - ca[2]) * (cb[0] - cb[2]) + (ca[1] - ca[3]) * (cb[1] - cb[3])
            got = out[0]
            if got.imag.as_fraction() != 0 or got.real.as_fraction() != Fraction(want, size):
                return "functional differs from the census oracle"
            return OK

        call = Call("decoherence.functional", state.functional, (a, b), dec_counts(a, b))
        return Op("functional", [call], check)

    if kind == "vector_measure":
        (a,) = events

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            c = census(a)
            got = out[0]
            if (got.even, got.odd, got.steps) != (c[0] - c[2], c[1] - c[3], n):
                return "vector measure differs from the census oracle"
            return OK

        call = Call("decoherence.vector_measure", state.vector_measure, (a,), dec_counts(a))
        return Op("vector_measure", [call], check)

    if kind in ("grade2", "regularity"):
        fn = qm.grade2_check if kind == "grade2" else qm.regularity_check

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            return OK if out[0] is True else f"{kind} identity reported False"

        return Op(kind, [Call(f"qmeasure.{fn.__name__}", fn, (state, *events))], check)

    if kind == "interference":
        i, j = payload

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            (term, relation), pair = out
            if (i ^ j) & 1:  # different end sites
                want = (Fraction(0), "none", Fraction(1, size // 2))
            elif table.residue(n, i) == table.residue(n, j):
                want = (Fraction(2, size), "constructive", Fraction(4, size))
            else:
                want = (Fraction(-2, size), "destructive", Fraction(0))
            if (term.as_fraction(), relation.value, pair.as_fraction()) != want:
                return "interference differs from the residue oracle"
            return OK

        calls = [
            Call("qmeasure.interference", qm.interference, (state, i, j)),
            Call("qmeasure.pair_measure", qm.pair_measure, (state, i, j)),
        ]
        return Op("interference", calls, check)

    # kind == "precluded"
    max_card = payload
    if max_card is None:
        walked = (1 << size) - 1
    else:
        walked = sum(comb(size, c) for c in range(1, max_card + 1))

    def counts(result):
        found = 0 if isinstance(result, Raised) else len(result)
        return {
            "qmeasure.enumerate_precluded.subsets_walked": walked,
            "qmeasure.enumerate_precluded.found": found,
        }

    def check(out):
        if not isinstance(out, tuple):
            return f"raised {out}"
        found = out[0]
        if len(found) != oracles.precluded_count(table.profile(n), max_card):
            return "precluded count differs from the residue-profile formula"
        masks = [ev.mask for ev in found]
        if len(set(masks)) != len(masks):
            return "a precluded event is listed twice"
        for mask in masks:
            if mask == 0 or (max_card is not None and mask.bit_count() > max_card):
                return "a listed event breaks the cardinality bounds"
            c = table.census(n, mask)
            if c[0] != c[2] or c[1] != c[3]:
                return "a listed event has nonzero measure"
        return OK

    call = Call("qmeasure.enumerate_precluded", qm.enumerate_precluded, (state, max_card), counts)
    return Op("precluded", [call], check)
