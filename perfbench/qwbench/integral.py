"""``integral``: seeded random variables integrated by every route.

Four kinds of variable, built during set-up: signed rationals with
denominators 1 to 4 (many levels), ones/changes counts (few levels, many
ties), indicators of random events, and sparse supports.  Each is
integrated by TRACE and EIGEN, and by DEFINITION where its 4**n double sum
is affordable.  The quantum-integral layer does nearly all the work; no
call here goes through an event census.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import oracles
from .harness import OK, Call, Op, Workload, digest, untimed

# variables per kind and round, by horizon
HORIZONS = {6: 6, 10: 2, 14: 1, 16: 1}
KINDS = ("rational", "counts", "indicator", "sparse")
DEFINITION_MAX_STEPS = 10
SPARSE_MAX = 64
DENOMINATORS = (1, 2, 3, 4)


def _rational(rng: random.Random) -> tuple[int, int]:
    return rng.randint(-24, 24), rng.choice(DENOMINATORS)


def generate(seed: int, horizons=HORIZONS) -> list[tuple]:
    """Variable specs (kind, n, payload), in a seeded order.

    Payloads: rational -> (num, den) per path; counts -> "ones" or
    "changes"; indicator -> event mask; sparse -> ((path, num, den), ...).
    """
    rng = random.Random(f"integral:{seed}")
    specs = []
    for n, per_kind in horizons.items():
        size = 1 << n
        for kind in KINDS:
            for _ in range(per_kind):
                if kind == "rational":
                    payload = tuple(_rational(rng) for _ in range(size))
                elif kind == "counts":
                    payload = rng.choice(("ones", "changes"))
                elif kind == "indicator":
                    payload = rng.getrandbits(size) or 1
                else:
                    support = rng.sample(range(size), rng.randint(1, min(SPARSE_MAX, size)))
                    payload = tuple((j, *_rational(rng)) for j in sorted(support))
                specs.append((kind, n, payload))
    rng.shuffle(specs)
    return specs


def _values(kind: str, n: int, payload) -> list[Fraction]:
    size = 1 << n
    if kind == "rational":
        return [Fraction(num, den) for num, den in payload]
    if kind == "counts":
        if payload == "ones":
            return [Fraction(bin(j).count("1")) for j in range(size)]
        return [Fraction(oracles.path_changes(_bits(j, n))) for j in range(size)]
    if kind == "indicator":
        return [Fraction((payload >> j) & 1) for j in range(size)]
    values = [Fraction(0)] * size
    for j, num, den in payload:
        values[j] = Fraction(num, den)
    return values


def _bits(j: int, n: int) -> list[int]:
    return [(j >> (n - 1 - i)) & 1 for i in range(n)]


def _levels(values: list[Fraction]) -> int:
    """Distinct nonzero levels of the positive and negative parts."""
    return len({v for v in values if v})


def build(qw, seed: int, timed=untimed, **plan) -> Workload:
    qi = qw.qintegral
    RV = qi.RandomVariable
    routes = [qi.IntegralStrategy.TRACE, qi.IntegralStrategy.EIGEN]
    specs = generate(seed, **plan)
    table = oracles.ResidueTable()
    states = {}
    ops = []
    for kind, n, payload in specs:
        if n not in states:
            states[n] = qw.DecoherenceState(qw.PathSpace(n))
        state = states[n]
        space = state.space
        if kind == "counts":
            make = RV.ones if payload == "ones" else RV.changes
            var = timed("qintegral.variable_build", make, space)
        elif kind == "indicator":
            var = timed("qintegral.variable_build", RV.indicator, qw.Event(space, payload))
        else:
            values = _values(kind, n, payload)
            var = timed("qintegral.variable_build", RV.from_values, space, values)
        expect = _Expected(qw, table, kind, n, payload, state)
        counters = {
            "qintegral.values": 1 << n,
            "qintegral.levels": _levels(var.values),
        }
        for route in routes + ([qi.IntegralStrategy.DEFINITION] if n <= DEFINITION_MAX_STEPS else []):
            call = Call(f"qintegral.integral.{route.value}", qi.integral, (state, var, route), counters)
            ops.append(Op(route.value, [call], expect.check))
    return Workload("integral", ops, digest(specs))


class _Expected:
    """The variable's integral by the benchmark's own layered sum, computed
    once from the generated values; an indicator must also equal the
    library's measure of its event."""

    def __init__(self, qw, table, kind, n, payload, state):
        self.qw, self.table, self.kind, self.n, self.payload, self.state = (
            qw, table, kind, n, payload, state,
        )
        self.value = None

    def check(self, out) -> str:
        if not isinstance(out, tuple):
            return f"raised {out}"
        if self.value is None:
            values = _values(self.kind, self.n, self.payload)
            self.value = oracles.layered_integral(values, self.table.residues(self.n), self.n)
            if self.kind == "indicator":
                event = self.qw.Event(self.state.space, self.payload)
                if self.qw.mu(self.state, event).as_fraction() != self.value:
                    return "indicator oracle differs from the measure of its event"
        if out[0] != self.value:
            return "integral differs from the layered-sum oracle"
        return OK
