"""``limits``: measure-limit tables of symbolic events on the infinite space.

Tables of at-most-K-ones hulls (K = 1, 2, 3, each at the largest level that
fits a round), of the complement-constant, return-to-zero and
finitely-many-ones events and of seeded finite path sets and their
complements to level 512, the block-product sequence and the variation
series to 64, and single at-most-3 terms above the library's combination
cap.  The at-most-K census in the cylinder layer dominates; no event mask
is built and no integral computed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import oracles
from .harness import OK, REFUSED, Call, Op, Raised, Workload, digest, untimed

AT_MOST = ((1, 512), (2, 256), (3, 64))  # (K, n_max)
FULL_LEVEL = 512
PROBES = ((3, 182), (3, 256), (3, 512))  # above the 10**6-member cap today
BLOCK_I_MAX = 64
VARIATION_MAX = 64
SPARSE_HULL_CHECK = 20  # approximant + mu cross-check levels, sparse hulls
DENSE_HULL_CHECK = 12  # ... hulls holding most of the space
PATHS_PER_SET = 8  # fixed: a table's cost grows with the number of paths
PREFIX_MAX = 48


def _random_paths(rng: random.Random) -> tuple:
    return tuple(
        (tuple(rng.randrange(2) for _ in range(rng.randint(0, PREFIX_MAX))), rng.randrange(2))
        for _ in range(PATHS_PER_SET)
    )


def generate(seed: int, at_most=AT_MOST, full_level=FULL_LEVEL, probes=PROBES) -> dict:
    """The seeded inputs plus the fixed plan, as plain data."""
    rng = random.Random(f"limits:{seed}")
    return {
        "at_most": at_most,
        "full_level": full_level,
        "probes": probes,
        "finite_set": _random_paths(rng),
        "complement_set": _random_paths(rng),
    }


def _at_most_members(k: int, n_max: int) -> int:
    """Members the current at-most-k census enumerates up to level n_max."""
    return sum(comb(n, t) for n in range(1, n_max + 1) for t in range(min(k, n) + 1))


def build(qw, seed: int, timed=untimed, **plan) -> Workload:
    cyl = qw.cylinder
    spec = generate(seed, **plan)
    top = spec["full_level"]
    ctx = _Context(qw, top)

    def eventual(paths):
        return tuple(cyl.EventualPath(bits, rep) for bits, rep in paths)

    ops = []
    for k, n_max in spec["at_most"]:
        counters = {"cylinder.levels": n_max, "cylinder.at_most.members": _at_most_members(k, n_max)}
        censuses = lambda n_max=n_max, k=k: oracles.census_tables(n_max, k)
        event = cyl.AtMostKOnes(k)
        ops.append(ctx.table(f"at_most_{k}", event, n_max, "at_most", censuses, counters, sparse=True))

    others = [
        ("complement_constant", [((), 0)]),
        ("return_to_zero", [((1,), 1)]),
        ("finitely_many_ones", None),
        ("finite_set", spec["finite_set"]),
        ("complement_set", spec["complement_set"]),
    ]
    for kind, raw in others:
        inner = kind == "finite_set"
        if raw is None:
            event = cyl.FinitelyManyOnes()
        elif inner:
            event = cyl.FinitePathSet(eventual(raw))
        else:
            event = cyl.ComplementOfFinitePathSet(eventual(raw))
        censuses = lambda raw=raw, inner=inner: ctx.censuses(raw, inner)
        ops.append(ctx.table(kind, event, top, "other", censuses, {"cylinder.levels": top}, sparse=inner))

    for k, n in spec["probes"]:
        ops.append(ctx.probe(k, n))
    ops.append(ctx.block())
    ops.append(ctx.variation())
    ops.append(ctx.closed_forms(top))
    return Workload("limits", ops, digest(spec), latency=False)


class _Context:
    def __init__(self, qw, top):
        self.qw, self.cyl, self.top = qw, qw.cylinder, top
        self._full = None

    @property
    def full(self) -> list:
        """Censuses of the whole space at levels 1..top, computed on demand."""
        if self._full is None:
            self._full = oracles.census_tables(self.top)
        return self._full

    def censuses(self, paths, inner: bool) -> list:
        """Level-by-level censuses of the prefixes of ``paths`` (inner) or of
        everything else; the whole space when ``paths`` is None."""
        if paths is None:
            return self.full
        out = []
        for n in range(1, self.top + 1):
            c = oracles.prefix_census(paths, n)
            out.append(c if inner else tuple(f - i for f, i in zip(self.full[n - 1], c)))
        return out

    def table(self, kind, event, n_max, family, censuses, counters, sparse) -> Op:
        """A limit_mu_hat table, checked level by level against the oracle
        censuses and, at small levels, against approximant + mu."""
        cyl = self.cyl
        hull_levels = min(n_max, SPARSE_HULL_CHECK if sparse else DENSE_HULL_CHECK)

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            rows = out[0].values
            if [row[0] for row in rows] != list(range(1, n_max + 1)):
                return "table levels are not 1..n_max"
            for (n, exact, approx), census in zip(rows, censuses()):
                want = oracles.measure_of(census, n)
                if exact.as_fraction() != want or approx != float(exact):
                    return f"level {n} differs from the census oracle"
            for n in range(1, hull_levels + 1):
                if rows[n - 1][1] != self._hull_measure(event, n):
                    return f"level {n} differs from approximant + mu"
            if kind == "complement_constant":
                for n, exact, _ in rows:
                    if exact != cyl.complement_of_constant_closed_form(n):
                        return f"level {n} differs from the closed form"
            return OK

        call = Call(f"cylinder.limit_mu_hat.{family}", cyl.limit_mu_hat, (event, n_max), counters)
        return Op(kind, [call], check)

    def _hull_measure(self, event, n):
        """Measure of the level-n hull (of the inner set, for a complement,
        whose term is the measure of the inner hull's complement)."""
        cyl, qw = self.cyl, self.qw
        if isinstance(event, cyl.ComplementOfFinitePathSet):
            base = cyl.approximant(cyl.FinitePathSet(event.paths), n).base.complement()
            return qw.mu(qw.DecoherenceState(base.space), base)
        return cyl.mu_cyl(cyl.approximant(event, n))

    def probe(self, k, n) -> Op:
        """One at-most-k term above the library's combination cap: either the
        right value or the documented ResourceLimitError."""
        cyl = self.cyl
        members = sum(comb(n, t) for t in range(k + 1))

        def counts(result):
            if not isinstance(result, Raised):
                return {"cylinder.levels": 1, "cylinder.at_most.members": members}
            return {"cylinder.levels": 1, "cylinder.at_most.refused": 1}

        def check(out):
            if isinstance(out, tuple):
                census = oracles.census_tables(n, k)[-1]
                ok = out[0].as_fraction() == oracles.measure_of(census, n)
                return OK if ok else f"at-most-{k} term at {n} differs from the census oracle"
            if out.type_name == "ResourceLimitError":
                return REFUSED
            return f"raised {out}"

        call = Call("cylinder.limit_term.at_most", cyl.limit_term, (cyl.AtMostKOnes(k), n), counts)
        return Op("probe", [call], check)

    def block(self) -> Op:
        cyl = self.cyl

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            measures, verdict = out
            want = [(i, Fraction(9, 8) ** i, "direct" if i <= 4 else "extrapolated") for i in range(1, BLOCK_I_MAX + 1)]
            if [(m.index, m.value, m.provenance) for m in measures] != want:
                return "block products differ from (9/8)**i"
            # (9/8)**64 < 10**6 and every step grows by more than the
            # tolerance, so the classifier can neither diverge nor settle
            if verdict.value != "undetermined":
                return f"block verdict {verdict.value}, expected undetermined"
            return OK

        calls = [
            Call("cylinder.repeated_block_measures", cyl.repeated_block_measures, (BLOCK_I_MAX,)),
            Call("cylinder.repeated_block_verdict", cyl.repeated_block_verdict, (BLOCK_I_MAX,)),
        ]
        return Op("block", calls, check)

    def variation(self) -> Op:
        cyl = self.cyl

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            ok = list(out) == [1 << n for n in range(1, VARIATION_MAX + 1)]
            return OK if ok else "variation differs from 2**n"

        calls = [
            Call("cylinder.variation_lower_bound", cyl.variation_lower_bound, (n,))
            for n in range(1, VARIATION_MAX + 1)
        ]
        return Op("variation", calls, check)

    def closed_forms(self, top) -> Op:
        cyl = self.cyl

        def check(out):
            if not isinstance(out, tuple):
                return f"raised {out}"
            for n, value in enumerate(out, start=1):
                c = self.full[n - 1]
                want = oracles.measure_of((c[0] - 1, c[1], c[2], c[3]), n)
                if value.as_fraction() != want:
                    return f"complement closed form at {n} differs from the census oracle"
            return OK

        calls = [
            Call("cylinder.complement_of_constant_closed_form", cyl.complement_of_constant_closed_form, (n,))
            for n in range(1, top + 1)
        ]
        return Op("closed_forms", calls, check)
