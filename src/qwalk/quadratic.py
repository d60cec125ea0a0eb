"""Quadratic algebras of finite set systems and q-measures on them.

A quadratic algebra contains the empty set and the universe and is closed
under the union of any three mutually disjoint members whose pairwise unions
it already holds; a q-measure on one satisfies the grade-2 identity on every
such triple.  Only partner pairs -- disjoint members whose union is a member
-- can sit in such a triple, so the checkers list each member's partners
once and walk the partners of its partners, reporting the first
counterexample in a fixed (a, b, c) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from typing import Iterable, Mapping

from .cylinder import SymbolicEvent, approximant_indices
from .errors import charge

UNIVERSE_MAX = 24  # a limit of the representation, not a cost: members are charged apart


@dataclass(frozen=True)
class SetSystem:
    """A deduplicated collection of subsets of range(universe_size), as masks."""

    universe_size: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 < self.universe_size <= UNIVERSE_MAX:
            raise ValueError(f"universe size must be in 1..{UNIVERSE_MAX}")
        full = (1 << self.universe_size) - 1
        if any(m < 0 or m > full for m in self.members):
            raise ValueError("member mask outside the universe")
        ordered = tuple(sorted(set(self.members)))
        # M members cost the checkers up to M**2 partner-pair tests
        charge(len(ordered) ** 2, f"set system of {len(ordered)} members")
        object.__setattr__(self, "members", ordered)

    @classmethod
    def from_index_lists(cls, universe_size: int, subsets: Iterable[Iterable[int]]) -> "SetSystem":
        masks = []
        for subset in subsets:
            mask = 0
            for e in subset:
                if not 0 <= e < universe_size:
                    raise ValueError(f"element {e} outside universe of size {universe_size}")
                mask |= 1 << e
            masks.append(mask)
        return cls(universe_size, tuple(masks))

    @property
    def universe_mask(self) -> int:
        return (1 << self.universe_size) - 1

    def has_empty(self) -> bool:
        return 0 in self.members

    def has_universe(self) -> bool:
        return self.universe_mask in self.members

    def indices_of(self, mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.universe_size) if mask >> i & 1)


@dataclass(frozen=True)
class QMeasureTable:
    """Nonnegative exact values assigned to every member of a set system."""

    system: SetSystem
    values: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        table = {mask: Fraction(v) for mask, v in self.values.items()}
        if set(table) != set(self.system.members):
            raise ValueError("value table domain must equal the member list")
        if any(v < 0 for v in table.values()):
            raise ValueError("q-measure values must be nonnegative")
        object.__setattr__(self, "values", table)

    def __getitem__(self, mask: int) -> Fraction:
        return self.values[mask]


def _qualifying_triples(system: SetSystem):
    """Triples a < b < c of nonempty members that are mutually disjoint with
    all three pairwise unions in the system, ordered by (a, b, c).

    The partners P(a) of a member a are the later nonempty members b with
    a & b empty and a | b a member; the triples are then a, b in P(a) and
    c in P(a) and P(b).  Triples involving the empty member or repeated
    members satisfy both axioms identically (checked separately where they
    do constrain), so the walk covers exactly the triples that can fail.
    """
    member_set = set(system.members)
    nonempty = [m for m in system.members if m]
    partners = {
        a: [b for b in nonempty[i + 1:] if not a & b and a | b in member_set]
        for i, a in enumerate(nonempty)
    }
    for a, of_a in partners.items():
        in_a = set(of_a)
        for b in of_a:
            for c in partners[b]:
                if c in in_a:
                    yield a, b, c


def is_quadratic_algebra(system: SetSystem) -> tuple[bool, tuple[int, int, int] | None]:
    """Check the quadratic-algebra axioms; on failure return the first
    qualifying triple whose union is missing (None when the failure is a
    missing empty set or universe with no such triple)."""
    member_set = set(system.members)
    for a, b, c in _qualifying_triples(system):
        if (a | b | c) not in member_set:
            return False, (a, b, c)
    if not system.has_empty() or not system.has_universe():
        return False, None
    return True, None


def is_q_measure(
    system: SetSystem, table: QMeasureTable
) -> tuple[bool, tuple[int, int, int] | None]:
    """Check the grade-2 identity on every qualifying triple of the system.

    One walk over the triples checks closure and the identity together;
    a system that is not a quadratic algebra raises ValueError.  The
    all-empty triple forces the value of the empty set to zero; that is the
    counterexample reported when it fails.
    """
    if table.system is not system and table.system != system:
        raise ValueError("value table built for a different system")
    not_algebra = "grade-2 identity is only checked on quadratic algebras"
    if not system.has_empty() or not system.has_universe():
        raise ValueError(not_algebra)
    # the identity is linear: compare integer numerators over one denominator
    den = lcm(*(v.denominator for v in table.values.values()))
    mu = {m: v.numerator * (den // v.denominator) for m, v in table.values.items()}
    witness = (0, 0, 0) if mu[0] != 0 else None
    for a, b, c in _qualifying_triples(system):
        abc = a | b | c
        if abc not in mu:
            raise ValueError(not_algebra)
        if witness is None and mu[abc] != (
            mu[a | b] + mu[a | c] + mu[b | c] - mu[a] - mu[b] - mu[c]
        ):
            witness = (a, b, c)
    return witness is None, witness


# -- worked systems ----------------------------------------------------------

THREE_TYPE_GROUPS = ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def three_type_system() -> tuple[SetSystem, QMeasureTable]:
    """A nine-element universe split into three types of three elements.

    Members are the empty set, the universe, and every subset whose three
    per-type counts are exactly {0, 1, 2} or {1, 2, 3}; the accompanying
    measure assigns 1/6 to the size-3 members, 1/2 to the size-6 members,
    and 0 / 1 to the ends.  The measure fails additivity on disjoint size-3
    pairs whose union is a member (1/6 + 1/6 against 1/2) yet satisfies the
    grade-2 identity.
    """
    masks = {0, (1 << 9) - 1}
    for counts in ((0, 1, 2), (1, 2, 3)):
        for assigned in permutations(counts):
            for picks in _picks(THREE_TYPE_GROUPS, assigned):
                masks.add(picks)
    system = SetSystem(9, tuple(masks))
    by_size = {0: Fraction(0), 3: Fraction(1, 6), 6: Fraction(1, 2), 9: Fraction(1)}
    table = QMeasureTable(system, {m: by_size[m.bit_count()] for m in system.members})
    return system, table


def _picks(groups, counts):
    def rec(gi: int, acc: int):
        if gi == len(groups):
            yield acc
            return
        for combo in combinations(groups[gi], counts[gi]):
            add = 0
            for e in combo:
                add |= 1 << e
            yield from rec(gi + 1, acc | add)

    yield from rec(0, 0)


def odd_count_system(x_count: int = 3, y_count: int = 2) -> SetSystem:
    """Universe of x-elements (an odd number of them) plus y-elements; the
    members are the subsets holding zero or an odd number of x-elements."""
    if x_count < 1 or x_count % 2 == 0:
        raise ValueError("x_count must be odd and positive")
    if y_count < 0:
        raise ValueError("y_count must be nonnegative")
    size = x_count + y_count
    x_mask = (1 << x_count) - 1
    members = []
    for mask in range(1 << size):
        xs = (mask & x_mask).bit_count()
        if xs == 0 or xs % 2 == 1:
            members.append(mask)
    return SetSystem(size, tuple(members))


def cardinality_squared_table(system: SetSystem) -> QMeasureTable:
    """The squared-cardinality assignment, a q-measure on any finite
    quadratic algebra."""
    return QMeasureTable(
        system, {m: Fraction(m.bit_count() ** 2) for m in system.members}
    )


def parse_system_file(text: str) -> SetSystem:
    """Parse the file format: first line the universe size, then one subset
    per line as comma-separated element indices (an empty line is the
    empty set)."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty system file")
    universe_size = int(lines[0].strip())
    subsets = []
    for line in lines[1:]:
        body = line.strip()
        subsets.append([] if not body else [int(tok) for tok in body.split(",")])
    return SetSystem.from_index_lists(universe_size, subsets)


# -- strong disjointness ------------------------------------------------------


@dataclass(frozen=True)
class DisjointWitness:
    """Outcome of a strong-disjointness search: a witnessing level, or the
    statement that none was found up to the bound (not a disproof)."""

    witnessed: bool
    at_level: int | None


def strongly_disjoint(a: SymbolicEvent, b: SymbolicEvent, n_max: int) -> DisjointWitness:
    """Least level at which the two events' cylindrical hulls are disjoint."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    for n in range(1, n_max + 1):
        ia = approximant_indices(a, n)
        ib = approximant_indices(b, n)
        if ia is None and ib is None:
            continue  # both hulls are the full space at every level
        if ia is None:
            disjoint = not ib
        elif ib is None:
            disjoint = not ia
        else:
            disjoint = ia.isdisjoint(ib)
        if disjoint:
            return DisjointWitness(True, n)
    return DisjointWitness(False, None)
