"""Cylinder sets of the infinite path space and limit-based measure extension.

A cylinder event pins down finitely many initial steps and leaves the rest
free; its measure is the truncated measure of its base, which is well
defined because appending a free step never changes the measure.  Events
beyond the cylinder algebra are described symbolically: finite path sets
and at-most-K ones as step automata, whose one census sweep gives the
measures of their cylindrical hulls.  Those may or may not settle down;
the verdicts reported here are numerical findings, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .decoherence import DecoherenceState, Event
from .errors import ResourceLimitError, charge
from .exact import Dyadic
from .paths import PathSpace, change_residue_count_levels
from .qmeasure import mu, mu_from_census

COMBINATION_CAP = 1_000_000  # not charged: perfbench pins at-most-3's refusal at 182
LIMIT_MAX_LEVEL = 512  # not charged: a chosen table length, far inside the digit limit
# limit-classifier rule (see classify_sequence); a limit table may set its
# own window and tol
LIMIT_WINDOW = 5
LIMIT_TOL = 1e-9
BLOW_UP = 1e6
GROWTH_RUN = 10
BLOCK_DIRECT_TERMS = 4  # block products computed from their bases


@dataclass(frozen=True, eq=False)
class CylinderEvent:
    """base * {0,1} * {0,1} * ... -- an event pinned on its first `level` steps."""

    level: int
    base: Event

    def __post_init__(self) -> None:
        if self.level != self.base.space.n:
            raise ValueError("cylinder level must match the base's horizon")

    @classmethod
    def from_indices(cls, level: int, indices) -> "CylinderEvent":
        if level < 0:
            raise ValueError("cylinder level must be nonnegative")
        if level == 0:
            # level-0 bases live over the one-point space of the empty
            # prefix; re-express over one step, which is the same event
            members = set(indices)
            if not members <= {0}:
                raise ValueError("level-0 base can only contain index 0")
            indices = (0, 1) if members else ()
            level = 1
        return cls(level, Event.from_indices(PathSpace(level), indices))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CylinderEvent):
            return NotImplemented
        top = max(self.level, other.level)
        return refine(self, top).base.mask == refine(other, top).base.mask

    def __repr__(self) -> str:
        return f"CylinderEvent(level={self.level}, base={self.base.to_tuple()})"


def _spread_nibble(nibble: int) -> int:
    """The byte with bits 2b and 2b+1 set for each set bit b of the nibble."""
    return sum(3 << (2 * b) for b in range(4) if nibble >> b & 1)


# one refinement level doubles every mask bit; a byte's low and high
# nibbles spread into the two bytes that replace it
_SPREAD_LOW = bytes(_spread_nibble(x & 15) for x in range(256))
_SPREAD_HIGH = bytes(_spread_nibble(x >> 4) for x in range(256))


def refine(cyl: CylinderEvent, to_level: int) -> CylinderEvent:
    """Re-express the same cylinder event with a finer base.

    Path j of the base becomes the 2**extra paths j << extra, ..., whose
    extra steps are free, so each level doubles every bit of the mask in
    place.  The mask is spread byte-wise through two 256-entry translate
    tables per level; no member is visited.
    """
    extra = to_level - cyl.level
    if extra < 0:
        raise ValueError("cannot refine to a coarser level")
    if extra == 0:
        return cyl
    charge(1 << to_level, f"level-{to_level} cylinder base")
    data = cyl.base.mask.to_bytes((cyl.base.space.size + 7) // 8, "little")
    for _ in range(extra):
        spread = bytearray(2 * len(data))
        spread[0::2] = data.translate(_SPREAD_LOW)
        spread[1::2] = data.translate(_SPREAD_HIGH)
        data = spread
    mask = int.from_bytes(data, "little")
    return CylinderEvent(to_level, Event(PathSpace(to_level), mask))


def mu_cyl(cyl: CylinderEvent) -> Dyadic:
    """Measure of the cylinder event: the truncated measure of its base."""
    return mu(DecoherenceState(cyl.base.space), cyl.base)


# -- symbolic events ---------------------------------------------------------


@dataclass(frozen=True)
class EventualPath:
    """An infinite path given by a finite run of step bits then a repeated bit."""

    prefix: tuple[int, ...]
    repeat: int

    def __post_init__(self) -> None:
        if self.repeat not in (0, 1) or any(b not in (0, 1) for b in self.prefix):
            raise ValueError("step bits must be 0 or 1")

    def step(self, i: int) -> int:
        """Site at time i >= 1."""
        if i < 1:
            raise ValueError("steps are numbered from 1")
        return self.prefix[i - 1] if i <= len(self.prefix) else self.repeat

    def index_at(self, n: int) -> int:
        """The length-n prefix of this path, as a path index."""
        j = 0
        for i in range(1, n + 1):
            j = (j << 1) | self.step(i)
        return j


@dataclass(frozen=True)
class FinitePathSet:
    """A finite set of eventually-constant paths."""

    paths: tuple[EventualPath, ...]


@dataclass(frozen=True)
class AtMostKOnes:
    """All paths that visit site 1 at most `limit` times."""

    limit: int

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ValueError("limit must be nonnegative")


@dataclass(frozen=True)
class ComplementOfFinitePathSet:
    """Everything except a finite set of eventually-constant paths."""

    paths: tuple[EventualPath, ...]


@dataclass(frozen=True)
class FinitelyManyOnes:
    """All paths that visit site 1 only finitely often."""


@dataclass(frozen=True)
class InfinitelyManyOnes:
    """All paths that visit site 1 infinitely often.

    The disjoint partner of FinitelyManyOnes: the two never witness
    strong disjointness because both hulls are the full space at every
    level, and both limit sequences are constantly 1.
    """


SymbolicEvent = Union[
    FinitePathSet,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    FinitelyManyOnes,
    InfinitelyManyOnes,
]

ALL_ZEROS = EventualPath((), 0)


def _automaton(event: SymbolicEvent, n: int):
    """The step automaton (moves, start) of a hull-described event, exact for
    its first n steps: moves[s] holds the states after a 0-step and a
    1-step, None where no member continues; the level-n hull is the step
    strings whose run never meets None.  At-most-K counts ones up to
    min(K, n).  A finite path set's states are sets of (path, steps read)
    pairs, steps capped at min(prefix length, n), so a prefix reaches one
    state however its paths are given; a complement answers with its inner
    set's automaton."""
    if isinstance(event, AtMostKOnes):
        k = min(event.limit, n)  # state s: s ones read
        return [(s, s + 1 if s < k else None) for s in range(k + 1)], 0
    if not isinstance(event, (FinitePathSet, ComplementOfFinitePathSet)):
        raise ValueError(f"unsupported symbolic event {event!r}")
    paths = event.paths
    ends = [min(len(p.prefix), n) for p in paths]
    states = [frozenset((j, 0) for j in range(len(paths)))]
    number = {states[0]: 0}
    moves = []
    for state in states:  # numbered in the order they are found
        split = ([], [])
        for j, i in state:
            split[paths[j].step(i + 1)].append((j, min(i + 1, ends[j])))
        row = []
        for pairs in map(frozenset, split):
            if pairs and pairs not in number:
                number[pairs] = len(states)
                states.append(pairs)
            row.append(number[pairs] if pairs else None)
        moves.append(tuple(row))
    return moves, 0


def _sweep(moves, start, n_max: int):
    """Censuses at levels 1..n_max of the automaton's hulls, one census per
    live state: a step off the last site, the residue's parity, is a
    change, so a 0-step lifts odd residues and a 1-step even ones, and a
    level's census is the sum of what its steps carry."""
    live = {start: (1, 0, 0, 0)}  # the empty path
    for _ in range(n_max):
        grown = {}
        c0 = c1 = c2 = c3 = 0
        for s, (a0, a1, a2, a3) in live.items():
            zero, one = moves[s]
            if zero is not None:
                x, y = a0 + a3, a1 + a2
                c0 += x
                c2 += y
                b = grown.get(zero)
                grown[zero] = (x, 0, y, 0) if b is None else (b[0] + x, b[1], b[2] + y, b[3])
            if one is not None:
                x, y = a0 + a1, a2 + a3
                c1 += x
                c3 += y
                b = grown.get(one)
                grown[one] = (0, x, 0, y) if b is None else (b[0], b[1] + x, b[2], b[3] + y)
        live = grown
        yield c0, c1, c2, c3


def _hull(moves, start, n: int) -> list[int]:
    """Indices of the automaton's level-n hull, built from the last step
    back: tails[s] lists the live step strings of the m steps left after
    state s, so a 0-step reuses its target's list and only a 1-step sets a
    new bit.  The lists are counted before they are built, and the hull is
    charged 16 units per member and 16 for the list, so it stays under
    2**20 members; for a counter, every tails list is also within that size."""
    sizes = [1] * len(moves)
    for _ in range(n):
        sizes = [
            (0 if zero is None else sizes[zero]) + (0 if one is None else sizes[one])
            for zero, one in moves
        ]
    charge(16 * (sizes[start] + 1), f"level-{n} hull of {sizes[start]} members")
    tails = [[0]] * len(moves)
    for m in range(n):
        tails = [
            ([] if zero is None else tails[zero])
            + ([] if one is None else [1 << m | j for j in tails[one]])
            for zero, one in moves
        ]
    return tails[start]


def _capped_at_most_censuses(k: int, censuses):
    """The at-most-k sweep, refused from the first level whose hull has more
    than COMBINATION_CAP members; the sweep itself would run on at the same
    cost."""
    for n, census in enumerate(censuses, start=1):
        if sum(census) > COMBINATION_CAP:
            raise ResourceLimitError(
                f"at-most-{k}-ones census at level {n} exceeds "
                f"{COMBINATION_CAP} members"
            )
        yield census


def _limit_censuses(event: SymbolicEvent, n_max: int):
    """Censuses of the event's limit terms at levels 1..n_max, in one pass:
    its hulls, or for a complement the complements of the inner set's hulls."""
    if isinstance(event, (FinitelyManyOnes, InfinitelyManyOnes)):
        return change_residue_count_levels(n_max)
    censuses = _sweep(*_automaton(event, n_max), n_max)
    if isinstance(event, ComplementOfFinitePathSet):
        pairs = zip(change_residue_count_levels(n_max), censuses)
        return (tuple(f - i for f, i in zip(*pair)) for pair in pairs)
    if isinstance(event, AtMostKOnes):
        return _capped_at_most_censuses(event.limit, censuses)
    return censuses


def approximant(event: SymbolicEvent, n: int) -> CylinderEvent:
    """The level-n cylindrical hull: all paths whose first n steps extend into
    the event.  Hulls decrease with n and contain the event."""
    if n < 0:
        raise ValueError("approximant level must be nonnegative")
    if n == 0:
        if isinstance(event, FinitePathSet) and not event.paths:
            return CylinderEvent.from_indices(0, ())
        return CylinderEvent.from_indices(0, (0,))
    charge(1 << n, f"level-{n} approximant base")
    space = PathSpace(n)
    indices = approximant_indices(event, n)
    base = Event.full(space) if indices is None else Event.from_indices(space, indices)
    return CylinderEvent(n, base)


def approximant_indices(event: SymbolicEvent, n: int) -> frozenset[int] | None:
    """Member indices of the level-n hull, or None when the hull is the
    full space (kept symbolic so large levels stay cheap)."""
    if n < 1:
        raise ValueError("need level >= 1")
    if isinstance(event, FinitePathSet):
        return frozenset(p.index_at(n) for p in event.paths)
    if isinstance(event, (ComplementOfFinitePathSet, FinitelyManyOnes, InfinitelyManyOnes)):
        # every finite prefix extends into these events, so the hull is full
        return None
    return frozenset(_hull(*_automaton(event, n), n))


def limit_term(event: SymbolicEvent, n: int) -> Dyadic:
    """The level-n term of the event's measure-limit sequence.

    For hull-described events this is the measure of the decreasing hull.
    A complement of a finite path set is instead the increasing union of
    the complements of the inner set's hulls, so its terms are the measures
    of those complements; both exact, via residue censuses only.  The term
    ends the census sweep `limit_mu_hat` tabulates, at that table's cost,
    so it is refused past LIMIT_MAX_LEVEL like the table.  At-most-K terms
    past COMBINATION_CAP hull members raise ResourceLimitError.
    """
    if n < 1:
        raise ValueError("need level >= 1")
    if n > LIMIT_MAX_LEVEL:
        raise ResourceLimitError(f"limit terms are capped at n <= {LIMIT_MAX_LEVEL}")
    *_, census = _limit_censuses(event, n)
    return mu_from_census(census, n)


# -- limit reports -----------------------------------------------------------


class LimitVerdict(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LimitReport:
    """Numerical verdict on a measure sequence, with the full value table."""

    values: tuple[tuple[int, Dyadic, float], ...]
    verdict: LimitVerdict
    estimate: float | None
    at_n: int | None
    sequence_kind: str


def classify_sequence(
    values: list[float], window: int, tol: float
) -> tuple[LimitVerdict, float | None, int | None]:
    """Shared verdict rule for measure sequences indexed 1, 2, 3, ...

    Diverged: some value exceeds BLOW_UP after GROWTH_RUN consecutive
    increases.  Converged: the trailing run of consecutive differences below
    `tol` spans at least `window` values; the estimate is the final value and
    the attachment point is where that window is first complete; `tol` must
    be positive and finite.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    if not 0 < tol < float("inf"):  # NaN fails both comparisons
        raise ValueError("tol must be positive and finite")
    increases = 0
    for t in range(1, len(values)):
        increases = increases + 1 if values[t] > values[t - 1] else 0
        if values[t] > BLOW_UP and increases >= GROWTH_RUN:
            return LimitVerdict.DIVERGED, None, t + 1
    run_start = len(values) - 1
    while run_start > 0 and abs(values[run_start] - values[run_start - 1]) < tol:
        run_start -= 1
    trailing = len(values) - run_start  # values inside the stable tail
    if trailing >= window:
        return LimitVerdict.CONVERGED, values[-1], run_start + window
    return LimitVerdict.UNDETERMINED, None, None


def limit_mu_hat(
    event: SymbolicEvent, n_max: int, window: int = LIMIT_WINDOW, tol: float = LIMIT_TOL
) -> LimitReport:
    """Tabulate the event's measure sequence and classify its limit.

    One census sweep yields every level's term, each equal to
    `limit_term(event, n)`; a whole table costs what its last term does,
    and an at-most-K table past COMBINATION_CAP members is refused.
    """
    if not 2 <= window <= n_max:
        raise ValueError("need n_max >= window >= 2")
    if n_max > LIMIT_MAX_LEVEL:
        raise ResourceLimitError(f"limit tables are capped at n <= {LIMIT_MAX_LEVEL}")
    rows = []
    for n, census in enumerate(_limit_censuses(event, n_max), start=1):
        exact = mu_from_census(census, n)
        rows.append((n, exact, float(exact)))
    verdict, estimate, at_n = classify_sequence([r[2] for r in rows], window, tol)
    kind = (
        "increasing-complements"
        if isinstance(event, ComplementOfFinitePathSet)
        else "decreasing-hulls"
    )
    return LimitReport(
        values=tuple(rows),
        verdict=verdict,
        estimate=estimate,
        at_n=at_n,
        sequence_kind=kind,
    )


# -- concrete sequences ------------------------------------------------------

# a step automaton for the three-step blocks 010, 100 and 110, which visit
# site 1 exactly once mid-run; state 0 starts a block
_BLOCK_MOVES = [(1, 2), (None, 3), (3, 3), (0, None)]


@dataclass(frozen=True)
class BlockMeasure:
    index: int
    value: Fraction
    provenance: str  # "direct" or "extrapolated"


def repeated_block_measures(i_max: int) -> list[BlockMeasure]:
    """Measures of the nested block-product cylinders, which grow as (9/8)**i.

    The first BLOCK_DIRECT_TERMS terms are computed from the level-3i base's
    residue census, swept through the blocks' step automaton, and checked
    against the ratio; later terms extrapolate the verified ratio and are
    labeled as such.
    """
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    ratio = Fraction(9, 8)
    out = []
    direct = min(i_max, BLOCK_DIRECT_TERMS)
    censuses = list(_sweep(_BLOCK_MOVES, 0, 3 * direct))
    for i in range(1, direct + 1):
        value = mu_from_census(censuses[3 * i - 1], 3 * i).as_fraction()
        if value != ratio ** i:
            raise RuntimeError(
                f"block-product measure at level {3 * i} broke the expected ratio"
            )
        out.append(BlockMeasure(i, value, "direct"))
    for i in range(direct + 1, i_max + 1):
        out.append(BlockMeasure(i, ratio ** i, "extrapolated"))
    return out


def repeated_block_verdict(i_max: int = 130) -> LimitVerdict:
    """Verdict of the limit classifier on the block-product measure sequence."""
    series = [float(term.value) for term in repeated_block_measures(i_max)]
    verdict, _, _ = classify_sequence(series, LIMIT_WINDOW, LIMIT_TOL)
    return verdict


def variation_lower_bound(n: int) -> int:
    """Variation witnessed by the partition into all level-n elementary
    cylinders: (sum of the square roots of their measures) squared.  The
    2**n terms share the measure 1/2**n, so the sum squared is
    (2**n)**2 / 2**n, exactly 2**n, with no irrational step."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    count = 1 << n
    return (count * count * Dyadic(1, n)).numerator_at(0)


# sign of cos(m*pi/4) for m = 0..7
_COS_EIGHTH_SIGNS = (1, 1, 0, -1, -1, -1, 0, 1)


def _root_two_cos(h: int, m: int) -> Dyadic:
    """2**(h/2) * cos(m*pi/4), exact when h and m have the same parity.

    cos(m*pi/4) is 0 or +-1 for even m and +-2**(-1/2) for odd m, so the
    product is 0 or a signed power of two, 2**(h/2) or 2**((h-1)/2).  With
    h and m of different parity the root-two parts do not cancel, and
    ValueError is raised.
    """
    if (h - m) & 1:
        raise ValueError(f"2**({h}/2) * cos({m}*pi/4) is not dyadic")
    sign = _COS_EIGHTH_SIGNS[m & 7]
    exp = (h - (m & 1)) >> 1
    return Dyadic(sign << exp) if exp >= 0 else Dyadic(sign, -exp)


def change_residue_profile_closed_form(n: int) -> tuple[int, int, int, int]:
    """paths.change_residue_counts(n), the residue profile of change counts
    mod 4 over the whole level-n space, from its closed form, evaluated
    exactly in dyadic rationals.

    Each class holds 2**(n-2) + 2**(n/2 - 1) * cos((n - 2j) * pi / 4) paths;
    n - 2 and n - 2j have the same parity, so every term is dyadic and the
    sum an integer.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    base = Dyadic(1 << n, 2)  # 2**(n-2)
    return tuple((base + _root_two_cos(n - 2, n - 2 * j)).numerator_at(0) for j in range(4))


def complement_of_constant_closed_form(n: int) -> Dyadic:
    """Closed form for the level-n term of the stays-nowhere complement event
    (all paths except the one that never leaves site 0):

        1 + 1/2**n - cos(n*pi/4) / 2**(n/2 - 1)

    evaluated exactly: the cosine term is 2**((2 - n)/2) * cos(n*pi/4), and
    2 - n has the parity of n, so it is dyadic for every n.  The sign of
    the cosine term here is the one the residue-census route confirms.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1 + Dyadic(1, n) - _root_two_cos(2 - n, n)
