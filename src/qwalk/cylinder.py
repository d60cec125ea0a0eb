"""Cylinder sets of the infinite path space and limit-based measure extension.

A cylinder event pins down finitely many initial steps and leaves the rest
free; its measure is the truncated measure of its base, which is well
defined because appending a free step never changes the measure.  Events
beyond the cylinder algebra are described symbolically, their cylindrical
hulls as step automata, whose one sweep of signed census pairs gives the
hulls' measures.  Those may or may not settle down; the verdicts reported
here are numerical findings, not proofs.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from operator import truediv
from typing import Union

from .decoherence import DecoherenceState, Event
from .errors import ResourceLimitError, charge
from .exact import Dyadic
from .paths import PathSpace, change_residue_count_levels
from .qmeasure import _pair_mu, mu

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
        # a bit equal to 0 or 1 (True, 1.0, Fraction(1)) is kept as that int
        object.__setattr__(self, "prefix", tuple(map(int, self.prefix)))
        object.__setattr__(self, "repeat", int(self.repeat))

    def step(self, i: int) -> int:
        """Site at time i >= 1."""
        if i < 1:
            raise ValueError("steps are numbered from 1")
        return self.prefix[i - 1] if i <= len(self.prefix) else self.repeat

    def index_at(self, n: int) -> int:
        """The length-n prefix of this path, as a path index: its first n
        prefix bits, padded to n steps with the repeat bit."""
        bits = "".join(map(str, self.prefix[:n])).ljust(n, "01"[self.repeat])
        return int(bits or "0", 2)


@dataclass(frozen=True)
class FinitePathSet:
    """A finite set of eventually-constant paths."""

    paths: tuple[EventualPath, ...]


@dataclass(frozen=True)
class AtMostKOnes:
    """All paths that visit site 1 at most `limit` times."""

    limit: int

    def __post_init__(self) -> None:
        if not isinstance(self.limit, int):
            raise ValueError("limit must be an integer")
        if self.limit < 0:
            raise ValueError("limit must be nonnegative")
        object.__setattr__(self, "limit", int(self.limit))  # True is kept as 1


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

    The disjoint partner of FinitelyManyOnes: both hulls are the full
    space at every level, so the two are proved never strongly disjoint
    at level 1, and both limit sequences are constantly 1.
    """


SymbolicEvent = Union[
    FinitePathSet,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    FinitelyManyOnes,
    InfinitelyManyOnes,
]

ALL_ZEROS = EventualPath((), 0)


def _description(event: SymbolicEvent, n: int):
    """The one reader of the event families, exact for their first n steps:
    the live states a depth of its hull holds, known before any build; a
    call building the hull's step automaton (moves, start), moves[s] the
    states after a 0-step and a 1-step or None, whose sweep gives its
    hull's census pairs; and, for a complement of a finite path set alone,
    a call building its inner set's automaton, else None.  A complement's
    hull, and that of finitely or infinitely many ones, is the whole space:
    one state, live on either bit.  Any other object is not an event."""
    if isinstance(event, AtMostKOnes):
        k = min(event.limit, n)
        return k + 1, lambda: (_counter(k), 0), None
    if isinstance(event, FinitePathSet):
        return max(len(event.paths), 1), lambda: _trie(event.paths, n), None
    if isinstance(event, ComplementOfFinitePathSet):
        return 1, lambda: ([(0, 0)], 0), lambda: _trie(event.paths, n)
    if isinstance(event, (FinitelyManyOnes, InfinitelyManyOnes)):
        return 1, lambda: ([(0, 0)], 0), None
    raise ValueError(f"unsupported symbolic event {event!r}")


def _counter(k: int) -> list:
    """The at-most-k counter's moves, from state 0: state s has read s ones."""
    return [(s, s + 1 if s < k else None) for s in range(k + 1)]


def _trie(paths: tuple[EventualPath, ...], n: int):
    """The step automaton (moves, start) of a finite path set, exact for its
    first n steps: the trie of its distinct prefixes to depth
    D = min(L + 1, n), L the longest prefix capped at n, with a state per d
    steps read and their index, the root first.  Past its prefix a path
    repeats one bit, so a depth-D state loops on the bit that reached it;
    when D = n no run reads past it, and at n = 0 the root is alone.  The
    build is first charged 16 units for P * (L + 2) states, which bounds
    the trie's 1 + P * D."""
    longest = min(max((len(p.prefix) for p in paths), default=0), n)
    charge(16 * len(paths) * (longest + 2), f"path-set automaton of {len(paths)} paths to level {n}")
    depth = min(longest + 1, n)
    moves = [[None, None]]  # the root: no step read
    for p in paths:
        s = 0
        for bit in p.prefix[:depth] + (p.repeat,) * (depth - len(p.prefix)):
            t = moves[s][bit]
            if t is None:
                t = moves[s][bit] = len(moves)
                moves.append([None, None])
            s = t
        if depth:
            moves[s][bit] = s  # the depth-D state repeats its last bit
    return moves, 0


def _sweep(moves, start, n_max: int) -> tuple[list, dict]:
    """Signed census pairs (c0 - c2, c1 - c3) at levels 1..n_max of the
    automaton's hulls, one pair per live state: a step off the last site,
    the residue's parity, is a change, so a 0-step maps (u, v) to (u - v, 0)
    and a 1-step to (0, u + v), and a level's pair is the sum of what its
    steps carry.  Returns the level pairs and level n_max's pair per state.
    A level's live pairs fix the next level's, so once they equal the last
    level's every later level repeats them, exactly, and the sweep stops:
    a finite path set's settle one level past its longest prefix."""
    levels = []
    live = {start: (1, 0)}  # the empty path: no change, on site 0
    while len(levels) < n_max:
        grown = {}
        even = odd = 0
        for s, (u, v) in live.items():
            zero, one = moves[s]
            if zero is not None:
                x = u - v
                even += x
                b = grown.get(zero)
                grown[zero] = (x, 0) if b is None else (b[0] + x, b[1])
            if one is not None:
                y = u + v
                odd += y
                b = grown.get(one)
                grown[one] = (0, y) if b is None else (b[0], b[1] + y)
        levels.append((even, odd))
        if grown == live:  # a fixed point: the later levels repeat this one
            levels += levels[-1:] * (n_max - len(levels))
        live = grown
    return levels, live


def _hull_mask(moves, start, n: int) -> int:
    """The automaton's level-n hull as a mask, built from the last step
    back for the states a run reaches at each depth: with m steps left, a
    state's mask is its 0-move's mask below its 1-move's shifted up by
    2**(m - 1).  The build holds two depths' masks, at most 2**(n + 1)
    bits, which its caller charges."""
    reached = [{start}]  # the states a run reaches after d steps
    for _ in range(n):
        reached.append({t for s in reached[-1] for t in moves[s] if t is not None})
    masks = dict.fromkeys(reached[n], 1)  # the empty string is live
    for m in range(n):
        masks[None] = 0  # a dead move
        masks = {
            s: masks[zero] | masks[one] << (1 << m)
            for s in reached[n - 1 - m]
            for zero, one in (moves[s],)
        }
    return masks[start]


def _at_most_members(k: int, n: int) -> int:
    """Members of the level-n at-most-k hull: C(n, 0) + ... + C(n, min(k, n))."""
    return sum(comb(n, t) for t in range(min(k, n) + 1))


def _limit_pairs(event: SymbolicEvent, n_max: int, last: bool = False) -> list:
    """Signed pairs of the event's limit terms at levels 1..n_max, or at
    n_max alone when `last`: its hulls, or the whole space less an inner
    set's hulls.  Every limit-table refusal is made here, before the sweep:
    a table past LIMIT_MAX_LEVEL, and an at-most-k table at the first level
    whose hull has more than COMBINATION_CAP members, found by bisection
    since the member count grows with the level."""
    _, hull, inner = _description(event, n_max)
    if n_max > LIMIT_MAX_LEVEL:
        raise ResourceLimitError(f"limit level {n_max} is past the cap of {LIMIT_MAX_LEVEL}")
    if isinstance(event, AtMostKOnes) and _at_most_members(event.limit, n_max) > COMBINATION_CAP:
        k = event.limit
        n = bisect(range(n_max + 1), COMBINATION_CAP, key=lambda m: _at_most_members(k, m))
        raise ResourceLimitError(
            f"at-most-{k}-ones census at level {n} exceeds {COMBINATION_CAP} members"
        )
    pairs = _sweep(*(hull if inner is None else inner)(), n_max)[0][n_max - 1 if last else 0 :]
    if inner is None:
        return pairs
    full = [change_residue_profile_closed_form(n_max)] if last else change_residue_count_levels(n_max)
    return [(c0 - c2 - u, c1 - c3 - v) for (c0, c1, c2, c3), (u, v) in zip(full, pairs)]


def approximant(event: SymbolicEvent, n: int) -> CylinderEvent:
    """The level-n cylindrical hull: all paths whose first n steps extend into
    the event.  Hulls decrease with n and contain the event.  The hull is
    `_hull_mask` of the event's automaton, charged its 2**(n + 1) bits
    before the automaton is built, so every hull is refused at n = 24; the
    level-0 hull is the empty prefix exactly when the level-1 hull is not
    empty."""
    if n < 0:
        raise ValueError("approximant level must be nonnegative")
    level = max(n, 1)
    _, hull, _ = _description(event, level)
    charge(2 << level, f"level-{level} hull mask")
    mask = _hull_mask(*hull(), level)
    if n == 0:  # the empty prefix, re-expressed over one step, or nothing
        mask = 0b11 if mask else 0
    return CylinderEvent(level, Event(PathSpace(level), mask))


@dataclass(frozen=True)
class DisjointWitness:
    """Outcome of a strong-disjointness search: the least level of disjoint
    hulls; else the level whose live pairs repeated the last level's, which
    proves they never part, or None if the bound ran out first."""

    witnessed: bool
    at_level: int | None


def strongly_disjoint(a: SymbolicEvent, b: SymbolicEvent, n_max: int) -> DisjointWitness:
    """Least level at which the two events' cylindrical hulls are disjoint,
    by a walk over the pairs of states their hull automata reach after each
    step.  The walk is charged one unit per level and pair of live states
    before either automaton is built."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    width_a, hull_a, _ = _description(a, n_max)
    width_b, hull_b, _ = _description(b, n_max)
    what = f"disjointness walk of {width_a} x {width_b} live states to level {n_max}"
    charge(n_max * width_a * width_b, what)
    return _first_dead_level(hull_a(), hull_b(), n_max)


def _first_dead_level(first, second, n_max: int) -> DisjointWitness:
    """A walk over the pairs of states the two automata reach: witnessed at
    the least level <= n_max with no step string live in both, else not, at
    the level whose pairs repeat the last level's, since no later level
    parts them (`_sweep` stops there too), or at None."""
    (moves_a, moves_b), start = zip(first, second)
    live = {start}
    for n in range(1, n_max + 1):
        grown = {pair for s, t in live for pair in zip(moves_a[s], moves_b[t]) if None not in pair}
        if not grown:
            return DisjointWitness(True, n)
        if grown == live:
            return DisjointWitness(False, n)
        live = grown
    return DisjointWitness(False, None)


def limit_term(event: SymbolicEvent, n: int) -> Dyadic:
    """The level-n term of the event's measure-limit sequence.

    For hull-described events this is the measure of the decreasing hull.
    A complement of a finite path set is instead the increasing union of
    the complements of the inner set's hulls, so its terms are the measures
    of those complements; both exact, via signed census pairs only.  The
    term is the last pair of the sweep `limit_mu_hat` tabulates, so it is
    refused where the table is: past LIMIT_MAX_LEVEL, and for at-most-K
    past COMBINATION_CAP hull members.
    """
    if n < 1:
        raise ValueError("need level >= 1")
    u, v = _limit_pairs(event, n, last=True)[0]
    return _pair_mu(u, v, n)


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

    One pair sweep yields every level's term, each equal to
    `limit_term(event, n)`; a whole table costs what its last term does,
    and is refused where that term is.  Each row's float is the integer
    u**2 + v**2 over 2**n, correctly rounded as float(Dyadic) is.
    """
    if not 2 <= window <= n_max:
        raise ValueError("need n_max >= window >= 2")
    levels = range(1, n_max + 1)
    nums = [u * u + v * v for u, v in _limit_pairs(event, n_max)]
    floats = list(map(truediv, nums, map((1).__lshift__, levels)))
    rows = tuple(zip(levels, map(Dyadic, nums, levels), floats))
    verdict, estimate, at_n = classify_sequence(floats, window, tol)
    inner = _description(event, n_max)[2]
    kind = "decreasing-hulls" if inner is None else "increasing-complements"
    return LimitReport(
        values=rows,
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
    signed census pair, swept through the blocks' step automaton, and checked
    against the ratio; later terms extrapolate the verified ratio and are
    labeled as such.
    """
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    ratio = Fraction(9, 8)
    out = []
    direct = min(i_max, BLOCK_DIRECT_TERMS)
    pairs, _ = _sweep(_BLOCK_MOVES, 0, 3 * direct)
    for i in range(1, direct + 1):
        value = _pair_mu(*pairs[3 * i - 1], 3 * i).as_fraction()
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


def _root_two_cos(h: int, m: int) -> int:
    """2**(h/2) * cos(m*pi/4), an integer when m has h's parity and h >= m & 1.

    cos(m*pi/4) is 0 or +-1 for even m and +-2**(-1/2) for odd m, so the
    product is 0 or a signed power of two, 2**(h/2) or 2**((h-1)/2).  Other
    inputs, whose root-two parts do not cancel or whose power is a fraction,
    raise ValueError.
    """
    exp = (h - (m & 1)) >> 1
    if (h - m) & 1 or exp < 0:
        raise ValueError(f"2**({h}/2) * cos({m}*pi/4) is not an integer")
    return _COS_EIGHTH_SIGNS[m & 7] << exp


def change_residue_profile_closed_form(n: int) -> tuple[int, int, int, int]:
    """paths.change_residue_counts(n), the residue profile of change counts
    mod 4 over the whole level-n space, from its closed form, evaluated
    exactly in integers.

    Each class holds 2**(n-2) + 2**(n/2 - 1) * cos((n - 2j) * pi / 4) paths,
    a quarter of 2**n + 2**((n + 2)/2) * cos((n - 2j) * pi / 4), whose
    cosine term is an integer: n + 2 >= 3 has the parity of n - 2j.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    cos_terms = (_root_two_cos(n + 2, n - 2 * j) for j in range(4))
    return tuple(((1 << n) + c) >> 2 for c in cos_terms)


def complement_of_constant_closed_form(n: int) -> Dyadic:
    """Closed form for the level-n term of the stays-nowhere complement event
    (all paths except the one that never leaves site 0):

        1 + 1/2**n - cos(n*pi/4) / 2**(n/2 - 1)

    evaluated exactly as one numerator over 2**n: 2**n + 1 less
    2**((n + 2)/2) * cos(n*pi/4), an integer since n + 2 >= 3 has the parity
    of n.  The sign of the cosine term here is the one the residue-census
    route confirms.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Dyadic((1 << n) + 1 - _root_two_cos(n + 2, n), n)
