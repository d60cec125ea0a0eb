"""The truncated q-measure, interference classification and preclusion.

The measure of an event is the diagonal of the decoherence functional.  It is
nonnegative and grade-2 additive but not additive, and zero is always decided
by integer comparison.  An event has measure exactly zero ("precluded") iff
its census has c0 = c2 and c1 = c3, so the precluded events are counted in
closed form and listed by choosing equally many paths from residue classes 0
and 2 and from classes 1 and 3; no subset is searched.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import combinations
from math import comb

from .decoherence import DecoherenceState, Event
from .errors import charge
from .exact import Dyadic
from .paths import PathSpace, change_residue, change_residue_counts


class Strategy(Enum):
    """Evaluation route for the measure; all three agree exactly."""

    DENSE = "dense"  # literal entry-by-entry double sum
    PAIRWISE = "pairwise"  # pair measures plus the grade-2 expansion
    RANK2 = "rank2"  # squared census sums from the rank-two structure


class Interference(Enum):
    NO_INTERFERENCE = "none"
    CONSTRUCTIVE = "constructive"
    DESTRUCTIVE = "destructive"


def _census_quadratic(census: tuple[int, int, int, int]) -> int:
    """2**n times the measure of an event with this census over horizon n."""
    return (census[0] - census[2]) ** 2 + (census[1] - census[3]) ** 2


def mu_from_census(census: tuple[int, int, int, int], n: int) -> Dyadic:
    """Measure of any event whose members census as given, over horizon n."""
    return Dyadic(_census_quadratic(census), n)


def full_space_measure(n: int) -> Dyadic:
    """Measure of the whole n-path space, without materializing it."""
    return mu_from_census(change_residue_counts(n), n)


def mu(state: DecoherenceState, event: Event, strategy: Strategy = Strategy.RANK2) -> Dyadic:
    """The q-measure of the event, by the requested strategy."""
    if event.space is not state.space and event.space != state.space:
        raise ValueError("event lives over a different path space")
    n = state.space.n
    if strategy is Strategy.RANK2:
        return mu_from_census(state.census(event), n)
    if strategy is Strategy.DENSE:
        return state.functional_by_entries(event, event)
    if strategy is Strategy.PAIRWISE:
        members = event.to_tuple()
        m = len(members)
        if m < 1:
            raise ValueError("pairwise strategy needs a nonempty event")
        residues = [state.residue(j) for j in members]
        # pair values in units of 1/2**n: 2 without interference,
        # 4 constructive, 0 destructive
        total = 0
        for a in range(m):
            ra = residues[a]
            ja = members[a]
            for b in range(a + 1, m):
                diff = ra ^ residues[b]
                if (ja ^ members[b]) & 1:
                    total += 2
                elif diff == 0:
                    total += 4
        total -= (m - 2) * m
        return Dyadic(total, n)
    raise ValueError(f"unknown strategy {strategy!r}")


@cache
def _pair_values(n: int) -> tuple[tuple, tuple]:
    """Per-horizon tables of pair measures and of (interference term, class),
    indexed by the difference of the two change counts mod 4.

    An odd difference puts the paths on different sites (no interference);
    0 is constructive and 2 destructive.  The constructive pair measure
    1/2**(n-2) is built only for n >= 2: at n = 1 the two paths end on
    different sites, so no pair reads that entry.
    """
    half, zero = Dyadic(1, n - 1), Dyadic(0)
    measures = (Dyadic(1, n - 2) if n >= 2 else None, half, zero, half)
    terms = (
        (half, Interference.CONSTRUCTIVE),
        (zero, Interference.NO_INTERFERENCE),
        (Dyadic(-1, n - 1), Interference.DESTRUCTIVE),
        (zero, Interference.NO_INTERFERENCE),
    )
    return measures, terms


def _reject_pair(state: DecoherenceState, i: int, j: int) -> None:
    """Raise for a pair of paths that is out of range or not distinct."""
    if i == j:
        raise ValueError("interference needs two distinct paths")
    state.space.check_index(i)  # one of the two raises
    state.space.check_index(j)


def interference(state: DecoherenceState, i: int, j: int) -> tuple[Dyadic, Interference]:
    """Interference term of a pair of distinct paths and its classification."""
    n = state.space.n
    # one test for both ranges: a negative index makes the OR negative,
    # which never shifts to 0
    if i == j or (i | j) >> n:
        _reject_pair(state, i, j)
    # the residue parity is the end site, so this also sees different sites
    return _pair_values(n)[1][((i ^ (i >> 1)).bit_count() - (j ^ (j >> 1)).bit_count()) & 3]


def pair_measure(state: DecoherenceState, i: int, j: int) -> Dyadic:
    """Measure of a doubleton, from the interference trichotomy."""
    n = state.space.n
    if i == j or (i | j) >> n:
        _reject_pair(state, i, j)
    return _pair_values(n)[0][((i ^ (i >> 1)).bit_count() - (j ^ (j >> 1)).bit_count()) & 3]


def interference_composition_check(state: DecoherenceState) -> bool:
    """Exhaustively verify the interference composition laws over all triples.

    The classification of a pair depends only on the two change-count
    residues mod 4, so quantifying over ordered triples of distinct paths
    reduces to quantifying over residue triples that the space can realize
    with distinct paths: 64 triples against the O(n) class profile, at any
    horizon.  The laws checked, writing n/c/d for the three
    classes of (first, middle) and (middle, last):

        n after n  -> first and last interfere (c or d)
        c or d after n, and n after c or d  -> no interference
        c after c  -> c        d after d -> c        mixed c, d -> d

    No class table breaks only one of "c or d after n ... is n" and "mixed
    c, d is d" without breaking some other law, so either alone could go;
    but the tables (c, n, c, d) and (c, d, c, n), by residue difference,
    break both and nothing else, so the two stay together.
    """
    n = state.space.n
    counts = change_residue_counts(n)
    N, C, D = (
        Interference.NO_INTERFERENCE,
        Interference.CONSTRUCTIVE,
        Interference.DESTRUCTIVE,
    )
    kinds = [kind for _, kind in _pair_values(n)[1]]  # by residue difference
    for r1 in range(4):
        for r2 in range(4):
            for r3 in range(4):
                need = [0, 0, 0, 0]
                for r in (r1, r2, r3):
                    need[r] += 1
                if any(need[r] > counts[r] for r in range(4)):
                    continue  # no distinct paths realize this residue triple
                first_mid = kinds[(r1 - r2) & 3]
                mid_last = kinds[(r2 - r3) & 3]
                first_last = kinds[(r1 - r3) & 3]
                if first_mid is N and mid_last is N:
                    if first_last is N:
                        return False
                elif first_mid is N or mid_last is N:
                    if first_last is not N:
                        return False
                elif first_mid is mid_last:
                    if first_last is not C:
                        return False
                else:
                    if first_last is not D:
                        return False
    return True


def grade2_check(state: DecoherenceState, a: Event, b: Event, c: Event) -> bool:
    """Exact grade-2 additivity identity for three mutually disjoint events.

    Every measure at one horizon has the denominator 2**n, so the identity
    is compared on the integer census quadratics of the seven events.
    """
    if not (a.isdisjoint(b) and a.isdisjoint(c) and b.isdisjoint(c)):
        raise ValueError("grade-2 identity needs mutually disjoint events")
    ab, ac, bc = a.union(b), a.union(c), b.union(c)
    q_abc, q_ab, q_ac, q_bc, q_a, q_b, q_c = (
        _census_quadratic(state.census(e)) for e in (ab.union(c), ab, ac, bc, a, b, c)
    )
    return q_abc == q_ab + q_ac + q_bc - q_a - q_b - q_c


def regularity_check(state: DecoherenceState, a: Event, b: Event) -> bool:
    """Both regularity clauses, vacuously true when their hypotheses fail.

    For disjoint a, b: a null event drops out of unions, and a null union
    forces its two halves to share a measure.  The measures are compared as
    their integer census quadratics over the common denominator 2**n.
    """
    if not a.isdisjoint(b):
        raise ValueError("regularity check needs disjoint events")
    q_a, q_b, q_ab = (_census_quadratic(state.census(e)) for e in (a, b, a.union(b)))
    if q_a == 0 and q_ab != q_b:
        return False
    if q_ab == 0 and q_a != q_b:
        return False
    return True


def _balanced_sizes(n: int, max_cardinality: int):
    """(k, l, event count) for the null events with k paths from each of
    residue classes 0 and 2, l from each of 1 and 3, 1 <= 2k + 2l <= max_cardinality."""
    if max_cardinality < 0:
        raise ValueError("max_cardinality must be nonnegative")
    n0, n1, n2, n3 = change_residue_counts(n)
    half = max_cardinality // 2
    for k in range(min(n0, n2, half) + 1):
        even = comb(n0, k) * comb(n2, k)
        for l in range(min(n1, n3, half - k) + 1):
            if k or l:
                yield k, l, even * comb(n1, l) * comb(n3, l)


def preclusion_count(n: int, max_cardinality: int | None = None) -> int:
    """How many nonempty events of the n-path space have measure zero.

    Without a cap this is C(N0+N2, N0) * C(N1+N3, N1) - 1 by Vandermonde's
    identity over the class sizes of change_residue_counts: a number about
    2**n bits wide, whose binomials cost more than linearly in that width,
    so it is charged like a per-path table, 16 units per path.
    """
    PathSpace(n)  # range check
    if max_cardinality is not None:
        return sum(ways for *_, ways in _balanced_sizes(n, max_cardinality))
    charge(16 << n, f"uncapped preclusion count at n={n}")
    n0, n1, n2, n3 = change_residue_counts(n)
    return comb(n0 + n2, n0) * comb(n1 + n3, n1) - 1


def _balanced_masks(low: list[int], high: list[int], k: int) -> list[int]:
    """Every mask of k paths from low and k from high."""
    lows, highs = ([sum(1 << j for j in c) for c in combinations(side, k)] for side in (low, high))
    return [a | b for a in lows for b in highs]


def enumerate_precluded(
    state: DecoherenceState, max_cardinality: int | None = None
) -> list[Event]:
    """Every nonempty event of measure zero, canonically ordered.

    The null events are generated as the balanced census choices, so a
    listing costs its output: 16 units per event and one per byte of its
    mask, charged as the sizes are counted, before any event is built;
    preclusion_count gives its size.
    The order is by cardinality, then by the sorted member tuple, and is
    sorted on the masks before any event is built.
    """
    n = state.space.n
    cap = state.space.size if max_cardinality is None else max_cardinality
    sizes, total = [], 0
    for k, l, ways in _balanced_sizes(n, cap):
        total += ways
        charge(total * (16 + (state.space.size >> 3)), f"preclusion listing at n={n}")
        sizes.append((k, l))
    if not sizes:
        return []  # and no path of a large space is visited
    classes: tuple[list[int], ...] = ([], [], [], [])
    for j in state.space.indices():
        classes[change_residue(j)].append(j)
    masks: list[int] = []
    for k, l in sizes:
        odd = _balanced_masks(classes[1], classes[3], l)
        masks.extend(e | o for e in _balanced_masks(classes[0], classes[2], k) for o in odd)
    # Of two member tuples of one length, the smaller holds the lowest path
    # of their symmetric difference: there its complement's bit string,
    # read from path 0 up, has the smaller digit.
    size, full = state.space.size, (1 << state.space.size) - 1
    masks.sort(key=lambda m: (m.bit_count(), format(m ^ full, f"0{size}b")[::-1]))
    return [Event(state.space, m) for m in masks]


def embed_right_pad(event: Event, target: PathSpace) -> Event:
    """View a coarse event inside a finer space by letting every path idle
    at its final site for the extra steps.

    Staying put appends no site changes and keeps the end parity, so each
    member keeps its census class and the measure scales by exactly
    2**(horizon difference).  (Appending literal zeros would instead add a
    change to every path ending on site 1 and break that scaling.)
    """
    shift = target.n - event.space.n
    if shift < 0:
        raise ValueError("target space must be at least as fine")
    tail = (1 << shift) - 1
    mask = 0
    for j in event.indices():
        padded = (j << shift) | (tail if j & 1 else 0)
        mask |= 1 << padded
    return Event(target, mask)


def scaling_check(
    coarse: DecoherenceState, fine: DecoherenceState, event: Event
) -> bool:
    """Idle-padding scales the measure by exactly 2**(horizon difference)."""
    if event.space != coarse.space:
        raise ValueError("event lives over a different path space")
    if fine.space.n < coarse.space.n:
        raise ValueError("fine horizon must be at least the coarse one")
    lifted = embed_right_pad(event, fine.space)
    return mu(coarse, event) == mu(fine, lifted) * (1 << (fine.space.n - coarse.space.n))
