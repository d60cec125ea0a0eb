"""The truncated q-measure, interference classification and preclusion search.

The measure of an event is the diagonal of the decoherence functional.  It is
nonnegative and grade-2 additive but not additive; events of measure exactly
zero ("precluded" events) are what the exhaustive search here enumerates, and
zero is always decided by integer comparison.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

from .decoherence import DecoherenceState, Event
from .errors import ResourceLimitError
from .exact import Dyadic
from .paths import PathSpace, change_residue, change_residue_counts

COMPOSITION_MAX_STEPS = 8
FULL_ENUMERATION_MAX_STEPS = 4
BOUNDED_ENUMERATION_MAX_STEPS = 6
BOUNDED_ENUMERATION_MAX_CARD = 4


class Strategy(Enum):
    """Evaluation route for the measure; all three agree exactly."""

    DENSE = "dense"  # literal entry-by-entry double sum
    PAIRWISE = "pairwise"  # pair measures plus the grade-2 expansion
    RANK2 = "rank2"  # squared census sums from the rank-two structure


class Interference(Enum):
    NO_INTERFERENCE = "none"
    CONSTRUCTIVE = "constructive"
    DESTRUCTIVE = "destructive"


def mu_from_census(census: tuple[int, int, int, int], n: int) -> Dyadic:
    """Measure of any event whose members census as given, over horizon n."""
    q = (census[0] - census[2]) ** 2 + (census[1] - census[3]) ** 2
    return Dyadic(q, n)


def full_space_measure(n: int) -> Dyadic:
    """Measure of the whole n-path space, without materializing it."""
    return mu_from_census(change_residue_counts(n), n)


def mu(state: DecoherenceState, event: Event, strategy: Strategy = Strategy.RANK2) -> Dyadic:
    """The q-measure of the event, by the requested strategy."""
    if event.space != state.space:
        raise ValueError("event lives over a different path space")
    n = state.space.n
    if strategy is Strategy.RANK2:
        return mu_from_census(state.census(event), n)
    if strategy is Strategy.DENSE:
        value = state.functional_by_entries(event, event)
        return value.real
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


def interference(state: DecoherenceState, i: int, j: int) -> tuple[Dyadic, Interference]:
    """Interference term of a pair of distinct paths and its classification."""
    if i == j:
        raise ValueError("interference needs two distinct paths")
    state.space.check_index(i)
    state.space.check_index(j)
    n = state.space.n
    if (i ^ j) & 1:
        return Dyadic(0), Interference.NO_INTERFERENCE
    if state.residue(i) == state.residue(j):
        return Dyadic(1, n - 1), Interference.CONSTRUCTIVE
    return Dyadic(-1, n - 1), Interference.DESTRUCTIVE


def pair_measure(state: DecoherenceState, i: int, j: int) -> Dyadic:
    """Measure of a doubleton, from the interference trichotomy."""
    _, kind = interference(state, i, j)
    n = state.space.n
    if kind is Interference.NO_INTERFERENCE:
        return Dyadic(1, n - 1)
    if kind is Interference.CONSTRUCTIVE:
        return Dyadic(1, n - 2)
    return Dyadic(0)


def _relation_of_residues(r: int, s: int) -> Interference:
    if (r ^ s) & 1:
        return Interference.NO_INTERFERENCE
    return Interference.CONSTRUCTIVE if r == s else Interference.DESTRUCTIVE


def interference_composition_check(state: DecoherenceState) -> bool:
    """Exhaustively verify the interference composition laws over all triples.

    The classification of a pair depends only on the two change-count
    residues mod 4, so quantifying over ordered triples of distinct paths
    reduces to quantifying over residue triples that the space can realize
    with distinct paths.  The laws checked, writing n/c/d for the three
    classes of (first, middle) and (middle, last):

        n after n  -> first and last interfere (c or d)
        c or d after n, and n after c or d  -> no interference
        c after c  -> c        d after d -> c        mixed c, d -> d
    """
    n = state.space.n
    if n > COMPOSITION_MAX_STEPS:
        raise ResourceLimitError(
            f"composition-law check capped at n <= {COMPOSITION_MAX_STEPS}"
        )
    counts = change_residue_counts(n)
    N, C, D = (
        Interference.NO_INTERFERENCE,
        Interference.CONSTRUCTIVE,
        Interference.DESTRUCTIVE,
    )
    for r1 in range(4):
        for r2 in range(4):
            for r3 in range(4):
                need = [0, 0, 0, 0]
                for r in (r1, r2, r3):
                    need[r] += 1
                if any(need[r] > counts[r] for r in range(4)):
                    continue  # no distinct paths realize this residue triple
                first_mid = _relation_of_residues(r1, r2)
                mid_last = _relation_of_residues(r2, r3)
                first_last = _relation_of_residues(r1, r3)
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
    """Exact grade-2 additivity identity for three mutually disjoint events."""
    if not (a.isdisjoint(b) and a.isdisjoint(c) and b.isdisjoint(c)):
        raise ValueError("grade-2 identity needs mutually disjoint events")
    lhs = mu(state, a.union(b).union(c))
    rhs = (
        mu(state, a.union(b))
        + mu(state, a.union(c))
        + mu(state, b.union(c))
        - mu(state, a)
        - mu(state, b)
        - mu(state, c)
    )
    return lhs == rhs


def regularity_check(state: DecoherenceState, a: Event, b: Event) -> bool:
    """Both regularity clauses, vacuously true when their hypotheses fail.

    For disjoint a, b: a null event drops out of unions, and a null union
    forces its two halves to share a measure.
    """
    if not a.isdisjoint(b):
        raise ValueError("regularity check needs disjoint events")
    mu_a = mu(state, a)
    mu_b = mu(state, b)
    mu_ab = mu(state, a.union(b))
    if mu_a.is_zero() and mu_ab != mu_b:
        return False
    if mu_ab.is_zero() and mu_a != mu_b:
        return False
    return True


def _precluded_masks_by_gray_walk(n: int) -> list[int]:
    """Scan every subset of the space, one toggled path per step."""
    size = 1 << n
    residue = [change_residue(j) for j in range(size)]
    counts = [0, 0, 0, 0]
    found = []
    prev = 0
    for t in range(1, 1 << size):
        g = t ^ (t >> 1)
        flipped = g ^ prev
        j = flipped.bit_length() - 1
        counts[residue[j]] += 1 if g & flipped else -1
        prev = g
        if (counts[0] - counts[2]) ** 2 + (counts[1] - counts[3]) ** 2 == 0:
            found.append(g)
    return found


def enumerate_precluded(
    state: DecoherenceState, max_cardinality: int | None = None
) -> list[Event]:
    """Every nonempty event of measure exactly zero, canonically ordered.

    A full sweep of all 2**(2**n) subsets is bounded to n <= 4; with a
    cardinality cap of at most 4 the search runs up to n <= 6 by direct
    combination enumeration.
    """
    n = state.space.n
    if max_cardinality is not None and max_cardinality < 0:
        raise ValueError("max_cardinality must be nonnegative")
    masks: list[int] = []
    if n <= FULL_ENUMERATION_MAX_STEPS:
        masks = _precluded_masks_by_gray_walk(n)
        if max_cardinality is not None:
            masks = [m for m in masks if m.bit_count() <= max_cardinality]
    elif (
        max_cardinality is not None
        and n <= BOUNDED_ENUMERATION_MAX_STEPS
        and max_cardinality <= BOUNDED_ENUMERATION_MAX_CARD
    ):
        size = 1 << n
        residue = [change_residue(j) for j in range(size)]
        for card in range(1, max_cardinality + 1):
            for combo in combinations(range(size), card):
                counts = [0, 0, 0, 0]
                for j in combo:
                    counts[residue[j]] += 1
                if (counts[0] - counts[2]) ** 2 + (counts[1] - counts[3]) ** 2 == 0:
                    mask = 0
                    for j in combo:
                        mask |= 1 << j
                    masks.append(mask)
    else:
        raise ResourceLimitError(
            "preclusion search is bounded to n <= 4 for a full sweep, or "
            "n <= 6 with max_cardinality <= 4"
        )
    events = [Event(state.space, m) for m in masks]
    events.sort(key=lambda ev: (ev.cardinality, ev.to_tuple()))
    return events


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
