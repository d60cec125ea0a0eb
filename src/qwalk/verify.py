"""Self-contained reproduction suite behind ``qwalk verify``.

Every check recomputes a published value or a structural identity of the
walk's measure theory from scratch and compares exactly (or within the
stated numeric tolerance for limit verdicts).  Checks are independent and
deterministic; the random suites run from a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable

from .cylinder import (
    ALL_ZEROS,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    CylinderEvent,
    EventualPath,
    FinitePathSet,
    FinitelyManyOnes,
    InfinitelyManyOnes,
    LimitVerdict,
    approximant,
    change_residue_profile_closed_form,
    complement_of_constant_closed_form,
    limit_mu_hat,
    limit_term,
    mu_cyl,
    refine,
    repeated_block_measures,
    repeated_block_verdict,
    strongly_disjoint,
    variation_lower_bound,
)
from .decoherence import DecoherenceState, Event
from .exact import Dyadic
from .paths import (
    PathSpace,
    change_residue_counts,
    changes_count,
    changes_vector,
    ones_count,
    ones_vector,
    same_parity,
)
from .qintegral import (
    IntegralStrategy,
    RandomVariable,
    disjoint_support_grade2_check,
    integral,
    min_matrix_det_check,
    min_matrix_entry,
    nonadditivity_witness,
    psd_check,
)
from .qmeasure import (
    Interference,
    Strategy,
    enumerate_precluded,
    grade2_check,
    interference,
    interference_composition_check,
    mu,
    pair_measure,
    regularity_check,
    scaling_check,
)
from .quadratic import (
    SetSystem,
    cardinality_squared_table,
    is_q_measure,
    is_quadratic_algebra,
    odd_count_system,
    three_type_system,
)

SEED = 20260808


class CheckFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float  # wall time the check took


def _state(n: int) -> DecoherenceState:
    return DecoherenceState(PathSpace(n))


def _event(n: int, indices) -> Event:
    return Event.from_indices(PathSpace(n), indices)


# ---------------------------------------------------------------------------
# path counters


def check_change_vectors() -> None:
    expected = {
        3: [0, 1, 2, 1, 2, 3, 2, 1],
        4: [0, 1, 2, 1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 3, 2, 1],
    }
    for n, want in expected.items():
        got = changes_vector(PathSpace(n))
        check(got == want, f"change vector at n={n}: {got} != {want}")


def check_ones_vectors() -> None:
    expected = {
        3: [0, 1, 1, 2, 1, 2, 2, 3],
        4: [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4],
    }
    for n, want in expected.items():
        got = ones_vector(PathSpace(n))
        check(got == want, f"ones vector at n={n}: {got} != {want}")


def check_reflection_recurrence() -> None:
    # complementing all steps and prepending a changed one adds one change
    for n in range(1, 13):
        coarse, fine = PathSpace(n), PathSpace(n + 1)
        top = (1 << (n + 1)) - 1
        for j in coarse.indices():
            if changes_count(fine, top - j) != changes_count(coarse, j) + 1:
                check(False, f"reflection recurrence broke at n={n}, j={j}")


def check_shift_recurrence() -> None:
    for n in range(1, 13):
        coarse, fine = PathSpace(n), PathSpace(n + 1)
        for j in coarse.indices():
            if ones_count(fine, j + (1 << n)) != ones_count(coarse, j) + 1:
                check(False, f"shift recurrence broke at n={n}, j={j}")


def check_parity_residue_link() -> None:
    for n in range(1, 11):
        space = PathSpace(n)
        cvec = changes_vector(space)
        for j in space.indices():
            check(
                (j & 1) == (cvec[j] & 1),
                f"end-site parity mismatches change parity at n={n}, j={j}",
            )
        check(
            all(
                same_parity(space, j, k) == ((cvec[j] & 1) == (cvec[k] & 1))
                for j in range(min(space.size, 16))
                for k in range(min(space.size, 16))
            ),
            f"same_parity disagrees with change parity at n={n}",
        )


def check_residue_profile() -> None:
    check(change_residue_counts(1) == (1, 1, 0, 0), "profile seed wrong")
    check(change_residue_counts(3) == (1, 3, 3, 1), "profile at n=3 wrong")
    for n in range(1, 15):
        direct = [0, 0, 0, 0]
        for j in range(1 << n):
            direct[(j ^ (j >> 1)).bit_count() & 3] += 1
        check(
            change_residue_counts(n) == tuple(direct),
            f"profile recurrence disagrees with direct count at n={n}",
        )
    for n in range(1, 41):
        check(
            change_residue_counts(n) == change_residue_profile_closed_form(n),
            f"profile closed form disagrees at n={n}",
        )


# ---------------------------------------------------------------------------
# decoherence matrix


def check_matrix_n1() -> None:
    state = _state(1)
    for j in range(2):
        for k in range(2):
            want = Dyadic(1 if j == k else 0, 1)
            check(state.entry(j, k) == want, f"entry ({j},{k}) at n=1 wrong")


_SIGNS_N2 = [
    [1, 0, -1, 0],
    [0, 1, 0, 1],
    [-1, 0, 1, 0],
    [0, 1, 0, 1],
]

_SIGNS_N3 = [
    [1, 0, -1, 0, -1, 0, -1, 0],
    [0, 1, 0, 1, 0, -1, 0, 1],
    [-1, 0, 1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, -1, 0, 1],
    [-1, 0, 1, 0, 1, 0, 1, 0],
    [0, -1, 0, -1, 0, 1, 0, -1],
    [-1, 0, 1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, -1, 0, 1],
]


def check_matrix_signs() -> None:
    for n, grid in ((2, _SIGNS_N2), (3, _SIGNS_N3)):
        state = _state(n)
        for j in range(1 << n):
            for k in range(1 << n):
                check(
                    state.entry_sign(j, k) == grid[j][k],
                    f"sign ({j},{k}) at n={n}: got {state.entry_sign(j, k)}",
                )


def check_entry_sum_unit() -> None:
    # the literal sum of all 4**n entries; full-space-unit takes the census
    for n in range(1, 7):
        state = _state(n)
        full = Event.full(state.space)
        check(
            state.functional_by_entries(full, full) == Dyadic(1),
            f"literal entry sum at n={n} is not 1",
        )


def check_functional_values() -> None:
    state = _state(2)
    full = Event.full(state.space)
    check(state.functional(full, full) == Dyadic(1), "functional on the whole space")
    a, b = _event(2, [0]), _event(2, [2])
    check(state.functional(a, b) == Dyadic(-1, 2), "cross term {0},{2} at n=2")
    empty = Event.empty(state.space)
    check(state.functional(empty, full).is_zero(), "functional against empty event")


def check_functional_additive() -> None:
    rng = random.Random(SEED)
    for n in (3, 5, 7):
        state = _state(n)
        size = 1 << n
        for _ in range(200):
            a = Event(state.space, rng.getrandbits(size))
            b1 = rng.getrandbits(size)
            b2 = rng.getrandbits(size) & ~b1
            e1, e2 = Event(state.space, b1), Event(state.space, b2)
            lhs = state.functional(a, e1.union(e2))
            rhs = state.functional(a, e1) + state.functional(a, e2)
            if lhs != rhs:
                check(False, f"functional not additive at n={n}")


def check_eigen_equation() -> None:
    for n in range(1, 11):
        check(_state(n).eigen_equation_holds(), f"eigen equation failed at n={n}")


def _outer_row(column, columns) -> tuple[list[int], list[int]]:
    """a_j * conj(a_k) summed over both eigenvectors, for every k, as real
    and imaginary parts, where column = (a_j of the even vector, a_j of the
    odd one) as Gaussian-integer pairs."""
    ar, ai, br, bi = column
    real = [ar * cr + ai * ci + br * dr + bi * di for cr, ci, dr, di in columns]
    imag = [ai * cr - ar * ci + bi * dr - br * di for cr, ci, dr, di in columns]
    return real, imag


def check_eigen_reconstruction() -> None:
    # entry sign * 2**n equals the rank-two outer-product sum, entrywise.
    # Row j depends only on its own eigen-column, which is fixed by j's
    # change residue, so one row is built per distinct column (at most
    # four) and every row's signs are read from entry_sign.
    for n in range(1, 9):
        state = _state(n)
        size = 1 << n
        columns = [
            (er, ei, orr, oi)
            for (er, ei), (orr, oi) in zip(state.eigenvector_exact(0), state.eigenvector_exact(1))
        ]
        zeros = [0] * size
        rows: dict[tuple[int, int, int, int], tuple[list[int], list[int]]] = {}
        for j, column in enumerate(columns):
            row = rows.get(column)
            if row is None:
                row = rows[column] = _outer_row(column, columns)
            real, imag = row
            signs = list(map(state.entry_sign, repeat(j), range(size)))
            if real != signs or imag != zeros:
                k = next(k for k in range(size) if real[k] != signs[k] or imag[k])
                check(False, f"rank-two reconstruction failed at n={n}, ({j},{k})")


def check_eigenpair_n1() -> None:
    state = _state(1)
    check(state.eigenvector_exact(0) == [(1, 0), (0, 0)], "even eigenvector at n=1")
    check(state.eigenvector_exact(1) == [(0, 0), (0, 1)], "odd eigenvector at n=1")


def check_null_space() -> None:
    # vectors orthogonal to both eigenvectors are annihilated, exactly
    rng = random.Random(SEED + 1)
    for n in (2, 3, 4, 5):
        state = _state(n)
        size = 1 << n
        res = [state.residue(j) for j in range(size)]
        units = ((1, 0), (0, 1), (-1, 0), (0, -1))
        for _ in range(20):
            vec = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(size)]
            # orthogonalize against both eigenvectors within each parity
            for parity in (0, 1):
                ip_re = ip_im = 0
                for j in range(parity, size, 2):
                    ur, ui = units[res[j]]
                    vr, vi = vec[j]
                    ip_re += vr * ur + vi * ui  # v * conj(u)
                    ip_im += vi * ur - vr * ui
                half = size // 2
                # subtract (ip / half) * u; scale everything by half instead
                for j in range(size):
                    vr, vi = vec[j]
                    vec[j] = (vr * half, vi * half)
                for j in range(parity, size, 2):
                    ur, ui = units[res[j]]
                    vr, vi = vec[j]
                    vec[j] = (vr - (ip_re * ur - ip_im * ui), vi - (ip_re * ui + ip_im * ur))
            for j in range(size):
                acc_re = acc_im = 0
                rj = res[j]
                for k in range(j & 1, size, 2):
                    sign = 1 if rj == res[k] else -1
                    vr, vi = vec[k]
                    acc_re += sign * vr
                    acc_im += sign * vi
                if acc_re or acc_im:
                    check(False, f"null-space vector not annihilated at n={n}")


def check_vector_measure() -> None:
    rng = random.Random(SEED + 2)
    state2 = _state(2)
    a, b = _event(2, [0]), _event(2, [2])
    check(
        state2.vector_measure(a).inner(state2.vector_measure(b)) == Dyadic(-1, 2),
        "vector-measure inner product misses the functional at n=2",
    )
    empty = state2.vector_measure(Event.empty(state2.space))
    check(empty.even == 0 and empty.odd == 0, "vector measure of the empty event")
    for n in range(1, 11):
        state = _state(n)
        size = 1 << n
        full = Event.full(state.space)
        vm_full = state.vector_measure(full)
        check(vm_full.inner(vm_full) == Dyadic(1), f"norm of the full event at n={n}")
        pairs = 1000
        for _ in range(pairs):
            x = Event(state.space, rng.getrandbits(size))
            y = Event(state.space, rng.getrandbits(size))
            if state.vector_measure(x).inner(state.vector_measure(y)) != state.functional(x, y):
                check(False, f"vector measure misses the functional at n={n}")
        for _ in range(50):
            m1 = rng.getrandbits(size)
            m2 = rng.getrandbits(size) & ~m1
            e1, e2 = Event(state.space, m1), Event(state.space, m2)
            if (
                state.vector_measure(e1) + state.vector_measure(e2)
                != state.vector_measure(e1.union(e2))
            ):
                check(False, f"vector measure not additive at n={n}")


def check_strong_positivity() -> None:
    state3 = _state(3)
    singletons = [_event(3, [j]) for j in range(8)]
    check(state3.strong_positivity_check(singletons), "singleton family at n=3")
    state2 = _state(2)
    family = [Event.empty(state2.space), Event.full(state2.space), _event(2, [0, 2])]
    check(state2.strong_positivity_check(family), "mixed family at n=2")
    check(
        state2.strong_positivity_check([_event(2, [1, 3])]),
        "single event: PSD iff nonnegative measure",
    )


# ---------------------------------------------------------------------------
# measures, interference, preclusion


def check_measure_table_n2() -> None:
    state = _state(2)
    table = {
        (0, 2): Fraction(0),
        (0, 1): Fraction(1, 2),
        (0, 3): Fraction(1, 2),
        (1, 2): Fraction(1, 2),
        (2, 3): Fraction(1, 2),
        (1, 3): Fraction(1),
        (0, 1, 2): Fraction(1, 4),
        (0, 1, 3): Fraction(5, 4),
        (1, 2, 3): Fraction(5, 4),
        (0, 1, 2, 3): Fraction(1),
    }
    for indices, want in table.items():
        got = mu(state, _event(2, indices)).as_fraction()
        check(got == want, f"measure of {indices} at n=2: {got} != {want}")
    for j in range(4):
        check(
            mu(state, _event(2, [j])).as_fraction() == Fraction(1, 4),
            f"singleton measure at n=2, j={j}",
        )
    check(mu(state, Event.empty(state.space)).is_zero(), "measure of the empty event")
    for (i, j), want in {
        (0, 2): Fraction(-1, 2),
        (1, 3): Fraction(1, 2),
        (0, 1): Fraction(0),
        (0, 3): Fraction(0),
        (1, 2): Fraction(0),
        (2, 3): Fraction(0),
    }.items():
        got, _ = interference(state, i, j)
        check(got.as_fraction() == want, f"interference ({i},{j}) at n=2")


def check_strategy_agreement_exhaustive() -> None:
    for n in range(1, 5):
        state = _state(n)
        for mask in range(1, 1 << state.space.size):
            event = Event(state.space, mask)
            rank2 = mu(state, event, Strategy.RANK2)
            check(
                mu(state, event, Strategy.PAIRWISE) == rank2
                and mu(state, event, Strategy.DENSE) == rank2,
                f"strategy disagreement at n={n}, mask={mask:#x}",
            )


def check_strategy_agreement_random() -> None:
    rng = random.Random(SEED + 3)
    per_n = -(-10_000 // 12)  # ceil: at least ten thousand events in total
    for n in range(5, 17):
        state = _state(n)
        size = 1 << n
        for _ in range(per_n):
            card = rng.randint(1, 24)
            members = rng.sample(range(size), min(card, size))
            event = Event.from_indices(state.space, members)
            a = mu(state, event, Strategy.RANK2)
            b = mu(state, event, Strategy.PAIRWISE)
            c = mu(state, event, Strategy.DENSE)
            check(a == b == c, f"strategy disagreement at n={n}, members={members}")
            check(a.num >= 0, f"negative measure at n={n}")
            check(a.log2_den <= n, f"measure denominator exceeds 2**{n}")


def check_full_space_unit() -> None:
    from .qmeasure import full_space_measure

    for n in range(1, 21):
        check(full_space_measure(n) == Dyadic(1), f"whole-space measure at n={n}")


def check_pair_trichotomy() -> None:
    for n in range(1, 9):
        state = _state(n)
        size = 1 << n
        allowed = {Dyadic(0), Dyadic(1, n - 1), Dyadic(1, max(n - 2, 0))}
        for i in range(size):
            if not set(map(pair_measure, repeat(state), repeat(i), range(i + 1, size))) <= allowed:
                j = next(j for j in range(i + 1, size) if pair_measure(state, i, j) not in allowed)
                check(False, f"pair measure outside the trichotomy at n={n}, ({i},{j})")
    for n in (9, 10, 11, 12):
        # all values are fixed by the two residues; one representative pair
        # per realizable residue combination covers every pair exactly
        state = _state(n)
        by_residue: dict[tuple[int, int], int] = {}
        for j in range(1 << n):
            r = state.residue(j)
            key = (j & 1, r)
            if key not in by_residue:
                by_residue[key] = j
        reps = list(by_residue.values())
        allowed = {Dyadic(0), Dyadic(1, n - 1), Dyadic(1, n - 2)}
        for a in reps:
            for b in reps:
                if a == b:
                    continue
                check(
                    pair_measure(state, a, b) in allowed,
                    f"pair measure outside the trichotomy at n={n}",
                )


def check_composition_instances() -> None:
    state = _state(3)
    D, C = Interference.DESTRUCTIVE, Interference.CONSTRUCTIVE
    for (i, j), want in {(0, 2): D, (2, 4): C, (0, 4): D, (1, 3): C, (3, 7): C, (1, 7): C}.items():
        _, got = interference(state, i, j)
        check(got is want, f"pair ({i},{j}) classified {got}, wanted {want}")


def check_composition_laws() -> None:
    for n in range(1, 9):
        check(
            interference_composition_check(_state(n)),
            f"composition laws failed at n={n}",
        )


def check_grade2_regularity_exhaustive() -> None:
    state = _state(3)
    space = state.space
    # every assignment of the 8 paths to (A, B, C, none)
    for assign in range(4 ** 8):
        masks = [0, 0, 0]
        a = assign
        for j in range(8):
            part = a & 3
            a >>= 2
            if part < 3:
                masks[part] |= 1 << j
        events = [Event(space, m) for m in masks]
        check(
            grade2_check(state, *events),
            f"grade-2 identity failed at n=3, masks={masks}",
        )
    for a_mask in range(256):
        rest = (~a_mask) & 255
        b_mask = rest
        while True:
            check(
                regularity_check(state, Event(space, a_mask), Event(space, b_mask)),
                f"regularity failed at n=3, A={a_mask:#x}, B={b_mask:#x}",
            )
            if b_mask == 0:
                break
            b_mask = (b_mask - 1) & rest


def check_grade2_random() -> None:
    rng = random.Random(SEED + 4)
    for n in (6, 8):
        state = _state(n)
        size = 1 << n
        for _ in range(500):
            a = rng.getrandbits(size)
            b = rng.getrandbits(size) & ~a
            c = rng.getrandbits(size) & ~(a | b)
            if not grade2_check(
                state,
                Event(state.space, a),
                Event(state.space, b),
                Event(state.space, c),
            ):
                check(False, f"grade-2 identity failed at n={n}")


def check_preclusion_census_n3() -> None:
    state = _state(3)
    found = enumerate_precluded(state)
    doubletons = {ev.to_tuple() for ev in found if ev.cardinality == 2}
    check(
        doubletons == {(0, 2), (0, 4), (0, 6), (1, 5), (3, 5), (5, 7)},
        f"precluded doubletons at n=3: {sorted(doubletons)}",
    )
    quads = {ev.to_tuple() for ev in found if ev.cardinality == 4}
    want_quads = {
        tuple(sorted(q))
        for q in [
            (0, 2, 1, 5), (0, 2, 3, 5), (0, 2, 5, 7),
            (0, 4, 1, 5), (0, 4, 3, 5), (0, 4, 5, 7),
            (0, 6, 1, 5), (0, 6, 3, 5), (0, 6, 5, 7),
        ]
    }
    check(quads == want_quads, f"precluded quadruples at n=3: {sorted(quads)}")
    check(
        all(ev.cardinality in (2, 4) for ev in found),
        "precluded events of unexpected cardinality at n=3",
    )
    check(len(found) == 15, f"expected 15 precluded events at n=3, got {len(found)}")


def check_preclusion_members_n4() -> None:
    state = _state(4)
    found = {ev.to_tuple() for ev in enumerate_precluded(state)}
    for member in [(0, 2), (0, 4), (2, 10), (4, 10), (0, 2, 4, 10)]:
        check(tuple(sorted(member)) in found, f"{member} not precluded at n=4")
    check(
        mu(state, _event(4, [0, 10])).as_fraction() == Fraction(1, 4),
        "pair {0,10} at n=4",
    )
    check(
        mu(state, _event(4, [2, 4])).as_fraction() == Fraction(1, 4),
        "pair {2,4} at n=4",
    )


def check_lemma_odd_cardinality() -> None:
    for n in (1, 2, 3, 4):
        found = enumerate_precluded(_state(n))
        check(
            all(ev.cardinality % 2 == 0 for ev in found),
            f"odd-cardinality precluded event at n={n}",
        )


def check_bounded_preclusion() -> None:
    # cardinality-bounded search beyond the full-sweep horizon: at most
    # pairs can appear (singletons are never null), and the pair list must
    # match an independent scan of every pair measure
    state = _state(5)
    bounded = enumerate_precluded(state, max_cardinality=2)
    pair_scan = {
        (i, j)
        for i in range(32)
        for j in range(i + 1, 32)
        if pair_measure(state, i, j).is_zero()
    }
    check(
        {ev.to_tuple() for ev in bounded} == pair_scan,
        "bounded preclusion at n=5 disagrees with the pair scan",
    )


def check_scaling() -> None:
    rng = random.Random(SEED + 5)
    coarse, fine = _state(2), _state(3)
    check(
        scaling_check(coarse, fine, _event(2, [0, 2])),
        "idle-padding scaling at m=2, n=3",
    )
    c3, f6 = _state(3), _state(6)
    for _ in range(100):
        event = Event(c3.space, rng.getrandbits(8))
        check(scaling_check(c3, f6, event), "idle-padding scaling at m=3, n=6")
    check(scaling_check(c3, c3, _event(3, [1, 2])), "identity scaling")


def check_regularity_instance() -> None:
    state = _state(2)
    a, b = _event(2, [0, 2]), _event(2, [1])
    check(mu(state, a).is_zero(), "the doubleton {0,2} should be precluded at n=2")
    check(
        mu(state, a.union(b)) == Dyadic(1, 2) and mu(state, b) == Dyadic(1, 2),
        "dropping a null event should not move the measure",
    )
    check(regularity_check(state, a, b), "regularity clauses at n=2")


# ---------------------------------------------------------------------------
# cylinders and limits


def check_cylinder_welldefined() -> None:
    base = CylinderEvent.from_indices(2, (0, 2))
    for lift in range(2, 10):
        check(
            mu_cyl(refine(base, lift)) == mu_cyl(base),
            f"cylinder measure changed under refinement to level {lift}",
        )
    full = CylinderEvent.from_indices(1, (0, 1))
    check(mu_cyl(full) == Dyadic(1), "whole-space cylinder measure")
    check(mu_cyl(CylinderEvent.from_indices(0, (0,))) == Dyadic(1), "level-0 whole space")
    for level in (1, 3, 5):
        check(
            mu_cyl(CylinderEvent.from_indices(level, (1,))) == Dyadic(1, level),
            f"elementary cylinder measure at level {level}",
        )


def check_refinement_preclusion() -> None:
    start = CylinderEvent.from_indices(2, (0, 2))
    check(mu_cyl(start).is_zero(), "{0,2} at level 2 should be precluded")
    lifted3 = refine(start, 3)
    check(lifted3.base.to_tuple() == (0, 1, 4, 5), "level-3 refinement members")
    check(mu_cyl(lifted3).is_zero(), "level-3 refinement should stay precluded")
    lifted4 = refine(start, 4)
    check(
        lifted4.base.to_tuple() == tuple(sorted([0, 8, 2, 10, 1, 9, 3, 11])),
        "level-4 refinement members",
    )
    check(mu_cyl(lifted4).is_zero(), "level-4 refinement should stay precluded")
    check(refine(start, 2) == start, "refinement to the same level is the identity")
    check(lifted3 == start and lifted4 == start, "refinements must compare equal")


def check_approximants_structure() -> None:
    one_one = AtMostKOnes(1)
    for n in range(1, 17):
        got = approximant(one_one, n).base.to_tuple()
        want = tuple(sorted({0} | {1 << b for b in range(n)}))
        check(got == want, f"at-most-one-1 hull at level {n}")
    single = FinitePathSet((ALL_ZEROS,))
    for n in range(1, 9):
        check(
            approximant(single, n).base.to_tuple() == (0,),
            f"single-path hull at level {n}",
        )
    for kind in (FinitelyManyOnes(), ComplementOfFinitePathSet((ALL_ZEROS,))):
        for n in range(1, 9):
            got = approximant(kind, n).base
            check(
                got.cardinality == 1 << n,
                f"hull of {kind!r} should be the full space at level {n}",
            )


def check_approximants_decrease() -> None:
    kinds = [
        AtMostKOnes(1),
        AtMostKOnes(2),
        FinitePathSet((ALL_ZEROS, EventualPath((1, 0, 1), 0))),
        ComplementOfFinitePathSet((ALL_ZEROS,)),
        FinitelyManyOnes(),
    ]
    for kind in kinds:
        for n in range(1, 16):
            finer = approximant(kind, n + 1).base
            lifted = refine(approximant(kind, n), n + 1).base
            check(
                finer.mask & ~lifted.mask == 0,
                f"hulls of {kind!r} fail to decrease at level {n}",
            )


def check_at_most_one_formula() -> None:
    event = AtMostKOnes(1)
    for n in range(1, 21):
        want = Fraction(n * n - 4 * n + 5, 1 << n)
        got = limit_term(event, n).as_fraction()
        check(got == want, f"at-most-one-1 measure at level {n}: {got} != {want}")
    check(float(limit_term(event, 30)) < 1e-6, "value at level 30 should sit below 1e-6")
    report = limit_mu_hat(event, 40, tol=1e-6)
    check(report.verdict is LimitVerdict.CONVERGED, "at-most-one-1 limit should converge")
    check(abs(report.estimate) < 1e-6, "at-most-one-1 limit should be 0")


def check_finite_sets_vanish() -> None:
    paths = (ALL_ZEROS, EventualPath((1,), 1), EventualPath((0, 1), 0))
    event = FinitePathSet(paths)
    m = len(paths)
    for n in range(1, 31):
        got = limit_term(event, n).as_fraction()
        check(got <= Fraction(m * m, 1 << n), f"finite-set bound violated at level {n}")
    report = limit_mu_hat(event, 40, tol=1e-9)
    check(
        report.verdict is LimitVerdict.CONVERGED and abs(report.estimate) < 1e-9,
        "finite path sets should have vanishing limit measure",
    )


def check_complement_closed_form() -> None:
    event = ComplementOfFinitePathSet((ALL_ZEROS,))
    for n in range(1, 49):
        check(
            limit_term(event, n) == complement_of_constant_closed_form(n),
            f"closed form disagrees with the census route at level {n}",
        )
    values = {1: Fraction(1, 2), 2: Fraction(5, 4), 3: Fraction(13, 8)}
    for n, want in values.items():
        check(
            complement_of_constant_closed_form(n).as_fraction() == want,
            f"closed-form spot value at n={n}",
        )


def check_complement_converges_to_one() -> None:
    event = ComplementOfFinitePathSet((ALL_ZEROS,))
    report = limit_mu_hat(event, 48, tol=1e-6)
    check(report.verdict is LimitVerdict.CONVERGED, "complement limit should converge")
    check(abs(report.estimate - 1.0) <= 1e-6, "complement limit should be 1")
    check(report.at_n is not None and report.at_n <= 48, "late convergence attachment")
    returns = ComplementOfFinitePathSet((EventualPath((1,), 1),))
    report2 = limit_mu_hat(returns, 48, tol=1e-6)
    check(
        report2.verdict is LimitVerdict.CONVERGED and abs(report2.estimate - 1.0) <= 1e-6,
        "the ever-returns event should also have limit measure 1",
    )


def check_block_products() -> None:
    terms = repeated_block_measures(6)
    for term in terms:
        check(
            term.value == Fraction(9, 8) ** term.index,
            f"block-product value at i={term.index}",
        )
    check(
        [t.provenance for t in terms] == ["direct"] * 4 + ["extrapolated"] * 2,
        "block-product provenance labels",
    )
    check(
        mu_cyl(CylinderEvent.from_indices(3, (2, 4, 6))).as_fraction() == Fraction(9, 8),
        "base block measure at level 3",
    )
    check(
        repeated_block_verdict() is LimitVerdict.DIVERGED,
        "block-product sequence should be flagged divergent",
    )


def check_variation_bound() -> None:
    previous = 0
    for n in range(1, 31):
        got = variation_lower_bound(n)
        check(got == 1 << n, f"variation bound at n={n}: {got}")
        check(got > previous, "variation bound should increase")
        previous = got


def check_finitely_many_ones() -> None:
    event = FinitelyManyOnes()
    for n in range(1, 17):
        check(limit_term(event, n) == Dyadic(1), f"hull measure at level {n}")
    report = limit_mu_hat(event, 20)
    check(
        report.verdict is LimitVerdict.CONVERGED and report.estimate == 1.0,
        "finitely-many-ones limit",
    )


def check_strong_disjointness() -> None:
    zeros = FinitePathSet((ALL_ZEROS,))
    ones_tail = FinitePathSet((EventualPath((1,), 1),))
    verdict = strongly_disjoint(zeros, ones_tail, 8)
    check(verdict.witnessed and verdict.at_level == 1, "distinct tails split at level 1")
    finitely = FinitelyManyOnes()
    infinitely = InfinitelyManyOnes()
    for bound in (4, 16, 64):
        verdict = strongly_disjoint(finitely, infinitely, bound)
        check(
            not verdict.witnessed,
            "finitely- vs infinitely-many-ones must never witness disjointness",
        )
    a = FinitePathSet((EventualPath((0, 0), 0),))  # dies in cyl(000)
    b = FinitePathSet((EventualPath((0, 1), 0),))  # dies in cyl(001)
    verdict = strongly_disjoint(a, b, 8)
    check(
        verdict.witnessed and verdict.at_level == 2,
        "incompatible level-2 prefixes split exactly at their defining level",
    )


# ---------------------------------------------------------------------------
# quadratic algebras


def check_three_type_system() -> None:
    system, table = three_type_system()
    ok, witness = is_quadratic_algebra(system)
    check(ok and witness is None, "three-type system should be a quadratic algebra")
    ok, witness = is_q_measure(system, table)
    check(ok and witness is None, "published values should form a q-measure")
    # non-additivity: two disjoint size-3 members whose union is a member
    a = (1 << 3) | (1 << 0) | (1 << 1)  # one of the second type, two of the first
    b = (1 << 4) | (1 << 5) | (1 << 6)  # two of the second type, one of the third
    check(a in set(system.members) and b in set(system.members), "witness members exist")
    check(a & b == 0 and (a | b) in set(system.members), "witness union exists")
    check(
        table[a] + table[b] == Fraction(1, 3) != Fraction(1, 2) == table[a | b],
        "the 1/3 vs 1/2 additivity failure",
    )
    # dropping the universe breaks the axioms with a concrete triple
    pruned = SetSystem(
        system.universe_size,
        tuple(m for m in system.members if m != system.universe_mask),
    )
    ok, witness = is_quadratic_algebra(pruned)
    check(not ok and witness is not None, "universe removal should fail with a triple")
    x, y, z = witness
    check(
        (x | y | z) == system.universe_mask,
        "the counterexample triple should unite to the universe",
    )


def check_odd_count_system() -> None:
    system = odd_count_system(3, 2)
    ok, witness = is_quadratic_algebra(system)
    check(ok and witness is None, "odd-count system should be a quadratic algebra")
    table = cardinality_squared_table(system)
    ok, witness = is_q_measure(system, table)
    check(ok and witness is None, "squared cardinality should be a q-measure")
    members = set(system.members)
    x_mask = (1 << 3) - 1
    for a in system.members:
        for b in system.members:
            if a and b and a & b == 0:
                if (a & x_mask) and (b & x_mask):
                    check(
                        (a | b) not in members
                        or ((a | b) & x_mask).bit_count() % 2 == 1,
                        "two odd-x members disjointly united into the system",
                    )


def check_power_set_sanity() -> None:
    for size in (1, 2, 3, 4):
        system = SetSystem(size, tuple(range(1 << size)))
        ok, witness = is_quadratic_algebra(system)
        check(ok and witness is None, f"power set of size {size}")
        counting = cardinality_squared_table(system)
        ok, _ = is_q_measure(system, counting)
        check(ok, f"squared cardinality on the power set of size {size}")
        additive = {m: Fraction(m.bit_count()) for m in system.members}
        from .quadratic import QMeasureTable

        ok, _ = is_q_measure(system, QMeasureTable(system, additive))
        check(ok, f"additive measure on the power set of size {size}")


def check_random_quadratic_closures() -> None:
    rng = random.Random(SEED + 6)
    for _ in range(100):
        size = rng.randint(2, 8)
        full = (1 << size) - 1
        members = {0, full}
        for _ in range(rng.randint(1, 6)):
            members.add(rng.getrandbits(size))
        changed = True
        while changed:
            changed = False
            pool = sorted(members)
            for ai, a in enumerate(pool):
                for bi in range(ai + 1, len(pool)):
                    b = pool[bi]
                    if a & b or (a | b) not in members:
                        continue
                    for ci in range(bi + 1, len(pool)):
                        c = pool[ci]
                        if c & (a | b):
                            continue
                        if (a | c) in members and (b | c) in members:
                            if (a | b | c) not in members:
                                members.add(a | b | c)
                                changed = True
        system = SetSystem(size, tuple(members))
        ok, _ = is_quadratic_algebra(system)
        check(ok, "closure construction should yield a quadratic algebra")
        ok, _ = is_q_measure(system, cardinality_squared_table(system))
        check(ok, "squared cardinality on a random quadratic algebra")


# ---------------------------------------------------------------------------
# integrals


def check_integral_table() -> None:
    want = {
        ("ones", 1): Fraction(1, 2),
        ("ones", 2): Fraction(3, 2),
        ("ones", 3): Fraction(2),
        ("changes", 1): Fraction(1, 2),
        ("changes", 2): Fraction(3, 2),
        ("changes", 3): Fraction(3),
    }
    for (which, n), value in want.items():
        state = _state(n)
        rv = (
            RandomVariable.ones(state.space)
            if which == "ones"
            else RandomVariable.changes(state.space)
        )
        for strategy in IntegralStrategy:
            got = integral(state, rv, strategy)
            check(
                got == value,
                f"{which} integral at n={n} via {strategy.value}: {got} != {value}",
            )


def check_integral_indicators() -> None:
    for n in range(1, 5):
        state = _state(n)
        size = 1 << n
        for mask in range(1 << size):
            event = Event(state.space, mask)
            rv = RandomVariable.indicator(event)
            want = mu(state, event).as_fraction()
            for strategy in IntegralStrategy:
                check(
                    integral(state, rv, strategy) == want,
                    f"indicator integral at n={n}, mask={mask:#x} via {strategy.value}",
                )


def check_integral_strategies_random() -> None:
    rng = random.Random(SEED + 7)
    for n in range(1, 9):
        state = _state(n)
        size = 1 << n
        for _ in range(60):
            support_size = rng.randint(1, size)
            support = rng.sample(range(size), support_size)
            # numerators over 4 of the values a / b, b in (1, 2, 4)
            nums = [0] * size
            for j in support:
                nums[j] = rng.randint(-8, 8) * (4 // rng.choice((1, 2, 4)))
            rv = RandomVariable(state.space, tuple(nums), 4)
            results = {s: integral(state, rv, s) for s in IntegralStrategy}
            check(
                len(set(results.values())) == 1,
                f"integral strategies disagree at n={n}: {results}",
            )


def check_integral_homogeneity() -> None:
    rng = random.Random(SEED + 8)
    for n in (2, 4, 6):
        state = _state(n)
        size = 1 << n
        for _ in range(40):
            # numerators over 3 of the values a / b, b in (1, 3)
            nums = tuple(rng.randint(-6, 6) * (3 // rng.choice((1, 3))) for _ in range(size))
            rv = RandomVariable(state.space, nums, 3)
            base = integral(state, rv)
            for alpha in (Fraction(3), Fraction(-2), Fraction(5, 2), Fraction(-7, 3)):
                check(
                    integral(state, rv.scale(alpha)) == alpha * base,
                    f"homogeneity failed at n={n}, alpha={alpha}",
                )


def check_min_matrix_dets() -> None:
    check(min_matrix_det_check([Fraction(7, 3)]), "single-value determinant")
    check(min_matrix_det_check([Fraction(1, 2), Fraction(5, 2)]), "two-value determinant")
    check(min_matrix_det_check([1, 2, 2, 5]), "repeated-value determinant (zero)")
    rng = random.Random(SEED + 9)
    for _ in range(100):
        values = sorted(Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 8)))
        check(min_matrix_det_check(values), f"telescoped determinant on {values}")


def check_psd_min_matrix() -> None:
    for n in (1, 2, 3):
        space = PathSpace(n)
        check(
            psd_check(RandomVariable.constant(space, Fraction(5, 3))),
            f"constant variable at n={n}",
        )
        check(psd_check(RandomVariable.ones(space)), f"ones count at n={n}")
    rng = random.Random(SEED + 10)
    for n in (4, 6, 8):
        space = PathSpace(n)
        for _ in range(30):
            # numerators over 2 of the values a / b, b in (1, 2)
            nums = tuple(rng.randint(0, 20) * (2 // rng.choice((1, 2))) for _ in range(space.size))
            check(psd_check(RandomVariable(space, nums, 2)), f"random nonneg at n={n}")


def check_indicator_rank_one() -> None:
    for n in (2, 3):
        state = _state(n)
        size = 1 << n
        rng = random.Random(SEED + 11)
        for _ in range(20):
            event = Event(state.space, rng.getrandbits(size))
            rv = RandomVariable.indicator(event)
            for i in range(size):
                for j in range(size):
                    want = Fraction(1 if (i in event and j in event) else 0)
                    if min_matrix_entry(rv, i, j) != want:
                        check(False, f"indicator min-matrix entry ({i},{j}) at n={n}")


def check_disjoint_support_identities() -> None:
    rng = random.Random(SEED + 12)
    for trial in range(100):
        n = rng.randint(2, 6)
        state = _state(n)
        size = 1 << n
        order = list(range(size))
        rng.shuffle(order)
        cut1, cut2 = size // 3, 2 * size // 3
        parts = [order[:cut1], order[cut1:cut2], order[cut2:]]
        rvs = []
        for part in parts:
            # numerators over 2 of the values a / b, b in (1, 2)
            nums = [0] * size
            for j in part:
                if rng.random() < 0.7:
                    nums[j] = rng.randint(-6, 6) * (2 // rng.choice((1, 2)))
            rvs.append(RandomVariable(state.space, tuple(nums), 2))
        check(
            disjoint_support_grade2_check(state, *rvs),
            f"disjoint-support identities failed on trial {trial} at n={n}",
        )


def check_nonadditivity_witness() -> None:
    state = _state(2)
    f, g, gap = nonadditivity_witness(state)
    check(gap != 0, "witness gap must be nonzero")
    lhs = integral(state, f + g)
    rhs = integral(state, f) + integral(state, g)
    check(lhs - rhs == gap, "reported gap must match the integrals")
    f2, g2, gap2 = nonadditivity_witness(state)
    check((f2, g2, gap2) == (f, g, gap), "witness must be deterministic")
    state4 = _state(4)
    _, _, gap4 = nonadditivity_witness(state4)
    check(gap4 != 0, "witness must exist at n=4")


# ---------------------------------------------------------------------------
# suite assembly

CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("change-vectors", check_change_vectors),
    ("ones-vectors", check_ones_vectors),
    ("reflection-recurrence", check_reflection_recurrence),
    ("shift-recurrence", check_shift_recurrence),
    ("parity-residue-link", check_parity_residue_link),
    ("residue-profile", check_residue_profile),
    ("matrix-n1", check_matrix_n1),
    ("matrix-signs", check_matrix_signs),
    ("entry-sum-unit", check_entry_sum_unit),
    ("functional-values", check_functional_values),
    ("functional-additive", check_functional_additive),
    ("eigen-equation", check_eigen_equation),
    ("eigen-reconstruction", check_eigen_reconstruction),
    ("eigenpair-n1", check_eigenpair_n1),
    ("null-space", check_null_space),
    ("vector-measure", check_vector_measure),
    ("strong-positivity", check_strong_positivity),
    ("measure-table-n2", check_measure_table_n2),
    ("strategy-agreement-exhaustive", check_strategy_agreement_exhaustive),
    ("strategy-agreement-random", check_strategy_agreement_random),
    ("full-space-unit", check_full_space_unit),
    ("pair-trichotomy", check_pair_trichotomy),
    ("composition-instances", check_composition_instances),
    ("composition-laws", check_composition_laws),
    ("grade2-regularity-exhaustive", check_grade2_regularity_exhaustive),
    ("grade2-random", check_grade2_random),
    ("preclusion-census-n3", check_preclusion_census_n3),
    ("preclusion-members-n4", check_preclusion_members_n4),
    ("bounded-preclusion", check_bounded_preclusion),
    ("odd-cardinality-unprecluded", check_lemma_odd_cardinality),
    ("scaling-embed", check_scaling),
    ("regularity-instance", check_regularity_instance),
    ("cylinder-well-defined", check_cylinder_welldefined),
    ("refinement-preclusion", check_refinement_preclusion),
    ("approximants-structure", check_approximants_structure),
    ("approximants-decrease", check_approximants_decrease),
    ("at-most-one-formula", check_at_most_one_formula),
    ("finite-sets-vanish", check_finite_sets_vanish),
    ("complement-closed-form", check_complement_closed_form),
    ("complement-limit-one", check_complement_converges_to_one),
    ("block-products", check_block_products),
    ("variation-bound", check_variation_bound),
    ("finitely-many-ones", check_finitely_many_ones),
    ("strong-disjointness", check_strong_disjointness),
    ("three-type-system", check_three_type_system),
    ("odd-count-system", check_odd_count_system),
    ("power-set-sanity", check_power_set_sanity),
    ("random-quadratic-closures", check_random_quadratic_closures),
    ("integral-table", check_integral_table),
    ("integral-indicators", check_integral_indicators),
    ("integral-strategies-random", check_integral_strategies_random),
    ("integral-homogeneity", check_integral_homogeneity),
    ("min-matrix-dets", check_min_matrix_dets),
    ("psd-min-matrix", check_psd_min_matrix),
    ("indicator-rank-one", check_indicator_rank_one),
    ("disjoint-support-identities", check_disjoint_support_identities),
    ("nonadditivity-witness", check_nonadditivity_witness),
]


def run_checks() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        started = time.perf_counter()
        try:
            fn()
        except CheckFailure as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # a crash is a failure with its own story
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            passed, detail = True, ""
        results.append(CheckResult(name, passed, detail, time.perf_counter() - started))
    return results
