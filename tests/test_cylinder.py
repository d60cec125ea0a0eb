import math
import random
from fractions import Fraction

import pytest

from oracles import (
    at_most_census_oracle,
    census_mu_oracle,
    census_of_indices_oracle,
    changes_oracle,
    changes_table,
    mu_oracle,
    ones_oracle,
    refined_mask_by_members,
    site_string,
)

from qwalk.cylinder import (
    ALL_ZEROS,
    COMBINATION_CAP,
    LIMIT_MAX_LEVEL,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    CylinderEvent,
    EventualPath,
    FinitePathSet,
    FinitelyManyOnes,
    InfinitelyManyOnes,
    LimitVerdict,
    approximant,
    approximant_indices,
    change_residue_profile_closed_form,
    classify_sequence,
    complement_of_constant_closed_form,
    limit_mu_hat,
    limit_term,
    mu_cyl,
    refine,
    repeated_block_measures,
    variation_lower_bound,
    _automaton,
    _hull,
    _limit_censuses,
    _root_two_cos,
    _sweep,
)
from qwalk.decoherence import Event
from qwalk.errors import BUDGET, ResourceLimitError
from qwalk.exact import Dyadic
from qwalk.paths import PathSpace, change_residue_count_levels, change_residue_counts

EVENT_MAX_LEVEL = BUDGET.bit_length() - 1  # one mask bit per path fills the budget at 24

# -- cylinder events ------------------------------------------------------------


def test_refine_published_examples():
    start = CylinderEvent.from_indices(2, (0, 2))
    assert refine(start, 3).base.to_tuple() == (0, 1, 4, 5)
    assert refine(start, 4).base.to_tuple() == tuple(sorted([0, 8, 2, 10, 1, 9, 3, 11]))
    assert refine(start, 2) == start


def test_refine_matches_member_loop_seeded():
    rng = random.Random(1515)
    cases = []
    for level in range(1, 11):
        for to_level in range(level, min(level + 5, 16) + 1):
            cases.append((level, to_level, rng.getrandbits(1 << level)))  # dense
    for _ in range(12):
        # a few members lifted as high as explicit bases go
        level = rng.randint(1, 12)
        to_level = rng.randint(level, EVENT_MAX_LEVEL)
        members = rng.sample(range(1 << level), min(4, 1 << level))
        cases.append((level, to_level, sum(1 << j for j in members)))
    cases.append((1, EVENT_MAX_LEVEL, 0b10))
    cases.append((3, 3, 0))
    for level, to_level, mask in cases:
        base = CylinderEvent(level, Event(PathSpace(level), mask))
        fine = refine(base, to_level)
        assert fine.level == to_level and fine.base.space.n == to_level
        assert fine.base.mask == refined_mask_by_members(mask, level, to_level)


def test_refine_rejects_coarsening():
    with pytest.raises(ValueError):
        refine(CylinderEvent.from_indices(3, (0,)), 2)


def test_cylinder_equality_across_levels():
    a = CylinderEvent.from_indices(2, (0, 2))
    assert refine(a, 5) == a
    assert a != CylinderEvent.from_indices(2, (0, 1))
    assert CylinderEvent.from_indices(1, (0, 1)) == CylinderEvent.from_indices(3, range(8))


def test_level_zero_canonicalization():
    whole = CylinderEvent.from_indices(0, (0,))
    assert whole.level == 1 and whole.base.to_tuple() == (0, 1)
    nothing = CylinderEvent.from_indices(0, ())
    assert nothing.level == 1 and nothing.base.cardinality == 0
    with pytest.raises(ValueError):
        CylinderEvent.from_indices(0, (1,))


def test_mu_cyl_values():
    assert mu_cyl(CylinderEvent.from_indices(1, (0, 1))) == Dyadic(1)
    assert mu_cyl(CylinderEvent.from_indices(2, (0, 2))).is_zero()
    for level in (1, 2, 5, 9):
        assert mu_cyl(CylinderEvent.from_indices(level, (1,))) == Dyadic(1, level)


@pytest.mark.parametrize("level,indices", [(2, (0, 2)), (3, (2, 4, 6)), (2, (1, 3)), (3, (0, 1, 7))])
def test_mu_cyl_invariant_under_refinement(level, indices):
    base = CylinderEvent.from_indices(level, indices)
    want = mu_cyl(base)
    for lift in range(level, level + 9):
        assert mu_cyl(refine(base, lift)) == want


def test_refinement_stays_precluded():
    start = CylinderEvent.from_indices(2, (0, 2))
    assert mu_cyl(start).is_zero()
    for lift in (3, 4, 5, 6):
        assert mu_cyl(refine(start, lift)).is_zero()


@pytest.mark.parametrize("level", (1, 2, 3))
def test_mu_cyl_well_defined_exhaustive(level):
    from qwalk.decoherence import Event
    from qwalk.paths import PathSpace

    space = PathSpace(level)
    for mask in range(1 << (1 << level)):
        base = CylinderEvent(level, Event(space, mask))
        want = mu_cyl(base)
        for lift in range(level + 1, level + 9):
            assert mu_cyl(refine(base, lift)) == want


# -- symbolic events and approximants ----------------------------------------------


def test_eventual_path_bits():
    path = EventualPath((0, 1, 1), 0)
    assert [path.step(i) for i in range(1, 7)] == [0, 1, 1, 0, 0, 0]
    assert path.index_at(5) == 0b01100
    assert ALL_ZEROS.index_at(6) == 0
    with pytest.raises(ValueError):
        EventualPath((0, 2), 0)


def test_approximant_finite_paths():
    single = FinitePathSet((ALL_ZEROS,))
    for n in range(1, 9):
        assert approximant(single, n).base.to_tuple() == (0,)
    pair = FinitePathSet((ALL_ZEROS, EventualPath((0, 1), 1)))
    assert approximant(pair, 1).base.to_tuple() == (0,)  # prefixes collide
    assert approximant(pair, 2).base.to_tuple() == (0, 1)
    assert approximant(pair, 3).base.to_tuple() == (0, 3)
    # an empty set has empty hulls; only None from approximant_indices is full
    for n in range(1, 9):
        assert approximant(FinitePathSet(()), n).base.cardinality == 0


def test_approximant_full_kinds():
    for kind in (
        ComplementOfFinitePathSet((ALL_ZEROS,)),
        FinitelyManyOnes(),
        InfinitelyManyOnes(),
    ):
        for n in (1, 3, 6):
            assert approximant(kind, n).base.cardinality == 1 << n
        assert approximant_indices(kind, 4) is None


def test_approximants_decrease():
    kinds = [
        AtMostKOnes(1),
        AtMostKOnes(3),
        FinitePathSet((ALL_ZEROS, EventualPath((1, 0, 1), 0), EventualPath((1,), 1))),
        ComplementOfFinitePathSet((ALL_ZEROS,)),
        FinitelyManyOnes(),
    ]
    for kind in kinds:
        for n in range(1, 16):
            finer = approximant(kind, n + 1).base
            lifted = refine(approximant(kind, n), n + 1).base
            assert finer.mask & ~lifted.mask == 0


def test_approximant_level_zero():
    assert approximant(AtMostKOnes(0), 0).base.to_tuple() == (0, 1)
    assert approximant(FinitePathSet(()), 0).base.cardinality == 0
    assert approximant(FinitePathSet([]), 0).base.cardinality == 0


def test_approximant_resource_caps():
    with pytest.raises(ResourceLimitError):
        approximant(AtMostKOnes(1), 30)
    # refused before anything is built
    members = [sum(at_most_census_oracle(n, 12)) for n in (20, 21)]
    assert 16 * (members[0] + 1) <= BUDGET < 16 * (members[1] + 1)
    with pytest.raises(ResourceLimitError, match="level-40 hull"):
        approximant_indices(AtMostKOnes(12), 40)
    with pytest.raises(ResourceLimitError, match="level-21 hull"):
        approximant_indices(AtMostKOnes(12), 21)


# -- limit sequences -------------------------------------------------------------


def test_limit_term_matches_materialized_hulls():
    kinds = [
        AtMostKOnes(1),
        AtMostKOnes(2),
        FinitePathSet((ALL_ZEROS, EventualPath((1, 1), 0))),
        FinitelyManyOnes(),
    ]
    for kind in kinds:
        for n in range(1, 11):
            members = approximant(kind, n).base.to_tuple()
            assert limit_term(kind, n).as_fraction() == mu_oracle(n, members)


def test_limit_term_complement_matches_oracle():
    event = ComplementOfFinitePathSet((ALL_ZEROS,))
    for n in range(1, 11):
        members = [j for j in range(1 << n) if j != 0]
        assert limit_term(event, n).as_fraction() == mu_oracle(n, members)


def test_at_most_one_published_formula():
    event = AtMostKOnes(1)
    for n in range(1, 21):
        assert limit_term(event, n).as_fraction() == Fraction(n * n - 4 * n + 5, 1 << n)
    assert float(limit_term(event, 30)) < 1e-6
    for n, exact, _ in limit_mu_hat(event, 512).values:
        assert exact.as_fraction() == Fraction(n * n - 4 * n + 5, 1 << n)


def test_finite_path_bound():
    paths = (ALL_ZEROS, EventualPath((1,), 1), EventualPath((0, 1), 0))
    event = FinitePathSet(paths)
    m = len(paths)
    for n in range(1, 41):
        assert limit_term(event, n).as_fraction() <= Fraction(m * m, 1 << n)


def test_complement_closed_form_values():
    assert complement_of_constant_closed_form(1).as_fraction() == Fraction(1, 2)
    assert complement_of_constant_closed_form(2).as_fraction() == Fraction(5, 4)
    assert complement_of_constant_closed_form(3).as_fraction() == Fraction(13, 8)
    table = limit_mu_hat(ComplementOfFinitePathSet((ALL_ZEROS,)), 512).values
    for n, exact, _ in table:
        assert exact == complement_of_constant_closed_form(n)
    assert [n for n, _, _ in table] == list(range(1, 513))


def test_root_two_cos_is_the_float_value_or_refused():
    for h in range(-40, 41):
        for m in range(-16, 17):
            if (h - m) % 2:
                with pytest.raises(ValueError):
                    _root_two_cos(h, m)
                continue
            scale = 2.0 ** (h / 2)
            want = scale * math.cos(m * math.pi / 4)
            assert abs(float(_root_two_cos(h, m)) - want) <= 1e-12 * scale, (h, m)


def test_complement_closed_form_float_shape():
    # 1 + 1/2**n - cos(n*pi/4) / 2**(n/2 - 1), checked in floating point
    for n in range(1, 30):
        want = 1 + 2.0 ** -n - math.cos(n * math.pi / 4) / 2.0 ** (n / 2 - 1)
        assert float(complement_of_constant_closed_form(n)) == pytest.approx(want)


def test_limit_report_complement_converges_to_one():
    report = limit_mu_hat(ComplementOfFinitePathSet((ALL_ZEROS,)), 48, tol=1e-6)
    assert report.verdict is LimitVerdict.CONVERGED
    assert report.estimate == pytest.approx(1.0, abs=1e-6)
    assert report.at_n is not None and report.at_n <= 48
    assert report.sequence_kind == "increasing-complements"


def test_limit_report_at_most_one_converges_to_zero():
    report = limit_mu_hat(AtMostKOnes(1), 40, tol=1e-6)
    assert report.verdict is LimitVerdict.CONVERGED
    assert abs(report.estimate) < 1e-6
    assert report.sequence_kind == "decreasing-hulls"


def test_limit_report_undetermined_when_short():
    report = limit_mu_hat(ComplementOfFinitePathSet((ALL_ZEROS,)), 8, tol=1e-9)
    assert report.verdict is LimitVerdict.UNDETERMINED


def test_limit_table_matches_terms():
    paths = (ALL_ZEROS, EventualPath((1, 1), 0), EventualPath((0, 1), 1))
    events = [
        FinitePathSet(paths),
        FinitePathSet(()),
        *(AtMostKOnes(k) for k in range(5)),
        ComplementOfFinitePathSet(paths),
        ComplementOfFinitePathSet((ALL_ZEROS,)),
        FinitelyManyOnes(),
        InfinitelyManyOnes(),
    ]
    for event in events:
        terms = [limit_term(event, n) for n in range(1, 41)]
        rows = tuple((n, term, float(term)) for n, term in enumerate(terms, start=1))
        assert limit_mu_hat(event, 40).values == rows


def test_limit_validation():
    with pytest.raises(ValueError):
        limit_mu_hat(AtMostKOnes(1), 3, window=1)
    with pytest.raises(ValueError):
        limit_mu_hat(AtMostKOnes(1), 2, window=5)
    with pytest.raises(ResourceLimitError):
        limit_mu_hat(AtMostKOnes(1), 1000)
    # a single term costs its whole sweep, so it has the table's bound
    for event in (FinitePathSet((ALL_ZEROS,)), ComplementOfFinitePathSet((ALL_ZEROS,))):
        limit_term(event, LIMIT_MAX_LEVEL)
        with pytest.raises(ResourceLimitError):
            limit_term(event, LIMIT_MAX_LEVEL + 1)


def test_classify_sequence_rules():
    diverging = [float(Fraction(9, 8) ** i) for i in range(1, 131)]
    verdict, _, _ = classify_sequence(diverging, 5, 1e-9)
    assert verdict is LimitVerdict.DIVERGED
    flat = [1.0] * 10
    verdict, estimate, at_n = classify_sequence(flat, 5, 1e-9)
    assert verdict is LimitVerdict.CONVERGED and estimate == 1.0 and at_n == 5
    wiggly = [1.0, 2.0] * 10
    verdict, _, _ = classify_sequence(wiggly, 5, 1e-9)
    assert verdict is LimitVerdict.UNDETERMINED
    # big but not sustained growth is not divergence
    spiky = [2e6, 1.0] * 10
    verdict, _, _ = classify_sequence(spiky, 5, 1e-9)
    assert verdict is LimitVerdict.UNDETERMINED


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_classify_sequence_rejects_tol(tol):
    with pytest.raises(ValueError):
        classify_sequence([1.0] * 10, 5, tol)
    with pytest.raises(ValueError):
        limit_mu_hat(AtMostKOnes(1), 8, tol=tol)


# -- census sweeps -------------------------------------------------------------------


def sweep(event, n_max):
    return list(_limit_censuses(event, n_max))


def at_most_sweep(k, n_max):
    """The at-most-k automaton's censuses, with no refusal at the cap."""
    return list(_sweep(*_automaton(AtMostKOnes(k), n_max), n_max))


def test_at_most_sweep_matches_enumeration():
    # C(20, <= 4) = 6196 members, far within the budget
    for k in range(5):
        table = sweep(AtMostKOnes(k), 20)
        for n in range(1, 21):
            hull = approximant_indices(AtMostKOnes(k), n)
            if n <= 12:
                assert hull == {j for j in range(1 << n) if ones_oracle(n, j) <= k}
            members = census_of_indices_oracle(n, hull)
            assert table[n - 1] == members == at_most_census_oracle(n, k)


def test_at_most_sweep_matches_run_count_to_the_cap():
    for k in range(7):
        top = 1  # the last level whose hull is within the cap, up to 512
        while top < LIMIT_MAX_LEVEL and sum(at_most_census_oracle(top + 1, k)) <= COMBINATION_CAP:
            top += 1
        table = sweep(AtMostKOnes(k), top)
        assert table == [at_most_census_oracle(n, k) for n in range(1, top + 1)]


def test_at_most_three_at_the_combination_cap():
    event = AtMostKOnes(3)
    census = at_most_census_oracle(181, 3)
    assert sum(census) <= COMBINATION_CAP
    assert limit_term(event, 181).as_fraction() == census_mu_oracle(census, 181)
    for n in (182, 256, 512):
        assert sum(at_most_census_oracle(n, 3)) > COMBINATION_CAP
        with pytest.raises(ResourceLimitError):
            limit_term(event, n)
    with pytest.raises(ResourceLimitError):
        limit_mu_hat(event, 200)


def test_at_most_dp_past_the_combination_cap():
    table = at_most_sweep(3, 512)
    for n in (182, 256, 512):
        assert table[n - 1] == at_most_census_oracle(n, 3)


def test_at_most_sweep_matches_run_count_seeded():
    rng = random.Random(20261018)
    for _ in range(24):
        k, n = rng.randint(0, 64), rng.randint(1, 512)
        assert at_most_sweep(k, n)[-1] == at_most_census_oracle(n, k)


def test_at_most_sweep_is_full_space_when_k_reaches_n():
    table = at_most_sweep(128, 128)
    for n in range(1, 129):
        assert table[n - 1] == change_residue_counts(n)
    for n in (1, 2, 3, 17, 64, 128):
        assert at_most_sweep(n, n)[-1] == change_residue_counts(n)


def seeded_path_sets(seed: int):
    """Path sets with duplicates (also under another description), shared
    prefixes, empty prefixes and both repeat bits."""
    yield ()
    yield (ALL_ZEROS, EventualPath((0, 0, 0), 0), EventualPath((), 1), EventualPath((), 1))
    rng = random.Random(seed)
    for _ in range(16):
        paths = [EventualPath((), rng.randrange(2))]
        for _ in range(rng.randint(1, 7)):
            base = rng.choice(paths)
            kind = rng.randrange(3)
            if kind == 0:  # the same path again
                paths.append(base)
                continue
            head = base.prefix[: rng.randint(0, len(base.prefix))] if kind == 1 else ()
            tail = tuple(rng.randrange(2) for _ in range(rng.randint(0, 24)))
            paths.append(EventualPath(head + tail, rng.randrange(2)))
        rng.shuffle(paths)
        yield tuple(paths)


def test_prefix_sweeps_match_indices():
    for paths in seeded_path_sets(7):
        inner = sweep(FinitePathSet(paths), 64)
        outer = sweep(ComplementOfFinitePathSet(paths), 64)
        for n in range(1, 65):
            census = census_of_indices_oracle(n, {p.index_at(n) for p in paths})
            assert inner[n - 1] == census
            full = change_residue_counts(n)
            assert outer[n - 1] == tuple(f - c for f, c in zip(full, census))


def test_automata_are_clamped_to_the_horizon():
    # a counter or a prefix longer than the horizon is read only that far
    huge = AtMostKOnes(10**12)
    assert len(_automaton(huge, 8)[0]) == 9
    assert limit_mu_hat(huge, 8).values == limit_mu_hat(FinitelyManyOnes(), 8).values
    assert limit_term(huge, 8) == 1
    assert approximant_indices(huge, 6) == frozenset(range(64))
    with pytest.raises(ResourceLimitError, match="level 20 exceeds"):
        limit_mu_hat(huge, 30)
    # the full level-20 hull: 2**20 members and their list, 16 units each
    refused = f"level-20 hull of {1 << 20} members costs {16 << 20 | 16} units"
    with pytest.raises(ResourceLimitError, match=refused):
        approximant_indices(huge, 20)
    long = EventualPath((1, 0) * 50_000, 0)
    paths = (long, EventualPath(long.prefix[:7], 1), ALL_ZEROS)
    moves, _ = _automaton(FinitePathSet(paths), 3)
    assert len(moves) <= 2 * 3 + 2
    inner, outer = sweep(FinitePathSet(paths), 3), sweep(ComplementOfFinitePathSet(paths), 3)
    for n in (1, 2, 3):
        census = census_of_indices_oracle(n, {p.index_at(n) for p in paths})
        assert inner[n - 1] == census
        assert outer[n - 1] == tuple(f - c for f, c in zip(change_residue_counts(n), census))


def random_step_tables(seed: int):
    """Step tables of 1 to 5 states with dead moves, dead ends and loops."""
    rng = random.Random(seed)
    for _ in range(12):
        size = rng.randint(1, 5)
        pick = lambda: None if rng.random() < 0.2 else rng.randrange(size)
        yield [(pick(), pick()) for _ in range(size)], rng.randrange(size)


def test_sweep_and_hull_match_every_step_string_seeded():
    """Every length-n step string is run through the table, and the census
    of those whose run never meets None is read off their site strings."""
    for moves, start in random_step_tables(1616):
        table = list(_sweep(moves, start, 16))
        reached = [start]  # by index: the state after its steps, or None
        for n in range(1, 17):
            reached = [
                None if reached[j >> 1] is None else moves[reached[j >> 1]][j & 1]
                for j in range(1 << n)
            ]
            members = [j for j, s in enumerate(reached) if s is not None]
            assert sorted(_hull(moves, start, n)) == members
            counts = [0, 0, 0, 0]
            for j in members:
                counts[changes_table(n)[j] % 4] += 1
            assert table[n - 1] == tuple(counts)


def test_sweep_rejects_unknown_events():
    with pytest.raises(ValueError):
        limit_term("not an event", 3)
    with pytest.raises(ValueError):
        limit_mu_hat(object(), 8)
    with pytest.raises(ValueError):
        approximant_indices(object(), 3)


# -- block products ---------------------------------------------------------------


def test_block_measures_match_oracle_at_small_levels():
    # explicit members at levels 3 and 6, measured by the string oracle
    level3 = [2, 4, 6]
    assert mu_oracle(3, level3) == Fraction(9, 8)
    level6 = [(j << 3) | b for j in level3 for b in (2, 4, 6)]
    assert mu_oracle(6, level6) == Fraction(81, 64)
    assert repeated_block_measures(2)[1].value == Fraction(81, 64)


def test_block_input_validation():
    with pytest.raises(ValueError):
        repeated_block_measures(0)


# -- variation bound ----------------------------------------------------------------


def test_variation_values():
    for n in range(1, 65):
        assert variation_lower_bound(n) == 1 << n
    assert variation_lower_bound(1) == 2
    assert variation_lower_bound(4) == 16


def test_variation_validation():
    with pytest.raises(ValueError):
        variation_lower_bound(0)


# -- residue profile ------------------------------------------------------------------


def residue_histogram_direct(n: int) -> tuple[int, int, int, int]:
    """Direct count, split through a half-width table so n=24 stays fast.

    A path splits as high steps then low steps; the low block's changes
    depend only on its bits and the preceding site, so one table per
    preceding site covers the whole space.
    """
    if n <= 12:
        counts = [0, 0, 0, 0]
        for j in range(1 << n):
            counts[changes_oracle(n, j) & 3] += 1
        return tuple(counts)
    low_bits = n // 2
    high_bits = n - low_bits
    tables = {0: [0, 0, 0, 0], 1: [0, 0, 0, 0]}
    for prev in (0, 1):
        for low in range(1 << low_bits):
            s = str(prev) + bin(low)[2:].zfill(low_bits)
            c = sum(a != b for a, b in zip(s, s[1:]))
            tables[prev][c & 3] += 1
    counts = [0, 0, 0, 0]
    for high in range(1 << high_bits):
        c_high = changes_oracle(high_bits, high)
        table = tables[high & 1]
        for r in range(4):
            counts[(c_high + r) & 3] += table[r]
    return tuple(counts)


def test_direct_histogram_self_consistent():
    for n in (13, 14):
        brute = [0, 0, 0, 0]
        for j in range(1 << n):
            brute[changes_oracle(n, j) & 3] += 1
        assert residue_histogram_direct(n) == tuple(brute)


@pytest.mark.parametrize("n", list(range(1, 15)) + [20, 24])
def test_residue_profile_matches_direct_count(n):
    assert change_residue_counts(n) == residue_histogram_direct(n)


def test_profile_validation():
    for n, counts in enumerate(change_residue_count_levels(512), start=1):
        assert change_residue_profile_closed_form(n) == counts
    with pytest.raises(ValueError):
        change_residue_profile_closed_form(0)
    with pytest.raises(ValueError):
        complement_of_constant_closed_form(0)


# -- site strings sanity (ties symbolic paths to the oracle) -------------------------


def test_prefix_indices_match_site_strings():
    path = EventualPath((1, 0, 1), 1)
    for n in range(1, 10):
        want = "0" + "".join(str(path.step(i)) for i in range(1, n + 1))
        assert site_string(n, path.index_at(n)) == want
