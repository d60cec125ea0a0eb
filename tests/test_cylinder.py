import math
import random
import typing
from fractions import Fraction

import pytest

from oracles import (
    at_most_census_oracle,
    census_mu_oracle,
    census_of_indices_oracle,
    changes_oracle,
    changes_table,
    complement_closed_form_by_dyadic,
    first_level_past_cap,
    mu_oracle,
    ones_oracle,
    refined_mask_by_members,
    residue_profile_by_dyadic,
    site_string,
    sweep_every_level,
    whole_space_census_oracle,
)

from qwalk import cylinder
from qwalk.cli import _parse_limit_event
from qwalk.cylinder import (
    ALL_ZEROS,
    COMBINATION_CAP,
    LIMIT_MAX_LEVEL,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    CylinderEvent,
    DisjointWitness,
    EventualPath,
    FinitePathSet,
    FinitelyManyOnes,
    InfinitelyManyOnes,
    LimitVerdict,
    SymbolicEvent,
    approximant,
    change_residue_profile_closed_form,
    classify_sequence,
    complement_of_constant_closed_form,
    limit_mu_hat,
    limit_term,
    mu_cyl,
    refine,
    repeated_block_measures,
    strongly_disjoint,
    variation_lower_bound,
    _counter,
    _first_dead_level,
    _hull_mask,
    _limit_pairs,
    _root_two_cos,
    _sweep,
    _trie,
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


def test_bits_and_limits_of_other_numeric_types():
    """A bit equal to 0 or 1 is kept as that int, so every route reads it;
    other bits and a limit that is not an integer are refused when the
    event is made, as a negative limit is."""
    as_ints = EventualPath((1, 0), 1)
    one, zero = Fraction(1), Fraction(0)
    for prefix, repeat in (((True, False), True), ((1.0, 0.0), 1.0), ((one, zero), one)):
        path = EventualPath(prefix, repeat)
        assert path == as_ints and hash(path) == hash(as_ints)
        assert all(type(b) is int for b in (*path.prefix, path.repeat))
        event = FinitePathSet((path,))
        assert approximant(event, 3).base.to_tuple() == (0b101,)
        assert limit_term(event, 3) == limit_term(FinitePathSet((as_ints,)), 3)
        assert limit_term(ComplementOfFinitePathSet((path,)), 3) == limit_term(
            ComplementOfFinitePathSet((as_ints,)), 3
        )
    for prefix, repeat in (((0.5,), 0), ((0,), 2.0), ((0,), None), (("1",), 0)):
        with pytest.raises(ValueError, match="step bits must be 0 or 1"):
            EventualPath(prefix, repeat)
    assert AtMostKOnes(True) == AtMostKOnes(1) and type(AtMostKOnes(True).limit) is int
    for limit in (2.0, Fraction(2), "2", None):
        with pytest.raises(ValueError, match="limit must be an integer"):
            AtMostKOnes(limit)
    with pytest.raises(ValueError, match="limit must be nonnegative"):
        AtMostKOnes(-1)


def test_index_at_matches_steps_seeded():
    # prefixes shorter and longer than n, both repeat bits, n up to 63
    rng = random.Random(2121)
    for _ in range(400):
        prefix = tuple(rng.randrange(2) for _ in range(rng.randint(0, 80)))
        path = EventualPath(prefix, rng.randrange(2))
        n = rng.randint(1, 63)
        want = 0
        for i in range(1, n + 1):
            want = (want << 1) | path.step(i)
        assert path.index_at(n) == want, (prefix, path.repeat, n)
    for repeat in (0, 1):
        path = EventualPath((1, 0, 1), repeat)
        assert path.index_at(2) == 0b10
        assert path.index_at(3) == 0b101
        assert path.index_at(63) == (0b101 << 60) | (((1 << 60) - 1) if repeat else 0)


def test_approximant_finite_paths():
    single = FinitePathSet((ALL_ZEROS,))
    for n in range(1, 9):
        assert approximant(single, n).base.to_tuple() == (0,)
    pair = FinitePathSet((ALL_ZEROS, EventualPath((0, 1), 1)))
    assert approximant(pair, 1).base.to_tuple() == (0,)  # prefixes collide
    assert approximant(pair, 2).base.to_tuple() == (0, 1)
    assert approximant(pair, 3).base.to_tuple() == (0, 3)
    # an empty set has empty hulls at every level
    for n in range(1, 9):
        assert approximant(FinitePathSet(()), n).base.cardinality == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 20])
def test_approximant_finite_paths_seeded(n):
    # the members are the paths' site strings cut at n, read as binary; a
    # 64-path set at n <= 3 makes many prefixes collide
    rng = random.Random(8100 + n)
    paths = [
        EventualPath(tuple(rng.randrange(2) for _ in range(rng.randint(0, 24))), rng.randrange(2))
        for _ in range(64)
    ]
    want = {
        int("".join(map(str, (p.prefix + (p.repeat,) * n)[:n])), 2) for p in paths
    }
    assert approximant(FinitePathSet(tuple(paths)), n).base.to_tuple() == tuple(sorted(want))


def test_approximant_full_kinds():
    for kind in (
        ComplementOfFinitePathSet((ALL_ZEROS,)),
        FinitelyManyOnes(),
        InfinitelyManyOnes(),
    ):
        for n in (1, 3, 6):
            assert approximant(kind, n).base == Event.full(PathSpace(n))


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


def at_most_mask_bits_oracle(n: int, k: int) -> int:
    """The mask bits the level-n at-most-k hull build holds at its largest,
    two adjacent depths: after d steps the counter at s ones has, for its
    largest live tail of m = n - d steps, j = min(k - s, m) ones then zeros."""

    def depth(d: int) -> int:
        m = n - d
        return sum((1 << m) - (1 << (m - min(k - s, m))) + 1 for s in range(min(d, k) + 1))

    return max(depth(d) + depth(d + 1) for d in range(n))


def test_hull_mask_is_charged_the_bits_it_holds(monkeypatch):
    """Within the budget a build is charged its bound, 2**(n + 1) bits;
    past it, the bits it holds, counted exactly."""
    charged = []
    monkeypatch.setattr(cylinder, "charge", lambda units, what: charged.append(units))
    _hull_mask(_counter(0), 0, 10)
    assert charged == [2 << 10]
    monkeypatch.setattr(cylinder, "BUDGET", 0)
    for n in range(1, 11):
        for k in range(n + 2):
            charged.clear()
            _hull_mask(_counter(min(k, n)), 0, n)
            assert charged == [at_most_mask_bits_oracle(n, k)]


def test_approximant_resource_caps():
    with pytest.raises(ResourceLimitError):
        approximant(AtMostKOnes(1), 30)
    # refused before anything is built, for the bits of two depths' masks:
    # at level 24 only the hulls of at most one 1 fit
    assert [k for k in range(25) if at_most_mask_bits_oracle(24, k) <= BUDGET] == [0, 1]
    assert at_most_mask_bits_oracle(23, 10**12) == 2 << 23 <= BUDGET
    for k in (0, 1, 2, 6, 12, 23, 10**12):
        hull = approximant(AtMostKOnes(k), 23).base
        assert hull.cardinality == sum(at_most_census_oracle(23, k))
        bits = at_most_mask_bits_oracle(24, k)
        if k < 2:
            hull = approximant(AtMostKOnes(k), 24).base
            assert hull.cardinality == sum(at_most_census_oracle(24, k))
            continue
        with pytest.raises(ResourceLimitError, match=f"level-24 hull mask costs {bits} units"):
            approximant(AtMostKOnes(k), 24)
    with pytest.raises(ResourceLimitError, match="level-40 approximant base"):
        approximant(AtMostKOnes(12), 40)


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


def test_closed_forms_match_their_dyadic_evaluation():
    for n in range(1, 601):
        assert complement_of_constant_closed_form(n) == complement_closed_form_by_dyadic(n), n
        assert change_residue_profile_closed_form(n) == residue_profile_by_dyadic(n), n


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


def reference_rows(event, n_max):
    """limit_mu_hat's rows from the oracles' censuses, one level at a time:
    at-most-K by runs, a path set's distinct prefixes, and for a complement
    the whole space less its inner set's prefixes; finitely and infinitely
    many ones are the complement of no path.  Each row is u**2 + v**2 over
    2**n for the census's pair, and float() of it."""
    rows = []
    for n in range(1, n_max + 1):
        if isinstance(event, AtMostKOnes):
            census = at_most_census_oracle(n, event.limit)
        else:
            prefixes = {p.index_at(n) for p in getattr(event, "paths", ())}
            census = census_of_indices_oracle(n, prefixes)
            if not isinstance(event, FinitePathSet):
                census = tuple(f - c for f, c in zip(whole_space_census_oracle(n), census))
        u, v = pair(census)
        exact = Dyadic(u * u + v * v, n)
        rows.append((n, exact, float(exact)))
    return tuple(rows)


def test_limit_rows_match_a_sweep_of_every_level():
    rng = random.Random(20261021)
    paths = tuple(
        EventualPath(tuple(rng.randrange(2) for _ in range(rng.randint(0, 48))), rng.randrange(2))
        for _ in range(8)
    )
    tables = [(_parse_limit_event(raw), 512) for raw in ("return-to-zero", "complement-constant")]
    tables += [(_parse_limit_event(f"at-most-ones:{k}"), 512) for k in range(3)]
    tables += [(_parse_limit_event("at-most-ones:3"), 181)]  # up to its refusal
    tables += [
        (event, 512)
        for event in (
            FinitePathSet(paths),
            ComplementOfFinitePathSet(paths),
            FinitePathSet(()),
            FinitelyManyOnes(),
            InfinitelyManyOnes(),
        )
    ]
    for event, n_max in tables:
        rows = limit_mu_hat(event, n_max).values
        for n, exact, estimate in rows:
            assert type(estimate) is float and estimate == float(exact), (event, n)
        assert rows == reference_rows(event, n_max), event


def test_limit_validation():
    with pytest.raises(ValueError):
        limit_mu_hat(AtMostKOnes(1), 3, window=1)
    with pytest.raises(ValueError):
        limit_mu_hat(AtMostKOnes(1), 2, window=5)
    with pytest.raises(ResourceLimitError):
        limit_mu_hat(AtMostKOnes(1), 1000)
    # a single term costs its whole sweep, so it has the table's bound, and
    # both are refused by the one message
    past = f"limit level {LIMIT_MAX_LEVEL + 1} is past the cap of {LIMIT_MAX_LEVEL}"
    for event in (FinitePathSet((ALL_ZEROS,)), ComplementOfFinitePathSet((ALL_ZEROS,))):
        limit_term(event, LIMIT_MAX_LEVEL)
        limit_mu_hat(event, LIMIT_MAX_LEVEL)
        with pytest.raises(ResourceLimitError, match=past):
            limit_term(event, LIMIT_MAX_LEVEL + 1)
        with pytest.raises(ResourceLimitError, match=past):
            limit_mu_hat(event, LIMIT_MAX_LEVEL + 1)


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
    # the tenth increase in a row lands on the 13th value, past BLOW_UP,
    # and DIVERGED attaches to that value's level
    climb = [1.0] * 3 + [2e6 + i for i in range(11)] + [1.0] * 4
    verdict, estimate, at_n = classify_sequence(climb, 5, 1e-9)
    assert (verdict, estimate, at_n) == (LimitVerdict.DIVERGED, None, 13)
    # a jump in the last value leaves no stable tail
    jump = [1.0] * 10 + [2.0]
    verdict, estimate, at_n = classify_sequence(jump, 5, 1e-9)
    assert (verdict, estimate, at_n) == (LimitVerdict.UNDETERMINED, None, None)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_classify_sequence_rejects_tol(tol):
    with pytest.raises(ValueError):
        classify_sequence([1.0] * 10, 5, tol)
    with pytest.raises(ValueError):
        limit_mu_hat(AtMostKOnes(1), 8, tol=tol)


# -- pair sweeps -------------------------------------------------------------------


def pair(census):
    """The two signed amplitudes (c0 - c2, c1 - c3) a census's measure reads."""
    c0, c1, c2, c3 = census
    return c0 - c2, c1 - c3


def sweep(event, n_max):
    return list(_limit_pairs(event, n_max))


def at_most_sweep(k, n_max):
    """The at-most-k counter's pairs, with no refusal at the cap."""
    return _sweep(_counter(min(k, n_max)), 0, n_max)[0]


def test_at_most_sweep_matches_enumeration():
    # C(20, <= 4) = 6196 members, far within the budget
    for k in range(5):
        table = sweep(AtMostKOnes(k), 20)
        for n in range(1, 21):
            hull = approximant(AtMostKOnes(k), n).base
            if n <= 12:
                assert hull.mask == sum(1 << j for j in range(1 << n) if ones_oracle(n, j) <= k)
            members = census_of_indices_oracle(n, hull.to_tuple())
            assert members == at_most_census_oracle(n, k)
            assert table[n - 1] == pair(members)


def test_at_most_sweep_matches_run_count_to_the_cap():
    for k in range(7):
        top = 1  # the last level whose hull is within the cap, up to 512
        while top < LIMIT_MAX_LEVEL and sum(at_most_census_oracle(top + 1, k)) <= COMBINATION_CAP:
            top += 1
        table = sweep(AtMostKOnes(k), top)
        assert table == [pair(at_most_census_oracle(n, k)) for n in range(1, top + 1)]


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
        assert table[n - 1] == pair(at_most_census_oracle(n, 3))


def test_at_most_cap_is_decided_before_the_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("an at-most-K table above the cap was swept")

    monkeypatch.setattr(cylinder, "_sweep", refuse)
    event = AtMostKOnes(3)
    with pytest.raises(ResourceLimitError, match="at-most-3-ones census at level 182 exceeds"):
        limit_term(event, 512)
    with pytest.raises(ResourceLimitError, match="at-most-3-ones census at level 182 exceeds"):
        limit_mu_hat(event, 200)


def test_at_most_cap_level_matches_run_count_seeded():
    # the refusal names the first level whose hull census sums past the cap
    rng = random.Random(20261020)
    for k in sorted({*rng.sample(range(65), 24), 0, 1, 2, 3, 64}) + [10**12]:
        want = next(
            (n for n in range(1, 513) if sum(at_most_census_oracle(n, k)) > COMBINATION_CAP),
            None,
        )
        if want is None:
            census = at_most_census_oracle(512, k)
            assert limit_term(AtMostKOnes(k), 512).as_fraction() == census_mu_oracle(census, 512)
            continue
        with pytest.raises(ResourceLimitError, match=f"census at level {want} exceeds"):
            limit_term(AtMostKOnes(k), 512)


def test_at_most_refusal_level_matches_a_scan_of_every_level(monkeypatch):
    def unswept(*args):
        raise LookupError("swept")

    monkeypatch.setattr(cylinder, "_sweep", unswept)
    rng = random.Random(20261021)
    for k in range(31):
        first = first_level_past_cap(k, LIMIT_MAX_LEVEL, COMBINATION_CAP)
        n_maxes = {1, 2, LIMIT_MAX_LEVEL, *rng.sample(range(1, LIMIT_MAX_LEVEL + 1), 12)}
        if first is not None:
            n_maxes |= {first - 1, first, first + 1} - {0}
        for n_max in sorted(n_maxes):
            # the scan to n_max stops where the scan to 512 does, if it gets there
            want = first if first is not None and first <= n_max else None
            if want is None:
                with pytest.raises(LookupError):
                    _limit_pairs(AtMostKOnes(k), n_max)
                continue
            with pytest.raises(ResourceLimitError) as refused:
                _limit_pairs(AtMostKOnes(k), n_max)
            assert str(refused.value) == (
                f"at-most-{k}-ones census at level {want} exceeds {COMBINATION_CAP} members"
            )


def test_at_most_sweep_matches_run_count_seeded():
    rng = random.Random(20261018)
    for _ in range(24):
        k, n = rng.randint(0, 64), rng.randint(1, 512)
        assert at_most_sweep(k, n)[-1] == pair(at_most_census_oracle(n, k))


def test_at_most_sweep_is_full_space_when_k_reaches_n():
    table = at_most_sweep(128, 128)
    for n in range(1, 129):
        assert table[n - 1] == pair(change_residue_counts(n))
    for n in (1, 2, 3, 17, 64, 128):
        assert at_most_sweep(n, n)[-1] == pair(change_residue_counts(n))


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
            assert inner[n - 1] == pair(census)
            full = change_residue_counts(n)
            assert outer[n - 1] == pair(tuple(f - c for f, c in zip(full, census)))


def test_automata_are_clamped_to_the_horizon():
    # a counter or a prefix longer than the horizon is read only that far
    huge = AtMostKOnes(10**12)
    width, build, _ = cylinder._description(huge, 8)
    assert width == len(build()[0]) == 9
    assert limit_mu_hat(huge, 8).values == limit_mu_hat(FinitelyManyOnes(), 8).values
    assert limit_term(huge, 8) == 1
    assert approximant(huge, 6).base == Event.full(PathSpace(6))
    with pytest.raises(ResourceLimitError, match="level 20 exceeds"):
        limit_mu_hat(huge, 30)
    # the full hull is a mask like any other: built at level 23, and
    # refused at 24 for the 2**25 bits of two depths' masks
    assert approximant(huge, 23).base == Event.full(PathSpace(23))
    with pytest.raises(ResourceLimitError, match=f"level-24 hull mask costs {2 << 24} units"):
        approximant(huge, 24)
    long = EventualPath((1, 0) * 50_000, 0)
    paths = (long, EventualPath(long.prefix[:7], 1), ALL_ZEROS)
    moves, _ = _trie(paths, 3)
    assert len(moves) <= 2 * 3 + 2
    inner, outer = sweep(FinitePathSet(paths), 3), sweep(ComplementOfFinitePathSet(paths), 3)
    for n in (1, 2, 3):
        census = census_of_indices_oracle(n, {p.index_at(n) for p in paths})
        assert inner[n - 1] == pair(census)
        assert outer[n - 1] == pair(tuple(f - c for f, c in zip(change_residue_counts(n), census)))


def random_step_tables(seed: int):
    """Step tables of 1 to 5 states with dead moves, dead ends and loops."""
    rng = random.Random(seed)
    for _ in range(12):
        size = rng.randint(1, 5)
        pick = lambda: None if rng.random() < 0.2 else rng.randrange(size)
        yield [(pick(), pick()) for _ in range(size)], rng.randrange(size)


def step_string_runs(moves, start, n_max: int):
    """For n = 1..n_max, the state after each length-n step string, by index
    (the first step the high bit), or None once its run meets None."""
    reached = [start]
    for n in range(1, n_max + 1):
        reached = [
            None if reached[j >> 1] is None else moves[reached[j >> 1]][j & 1]
            for j in range(1 << n)
        ]
        yield n, reached


def test_sweep_and_hull_match_every_step_string_seeded(monkeypatch):
    """Every length-n step string is run through the table, and the census
    of those whose run never meets None is read off their site strings.
    The hull mask is charged the bit lengths of the step-string masks
    of the states reached at two adjacent depths, at their largest."""
    charged = []
    monkeypatch.setattr(cylinder, "charge", lambda units, what: charged.append(units))
    monkeypatch.setattr(cylinder, "BUDGET", 0)  # count the bits at every level
    for moves, start in random_step_tables(1616):
        table = _sweep(moves, start, 16)[0]
        tails = {  # (state, steps): the mask of its live step strings
            (s, m): sum(1 << j for j, t in enumerate(run) if t is not None)
            for s in range(len(moves))
            for m, run in step_string_runs(moves, s, 10)
        }
        depths = [{start}]
        for n, reached in step_string_runs(moves, start, 16):
            members = [j for j, s in enumerate(reached) if s is not None]
            charged.clear()
            assert _hull_mask(moves, start, n) == sum(1 << j for j in members)
            depths.append(set(reached) - {None})
            if n <= 10:
                held = [
                    sum(tails.get((s, n - d), 1).bit_length() for s in depths[d])
                    for d in range(n + 1)
                ]
                assert charged == [max(a + b for a, b in zip(held, held[1:]))]
            counts = [0, 0, 0, 0]
            by_state = {}
            for j in members:
                counts[changes_table(n)[j] % 4] += 1
                by_state.setdefault(reached[j], [0, 0, 0, 0])[changes_table(n)[j] % 4] += 1
            assert table[n - 1] == pair(counts)
            states = _sweep(moves, start, n)[1]
            assert states == {s: pair(c) for s, c in by_state.items()}


def random_automata(seed: int, count: int):
    """Step tables of 1 to 12 states, with dead moves and self-loops, each
    with a start and a table length up to 512, mostly short."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, 12)

        def pick(s):
            r = rng.random()
            return None if r < 0.3 else s if r < 0.5 else rng.randrange(size)

        n_max = 1 + int(511 * rng.random() ** 3)
        yield [(pick(s), pick(s)) for s in range(size)], rng.randrange(size), n_max


def test_sweep_matches_a_sweep_of_every_level_seeded():
    settled = unsettled = 0
    for moves, start, n_max in random_automata(1021, 2000):
        levels, live = _sweep(moves, start, n_max)
        assert (levels, live) == sweep_every_level(moves, start, n_max), (moves, start, n_max)
        if n_max > 2:
            if levels[-1] == levels[-2]:
                settled += 1
            else:
                unsettled += 1
    assert settled > 200 and unsettled > 200


class CountingMoves(list):
    """A step table that counts how often a state's moves are read."""

    reads = 0

    def __getitem__(self, s):
        self.reads += 1
        return super().__getitem__(s)


def test_finite_set_sweeps_stop_one_level_past_the_longest_prefix(monkeypatch):
    # a lone path holds one live state per level, so a read is a level
    rng = random.Random(20261021)
    for length in range(49):
        for repeat in (0, 1):
            path = EventualPath(tuple(rng.randrange(2) for _ in range(length)), repeat)
            moves, start = _trie((path,), 512)
            counted = CountingMoves(moves)
            levels, _ = _sweep(counted, start, 512)
            assert len(levels) == 512 and counted.reads <= length + 2
    # a set of P paths holds at most P live states per level; its table,
    # its complement's table and their last terms all stop early
    tables = []
    build = cylinder._trie

    def counted_trie(paths, n):
        moves, start = build(paths, n)
        tables.append(CountingMoves(moves))
        return tables[-1], start

    monkeypatch.setattr(cylinder, "_trie", counted_trie)
    for paths in seeded_path_sets(7):
        longest = max((len(p.prefix) for p in paths), default=0)
        for event in (FinitePathSet(paths), ComplementOfFinitePathSet(paths)):
            assert len(limit_mu_hat(event, 512).values) == 512
            limit_term(event, 512)
            for counted in tables:
                assert counted.reads <= max(len(paths), 1) * (longest + 2), paths
            tables.clear()


def test_disjointness_walk_matches_every_step_string_seeded():
    """The walk's first level with no live pair of states is the first level
    at which the two tables' step-string hulls share no member.  The seeded
    path sets' automata join the tables, so pairs also part late."""
    tables = list(random_step_tables(1616))
    tables += [_trie(paths, 16) for paths in seeded_path_sets(7)]
    hulls = [
        [sum(1 << j for j, s in enumerate(run) if s is not None) for _, run in runs]
        for runs in (step_string_runs(*t, 16) for t in tables)
    ]
    levels = set()
    for a, hulls_a in zip(tables, hulls):
        for b, hulls_b in zip(tables, hulls):
            first = next((n for n in range(1, 17) if not hulls_a[n - 1] & hulls_b[n - 1]), None)
            assert _first_dead_level(a, b, 16) == first
            levels.add(first)
    assert {None, 1, 5, 7} <= levels


def test_sweep_rejects_unknown_events():
    with pytest.raises(ValueError):
        limit_term("not an event", 3)
    with pytest.raises(ValueError):
        limit_mu_hat(object(), 8)
    with pytest.raises(ValueError):
        approximant(object(), 3)
    with pytest.raises(ValueError):
        strongly_disjoint(object(), FinitelyManyOnes(), 3)


def test_every_family_is_read_by_every_entry():
    """One instance of each family in the SymbolicEvent union is accepted
    wherever a symbolic event is; any other object is refused, also at
    level 0, where no automaton is needed."""
    instances = {
        FinitePathSet: FinitePathSet((ALL_ZEROS,)),
        AtMostKOnes: AtMostKOnes(1),
        ComplementOfFinitePathSet: ComplementOfFinitePathSet((ALL_ZEROS,)),
        FinitelyManyOnes: FinitelyManyOnes(),
        InfinitelyManyOnes: InfinitelyManyOnes(),
    }
    families = typing.get_args(SymbolicEvent)
    assert set(families) == set(instances)
    for family in families:
        event = instances[family]
        assert approximant(event, 0).level == 1 and approximant(event, 3).level == 3
        assert limit_mu_hat(event, 8).values[-1][1] == limit_term(event, 8)
        for other in instances.values():
            assert isinstance(strongly_disjoint(event, other, 4), DisjointWitness)
    with pytest.raises(ValueError):
        approximant(object(), 0)


def path_set_states_oracle(paths, n: int) -> set:
    """The states of a path set's level-n automaton, as (steps read, index
    of those steps) pairs: the root and every distinct prefix of a member,
    to one step past the longest prefix L capped at n, and at most n."""
    longest = min(max((len(p.prefix) for p in paths), default=0), n)
    depth = min(longest + 1, n)
    return {(0, 0)} | {(d, p.index_at(d)) for p in paths for d in range(depth + 1)}


def test_path_set_automaton_holds_at_most_its_charge(monkeypatch):
    """P paths are charged 16 units for each of the P * (L + 2) states
    their trie can hold, L the longest prefix read; the trie builds a
    state per distinct prefix and no more, and one-path sets hold exactly
    that many.  The empty set's lone root is not charged."""
    charged = []
    monkeypatch.setattr(cylinder, "charge", lambda units, what: charged.append(units))
    split = (EventualPath((1, 0, 1), 0), EventualPath((1, 0, 1), 1))  # two at every depth
    cases = [(split, 8)] + [
        (paths, n) for seed in (7, 11, 13) for paths in seeded_path_sets(seed) for n in (1, 4, 30)
    ]
    cases += [(paths[:1], n) for paths, n in cases if paths]
    cases += [(paths, 0) for paths in seeded_path_sets(7)]  # the root alone
    tight = 0
    for paths, n in cases:
        charged.clear()
        moves, start = _trie(paths, n)
        states = path_set_states_oracle(paths, n)
        assert start == 0 and len(moves) == len(states)
        bound = len(paths) * (max((min(len(p.prefix), n) for p in paths), default=0) + 2)
        assert charged == [16 * bound] and len(moves) <= max(bound, 1)
        tight += len(moves) == bound
    assert tight > 1


def random_path_sets(rng: random.Random, count: int):
    """Path sets of 0 to 10 paths with prefixes of 0 to 24 steps, many of
    them sharing heads, and each with a horizon n <= 12; a set's prefixes
    are often short enough that its runs loop past the longest."""
    for _ in range(count):
        paths = []
        top = rng.choice((4, 8, 24))
        for _ in range(rng.randint(0, 10)):
            shared = paths and rng.random() < 0.5
            head = rng.choice(paths).prefix[: rng.randint(0, top)] if shared else ()
            tail = tuple(rng.randrange(2) for _ in range(rng.randint(0, top - len(head))))
            paths.append(EventualPath(head + tail, rng.randrange(2)))
        yield FinitePathSet(tuple(paths)), rng.randint(1, 12)


def test_path_set_trie_matches_the_prefix_hulls_seeded():
    """A path set's automaton reads its hulls, which approximant builds
    from each path's prefix alone: the hull mask at level n is that base,
    and two sets' walk parts at the first level where their bases do."""
    rng = random.Random(3030)
    sets = list(random_path_sets(rng, 600))
    for event, n in sets:
        assert _hull_mask(*_trie(event.paths, n), n) == approximant(event, n).base.mask, (event, n)
    levels = set()
    for (a, n), (b, _) in zip(sets, sets[1:] + sets[:1]):
        if rng.random() < 0.5 and a.paths:  # a partner that shares a prefix
            path = rng.choice(a.paths)
            keep = rng.randint(0, len(path.prefix))
            b = FinitePathSet(b.paths + (EventualPath(path.prefix[:keep], rng.randrange(2)),))
        masks = [(approximant(a, m).base.mask, approximant(b, m).base.mask) for m in range(1, n + 1)]
        first = next((m for m, (x, y) in enumerate(masks, 1) if not x & y), None)
        assert _first_dead_level(_trie(a.paths, n), _trie(b.paths, n), n) == first, (a, b, n)
        levels.add(first)
    assert None in levels and len(levels) > 8


def test_disjointness_walk_is_charged_before_any_automaton(monkeypatch):
    """The walk is charged for the live states a depth can hold, known from
    the events alone: a counter's min(K, n_max) + 1 states and one per
    path, so a long shared prefix costs one pair a level."""
    prefix = (1, 0, 0, 1) * 75
    late = [FinitePathSet((EventualPath(prefix[:299] + (b,), 0),)) for b in (0, 1)]
    assert strongly_disjoint(*late, 300) == DisjointWitness(True, 300)
    assert strongly_disjoint(*late, 299) == DisjointWitness(False, None)

    def unbuilt(*args):
        raise AssertionError("an automaton was built before the charge")

    monkeypatch.setattr(cylinder, "_trie", unbuilt)
    monkeypatch.setattr(cylinder, "_counter", unbuilt)
    refused = f"{10**9 + 1} x 1 live states to level {10**9} costs {(10**9 + 1) * 10**9}"
    with pytest.raises(ResourceLimitError, match=refused):
        strongly_disjoint(AtMostKOnes(10**12), FinitelyManyOnes(), 10**9)
    both = FinitePathSet(late[0].paths + late[1].paths)
    with pytest.raises(ResourceLimitError, match=f"1 x 2 live states to level {BUDGET} costs {2 * BUDGET}"):
        strongly_disjoint(FinitePathSet(()), both, BUDGET)


def test_disjointness_walks_stop_at_a_repeated_live_set(monkeypatch):
    """Two one-path sets and at-most-2 against at-most-3 never part, and
    their live pairs repeat after a few levels, so walks to the largest
    bounds the budget admits read a few dozen levels of moves, not n_max."""
    tables = []
    counter, trie = cylinder._counter, cylinder._trie

    def counted(moves):
        tables.append(CountingMoves(moves))
        return tables[-1]

    monkeypatch.setattr(cylinder, "_counter", lambda k: counted(counter(k)))
    monkeypatch.setattr(cylinder, "_trie", lambda paths, n: (counted(trie(paths, n)[0]), 0))
    one_path = FinitePathSet((ALL_ZEROS,))
    for a, b, n_max in ((one_path, one_path, BUDGET), (AtMostKOnes(2), AtMostKOnes(3), BUDGET // 12)):
        tables.clear()
        assert strongly_disjoint(a, b, n_max) == DisjointWitness(False, None)
        # a level reads a row per step bit and live pair, of at most 12: 36 levels at most
        assert len(tables) == 2 and all(0 < t.reads <= 2 * 12 * 36 for t in tables)


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
