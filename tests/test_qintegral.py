import dataclasses
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from oracles import changes_table, integral_double_sum_oracle, layered_integral_oracle

from qwalk import paths, qintegral
from qwalk.decoherence import DecoherenceState, Event
from qwalk.errors import BUDGET, ResourceLimitError
from qwalk.paths import PathSpace
from qwalk.qintegral import (
    IntegralStrategy,
    RandomVariable,
    disjoint_support_grade2_check,
    integral,
    min_matrix_det_check,
    min_matrix_entry,
    nonadditivity_witness,
    psd_check,
)
from qwalk.qmeasure import mu


def state(n: int) -> DecoherenceState:
    return DecoherenceState(PathSpace(n))


def rv(n: int, values) -> RandomVariable:
    return RandomVariable.from_values(PathSpace(n), values)


# -- random variables ----------------------------------------------------------


def test_variable_construction():
    space = PathSpace(2)
    f = RandomVariable.from_values(space, [1, "1/2", Fraction(3, 4), 0])
    assert f.values == (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(0))
    with pytest.raises(ValueError):
        RandomVariable.from_values(space, [1, 2, 3])
    assert RandomVariable.ones(space).values == (0, 1, 1, 2)
    assert RandomVariable.changes(space).values == (0, 1, 2, 1)
    assert RandomVariable.constant(space, 5).values == (5, 5, 5, 5)


def test_variable_support_and_ops():
    f = rv(2, [0, 1, 0, -2])
    assert f.support() == (1, 3)
    g = rv(2, [1, 0, 0, 1])
    assert (f + g).values == (1, 1, 0, -1)
    assert f.scale(-2).values == (0, -2, 0, 4)


def test_indicator_variable():
    ev = Event.from_indices(PathSpace(3), [1, 4])
    f = RandomVariable.indicator(ev)
    assert f.values == (0, 1, 0, 0, 1, 0, 0, 0)
    # numerator j is bit j of the mask, an int, for seeded masks
    rng = random.Random(148)
    for n in range(1, 13):
        mask = rng.getrandbits(1 << n)
        numerators = RandomVariable.indicator(Event(PathSpace(n), mask)).numerators
        assert numerators == tuple(mask >> j & 1 for j in range(1 << n))
        assert all(type(v) is int for v in numerators)


def test_canonical_form_equal_values_equal_variables():
    space = PathSpace(2)
    f = RandomVariable.from_values(space, [Fraction(1, 2), 1, 0, Fraction(-3, 2)])
    g = RandomVariable.from_values(space, ["2/4", Fraction(2, 2), "0", -1.5])
    h = RandomVariable(space, (2, 4, 0, -6), 4)  # reduced on construction
    assert f == g == h
    assert hash(f) == hash(g) == hash(h)
    assert (f.numerators, f.denominator) == ((1, 2, 0, -3), 2)
    assert f != RandomVariable.from_values(space, [Fraction(1, 2), 1, 0, 1])


def test_canonical_form_scale_round_trip():
    rng = random.Random(59)
    space = PathSpace(4)
    for _ in range(20):
        f = RandomVariable.from_values(
            space, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6))) for _ in range(16)]
        )
        assert f.scale(2).scale(Fraction(1, 2)) == f
        assert f.scale(Fraction(-3, 7)).scale(Fraction(-7, 3)) == f
        assert f + f.scale(-1) == RandomVariable.constant(space, 0)


def test_canonical_form_zero_has_denominator_one():
    space = PathSpace(3)
    assert RandomVariable.from_values(space, [0] * 8).denominator == 1
    assert RandomVariable(space, (0,) * 8, 7).denominator == 1
    f = rv(3, ["1/3", 0, 0, 0, 0, 0, 0, "-2/9"])
    assert f.scale(0).denominator == 1
    assert f.scale(0) == RandomVariable.constant(space, 0)


def test_from_values_accepts_what_fraction_accepts():
    f = RandomVariable.from_values(PathSpace(2), [1, Fraction(1, 3), "2/5", 0.25])
    assert f.values == (1, Fraction(1, 3), Fraction(2, 5), Fraction(1, 4))
    assert all(type(v) is Fraction for v in f.values)
    assert f.denominator == 60


def test_from_values_is_in_lowest_terms_over_the_lcm_seeded():
    # from_values skips the gcd pass; the reducing constructor runs it on
    # the same numerators over the lcm and must find nothing to divide out
    rng = random.Random(20261021)
    for n in (1, 2, 3, 5, 8):
        space = PathSpace(n)
        for _ in range(40):
            dens = rng.sample((1, 2, 3, 4, 6, 9, 12, 25, 49, 60, 97, 128), rng.randint(1, 4))
            values = [Fraction(rng.randint(-30, 30), rng.choice(dens)) for _ in range(space.size)]
            f = RandomVariable.from_values(space, values)
            den = lcm(*(v.denominator for v in values))
            reduced = RandomVariable(space, tuple(v.numerator * (den // v.denominator) for v in values), den)
            assert (f.numerators, f.denominator) == (reduced.numerators, reduced.denominator)
            assert f.values == tuple(values)


def test_variable_rejects_bad_shapes():
    space = PathSpace(2)
    with pytest.raises(ValueError):
        RandomVariable(space, (1, 2, 3))
    with pytest.raises(ValueError):
        RandomVariable.from_values(space, [1, 2, 3, 4, 5])
    for den in (0, -1):
        with pytest.raises(ValueError):
            RandomVariable(space, (1, 2, 3, 4), den)


def test_whole_space_indicator_integrates_to_one():
    for n in (1, 2, 3, 5):
        st = state(n)
        f = RandomVariable.indicator(Event.full(st.space))
        assert integral(st, f) == 1


# -- strategy agreement against the oracle --------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_strategies_match_oracle_exhaustive_small_patterns(n):
    st = state(n)
    size = 1 << n
    rng = random.Random(40 + n)
    for _ in range(60):
        values = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(size)]
        want = integral_double_sum_oracle(n, values)
        f = rv(n, values)
        for strategy in IntegralStrategy:
            assert integral(st, f, strategy) == want


def test_strategies_agree_random_midsize():
    rng = random.Random(77)
    for n in (5, 6, 7, 8):
        st = state(n)
        size = 1 << n
        for _ in range(100):
            support = rng.sample(range(size), rng.randint(1, size))
            values = [Fraction(0)] * size
            for j in support:
                values[j] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))
            f = rv(n, values)
            results = {s: integral(st, f, s) for s in IntegralStrategy}
            assert len(set(results.values())) == 1


def test_named_variables_agree_up_to_sixteen():
    # the definition route runs to its dense cutoff; beyond that the two
    # fast routes must still agree with each other
    rng = random.Random(55)
    for n in range(9, 17):
        st = state(n)
        variables = [
            RandomVariable.ones(st.space),
            RandomVariable.changes(st.space),
            RandomVariable.indicator(Event(st.space, rng.getrandbits(1 << n))),
        ]
        for f in variables:
            trace = integral(st, f, IntegralStrategy.TRACE)
            eigen = integral(st, f, IntegralStrategy.EIGEN)
            assert trace == eigen
            if n <= 10:
                assert integral(st, f, IntegralStrategy.DEFINITION) == trace


def seeded_variables(n: int, rng: random.Random):
    """(kind, variable, its values for the oracle) over a range of level
    structures: many signed rational levels, a sparse support, the two
    count variables (few levels, many ties) and an indicator."""
    space = PathSpace(n)
    size = 1 << n
    # each pool value with its numerator over the pool's common denominator 12
    pool = [(Fraction(a, b), a * (12 // b)) for a in range(-24, 25) for b in (1, 2, 3, 4)]
    drawn = [rng.choice(pool) for _ in range(size)]
    rational = [value for value, _ in drawn]
    yield "rational", RandomVariable(space, tuple(num for _, num in drawn), 12), rational
    sparse = [0] * size
    sparse_nums = [0] * size  # over the common denominator 10 of 1, 2 and 5
    for j in rng.sample(range(size), 64):
        a, b = rng.randint(-9, 9), rng.choice((1, 2, 5))
        sparse[j], sparse_nums[j] = Fraction(a, b), a * (10 // b)
    yield "sparse", RandomVariable(space, tuple(sparse_nums), 10), sparse
    yield "ones", RandomVariable.ones(space), [bin(j).count("1") for j in range(size)]
    yield "changes", RandomVariable.changes(space), changes_table(n)
    bits = [rng.getrandbits(1) for _ in range(size)]
    mask = int("".join(map(str, reversed(bits))), 2)
    yield "indicator", RandomVariable.indicator(Event(space, mask)), bits


@pytest.mark.parametrize("n", (6, 12))
def test_seeded_variables_hold_the_oracle_values(n):
    # the variables built from integer numerators are the ones from_values
    # builds from the values handed to the oracle
    for kind, f, values in seeded_variables(n, random.Random(57 + n)):
        assert f == RandomVariable.from_values(PathSpace(n), values), kind


def test_layered_oracle_matches_double_sum_oracle():
    rng = random.Random(56)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            values = [Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(1 << n)]
            assert layered_integral_oracle(n, values) == integral_double_sum_oracle(n, values)


@pytest.mark.parametrize("n", (6, 10, 12, 16, 20))
def test_fast_routes_match_layered_oracle(n):
    # TRACE and EIGEN read the same class counts, so their agreement alone
    # proves nothing; each must match the oracle
    st = state(n)
    for kind, f, values in seeded_variables(n, random.Random(57 + n)):
        want = layered_integral_oracle(n, values)
        for strategy in (IntegralStrategy.TRACE, IntegralStrategy.EIGEN):
            assert integral(st, f, strategy) == want, (kind, strategy)


@pytest.mark.parametrize("n", (6, 8, 10, 12))
def test_definition_route_matches_layered_oracle(n):
    # the double sum is the reference for the fast routes, so it is checked
    # against the oracle on its own, up to its dense cutoff
    st = state(n)
    for kind, f, values in seeded_variables(n, random.Random(59 + n)):
        want = layered_integral_oracle(n, values)
        assert integral(st, f, IntegralStrategy.DEFINITION) == want, kind


# -- the definition route against the literal double sum -------------------------


def definition(n: int, values) -> Fraction:
    return integral(state(n), rv(n, values), IntegralStrategy.DEFINITION)


@pytest.mark.parametrize("n,pool", ((1, (-1, 0, 1, 2)), (2, (-1, 0, 1, 2)), (3, (0, 1, 2))))
def test_definition_on_every_small_pattern(n, pool):
    for values in product(pool, repeat=1 << n):
        assert definition(n, values) == integral_double_sum_oracle(n, values), values


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_definition_on_heavily_tied_variables(n):
    # a few levels over many paths: each value's paths fall in both classes
    # of both sites, so every weight is a difference of large counts
    rng = random.Random(70 + n)
    for _ in range(12):
        levels = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(rng.randint(1, 4))]
        values = [rng.choice(levels) for _ in range(1 << n)]
        assert definition(n, values) == integral_double_sum_oracle(n, values), values


def paths_by_site_class(n: int) -> dict[tuple[int, int], list[int]]:
    """The paths of each end site p and class (0 for residue p, 1 for p + 2),
    by string-scanned change counts."""
    out: dict[tuple[int, int], list[int]] = {(p, c): [] for p in (0, 1) for c in (0, 1)}
    for j, changes in enumerate(changes_table(n)):
        out[changes % 2, changes % 4 // 2].append(j)
    return out


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_definition_when_a_weight_cancels(n):
    # one value on as many paths of class p as of class p + 2 on a site:
    # its pairs within the classes and across them cancel exactly, and it
    # still meets the other values of the site
    rng = random.Random(80 + n)
    classes = paths_by_site_class(n)
    for site in (0, 1):
        low, high = classes[site, 0], classes[site, 1]
        assert low and high  # from n = 3 on, every class holds a path
        for count in sorted({1, min(len(low), len(high))}):
            for tied in (Fraction(10), Fraction(-25, 2)):  # outside the other values
                values = [Fraction(rng.randint(-6, 6), rng.choice((1, 3))) for _ in range(1 << n)]
                for j in rng.sample(low, count) + rng.sample(high, count):
                    values[j] = tied
                assert values.count(tied) == 2 * count  # so its weight is 0
                assert definition(n, values) == integral_double_sum_oracle(n, values), (site, count)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_definition_on_distinct_values(n):
    rng = random.Random(90 + n)
    for _ in range(10):
        values = [Fraction(v, 7) for v in rng.sample(range(-200, 200), 1 << n)]
        assert definition(n, values) == integral_double_sum_oracle(n, values)


@pytest.mark.parametrize("n", (1, 2, 4, 6))
def test_definition_on_only_negative_values(n):
    rng = random.Random(95 + n)
    for _ in range(6):
        values = [Fraction(-rng.randint(1, 5), rng.choice((1, 2))) for _ in range(1 << n)]
        want = integral_double_sum_oracle(n, values)
        assert want < 0
        assert definition(n, values) == want


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_definition_on_a_single_nonzero_path(n):
    # the diagonal term alone: v / 2**n
    for j in range(1 << n):
        for v in (Fraction(3, 2), -2):
            values = [0] * (1 << n)
            values[j] = v
            assert definition(n, values) == integral_double_sum_oracle(n, values) == v / (1 << n)


@pytest.mark.parametrize("n", (1, 2, 3, 6))
def test_definition_on_all_zero_variable(n):
    assert definition(n, [0] * (1 << n)) == 0 == integral_double_sum_oracle(n, [0] * (1 << n))


def test_definition_is_independent_of_the_census_routes(monkeypatch):
    # DEFINITION is the reference for TRACE and EIGEN, so it must give the
    # literal double sum without the class counts, levels or residue-class
    # layout they read
    def refuse(*args):
        raise AssertionError("the definition route used a census-route helper")

    for name in ("_class_counts", "_levels", "_trace", "_eigen", "_class_segments"):
        monkeypatch.setattr(qintegral, name, refuse)
    for name in ("_class_segments", "_layout", "_segments"):
        monkeypatch.setattr(paths, name, refuse)
    rng = random.Random(4545)
    for n in range(1, 9):
        if n >= 6:  # seeded_variables draws a sparse support of 64 paths
            cases = [(f, values) for _, f, values in seeded_variables(n, rng)]
        else:
            cases = []
            for _ in range(4):
                values = [Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(1 << n)]
                cases.append((rv(n, values), values))
        st = state(n)
        for f, values in cases:
            want = integral_double_sum_oracle(n, values)
            assert integral(st, f, IntegralStrategy.DEFINITION) == want, (n, values)


def test_class_counts_are_string_scanned_censuses():
    # per end site p, each nonzero numerator's paths at residue p less its
    # paths at residue p + 2: no zero level and no zero weight, every
    # residue on the site its parity names; on both sides of the block
    # width, with sparse, all-zero, negative and beyond-machine-word values
    rng = random.Random(61)
    big = 1 << 64

    def sparse(size):
        vals = [0] * size
        for j in rng.sample(range(size), min(40, size)):
            vals[j] = rng.randint(-9, 9)
        return tuple(vals)

    kinds = (
        lambda size: tuple(rng.choice((0, 0, -2, 1, 3)) for _ in range(size)),
        sparse,
        lambda size: (0,) * size,
        lambda size: tuple(rng.choice((0, -big - 1, big + 3, 5 * big, 1)) for _ in range(size)),
    )
    cancelled = 0
    for n in (1, 2, 5, 9, 11, 12, 13, 14, 16):
        residues = [changes % 4 for changes in changes_table(n)]
        for kind in kinds:
            for _ in range(10 if n < 11 else 2):
                vals = kind(1 << n)
                signed = ({}, {})
                for j, (v, r) in enumerate(zip(vals, residues)):
                    assert r & 1 == j & 1
                    if v:
                        site = signed[r & 1]
                        site[v] = site.get(v, 0) + (1 if r < 2 else -1)
                want = tuple({v: w for v, w in site.items() if w} for site in signed)
                cancelled += sum(map(len, signed)) - sum(map(len, want))
                assert qintegral._class_counts(vals, n) == want, (n, vals[:8])
    assert cancelled  # some values' two residue counts cancel


# -- class counts of the count variables from their step structure ---------------


@pytest.mark.parametrize("n", range(1, 17))
def test_count_variables_class_counts_match_counted(n):
    # the ones counter's sweep and the binomial closed form give what a
    # count over the 2**n numerators gives
    space = PathSpace(n)
    for make, counts_at in (
        (RandomVariable.ones, qintegral._ones_class_counts),
        (RandomVariable.changes, qintegral._changes_class_counts),
    ):
        f = make(space)
        assert f._class_counts_at is counts_at
        assert counts_at(n) == qintegral._class_counts(f.numerators, n), make.__name__


def test_count_variables_are_plain_values():
    # the recorded structure is outside equality, hashing and repr
    for n in (1, 4, 9):
        space = PathSpace(n)
        for f in (RandomVariable.ones(space), RandomVariable.changes(space)):
            plain = RandomVariable.from_values(space, f.values)
            assert plain._class_counts_at is None
            assert f == plain and hash(f) == hash(plain) and repr(f) == repr(plain)
            back = pickle.loads(pickle.dumps(f))
            assert back == f and back._class_counts_at is f._class_counts_at


def test_derived_variables_count_their_numerators(monkeypatch):
    calls = []
    counted = qintegral._class_counts

    def spy(vals, n):
        calls.append(vals)
        return counted(vals, n)

    monkeypatch.setattr(qintegral, "_class_counts", spy)
    st = state(6)
    ones, changes = RandomVariable.ones(st.space), RandomVariable.changes(st.space)
    for f in (ones, changes):
        for strategy in (IntegralStrategy.TRACE, IntegralStrategy.EIGEN):
            integral(st, f, strategy)
    assert calls == []
    derived = [
        ones + changes,
        ones.scale(3),
        changes.scale(1),
        dataclasses.replace(ones),
        dataclasses.replace(changes, numerators=ones.numerators),
    ]
    for f in derived:
        assert f._class_counts_at is None
        want = layered_integral_oracle(6, f.values)
        for strategy in (IntegralStrategy.TRACE, IntegralStrategy.EIGEN):
            calls.clear()
            assert integral(st, f, strategy) == want
            assert calls == [f.numerators]


def all_routes(n: int, values) -> dict:
    st = state(n)
    f = rv(n, values)
    return {s: integral(st, f, s) for s in IntegralStrategy}


def test_routes_at_n1_with_two_empty_classes():
    # at n = 1 path 0 has residue 0 and path 1 residue 1: classes 2 and 3
    # are empty, and each site holds one path
    for pair in product(range(-3, 4), (-2, -1, 0, 1, 2)):
        want = layered_integral_oracle(1, pair)
        assert set(all_routes(1, pair).values()) == {want}, pair


@pytest.mark.parametrize("n", (1, 2, 5, 10))
def test_routes_on_all_zero_variable(n):
    assert set(all_routes(n, [0] * (1 << n)).values()) == {0}


@pytest.mark.parametrize("n", (2, 3, 6, 10))
def test_routes_on_only_negative_variable(n):
    rng = random.Random(62 + n)
    values = [Fraction(-rng.randint(1, 9), rng.choice((1, 2))) for _ in range(1 << n)]
    want = layered_integral_oracle(n, values)
    assert want < 0
    assert set(all_routes(n, values).values()) == {want}
    # and with most paths at zero
    values = [v if rng.random() < 0.2 else 0 for v in values]
    assert set(all_routes(n, values).values()) == {layered_integral_oracle(n, values)}


@pytest.mark.parametrize("n", (1, 2, 4, 7, 10))
@pytest.mark.parametrize("site", (0, 1))
def test_routes_on_one_end_site(n, site):
    rng = random.Random(64 + 2 * n + site)
    values = [
        Fraction(rng.randint(-6, 6), rng.choice((1, 3))) if j & 1 == site else 0
        for j in range(1 << n)
    ]
    assert set(all_routes(n, values).values()) == {layered_integral_oracle(n, values)}


@pytest.mark.parametrize("n", (2, 3, 6, 10))
def test_routes_on_equal_values_across_classes(n):
    # one value on paths of every residue class, then the same value on
    # one path of each class only: ties meet across classes and sites
    residues = [changes % 4 for changes in changes_table(n)]
    for value in (Fraction(5, 2), -3):
        values = [value] * (1 << n)
        assert set(all_routes(n, values).values()) == {layered_integral_oracle(n, values)}
        values = [0] * (1 << n)
        for r in range(4):
            if r in residues:
                values[residues.index(r)] = value
        assert set(all_routes(n, values).values()) == {layered_integral_oracle(n, values)}
        # the same value on every path of residues 0 and 1, its negation on 2 and 3
        values = [value if r < 2 else -value for r in residues]
        assert set(all_routes(n, values).values()) == {layered_integral_oracle(n, values)}


@pytest.mark.parametrize("n", (16, 20))
def test_indicator_integral_is_measure_large_n(n):
    st = state(n)
    size = 1 << n
    rng = random.Random(58 + n)
    masks = [rng.getrandbits(size), 1 << rng.randrange(size), (1 << size) - 1]
    masks.append(sum(1 << j for j in rng.sample(range(size), 40)))
    for mask in masks:
        ev = Event(st.space, mask)
        f = RandomVariable.indicator(ev)
        want = mu(st, ev).as_fraction()
        assert integral(st, f, IntegralStrategy.TRACE) == want
        assert integral(st, f, IntegralStrategy.EIGEN) == want


def test_definition_route_cap():
    # charged d**2 per part for its d distinct values, not 4**n: the count
    # variables run past n = 12, and an all-distinct positive variable at
    # n = 13, 4096 values on each site, is refused at 2 * 4096**2 units
    st = state(13)
    for make in (RandomVariable.ones, RandomVariable.changes):
        f = make(st.space)
        assert integral(st, f, IntegralStrategy.DEFINITION) == integral(st, f)
    values = random.Random(1713).sample(range(1, 1 << 20), 1 << 13)
    distinct = RandomVariable(st.space, tuple(values))
    units = 2 * 4096**2
    assert units > BUDGET
    with pytest.raises(ResourceLimitError, match=f"costs {units} units, over the budget of {BUDGET}"):
        integral(st, distinct, IntegralStrategy.DEFINITION)


def test_integral_space_mismatch():
    with pytest.raises(ValueError):
        integral(state(3), RandomVariable.ones(PathSpace(2)))


# -- linearity properties ----------------------------------------------------------


def test_homogeneity_both_signs():
    rng = random.Random(13)
    st = state(5)
    for _ in range(50):
        values = [Fraction(rng.randint(-5, 5), rng.choice((1, 3))) for _ in range(32)]
        f = rv(5, values)
        base = integral(st, f)
        for alpha in (2, -1, Fraction(7, 2), Fraction(-5, 3), 0):
            assert integral(st, f.scale(alpha)) == Fraction(alpha) * base


def test_nonnegative_integral_for_nonnegative_variable():
    rng = random.Random(14)
    for n in (2, 4, 6):
        st = state(n)
        for _ in range(50):
            values = [Fraction(rng.randint(0, 6)) for _ in range(1 << n)]
            assert integral(st, rv(n, values)) >= 0


# -- min matrix ----------------------------------------------------------------------


def cofactor_det(matrix):
    """Third determinant route for tiny matrices: Laplace expansion."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Fraction(0)
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        term = matrix[0][col] * cofactor_det(minor)
        total += term if col % 2 == 0 else -term
    return total


def test_min_matrix_det_random_with_cofactor_oracle():
    rng = random.Random(15)
    for _ in range(60):
        values = sorted(
            Fraction(rng.randint(0, 9), rng.choice((1, 2, 3)))
            for _ in range(rng.randint(1, 5))
        )
        assert min_matrix_det_check(values)
        matrix = [[min(a, b) for b in values] for a in values]
        telescoped = values[0]
        for a, b in zip(values, values[1:]):
            telescoped *= b - a
        assert cofactor_det(matrix) == telescoped


def test_exact_determinant_matches_cofactor_expansion():
    # seeded integer matrices of sizes 1-6 with negative entries, singular
    # ones (a repeated row, a zero column) and ones whose leading pivot is
    # zero, so that elimination has to swap rows
    rng = random.Random(2502)
    shapes = set()
    for _ in range(300):
        size = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        shape = rng.randrange(4)
        if shape == 1 and size > 1:
            matrix[rng.randrange(1, size)] = matrix[0][:]
        elif shape == 2:
            col = rng.randrange(size)
            for row in matrix:
                row[col] = 0
        elif shape == 3 and size > 1:
            matrix[0][0] = 0
        det = qintegral._exact_determinant(matrix)
        assert isinstance(det, int)
        assert det == cofactor_det(matrix), matrix
        shapes.add((shape, det == 0))
    assert {(0, False), (1, True), (2, True), (3, False)} <= shapes
    assert qintegral._exact_determinant([[0, 2], [3, 4]]) == -6
    assert qintegral._exact_determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_min_matrix_det_mixed_denominators(monkeypatch):
    rng = random.Random(2503)
    for _ in range(60):
        values = sorted(
            Fraction(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(rng.randint(1, 7))
        )
        assert min_matrix_det_check(values)
        matrix = [[min(a, b) for b in values] for a in values]
        telescoped = values[0]
        for a, b in zip(values, values[1:]):
            telescoped *= b - a
        assert cofactor_det(matrix) == telescoped
    # the telescoped side is compared with the elimination, not with itself
    real_det = qintegral._exact_determinant
    monkeypatch.setattr(qintegral, "_exact_determinant", lambda m: real_det(m) + 1)
    assert not min_matrix_det_check([Fraction(1, 2), Fraction(4, 3), Fraction(5, 2)])


def test_min_matrix_det_validation():
    with pytest.raises(ValueError):
        min_matrix_det_check([-1, 2])
    with pytest.raises(ValueError):
        min_matrix_det_check([2, 1])
    with pytest.raises(ValueError):
        min_matrix_det_check([])
    # charged 16 units per Fraction step, m**3 of them: 101 values run, 102 do not
    assert min_matrix_det_check(list(range(1, 12)))
    assert min_matrix_det_check(list(range(101)))
    assert 16 * 101**3 <= BUDGET < 16 * 102**3
    with pytest.raises(ResourceLimitError, match=f"costs {16 * 102**3} units"):
        min_matrix_det_check(list(range(102)))


def test_min_matrix_det_is_charged_before_any_value_is_converted():
    # 300 values that Fraction refuses are refused for their number, 3 for
    # their form
    with pytest.raises(ResourceLimitError, match=f"costs {16 * 300**3} units"):
        min_matrix_det_check(["x"] * 300)
    with pytest.raises(ValueError):
        min_matrix_det_check(["x"] * 3)
    # values that are neither ints nor Fractions are converted as Fraction() does
    assert min_matrix_det_check(iter(["1/2", 1.5, Decimal("2.5")]))


def test_psd_check_families():
    for n in (1, 2, 3):
        space = PathSpace(n)
        assert psd_check(RandomVariable.constant(space, 7))
        assert psd_check(RandomVariable.ones(space))
        assert psd_check(RandomVariable.changes(space))
    rng = random.Random(16)
    for n in (4, 6, 8):
        space = PathSpace(n)
        for _ in range(30):
            values = [Fraction(rng.randint(0, 30), rng.choice((1, 2))) for _ in range(1 << n)]
            assert psd_check(RandomVariable.from_values(space, values))
    # distinct values exercise the all-nonzero-minor path
    space = PathSpace(3)
    assert psd_check(RandomVariable.from_values(space, [1, 3, 2, 7, 5, 8, 6, 4]))


def test_psd_check_validation():
    space = PathSpace(2)
    with pytest.raises(ValueError):
        psd_check(RandomVariable.from_values(space, [1, -1, 0, 0]))
    with pytest.raises(ResourceLimitError):
        psd_check(RandomVariable.ones(PathSpace(13)))


def test_min_matrix_entry_split():
    f = rv(2, [3, -2, 0, 1])
    assert min_matrix_entry(f, 0, 3) == 1  # min(3, 1)
    assert min_matrix_entry(f, 0, 1) == 0  # positive against negative
    assert min_matrix_entry(f, 1, 1) == -2  # -min(2, 2)
    assert min_matrix_entry(f, 2, 1) == 0


# -- disjoint-support identities --------------------------------------------------------


def disjoint_triple(rng, n: int, denominators=(1,)):
    """Three seeded variables with disjoint supports, values in -6..6 over
    the given denominators, so that value keys repeat."""
    size = 1 << n
    owner = [rng.randrange(3) for _ in range(size)]
    return [
        rv(n, [
            Fraction(rng.randint(-6, 6), rng.choice(denominators)) if owner[j] == part else 0
            for j in range(size)
        ])
        for part in range(3)
    ]


def seven_variables(f, g, h):
    return [f + g + h, f + g, f + h, g + h, f, g, h]


def value_keys(f, g, h):
    """The distinct (f_j, g_j, h_j), first seen first, and for each path
    the position of its key."""
    keys = {}
    position = [keys.setdefault(key, len(keys)) for key in zip(f.values, g.values, h.values)]
    return list(keys), position


def test_disjoint_support_rows_match_min_matrix_entries(monkeypatch):
    # every row the entrywise identity compares is the min-matrix row, over
    # the distinct value keys, of one of its seven variables; check each
    # against the entry oracle at the first path of each key, and that all
    # seven rows of every key are compared
    built = []

    def recording_row(vec, i):
        row = real_row(vec, i)
        built.append((list(vec), i, row))
        return row

    real_row = qintegral._min_hat_row
    monkeypatch.setattr(qintegral, "_min_hat_row", recording_row)
    rng = random.Random(19)
    signs, repeats = set(), set()
    for n in (2, 4, 6):
        st = state(n)
        for denominators in ((1,), (1, 2), (1, 2, 3)):
            f, g, h = disjoint_triple(rng, n, denominators)
            built.clear()
            assert disjoint_support_grade2_check(st, f, g, h)
            keys, position = value_keys(f, g, h)
            first = [position.index(k) for k in range(len(keys))]
            repeats.add(len(keys) < st.space.size)
            den = lcm(f.denominator, g.denominator, h.denominator)
            seven = seven_variables(f, g, h)
            by_vector = {}
            for var in seven:
                values = var.values
                by_vector.setdefault(tuple(values[p] * den for p in first), var)
            compared = set()
            for vec, i, row in built:
                var = by_vector[tuple(vec)]
                assert row == [min_matrix_entry(var, first[i], p) * den for p in first]
                compared.add((tuple(vec), i))
                signs.add((vec[i] > 0) - (vec[i] < 0))
            assert compared == {(vec, i) for vec in by_vector for i in range(len(keys))}
            assert len(built) == 7 * len(keys)
            # every pair of paths has the entries of its pair of keys
            for var in seven:
                for i in range(st.space.size):
                    for j in range(st.space.size):
                        assert min_matrix_entry(var, i, j) == min_matrix_entry(
                            var, first[position[i]], first[position[j]]
                        )
    assert signs == {-1, 0, 1}
    assert repeats == {False, True}


def test_disjoint_support_compares_every_key_pair(monkeypatch):
    # one corrupted entry at any pair of key positions must fail the check
    real_row = qintegral._min_hat_row
    st = state(4)
    f, g, h = disjoint_triple(random.Random(2504), 4)
    keys, _ = value_keys(f, g, h)
    assert 4 <= len(keys) < st.space.size
    assert disjoint_support_grade2_check(st, f, g, h)
    for p, q in product(range(len(keys)), repeat=2):

        def corrupted_row(vec, i):
            row = real_row(vec, i)
            if i == p and len(built) % 7 == 0:
                row[q] += 1
            built.append(i)
            return row

        built = []
        monkeypatch.setattr(qintegral, "_min_hat_row", corrupted_row)
        assert not disjoint_support_grade2_check(st, f, g, h), (p, q)


def test_disjoint_support_with_zero_function():
    st = state(3)
    f = rv(3, [1, 0, 0, 0, 0, 0, 0, 0])
    g = rv(3, [0, 0, 2, 0, 0, 0, 0, 0])
    h = rv(3, [0] * 8)
    assert disjoint_support_grade2_check(st, f, g, h)


def test_disjoint_support_indicator_multiples():
    st = state(3)
    f = rv(3, [2, 0, 0, 0, 0, 0, 0, 0])
    g = rv(3, [0, 0, 3, 0, 0, 0, 0, 0])
    h = rv(3, [0, 0, 0, 0, 0, 5, 0, 0])
    assert disjoint_support_grade2_check(st, f, g, h)


def test_disjoint_support_rejects_overlap():
    st = state(2)
    f = rv(2, [1, 0, 0, 0])
    g = rv(2, [1, 1, 0, 0])
    h = rv(2, [0, 0, 0, 1])
    with pytest.raises(ValueError):
        disjoint_support_grade2_check(st, f, g, h)


# -- nonadditivity -----------------------------------------------------------------------


def witness_oracle(n: int):
    """First lexicographic pattern pair with a nonzero gap, via the
    independent Fraction double-sum integral."""
    size = 1 << n
    for f_pattern in product(range(3), repeat=4):
        f_values = list(f_pattern) + [0] * (size - 4)
        int_f = integral_double_sum_oracle(n, f_values)
        for g_pattern in product(range(3), repeat=4):
            g_values = list(g_pattern) + [0] * (size - 4)
            total = [a + b for a, b in zip(f_values, g_values)]
            gap = (
                integral_double_sum_oracle(n, total)
                - int_f
                - integral_double_sum_oracle(n, g_values)
            )
            if gap != 0:
                return f_pattern, g_pattern, gap
    raise AssertionError("oracle found no witness")


def test_witness_matches_oracle_n2():
    st = state(2)
    f, g, gap = nonadditivity_witness(st)
    of, og, ogap = witness_oracle(2)
    assert tuple(f.values[:4]) == tuple(map(Fraction, of))
    assert tuple(g.values[:4]) == tuple(map(Fraction, og))
    assert gap == ogap != 0


def test_witness_reports_true_gap():
    for n in (2, 3, 5):
        st = state(n)
        f, g, gap = nonadditivity_witness(st)
        assert gap != 0
        assert integral(st, f + g) - integral(st, f) - integral(st, g) == gap
        # the search pattern sits on paths 0..3, and every later path is 0
        assert f.numerators[4:] == g.numerators[4:] == (0,) * (st.space.size - 4)


def test_witness_needs_two_steps():
    with pytest.raises(ValueError):
        nonadditivity_witness(state(1))


def test_doubled_full_indicator_is_additive():
    # the pair (whole-space indicator, itself) satisfies additivity, so the
    # witness search must return something else
    st = state(2)
    chi = RandomVariable.indicator(Event.full(st.space))
    assert integral(st, chi + chi) == 2 * integral(st, chi)
    f, g, _ = nonadditivity_witness(st)
    assert (f.values, g.values) != (chi.values, chi.values)
