import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import changes_table, entry_sign_oracle, layered_integral_oracle

from qwalk import qintegral
from qwalk.decoherence import DecoherenceState, Event
from qwalk.errors import ResourceLimitError
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


def integral_oracle_simple(n: int, values) -> Fraction:
    """Fully independent route: Fraction double sum with string-scan signs,
    through the canonical positive/negative split."""
    values = [Fraction(v) for v in values]
    pos = [v if v > 0 else Fraction(0) for v in values]
    neg = [-v if v < 0 else Fraction(0) for v in values]

    def double_sum(part):
        acc = Fraction(0)
        for i, vi in enumerate(part):
            for j, vj in enumerate(part):
                sign = entry_sign_oracle(n, i, j)
                if sign:
                    acc += min(vi, vj) * sign
        return acc

    return (double_sum(pos) - double_sum(neg)) / (1 << n)


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


def test_variable_split_canonical():
    f = rv(2, [3, -2, 0, "1/2"])
    pos, neg = f.split()
    assert pos.values == (3, 0, 0, Fraction(1, 2))
    assert neg.values == (0, 2, 0, 0)
    for p, m in zip(pos.values, neg.values):
        assert p >= 0 and m >= 0 and p * m == 0


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


def test_variable_rejects_bad_shapes():
    space = PathSpace(2)
    with pytest.raises(ValueError):
        RandomVariable(space, (1, 2, 3))
    with pytest.raises(ValueError):
        RandomVariable.from_values(space, [1, 2, 3, 4, 5])
    for den in (0, -1):
        with pytest.raises(ValueError):
            RandomVariable(space, (1, 2, 3, 4), den)


# -- the published integral table ----------------------------------------------


PUBLISHED = {
    ("ones", 1): Fraction(1, 2),
    ("ones", 2): Fraction(3, 2),
    ("ones", 3): Fraction(2),
    ("changes", 1): Fraction(1, 2),
    ("changes", 2): Fraction(3, 2),
    ("changes", 3): Fraction(3),
}


@pytest.mark.parametrize("which,n", list(PUBLISHED))
@pytest.mark.parametrize("strategy", list(IntegralStrategy))
def test_published_integrals(which, n, strategy):
    st = state(n)
    f = RandomVariable.ones(st.space) if which == "ones" else RandomVariable.changes(st.space)
    assert integral(st, f, strategy) == PUBLISHED[which, n]


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
        want = integral_oracle_simple(n, values)
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
    pool = [Fraction(a, b) for a in range(-24, 25) for b in (1, 2, 3, 4)]
    rational = [rng.choice(pool) for _ in range(size)]
    yield "rational", RandomVariable.from_values(space, rational), rational
    sparse = [0] * size
    for j in rng.sample(range(size), 64):
        sparse[j] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
    yield "sparse", RandomVariable.from_values(space, sparse), sparse
    yield "ones", RandomVariable.ones(space), [bin(j).count("1") for j in range(size)]
    yield "changes", RandomVariable.changes(space), changes_table(n)
    bits = [rng.getrandbits(1) for _ in range(size)]
    mask = int("".join(map(str, reversed(bits))), 2)
    yield "indicator", RandomVariable.indicator(Event(space, mask)), bits


def test_layered_oracle_matches_double_sum_oracle():
    rng = random.Random(56)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            values = [Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(1 << n)]
            assert layered_integral_oracle(n, values) == integral_oracle_simple(n, values)


@pytest.mark.parametrize("n", (12, 16, 20))
def test_fast_routes_match_layered_oracle(n):
    # past the definition cutoff TRACE and EIGEN read the same census, so
    # their agreement alone proves nothing; each must match the oracle
    st = state(n)
    for kind, f, values in seeded_variables(n, random.Random(57 + n)):
        want = layered_integral_oracle(n, values)
        for strategy in (IntegralStrategy.TRACE, IntegralStrategy.EIGEN):
            assert integral(st, f, strategy) == want, (kind, strategy)


@pytest.mark.parametrize("n", (8, 10, 12))
def test_definition_route_matches_layered_oracle(n):
    # the double sum is the reference for the fast routes, so it is checked
    # against the oracle on its own, up to its dense cutoff
    st = state(n)
    for kind, f, values in seeded_variables(n, random.Random(59 + n)):
        want = layered_integral_oracle(n, values)
        assert integral(st, f, IntegralStrategy.DEFINITION) == want, kind


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
    st = state(13)
    ones = RandomVariable.ones(st.space)
    with pytest.raises(ResourceLimitError):
        integral(st, ones, IntegralStrategy.DEFINITION)


def test_integral_space_mismatch():
    with pytest.raises(ValueError):
        integral(state(3), RandomVariable.ones(PathSpace(2)))


# -- linearity properties ----------------------------------------------------------


def test_indicator_measures_exhaustive():
    for n in (1, 2, 3, 4):
        st = state(n)
        size = 1 << n
        for mask in range(1 << size):
            ev = Event(st.space, mask)
            f = RandomVariable.indicator(ev)
            want = mu(st, ev).as_fraction()
            assert integral(st, f) == want
            assert integral(st, f, IntegralStrategy.EIGEN) == want


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


def test_min_matrix_det_published_shapes():
    assert min_matrix_det_check([Fraction(4, 3)])
    assert min_matrix_det_check([Fraction(1, 2), Fraction(7, 2)])
    assert min_matrix_det_check([1, 2, 2, 5])
    values = [Fraction(1), Fraction(2), Fraction(2), Fraction(5)]
    matrix = [[min(a, b) for b in values] for a in values]
    assert cofactor_det(matrix) == 0
    telescoped = values[0] * (values[1] - values[0]) * (values[2] - values[1]) * (values[3] - values[2])
    assert telescoped == 0


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


def test_min_matrix_det_validation():
    with pytest.raises(ValueError):
        min_matrix_det_check([-1, 2])
    with pytest.raises(ValueError):
        min_matrix_det_check([2, 1])
    with pytest.raises(ValueError):
        min_matrix_det_check([])
    with pytest.raises(ResourceLimitError):
        min_matrix_det_check(list(range(11)))


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


def test_indicator_min_matrix_is_outer_product():
    rng = random.Random(17)
    for n in (2, 3):
        space = PathSpace(n)
        size = 1 << n
        for _ in range(20):
            ev = Event(space, rng.getrandbits(size))
            f = RandomVariable.indicator(ev)
            for i in range(size):
                for j in range(size):
                    assert min_matrix_entry(f, i, j) == f.values[i] * f.values[j]


# -- disjoint-support identities --------------------------------------------------------


def test_disjoint_support_identities_random():
    rng = random.Random(18)
    for trial in range(100):
        n = rng.randint(2, 6)
        st = state(n)
        size = 1 << n
        order = list(range(size))
        rng.shuffle(order)
        thirds = [order[: size // 3], order[size // 3 : 2 * size // 3], order[2 * size // 3 :]]
        variables = []
        for part in thirds:
            values = [Fraction(0)] * size
            for j in part:
                if rng.random() < 0.7:
                    values[j] = Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
            variables.append(rv(n, values))
        assert disjoint_support_grade2_check(st, *variables)


def test_disjoint_support_rows_match_min_matrix_entries(monkeypatch):
    # every row the entrywise identity compares is the min-matrix row of
    # one of its seven vectors; check each against the entry oracle
    built = []

    def recording_row(vec, i):
        row = real_row(vec, i)
        built.append((tuple(vec), i, row))
        return row

    real_row = qintegral._min_hat_row
    monkeypatch.setattr(qintegral, "_min_hat_row", recording_row)
    rng = random.Random(19)
    for n in (2, 4, 6):
        st = state(n)
        size = 1 << n
        for _ in range(3):
            owner = [rng.randrange(3) for _ in range(size)]
            variables = [
                rv(n, [rng.randint(-6, 6) if owner[j] == part else 0 for j in range(size)])
                for part in range(3)
            ]
            assert disjoint_support_grade2_check(st, *variables)
    signs = set()
    for vec, i, row in built:
        f = RandomVariable(PathSpace(len(vec).bit_length() - 1), vec)
        assert f.numerators == vec
        assert row == [min_matrix_entry(f, i, j) for j in range(len(vec))]
        signs.add((vec[i] > 0) - (vec[i] < 0))
    assert signs == {-1, 0, 1}


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
        int_f = integral_oracle_simple(n, f_values)
        for g_pattern in product(range(3), repeat=4):
            g_values = list(g_pattern) + [0] * (size - 4)
            total = [a + b for a, b in zip(f_values, g_values)]
            gap = (
                integral_oracle_simple(n, total)
                - int_f
                - integral_oracle_simple(n, g_values)
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


def test_witness_deterministic():
    st = state(3)
    assert nonadditivity_witness(st) == nonadditivity_witness(st)


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
