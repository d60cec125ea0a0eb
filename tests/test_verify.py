"""The reproduction suite's checks keep their inputs and catch faults.

Mutation tests corrupt one value a check compares and require the check to
fail and to name where.  Replay tests rebuild the seeded random variables
of the integral checks from their rng streams, each value as a Fraction
through ``RandomVariable.from_values``, and require the variables each
check actually integrates to be equal, in the same order.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qwalk import verify
from qwalk.decoherence import DecoherenceState
from qwalk.exact import Dyadic
from qwalk.paths import PathSpace
from qwalk.qintegral import IntegralStrategy, RandomVariable


@pytest.mark.parametrize("n, j, k", [(5, 3, 17), (5, 31, 31), (8, 0, 0), (8, 255, 253)])
def test_eigen_reconstruction_names_a_flipped_entry(monkeypatch, n, j, k):
    sign = DecoherenceState.entry_sign

    def flipped(self, row, col):
        value = sign(self, row, col)
        return -value if (self.space.n, row, col) == (n, j, k) else value

    monkeypatch.setattr(DecoherenceState, "entry_sign", flipped)
    with pytest.raises(verify.CheckFailure, match=rf"n={n}, \({j},{k}\)$"):
        verify.check_eigen_reconstruction()


@pytest.mark.parametrize("n, j, k", [(1, 0, 1), (5, 20, 7), (8, 255, 254)])
def test_eigen_reconstruction_names_a_nonzero_cross_site_entry(monkeypatch, n, j, k):
    sign = DecoherenceState.entry_sign

    def stray(self, row, col):
        return 1 if (self.space.n, row, col) == (n, j, k) else sign(self, row, col)

    monkeypatch.setattr(DecoherenceState, "entry_sign", stray)
    with pytest.raises(verify.CheckFailure, match=rf"n={n}, \({j},{k}\)$"):
        verify.check_eigen_reconstruction()


def test_eigen_reconstruction_reads_every_entry_and_one_row_per_column(monkeypatch):
    # all 4**n entry signs are read at each n, and a row is built once per
    # distinct eigen-column, which is fixed by the path's change residue
    sign = DecoherenceState.entry_sign
    reads = Counter()

    def counted(self, row, col):
        reads[self.space.n] += 1
        return sign(self, row, col)

    outer_row = verify._outer_row
    built: dict[int, list] = {}

    def recorded(column, columns):
        built.setdefault(len(columns).bit_length() - 1, []).append(column)
        return outer_row(column, columns)

    monkeypatch.setattr(DecoherenceState, "entry_sign", counted)
    monkeypatch.setattr(verify, "_outer_row", recorded)
    verify.check_eigen_reconstruction()
    assert reads == {n: 4**n for n in range(1, 9)}
    assert sorted(built) == list(range(1, 9))
    for n, columns in built.items():
        state = DecoherenceState(PathSpace(n))
        want = {(*a, *b) for a, b in zip(state.eigenvector_exact(0), state.eigenvector_exact(1))}
        assert len(columns) == len(set(columns)) == len(want) <= 8
        assert set(columns) == want


@pytest.mark.parametrize("n, i, j", [(1, 0, 1), (6, 9, 40), (8, 254, 255)])
def test_pair_trichotomy_names_a_value_outside_it(monkeypatch, n, i, j):
    measure = verify.pair_measure

    def corrupted(state, a, b):
        if (state.space.n, a, b) == (n, i, j):
            return Dyadic(3, n)
        return measure(state, a, b)

    monkeypatch.setattr(verify, "pair_measure", corrupted)
    with pytest.raises(verify.CheckFailure, match=rf"n={n}, \({i},{j}\)$"):
        verify.check_pair_trichotomy()


def _recorder(monkeypatch, name):
    """Replace a name the checks call with a wrapper that records its
    arguments and returns what the original returns."""
    calls = []
    original = getattr(verify, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, name, record)
    return calls


def test_integral_strategies_random_replays_its_variables(monkeypatch):
    calls = _recorder(monkeypatch, "integral")
    verify.check_integral_strategies_random()
    rng = random.Random(verify.SEED + 7)
    want = []
    for n in range(1, 9):
        space = PathSpace(n)
        size = 1 << n
        for _ in range(60):
            support = rng.sample(range(size), rng.randint(1, size))
            values = [Fraction(0)] * size
            for j in support:
                values[j] = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
            rv = RandomVariable.from_values(space, values)
            want += [(rv, s) for s in IntegralStrategy]
    assert [(args[1], args[2]) for args in calls] == want


def test_integral_homogeneity_replays_its_variables(monkeypatch):
    calls = _recorder(monkeypatch, "integral")
    verify.check_integral_homogeneity()
    rng = random.Random(verify.SEED + 8)
    want = []
    for n in (2, 4, 6):
        space = PathSpace(n)
        for _ in range(40):
            values = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 3))) for _ in range(1 << n))
            rv = RandomVariable.from_values(space, values)
            want.append(rv)
            want += [rv.scale(alpha) for alpha in (3, -2, Fraction(5, 2), Fraction(-7, 3))]
    assert [args[1] for args in calls] == want


def test_psd_min_matrix_replays_its_variables(monkeypatch):
    calls = _recorder(monkeypatch, "psd_check")
    verify.check_psd_min_matrix()
    want = []
    for n in (1, 2, 3):
        space = PathSpace(n)
        want += [RandomVariable.constant(space, Fraction(5, 3)), RandomVariable.ones(space)]
    rng = random.Random(verify.SEED + 10)
    for n in (4, 6, 8):
        space = PathSpace(n)
        for _ in range(30):
            values = tuple(Fraction(rng.randint(0, 20), rng.choice((1, 2))) for _ in range(space.size))
            want.append(RandomVariable.from_values(space, values))
    assert [args[0] for args in calls] == want


def test_disjoint_support_identities_replays_its_variables(monkeypatch):
    calls = _recorder(monkeypatch, "disjoint_support_grade2_check")
    verify.check_disjoint_support_identities()
    rng = random.Random(verify.SEED + 12)
    want = []
    for _ in range(100):
        n = rng.randint(2, 6)
        space = PathSpace(n)
        size = 1 << n
        order = list(range(size))
        rng.shuffle(order)
        cut1, cut2 = size // 3, 2 * size // 3
        rvs = []
        for part in (order[:cut1], order[cut1:cut2], order[cut2:]):
            values = [Fraction(0)] * size
            for j in part:
                if rng.random() < 0.7:
                    values[j] = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
            rvs.append(RandomVariable.from_values(space, values))
        want.append((n, *rvs))
    assert [(state.space.n, *rvs) for state, *rvs in calls] == want


def test_random_quadratic_closures_fails_when_no_system_needs_closing(monkeypatch):
    # the empty and full sets alone are closed, so no closure step runs
    monkeypatch.setattr(verify, "_closure_seeds", lambda rng, size: {0, (1 << size) - 1})
    with pytest.raises(verify.CheckFailure, match="only 0 of 100 seeded systems needed closing"):
        verify.check_random_quadratic_closures()
