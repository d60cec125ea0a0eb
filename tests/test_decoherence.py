import copy
import pickle
import random
from fractions import Fraction

import pytest

from qwalk.decoherence import (
    DecoherenceState,
    Event,
    VectorMeasureValue,
    _residue_masks,
    psd_by_ldl,
)
from qwalk.errors import BUDGET, ResourceLimitError
from qwalk.exact import Dyadic
from qwalk.paths import PathSpace, change_residue_counts
from qwalk.qmeasure import mu


from oracles import census_of_indices_oracle, changes_oracle, entry_sign_oracle


def state(n: int) -> DecoherenceState:
    return DecoherenceState(PathSpace(n))


def event(n: int, indices) -> Event:
    return Event.from_indices(PathSpace(n), indices)


# -- events -------------------------------------------------------------------


def test_event_construction():
    space = PathSpace(3)
    ev = Event.from_indices(space, [5, 1, 5])
    assert ev.to_tuple() == (1, 5)
    assert ev.cardinality == 2
    assert 5 in ev and 0 not in ev
    assert Event.full(space).cardinality == 8
    assert Event.empty(space).cardinality == 0
    with pytest.raises(ValueError):
        Event.from_indices(space, [8])
    with pytest.raises(ValueError):
        Event(space, 1 << 8)


def test_event_set_operations():
    a = event(3, [0, 1, 2])
    b = event(3, [2, 3])
    assert a.union(b).to_tuple() == (0, 1, 2, 3)
    a_not_b = Event(a.space, a.mask & ~b.mask)
    assert a_not_b.to_tuple() == (0, 1)
    assert a.complement().to_tuple() == (3, 4, 5, 6, 7)
    assert not a.isdisjoint(b)
    assert a_not_b.isdisjoint(b)
    with pytest.raises(ValueError):
        a.union(event(2, [0]))


def test_event_horizon_cap():
    with pytest.raises(ResourceLimitError):
        Event.empty(PathSpace(25))
    with pytest.raises(ResourceLimitError):
        Event(PathSpace(25), 1)
    for mask in (-1, 1 << 8, (1 << 9) - 1):
        with pytest.raises(ValueError):
            Event(PathSpace(3), mask)


def test_value_types_object_protocol():
    # equal spaces built apart give equal events, which hash alike
    a, b = Event(PathSpace(3), 5), Event(PathSpace(3), 5)
    assert a.space is not b.space and a == b and hash(a) == hash(b)
    assert a == Event.from_indices(PathSpace(3), [2, 0]) and len({a, b}) == 1
    assert a != Event(PathSpace(3), 4) and a != Event(PathSpace(4), 5)
    assert a != 5 and a != (PathSpace(3), 5)
    assert repr(a) == "Event(n=3, {0, 2})" and repr(Event.empty(PathSpace(2))) == "Event(n=2, {})"
    v, w = VectorMeasureValue(1, -2, 3), VectorMeasureValue(1, -2, 3)
    assert v == w and hash(v) == hash(w) and len({v, w}) == 1
    assert v != VectorMeasureValue(1, -2, 4) and v != (1, -2, 3)
    assert repr(v) == "VectorMeasureValue(even=1, odd=-2, steps=3)"
    for value, fields in ((a, ("space", "mask")), (v, ("even", "odd", "steps"))):
        with pytest.raises(TypeError):
            value < value  # noqa: B015
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        twins = [copy.copy(value), copy.deepcopy(value)]
        twins += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is type(value) and twin == value
            assert hash(twin) == hash(value) and repr(twin) == repr(value)


# -- entries ------------------------------------------------------------------


PUBLISHED_N2 = [
    [1, 0, -1, 0],
    [0, 1, 0, 1],
    [-1, 0, 1, 0],
    [0, 1, 0, 1],
]


def test_entry_published_n2():
    st = state(2)
    for j in range(4):
        for k in range(4):
            got = st.entry(j, k)
            assert type(got) is Dyadic and got == Dyadic(PUBLISHED_N2[j][k], 2)


def test_entry_diagonal_and_hermitian():
    # the entries are real, so Hermitian means symmetric
    for n in (1, 2, 3, 5):
        st = state(n)
        size = 1 << n
        for j in range(size):
            assert st.entry(j, j) == Dyadic(1, n)
            for k in range(j):
                assert st.entry(j, k) == st.entry(k, j)


@pytest.mark.parametrize("n", range(1, 9))
def test_entry_matches_string_oracle(n):
    st = state(n)
    size = 1 << n
    for j in range(size):
        for k in range(size):
            assert st.entry_sign(j, k) == entry_sign_oracle(n, j, k)


@pytest.mark.parametrize("n", (9, 10))
def test_entry_matches_string_oracle_large(n):
    # one string scan per path, then the exhaustive pair sweep runs in ints
    from oracles import changes_oracle

    st = state(n)
    size = 1 << n
    oracle_changes = [changes_oracle(n, j) for j in range(size)]
    for j in range(size):
        cj = oracle_changes[j]
        row_parity = j & 1
        for k in range(size):
            if (k & 1) != row_parity:
                want = 0
            else:
                want = 1 if (cj - oracle_changes[k]) % 4 == 0 else -1
            assert st.entry_sign(j, k) == want


def test_entry_out_of_range():
    st = state(3)
    with pytest.raises(ValueError):
        st.entry(0, 8)


@pytest.mark.parametrize("n", [20, 40, 63])
def test_entry_sign_matches_string_oracle_seeded(n):
    st = state(n)
    size = 1 << n
    rng = random.Random(800 + n)
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(300)]
    pairs += [(0, 0), (size - 1, size - 1), (0, size - 2), (1, size - 1), (0, size - 1)]
    for j, k in pairs:
        assert st.entry_sign(j, k) == entry_sign_oracle(n, j, k)


@pytest.mark.parametrize("n", [1, 3, 20, 63])
def test_entry_sign_keeps_its_errors(n):
    st = state(n)
    top = (1 << n) - 1
    for pair in [(-1, 0), (0, -1), (top + 1, 0), (0, top + 1), (-1, top + 1), (1 << 70, 1)]:
        with pytest.raises(ValueError):
            st.entry_sign(*pair)


def test_dense_signs_agree_with_oracle():
    for n in (1, 2, 3, 4, 5):
        st = state(n)
        size = 1 << n
        grid = st.dense_signs()
        for j in range(size):
            for k in range(size):
                assert grid[j * size + k] == entry_sign_oracle(n, j, k)
    with pytest.raises(ResourceLimitError):
        state(13).dense_signs()


# -- residue-class masks and the census ---------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_residue_masks_partition_the_space(n):
    masks = _residue_masks(n)
    full = (1 << (1 << n)) - 1
    assert masks[0] | masks[1] | masks[2] | masks[3] == full
    assert sum(m.bit_count() for m in masks) == 1 << n


@pytest.mark.parametrize("n", range(1, 11))
def test_residue_masks_match_string_oracle(n):
    masks = _residue_masks(n)
    for j in range(1 << n):
        r = changes_oracle(n, j) % 4
        assert [(m >> j) & 1 for m in masks] == [int(s == r) for s in range(4)]


def test_residue_mask_popcounts_match_profile():
    for n in range(1, 25):
        assert tuple(m.bit_count() for m in _residue_masks(n)) == change_residue_counts(n)


def test_residue_masks_are_cached():
    for n in (1, 7, 16):
        assert _residue_masks(n) is _residue_masks(n)
    st = state(9)
    ev = Event.full(st.space)
    st.census(ev)
    info = _residue_masks.cache_info()
    # the state holds the masks after its first census: no second lookup
    st.census(ev)
    assert _residue_masks.cache_info() == info
    # a fresh state fetches them from the per-horizon cache, never rebuilds
    state(9).census(ev)
    after = _residue_masks.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)


@pytest.mark.parametrize("n", [16, 20, 24])
def test_census_matches_string_oracle_seeded(n):
    rng = random.Random(5000 + n)
    st = state(n)
    for _ in range(25):
        members = rng.sample(range(1 << n), rng.randint(1, 64))
        assert st.census(event(n, members)) == census_of_indices_oracle(n, members)


def test_census_accepts_an_equal_space_built_apart():
    st = state(7)
    members = [0, 3, 5, 64, 127]
    apart = event(7, members)  # over its own PathSpace(7)
    assert apart.space is not st.space
    assert st.census(apart) == st.census(Event.from_indices(st.space, members))
    assert st.census(apart) == census_of_indices_oracle(7, members)
    assert st.vector_measure(apart) == st.vector_measure(Event(st.space, apart.mask))


@pytest.mark.parametrize("other", [6, 8])
def test_census_rejects_another_horizon(other):
    st = state(7)
    with pytest.raises(ValueError):
        st.census(event(other, [0, 1]))
    st.census(Event.full(st.space))  # after the masks are held, too
    with pytest.raises(ValueError):
        st.census(event(other, [0, 1]))


def test_census_matches_index_loop_dense_n12():
    rng = random.Random(5012)
    st = state(12)
    for _ in range(40):
        ev = Event(st.space, rng.getrandbits(1 << 12))
        counts = [0, 0, 0, 0]
        for j in ev.indices():
            counts[(j ^ (j >> 1)).bit_count() & 3] += 1
        assert st.census(ev) == tuple(counts)


# -- functional ---------------------------------------------------------------


def functional_oracle(n: int, a, b) -> Fraction:
    total = sum(entry_sign_oracle(n, j, k) for j in a for k in b)
    return Fraction(total, 1 << n)


@pytest.mark.parametrize("n", range(1, 7))
def test_functional_matches_oracle_random(n):
    rng = random.Random(1000 + n)
    st = state(n)
    size = 1 << n
    for _ in range(50):
        a = rng.sample(range(size), rng.randint(0, size))
        b = rng.sample(range(size), rng.randint(0, size))
        got = st.functional(event(n, a), event(n, b))
        assert got.as_fraction() == functional_oracle(n, a, b)
        by_entries = st.functional_by_entries(event(n, a), event(n, b))
        assert by_entries == got


def test_functional_values_are_dyadic_and_the_diagonal_is_mu():
    rng = random.Random(20261018)
    for n in range(1, 11):
        st = state(n)
        size = 1 << n
        j, k = rng.randrange(size), rng.randrange(size)
        assert type(st.entry(j, k)) is Dyadic
        for _ in range(20):
            a = Event(st.space, rng.getrandbits(size))
            b = Event(st.space, rng.getrandbits(size))
            diagonal = st.functional(a, a)
            assert type(diagonal) is Dyadic and diagonal == mu(st, a)
            cross = st.functional(a, b)
            inner = st.vector_measure(a).inner(st.vector_measure(b))
            assert type(cross) is Dyadic and type(inner) is Dyadic and inner == cross
        # the literal double sum, once per horizon: quadratic in the event size
        by_entries = st.functional_by_entries(a, a)
        assert type(by_entries) is Dyadic and by_entries == mu(st, a)
        assert type(st.functional_by_entries(a, b)) is Dyadic


def test_functional_space_mismatch():
    with pytest.raises(ValueError):
        state(3).functional(event(2, [0]), event(2, [1]))


def test_entry_total_is_one():
    for n in list(range(1, 21)) + [40, 63]:
        assert DecoherenceState(PathSpace(n)).entry_total() == Dyadic(1)


# -- rank-two factorization ------------------------------------------------


@pytest.mark.parametrize("n", (2, 3, 6, 10))
def test_eigen_equation_rejects_corrupted_vectors(monkeypatch, n):
    st = state(n)
    exact = st.eigenvector_exact

    def patched(corrupt, target):
        def eigenvector(parity):
            vec = exact(parity)
            return corrupt(vec) if parity == target else vec

        monkeypatch.setattr(st, "eigenvector_exact", eigenvector)

    def flip_one(vec):
        j = max(k for k, entry in enumerate(vec) if entry != (0, 0))
        vec[j] = (-vec[j][0], -vec[j][1])
        return vec

    def stray_on_other_site(vec):
        j = next(k for k, entry in enumerate(vec) if entry == (0, 0))
        vec[j] = (1, 0)
        return vec

    def times_i(vec):
        return [(-im, re) for re, im in vec]

    # the even-site eigenvector is real and the odd-site one imaginary, so
    # corrupting each in turn tests both components
    for target in (0, 1):
        patched(flip_one, target)
        assert not st.eigen_equation_holds()
        patched(stray_on_other_site, target)
        assert not st.eigen_equation_holds()
        patched(times_i, target)
        assert st.eigen_equation_holds()


def test_eigen_equation_cap():
    assert state(12).eigen_equation_holds()
    with pytest.raises(ResourceLimitError):
        state(21).eigen_equation_holds()


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_two_reconstruction(n):
    st = state(n)
    even = st.eigenvector_exact(0)
    odd = st.eigenvector_exact(1)
    size = 1 << n
    for j in range(size):
        for k in range(size):
            re = sum(v[j][0] * v[k][0] + v[j][1] * v[k][1] for v in (even, odd))
            im = sum(v[j][1] * v[k][0] - v[j][0] * v[k][1] for v in (even, odd))
            assert im == 0
            assert re == entry_sign_oracle(n, j, k)


@pytest.mark.parametrize("n", (9, 10))
def test_rank_two_reconstruction_large(n):
    st = state(n)
    even = st.eigenvector_exact(0)
    odd = st.eigenvector_exact(1)
    merged = [e if (j & 1) == 0 else o for j, (e, o) in enumerate(zip(even, odd))]
    size = 1 << n
    for j in range(size):
        ar, ai = merged[j]
        parity = j & 1
        for k in range(size):
            br, bi = merged[k]
            if (k & 1) != parity:
                want = 0
            else:
                want = ar * br + ai * bi
                assert ai * br - ar * bi == 0
            assert st.entry_sign(j, k) == want


def test_eigenvector_unit_norm():
    for n in (1, 2, 3, 6):
        even, odd = state(n).eigenpair()
        for vec in (even, odd):
            assert sum(abs(z) ** 2 for z in vec) == pytest.approx(1.0)


def test_eigenvector_parity_support():
    st = state(4)
    even = st.eigenvector_exact(0)
    odd = st.eigenvector_exact(1)
    for j in range(16):
        if j % 2 == 0:
            assert even[j] != (0, 0) and odd[j] == (0, 0)
        else:
            assert even[j] == (0, 0) and odd[j] != (0, 0)


# -- vector measure -----------------------------------------------------------


def test_vector_measure_published():
    st = state(2)
    empty = st.vector_measure(Event.empty(st.space))
    assert (empty.even, empty.odd) == (0, 0)
    full = st.vector_measure(Event.full(st.space))
    assert full.inner(full) == Dyadic(1)
    a, b = st.vector_measure(event(2, [0])), st.vector_measure(event(2, [2]))
    assert a.inner(b) == Dyadic(-1, 2)
    assert st.vector_measure(event(2, [1])) == VectorMeasureValue(0, 1, 2)


def test_vector_measure_space_mismatch():
    with pytest.raises(ValueError):
        state(2).vector_measure(event(2, [0])).inner(
            state(3).vector_measure(event(3, [0]))
        )


# -- strong positivity ----------------------------------------------------------


def gram_psd_oracle(st: DecoherenceState, events) -> bool:
    """Exact PSD test for the functional Gram matrix.

    The matrix is Hermitian of rank at most two (it is a Gram matrix of
    two-component vectors), so it is PSD iff its trace and its second
    elementary symmetric function are both nonnegative; both are exact
    integers over a power of two here.
    """
    vecs = [st.census(ev) for ev in events]
    comps = [(c[0] - c[2], c[1] - c[3]) for c in vecs]
    g = [[x[0] * y[0] + x[1] * y[1] for y in comps] for x in comps]
    k = len(g)
    trace = sum(g[i][i] for i in range(k))
    e2 = sum(
        g[i][i] * g[j][j] - g[i][j] * g[j][i] for i in range(k) for j in range(i + 1, k)
    )
    return trace >= 0 and e2 >= 0


def test_strong_positivity_families():
    st3 = state(3)
    singles = [event(3, [j]) for j in range(8)]
    assert st3.strong_positivity_check(singles)
    assert gram_psd_oracle(st3, singles)
    st2 = state(2)
    family = [Event.empty(st2.space), Event.full(st2.space), event(2, [0, 2])]
    assert st2.strong_positivity_check(family)
    assert gram_psd_oracle(st2, family)


def test_strong_positivity_random_families():
    rng = random.Random(99)
    for n in (2, 3, 4, 5):
        st = state(n)
        size = 1 << n
        for _ in range(30):
            events = [
                Event(st.space, rng.getrandbits(size)) for _ in range(rng.randint(1, 8))
            ]
            assert st.strong_positivity_check(events)
            assert gram_psd_oracle(st, events)


def test_strong_positivity_cap():
    # charged 16 units per Fraction step, k**3 of them: 101 events run, 102 do not
    st = state(2)
    rng = random.Random(1301)
    assert st.strong_positivity_check([Event.full(st.space)] * 13)
    assert st.strong_positivity_check([Event(st.space, rng.getrandbits(4)) for _ in range(101)])
    assert 16 * 101**3 <= BUDGET < 16 * 102**3
    with pytest.raises(ResourceLimitError, match=f"costs {16 * 102**3} units"):
        st.strong_positivity_check([Event.full(st.space)] * 102)


def test_exact_guard_rejects_indefinite():
    assert not psd_by_ldl([[1, 2], [2, 1]])
    assert not psd_by_ldl([[-1]])
    assert psd_by_ldl([[2, 1], [1, 2]])
    assert psd_by_ldl([[1, 1], [1, 1]])  # singular, rank one


def test_exact_guard_zero_pivot_with_nonzero_column():
    assert not psd_by_ldl([[0, 1], [1, 0]])
    assert not psd_by_ldl([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_exact_guard_zero_matrix():
    assert psd_by_ldl([[0, 0], [0, 0]])
    assert psd_by_ldl([[0] * 12 for _ in range(12)])


def test_exact_guard_rank_two_family_of_twelve():
    # twelve events at n = 6 give a rank-2 Gram matrix: ten zero pivots
    # after the first two, each with an exactly zero column
    rng = random.Random(21)
    st = state(6)
    events = [Event(st.space, rng.getrandbits(64)) for _ in range(12)]
    vectors = [st.vector_measure(ev) for ev in events]
    gram = [[x.even * y.even + x.odd * y.odd for y in vectors] for x in vectors]
    assert st.strong_positivity_check(events)
    assert psd_by_ldl(gram)
    assert gram_psd_oracle(st, events)
    # one unit less on a diagonal leaves the range of the matrix: no longer PSD
    for i in range(12):
        dented = [row[:] for row in gram]
        dented[i][i] -= 1
        assert not psd_by_ldl(dented)
