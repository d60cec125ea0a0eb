import random
from fractions import Fraction
from itertools import combinations

import pytest

from qwalk.decoherence import DecoherenceState, Event
from qwalk.errors import ResourceLimitError
from qwalk.exact import Dyadic
from qwalk.paths import PathSpace
from qwalk.qmeasure import (
    Interference,
    Strategy,
    embed_right_pad,
    enumerate_precluded,
    full_space_measure,
    grade2_check,
    interference,
    interference_composition_check,
    mu,
    mu_from_census,
    pair_measure,
    regularity_check,
    scaling_check,
)

from oracles import mu_oracle


def state(n: int) -> DecoherenceState:
    return DecoherenceState(PathSpace(n))


def event(n: int, indices) -> Event:
    return Event.from_indices(PathSpace(n), indices)


# -- published measure table ---------------------------------------------------

TABLE_N2 = {
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


@pytest.mark.parametrize("strategy", list(Strategy))
def test_measure_table_n2(strategy):
    st = state(2)
    for indices, want in TABLE_N2.items():
        assert mu(st, event(2, indices), strategy).as_fraction() == want
    for j in range(4):
        assert mu(st, event(2, [j]), strategy).as_fraction() == Fraction(1, 4)


def test_measure_published_n3():
    assert mu(state(3), event(3, [2, 4, 6])).as_fraction() == Fraction(9, 8)


def test_measure_empty_event():
    st = state(2)
    assert mu(st, Event.empty(st.space)).is_zero()
    assert mu(st, Event.empty(st.space), Strategy.DENSE).is_zero()
    with pytest.raises(ValueError):
        mu(st, Event.empty(st.space), Strategy.PAIRWISE)


def test_measure_space_mismatch():
    with pytest.raises(ValueError):
        mu(state(3), event(2, [0]))


@pytest.mark.parametrize("n", range(1, 4))
def test_strategies_exhaustive_against_oracle(n):
    st = state(n)
    size = 1 << n
    for mask in range(1, 1 << size):
        members = [j for j in range(size) if mask >> j & 1]
        want = mu_oracle(n, members)
        ev = Event(st.space, mask)
        for strategy in Strategy:
            assert mu(st, ev, strategy).as_fraction() == want


def test_strategies_random_larger():
    rng = random.Random(4242)
    for n in (4, 6, 9, 12, 16):
        st = state(n)
        size = 1 << n
        for _ in range(60):
            members = rng.sample(range(size), rng.randint(1, min(20, size)))
            values = {mu(st, event(n, members), s).as_fraction() for s in Strategy}
            assert len(values) == 1
            assert values.pop() == mu_oracle(n, members)


def test_rank2_matches_pairwise_seeded_n20():
    rng = random.Random(2020)
    st = state(20)
    for _ in range(20):
        members = rng.sample(range(1 << 20), rng.randint(1, 64))
        ev = event(20, members)
        assert mu(st, ev) == mu(st, ev, Strategy.PAIRWISE)


def test_measure_nonnegative_and_denominator():
    rng = random.Random(11)
    for n in (3, 5, 8):
        st = state(n)
        size = 1 << n
        for _ in range(100):
            ev = Event(st.space, rng.getrandbits(size))
            got = mu(st, ev)
            assert got.num >= 0
            assert got.log2_den <= n


def test_full_space_measure():
    for n in list(range(1, 21)) + [32, 50]:
        assert full_space_measure(n) == Dyadic(1)
    st = state(20)
    assert mu(st, Event.full(st.space)) == Dyadic(1)


def test_mu_from_census_matches_event_route():
    st = state(5)
    ev = event(5, [0, 3, 17, 22, 9])
    assert mu_from_census(st.census(ev), 5) == mu(st, ev)


# -- interference ---------------------------------------------------------------


def test_interference_published_n2():
    st = state(2)
    expected = {
        (0, 2): (Fraction(-1, 2), Interference.DESTRUCTIVE),
        (1, 3): (Fraction(1, 2), Interference.CONSTRUCTIVE),
    }
    for i in range(4):
        for j in range(i + 1, 4):
            value, kind = interference(st, i, j)
            want_value, want_kind = expected.get(
                (i, j), (Fraction(0), Interference.NO_INTERFERENCE)
            )
            assert value.as_fraction() == want_value
            assert kind is want_kind


def test_interference_published_n3():
    st = state(3)
    assert interference(st, 0, 2)[1] is Interference.DESTRUCTIVE
    assert pair_measure(st, 0, 2).is_zero()
    assert interference(st, 1, 3)[1] is Interference.CONSTRUCTIVE
    assert pair_measure(st, 1, 3).as_fraction() == Fraction(1, 2)


def test_interference_rejects_equal_indices():
    with pytest.raises(ValueError):
        interference(state(3), 2, 2)


@pytest.mark.parametrize("pair", [(0, 8), (8, 0), (-1, 2), (3, -2)])
def test_pair_oracles_reject_out_of_range_indices(pair):
    with pytest.raises(ValueError):
        interference(state(3), *pair)
    with pytest.raises(ValueError):
        pair_measure(state(3), *pair)


@pytest.mark.parametrize("n", range(1, 8))
def test_interference_matches_measure_definition(n):
    st = state(n)
    size = 1 << n
    rng = random.Random(500 + n)
    pairs = (
        [(i, j) for i in range(size) for j in range(i + 1, size)]
        if size <= 16
        else [tuple(rng.sample(range(size), 2)) for _ in range(200)]
    )
    for i, j in pairs:
        value, kind = interference(st, min(i, j), max(i, j))
        want = mu_oracle(n, [i, j]) - mu_oracle(n, [i]) - mu_oracle(n, [j])
        assert value.as_fraction() == want
        if want == 0:
            assert kind is Interference.NO_INTERFERENCE
        elif want > 0:
            assert kind is Interference.CONSTRUCTIVE
        else:
            assert kind is Interference.DESTRUCTIVE
        assert pair_measure(st, i, j).as_fraction() == mu_oracle(n, [i, j])


@pytest.mark.parametrize("n", range(1, 11))
def test_pair_trichotomy(n):
    st = state(n)
    size = 1 << n
    allowed = {Fraction(0), Fraction(1, 1 << (n - 1))}
    if n >= 2:
        allowed.add(Fraction(1, 1 << (n - 2)))
    rng = random.Random(600 + n)
    pairs = (
        combinations(range(size), 2)
        if size <= 64
        else ((rng.randrange(size), rng.randrange(size)) for _ in range(500))
    )
    for i, j in pairs:
        if i == j:
            continue
        assert pair_measure(st, i, j).as_fraction() in allowed


# -- composition laws -------------------------------------------------------------


def relation_oracle(n: int, i: int, j: int) -> str:
    gap = mu_oracle(n, [i, j]) - mu_oracle(n, [i]) - mu_oracle(n, [j])
    return "n" if gap == 0 else ("c" if gap > 0 else "d")


@pytest.mark.parametrize("n", (2, 3, 4))
def test_composition_laws_brute_force(n):
    """Oracle for the residue-class reduction: literal triple loops."""
    size = 1 << n
    for i in range(size):
        for j in range(size):
            for k in range(size):
                if len({i, j, k}) < 3:
                    continue
                r_ij = relation_oracle(n, i, j)
                r_jk = relation_oracle(n, j, k)
                r_ik = relation_oracle(n, i, k)
                if r_ij == "n" and r_jk == "n":
                    assert r_ik != "n"
                elif "n" in (r_ij, r_jk):
                    assert r_ik == "n"
                elif r_ij == r_jk:
                    assert r_ik == "c"
                else:
                    assert r_ik == "d"


@pytest.mark.parametrize("n", range(1, 9))
def test_composition_check_passes(n):
    assert interference_composition_check(state(n))


def test_composition_check_cap():
    with pytest.raises(ResourceLimitError):
        interference_composition_check(state(9))


def test_composition_published_instances():
    st = state(3)
    D, C = Interference.DESTRUCTIVE, Interference.CONSTRUCTIVE
    assert interference(st, 0, 2)[1] is D
    assert interference(st, 2, 4)[1] is C
    assert interference(st, 0, 4)[1] is D
    assert interference(st, 1, 3)[1] is C
    assert interference(st, 3, 7)[1] is C
    assert interference(st, 1, 7)[1] is C


# -- grade-2 additivity and regularity ---------------------------------------------


def test_grade2_requires_disjoint():
    st = state(3)
    with pytest.raises(ValueError):
        grade2_check(st, event(3, [0, 1]), event(3, [1, 2]), event(3, [4]))


def test_grade2_with_empty_reduces():
    st = state(3)
    assert grade2_check(st, event(3, [0, 2]), event(3, [5]), Event.empty(st.space))


def test_grade2_published_triple():
    st = state(3)
    a, b, c = event(3, [0]), event(3, [2]), event(3, [4])
    assert grade2_check(st, a, b, c)
    lhs = mu_oracle(3, [0, 2, 4])
    rhs = (
        mu_oracle(3, [0, 2]) + mu_oracle(3, [0, 4]) + mu_oracle(3, [2, 4])
        - 3 * Fraction(1, 8)
    )
    assert lhs == rhs


def test_grade2_random_triples_n6():
    rng = random.Random(321)
    st = state(6)
    for _ in range(1000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64) & ~a
        c = rng.getrandbits(64) & ~(a | b)
        assert grade2_check(
            st, Event(st.space, a), Event(st.space, b), Event(st.space, c)
        )


def pairwise_mu(st: DecoherenceState, ev: Event) -> Dyadic:
    return mu(st, ev, Strategy.PAIRWISE) if ev.mask else Dyadic(0)


def pairwise_grade2(st, a, b, c) -> bool:
    ab, ac, bc = a.union(b), a.union(c), b.union(c)
    rhs = pairwise_mu(st, ab) + pairwise_mu(st, ac) + pairwise_mu(st, bc)
    rhs = rhs - pairwise_mu(st, a) - pairwise_mu(st, b) - pairwise_mu(st, c)
    return pairwise_mu(st, ab.union(c)) == rhs


def pairwise_regularity(st, a, b) -> bool:
    mu_a, mu_b, mu_ab = (pairwise_mu(st, e) for e in (a, b, a.union(b)))
    if mu_a.is_zero() and mu_ab != mu_b:
        return False
    return not (mu_ab.is_zero() and mu_a != mu_b)


def seeded_disjoint_events(st: DecoherenceState, rng: random.Random, count: int):
    """Three disjoint small events: destructive pairs make null events and
    null unions common, so both regularity clauses are exercised."""
    size = st.space.size
    members = rng.sample(range(size), 3 * count)
    return [
        Event.from_indices(st.space, members[k::3][: rng.randint(0, count)])
        for k in range(3)
    ]


@pytest.mark.parametrize("n", (6, 10))
def test_integer_checks_agree_with_pairwise_measures(n):
    st = state(n)
    rng = random.Random(322 + n)
    null_a = null_union = 0  # nonempty events of measure zero, per clause
    for _ in range(300):
        a, b, c = seeded_disjoint_events(st, rng, 4)
        assert grade2_check(st, a, b, c) == pairwise_grade2(st, a, b, c)
        assert regularity_check(st, a, b) == pairwise_regularity(st, a, b)
        null_a += bool(a.mask) and pairwise_mu(st, a).is_zero()
        ab = a.union(b)
        null_union += bool(ab.mask) and pairwise_mu(st, ab).is_zero()
    assert null_a >= 10 and null_union >= 10


@pytest.mark.parametrize(
    "censuses",
    [
        # a null, but the union's measure is not b's
        ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)),
        # a null union whose halves have different measures
        ((1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0)),
    ],
)
def test_regularity_rejects_a_census_that_breaks_a_clause(monkeypatch, censuses):
    # the walk's measure is always regular, so only a forged census can
    # show that each clause is enforced
    st = state(3)
    a, b = event(3, [0]), event(3, [1])
    forged = dict(zip((a.mask, b.mask, a.union(b).mask), censuses))
    monkeypatch.setattr(st, "census", lambda ev: forged[ev.mask])
    assert not regularity_check(st, a, b)


def test_regularity_published_instance():
    st = state(2)
    a, b = event(2, [0, 2]), event(2, [1])
    assert mu(st, a).is_zero()
    assert mu(st, a.union(b)) == mu(st, b) == Dyadic(1, 2)
    assert regularity_check(st, a, b)


def test_regularity_empty_event():
    st = state(3)
    assert regularity_check(st, Event.empty(st.space), event(3, [1, 2]))


def test_regularity_exhaustive_n3():
    st = state(3)
    for a_mask in range(256):
        rest = (~a_mask) & 255
        b_mask = rest
        while True:
            assert regularity_check(st, Event(st.space, a_mask), Event(st.space, b_mask))
            if b_mask == 0:
                break
            b_mask = (b_mask - 1) & rest


def test_regularity_requires_disjoint():
    st = state(3)
    with pytest.raises(ValueError):
        regularity_check(st, event(3, [0, 1]), event(3, [1]))


# -- preclusion ---------------------------------------------------------------------


def precluded_oracle(n: int) -> set[tuple[int, ...]]:
    """Brute force over every subset with the string-scan measure."""
    size = 1 << n
    out = set()
    for mask in range(1, 1 << size):
        members = [j for j in range(size) if mask >> j & 1]
        if mu_oracle(n, members) == 0:
            out.add(tuple(members))
    return out


@pytest.mark.parametrize("n", (1, 2, 3))
def test_enumeration_matches_brute_force(n):
    found = {ev.to_tuple() for ev in enumerate_precluded(state(n))}
    assert found == precluded_oracle(n)


def test_preclusion_census_n3():
    found = enumerate_precluded(state(3))
    doubles = {ev.to_tuple() for ev in found if ev.cardinality == 2}
    assert doubles == {(0, 2), (0, 4), (0, 6), (1, 5), (3, 5), (5, 7)}
    quads = {ev.to_tuple() for ev in found if ev.cardinality == 4}
    listed = [
        (0, 2, 1, 5), (0, 2, 3, 5), (0, 2, 5, 7),
        (0, 4, 1, 5), (0, 4, 3, 5), (0, 4, 5, 7),
        (0, 6, 1, 5), (0, 6, 3, 5), (0, 6, 5, 7),
    ]
    assert quads == {tuple(sorted(q)) for q in listed}
    assert {ev.cardinality for ev in found} == {2, 4}


def test_preclusion_n2_only_one():
    found = enumerate_precluded(state(2))
    assert [ev.to_tuple() for ev in found] == [(0, 2)]
    assert enumerate_precluded(state(1)) == []


def test_preclusion_members_n4():
    found = {ev.to_tuple() for ev in enumerate_precluded(state(4))}
    for want in [(0, 2), (0, 4), (2, 10), (4, 10), (0, 2, 4, 10)]:
        assert tuple(sorted(want)) in found
    st = state(4)
    assert mu(st, event(4, [0, 10])).as_fraction() == Fraction(1, 4)
    assert mu(st, event(4, [2, 4])).as_fraction() == Fraction(1, 4)
    assert all(len(t) % 2 == 0 for t in found)


def test_preclusion_refined_pair_member_n4():
    found = {ev.to_tuple() for ev in enumerate_precluded(state(4))}
    assert (0, 1, 2, 3, 8, 9, 10, 11) in found


def test_preclusion_cardinality_filter():
    only_pairs = enumerate_precluded(state(3), max_cardinality=2)
    assert all(ev.cardinality <= 2 for ev in only_pairs)
    assert len(only_pairs) == 6


def test_preclusion_bounded_n5_matches_pair_scan():
    st = state(5)
    found = {ev.to_tuple() for ev in enumerate_precluded(st, max_cardinality=2)}
    want = {
        (i, j)
        for i in range(32)
        for j in range(i + 1, 32)
        if mu_oracle(5, [i, j]) == 0
    }
    assert {t for t in found if len(t) == 2} == want


def test_preclusion_resource_bounds():
    with pytest.raises(ResourceLimitError):
        enumerate_precluded(state(5))
    with pytest.raises(ResourceLimitError):
        enumerate_precluded(state(7), max_cardinality=2)
    with pytest.raises(ResourceLimitError):
        enumerate_precluded(state(6), max_cardinality=5)
    with pytest.raises(ValueError):
        enumerate_precluded(state(3), max_cardinality=-1)


def test_preclusion_canonical_order():
    found = enumerate_precluded(state(3))
    keys = [(ev.cardinality, ev.to_tuple()) for ev in found]
    assert keys == sorted(keys)


# -- scaling ------------------------------------------------------------------------


def test_embedding_preserves_classes():
    coarse, fine = PathSpace(3), PathSpace(6)
    ev = event(3, [1, 2, 5])
    lifted = embed_right_pad(ev, fine)
    st3, st6 = state(3), state(6)
    assert lifted.cardinality == ev.cardinality
    assert sorted(st3.census(ev)) == sorted(st6.census(lifted))


def test_scaling_published_instance():
    assert scaling_check(state(2), state(3), event(2, [0, 2]))
    st3 = state(3)
    lifted = embed_right_pad(event(2, [0, 2]), st3.space)
    assert mu(st3, lifted).is_zero()


def test_scaling_identity():
    st = state(3)
    assert scaling_check(st, st, event(3, [1, 4, 6]))


def test_scaling_random():
    rng = random.Random(999)
    c, f = state(3), state(6)
    for _ in range(300):
        ev = Event(c.space, rng.getrandbits(8))
        assert scaling_check(c, f, ev)


def test_scaling_rejects_backwards():
    with pytest.raises(ValueError):
        scaling_check(state(3), state(2), event(3, [0]))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_no_odd_cardinality_precluded(n):
    assert all(ev.cardinality % 2 == 0 for ev in enumerate_precluded(state(n)))
