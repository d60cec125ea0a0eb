import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from qwalk.decoherence import DecoherenceState, Event
from qwalk.errors import BUDGET, ResourceLimitError
from qwalk.exact import Dyadic
from qwalk.paths import PathSpace
from qwalk import qmeasure
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
    preclusion_count,
    regularity_check,
    scaling_check,
)

from oracles import changes_oracle, entry_sign_oracle, mu_oracle, precluded_masks_by_gray_walk


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


# the verify check reads the default strategy; this pins the table under each
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
    assert mu(st, Event.empty(st.space), Strategy.PAIRWISE).is_zero()


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


def test_dense_is_the_literal_entry_sum(monkeypatch):
    # DENSE is the independent reference for the census route, so it must
    # give the entry double sum without ever taking a census
    def no_census(self, event):
        raise AssertionError("the DENSE route took a census")

    monkeypatch.setattr(DecoherenceState, "census", no_census)
    rng = random.Random(4343)
    for n in range(1, 9):
        st = state(n)
        size = 1 << n
        for _ in range(8):
            mask = rng.getrandbits(size) & rng.getrandbits(size)
            members = [j for j in range(size) if mask >> j & 1]
            got = mu(st, Event(st.space, mask), Strategy.DENSE)
            assert got.as_fraction() == mu_oracle(n, members), (n, members)


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


def _pairs_for(n: int):
    """Every ordered pair of distinct paths at n <= 6; seeded pairs above."""
    size = 1 << n
    if n <= 6:
        return [(i, j) for i in range(size) for j in range(size) if i != j]
    rng = random.Random(700 + n)
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(300)]
    pairs = [(i, j) for i, j in pairs if i != j]
    # the extreme paths and a same-site pair of each end site
    pairs += [(0, size - 1), (size - 1, 0), (0, size - 2), (1, size - 1)]
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 20, 40, 63])
def test_pair_tables_match_string_oracle(n):
    # the pair measure is (2 + 2s) / 2**n and the interference term 2s / 2**n
    # for the string-scanned entry sign s of the pair
    st = state(n)
    kinds = {
        0: Interference.NO_INTERFERENCE,
        1: Interference.CONSTRUCTIVE,
        -1: Interference.DESTRUCTIVE,
    }
    for i, j in _pairs_for(n):
        sign = entry_sign_oracle(n, i, j)
        assert pair_measure(st, i, j).as_fraction() == Fraction(2 + 2 * sign, 1 << n)
        value, kind = interference(st, i, j)
        assert value.as_fraction() == Fraction(2 * sign, 1 << n)
        assert kind is kinds[sign]


@pytest.mark.parametrize("n", [1, 2, 6, 20, 63])
def test_pair_tables_keep_their_errors(n):
    st = state(n)
    top = (1 << n) - 1
    bad = [(0, 0), (top, top), (-1, 0), (0, -1), (-1, -1), (top + 1, 0), (0, top + 1)]
    bad += [(1 << 70, 0), (-(1 << 70), top)]
    for pair in bad:
        with pytest.raises(ValueError):
            pair_measure(st, *pair)
        with pytest.raises(ValueError):
            interference(st, *pair)
    with pytest.raises(ValueError, match="distinct"):
        pair_measure(st, top + 1, top + 1)  # equal indices are named first


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


def test_composition_check_at_the_largest_horizon(monkeypatch):
    st = state(63)
    assert interference_composition_check(st)
    measures, terms = qmeasure._pair_values(63)
    N, C, D = Interference.NO_INTERFERENCE, Interference.CONSTRUCTIVE, Interference.DESTRUCTIVE
    # by residue difference 0..3; the true table is (C, N, D, N)
    for kinds in ((D, N, C, N), (C, N, N, N), (D, N, D, N), (C, C, D, C)):
        forged = tuple((term, kind) for (term, _), kind in zip(terms, kinds))
        monkeypatch.setattr(qmeasure, "_pair_values", lambda n: (measures, forged))
        assert not interference_composition_check(st)


def broken_laws(kinds, triples) -> set[str]:
    """The composition laws that a table of classes ("n", "c", "d") by
    residue difference breaks on some (first, middle, last) residue triple."""
    broken = set()
    for r1, r2, r3 in triples:
        first_mid, mid_last = kinds[(r1 - r2) % 4], kinds[(r2 - r3) % 4]
        first_last = kinds[(r1 - r3) % 4]
        if first_mid == mid_last == "n":
            law, holds = "n after n interferes", first_last != "n"
        elif "n" in (first_mid, mid_last):
            law, holds = "c or d beside n is n", first_last == "n"
        elif first_mid == mid_last:
            law, holds = "c or d after itself is c", first_last == "c"
        else:
            law, holds = "mixed c, d is d", first_last == "d"
        if not holds:
            broken.add(law)
    return broken


def test_composition_check_against_every_class_table(monkeypatch):
    """All 81 class tables forged into the check, at the horizons whose
    paths realize distinct sets of residue triples: n = 1..5 by literal
    path triples, and n = 63, where every triple is realized."""
    kind_of = {"n": Interference.NO_INTERFERENCE, "c": Interference.CONSTRUCTIVE,
               "d": Interference.DESTRUCTIVE}
    horizons = {63: set(product(range(4), repeat=3))}
    for n in range(1, 6):
        res = [changes_oracle(n, j) % 4 for j in range(1 << n)]
        horizons[n] = {(res[i], res[j], res[k]) for i, j, k in permutations(range(1 << n), 3)}
    pair = {"c or d beside n is n", "mixed c, d is d"}
    only_the_pair = set()
    for n, triples in horizons.items():
        st = state(n)
        measures, terms = qmeasure._pair_values(n)
        for kinds in product("ncd", repeat=4):
            forged = tuple((term, kind_of[k]) for (term, _), k in zip(terms, kinds))
            monkeypatch.setattr(qmeasure, "_pair_values", lambda n: (measures, forged))
            broken = broken_laws(kinds, triples)
            assert interference_composition_check(st) == (not broken), (n, kinds)
            # neither of the pair is ever the one law a table breaks ...
            assert not (len(broken) == 1 and broken <= pair), (n, kinds)
            if broken == pair:
                only_the_pair.add(kinds)
    # ... but without both, the check would pass these two tables
    assert only_the_pair == {("c", "n", "c", "d"), ("c", "d", "c", "n")}


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


def pairwise_mu(st: DecoherenceState, ev: Event) -> Dyadic:
    return mu(st, ev, Strategy.PAIRWISE)


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
    # show that each clause is enforced; the check reads a census as the
    # amplitude pair (c0 - c2, c1 - c3), so that pair is what is forged
    st = state(3)
    a, b = event(3, [0]), event(3, [1])
    pairs = [(c0 - c2, c1 - c3) for c0, c1, c2, c3 in censuses]
    forged = dict(zip((a.mask, b.mask, a.union(b).mask), pairs))
    monkeypatch.setattr(st, "_pair", forged.__getitem__)
    assert not regularity_check(st, a, b)


def test_regularity_empty_event():
    st = state(3)
    assert regularity_check(st, Event.empty(st.space), event(3, [1, 2]))


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


def canonical(masks) -> list[int]:
    """Masks in the listing order: by cardinality, then by sorted members."""
    def members(m: int) -> list[int]:
        return [j for j in range(m.bit_length()) if m >> j & 1]

    return sorted(masks, key=lambda m: (m.bit_count(), members(m)))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_enumeration_matches_brute_force(n):
    st = state(n)
    walk = canonical(precluded_masks_by_gray_walk(n))
    assert [ev.mask for ev in enumerate_precluded(st)] == walk
    assert preclusion_count(n) == len(walk)
    for cap in range((1 << n) + 1):
        want = [m for m in walk if m.bit_count() <= cap]
        assert [ev.mask for ev in enumerate_precluded(st, max_cardinality=cap)] == want
        assert preclusion_count(n, cap) == len(want)
    if n <= 3:
        assert {ev.to_tuple() for ev in enumerate_precluded(st)} == precluded_oracle(n)


def test_preclusion_n2_only_one():
    found = enumerate_precluded(state(2))
    assert [ev.to_tuple() for ev in found] == [(0, 2)]
    assert enumerate_precluded(state(1)) == []


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


def listing_units(n, cap):
    """A preclusion listing's charge: 16 units per event and one per mask byte."""
    return preclusion_count(n, cap) * (16 + ((1 << n) >> 3))


def test_preclusion_count_matches_listing():
    # every (n, cap) with n <= 9 and cap <= 6 whose listing is within the budget
    listable = [
        (n, cap)
        for n in range(1, 10)
        for cap in range(7)
        if listing_units(n, cap) <= BUDGET
    ]
    assert (6, 5) in listable and (9, 3) in listable and (6, 6) not in listable
    nonempty = [(n, cap) for n, cap in listable if preclusion_count(n, cap)]
    seeded = set(random.Random(7100).sample(nonempty, 5)) | {(9, 3)}
    for n, cap in listable:
        st = state(n)
        found = enumerate_precluded(st, cap)
        assert len(found) == preclusion_count(n, cap)
        if (n, cap) in seeded:
            # each listed event is null by its census and by mu, and listed once
            assert len({ev.mask for ev in found}) == len(found)
            for ev in found:
                c0, c1, c2, c3 = st.census(ev)
                assert (c0, c1) == (c2, c3)
                assert mu(st, ev).is_zero()


def test_preclusion_count_uncapped_is_the_capped_sum():
    # Vandermonde's identity against the term-by-term sum at the top cap
    for n in range(1, 9):
        assert preclusion_count(n) == preclusion_count(n, 1 << n)


def test_preclusion_resource_bounds():
    with pytest.raises(ResourceLimitError):
        enumerate_precluded(state(5))
    with pytest.raises(ValueError):
        enumerate_precluded(state(3), max_cardinality=-1)
    # served since the listing costs only its output
    st7 = state(7)
    pairs = {
        (i, j)
        for i in range(128)
        for j in range(i + 1, 128)
        if pair_measure(st7, i, j).is_zero()
    }
    assert [ev.to_tuple() for ev in enumerate_precluded(st7, 2)] == sorted(pairs)
    assert len(pairs) == 2016
    assert enumerate_precluded(state(6), 5) == enumerate_precluded(state(6), 4)
    # refused just past the bound, before any event is built
    assert preclusion_count(10, 2) == 130_816 and listing_units(10, 2) > BUDGET
    assert preclusion_count(6, 6) == 7_319_516
    for n, cap in ((10, 2), (6, 6), (63, None)):
        with pytest.raises(ResourceLimitError):
            enumerate_precluded(state(n), cap)


def test_preclusion_count_bounds():
    with pytest.raises(ResourceLimitError):
        preclusion_count(21)
    with pytest.raises(ValueError):
        preclusion_count(3, -1)
    for n in (0, 64):
        with pytest.raises(ValueError):
            preclusion_count(n, 2)
    assert preclusion_count(63, 1) == 0


def test_preclusion_canonical_order():
    found = enumerate_precluded(state(3))
    keys = [(ev.cardinality, ev.to_tuple()) for ev in found]
    assert keys == sorted(keys)


def test_preclusion_mask_order_is_the_member_order_n5():
    # the listing is sorted on masks; the member-tuple order must come out
    masks = [ev.mask for ev in enumerate_precluded(state(5), max_cardinality=4)]
    assert len(masks) == preclusion_count(5, 4)
    assert masks == canonical(masks)


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


def test_scaling_rejects_backwards():
    with pytest.raises(ValueError):
        scaling_check(state(3), state(2), event(3, [0]))
