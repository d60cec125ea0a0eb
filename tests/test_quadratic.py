import random
from fractions import Fraction

import pytest

from oracles import grade2_by_moebius, qualifying_triples_by_member_loop

from qwalk import quadratic
from qwalk.cylinder import (
    ALL_ZEROS,
    AtMostKOnes,
    ComplementOfFinitePathSet,
    DisjointWitness,
    EventualPath,
    FinitePathSet,
    FinitelyManyOnes,
    InfinitelyManyOnes,
    approximant,
    strongly_disjoint,
)
from qwalk.quadratic import (
    QMeasureTable,
    SetSystem,
    _qualifying_triples,
    cardinality_squared_table,
    is_q_measure,
    is_quadratic_algebra,
    odd_count_system,
    parse_system_file,
    three_type_system,
)


def brute_quadratic_oracle(system: SetSystem) -> bool:
    """Literal quantifier sweep over all member triples, repeats included."""
    members = set(system.members)
    if 0 not in members or system.universe_mask not in members:
        return False
    pool = sorted(members)
    for a in pool:
        for b in pool:
            if a & b:
                continue
            for c in pool:
                if c & (a | b):
                    continue
                if {a | b, a | c, b | c} <= members and (a | b | c) not in members:
                    return False
    return True


def brute_measure_oracle(system: SetSystem, table: QMeasureTable) -> bool:
    members = set(system.members)
    pool = sorted(members)
    for a in pool:
        for b in pool:
            if a & b:
                continue
            for c in pool:
                if c & (a | b):
                    continue
                if {a | b, a | c, b | c} <= members:
                    lhs = table[a | b | c]
                    rhs = (
                        table[a | b] + table[a | c] + table[b | c]
                        - table[a] - table[b] - table[c]
                    )
                    if lhs != rhs:
                        return False
    return True


# -- set systems ------------------------------------------------------------------


def test_set_system_dedup_and_validation():
    system = SetSystem(3, (0b101, 0b101, 0b010, 0))
    assert system.members == (0, 0b010, 0b101)
    assert system.indices_of(0b101) == (0, 2)
    with pytest.raises(ValueError):
        SetSystem(3, (0b1000,))
    with pytest.raises(ValueError):
        SetSystem(0, ())
    with pytest.raises(ValueError):
        SetSystem(25, ())


def test_from_index_lists():
    system = SetSystem.from_index_lists(4, [[0, 2], [], [1, 2, 3]])
    assert system.members == (0, 0b0101, 0b1110)
    with pytest.raises(ValueError):
        SetSystem.from_index_lists(2, [[3]])


def test_measure_table_validation():
    system = SetSystem(2, (0, 1, 3))
    with pytest.raises(ValueError):
        QMeasureTable(system, {0: Fraction(0), 1: Fraction(1)})  # domain mismatch
    with pytest.raises(ValueError):
        QMeasureTable(system, {0: Fraction(0), 1: Fraction(-1), 3: Fraction(1)})


# -- power sets -----------------------------------------------------------------------


@pytest.mark.parametrize("size", (1, 2, 3, 4))
def test_power_set_is_quadratic_algebra(size):
    system = SetSystem(size, tuple(range(1 << size)))
    ok, witness = is_quadratic_algebra(system)
    assert ok and witness is None
    assert brute_quadratic_oracle(system)
    additive = QMeasureTable(system, {m: Fraction(m.bit_count()) for m in system.members})
    ok, witness = is_q_measure(system, additive)
    assert ok and witness is None
    ok, witness = is_q_measure(system, cardinality_squared_table(system))
    assert ok and witness is None


def test_missing_empty_or_universe_fails():
    no_empty = SetSystem(2, (1, 2, 3))
    assert is_quadratic_algebra(no_empty) == (False, None)
    no_universe = SetSystem(2, (0, 1, 2))
    ok, _ = is_quadratic_algebra(no_universe)
    assert not ok


def test_explicit_closure_failure_triple():
    # three disjoint singletons with pairwise unions present but no triple union
    subsets = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2, 3]]
    system = SetSystem.from_index_lists(4, subsets)
    ok, witness = is_quadratic_algebra(system)
    assert not ok
    assert witness == (0b0001, 0b0010, 0b0100)
    assert not brute_quadratic_oracle(system)


def test_q_measure_requires_quadratic_algebra():
    system = SetSystem(2, (1, 2, 3))
    with pytest.raises(ValueError):
        is_q_measure(system, QMeasureTable(system, {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}))


def test_q_measure_nonzero_empty_detected():
    system = SetSystem(2, tuple(range(4)))
    table = QMeasureTable(
        system, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}
    )
    ok, witness = is_q_measure(system, table)
    assert not ok and witness == (0, 0, 0)


def test_q_measure_counterexample_reported():
    system = SetSystem(3, tuple(range(8)))
    values = {m: Fraction(m.bit_count() ** 2) for m in system.members}
    values[0b111] = Fraction(100)  # break the identity at the top
    ok, witness = is_q_measure(system, QMeasureTable(system, values))
    assert not ok and witness == (1, 2, 4)


# -- the nine-element three-type system -------------------------------------------------


def test_three_type_membership_shape():
    system, table = three_type_system()
    assert system.universe_size == 9
    assert len(system.members) == 110
    sizes = sorted({m.bit_count() for m in system.members})
    assert sizes == [0, 3, 6, 9]
    groups = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    for m in system.members:
        if m in (0, system.universe_mask):
            continue
        counts = sorted(
            sum(1 for e in group if m >> e & 1) for group in groups
        )
        assert counts in ([0, 1, 2], [1, 2, 3])


def test_three_type_is_quadratic_algebra():
    system, table = three_type_system()
    ok, witness = is_quadratic_algebra(system)
    assert ok and witness is None
    assert brute_quadratic_oracle(system)
    ok, witness = is_q_measure(system, table)
    assert ok and witness is None
    assert brute_measure_oracle(system, table)


def test_three_type_not_closed_under_disjoint_union():
    system, _ = three_type_system()
    members = set(system.members)
    a = SetSystem.from_index_lists(9, [[3, 0, 1]]).members[0]
    b = SetSystem.from_index_lists(9, [[4, 6, 7]]).members[0]
    assert a in members and b in members and a & b == 0
    assert (a | b) not in members  # counts become (2, 2, 2): not pairwise distinct


def test_three_type_nonadditivity_values():
    system, table = three_type_system()
    a = SetSystem.from_index_lists(9, [[3, 0, 1]]).members[0]  # counts (2,1,0)
    b = SetSystem.from_index_lists(9, [[4, 5, 6]]).members[0]  # counts (0,2,1)
    union = a | b
    assert union in set(system.members) and union.bit_count() == 6
    assert table[a] + table[b] == Fraction(1, 3)
    assert table[union] == Fraction(1, 2)
    assert table[a] + table[b] != table[union]


def test_three_type_without_universe_fails_with_triple():
    system, _ = three_type_system()
    pruned = SetSystem(
        system.universe_size,
        tuple(m for m in system.members if m != system.universe_mask),
    )
    ok, witness = is_quadratic_algebra(pruned)
    assert not ok and witness is not None
    a, b, c = witness
    assert a | b | c == system.universe_mask
    members = set(pruned.members)
    assert {a | b, a | c, b | c} <= members
    assert a & b == a & c == b & c == 0


# -- the odd-count system ---------------------------------------------------------------


def test_odd_count_membership():
    system = odd_count_system(3, 2)
    assert system.universe_size == 5
    assert len(system.members) == 20
    x_mask = 0b00111
    for m in system.members:
        xs = (m & x_mask).bit_count()
        assert xs == 0 or xs % 2 == 1
    assert system.has_empty() and system.has_universe()


def test_odd_count_is_quadratic_algebra():
    system = odd_count_system(3, 2)
    ok, witness = is_quadratic_algebra(system)
    assert ok and witness is None
    assert brute_quadratic_oracle(system)
    ok, witness = is_q_measure(system, cardinality_squared_table(system))
    assert ok and witness is None


def test_odd_count_larger_instance():
    system = odd_count_system(5, 3)
    ok, _ = is_quadratic_algebra(system)
    assert ok
    ok, _ = is_q_measure(system, cardinality_squared_table(system))
    assert ok


def test_odd_count_not_closed_under_disjoint_unions():
    system = odd_count_system(3, 2)
    members = set(system.members)
    x_mask = 0b00111
    witnessed = False
    for a in system.members:
        for b in system.members:
            if a and b and a & b == 0 and (a & x_mask) and (b & x_mask):
                assert ((a | b) & x_mask).bit_count() % 2 == 0
                if (a | b) not in members:
                    witnessed = True
    assert witnessed


def test_odd_count_validation():
    with pytest.raises(ValueError):
        odd_count_system(2, 2)
    with pytest.raises(ValueError):
        odd_count_system(3, -1)


# -- partner-list walk against the index loop ---------------------------------------


def oracle_algebra(system: SetSystem):
    """is_quadratic_algebra's verdict and witness, from the index loop."""
    members = set(system.members)
    for a, b, c in qualifying_triples_by_member_loop(system.members):
        if (a | b | c) not in members:
            return False, (a, b, c)
    return system.has_empty() and system.has_universe(), None


def oracle_q_measure(system: SetSystem, table: QMeasureTable):
    """is_q_measure's verdict and witness from the index loop, or None where
    it must raise ValueError."""
    if not oracle_algebra(system)[0]:
        return None
    if table[0] != 0:
        return False, (0, 0, 0)
    for a, b, c in qualifying_triples_by_member_loop(system.members):
        lhs = table[a | b | c]
        rhs = (
            table[a | b] + table[a | c] + table[b | c]
            - table[a] - table[b] - table[c]
        )
        if lhs != rhs:
            return False, (a, b, c)
    return True, None


def assert_walk_matches_loop(system: SetSystem, table: QMeasureTable) -> None:
    assert list(_qualifying_triples(system)) == qualifying_triples_by_member_loop(system.members)
    assert is_quadratic_algebra(system) == oracle_algebra(system)
    want = oracle_q_measure(system, table)
    if want is None:
        with pytest.raises(ValueError):
            is_q_measure(system, table)
    else:
        assert is_q_measure(system, table) == want


def broken_variants(system: SetSystem, rng: random.Random):
    """The system, and the system with one random member dropped, each with
    the squared-cardinality table and a copy bumped at one random member."""
    variants = [system]
    if system.members:
        dropped = rng.choice(system.members)
        variants.append(SetSystem(
            system.universe_size, tuple(m for m in system.members if m != dropped)
        ))
    for variant in variants:
        table = cardinality_squared_table(variant)
        yield variant, table
        if variant.members:
            bumped = dict(table.values)
            bumped[rng.choice(variant.members)] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
            yield variant, QMeasureTable(variant, bumped)


def random_systems(seed: int, count: int):
    """Systems over at most ten elements: random unions of the blocks of a
    random partition, which are rich in partner pairs, plus a few stray
    masks, mostly with the empty set and the universe."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, 10)
        blocks = [0] * rng.randint(min(size, 3), min(size, 6))
        for e in range(size):
            blocks[rng.randrange(len(blocks))] |= 1 << e
        keep = rng.uniform(0.4, 1.0)
        members = {
            sum(block for i, block in enumerate(blocks) if choice >> i & 1)
            for choice in range(1 << len(blocks))
            if rng.random() < keep
        }
        members.update(rng.getrandbits(size) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.8:
            members |= {0, (1 << size) - 1}
        yield SetSystem(size, tuple(members))


def test_walk_matches_loop_on_worked_systems():
    rng = random.Random(12)
    system, table = three_type_system()
    assert_walk_matches_loop(system, table)
    for odd in (odd_count_system(3, 2), odd_count_system(5, 3)):
        for variant, table in broken_variants(odd, rng):
            assert_walk_matches_loop(variant, table)
    for variant, table in broken_variants(system, rng):
        assert_walk_matches_loop(variant, table)


@pytest.mark.parametrize("size", range(1, 9))
def test_walk_matches_loop_on_power_sets(size):
    rng = random.Random(size)
    for variant, table in broken_variants(SetSystem(size, tuple(range(1 << size))), rng):
        assert_walk_matches_loop(variant, table)


def test_walk_matches_loop_on_random_systems():
    rng = random.Random(20261018)
    for system in random_systems(20261018, 240):
        for variant, table in broken_variants(system, rng):
            assert_walk_matches_loop(variant, table)


def degree_two_values(size: int, rng: random.Random) -> list[Fraction]:
    """A nonnegative set function on the power set with no Moebius mass above
    pairs: element weights plus pair weights."""
    def weight():
        return Fraction(rng.randint(0, 9), rng.randint(1, 4))

    single = [weight() for _ in range(size)]
    pair = [[weight() for _ in range(size)] for _ in range(size)]
    values = []
    for mask in range(1 << size):
        held = [e for e in range(size) if mask >> e & 1]
        values.append(
            sum((single[e] for e in held), Fraction(0))
            + sum((pair[e][f] for i, e in enumerate(held) for f in held[i + 1:]), Fraction(0))
        )
    return values


@pytest.mark.parametrize("size", (1, 2, 3, 4, 5, 6, 7, 8, 10))
def test_q_measure_matches_moebius_on_power_sets(size):
    rng = random.Random(1994 + size)
    system = SetSystem(size, tuple(range(1 << size)))
    for _ in range(2 if size == 10 else 6):
        values = degree_two_values(size, rng)
        perturbed = list(values)
        perturbed[rng.randrange(1 << size)] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
        # every set has a superset of three elements once size >= 3
        assert grade2_by_moebius(size, values)
        assert grade2_by_moebius(size, perturbed) == (size < 3 and perturbed[0] == 0)
        for vals in (values, perturbed):
            ok, witness = is_q_measure(system, QMeasureTable(system, dict(enumerate(vals))))
            assert ok == grade2_by_moebius(size, vals) == (witness is None)


def test_q_measure_does_not_call_is_quadratic_algebra(monkeypatch):
    def refuse(system):
        raise AssertionError("is_q_measure rescanned the system")

    monkeypatch.setattr(quadratic, "is_quadratic_algebra", refuse)
    system, table = three_type_system()
    assert is_q_measure(system, table) == (True, None)
    power = SetSystem(3, tuple(range(8)))
    values = {m: Fraction(m.bit_count() ** 2) for m in power.members}
    values[0b111] = Fraction(100)
    assert is_q_measure(power, QMeasureTable(power, values)) == (False, (1, 2, 4))
    no_union = SetSystem.from_index_lists(
        4, [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2, 3]]
    )
    with pytest.raises(ValueError):
        is_q_measure(no_union, cardinality_squared_table(no_union))


# -- file format -----------------------------------------------------------------------


def test_parse_system_file():
    text = "4\n\n0,1\n2\n0,1,2,3\n"
    system = parse_system_file(text)
    assert system.universe_size == 4
    assert system.members == (0, 0b0011, 0b0100, 0b1111)
    with pytest.raises(ValueError):
        parse_system_file("")
    with pytest.raises(ValueError):
        parse_system_file("2\n5\n")


def test_parse_round_trip_checks():
    subsets = [[], [0], [1], [0, 1]]
    text = "2\n" + "\n".join(",".join(map(str, s)) for s in subsets)
    system = parse_system_file(text)
    ok, _ = is_quadratic_algebra(system)
    assert ok


# -- strong disjointness ------------------------------------------------------------------


def test_strong_disjointness_never_witnessed():
    finitely = FinitelyManyOnes()
    infinitely = InfinitelyManyOnes()
    for bound in (1, 8, 32):
        verdict = strongly_disjoint(finitely, infinitely, bound)
        assert not verdict.witnessed and verdict.at_level is None


def test_strong_disjointness_overlapping_hulls():
    # both events contain paths through the all-zeros prefix at every level
    a = AtMostKOnes(1)
    b = FinitePathSet((ALL_ZEROS,))
    verdict = strongly_disjoint(a, b, 12)
    assert not verdict.witnessed


def disjointness_family(seed: int):
    """At-most-K for K = 0..5, the empty set, seeded finite sets whose paths
    share prefixes of a common run, and the three kinds with full hulls."""
    rng = random.Random(seed)
    run = tuple(rng.randrange(2) for _ in range(12))
    family = [AtMostKOnes(k) for k in range(6)] + [FinitePathSet(())]
    for _ in range(10):
        paths = []
        for _ in range(rng.randint(1, 4)):
            tail = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
            paths.append(EventualPath(run[: rng.randint(0, 12)] + tail, rng.randrange(2)))
        family.append(FinitePathSet(tuple(paths)))
    full = [ComplementOfFinitePathSet((ALL_ZEROS,)), FinitelyManyOnes(), InfinitelyManyOnes()]
    return family + full


def test_strong_disjointness_is_the_first_level_of_disjoint_approximants():
    family = disjointness_family(1219)
    masks = [[approximant(e, n).base.mask for n in range(1, 13)] for e in family]
    levels = set()
    for a, masks_a in zip(family, masks):
        for b, masks_b in zip(family, masks):
            first = next((n for n in range(1, 13) if not masks_a[n - 1] & masks_b[n - 1]), None)
            levels.add(first)
            for n_max in range(1, 13):
                witnessed = first is not None and first <= n_max
                want = DisjointWitness(witnessed, first if witnessed else None)
                assert strongly_disjoint(a, b, n_max) == want
    assert len(levels) >= 6  # the family splits at many levels, and some pairs never


def test_strong_disjointness_validation():
    with pytest.raises(ValueError):
        strongly_disjoint(FinitelyManyOnes(), FinitelyManyOnes(), 0)
