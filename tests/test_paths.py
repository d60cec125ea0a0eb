import pytest

from qwalk.errors import ResourceLimitError
from qwalk.paths import (
    PathSpace,
    change_residue_count_levels,
    change_residue_counts,
    change_residues,
    changes_count,
    changes_vector,
    ones_count,
    ones_vector,
    path_string,
    same_parity,
)


from oracles import changes_oracle, ones_oracle


def test_space_validation():
    with pytest.raises(ValueError):
        PathSpace(0)
    with pytest.raises(ValueError):
        PathSpace(64)
    space = PathSpace(5)
    assert space.size == 32
    with pytest.raises(ValueError):
        space.check_index(32)
    with pytest.raises(ValueError):
        space.check_index(-1)


# frozen published vectors
CHANGES_N3 = (0, 1, 2, 1, 2, 3, 2, 1)
CHANGES_N4 = (0, 1, 2, 1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 3, 2, 1)
ONES_N3 = (0, 1, 1, 2, 1, 2, 2, 3)
ONES_N4 = (0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4)


@pytest.mark.parametrize("n,expected", [(3, CHANGES_N3), (4, CHANGES_N4)])
def test_changes_published_vectors(n, expected):
    assert tuple(changes_vector(PathSpace(n))) == expected


@pytest.mark.parametrize("n,expected", [(3, ONES_N3), (4, ONES_N4)])
def test_ones_published_vectors(n, expected):
    assert tuple(ones_vector(PathSpace(n))) == expected


def test_trivial_values():
    assert changes_count(PathSpace(1), 0) == 0
    assert ones_count(PathSpace(2), 0) == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_counters_match_string_oracle(n):
    space = PathSpace(n)
    for j in space.indices():
        assert changes_count(space, j) == changes_oracle(n, j)
        assert ones_count(space, j) == ones_oracle(n, j)


@pytest.mark.parametrize("n", range(1, 13))
def test_reflection_recurrence(n):
    coarse, fine = PathSpace(n), PathSpace(n + 1)
    top = (1 << (n + 1)) - 1
    for j in coarse.indices():
        assert changes_count(fine, top - j) == changes_count(coarse, j) + 1


@pytest.mark.parametrize("n", range(1, 13))
def test_shift_recurrence(n):
    coarse, fine = PathSpace(n), PathSpace(n + 1)
    for j in coarse.indices():
        assert ones_count(fine, j + (1 << n)) == ones_count(coarse, j) + 1


def test_same_parity():
    space = PathSpace(3)
    assert same_parity(space, 0, 2)
    assert not same_parity(space, 0, 1)
    with pytest.raises(ValueError):
        same_parity(space, 0, 8)


@pytest.mark.parametrize("n", range(1, 11))
def test_parity_matches_change_parity(n):
    space = PathSpace(n)
    cv = [changes_oracle(n, j) for j in space.indices()]
    for j in space.indices():
        for k in space.indices():
            assert same_parity(space, j, k) == ((cv[j] - cv[k]) % 2 == 0)


def test_out_of_range_counters():
    space = PathSpace(4)
    with pytest.raises(ValueError):
        changes_count(space, 16)
    with pytest.raises(ValueError):
        ones_count(space, -1)


def test_vector_resource_cap():
    with pytest.raises(ResourceLimitError):
        changes_vector(PathSpace(21))


def test_path_string():
    assert path_string(PathSpace(3), 5) == "0101"
    assert path_string(PathSpace(4), 3) == "00011"


@pytest.mark.parametrize("n", range(1, 15))
def test_residue_counts_match_direct(n):
    direct = [0, 0, 0, 0]
    for j in range(1 << n):
        direct[changes_oracle(n, j) & 3] += 1
    assert change_residue_counts(n) == tuple(direct)


def test_residue_counts_seed_and_total():
    assert change_residue_counts(1) == (1, 1, 0, 0)
    for n in range(1, 40):
        assert sum(change_residue_counts(n)) == 1 << n
    with pytest.raises(ValueError):
        change_residue_counts(0)


def test_residue_count_levels_are_the_counts():
    levels = list(change_residue_count_levels(64))
    assert levels == [change_residue_counts(n) for n in range(1, 65)]
    assert list(change_residue_count_levels(0)) == []


def test_change_residue_table_matches_strings():
    for n in range(1, 13):
        table = change_residues(n)
        assert len(table) == 1 << n
        assert list(table) == [changes_oracle(n, j) % 4 for j in range(1 << n)]
    for n in (16, 20):
        table = change_residues(n)
        assert tuple(table.count(r) for r in range(4)) == change_residue_counts(n)
        assert change_residues(n) is table  # cached per horizon


def test_change_residue_table_range():
    with pytest.raises(ValueError):
        change_residues(0)
    with pytest.raises(ResourceLimitError):
        change_residues(21)
