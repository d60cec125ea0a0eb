import pytest

from qwalk.errors import ResourceLimitError
from qwalk.paths import (
    PathSpace,
    _residue_masks,
    _residue_selectors,
    change_residue_count_levels,
    change_residue_counts,
    changes_count,
    changes_vector,
    ones_count,
    same_parity,
)


from oracles import changes_oracle, ones_oracle, site_string


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


def test_trivial_values():
    assert changes_count(PathSpace(1), 0) == 0
    assert ones_count(PathSpace(2), 0) == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_counters_match_string_oracle(n):
    space = PathSpace(n)
    for j in space.indices():
        assert changes_count(space, j) == changes_oracle(n, j)
        assert ones_count(space, j) == ones_oracle(n, j)


def test_changes_oracle_matches_pairwise_scan():
    # the oracle counts "01" and "10" substrings; the scan compares every
    # adjacent pair of characters of the same site string
    for n in range(1, 13):
        for j in range(1 << n):
            s = site_string(n, j)
            assert changes_oracle(n, j) == sum(a != b for a, b in zip(s, s[1:])), (n, j)


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
    # path j's site string: the time-0 zero, then the n step bits of j,
    # first step in the high bit; the counters read the same convention
    assert site_string(3, 5) == "0101"
    assert site_string(4, 3) == "00011"
    assert (changes_count(PathSpace(3), 5), ones_count(PathSpace(3), 5)) == (3, 2)
    assert (changes_count(PathSpace(4), 3), ones_count(PathSpace(4), 3)) == (1, 2)


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
    # test_decoherence's test_residue_masks_match_string_oracle holds n <= 10
    for n in (11, 12):
        masks = _residue_masks(n)
        for j in range(1 << n):
            r = changes_oracle(n, j) % 4
            assert [(m >> j) & 1 for m in masks] == [int(s == r) for s in range(4)]
    for n in range(1, 25):
        masks = _residue_masks(n)
        assert tuple(m.bit_count() for m in masks) == change_residue_counts(n)
        assert _residue_masks(n) is masks  # cached per horizon


def test_residue_selectors_pick_each_class_from_its_site():
    for n in range(1, 13):
        selectors = _residue_selectors(n)
        for r, selector in enumerate(selectors):
            site = range(r & 1, 1 << n, 2)
            assert list(selector) == [int(changes_oracle(n, j) % 4 == r) for j in site]
        assert _residue_selectors(n) is selectors  # cached per horizon
    for n in (16, 20):
        selectors = _residue_selectors(n)
        assert tuple(s.count(1) for s in selectors) == change_residue_counts(n)
        assert all(len(s) == 1 << (n - 1) for s in selectors)


def test_change_residue_table_range():
    with pytest.raises(ValueError):
        _residue_selectors(0)
    with pytest.raises(ResourceLimitError):
        _residue_selectors(21)
