import sys

import pytest

from qwalk.errors import ResourceLimitError
from qwalk.paths import (
    PathSpace,
    _class_segments,
    _layout,
    _residue_masks,
    change_residue,
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


def landings(n: int, vals) -> list[list[int]]:
    """For each residue r, the values that the class segments put at r."""
    out = [[], [], [], []]
    for r, segment in _class_segments(vals, n):
        out[r].extend(segment)
    return out


def test_class_segments_pick_each_class_from_the_strings():
    # each segment holds only paths of its residue, in index order; below
    # the block width that is one gather of the whole space, four segments
    for n in range(1, 13):
        want = [[], [], [], []]
        for j in range(1 << n):
            want[changes_oracle(n, j) % 4].append(j)
        assert landings(n, tuple(range(1 << n))) == want
        assert len(_class_segments(tuple(range(1 << n)), n)) == 4


@pytest.mark.parametrize("n", range(1, 17))
def test_class_segments_land_every_path_once(n):
    # across the block boundary: every index once, in a segment of its
    # change residue, and the classes' sizes are the residue profile
    seen = landings(n, tuple(range(1 << n)))
    assert sorted(j for segment in seen for j in segment) == list(range(1 << n))
    assert landings(n, range(1 << n)) == seen == [sorted(members) for members in seen]
    for r, members in enumerate(seen):
        assert all(change_residue(j) == r for j in members)
    assert tuple(map(len, seen)) == change_residue_counts(n)


def test_class_segments_count_the_residue_profile_at_n20():
    sizes = [0, 0, 0, 0]
    for r, segment in _class_segments((1,) * (1 << 20), 20):
        sizes[r] += sum(segment)
    assert tuple(sizes) == change_residue_counts(20)


def test_change_residue_table_range():
    with pytest.raises(ValueError):
        _class_segments((0,), 0)
    for n, size in ((3, 7), (3, 9), (13, 1 << 12), (20, 1 << 19)):
        with pytest.raises(ValueError):
            _class_segments((0,) * size, n)
    # the held layouts do not grow with the horizon: one per width up to
    # the block width and a second at the block width, each under 1 MiB
    # with the index objects it holds
    for n in (14, 16, 18):
        for _ in _class_segments((0,) * (1 << n), n):
            pass
    assert _layout.cache_info().currsize <= 13
    for m, h in [(m, 0) for m in range(1, 13)] + [(12, 1)]:
        getter = _layout(m, h)[0]
        assert _layout(m, h)[0] is getter  # cached per width
        items = getter.__reduce__()[1]  # the positions the getter holds
        assert sorted(items) == list(range(1 << m))
        assert sys.getsizeof(items) + sum(map(sys.getsizeof, items)) < 1 << 20
