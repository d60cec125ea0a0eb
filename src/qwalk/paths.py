"""The n-step path space of the two-site walk, with paths packed into ints.

A path sits on site 0 at time 0 and on one of {0, 1} at each of the n later
steps.  The step bits are the big-endian binary digits of the path's index,
so path j literally *is* the integer j and the whole space is range(2**n).

A path's change residue, its change count mod 4, splits over blocks of
steps.  With hi its first n - B steps, lo its last B and h = hi & 1 the
site lo starts from,

    residue(hi << B | lo) = (residue(hi) + popcount(lo ^ (lo >> 1) ^ (h << (B - 1)))) & 3,

so one ordering of the 2**B low parts per h lays out every block of 2**B
consecutive paths by residue class, at any horizon (`_class_segments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain
from operator import itemgetter

from .errors import charge

MAX_STEPS = 63  # a limit of the representation: one machine word of step bits


@dataclass(frozen=True)
class PathSpace:
    """Time horizon of the walk; indexes the 2**n paths as 0 .. 2**n - 1."""

    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_STEPS:
            raise ValueError(f"path space needs 1 <= n <= {MAX_STEPS}, got {self.n}")

    @property
    def size(self) -> int:
        return 1 << self.n

    def check_index(self, j: int) -> int:
        if j < 0 or j >> self.n:
            raise ValueError(f"path index {j} out of range for n={self.n}")
        return j

    def indices(self) -> range:
        return range(self.size)


def changes_count(space: PathSpace, j: int) -> int:
    """Number of site changes along path j (adjacent unequal step pairs).

    The implicit leading 0 at time 0 is part of the string, so the count
    includes a change whenever the first step bit is 1.
    """
    space.check_index(j)
    return (j ^ (j >> 1)).bit_count()


def change_residue(j: int) -> int:
    """Change count of the path with index j, mod 4 (no range check)."""
    return (j ^ (j >> 1)).bit_count() & 3


@cache
def _residue_masks(n: int) -> tuple[int, int, int, int]:
    """The n-path space split by change count mod 4, as four membership masks.

    Bit j of mask r is set iff path j has change count congruent to r.  A
    path of n steps is a first step followed by an (n-1)-step path k.  A
    first step of 0 leaves the change count of k as it is.  A first step of
    1 adds two changes when k starts on site 0 and none when it starts on
    site 1.  So each level is the cached previous level's masks twice over,
    the upper copy with its site-0 half moved two residues on; no path is
    visited.  Callers pass the n of a checked event, whose 2**n-bit mask was
    charged, or of a charged per-path table.
    """
    if n == 1:
        return (0b01, 0b10, 0, 0)  # path 0 has no change, path 1 one
    prev = _residue_masks(n - 1)
    low = (1 << (1 << (n - 2))) - 1  # shorter paths below this start on site 0
    shift = 1 << (n - 1)
    return tuple(
        prev[r] | (((prev[(r - 2) & 3] & low) | (prev[r] & ~low)) << shift)
        for r in range(4)
    )


# The low steps of a path that one cached layout orders by residue class:
# a block of 2**_BLOCK paths shares its high steps.
_BLOCK = 12


@cache
def _layout(m: int, h: int):
    """An itemgetter that orders the 2**m positions lo of a block by
    t = popcount(lo ^ (lo >> 1) ^ (h << (m - 1))) & 3, index order within
    each t, and the three positions where t steps up.  Held for m <= _BLOCK
    only: under 0.4 MiB in all, whatever the horizon.
    """
    top = h << (m - 1)
    t = [(lo ^ (lo >> 1) ^ top).bit_count() & 3 for lo in range(1 << m)]
    order = sorted(range(1 << m), key=t.__getitem__)
    return itemgetter(*order), tuple(accumulate(map(t.count, range(3))))


def _segments(block, m: int, h: int, o: int):
    """The block's values in four class segments, each with its residue."""
    get, (a, b, c) = _layout(m, h)
    gathered = get(block)
    return (
        (o & 3, gathered[:a]),
        (o + 1 & 3, gathered[a:b]),
        (o + 2 & 3, gathered[b:c]),
        (o + 3 & 3, gathered[c:]),
    )


def _class_segments(vals, n: int):
    """The 2**n per-path values laid out by change residue: an iterable of
    (r, segment) pairs whose segments hold, between them, the value of each
    path exactly once, in a segment of its residue r.

    By the block identity of the module docstring, with B = min(n, _BLOCK),
    the block of the 2**B paths that share their first n - B steps hi is
    gathered into four contiguous t-segments by the layout for h = hi & 1,
    and segment t holds residue (o + t) & 3, o the residue of hi.  For
    n <= _BLOCK that is one gather of the whole vector; above it, the
    blocks are gathered one at a time as the pairs are read, so no
    per-horizon table is held.
    """
    if n < 1 or len(vals) != 1 << n:
        raise ValueError(f"need 2**n values for n >= 1, got {len(vals)} for n={n}")
    if n <= _BLOCK:
        return _segments(vals, n, 0, 0)
    return chain.from_iterable(
        _segments(vals[hi << _BLOCK : hi + 1 << _BLOCK], _BLOCK, hi & 1, change_residue(hi))
        for hi in range(1 << n - _BLOCK)
    )


def ones_count(space: PathSpace, j: int) -> int:
    """Number of steps path j spends on site 1."""
    space.check_index(j)
    return j.bit_count()


def same_parity(space: PathSpace, j: int, k: int) -> bool:
    """True iff paths j and k end on the same site (equal last bits)."""
    space.check_index(j)
    space.check_index(k)
    return ((j ^ k) & 1) == 0


def changes_vector(space: PathSpace) -> list[int]:
    charge(16 << space.n, f"change-count vector at n={space.n}")
    return [(j ^ (j >> 1)).bit_count() for j in space.indices()]


def ones_vector(space: PathSpace) -> list[int]:
    charge(16 << space.n, f"ones-count vector at n={space.n}")
    return [j.bit_count() for j in space.indices()]


def change_residue_counts(n: int) -> tuple[int, int, int, int]:
    """How many of the 2**n paths have change count congruent to 0,1,2,3 mod 4.

    One appended step either keeps or flips the end site, so each residue
    class inherits from itself and its predecessor: profile[r] gains
    profile[r-1] per step, starting from (1, 0, 0, 0) at n=0.  The end-site
    parity equals the change-count parity, which is why this single profile
    also splits the space by final site (even residues = ended on 0).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    *_, v = change_residue_count_levels(n)
    return v


def change_residue_count_levels(n_max: int):
    """change_residue_counts(n) for n = 1..n_max, one appended step apart."""
    v = (1, 0, 0, 0)
    for _ in range(n_max):
        v = (v[0] + v[3], v[1] + v[0], v[2] + v[1], v[3] + v[2])
        yield v
