"""The n-step path space of the two-site walk, with paths packed into ints.

A path sits on site 0 at time 0 and on one of {0, 1} at each of the n later
steps.  The step bits are the big-endian binary digits of the path's index,
so path j literally *is* the integer j and the whole space is range(2**n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ResourceLimitError

MAX_STEPS = 63  # one machine word of step bits
VECTOR_MAX_STEPS = 20  # dense per-index tables stop at 2**20 entries


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


_PLUS_TWO = bytes((r + 2) & 3 for r in range(256))
# _SAME_RESIDUE[r] translates a residue byte to 1 if it equals r, else to 0
_SAME_RESIDUE = tuple(bytes(int(b == r) for b in range(256)) for r in range(4))


@cache
def change_residues(n: int) -> bytes:
    """change_residue(j) for every path j of the n-path space, as one byte each.

    A path of n steps is a first step followed by an (n-1)-step path k.  A
    first step of 0 keeps the change count of k; a first step of 1 adds two
    changes when k starts on site 0 and none when it starts on site 1.  So
    each level is the cached previous level twice over, the site-0 half of
    the upper copy moved two residues on.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > VECTOR_MAX_STEPS:
        raise ResourceLimitError(
            f"dense residue table capped at n <= {VECTOR_MAX_STEPS}; "
            "query change_residue pointwise instead"
        )
    if n == 1:
        return b"\x00\x01"  # path 0 has no change, path 1 one
    prev = change_residues(n - 1)
    half = len(prev) >> 1  # shorter paths below this start on site 0
    return prev + prev[:half].translate(_PLUS_TWO) + prev[half:]


@cache
def _residue_selectors(n: int) -> tuple[bytes, bytes, bytes, bytes]:
    """For each change residue r, one byte per path ending on site r & 1, in
    index order: 1 if its change count is congruent to r mod 4, else 0.

    A path's change-count parity is its end site, so residues r and r + 2
    split the paths of site r & 1, the stride-2 slice of indices starting
    at r & 1.  Made for itertools.compress over that slice; 2 * 2**n bytes
    per horizon, each table one translate of change_residues(n), which
    checks n.
    """
    res = change_residues(n)
    return tuple(res[r & 1 :: 2].translate(_SAME_RESIDUE[r]) for r in range(4))


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
    if space.n > VECTOR_MAX_STEPS:
        raise ResourceLimitError(
            f"dense change-count vector capped at n <= {VECTOR_MAX_STEPS}; "
            "query changes_count pointwise instead"
        )
    return [(j ^ (j >> 1)).bit_count() for j in space.indices()]


def ones_vector(space: PathSpace) -> list[int]:
    if space.n > VECTOR_MAX_STEPS:
        raise ResourceLimitError(
            f"dense ones-count vector capped at n <= {VECTOR_MAX_STEPS}; "
            "query ones_count pointwise instead"
        )
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
