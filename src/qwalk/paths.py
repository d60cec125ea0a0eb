"""The n-step path space of the two-site walk, with paths packed into ints.

A path sits on site 0 at time 0 and on one of {0, 1} at each of the n later
steps.  The step bits are the big-endian binary digits of the path's index,
so path j literally *is* the integer j and the whole space is range(2**n).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not 0 <= j < self.size:
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


def path_string(space: PathSpace, j: int) -> str:
    """The full site string of path j, leading time-0 zero included."""
    space.check_index(j)
    return "0" + format(j, f"0{space.n}b")


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
