"""The n-step path space of the two-site walk, with paths packed into ints.

A path sits on site 0 at time 0 and on one of {0, 1} at each of the n later
steps.  The step bits are the big-endian binary digits of the path's index,
so path j literally *is* the integer j and the whole space is range(2**n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@cache
def _residue_selectors(n: int) -> tuple[bytes, bytes, bytes, bytes]:
    """For each change residue r, one byte per path ending on site r & 1, in
    index order: 1 if its change count is congruent to r mod 4, else 0.

    A path's change-count parity is its end site, so residues r and r + 2
    split the paths of site r & 1, the stride-2 slice of indices starting
    at r & 1.  Made for itertools.compress over that slice.  Each table is
    the binary digits of residue mask r, read from the lowest bit up;
    charged as the per-path table its readers hold beside it, 16 units per
    path.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    charge(16 << n, f"residue table at n={n}")
    top = (1 << n) - 1  # the digit of path j is at position top - j
    return tuple(
        format(mask, f"0{top + 1}b")[top - (r & 1) :: -2].encode().translate(_BINARY_DIGITS)
        for r, mask in enumerate(_residue_masks(n))
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
