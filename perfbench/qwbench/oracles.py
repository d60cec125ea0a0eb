"""Benchmark-side reference values, computed without calling qwalk.

Every quantity the workloads check reduces to the census of an event: how
many of its paths have a change count congruent to 0, 1, 2 and 3 mod 4.
The oracles here build that census their own way, by appending steps to
paths (or by dynamic programs over appended steps), never through the
library's residue formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

_INC = bytes((r + 1) & 3 for r in range(256))
_CLASS = [bytes(49 if (b == r) else 48 for b in range(256)) for r in range(4)]


def measure_of(census, n: int) -> Fraction:
    """q-measure of any event with this census over horizon n."""
    c0, c1, c2, c3 = census
    return Fraction((c0 - c2) ** 2 + (c1 - c3) ** 2, 1 << n)


def path_changes(bits) -> int:
    """Site changes along a path that starts on site 0 and visits ``bits``."""
    changes, site = 0, 0
    for b in bits:
        changes += b != site
        site = b
    return changes


class ResidueTable:
    """Change-count residues of all 2**n paths, with one bitmask per class."""

    def __init__(self) -> None:
        self._residues: dict[int, bytes] = {1: bytes((0, 1))}
        self._masks: dict[int, tuple[int, int, int, int]] = {}

    def residues(self, n: int) -> bytes:
        """Byte j is the change count of path j, mod 4.

        Path 2j+b appends step b to path j, whose last site is j & 1, so
        even parents keep their residue on a 0-step and odd parents on a
        1-step; the other child gains one change.
        """
        if n not in self._residues:
            prev = self.residues(n - 1)
            even, odd = prev[0::2], prev[1::2]
            out = bytearray(2 * len(prev))
            out[0::4] = even
            out[1::4] = even.translate(_INC)
            out[2::4] = odd.translate(_INC)
            out[3::4] = odd
            self._residues[n] = bytes(out)
        return self._residues[n]

    def masks(self, n: int) -> tuple[int, int, int, int]:
        if n not in self._masks:
            res = self.residues(n)
            self._masks[n] = tuple(int(res.translate(t)[::-1], 2) for t in _CLASS)
        return self._masks[n]

    def census(self, n: int, mask: int) -> tuple[int, int, int, int]:
        return tuple((mask & m).bit_count() for m in self.masks(n))

    def profile(self, n: int) -> tuple[int, int, int, int]:
        res = self.residues(n)
        return tuple(res.count(r) for r in range(4))

    def residue(self, n: int, j: int) -> int:
        return self.residues(n)[j]


def precluded_count(profile, max_card: int | None) -> int:
    """Nonempty events of measure zero: equal counts in classes 0 and 2 and
    in classes 1 and 3, optionally with at most ``max_card`` members."""
    n0, n1, n2, n3 = profile
    if max_card is None:
        return comb(n0 + n2, n0) * comb(n1 + n3, n1) - 1
    total = 0
    for a in range(max_card // 2 + 1):
        for b in range((max_card - 2 * a) // 2 + 1):
            if a or b:
                total += comb(n0, a) * comb(n2, a) * comb(n1, b) * comb(n3, b)
    return total


def census_tables(n_max: int, max_ones: int | None = None) -> list[tuple[int, ...]]:
    """Censuses at levels 1..n_max of all paths with at most ``max_ones``
    steps on site 1 (no limit when None), by one pass of a dynamic program
    over (ones used, residue, last site)."""
    cap = 0 if max_ones is None else max_ones
    # state[t][r][s]: paths with t ones (0 when unlimited), change count
    # congruent to r mod 4, ending on site s
    state = [[[0, 0] for _ in range(4)] for _ in range(cap + 1)]
    state[0][0][0] = 1
    out = []
    for _ in range(n_max):
        nxt = [[[0, 0] for _ in range(4)] for _ in range(cap + 1)]
        for t in range(cap + 1):
            for r in range(4):
                for s in (0, 1):
                    k = state[t][r][s]
                    if not k:
                        continue
                    nxt[t][(r + s) & 3][0] += k  # step to site 0
                    if max_ones is None:
                        nxt[t][(r + 1 - s) & 3][1] += k  # step to site 1
                    elif t < cap:
                        nxt[t + 1][(r + 1 - s) & 3][1] += k
        state = nxt
        out.append(tuple(sum(state[t][r][s] for t in range(cap + 1) for s in (0, 1)) for r in range(4)))
    return out


def prefix_census(paths, n: int) -> tuple[int, int, int, int]:
    """Census of the distinct length-n prefixes of eventually-constant paths,
    each given as (prefix bits, repeated bit)."""
    prefixes = {tuple(bits[:n]) + (rep,) * max(0, n - len(bits)) for bits, rep in paths}
    counts = [0, 0, 0, 0]
    for bits in prefixes:
        counts[path_changes(bits) & 3] += 1
    return tuple(counts)


def layered_integral(values, residues: bytes, n: int) -> Fraction:
    """Quantum integral by the trace identity: each slab between adjacent
    levels of the positive (negative) part weighs the measure of the paths
    whose value reaches it."""
    scale = lcm(*{v.denominator for v in values})
    ints = [int(v * scale) for v in values]
    total = 0
    for sign in (1, -1):
        order = sorted((j for j, v in enumerate(ints) if sign * v > 0), key=lambda j: -sign * ints[j])
        counts = [0, 0, 0, 0]
        for pos, j in enumerate(order):
            counts[residues[j]] += 1
            level = sign * ints[j]
            below = sign * ints[order[pos + 1]] if pos + 1 < len(order) else 0
            if below != level:
                q = (counts[0] - counts[2]) ** 2 + (counts[1] - counts[3]) ** 2
                total += sign * (level - below) * q
    return Fraction(total, scale << n)

