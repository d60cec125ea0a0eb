"""Independent brute-force oracles shared by the test modules.

Everything here recomputes walk quantities from the literal site strings,
by counting characters and substrings in them, or, where the strings are
too many to list, by counting them in closed form, so agreement with the
library is a genuine cross-check rather than the same arithmetic twice.  The set-system
references at the end walk member triples by index, or decide the grade-2
identity on a power set through the Moebius inverse; the last one decides
positive-semidefiniteness by elimination in rationals.  After them come the
pair sweep run to its last level with no early exit, the first level of an
at-most-k hull past a member cap by a scan of every level, and the
stays-nowhere complement's term from censuses.
"""

from fractions import Fraction
from functools import cache
from math import comb


def site_string(n: int, j: int) -> str:
    return "0" + bin(j)[2:].zfill(n)


def changes_oracle(n: int, j: int) -> int:
    """Adjacent unequal site pairs of the site string: each is an "01" or a
    "10", and neither pattern can overlap itself, so str.count finds all."""
    s = site_string(n, j)
    return s.count("01") + s.count("10")


def ones_oracle(n: int, j: int) -> int:
    return site_string(n, j).count("1")


def entry_sign_oracle(n: int, j: int, k: int) -> int:
    sj, sk = site_string(n, j), site_string(n, k)
    if sj[-1] != sk[-1]:
        return 0
    return 1 if (changes_oracle(n, j) - changes_oracle(n, k)) % 4 == 0 else -1


def mu_oracle(n: int, members) -> Fraction:
    members = list(members)
    total = sum(entry_sign_oracle(n, j, k) for j in members for k in members)
    return Fraction(total, 1 << n)


def at_most_census_oracle(n: int, k: int) -> tuple[int, int, int, int]:
    """Change-count residues of the n-step paths with at most k ones, by runs.

    The ones of such a path are a t-subset of the n steps; with r maximal
    runs it changes site 2r times, one fewer if step n is in the subset.
    C(t-1, r-1) * C(n-t, r-1) of the t-subsets with r runs hold step n and
    C(t-1, r-1) * C(n-t, r) do not.
    """
    counts = [1, 0, 0, 0]  # the all-zeros path
    for t in range(1, min(k, n) + 1):
        for r in range(1, t + 1):
            ways = comb(t - 1, r - 1)
            counts[(2 * r - 1) % 4] += ways * comb(n - t, r - 1)
            counts[(2 * r) % 4] += ways * comb(n - t, r)
    return tuple(counts)


@cache
def whole_space_census_oracle(n: int) -> tuple[int, int, int, int]:
    """Change-count residues of all n-step paths, by binomials: step i
    changes site iff its bit differs from step i - 1's (site 0 before step
    1), so the change steps are n free bits and C(n, c) paths change c
    times."""
    counts = [0, 0, 0, 0]
    for c in range(n + 1):
        counts[c % 4] += comb(n, c)
    return tuple(counts)


def census_of_indices_oracle(n: int, indices) -> tuple[int, int, int, int]:
    """Census of explicit member indices, by string-scanned change counts."""
    counts = [0, 0, 0, 0]
    for j in indices:
        counts[changes_oracle(n, j) % 4] += 1
    return tuple(counts)


def census_mu_oracle(census, n: int) -> Fraction:
    """q-measure of an event from its residue census: pairs of members on the
    same final site add +1 when their change counts agree mod 4, -1 when
    they differ by 2."""
    c0, c1, c2, c3 = census
    return Fraction((c0 - c2) ** 2 + (c1 - c3) ** 2, 1 << n)


@cache
def entry_signs_table(n: int) -> tuple[tuple[int, ...], ...]:
    """entry_sign_oracle(n, j, k) for every pair of paths, scanned once per
    horizon."""
    size = 1 << n
    return tuple(tuple(entry_sign_oracle(n, j, k) for k in range(size)) for j in range(size))


def integral_double_sum_oracle(n: int, values) -> Fraction:
    """Quantum integral of values Fraction() accepts, by the literal double
    sum over pairs of paths of min(f_j, f_k) times the string-scanned entry
    sign, through the canonical positive/negative split.  Paths where a
    part is zero add nothing to that part's sum and are left out of it."""
    values = [Fraction(v) for v in values]
    signs = entry_signs_table(n)

    def double_sum(part):
        support = [(j, v) for j, v in enumerate(part) if v]
        acc = Fraction(0)
        for j, vj in support:
            row = signs[j]
            for k, vk in support:
                if row[k]:
                    acc += min(vj, vk) * row[k]
        return acc

    pos = [v if v > 0 else 0 for v in values]
    neg = [-v if v < 0 else 0 for v in values]
    return (double_sum(pos) - double_sum(neg)) / (1 << n)


@cache
def changes_table(n: int) -> tuple[int, ...]:
    """changes_oracle(n, j) for every path j, scanned once per horizon."""
    return tuple(changes_oracle(n, j) for j in range(1 << n))


def layered_integral_oracle(n: int, values) -> Fraction:
    """Quantum integral of int or Fraction values by the trace identity.

    Each part (the values above zero, and the negated values below it) is
    a stack of slabs between its distinct levels; a slab adds its thickness
    times the q-measure of the paths whose value reaches it, taken from
    their census of string-scanned change counts mod 4.
    """
    parts: tuple[dict, dict] = ({}, {})  # (num, den) of a level -> census
    for v, changes in zip(values, changes_table(n)):
        num, den = v.numerator, v.denominator
        if num:
            level = (num, den) if num > 0 else (-num, den)
            parts[num < 0].setdefault(level, [0, 0, 0, 0])[changes % 4] += 1
    total = Fraction(0)
    for sign, part in zip((1, -1), parts):
        at_level = {Fraction(*level): census for level, census in part.items()}
        levels = sorted(at_level, reverse=True)
        reach = [0, 0, 0, 0]
        for level, lower in zip(levels, levels[1:] + [Fraction(0)]):
            reach = [a + b for a, b in zip(reach, at_level[level])]
            total += sign * (level - lower) * census_mu_oracle(reach, n)
    return total


@cache
def precluded_masks_by_gray_walk(n: int) -> tuple[int, ...]:
    """Masks of every nonempty null event of the n-path space, in Gray order.

    Walks all 2**(2**n) subsets, toggling one path per step, and keeps the
    census of string-scanned change counts mod 4 up to date.
    """
    size = 1 << n
    residue = [changes % 4 for changes in changes_table(n)]
    counts = [0, 0, 0, 0]
    found = []
    prev = 0
    for t in range(1, 1 << size):
        g = t ^ (t >> 1)
        flipped = g ^ prev
        j = flipped.bit_length() - 1
        counts[residue[j]] += 1 if g & flipped else -1
        prev = g
        if (counts[0] - counts[2]) ** 2 + (counts[1] - counts[3]) ** 2 == 0:
            found.append(g)
    return tuple(found)


def mask_by_or_loop(indices) -> int:
    """The membership mask of the path indices, one OR of 1 << j per member:
    quadratic in the mask width, so kept to sparse lists past n = 20."""
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def refined_mask_by_members(mask: int, level: int, to_level: int) -> int:
    """The level-`to_level` base of the cylinder with the level-`level` base
    `mask`: each member j becomes the block of 2**extra paths j << extra
    onwards, ORed in one member at a time."""
    extra = to_level - level
    block = (1 << (1 << extra)) - 1
    out = 0
    for j in range(1 << level):
        if mask >> j & 1:
            out |= block << (j << extra)
    return out


def qualifying_triples_by_member_loop(members) -> list[tuple[int, int, int]]:
    """Triples a < b < c of nonempty members, mutually disjoint with all three
    pairwise unions members, by nested index loops over the sorted members."""
    member_set = set(members)
    nonempty = sorted(m for m in member_set if m)
    out = []
    for ai, a in enumerate(nonempty):
        for bi in range(ai + 1, len(nonempty)):
            b = nonempty[bi]
            if a & b or (a | b) not in member_set:
                continue
            for c in nonempty[bi + 1:]:
                if not c & (a | b) and (a | c) in member_set and (b | c) in member_set:
                    out.append((a, b, c))
    return out


def grade2_by_moebius(universe_size: int, values) -> bool:
    """Whether a set function on the whole power set (values[mask]) is a
    grade-2 measure: it vanishes on the empty set and its Moebius inverse
    vanishes on every set of three or more elements (Sorkin, Mod. Phys.
    Lett. A 9 (1994) 3119).  The inverse comes from the subset-sum
    transform, one pass per element."""
    inverse = list(values)
    for e in range(universe_size):
        bit = 1 << e
        for mask in range(1 << universe_size):
            if mask & bit:
                inverse[mask] -= inverse[mask ^ bit]
    return inverse[0] == 0 and all(
        not v for mask, v in enumerate(inverse) if mask.bit_count() >= 3
    )


def psd_by_fraction_ldl(gram) -> bool:
    """Whether a small symmetric integer matrix is PSD, by an LDL^T
    factorization in exact rationals with no pivoting: a negative pivot, or
    a zero pivot with a nonzero entry left in its column, means not PSD,
    and a positive pivot leaves the Schur complement of its row."""
    m = [[Fraction(x) for x in row] for row in gram]
    k = len(m)
    for step in range(k):
        d = m[step][step]
        if d < 0:
            return False
        if d == 0:
            if any(m[r][step] for r in range(step + 1, k)):
                return False
            continue
        for r in range(step + 1, k):
            f = m[r][step] / d
            if f:
                for c in range(step + 1, k):
                    m[r][c] -= f * m[step][c]
    return True


def sweep_every_level(moves, start, n_max: int) -> tuple[list, dict]:
    """The step automaton's signed census pairs (c0 - c2, c1 - c3) at levels
    1..n_max, and the last level's pair per live state, by stepping every
    live state through every level: a 0-step carries (u, v) to (u - v, 0)
    and a 1-step to (0, u + v)."""
    levels = []
    live = {start: (1, 0)}
    for _ in range(n_max):
        grown = {}
        for s, (u, v) in live.items():
            for bit, carried in enumerate(((u - v, 0), (0, u + v))):
                t = moves[s][bit]
                if t is not None:
                    a, b = grown.get(t, (0, 0))
                    grown[t] = (a + carried[0], b + carried[1])
        live = grown
        levels.append((sum(u for u, _ in live.values()), sum(v for _, v in live.values())))
    return levels, live


def first_level_past_cap(k: int, n_max: int, cap: int) -> int | None:
    """The least level n <= n_max whose at-most-k hull, C(n, 0) + ... +
    C(n, min(k, n)) paths, has more than `cap` members, by a scan of every
    level, or None."""
    for n in range(1, n_max + 1):
        if sum(comb(n, t) for t in range(min(k, n) + 1)) > cap:
            return n
    return None


def stays_nowhere_complement_oracle(n: int) -> Fraction:
    """The level-n term of the event of every path but the one that never
    leaves site 0: the whole space's census less that path's."""
    census = zip(whole_space_census_oracle(n), census_of_indices_oracle(n, (0,)))
    return census_mu_oracle(tuple(f - c for f, c in census), n)
