"""Independent brute-force oracles shared by the test modules.

Everything here recomputes walk quantities from the literal site strings,
character by character, or, where the strings are too many to list, by
counting them in closed form, so agreement with the library is a genuine
cross-check rather than the same arithmetic twice.
"""

from fractions import Fraction
from math import comb


def site_string(n: int, j: int) -> str:
    return "0" + bin(j)[2:].zfill(n)


def changes_oracle(n: int, j: int) -> int:
    s = site_string(n, j)
    return sum(a != b for a, b in zip(s, s[1:]))


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


def census_mu_oracle(census, n: int) -> Fraction:
    """q-measure of an event from its residue census: pairs of members on the
    same final site add +1 when their change counts agree mod 4, -1 when
    they differ by 2."""
    c0, c1, c2, c3 = census
    return Fraction((c0 - c2) ** 2 + (c1 - c3) ** 2, 1 << n)
