"""The quantum integral of a random variable against the truncated measure.

A variable holds its values as integer numerators over one common
denominator.  Three equivalent evaluation routes are kept deliberately
separate:

* DEFINITION -- the double sum of pairwise minima against entries, taken
                over distinct values: entries between paths on different
                end sites are zero, so each end site is summed on its own.
                On site p an entry is +1 within a change-residue class (p
                or p + 2) and -1 across them, so each distinct value of a
                part carries one weight, its paths of residue p less those
                of residue p + 2, and each pair of values adds its minimum
                times the two weights
* TRACE      -- the layered sum over super-level sets: each slab of values
                contributes its thickness times the measure of the set of
                paths reaching it (the trace identity), so the min matrix is
                never materialized
* EIGEN      -- the two eigenvector quadratic forms, each computed by the
                same layering restricted to one end-site parity

The measure of a set of paths depends only on its census of change-count
residues mod 4, so both fast routes read one set of class counts per call:
for each residue r, how many paths of residue r carry each nonzero
numerator.  Zeros are never counted.  Signed variables split canonically
into positive and negative parts before any route runs: the levels above
and below zero.  All values are exact rationals throughout.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections import _count_elements
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, pairwise, product
from math import gcd, lcm

from .decoherence import DecoherenceState, Event
from .errors import BUDGET, charge
from .paths import (
    PathSpace,
    _residue_selectors,
    change_residue,
    changes_vector,
    ones_vector,
)


class IntegralStrategy(Enum):
    DEFINITION = "definition"
    TRACE = "trace"
    EIGEN = "eigen"


@dataclass(frozen=True)
class RandomVariable:
    """An exact-rational-valued function on the n-path space.

    Path j has the value numerators[j] / denominator.  The form is
    canonical -- denominator >= 1 and gcd(denominator, *numerators) == 1,
    restored on construction -- so equal values mean equal variables.
    """

    space: PathSpace
    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        units = 16 << self.space.n  # one numerator per path
        if units > BUDGET:  # charge's test, inline on this hot path
            charge(units, f"random variable at n={self.space.n}")
        if len(self.numerators) != self.space.size:
            raise ValueError("value vector length must be 2**n")
        if self.denominator < 1:
            raise ValueError("denominator must be at least 1")
        g = gcd(self.denominator, *self.numerators)
        if g > 1:
            object.__setattr__(self, "numerators", tuple(v // g for v in self.numerators))
            object.__setattr__(self, "denominator", self.denominator // g)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions, built anew on every access: O(2**n).

        One Fraction per distinct numerator, shared by the paths that carry it.
        """
        den = self.denominator
        table = {v: Fraction(v, den) for v in set(self.numerators)}
        return tuple(map(table.__getitem__, self.numerators))

    @classmethod
    def from_values(cls, space: PathSpace, values) -> "RandomVariable":
        """Accepts anything Fraction() does; ints and Fractions pass as they are."""
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
        den = lcm(*{v.denominator for v in values})
        return cls(
            space, tuple(v.numerator * (den // v.denominator) for v in values), den
        )

    @classmethod
    def ones(cls, space: PathSpace) -> "RandomVariable":
        return cls(space, tuple(ones_vector(space)))

    @classmethod
    def changes(cls, space: PathSpace) -> "RandomVariable":
        return cls(space, tuple(changes_vector(space)))

    @classmethod
    def indicator(cls, event: Event) -> "RandomVariable":
        bits = format(event.mask, f"0{event.space.size}b")[::-1]  # bit j at index j
        return cls(event.space, tuple(map(int, bits)))

    @classmethod
    def constant(cls, space: PathSpace, value) -> "RandomVariable":
        value = Fraction(value)
        return cls(space, (value.numerator,) * space.size, value.denominator)

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.numerators) if v)

    def _over(self, denominator: int) -> list[int]:
        """The numerators over a multiple of this variable's denominator."""
        factor = denominator // self.denominator
        return [v * factor for v in self.numerators]

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        if self.space != other.space:
            raise ValueError("variables over different path spaces")
        den = lcm(self.denominator, other.denominator)
        return RandomVariable(
            self.space,
            tuple(a + b for a, b in zip(self._over(den), other._over(den))),
            den,
        )

    def scale(self, alpha) -> "RandomVariable":
        alpha = Fraction(alpha)
        return RandomVariable(
            self.space,
            tuple(alpha.numerator * v for v in self.numerators),
            alpha.denominator * self.denominator,
        )


def _site_sum(weights: dict[int, int]) -> int:
    """Double sum of min(x, y) * w_x * w_y over the distinct values x, y of
    one part on one end site, given as a map from value x to weight w_x.

    On site p a pair of paths has sign +1 within a residue class and -1
    across: the product of their class signs, +1 at residue p and -1 at
    p + 2.  Its minimum depends only on the two values, so the paths of
    value x enter together, weighted by the sum of their class signs.  Zero
    weights add nothing and are skipped.  The values are grouped by weight
    so that the innermost loop only adds minima: with every value distinct
    the weights are all +-1, and a pair costs what it did summed path by
    path.  Each value is popped in turn and met with the values not yet
    popped: each unordered pair of distinct values is taken once and
    counted twice, and each diagonal term once.
    """
    by_weight: dict[int, list[int]] = {}
    for x, w in weights.items():
        if w:
            by_weight.setdefault(w, []).append(x)
    groups = list(by_weight.items())
    total = 0
    while groups:
        w, xs = groups[-1]
        x = xs.pop()
        if not xs:
            groups.pop()
        later = 0  # min(x, y) * w_y over the values y not yet popped
        for u, ys in groups:
            mins = 0
            for y in ys:
                mins += x if x < y else y
            later += u * mins
        total += w * (x * w + 2 * later)
    return total


def _definition(vals) -> int:
    """The DEFINITION route's integer sum: positive part less negative part.

    Paths ending on different sites have sign 0, so each end site's support
    is summed on its own.  One pass over the site's paths gives each
    distinct value of each part its weight: +1 for each path of that value
    at residue p, -1 for each at p + 2.  Then each part's pairwise minima
    are summed over its distinct values: at most d**2 inner steps for d of
    them, charged before any is taken.  Independent of the class counts and
    level tables the other two routes read.
    """
    parts = []
    for site in (0, 1):
        pos: dict[int, int] = {}
        neg: dict[int, int] = {}
        for j in range(site, len(vals), 2):
            if v := vals[j]:
                sign = 1 - (change_residue(j) & 2)  # +1 at residue p, -1 at p + 2
                if v > 0:
                    pos[v] = pos.get(v, 0) + sign
                else:
                    neg[-v] = neg.get(-v, 0) + sign
        parts += (pos, neg)
    charge(sum(len(part) ** 2 for part in parts), "definition-route double sum")
    pos0, neg0, pos1, neg1 = map(_site_sum, parts)
    return pos0 - neg0 + pos1 - neg1


def _class_counts(vals, n: int) -> list[dict[int, int]]:
    """For each change residue r, how many paths of residue r carry each
    nonzero numerator.

    Residue r lives on site r & 1, so its selector picks from that site's
    stride-2 slice.  Zeros are filtered out in C before any counting, and no
    (value, residue) tuple is built.  The counts go into plain dicts through
    the C loop that fills a Counter, without Counter's per-call type checks:
    four Counters cost more than the whole count at the suite's tiny n.
    """
    sites = (vals[0::2], vals[1::2])
    out = []
    for r, selector in enumerate(_residue_selectors(n)):
        counts: dict[int, int] = {}
        _count_elements(counts, filter(None, compress(sites[r & 1], selector)))
        out.append(counts)
    return out


def _levels(keys: set[int]) -> tuple[list[int], list[int]]:
    """The nonzero levels of both parts, each in decreasing magnitude and
    ending in 0: the positive numerators descending, then the negative
    ones ascending.  One sort of the key set, split at zero."""
    neg = sorted(keys)
    split = bisect(neg, 0)
    pos = neg[split:]
    pos.reverse()
    del neg[split:]
    pos.append(0)
    neg.append(0)
    return pos, neg


# A slab from level v down to the next level w toward zero adds
# (v - w) * q, where q is 2**n times the measure of the paths reaching v:
# for the positive part v - w is its thickness, and for the negative part
# it is minus the thickness of the negated slab, the part's sign.  Zero is
# never a class-count key, so the closing 0 level adds nothing.


def _trace(class_counts: list[dict[int, int]]) -> int:
    """Layered evaluation of both parts: slab thickness times the squared
    census sums (c0 - c2, c1 - c3) of the paths whose value reaches the
    slab, the negative part's layers subtracted from the positive part's.
    The levels are the keys of the four class counts, read with dict.get."""
    c0, c1, c2, c3 = class_counts
    g0, g1, g2, g3 = c0.get, c1.get, c2.get, c3.get
    total = 0
    for levels in _levels({*c0, *c1, *c2, *c3}):
        even = odd = 0
        for v, lower in pairwise(levels):
            even += g0(v, 0) - g2(v, 0)
            odd += g1(v, 0) - g3(v, 0)
            total += (v - lower) * (even * even + odd * odd)
    return total


def _eigen(class_counts: list[dict[int, int]]) -> int:
    """Per-parity layered quadratic forms of the two eigenvectors.

    Residue parity is the end site, so parity p owns residues p and p + 2,
    and each parity has its own level structure.  The running unit-power sum
    of a parity is real for even endings and purely imaginary for odd ones,
    so one signed accumulator per parity gives its squared magnitude.  The
    levels are the keys of the parity's two class counts, read with
    dict.get.
    """
    total = 0
    for parity in (0, 1):
        low, high = class_counts[parity], class_counts[parity + 2]
        get_low, get_high = low.get, high.get
        for levels in _levels({*low, *high}):
            amplitude = 0
            for v, lower in pairwise(levels):
                amplitude += get_low(v, 0) - get_high(v, 0)
                total += (v - lower) * amplitude * amplitude
    return total


def integral(
    state: DecoherenceState,
    variable: RandomVariable,
    strategy: IntegralStrategy = IntegralStrategy.TRACE,
) -> Fraction:
    """The quantum integral of the variable, by the requested route."""
    if variable.space is not state.space and variable.space != state.space:
        raise ValueError("variable lives over a different path space")
    n = state.space.n
    vals = variable.numerators
    if strategy is IntegralStrategy.DEFINITION:
        raw = _definition(vals)
    elif strategy is IntegralStrategy.TRACE or strategy is IntegralStrategy.EIGEN:
        route = _trace if strategy is IntegralStrategy.TRACE else _eigen
        raw = route(_class_counts(vals, n))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return Fraction(raw, variable.denominator << n)


# -- min-matrix structure ------------------------------------------------------


def min_matrix_entry(variable: RandomVariable, i: int, j: int) -> Fraction:
    """Entry (i, j) of the variable's min matrix, through the canonical split."""
    return Fraction(_min_hat(variable.numerators, i, j), variable.denominator)


def _min_hat(vec, i: int, j: int) -> int:
    """min(pos_i, pos_j) - min(neg_i, neg_j) of an integer vector."""
    vi, vj = vec[i], vec[j]
    pi, mi = (vi, 0) if vi > 0 else (0, -vi)
    pj, mj = (vj, 0) if vj > 0 else (0, -vj)
    return min(pi, pj) - min(mi, mj)


def _min_hat_row(vec: list[int], i: int) -> list[int]:
    """Row i of the min matrix of an integer vector: _min_hat(vec, i, j) for
    every j.  A positive v_i meets only the positive part of the row, a
    negative one only the negative part, and a zero v_i meets neither."""
    vi = vec[i]
    if vi > 0:
        return [(v if v < vi else vi) if v > 0 else 0 for v in vec]
    if vi < 0:
        return [(v if v > vi else vi) if v < 0 else 0 for v in vec]
    return [0] * len(vec)


def _exact_determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Fraction Gaussian elimination with partial pivoting (independent of
    the telescoping shortcut it is used to confirm)."""
    m = [row[:] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = m[r][col] / pivot
            if factor:
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
    return det


def min_matrix_det_check(values) -> bool:
    """Confirm the telescoping determinant of a sorted min matrix.

    For nonnegative sorted a_1 <= ... <= a_m, the matrix of pairwise minima
    has determinant a_1 * (a_2 - a_1) * ... * (a_m - a_{m-1}); the left side
    is recomputed by exact elimination, at most m**3 Fraction steps for m
    values.
    """
    vals = [Fraction(v) for v in values]
    charge(16 * len(vals) ** 3, f"min-matrix check of {len(vals)} values")
    if not vals:
        raise ValueError("need at least one value")
    if any(v < 0 for v in vals):
        raise ValueError("min-matrix values must be nonnegative")
    if any(a > b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be sorted ascending")
    matrix = [[min(a, b) for b in vals] for a in vals]
    telescoped = vals[0]
    for a, b in zip(vals, vals[1:]):
        telescoped *= b - a
    return _exact_determinant(matrix) == telescoped


def psd_check(variable: RandomVariable) -> bool:
    """Exact positive-semidefiniteness of a nonnegative variable's min matrix.

    Every leading principal minor is the telescoped determinant of the
    sorted leading values, so each is a product of nonnegative gaps; the
    check computes them all the same (a duplicate or zero forces every
    later minor to zero, which shortcuts the scan): m**2 steps for m values.
    """
    if any(v < 0 for v in variable.numerators):
        raise ValueError("psd check needs a nonnegative variable")
    charge(variable.space.size**2, f"psd check of {variable.space.size} values")
    # the minors of the numerators have the signs of the minors of the values
    prefix: list[int] = []
    saw_zero_minor = False
    for v in variable.numerators:
        insort(prefix, v)
        if saw_zero_minor:
            continue
        minor = prefix[0]
        for a, b in zip(prefix, prefix[1:]):
            minor *= b - a
        if minor < 0:
            return False
        if minor == 0:
            saw_zero_minor = True
    return True


def disjoint_support_grade2_check(
    state: DecoherenceState,
    f: RandomVariable,
    g: RandomVariable,
    h: RandomVariable,
) -> bool:
    """For disjointly supported variables, confirm both grade-2 identities:
    the min-matrix identity entry by entry, and the integral identity."""
    for rv in (f, g, h):
        if rv.space != state.space:
            raise ValueError("variable lives over a different path space")
    sf, sg, sh = (set(rv.support()) for rv in (f, g, h))
    if sf & sg or sf & sh or sg & sh:
        raise ValueError("variables must have pairwise disjoint supports")
    # seven min-matrix rows of 2**n entries for each of the 2**n paths
    charge(7 << 2 * state.space.n, f"entrywise identity check at n={state.space.n}")

    den = lcm(f.denominator, g.denominator, h.denominator)
    vecs = {"f": f._over(den), "g": g._over(den), "h": h._over(den)}
    sums = {
        "fg": [a + b for a, b in zip(vecs["f"], vecs["g"])],
        "fh": [a + b for a, b in zip(vecs["f"], vecs["h"])],
        "gh": [a + b for a, b in zip(vecs["g"], vecs["h"])],
        "fgh": [a + b + c for a, b, c in zip(vecs["f"], vecs["g"], vecs["h"])],
    }

    for i in range(state.space.size):
        lhs = _min_hat_row(sums["fgh"], i)
        rhs = [
            a + b + c - x - y - z
            for a, b, c, x, y, z in zip(
                _min_hat_row(sums["fg"], i),
                _min_hat_row(sums["fh"], i),
                _min_hat_row(sums["gh"], i),
                _min_hat_row(vecs["f"], i),
                _min_hat_row(vecs["g"], i),
                _min_hat_row(vecs["h"], i),
            )
        ]
        if lhs != rhs:
            return False

    def integ(rv: RandomVariable) -> Fraction:
        return integral(state, rv, IntegralStrategy.TRACE)

    lhs = integ(f + g + h)
    rhs = (
        integ(f + g) + integ(f + h) + integ(g + h)
        - integ(f) - integ(g) - integ(h)
    )
    return lhs == rhs


def nonadditivity_witness(
    state: DecoherenceState,
) -> tuple[RandomVariable, RandomVariable, Fraction]:
    """A deterministic pair of variables whose integrals fail additivity.

    Searches value patterns {0, 1, 2} on the first four paths in
    lexicographic order and returns the first pair with a nonzero gap; the
    interference structure of those four paths is the same at every horizon
    n >= 2, so the search always succeeds.
    """
    n = state.space.n
    if n < 2:
        raise ValueError("nonadditivity needs n >= 2")
    space = state.space

    def build(pattern) -> RandomVariable:
        return RandomVariable.from_values(space, pattern + (0,) * (space.size - 4))

    for f_pattern in product(range(3), repeat=4):
        f = build(f_pattern)
        int_f = integral(state, f)
        for g_pattern in product(range(3), repeat=4):
            g = build(g_pattern)
            gap = integral(state, f + g) - int_f - integral(state, g)
            if gap != 0:
                return f, g, gap
    raise RuntimeError("no witness found; the search space should contain one")
