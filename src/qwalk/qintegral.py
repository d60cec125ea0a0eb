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

The measure of a set of paths depends only on c0 - c2 and c1 - c3 of its
census of change-count residues mod 4, so both fast routes read per-site
signed weights: for each end site p and nonzero numerator, its paths at
residue p less those at p + 2.  The weights are taken from the
numerators, O(2**n), a block of 4096 paths at a time: a path's residue is
that of its high steps plus that of its last 12 steps read after the last
high step, so each block is gathered into its four residue classes by one
of two cached orderings, whatever n is (``paths._class_segments``).  The
two count variables are the exception: their step structure gives the
weights in O(n**2), `ones` from the ones counter's pair sweep and
`changes` from the binomial closed form.  Signed variables split
canonically into positive and negative parts before any route runs: the
levels above and below zero.  All values are exact rationals throughout.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections import _count_elements
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import pairwise, product
from math import comb, gcd, lcm, prod
from operator import add
from typing import Callable

from .cylinder import _counter, _sweep
from .decoherence import DecoherenceState, Event
from .errors import BUDGET, charge
from .paths import (
    PathSpace,
    _class_segments,
    change_residue,
    changes_vector,
    ones_vector,
)


class IntegralStrategy(Enum):
    DEFINITION = "definition"
    TRACE = "trace"
    EIGEN = "eigen"


def _charge_values(space: PathSpace) -> None:
    """Charge a variable's values over this space, 16 units per path, one
    numerator each; every constructor, and every caller that reads the
    values from outside, charges them before building or reading any."""
    units = 16 << space.n
    if units > BUDGET:  # charge's test, inline on this hot path
        charge(units, f"random variable at n={space.n}")


@dataclass(frozen=True)
class RandomVariable:
    """An exact-rational-valued function on the n-path space.

    Path j has the value numerators[j] / denominator.  The form is
    canonical -- denominator >= 1 and gcd(denominator, *numerators) == 1,
    restored on construction -- so equal values mean equal variables.

    `ones` and `changes` also record, outside equality, hashing and repr,
    the module function that gives their site weights from the horizon
    alone; every other way of building a variable leaves it None, and its
    weights are counted from the numerators.
    """

    space: PathSpace
    numerators: tuple[int, ...]
    denominator: int = 1
    _class_counts_at: Callable[[int], tuple[dict[int, int], dict[int, int]]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _charge_values(self.space)
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
        """Accepts anything Fraction() does; ints and Fractions pass as they are.
        Over the lcm L of the denominators the form is canonical: a prime
        power p**e exactly dividing L divides some value's denominator d, and
        that value's numerator, prime to d, times L // d is prime to p.  So
        the gcd pass is skipped: the variable is built over 1, then given L."""
        _charge_values(space)
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
        den = lcm(*{v.denominator for v in values})
        var = cls(space, tuple(v.numerator * (den // v.denominator) for v in values))
        object.__setattr__(var, "denominator", den)
        return var

    @classmethod
    def ones(cls, space: PathSpace) -> "RandomVariable":
        var = cls(space, tuple(ones_vector(space)))
        object.__setattr__(var, "_class_counts_at", _ones_class_counts)
        return var

    @classmethod
    def changes(cls, space: PathSpace) -> "RandomVariable":
        var = cls(space, tuple(changes_vector(space)))
        object.__setattr__(var, "_class_counts_at", _changes_class_counts)
        return var

    @classmethod
    def indicator(cls, event: Event) -> "RandomVariable":
        _charge_values(event.space)
        bits = format(event.mask, f"0{event.space.size}b")[::-1]  # bit j at index j
        return cls(event.space, tuple(map(int, bits)))

    @classmethod
    def constant(cls, space: PathSpace, value) -> "RandomVariable":
        _charge_values(space)
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
    them, charged before any is taken.  Independent of the site weights and
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


def _class_counts(vals, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """For each end site p, a signed weight per nonzero numerator: its paths
    at change residue p less those at p + 2, dropped where they cancel.

    Each residue's values come in contiguous segments: the block of the
    2**12 paths with high steps hi, residue o, is gathered by low part lo
    in order of t, the residue of lo read after hi's last step, and
    segment t holds residue (o + t) & 3.  Zeros are filtered out in C
    before any counting, and no (value, residue) tuple is built.  The
    counts go into one plain dict per residue through the C loop that
    fills a Counter, without Counter's type checks, and residue p + 2 is
    then taken off residue p.
    """
    counts = ({}, {}, {}, {})
    for r, segment in _class_segments(vals, n):
        _count_elements(counts[r], filter(None, segment))
    for p in (0, 1):
        weights = counts[p]
        for v, paths in counts[p + 2].items():
            if w := weights.get(v, 0) - paths:
                weights[v] = w
            else:
                del weights[v]
    return counts[0], counts[1]


def _ones_class_counts(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """_class_counts of the ones count, from the pair sweep of the counter
    that reads up to n ones: its state is the value, so the level-n pair of
    each nonzero state holds that value's weights.  O(n**2) additions."""
    pairs = _sweep(_counter(n), 0, n)[1].items()
    return tuple({ones: pair[p] for ones, pair in pairs if ones and pair[p]} for p in (0, 1))


def _changes_class_counts(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """_class_counts of the change count: the change steps j ^ (j >> 1) of
    the paths j run over every n-bit string, so C(n, c) paths have c
    changes, all of residue c mod 4: +C(n, c) on site c & 1 for c = 0, 1
    and -C(n, c) for c = 2, 3 mod 4."""
    out: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for c in range(1, n + 1):
        out[c & 1][c] = -comb(n, c) if c & 2 else comb(n, c)
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
# never a weight key, so the closing 0 level adds nothing.


def _trace(weights: tuple[dict[int, int], dict[int, int]]) -> int:
    """Layered evaluation of both parts: slab thickness times the squared
    site-weight sums (c0 - c2, c1 - c3) of the paths whose value reaches the
    slab, the negative part's layers subtracted from the positive part's.
    The levels are the keys of both sites' weights, read with dict.get."""
    w0, w1 = weights
    g0, g1 = w0.get, w1.get
    total = 0
    for levels in _levels({*w0, *w1}):
        even = odd = 0
        for v, lower in pairwise(levels):
            even += g0(v, 0)
            odd += g1(v, 0)
            total += (v - lower) * (even * even + odd * odd)
    return total


def _eigen(weights: tuple[dict[int, int], dict[int, int]]) -> int:
    """Per-parity layered quadratic forms of the two eigenvectors.

    Residue parity is the end site, so parity p's eigenvector reads only
    site p's weights, and each parity has its own level structure.  The
    running unit-power sum of a parity is real for even endings and purely
    imaginary for odd ones, so one signed accumulator per parity gives its
    squared magnitude.
    """
    total = 0
    for site in weights:
        get = site.get
        for levels in _levels(set(site)):
            amplitude = 0
            for v, lower in pairwise(levels):
                amplitude += get(v, 0)
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
        counts_at = variable._class_counts_at
        raw = route(_class_counts(vals, n) if counts_at is None else counts_at(n))
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


def _exact_determinant(matrix: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination of an integer matrix, swapping
    rows at a zero pivot (independent of the telescoping shortcut it is used
    to confirm): each update divides exactly by the previous pivot, and the
    last pivot is the determinant."""
    m = [row[:] for row in matrix]
    size, sign, prev = len(m), 1, 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        top = m[col]
        pivot = top[col]
        for row in m[col + 1 :]:
            f = row[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * pivot - f * top[c]) // prev
        prev = pivot
    return sign * prev


def min_matrix_det_check(values) -> bool:
    """Confirm the telescoping determinant of a sorted min matrix.

    For nonnegative sorted a_1 <= ... <= a_m, the matrix of pairwise minima
    has determinant a_1 * (a_2 - a_1) * ... * (a_m - a_{m-1}).  Over the lcm
    denominator both sides scale by den**m, so the numerators' integer
    elimination, at most m**3 steps, is compared with their telescoped product.
    """
    vals = [Fraction(v) for v in values]
    charge(16 * len(vals) ** 3, f"min-matrix check of {len(vals)} values")
    if not vals:
        raise ValueError("need at least one value")
    den = lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (den // v.denominator) for v in vals]
    if any(a < 0 for a in nums):
        raise ValueError("min-matrix values must be nonnegative")
    if any(a > b for a, b in pairwise(nums)):
        raise ValueError("values must be sorted ascending")
    telescoped = prod((b - a for a, b in pairwise(nums)), start=nums[0])
    return _exact_determinant([[a if a < b else b for b in nums] for a in nums]) == telescoped


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
    the min-matrix identity entry by entry, once per pair of distinct value
    keys (f_i, g_i, h_i), on which the seven entries at (i, j) depend, and
    the integral identity."""
    for rv in (f, g, h):
        if rv.space != state.space:
            raise ValueError("variable lives over a different path space")
    sf, sg, sh = (set(rv.support()) for rv in (f, g, h))
    if sf & sg or sf & sh or sg & sh:
        raise ValueError("variables must have pairwise disjoint supports")
    # seven min-matrix rows of d entries for each of d <= 2**n distinct keys
    charge(7 << 2 * state.space.n, f"entrywise identity check at n={state.space.n}")

    den = lcm(f.denominator, g.denominator, h.denominator)
    nf, ng, nh = f._over(den), g._over(den), h._over(den)
    keys = dict.fromkeys(zip(nf, ng, nh))
    vf, vg, vh = zip(*keys)
    vfg, vfh, vgh = ([a + b for a, b in zip(x, y)] for x, y in ((vf, vg), (vf, vh), (vg, vh)))
    vfgh = [a + b for a, b in zip(vfg, vh)]

    for i in range(len(vf)):
        lhs = _min_hat_row(vfgh, i)
        rhs = [
            a + b + c - x - y - z
            for a, b, c, x, y, z in zip(
                _min_hat_row(vfg, i),
                _min_hat_row(vfh, i),
                _min_hat_row(vgh, i),
                _min_hat_row(vf, i),
                _min_hat_row(vg, i),
                _min_hat_row(vh, i),
            )
        ]
        if lhs != rhs:
            return False

    def integ(rv: RandomVariable) -> Fraction:
        return integral(state, rv, IntegralStrategy.TRACE)

    def integ_over(numerators: tuple[int, ...]) -> Fraction:
        return integ(RandomVariable(state.space, numerators, den))

    fg, fh, gh = (tuple(map(add, x, y)) for x, y in ((nf, ng), (nf, nh), (ng, nh)))
    lhs = integ_over(tuple(map(add, fg, nh)))
    rhs = (
        integ_over(fg) + integ_over(fh) + integ_over(gh)
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
