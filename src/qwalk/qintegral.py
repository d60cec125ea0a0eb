"""The quantum integral of a random variable against the truncated measure.

A variable holds its values as integer numerators over one common
denominator.  Three equivalent evaluation routes are kept deliberately
separate:

* DEFINITION -- the literal double sum of pairwise minima against entries,
                pair by pair: entries between paths on different end sites
                are zero, so each end site's support is summed on its own,
                each unordered pair once and doubled, the diagonal once
* TRACE      -- the layered sum over super-level sets: each slab of values
                contributes its thickness times the measure of the set of
                paths reaching it (the trace identity), so the min matrix is
                never materialized
* EIGEN      -- the two eigenvector quadratic forms, each computed by the
                same layering restricted to one end-site parity

The measure of a set of paths depends only on its census of change-count
residues mod 4, so both fast routes read one census per call: how many
paths carry each (value, residue) pair.  Signed variables split canonically
into positive and negative parts before any route runs: the keys above and
below zero.  All values are exact rationals throughout.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .decoherence import DecoherenceState, Event
from .errors import ResourceLimitError
from .paths import PathSpace, change_residue, change_residues, changes_vector, ones_vector

VARIABLE_MAX_STEPS = 20
DEFINITION_MAX_STEPS = 12  # the dense cutoff; the double sum is 4**n
ENTRYWISE_MAX_STEPS = 10
MIN_MATRIX_MAX = 10
PSD_CHECK_MAX_VALUES = 4096


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
        if self.space.n > VARIABLE_MAX_STEPS:
            raise ResourceLimitError(
                f"random variables are capped at n <= {VARIABLE_MAX_STEPS}"
            )
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

    def split(self) -> tuple["RandomVariable", "RandomVariable"]:
        """Canonical positive/negative parts: both nonnegative, product zero."""
        pos = tuple(v if v > 0 else 0 for v in self.numerators)
        neg = tuple(-v if v < 0 else 0 for v in self.numerators)
        return (
            RandomVariable(self.space, pos, self.denominator),
            RandomVariable(self.space, neg, self.denominator),
        )

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


def _definition_part(vals: list[int]) -> int:
    """Literal double sum of min(v_j, v_k) * sign(j, k) over the support.

    Paths ending on different sites have sign 0, so the sum runs over each
    end site's support on its own.  Within a site both the minimum and the
    sign (+1 for equal change residues, -1 otherwise) are symmetric in the
    pair, so each unordered pair of distinct paths is taken once and counted
    twice, and each diagonal term (sign +1) once.
    """
    diagonal = off_diagonal = 0
    for site in (0, 1):
        support = [
            (v, change_residue(j)) for j in range(site, len(vals), 2) if (v := vals[j])
        ]
        while support:
            vj, rj = support.pop()
            diagonal += vj
            for vk, rk in support:
                if rj == rk:
                    off_diagonal += vj if vj < vk else vk
                else:
                    off_diagonal -= vj if vj < vk else vk
    return diagonal + 2 * off_diagonal


def _slabs(levels) -> list[tuple[int, int]]:
    """(level, thickness down to the next lower level or to zero), descending."""
    desc = sorted(levels, reverse=True)
    return [(v, v - lower) for v, lower in zip(desc, desc[1:] + [0])]


def _trace_part(census: Counter, sign: int) -> int:
    """Layered evaluation of one part (sign +1 or -1): slab thickness times
    the squared census sums of the paths whose value reaches the slab."""
    levels: dict[int, list[int]] = {}
    for (v, r), count in census.items():
        v *= sign
        if v > 0:
            levels.setdefault(v, [0, 0, 0, 0])[r] += count
    reach = [0, 0, 0, 0]
    total = 0
    for v, thickness in _slabs(levels):
        for r, count in enumerate(levels[v]):
            reach[r] += count
        total += thickness * ((reach[0] - reach[2]) ** 2 + (reach[1] - reach[3]) ** 2)
    return total


def _eigen_part(census: Counter, sign: int) -> int:
    """Per-parity layered quadratic forms of the two eigenvectors.

    Residue parity is the end site, so parity p owns residues p and p + 2,
    and each parity has its own level structure.  The running unit-power sum
    of a parity is real for even endings and purely imaginary for odd ones,
    so one signed accumulator per parity gives its squared magnitude.
    """
    total = 0
    for parity in (0, 1):
        levels: dict[int, int] = {}
        for (v, r), count in census.items():
            v *= sign
            if v > 0 and r & 1 == parity:
                levels[v] = levels.get(v, 0) + (count if r == parity else -count)
        amplitude = 0
        for v, thickness in _slabs(levels):
            amplitude += levels[v]
            total += thickness * amplitude**2
    return total


def integral(
    state: DecoherenceState,
    variable: RandomVariable,
    strategy: IntegralStrategy = IntegralStrategy.TRACE,
) -> Fraction:
    """The quantum integral of the variable, by the requested route."""
    if variable.space != state.space:
        raise ValueError("variable lives over a different path space")
    n = state.space.n
    vals = variable.numerators
    if strategy is IntegralStrategy.DEFINITION:
        if n > DEFINITION_MAX_STEPS:
            raise ResourceLimitError(
                f"definition-route integral capped at n <= {DEFINITION_MAX_STEPS}; "
                "use the trace or eigen route"
            )
        pos = [v if v > 0 else 0 for v in vals]
        neg = [-v if v < 0 else 0 for v in vals]
        raw = _definition_part(pos) - _definition_part(neg)
    elif strategy is IntegralStrategy.TRACE or strategy is IntegralStrategy.EIGEN:
        census = Counter(zip(vals, change_residues(n)))
        part = _trace_part if strategy is IntegralStrategy.TRACE else _eigen_part
        raw = part(census, 1) - part(census, -1)
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
    is recomputed by exact elimination.
    """
    vals = [Fraction(v) for v in values]
    if len(vals) > MIN_MATRIX_MAX:
        raise ResourceLimitError(f"min-matrix check capped at {MIN_MATRIX_MAX} values")
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
    later minor to zero, which shortcuts the scan).
    """
    if any(v < 0 for v in variable.numerators):
        raise ValueError("psd check needs a nonnegative variable")
    if variable.space.size > PSD_CHECK_MAX_VALUES:
        raise ResourceLimitError(
            f"psd check capped at {PSD_CHECK_MAX_VALUES} values"
        )
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
    n = state.space.n
    if n > ENTRYWISE_MAX_STEPS:
        raise ResourceLimitError(
            f"entrywise identity check capped at n <= {ENTRYWISE_MAX_STEPS}"
        )

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
