"""The truncated decoherence matrix of the walk, held exactly.

Every entry is (+1, -1 or 0) / 2**n: zero when the two paths end on
different sites, and otherwise a sign fixed by whether their change counts
agree mod 4.  Consequently every event-level sum reduces to the four-way
census of change-count residues among the event's members, and that census
is the workhorse of this module: it *is* the rank-two structure of the
matrix.  An event's census is four popcounts of its membership mask against
the four residue-class masks of the path space, which are built once per
horizon by a recurrence on n and cached.  The two eigenvector components of
an event are

    even residues:  (census[0] - census[2])        (real part)
    odd residues:   (census[1] - census[3]) * i    (imaginary part)

and all functionals are inner products of such pairs over 2**n.  The
imaginary unit meets its own conjugate there, so every entry, functional and
inner product is real, and one value type, ``Dyadic``, holds them all.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Iterator, Sequence

from .errors import BUDGET, charge
from .exact import Dyadic, _Frozen, _new
from .paths import _SAME_RESIDUE, PathSpace, change_residue, change_residue_counts, change_residues


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
    charged.
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


class Event(_Frozen):
    """Subset of the n-path space as a membership mask (bit j <=> path j)."""

    __slots__ = ("space", "mask")

    def __new__(cls, space: PathSpace, mask: int) -> "Event":
        size = 1 << space.n
        if size > BUDGET:  # charge's test, inline on this hot path
            charge(size, f"event mask at n={space.n}")
        if mask < 0 or mask >> size:
            raise ValueError("event mask addresses paths outside the space")
        self = _new(cls)
        _set_space(self, space)
        _set_mask(self, mask)
        return self

    def __eq__(self, other):
        if type(other) is not Event:
            return NotImplemented
        return self.mask == other.mask and (
            self.space is other.space or self.space == other.space
        )

    def __hash__(self):
        return hash((self.space, self.mask))

    def __reduce__(self):
        return Event, (self.space, self.mask)

    @classmethod
    def from_indices(cls, space: PathSpace, indices) -> "Event":
        mask = 0
        for j in indices:
            space.check_index(j)
            mask |= 1 << j
        return cls(space, mask)

    @classmethod
    def full(cls, space: PathSpace) -> "Event":
        return cls(space, (1 << space.size) - 1)

    @classmethod
    def empty(cls, space: PathSpace) -> "Event":
        return cls(space, 0)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> Iterator[int]:
        # byte-chunked scan: linear in the mask width even for dense masks
        data = self.mask.to_bytes((self.space.size + 7) // 8, "little")
        base = 0
        for byte in data:
            while byte:
                low = byte & -byte
                yield base + low.bit_length() - 1
                byte ^= low
            base += 8

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self.indices())

    def __contains__(self, j: int) -> bool:
        return bool((self.mask >> j) & 1) if 0 <= j < self.space.size else False

    def _check_same_space(self, other: "Event") -> None:
        # identity settles the common case; equal spaces built apart pass
        if self.space is not other.space and self.space != other.space:
            raise ValueError("events live over different path spaces")

    def union(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.mask | other.mask)

    def complement(self) -> "Event":
        return Event(self.space, self.mask ^ ((1 << self.space.size) - 1))

    def isdisjoint(self, other: "Event") -> bool:
        self._check_same_space(other)
        return (self.mask & other.mask) == 0

    def __repr__(self) -> str:
        return f"Event(n={self.space.n}, {{{', '.join(map(str, self.indices()))}}})"


class VectorMeasureValue(_Frozen):
    """Value of the two-component vector measure of an event.

    The true vector is (even + 0i, 0 + odd*i) / 2**(steps/2); the integer
    components are stored so inner products stay exact.  With the pairing
    <x, y> = sum x_t * conj(y_t), inner(self, other) reproduces the
    decoherence functional of the two events, a real ``Dyadic``; this
    convention was fixed by cross-checking against the dense entry sums, not
    assumed.
    """

    __slots__ = ("even", "odd", "steps")

    def __new__(cls, even: int, odd: int, steps: int) -> "VectorMeasureValue":
        self = _new(cls)
        _set_even(self, even)
        _set_odd(self, odd)
        _set_steps(self, steps)
        return self

    def __eq__(self, other):
        if type(other) is not VectorMeasureValue:
            return NotImplemented
        return self.even == other.even and self.odd == other.odd and self.steps == other.steps

    def __hash__(self):
        return hash((self.even, self.odd, self.steps))

    def __reduce__(self):
        return VectorMeasureValue, (self.even, self.odd, self.steps)

    def __repr__(self) -> str:
        return f"VectorMeasureValue(even={self.even!r}, odd={self.odd!r}, steps={self.steps!r})"

    def inner(self, other: "VectorMeasureValue") -> Dyadic:
        if self.steps != other.steps:
            raise ValueError("vector measures from different horizons")
        return Dyadic(self.even * other.even + self.odd * other.odd, self.steps)

    def __add__(self, other: "VectorMeasureValue") -> "VectorMeasureValue":
        if self.steps != other.steps:
            raise ValueError("vector measures from different horizons")
        return VectorMeasureValue(self.even + other.even, self.odd + other.odd, self.steps)


_set_space = Event.space.__set__
_set_mask = Event.mask.__set__
_set_even = VectorMeasureValue.even.__set__
_set_odd = VectorMeasureValue.odd.__set__
_set_steps = VectorMeasureValue.steps.__set__


def psd_by_ldl(gram: Sequence[Sequence[int]]) -> bool:
    """Exact positive-semidefiniteness of a small symmetric integer matrix.

    An LDL^T factorization in exact rationals, with no pivoting: a negative
    pivot means not PSD, and so does a zero pivot with a nonzero entry left
    in its column (a PSD matrix has a zero row wherever it has a zero
    diagonal).  A positive pivot leaves the Schur complement of its row,
    which is PSD iff the matrix is.
    """
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


class DecoherenceState:
    """Entry oracle, event sums and rank-two factorization for one horizon.

    The residue-class masks that every census reads are taken from the
    per-horizon cache on the state's first census and held on the state
    from then on, so a state that never takes a census never fetches them.
    """

    def __init__(self, space: PathSpace):
        self.space = space
        self._dense: array | None = None
        self._masks: tuple[int, int, int, int] | None = None

    # -- entries -----------------------------------------------------------

    def residue(self, j: int) -> int:
        """Change count of path j, mod 4."""
        self.space.check_index(j)
        return change_residue(j)

    def entry_sign(self, j: int, k: int) -> int:
        """Sign of the (j, k) matrix entry: 0, +1 or -1."""
        # one test for both ranges: a negative index makes the OR negative,
        # and a negative number shifts to -1, never to 0
        if (j | k) >> self.space.n:
            self.space.check_index(j)  # one of the two raises
            self.space.check_index(k)
        if (j ^ k) & 1:
            return 0
        # same end site: the change counts agree mod 4 or differ by 2
        return 1 if ((j ^ (j >> 1)).bit_count() - (k ^ (k >> 1)).bit_count()) & 3 == 0 else -1

    def entry(self, j: int, k: int) -> Dyadic:
        """Matrix entry (j, k): sign / 2**n, exactly."""
        return Dyadic(self.entry_sign(j, k), self.space.n)

    def dense_signs(self) -> array:
        """Row-major signed-byte sign grid, materialized lazily: one unit per
        sign byte."""
        if self._dense is None:
            charge(1 << 2 * self.space.n, f"dense sign grid at n={self.space.n}")
            size = self.space.size
            res = [change_residue(j) for j in range(size)]
            grid = array("b", bytes(size * size))
            for j in range(size):
                rj = res[j]
                row = j * size
                for k in range(j & 1, size, 2):
                    grid[row + k] = 1 if rj == res[k] else -1
            self._dense = grid
        return self._dense

    # -- event sums ---------------------------------------------------------

    def _check_event(self, event: Event) -> None:
        # identity settles the common case; an equal space built apart passes
        if event.space is not self.space and event.space != self.space:
            raise ValueError("event lives over a different path space")

    def census(self, event: Event) -> tuple[int, int, int, int]:
        """Counts of the event's members by change count mod 4.

        Four popcounts of the event's mask against the residue-class masks
        of this horizon, held on the state from its first census; no member
        is visited.
        """
        # _check_event's test, inline on this hot path
        if event.space is not self.space and event.space != self.space:
            raise ValueError("event lives over a different path space")
        masks = self._masks
        if masks is None:
            masks = self._masks = _residue_masks(self.space.n)
        mask = event.mask
        m0, m1, m2, m3 = masks
        return (
            (mask & m0).bit_count(),
            (mask & m1).bit_count(),
            (mask & m2).bit_count(),
            (mask & m3).bit_count(),
        )

    def functional(self, a: Event, b: Event) -> Dyadic:
        """Decoherence functional of the event pair, via the rank-two censuses."""
        ca, cb = self.census(a), self.census(b)
        value = (ca[0] - ca[2]) * (cb[0] - cb[2]) + (ca[1] - ca[3]) * (cb[1] - cb[3])
        return Dyadic(value, self.space.n)

    def functional_by_entries(self, a: Event, b: Event) -> Dyadic:
        """Reference route: literal sum of matrix entries over a x b."""
        self._check_event(a)
        self._check_event(b)
        rows = [(j, self.residue(j)) for j in a.indices()]
        cols = [(k, self.residue(k)) for k in b.indices()]
        total = 0
        for j, rj in rows:
            for k, rk in cols:
                if (j ^ k) & 1:
                    continue
                total += 1 if rj == rk else -1
        return Dyadic(total, self.space.n)

    def entry_total(self) -> Dyadic:
        """Sum of all 4**n entries, computed from the residue profile alone."""
        v = change_residue_counts(self.space.n)
        return Dyadic((v[0] - v[2]) ** 2 + (v[1] - v[3]) ** 2, self.space.n)

    # -- rank-two factorization ----------------------------------------------

    def eigenvector_exact(self, parity: int) -> list[tuple[int, int]]:
        """Unnormalized eigenvector supported on one end-site parity.

        Entry j is i**changes(j) as a Gaussian-integer pair when j has the
        requested last bit, else (0, 0).  Its squared norm is 2**(n-1); the
        unit eigenvector divides by 2**((n-1)/2).
        """
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        charge(16 << self.space.n, f"eigenvector at n={self.space.n}")
        units = ((1, 0), (0, 1), (-1, 0), (0, -1))
        out = []
        for j in self.space.indices():
            if (j & 1) == parity:
                out.append(units[change_residue(j)])
            else:
                out.append((0, 0))
        return out

    def eigenpair(self) -> tuple[list[complex], list[complex]]:
        """The two unit eigenvectors of eigenvalue 1/2, as complex floats."""
        n = self.space.n
        scale = 2.0 ** ((n - 1) / 2.0)
        pair = []
        for parity in (0, 1):
            exact = self.eigenvector_exact(parity)
            pair.append([complex(re / scale, im / scale) for re, im in exact])
        return pair[0], pair[1]

    def eigen_equation_holds(self) -> bool:
        """Exact check that both eigenvectors satisfy (matrix * v) = v / 2.

        Works in integers: (2**n * matrix) applied to the unnormalized
        vector must equal 2**(n-1) times that vector, entry by entry.  Row j
        of the sign matrix is zero off its own end site and, on it, +1 at
        the columns sharing j's change residue and -1 elsewhere, so each
        component of row j times the vector is twice its sum over the
        same-residue columns minus its sum over the whole site.  A row is
        thus fixed by its site and residue, and its value is computed once
        per (site, component, residue) and compared with every row of that
        residue.  Every row of both sites is checked against every column of
        its site, so a stray nonzero entry on the wrong site fails its own
        row.  O(2**n), so charged with the eigenvectors.
        """
        n = self.space.n
        vectors = [self.eigenvector_exact(parity) for parity in (0, 1)]
        res = change_residues(n)
        half = 1 << (n - 1)
        for vec in vectors:
            for site in (0, 1):
                site_res = res[site::2]
                # the columns of this site sharing each change residue, as 0/1 bytes
                same = [site_res.translate(_SAME_RESIDUE[r]) for r in range(4)]
                for component in zip(*vec):
                    col = component[site::2]
                    col_total = sum(col)
                    by_residue = [sum(compress(col, same[r])) * 2 - col_total for r in range(4)]
                    if list(map(by_residue.__getitem__, site_res)) != [half * w for w in col]:
                        return False
        return True

    # -- vector measure and strong positivity --------------------------------

    def vector_measure(self, event: Event) -> VectorMeasureValue:
        """The event's two-component vector, additive and functional-compatible."""
        c = self.census(event)
        return VectorMeasureValue(c[0] - c[2], c[1] - c[3], self.space.n)

    def strong_positivity_check(self, events: Sequence[Event]) -> bool:
        """Exact guard that the events' functional Gram matrix is PSD.

        The matrix is a Gram matrix of two-component vectors, hence PSD by
        construction; the check exists to catch implementation bugs, not
        mathematical failures.  It factors the integer matrix of the
        2**n-scaled functionals, which has the same signature: at most k**3
        Fraction elimination steps for k events.
        """
        charge(16 * len(events) ** 3, f"strong-positivity check of {len(events)} events")
        vectors = [self.vector_measure(ev) for ev in events]
        gram = [[x.even * y.even + x.odd * y.odd for y in vectors] for x in vectors]
        return psd_by_ldl(gram)
