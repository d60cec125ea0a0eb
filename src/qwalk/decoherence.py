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

and all functionals are inner products of such pairs over 2**n.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Iterator, Sequence

from .errors import ResourceLimitError
from .exact import Dyadic, GaussianScaled
from .paths import PathSpace, change_residue, change_residue_counts

DENSE_MAX_STEPS = 12  # 4**12 one-byte signs, ~17 MB
EVENT_MAX_STEPS = 24  # membership masks beyond 2**24 bits are not materialized
EIGEN_MAX_STEPS = 20
EIGEN_CHECK_MAX_STEPS = 10
GRAM_MAX_EVENTS = 12

# _SAME_RESIDUE[r] translates a residue byte to 1 if it equals r, else to 0
_SAME_RESIDUE = tuple(bytes(int(b == r) for b in range(256)) for r in range(4))


@cache
def _residue_masks(n: int) -> tuple[int, int, int, int]:
    """The n-path space split by change count mod 4, as four membership masks.

    Bit j of mask r is set iff path j has change count congruent to r.  A
    path of n steps is a first step followed by an (n-1)-step path k.  A
    first step of 0 leaves the change count of k as it is.  A first step of
    1 adds two changes when k starts on site 0 and none when it starts on
    site 1.  So each level is the cached previous level's masks twice over,
    the upper copy with its site-0 half moved two residues on; no path is
    visited.  Callers pass the n of a checked event, so 1 <= n <= 24.
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


@dataclass(frozen=True)
class Event:
    """Subset of the n-path space as a membership mask (bit j <=> path j)."""

    space: PathSpace
    mask: int

    def __post_init__(self) -> None:
        if self.space.n > EVENT_MAX_STEPS:
            raise ResourceLimitError(
                f"explicit events are capped at n <= {EVENT_MAX_STEPS}; "
                "larger horizons are served by residue-census generators"
            )
        if self.mask < 0 or self.mask.bit_length() > self.space.size:
            raise ValueError("event mask addresses paths outside the space")

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
        if self.space != other.space:
            raise ValueError("events live over different path spaces")

    def union(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.mask | other.mask)

    def intersection(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.mask & other.mask)

    def difference(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.mask & ~other.mask)

    def complement(self) -> "Event":
        return Event(self.space, self.mask ^ ((1 << self.space.size) - 1))

    def isdisjoint(self, other: "Event") -> bool:
        self._check_same_space(other)
        return (self.mask & other.mask) == 0

    def __repr__(self) -> str:
        return f"Event(n={self.space.n}, {{{', '.join(map(str, self.indices()))}}})"


@dataclass(frozen=True)
class VectorMeasureValue:
    """Value of the two-component vector measure of an event.

    The true vector is (even + 0i, 0 + odd*i) / 2**(steps/2); the integer
    components are stored so inner products stay exact.  With the pairing
    <x, y> = sum x_t * conj(y_t), inner(self, other) reproduces the
    decoherence functional of the two events; this convention was fixed by
    cross-checking against the dense entry sums, not assumed.
    """

    even: int
    odd: int
    steps: int

    def inner(self, other: "VectorMeasureValue") -> GaussianScaled:
        if self.steps != other.steps:
            raise ValueError("vector measures from different horizons")
        return GaussianScaled(self.even * other.even + self.odd * other.odd, 0, self.steps)

    def __add__(self, other: "VectorMeasureValue") -> "VectorMeasureValue":
        if self.steps != other.steps:
            raise ValueError("vector measures from different horizons")
        return VectorMeasureValue(self.even + other.even, self.odd + other.odd, self.steps)

    def as_complex_pair(self) -> tuple[complex, complex]:
        scale = 2.0 ** (self.steps / 2.0)
        return (complex(self.even / scale, 0.0), complex(0.0, self.odd / scale))


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
    """Entry oracle, event sums and rank-two factorization for one horizon."""

    def __init__(self, space: PathSpace):
        self.space = space
        self._dense: array | None = None

    # -- entries -----------------------------------------------------------

    def residue(self, j: int) -> int:
        """Change count of path j, mod 4."""
        self.space.check_index(j)
        return change_residue(j)

    def entry_sign(self, j: int, k: int) -> int:
        """Sign of the (j, k) matrix entry: 0, +1 or -1."""
        self.space.check_index(j)
        self.space.check_index(k)
        if (j ^ k) & 1:
            return 0
        return 1 if change_residue(j) == change_residue(k) else -1

    def entry(self, j: int, k: int) -> GaussianScaled:
        """Matrix entry (j, k): sign / 2**n, exactly."""
        return GaussianScaled(self.entry_sign(j, k), 0, self.space.n)

    def dense_signs(self) -> array:
        """Row-major signed-byte sign grid; materialized lazily, n <= 12 only."""
        n = self.space.n
        if n > DENSE_MAX_STEPS:
            raise ResourceLimitError(
                f"dense matrix capped at n <= {DENSE_MAX_STEPS} (4**n entries); "
                "use the entry oracle or the rank-two factorization"
            )
        if self._dense is None:
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
        if event.space != self.space:
            raise ValueError("event lives over a different path space")

    def census(self, event: Event) -> tuple[int, int, int, int]:
        """Counts of the event's members by change count mod 4.

        Four popcounts of the event's mask against the cached residue-class
        masks of this horizon; no member is visited.
        """
        self._check_event(event)
        mask = event.mask
        m0, m1, m2, m3 = _residue_masks(self.space.n)
        return (
            (mask & m0).bit_count(),
            (mask & m1).bit_count(),
            (mask & m2).bit_count(),
            (mask & m3).bit_count(),
        )

    def functional(self, a: Event, b: Event) -> GaussianScaled:
        """Decoherence functional of the event pair, via the rank-two censuses."""
        ca, cb = self.census(a), self.census(b)
        value = (ca[0] - ca[2]) * (cb[0] - cb[2]) + (ca[1] - ca[3]) * (cb[1] - cb[3])
        return GaussianScaled(value, 0, self.space.n)

    def functional_by_entries(self, a: Event, b: Event) -> GaussianScaled:
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
        return GaussianScaled(total, 0, self.space.n)

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
        n = self.space.n
        if n > EIGEN_MAX_STEPS:
            raise ResourceLimitError(
                f"eigenvector materialization capped at n <= {EIGEN_MAX_STEPS}"
            )
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
        same-residue columns minus its sum over the whole site.  Every row
        of both sites is checked against every column of its site, so a
        stray nonzero entry on the wrong site fails its own row.
        """
        n = self.space.n
        if n > EIGEN_CHECK_MAX_STEPS:
            raise ResourceLimitError(
                f"exact eigen-equation check capped at n <= {EIGEN_CHECK_MAX_STEPS}"
            )
        res = bytes(change_residue(j) for j in self.space.indices())
        half = 1 << (n - 1)
        for parity in (0, 1):
            vec = self.eigenvector_exact(parity)
            for site in (0, 1):
                site_res = res[site::2]
                # the columns of this site sharing each change residue, as 0/1 bytes
                same = [site_res.translate(_SAME_RESIDUE[r]) for r in range(4)]
                for component in zip(*vec):
                    col = component[site::2]
                    col_total = sum(col)
                    for r, want in zip(site_res, col):
                        if sum(compress(col, same[r])) * 2 - col_total != half * want:
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
        2**n-scaled functionals, which has the same signature.
        """
        if len(events) > GRAM_MAX_EVENTS:
            raise ResourceLimitError(
                f"strong-positivity check capped at {GRAM_MAX_EVENTS} events"
            )
        vectors = [self.vector_measure(ev) for ev in events]
        gram = [[x.even * y.even + x.odd * y.odd for y in vectors] for x in vectors]
        return psd_by_ldl(gram)
