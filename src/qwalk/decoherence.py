"""The truncated decoherence matrix of the walk, held exactly.

Every entry is (+1, -1 or 0) / 2**n: zero when the two paths end on
different sites, and otherwise a sign fixed by whether their change counts
agree mod 4.  Consequently every event-level sum reduces to the four-way
census (c0, c1, c2, c3) of change-count residues among the event's members,
and in fact to its two signed amplitudes, the components of the event's
vector along the two eigenvectors:

    even residues:  u = c0 - c2        (real part)
    odd residues:   v = (c1 - c3) * i  (imaginary part)

That pair *is* the rank-two structure of the matrix.  With m0..m3 the
residue-class masks of the path space, which ``paths`` builds once per
horizon by a recurrence on n and caches, and A = m0 | m1, C = m0 | m3, an
event's mask x gives it from three popcounts:

    u = pc(x & A) + pc(x & C) - pc(x),    v = pc(x & A) - pc(x & C).

Three is the fewest: no two 0/1 masks give both signed sums.  The four-way
census, four popcounts against m0..m3, stays as the independent reference.
All functionals are inner products of such pairs over 2**n.  The imaginary
unit meets its own conjugate there, so every entry, functional and inner
product is real, and one value type, ``Dyadic``, holds them all.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BUDGET, charge
from .exact import Dyadic, _Frozen, _new
from .paths import PathSpace, _class_segments, _residue_masks, change_residue


def _charge_mask(space: PathSpace) -> int:
    """Charge an event mask over this space, one unit per path; return its width."""
    size = 1 << space.n
    if size > BUDGET:
        charge(size, f"event mask at n={space.n}")
    return size


class Event(_Frozen):
    """Subset of the n-path space as a membership mask (bit j <=> path j)."""

    __slots__ = ("space", "mask")

    def __new__(cls, space: PathSpace, mask: int) -> "Event":
        size = 1 << space.n
        if size > BUDGET:  # _charge_mask's test, inline on this hot path
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
        """The event of these path indices, any order, repeats allowed.  The
        mask is charged before anything of its width exists, then each index
        is range-checked and its bit set in one bytearray: O(m + 2**n / 8)."""
        size = _charge_mask(space)
        bits = bytearray((size + 7) >> 3)
        for j in indices:
            space.check_index(j)
            bits[j >> 3] |= 1 << (j & 7)
        return cls(space, int.from_bytes(bits, "little"))

    @classmethod
    def full(cls, space: PathSpace) -> "Event":
        """Every path of the space, its mask charged before it is built."""
        return cls(space, (1 << _charge_mask(space)) - 1)

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

    An LDL^T factorization with no pivoting, by fraction-free (Bareiss)
    elimination, which keeps the signs of the rational pivots: a negative
    pivot means not PSD, and so does a zero pivot with a nonzero entry left
    in its column (a PSD matrix has a zero row wherever it has a zero
    diagonal); a zero column is skipped.  A positive pivot leaves the Schur
    complement of its row, times that pivot, which is PSD iff the matrix is.
    """
    m = [list(row) for row in gram]
    k, prev = len(m), 1
    for step in range(k):
        d = m[step][step]
        if d < 0:
            return False
        if d == 0:
            if any(m[r][step] for r in range(step + 1, k)):
                return False
            continue
        for row in m[step + 1 :]:
            f = row[step]
            for c in range(step + 1, k):
                row[c] = (row[c] * d - f * m[step][c]) // prev
        prev = d
    return True


class DecoherenceState:
    """Entry oracle, event sums and rank-two factorization for one horizon.

    The two pair masks A and C are built from the per-horizon cache of
    residue-class masks on the state's first event sum and held on the
    state from then on, so a state that never sums an event never fetches
    them.  The census, the reference route, reads the cache on each call.
    """

    def __init__(self, space: PathSpace):
        self.space = space
        self._pair_masks: tuple[int, int] | None = None

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

    # -- event sums ---------------------------------------------------------

    def _check_event(self, event: Event) -> None:
        # identity settles the common case; an equal space built apart passes
        if event.space is not self.space and event.space != self.space:
            raise ValueError("event lives over a different path space")

    def census(self, event: Event) -> tuple[int, int, int, int]:
        """Counts of the event's members by change count mod 4.

        Four popcounts of the event's mask against the residue-class masks
        of this horizon, from the per-horizon cache; no member is visited.
        The event sums read the pair (c0 - c2, c1 - c3) from three popcounts
        instead (``_pair``); this full count is the reference they are
        tested against.
        """
        self._check_event(event)
        mask = event.mask
        return tuple((mask & m).bit_count() for m in _residue_masks(self.space.n))

    def _pair(self, mask: int) -> tuple[int, int]:
        """(c0 - c2, c1 - c3) of the census of the paths in mask, from
        pc(x & A), pc(x & C) and pc(x), with A = m0 | m1 and C = m0 | m3.

        The mask is an event's over this horizon, or a union of such masks:
        the caller checks the events' space.
        """
        masks = self._pair_masks
        if masks is None:
            m0, m1, _, m3 = _residue_masks(self.space.n)
            masks = self._pair_masks = (m0 | m1, m0 | m3)
        a = (mask & masks[0]).bit_count()
        c = (mask & masks[1]).bit_count()
        return a + c - mask.bit_count(), a - c

    def functional(self, a: Event, b: Event) -> Dyadic:
        """Decoherence functional of the event pair, via the rank-two pairs."""
        space = self.space  # _check_event's test on both, inline on this hot path
        if (a.space is not space and a.space != space) or (b.space is not space and b.space != space):
            raise ValueError("event lives over a different path space")
        ua, va = self._pair(a.mask)
        ub, vb = self._pair(b.mask)
        return Dyadic(ua * ub + va * vb, self.space.n)

    def functional_by_entries(self, a: Event, b: Event) -> Dyadic:
        """Reference route: literal sum of matrix entries over a x b, one
        inner step per member pair, charged before the first."""
        self._check_event(a)
        self._check_event(b)
        size_a, size_b = a.cardinality, b.cardinality
        charge(size_a * size_b, f"entry sum over {size_a} x {size_b} members")
        rows = [(j, self.residue(j)) for j in a.indices()]
        cols = [(k, self.residue(k)) for k in b.indices()]
        total = 0
        for j, rj in rows:
            for k, rk in cols:
                if (j ^ k) & 1:
                    continue
                total += 1 if rj == rk else -1
        return Dyadic(total, self.space.n)

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

    def eigen_equation_holds(self) -> bool:
        """Exact check that both eigenvectors satisfy (matrix * v) = v / 2.

        Works in integers: (2**n * matrix) applied to the unnormalized
        vector must equal 2**(n-1) times that vector, entry by entry.  Row j
        of the sign matrix is zero off its own end site and, on it, +1 at
        the columns sharing j's change residue and -1 elsewhere, so each
        component of row j times the vector is twice its sum over the
        same-residue columns minus its sum over the whole site: its class
        sum less the other class's sum on that site.  A row is thus fixed by
        its residue.  Each component is taken out of the vector on its own,
        laid out by residue class (``paths._class_segments``) once to sum
        the four classes and once to compare every row with its class's
        value.  Every row of both sites is checked against every column of
        its site, so a stray nonzero entry on the wrong site fails its own
        row.  O(2**n), so charged with the eigenvectors, which are built
        one at a time.
        """
        n = self.space.n
        half = 1 << (n - 1)
        for parity in (0, 1):
            vec = self.eigenvector_exact(parity)
            for part in (0, 1):
                component = [z[part] for z in vec]
                sums = [0, 0, 0, 0]
                for r, members in _class_segments(component, n):
                    sums[r] += sum(members)
                # each row of residue r: its class sum twice less its site's sum
                rows = [sums[r] - sums[r ^ 2] for r in range(4)]
                for r, members in _class_segments(component, n):
                    row = rows[r]
                    if any(half * w != row for w in members):
                        return False
        return True

    # -- vector measure and strong positivity --------------------------------

    def vector_measure(self, event: Event) -> VectorMeasureValue:
        """The event's two-component vector, additive and functional-compatible."""
        # _check_event's test, inline on this hot path
        if event.space is not self.space and event.space != self.space:
            raise ValueError("event lives over a different path space")
        u, v = self._pair(event.mask)
        return VectorMeasureValue(u, v, self.space.n)

    def strong_positivity_check(self, events: Sequence[Event]) -> bool:
        """Exact guard that the events' functional Gram matrix is PSD.

        The matrix is a Gram matrix of two-component vectors, hence PSD by
        construction; the check exists to catch implementation bugs, not
        mathematical failures.  It factors the integer matrix of the
        2**n-scaled functionals, which has the same signature, by
        fraction-free elimination: at most k**3 integer steps for k events.
        """
        charge(16 * len(events) ** 3, f"strong-positivity check of {len(events)} events")
        for ev in events:
            self._check_event(ev)
        pairs = [self._pair(ev.mask) for ev in events]
        gram = [[xu * yu + xv * yv for yu, yv in pairs] for xu, xv in pairs]
        return psd_by_ldl(gram)
