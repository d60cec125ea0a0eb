"""Exact scaled-integer arithmetic.

Two value types cover every number this library produces:

* ``Dyadic``        -- p / 2**k: truncated measures, matrix entries and the
  decoherence functional, which is real
* ``RootTwoScaled`` -- (a + b*sqrt(2)) / 2**k, closed forms with cos(m*pi/4)

Both are slotted immutable classes: each field is written once, through
its slot, while the value is built, and assigning or deleting one raises
AttributeError.  Every value is kept in lowest terms on construction by one
shift of its parts, reduced on the plain ints before the object exists; an
integer or a value with an odd part, the common case, is stored as given.

Nothing here touches floats except the explicit ``float()`` conversions, so
zero tests (preclusion decisions in particular) are always settled by integer
comparison, never by tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


def _common_shift(acc: int, log2_den: int) -> int:
    """How far parts whose bitwise OR is acc reduce over 2**log2_den, for
    log2_den >= 1 and an even acc.

    The parts share as many trailing zero bits as acc has, so one shift by
    that count, capped at log2_den, puts them in lowest terms; all-zero
    parts reduce to denominator exponent 0.
    """
    return min((acc & -acc).bit_length() - 1, log2_den) if acc else log2_den


class _Frozen:
    """Immutability for the slotted value types: every field is written
    once, through its slot descriptor, while the value is built."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_new = object.__new__


@total_ordering
class Dyadic(_Frozen):
    """Exact dyadic rational num / 2**log2_den, kept in lowest terms."""

    __slots__ = ("num", "log2_den")

    def __new__(cls, num: int, log2_den: int = 0) -> "Dyadic":
        # an integer or an odd numerator is already in lowest terms
        if log2_den > 0:
            if not num & 1:
                shift = _common_shift(num, log2_den)
                num >>= shift
                log2_den -= shift
        elif log2_den:
            raise ValueError("denominator exponent must be nonnegative")
        self = _new(cls)
        _set_num(self, num)
        _set_dyadic_den(self, log2_den)
        return self

    def __reduce__(self):
        return Dyadic, (self.num, self.log2_den)

    def __repr__(self) -> str:
        return f"Dyadic(num={self.num!r}, log2_den={self.log2_den!r})"

    def is_zero(self) -> bool:
        return self.num == 0

    # the real-number protocol of int, Fraction and float
    @property
    def real(self) -> "Dyadic":
        return self

    @property
    def imag(self) -> "Dyadic":
        return Dyadic(0)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log2_den)

    def numerator_at(self, log2_den: int) -> int:
        """Numerator when written over 2**log2_den; exact or ValueError."""
        shift = log2_den - self.log2_den
        if shift < 0:
            raise ValueError(f"{self} has no exact form over 2**{log2_den}")
        return self.num << shift

    def _coerced(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        den = max(self.log2_den, other.log2_den)
        num = (self.num << (den - self.log2_den)) + (other.num << (den - other.log2_den))
        return Dyadic(num, den)

    __radd__ = __add__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.log2_den)

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return Dyadic(self.num * other.num, self.log2_den + other.log2_den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not Dyadic:
            other = self._coerced(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.log2_den == other.log2_den

    def __hash__(self):
        return hash((self.num, self.log2_den))

    def __lt__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return (self.num << other.log2_den) < (other.num << self.log2_den)

    def __float__(self) -> float:
        # int / int is correctly rounded, as in Fraction.__float__
        return self.num / (1 << self.log2_den)

    def __str__(self) -> str:
        return str(self.as_fraction())


_set_num = Dyadic.num.__set__
_set_dyadic_den = Dyadic.log2_den.__set__

# cos(m*pi/4) for m = 0..7, as (int_part, root_part) over denominator 2
_COS_EIGHTH = ((2, 0), (0, 1), (0, 0), (0, -1), (-2, 0), (0, -1), (0, 0), (0, 1))


class RootTwoScaled(_Frozen):
    """Element of Z[sqrt(2)] over a power of two: (a + b*sqrt(2)) / 2**log2_den."""

    __slots__ = ("int_part", "root_part", "log2_den")

    def __new__(cls, int_part: int, root_part: int, log2_den: int = 0) -> "RootTwoScaled":
        if log2_den > 0:
            acc = int_part | root_part
            if not acc & 1:
                shift = _common_shift(acc, log2_den)
                int_part >>= shift
                root_part >>= shift
                log2_den -= shift
        elif log2_den:
            raise ValueError("denominator exponent must be nonnegative")
        self = _new(cls)
        _set_int_part(self, int_part)
        _set_root_part(self, root_part)
        _set_root_two_den(self, log2_den)
        return self

    def __reduce__(self):
        return RootTwoScaled, (self.int_part, self.root_part, self.log2_den)

    def __repr__(self) -> str:
        return (
            f"RootTwoScaled(int_part={self.int_part!r}, root_part={self.root_part!r}, "
            f"log2_den={self.log2_den!r})"
        )

    @classmethod
    def from_int(cls, value: int) -> "RootTwoScaled":
        return cls(value, 0, 0)

    @classmethod
    def pow2_half(cls, half_exponent: int) -> "RootTwoScaled":
        """2**(half_exponent / 2), exact for any integer half_exponent."""
        q, r = divmod(half_exponent, 2)
        a, b = (1, 0) if r == 0 else (0, 1)
        if q >= 0:
            return cls(a << q, b << q, 0)
        return cls(a, b, -q)

    @classmethod
    def cos_eighth(cls, m: int) -> "RootTwoScaled":
        """cos(m * pi / 4), exact."""
        a, b = _COS_EIGHTH[m & 7]
        return cls(a, b, 1)

    def _coerced(self, other):
        if isinstance(other, RootTwoScaled):
            return other
        if isinstance(other, int):
            return RootTwoScaled(other, 0, 0)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        den = max(self.log2_den, other.log2_den)
        s, o = den - self.log2_den, den - other.log2_den
        return RootTwoScaled(
            (self.int_part << s) + (other.int_part << o),
            (self.root_part << s) + (other.root_part << o),
            den,
        )

    __radd__ = __add__

    def __neg__(self) -> "RootTwoScaled":
        return RootTwoScaled(-self.int_part, -self.root_part, self.log2_den)

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        a = self.int_part * other.int_part + 2 * self.root_part * other.root_part
        b = self.int_part * other.root_part + self.root_part * other.int_part
        return RootTwoScaled(a, b, self.log2_den + other.log2_den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return (self.int_part, self.root_part, self.log2_den) == (
            other.int_part,
            other.root_part,
            other.log2_den,
        )

    def __hash__(self):
        return hash((self.int_part, self.root_part, self.log2_den))

    def is_dyadic(self) -> bool:
        return self.root_part == 0

    def to_dyadic(self) -> Dyadic:
        if not self.is_dyadic():
            raise ValueError(f"{self} has an irrational part")
        return Dyadic(self.int_part, self.log2_den)

    def __float__(self) -> float:
        return (self.int_part + self.root_part * 2 ** 0.5) / (1 << self.log2_den)

    def __str__(self) -> str:
        return f"({self.int_part} + {self.root_part}*sqrt(2)) / 2**{self.log2_den}"


_set_int_part = RootTwoScaled.int_part.__set__
_set_root_part = RootTwoScaled.root_part.__set__
_set_root_two_den = RootTwoScaled.log2_den.__set__
