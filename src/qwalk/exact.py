"""Exact scaled-integer arithmetic.

One value type, ``Dyadic`` (p / 2**k), carries the library's exact scaled
numbers: truncated measures, matrix entries, the decoherence functional,
which is real, and the closed forms with cos(m*pi/4), whose root-two parts
always cancel.

It is a slotted immutable class: each field is written once, through its
slot, while the value is built, and assigning or deleting one raises
AttributeError.  Every value is kept in lowest terms on construction by one
shift of its numerator, reduced on the plain ints before the object exists;
an integer or an odd numerator, the common case, is stored as given.

Nothing here touches floats except the explicit ``float()`` conversion, so
zero tests (preclusion decisions in particular) are always settled by integer
comparison, never by tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


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
        # an integer or an odd numerator is already in lowest terms; an even
        # one sheds its trailing zero bits, at most log2_den of them, and
        # zero drops the denominator entirely
        if log2_den > 0:
            if not num & 1:
                shift = min((num & -num).bit_length() - 1, log2_den) if num else log2_den
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
