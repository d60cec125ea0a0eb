import copy
import pickle
import random
from fractions import Fraction

import pytest

from qwalk.exact import Dyadic


def test_dyadic_normalization():
    assert Dyadic(4, 3) == Dyadic(1, 1)
    assert Dyadic(0, 7) == Dyadic(0, 0)
    assert Dyadic(6, 1) == Dyadic(3, 0)
    assert Dyadic(-4, 2) == Dyadic(-1, 0)


def test_dyadic_arithmetic():
    a, b = Dyadic(3, 2), Dyadic(1, 3)  # 3/4, 1/8
    assert (a + b).as_fraction() == Fraction(7, 8)
    assert (a - b).as_fraction() == Fraction(5, 8)
    assert (a * b).as_fraction() == Fraction(3, 32)
    assert (a * 2).as_fraction() == Fraction(3, 2)
    assert (2 * a - 1).as_fraction() == Fraction(1, 2)
    assert -a == Dyadic(-3, 2)
    assert a > b
    assert Dyadic(1, 1) < 1
    assert float(Dyadic(5, 2)) == 1.25


def test_dyadic_float_is_the_fraction_float():
    # both divide the integer parts once, so they round alike, ties included
    rng = random.Random(11)
    cases = [(1, 0), (-3, 1), (1, 1074), (1, 1075), (3, 1076), ((1 << 53) + 1, 53)]
    for _ in range(2000):
        bits = rng.randint(1, 1200)  # a quotient below 2**1000 stays finite
        num = rng.getrandbits(bits) * rng.choice((1, -1))
        cases.append((num, rng.randint(max(0, bits - 1000), 1300)))
    for num, k in cases:
        d = Dyadic(num, k)
        assert float(d).hex() == float(d.as_fraction()).hex(), (num, k)
    with pytest.raises(OverflowError):
        float(Dyadic(1 << 1100))
    with pytest.raises(OverflowError):
        float(Fraction(1 << 1100))


def test_equality_with_same_class_ints_and_strangers():
    assert Dyadic(6, 1) == Dyadic(3) and Dyadic(3) == 3 and 3 == Dyadic(3)
    assert Dyadic(3, 1) != Dyadic(3) and Dyadic(1, 1) != 1
    assert Dyadic(1) != "1" and Dyadic(1) != 1.0 and Dyadic(1) != None  # noqa: E711
    # .real and .imag as on int, Fraction and float: the value, and zero
    for value in (Dyadic(3, 2), Dyadic(-5), Dyadic(0, 9), Dyadic(7, 40)):
        frac = value.as_fraction()
        assert type(value.real) is Dyadic and value.real == value
        assert value.real.as_fraction() == frac.real
        assert type(value.imag) is Dyadic and value.imag == Dyadic(0) == 0
        assert value.imag.as_fraction() == frac.imag


# -- the value types' object protocol -------------------------------------------


def test_value_type_reprs():
    assert repr(Dyadic(3, 2)) == "Dyadic(num=3, log2_den=2)"
    assert repr(Dyadic(-12, 5)) == "Dyadic(num=-3, log2_den=3)"
    assert repr(Dyadic(7)) == "Dyadic(num=7, log2_den=0)"


def test_value_types_built_apart_are_equal_and_hash_alike():
    pairs = [
        (Dyadic(2, 3), Dyadic(1, 2)),
        (Dyadic(4, 2), Dyadic(1)),
        (Dyadic(0, 9), Dyadic(0)),
        (Dyadic(-6, 1), Dyadic(-3, 0)),
        (Dyadic(num=5, log2_den=1), Dyadic(5, 1)),
    ]
    for a, b in pairs:
        assert a == b and not a != b and hash(a) == hash(b)
        assert type(a) is type(b)
    assert Dyadic(4, 2) == 1 and hash(Dyadic(4, 2)) == hash(Dyadic(1))
    assert len({Dyadic(2, 3), Dyadic(1, 2), Dyadic(4, 3)}) == 2
    assert Dyadic(1, 2) != Dyadic(1, 3)


def test_dyadic_ordering():
    values = [Dyadic(3, 2), Dyadic(-1), Dyadic(1, 3), Dyadic(0, 4), Dyadic(5, 1), Dyadic(2, 3)]
    assert sorted(values) == sorted(values, key=Dyadic.as_fraction)
    assert Dyadic(1, 2) <= Dyadic(2, 3) <= Dyadic(1, 2) and Dyadic(1, 2) >= Dyadic(2, 3)
    assert Dyadic(3, 2) > Dyadic(1, 1) and not Dyadic(3, 2) < Dyadic(1, 1)
    assert Dyadic(1, 1) < 1 <= Dyadic(1) and 2 > Dyadic(3, 1) >= 1
    assert max(values) == Dyadic(5, 1) and min(values) == -1
    with pytest.raises(TypeError):
        Dyadic(1) < "1"  # noqa: B015


@pytest.mark.parametrize(
    "value, fields",
    [(Dyadic(3, 2), ("num", "log2_den"))],
)
def test_value_types_are_immutable(value, fields):
    before = repr(value)
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize(
    "value",
    [Dyadic(3, 2), Dyadic(-7), Dyadic(0)],
)
def test_value_types_copy_and_pickle(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value
        assert hash(twin) == hash(value) and repr(twin) == repr(value)


def test_dyadic_numerator_at():
    v = Dyadic(3, 2)
    assert v.numerator_at(4) == 12
    assert v.numerator_at(2) == 3
    with pytest.raises(ValueError):
        v.numerator_at(1)


# -- reduction to lowest terms ------------------------------------------------


def _reduce_bit_by_bit(num, log2_den):
    """Reference: strip one factor of two per turn."""
    while log2_den and num % 2 == 0:
        num //= 2
        log2_den -= 1
    return num, log2_den


@pytest.mark.parametrize("cls", [Dyadic])
def test_reduce_zero_drops_the_denominator(cls):
    for den in (0, 1, 7, 64):
        value = cls(0, den)
        assert value.num == 0 and value.log2_den == 0


@pytest.mark.parametrize(
    "value, parts, den",
    [
        (Dyadic(-12, 5), (-3,), 3),
        (Dyadic(-1, 4), (-1,), 4),
    ],
)
def test_reduce_negative_numerators(value, parts, den):
    assert (value.num,) == parts and value.log2_den == den


@pytest.mark.parametrize(
    "value, parts",
    [
        (Dyadic(64, 2), (16,)),
        (Dyadic(-1 << 40, 3), (-(1 << 37),)),
    ],
)
def test_reduce_stops_at_integer(value, parts):
    # more trailing zeros than the denominator exponent: the value is an integer
    assert (value.num,) == parts and value.log2_den == 0


@pytest.mark.parametrize("value, parts, den", [(Dyadic(-3, 4), (-3,), 4)])
def test_reduce_keeps_mixed_parity(value, parts, den):
    assert (value.num,) == parts and value.log2_den == den


@pytest.mark.parametrize("cls", [Dyadic])
def test_reduce_rejects_negative_exponent(cls):
    for num in (0, 4, -3):
        with pytest.raises(ValueError):
            cls(num, -1)


def test_reduce_matches_bit_by_bit_reference():
    rng = random.Random(20261018)
    for _ in range(2000):
        num = rng.randint(-(1 << 12), 1 << 12) << rng.randint(0, 70)
        den = rng.randint(0, 80)
        value = Dyadic(num, den)
        assert (value.num, value.log2_den) == _reduce_bit_by_bit(num, den)
