import random

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from nabext import Algebra
from nabext.fields import GF2, GF3, MAX_PRIME, FieldError, PrimeField, QQ, Rationals


def test_rationals_are_exact():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.div(Fraction(3), Fraction(2)) == Fraction(3, 2)
    assert QQ.inv(Fraction(-7, 2)) == Fraction(-2, 7)


def test_rationals_parse_and_format_round_trip():
    for text in ["3/2", "-1", "0", "7", "-5/3"]:
        value = QQ.parse(text)
        assert QQ.parse(QQ.format(value)) == value
    with pytest.raises(FieldError):
        QQ.parse("three halves")
    with pytest.raises(FieldError):
        QQ.parse("1/0")


def test_rationals_refuse_exponent_notation():
    # Fraction reads "1e10000000" as a ten-million-digit integer, which
    # takes seconds; a small exponent shows the refusal without the wait
    for text in ["1e3", "1E3", "-2.5e-1", "3e0/2", "1/2e1"]:
        with pytest.raises(FieldError, match="exponent notation"):
            QQ.parse(text)
    assert [QQ.parse(t) for t in ["3/2", "-5/3", "7", "-1", "0"]] == [
        Fraction(3, 2), Fraction(-5, 3), Fraction(7), Fraction(-1), Fraction(0)
    ]
    assert QQ.parse(7) == 7
    rng = random.Random(5)
    for _ in range(50):
        value = QQ.random(rng) * rng.choice((1, 10 ** 12, Fraction(1, 10 ** 12)))
        assert QQ.parse(QQ.format(value)) == value


def test_rational_coerce_refuses_exponent_notation():
    # a string handed to coerce, as Algebra.from_products and
    # MultilinearMap.from_entries do with a caller's coefficients, is parsed,
    # so exponent notation is refused rather than expanded
    for text in ["1e3", "-2.5e-1"]:
        with pytest.raises(FieldError, match="exponent notation"):
            QQ.coerce(text)
    with pytest.raises(FieldError, match="exponent notation"):
        Algebra.from_products(QQ, ["x"], {(0, 0): {0: "1e3"}})
    assert [QQ.coerce(v) for v in ("3/2", 7, Fraction(-5, 3))] == [Fraction(3, 2), Fraction(7), Fraction(-5, 3)]
    with pytest.raises(FieldError):
        QQ.coerce("three halves")


def test_rational_division_by_zero():
    with pytest.raises(FieldError):
        QQ.inv(Fraction(0))
    with pytest.raises(FieldError):
        QQ.div(Fraction(1), Fraction(0))


def test_prime_field_requires_a_prime():
    with pytest.raises(FieldError):
        PrimeField(4)
    with pytest.raises(FieldError):
        PrimeField(1)
    with pytest.raises(FieldError):
        PrimeField(MAX_PRIME + 2)  # 253 = 11 * 23, but the bound fires anyway
    assert PrimeField(MAX_PRIME).p == 251


def test_prime_field_inverse_is_exact():
    f5 = PrimeField(5)
    for x in range(1, 5):
        assert f5.mul(x, f5.inv(x)) == 1
    with pytest.raises(FieldError):
        f5.inv(0)
    with pytest.raises(FieldError):
        f5.div(3, 0)


def test_prime_field_parse_rejects_fractions():
    with pytest.raises(FieldError):
        GF3.parse("1/2")
    assert GF3.parse("-1") == 2
    assert GF3.format(GF3.parse("5")) == "2"


def test_prime_field_coerce_normalizes():
    assert GF3.coerce(-4) == 2
    assert GF3.coerce(Fraction(6, 1)) == 0
    with pytest.raises(FieldError):
        GF3.coerce(Fraction(1, 2))


@pytest.mark.parametrize("field", [GF2, GF3])
def test_fermat_little_theorem_on_scalars(field):
    # x^p = x elementwise, a sanity check on the whole scalar layer
    p = field.p
    for x in field.elements():
        power = field.one
        for _ in range(p):
            power = field.mul(power, x)
        assert power == x


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_gf3_ring_axioms(a, b, c):
    x, y, z = GF3.coerce(a), GF3.coerce(b), GF3.coerce(c)
    assert GF3.mul(x, GF3.add(y, z)) == GF3.add(GF3.mul(x, y), GF3.mul(x, z))
    assert GF3.add(x, GF3.neg(x)) == 0
    assert GF3.mul(GF3.mul(x, y), z) == GF3.mul(x, GF3.mul(y, z))


@given(
    st.fractions(max_denominator=30),
    st.fractions(max_denominator=30),
)
def test_rationals_field_axioms(x, y):
    assert QQ.add(x, y) == QQ.add(y, x)
    assert QQ.sub(QQ.add(x, y), y) == x
    if y != 0:
        assert QQ.mul(QQ.div(x, y), y) == x


def test_field_equality_and_randomness_determinism():
    assert PrimeField(3) == GF3
    assert Rationals() == QQ
    assert PrimeField(2) != PrimeField(3)
    r1, r2 = random.Random(11), random.Random(11)
    assert [GF3.random(r1) for _ in range(20)] == [GF3.random(r2) for _ in range(20)]
