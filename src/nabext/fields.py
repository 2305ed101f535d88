"""Exact scalar arithmetic: the rationals and prime fields F_p.

Every scalar is either a ``fractions.Fraction`` (over Q) or an ``int`` in
``[0, p)`` (over F_p).  All operations are exact; nothing in this package
ever touches a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Union

Scalar = Union[Fraction, int]

#: Largest prime accepted for a coefficient field.
MAX_PRIME = 251


class FieldError(ValueError):
    """Bad field parameter, malformed scalar, or division by zero."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Rationals:
    """The field Q with scalars stored as ``Fraction``."""

    characteristic: ClassVar[int] = 0
    # a Fraction is immutable, so every access can share one object
    zero: ClassVar[Fraction] = Fraction(0)
    one: ClassVar[Fraction] = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, str):
            # parse refuses exponent notation, which Fraction can stall on
            return self.parse(value)
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not a rational scalar: {value!r}") from exc

    def add(self, x: Fraction, y: Fraction) -> Fraction:
        return x + y

    def sub(self, x: Fraction, y: Fraction) -> Fraction:
        return x - y

    def mul(self, x: Fraction, y: Fraction) -> Fraction:
        return x * y

    def neg(self, x: Fraction) -> Fraction:
        return -x

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise FieldError("division by zero in Q")
        return Fraction(1) / x

    def div(self, x: Fraction, y: Fraction) -> Fraction:
        return self.mul(x, self.inv(y))

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parse(self, text: str) -> Fraction:
        """Parse ``"3/2"``, ``"-1"`` and friends into an exact rational; not
        exponent notation, which ``Fraction("1e10000000")`` takes seconds on."""
        text = str(text)
        if "e" in text or "E" in text:
            raise FieldError(f"not a rational scalar: {text!r} (exponent notation is not accepted)")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not a rational scalar: {text!r}") from exc

    def format(self, x: Fraction) -> str:
        return str(Fraction(x))

    def random(self, rng) -> Fraction:
        # Small numerators and denominators keep exact tensors cheap while
        # still exercising non-integer arithmetic.
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p of integers modulo a prime ``p <= MAX_PRIME``."""

    p: int

    def __post_init__(self):
        # the bound first: trial division of a large prime would not end
        if isinstance(self.p, int) and self.p > MAX_PRIME:
            raise FieldError(f"{self.p} exceeds the supported bound {MAX_PRIME}")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise FieldError(f"not a prime: {self.p!r}")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.p

    def coerce(self, value) -> int:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise FieldError(f"non-integer scalar {value} over F_{self.p}")
            value = value.numerator
        if not isinstance(value, int):
            raise FieldError(f"not an F_{self.p} scalar: {value!r}")
        return value % self.p

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def neg(self, x: int) -> int:
        return (-x) % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise FieldError(f"division by zero in F_{self.p}")
        return pow(x, -1, self.p)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def from_int(self, n: int) -> int:
        return n % self.p

    def parse(self, text: str) -> int:
        try:
            return int(str(text), 10) % self.p
        except ValueError as exc:
            raise FieldError(f"not an F_{self.p} scalar: {text!r}") from exc

    def format(self, x: int) -> str:
        return str(x % self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def elements(self) -> Iterable[int]:
        return range(self.p)

    def __str__(self) -> str:
        return f"F{self.p}"


Field = Union[Rationals, PrimeField]

QQ = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
