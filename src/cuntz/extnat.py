"""Saturating arithmetic on the extended natural numbers, plus the
compact/soft value monoid used for self-pairings of the CAR algebra.

``ExtNat`` models N0 together with an absorbing infinite element.  The
infinite element is a distinct tag, never a sentinel integer, so ``ExtNat(10**9)``
and ``INF`` are unrelated values.  ``CarValue`` models the disjoint union
of the non-negative dyadic rationals (compact classes) and the strictly
positive rationals (soft classes); addition lands in the soft part as soon
as one summand is soft.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union


class ExtNat:
    """An element of N0 ∪ {inf} with saturating addition and multiplication."""

    __slots__ = ("_v",)

    def __init__(self, value: int = 0):
        if value is not _INF_TAG:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"ExtNat value must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"ExtNat value must be >= 0, got {value}")
        self._v = value

    @classmethod
    def infinity(cls) -> "ExtNat":
        out = cls.__new__(cls)
        out._v = _INF_TAG
        return out

    @classmethod
    def of(cls, value: Union["ExtNat", int, str]) -> "ExtNat":
        """Coerce an int, the string ``"inf"``, or a decimal string."""
        if isinstance(value, ExtNat):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    @classmethod
    def parse(cls, text: str) -> "ExtNat":
        text = text.strip()
        if text == "inf":
            return cls.infinity()
        if not text.isdecimal():
            raise ValueError(f"not an extended natural: {text!r}")
        return cls(int(text))

    @property
    def is_finite(self) -> bool:
        return self._v is not _INF_TAG

    @property
    def finite_value(self) -> int:
        if self._v is _INF_TAG:
            raise ValueError("the infinite element has no finite value")
        return self._v

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self._v is _INF_TAG or other._v is _INF_TAG:
            return INF
        return ExtNat(self._v + other._v)

    def __mul__(self, other: "ExtNat") -> "ExtNat":
        # 0 * inf = 0: a vanishing rank kills every copy.
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self._v == 0 or other._v == 0:
            return ZERO
        if self._v is _INF_TAG or other._v is _INF_TAG:
            return INF
        return ExtNat(self._v * other._v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExtNat) and self._v == other._v

    def __hash__(self) -> int:
        return hash(("ExtNat", self._v))

    def __le__(self, other: "ExtNat") -> bool:
        if not isinstance(other, ExtNat):
            return NotImplemented
        if other._v is _INF_TAG:
            return True
        if self._v is _INF_TAG:
            return False
        return self._v <= other._v

    def __lt__(self, other: "ExtNat") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "ExtNat") -> bool:
        return other <= self

    def __gt__(self, other: "ExtNat") -> bool:
        return other < self

    def __str__(self) -> str:
        return "inf" if self._v is _INF_TAG else str(self._v)

    def __repr__(self) -> str:
        return "ExtNat.infinity()" if self._v is _INF_TAG else f"ExtNat({self._v})"

    def to_json(self) -> Union[int, str]:
        return "inf" if self._v is _INF_TAG else self._v


_INF_TAG = object()

INF = ExtNat.infinity()
ZERO = ExtNat(0)


def extnat_sup(values: Iterable[ExtNat]) -> ExtNat:
    """Supremum of a non-empty finite family; the order is total."""
    out = None
    for v in values:
        if out is None or out < v:
            out = v
    if out is None:
        raise ValueError("supremum of an empty family")
    return out


def way_below(x: ExtNat, y: ExtNat) -> bool:
    """The way-below relation x ≪ y on ExtNat.

    Finite elements are compact (x ≪ x), the infinite element is not:
    x ≪ y iff y is finite and x <= y, or y is infinite and x is finite.
    """
    if y.is_finite:
        return x <= y
    return x.is_finite


@dataclass(frozen=True)
class Dyadic:
    """A non-negative dyadic rational num / 2**exp in lowest terms."""

    num: int
    exp: int

    def __post_init__(self):
        if self.num < 0 or self.exp < 0:
            raise ValueError(f"invalid dyadic {self.num}/2^{self.exp}")
        if self.exp > 0 and self.num % 2 == 0:
            raise ValueError(f"dyadic {self.num}/2^{self.exp} is not in lowest terms")

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        q = Fraction(q)
        if q < 0:
            raise ValueError(f"dyadic values are non-negative, got {q}")
        d = q.denominator
        if d & (d - 1):
            raise ValueError(f"{q} is not dyadic: denominator is not a power of two")
        return cls(q.numerator, d.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.from_fraction(self.as_fraction() + other.as_fraction())

    def __le__(self, other: "Dyadic") -> bool:
        return self.as_fraction() <= other.as_fraction()

    def __str__(self) -> str:
        return str(self.as_fraction())


_COMPACT = "compact"
_SOFT = "soft"


@dataclass(frozen=True)
class CarValue:
    """A class in the self-pairing monoid of the CAR algebra.

    Compact classes carry a dyadic rational >= 0 (dimensions of projections
    over the 2^inf UHF dimension group), soft classes a rational > 0.
    Adding a soft class to anything yields a soft class on the sum.
    """

    tag: str
    value: Fraction

    @classmethod
    def compact(cls, q) -> "CarValue":
        d = Dyadic.from_fraction(Fraction(q))  # validates dyadicity and sign
        return cls(_COMPACT, d.as_fraction())

    @classmethod
    def soft(cls, q) -> "CarValue":
        q = Fraction(q)
        if q <= 0:
            raise ValueError(f"soft values are strictly positive, got {q}")
        return cls(_SOFT, q)

    @property
    def is_compact(self) -> bool:
        return self.tag == _COMPACT

    @property
    def dyadic(self) -> Dyadic:
        if not self.is_compact:
            raise ValueError("soft classes have no dyadic representative")
        return Dyadic.from_fraction(self.value)

    def __add__(self, other: "CarValue") -> "CarValue":
        if not isinstance(other, CarValue):
            return NotImplemented
        total = self.value + other.value
        if self.is_compact and other.is_compact:
            return CarValue.compact(total)
        return CarValue.soft(total)

    def __str__(self) -> str:
        return f"{self.tag}:{self.value}"


def car_leq(x: CarValue, y: CarValue) -> bool:
    """Order on CarValue: soft classes sit strictly below the compact class
    of equal size, so compact d <= soft t requires d < t."""
    if x.is_compact and y.is_compact:
        return x.value <= y.value
    if not x.is_compact and not y.is_compact:
        return x.value <= y.value
    if x.is_compact:
        return x.value < y.value
    return x.value <= y.value
