"""Saturating arithmetic on the extended natural numbers.

``ExtNat`` models N0 together with an absorbing infinite element.  The
infinite element is a distinct tag, never a sentinel integer, so ``ExtNat(10**9)``
and ``INF`` are unrelated values.

A finite element hashes as its integer and ``INF`` as ``sys.hash_info.inf``,
so no hash depends on ``PYTHONHASHSEED``.  Equality still tells ``ExtNat(3)``
from ``3``: a dict keeps them as two keys.
"""

from __future__ import annotations

import sys
from typing import Union


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
        # _v is an int or INF's tag, and both hash alike in every process
        return hash(self._v)

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


class _InfTag:
    """The value of INF: a single object with a fixed hash."""

    __slots__ = ()

    def __hash__(self) -> int:
        return sys.hash_info.inf

    def __reduce__(self) -> str:
        # copy and pickle return this one object, so a copy of INF is INF
        return "_INF_TAG"


_INF_TAG = _InfTag()

INF = ExtNat.infinity()
ZERO = ExtNat(0)


def way_below(x: ExtNat, y: ExtNat) -> bool:
    """The way-below relation x ≪ y on ExtNat.

    Finite elements are compact (x ≪ x), the infinite element is not:
    x ≪ y iff y is finite and x <= y, or y is infinite and x is finite.
    """
    if y.is_finite:
        return x <= y
    return x.is_finite
