"""Supernatural numbers: formal products of primes with exponents in
N0 ∪ {inf}, including the universal supernatural number (every prime to
the infinite power).  These classify UHF algebras up to isomorphism.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .extnat import INF, ExtNat
from .record import Record


class NotPrime(ValueError):
    """A declared base is not a prime number."""


class DuplicateBase(ValueError):
    """The same prime appears twice in one descriptor."""


class ZeroExponent(ValueError):
    """Exponents must be >= 1; absent primes are simply omitted."""


class PrimalityNotCertified(ValueError):
    """A base passes every Miller-Rabin round but lies above the bound
    below which those rounds prove primality."""


# Miller-Rabin with the primes up to 41 as bases decides primality for
# every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality below ``_MR_BOUND``.

    A composite number of any size is recognised when one base witnesses
    it; a number above the bound that passes every base raises
    PrimalityNotCertified instead of being called prime.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise PrimalityNotCertified(
            f"primality of {n} is not certified: Miller-Rabin to bases 2..41 "
            f"decides only below {_MR_BOUND}"
        )
    return True


class Supernatural(Record):
    """A supernatural number, stored as sorted (prime, exponent) pairs.

    ``universal`` marks the product of every prime to the infinite power;
    its ``exponents`` tuple is empty by convention.
    """

    exponents: Tuple[Tuple[int, ExtNat], ...] = ()
    universal: bool = False

    def exponent(self, prime: int) -> ExtNat:
        if self.universal:
            return INF
        for p, e in self.exponents:
            if p == prime:
                return e
        return ExtNat(0)

    @property
    def is_one(self) -> bool:
        return not self.universal and not self.exponents

    def __str__(self) -> str:
        return sn_format(self)


def sn_make(pairs: Iterable[Tuple[int, ExtNat]]) -> Supernatural:
    """Build a supernatural number from (prime, exponent) data.

    Raises NotPrime, DuplicateBase, or ZeroExponent on malformed input, and
    PrimalityNotCertified for a base too large to certify as prime.
    The empty product is the supernatural number 1.
    """
    seen: Dict[int, ExtNat] = {}
    for prime, exp in pairs:
        if not _is_prime(prime):
            raise NotPrime(f"{prime} is not prime")
        if prime in seen:
            raise DuplicateBase(f"prime {prime} appears twice")
        exp = ExtNat.of(exp)
        if exp == ExtNat(0):
            raise ZeroExponent(f"prime {prime} has exponent 0; omit it instead")
        seen[prime] = exp
    return Supernatural(tuple(sorted(seen.items())))


UNIVERSAL = Supernatural(universal=True)


def sn_mul(a: Supernatural, b: Supernatural) -> Supernatural:
    """Multiply by adding exponents; the universal number absorbs."""
    if a.universal or b.universal:
        return UNIVERSAL
    merged: Dict[int, ExtNat] = dict(a.exponents)
    for p, e in b.exponents:
        merged[p] = merged[p] + e if p in merged else e
    return Supernatural(tuple(sorted(merged.items())))


def sn_is_infinite_type(a: Supernatural) -> bool:
    """Infinite type: every occurring exponent is infinite.

    Equivalent to a * a == a, the absorption characterisation.
    """
    if a.universal:
        return True
    return all(not e.is_finite for _, e in a.exponents)


def sn_parse(text: str) -> Supernatural:
    """Parse the textual syntax ``2:inf,3:2`` or the keyword ``Q``."""
    text = text.strip()
    if text == "Q":
        return UNIVERSAL
    if text == "1":
        return Supernatural()
    if not text:
        raise ValueError("empty supernatural descriptor")
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise ValueError(f"expected prime:exponent, got {chunk!r}")
        base, _, exp = chunk.partition(":")
        base = base.strip()
        exp = exp.strip()
        if not base.isdecimal():
            raise ValueError(f"bad prime {base!r}")
        pairs.append((int(base), ExtNat.parse(exp)))
    return sn_make(pairs)


def sn_format(a: Supernatural) -> str:
    """Canonical text form; ``sn_parse`` round-trips it bit-exactly."""
    if a.universal:
        return "Q"
    if a.is_one:
        return "1"
    return ",".join(f"{p}:{e}" for p, e in a.exponents)
