import pytest
from hypothesis import given, strategies as st

from cuntz.extnat import INF, ExtNat
from cuntz.supernatural import (
    UNIVERSAL,
    DuplicateBase,
    NotPrime,
    PrimalityNotCertified,
    Supernatural,
    ZeroExponent,
    sn_format,
    sn_is_infinite_type,
    sn_make,
    sn_mul,
    sn_parse,
)

PRIMES = (2, 3, 5, 7, 11, 13)

exponents = st.integers(min_value=1, max_value=9).map(ExtNat) | st.just(INF)


@st.composite
def supernaturals(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return UNIVERSAL
    chosen = draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=4))
    return sn_make([(p, draw(exponents)) for p in chosen])


def test_make_validates_input():
    with pytest.raises(NotPrime):
        sn_make([(4, ExtNat(1))])
    with pytest.raises(NotPrime):
        sn_make([(1, ExtNat(1))])
    with pytest.raises(DuplicateBase):
        sn_make([(3, ExtNat(1)), (3, INF)])
    with pytest.raises(ZeroExponent):
        sn_make([(5, ExtNat(0))])
    assert sn_make([]).is_one


def test_large_prime_accepted():
    big = 2**61 - 1  # Mersenne prime, exercises the Miller-Rabin path
    n = sn_make([(big, ExtNat(2))])
    assert n.exponent(big) == ExtNat(2)


def test_strong_pseudoprime_to_bases_up_to_37_is_rejected():
    # 399165290221 * 798330580441 passes Miller-Rabin to every base <= 37.
    with pytest.raises(NotPrime):
        sn_make([(318665857834031151167461, ExtNat(1))])
    with pytest.raises(NotPrime):
        sn_parse("318665857834031151167461:inf")


def test_primality_above_the_certified_bound_is_an_input_error():
    # The smallest strong pseudoprime to every base <= 41 and the Mersenne
    # prime 2^89 - 1 both pass every round; neither is certified.
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(PrimalityNotCertified, match="not certified"):
            sn_make([(n, ExtNat(1))])
    # Composites above the bound are still recognised.
    with pytest.raises(NotPrime):
        sn_make([((2**89 - 1) * 3, ExtNat(1))])


def test_parse_format_round_trip_examples():
    for text in ("2:inf,3:2", "Q", "1", "2:1", "3:inf,7:4"):
        assert sn_format(sn_parse(text)) == text
    assert sn_parse("3:2,2:inf") == sn_parse("2:inf,3:2")  # order is canonical
    with pytest.raises(ValueError):
        sn_parse("")
    with pytest.raises(ValueError):
        sn_parse("2")
    with pytest.raises(ValueError):
        sn_parse("x:2")


@given(supernaturals())
def test_format_round_trips(n):
    assert sn_parse(sn_format(n)) == n


@given(supernaturals(), supernaturals())
def test_mul_commutes(a, b):
    assert sn_mul(a, b) == sn_mul(b, a)


@given(supernaturals(), supernaturals(), supernaturals())
def test_mul_associates(a, b, c):
    assert sn_mul(sn_mul(a, b), c) == sn_mul(a, sn_mul(b, c))


@given(supernaturals())
def test_one_is_neutral_and_universal_absorbs(n):
    one = Supernatural()
    assert sn_mul(n, one) == n
    assert sn_mul(n, UNIVERSAL) == UNIVERSAL


def divides(a, b):
    """a | b exponent by exponent.  Every drawn number lives on PRIMES, so one
    prime outside them tells the universal number from 2^inf 3^inf ... 13^inf."""
    return all(a.exponent(p) <= b.exponent(p) for p in PRIMES + (17,))


@given(supernaturals(), supernaturals())
def test_factors_divide_their_product(a, b):
    m = sn_mul(a, b)
    assert divides(a, m)
    assert divides(b, m)


@given(supernaturals(), supernaturals())
def test_divisibility_antisymmetry_is_equality(a, b):
    if divides(a, b) and divides(b, a):
        assert a == b


def test_divides_universal():
    assert divides(sn_parse("2:inf,3:2"), UNIVERSAL)
    assert not divides(UNIVERSAL, sn_parse("2:inf,3:2"))
    assert divides(UNIVERSAL, UNIVERSAL)


@given(supernaturals())
def test_infinite_type_is_the_absorption_property(n):
    assert sn_is_infinite_type(n) == (sn_mul(n, n) == n)


def test_infinite_type_examples():
    assert sn_is_infinite_type(sn_parse("2:inf"))
    assert sn_is_infinite_type(UNIVERSAL)
    assert sn_is_infinite_type(sn_parse("1"))
    assert not sn_is_infinite_type(sn_parse("2:inf,3:2"))


def test_exponent_lookup():
    n = sn_parse("2:inf,3:2")
    assert n.exponent(2) == INF
    assert n.exponent(3) == ExtNat(2)
    assert n.exponent(5) == ExtNat(0)
    assert UNIVERSAL.exponent(97) == INF
