from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cuntz.extnat import (
    INF,
    CarValue,
    Dyadic,
    ExtNat,
    car_leq,
    extnat_sup,
    way_below,
)

finites = st.integers(min_value=0, max_value=200).map(ExtNat)
extnats = finites | st.just(INF)


def test_constructor_rejects_bad_values():
    with pytest.raises(ValueError):
        ExtNat(-1)
    with pytest.raises(TypeError):
        ExtNat(1.5)
    with pytest.raises(TypeError):
        ExtNat(True)


def test_inf_is_not_a_big_integer():
    assert ExtNat(10**9) != INF
    assert ExtNat(10**9) < INF


def test_parse_and_json_round_trip():
    assert ExtNat.parse("inf") == INF
    assert ExtNat.parse(" 7 ") == ExtNat(7)
    assert ExtNat.of("inf").to_json() == "inf"
    assert ExtNat.of(3).to_json() == 3
    assert ExtNat.of(ExtNat(2)) == ExtNat(2)
    with pytest.raises(ValueError):
        ExtNat.parse("-3")
    with pytest.raises(ValueError):
        ExtNat.parse("2.5")


@given(extnats, extnats)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(extnats, extnats, extnats)
def test_addition_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(extnats)
def test_zero_is_neutral(x):
    assert x + ExtNat(0) == x


@given(extnats, extnats)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


def test_zero_times_inf():
    assert ExtNat(0) * INF == ExtNat(0)
    assert INF * ExtNat(0) == ExtNat(0)
    assert ExtNat(2) * INF == INF


@given(extnats, extnats, extnats)
def test_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(extnats, extnats, extnats)
def test_order_is_compatible_with_addition(x, y, z):
    if x <= y:
        assert x + z <= y + z


@given(st.lists(extnats, min_size=1, max_size=6))
def test_sup_is_least_upper_bound(values):
    s = extnat_sup(values)
    assert all(v <= s for v in values)
    assert s in values  # the order is total, so the sup is attained


def test_sup_of_empty_family_fails():
    with pytest.raises(ValueError):
        extnat_sup([])


@given(extnats, extnats)
def test_way_below_refines_leq(x, y):
    if way_below(x, y):
        assert x <= y


@given(extnats)
def test_compact_elements_are_exactly_the_finite_ones(x):
    assert way_below(x, x) == x.is_finite


@given(extnats, extnats, extnats, extnats)
def test_way_below_is_additive(a1, a, b1, b):
    # the O3 axiom on the full carrier
    if way_below(a1, a) and way_below(b1, b):
        assert way_below(a1 + b1, a + b)


@given(extnats, extnats, extnats)
def test_way_below_interpolates_downward(x, y, z):
    if x <= y and way_below(y, z):
        assert way_below(x, z)


# ---------------------------------------------------------------------------
# Dyadic rationals and CAR values.

def test_dyadic_lowest_terms_enforced():
    with pytest.raises(ValueError):
        Dyadic(2, 1)  # 2/2 should be 1/1
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))
    d = Dyadic.from_fraction(Fraction(6, 4))
    assert (d.num, d.exp) == (3, 1)


dyadics = st.integers(min_value=0, max_value=64).map(lambda n: Fraction(n, 16))
rationals = st.fractions(min_value=Fraction(1, 50), max_value=4, max_denominator=50)


@given(dyadics, dyadics)
def test_dyadic_addition_matches_fractions(p, q):
    a, b = Dyadic.from_fraction(p), Dyadic.from_fraction(q)
    assert (a + b).as_fraction() == p + q


def test_car_value_constructors():
    with pytest.raises(ValueError):
        CarValue.compact(Fraction(1, 3))
    with pytest.raises(ValueError):
        CarValue.soft(0)
    assert CarValue.compact(Fraction(3, 4)).is_compact
    assert not CarValue.soft(Fraction(1, 3)).is_compact


@given(dyadics, rationals)
def test_soft_absorbs_on_addition(d, q):
    mixed = CarValue.compact(d) + CarValue.soft(q)
    assert not mixed.is_compact
    assert mixed.value == d + q


def test_car_order_four_cases():
    c = CarValue.compact
    s = CarValue.soft
    assert car_leq(c(Fraction(1, 2)), c(Fraction(1, 2)))
    assert car_leq(s(Fraction(1, 2)), s(Fraction(1, 2)))
    # soft below compact of the same size, not conversely
    assert car_leq(s(Fraction(1, 2)), c(Fraction(1, 2)))
    assert not car_leq(c(Fraction(1, 2)), s(Fraction(1, 2)))
    assert car_leq(c(Fraction(1, 2)), s(Fraction(3, 4)))


@given(
    st.one_of(dyadics.map(CarValue.compact), rationals.map(CarValue.soft)),
    st.one_of(dyadics.map(CarValue.compact), rationals.map(CarValue.soft)),
    st.one_of(dyadics.map(CarValue.compact), rationals.map(CarValue.soft)),
)
def test_car_order_is_transitive_and_additive(x, y, z):
    if car_leq(x, y) and car_leq(y, z):
        assert car_leq(x, z)
    if car_leq(x, y):
        assert car_leq(x + z, y + z)
