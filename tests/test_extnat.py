import pytest
from hypothesis import given, strategies as st

from cuntz.extnat import INF, ExtNat, way_below
from cuntz.waxioms import extnat_fragment

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


# The supremum oracle that the O2 axiom check reads.
sup = extnat_fragment(0).sup


@given(st.lists(extnats, min_size=1, max_size=6))
def test_sup_is_least_upper_bound(values):
    s = sup(values)
    assert all(v <= s for v in values)
    assert s in values  # the order is total, so the sup is attained


def test_sup_of_empty_family_fails():
    assert sup([]) is None


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
