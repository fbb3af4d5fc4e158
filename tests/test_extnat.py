import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cuntz
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


def test_every_spelling_of_infinity_has_one_hash():
    spellings = [INF, ExtNat.infinity(), ExtNat.parse("inf"), ExtNat.of("inf")]
    assert all(x == INF for x in spellings)
    assert {hash(x) for x in spellings} == {sys.hash_info.inf}


@given(st.integers(min_value=0, max_value=10**30))
def test_a_finite_element_hashes_as_its_integer(k):
    assert hash(ExtNat(k)) == hash(ExtNat.parse(str(k))) == hash(k)


def test_an_extnat_and_its_integer_stay_two_keys():
    table = {ExtNat(3): "a", 3: "b"}
    assert ExtNat(3) != 3 and len(table) == 2
    assert table[ExtNat(3)] == "a" and table[3] == "b"


def test_hashes_do_not_depend_on_the_hash_seed():
    src = str(Path(cuntz.__file__).resolve().parents[1])
    code = "from cuntz.extnat import INF, ExtNat; print(hash(ExtNat(7)), hash(INF))"
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1] == f"7 {sys.hash_info.inf}\n"


def test_a_copy_of_inf_is_inf():
    for twin in (copy.copy(INF), copy.deepcopy(INF), pickle.loads(pickle.dumps(INF))):
        assert twin == INF and not twin.is_finite and hash(twin) == hash(INF)
    assert pickle.loads(pickle.dumps(ExtNat(5))) == ExtNat(5)


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
