import dataclasses

import pytest

from cuntz.extnat import INF, ExtNat, way_below
from cuntz.waxioms import (
    Fragment,
    FragmentNotClosed,
    check_wm_axioms,
    check_wo_axioms,
    extnat_fragment,
    extnat_scaling,
)


def failures(checks):
    return [c for c in checks if not c.passed]


@pytest.mark.parametrize("bound", [0, 1, 4, 12])
def test_extnat_fragment_satisfies_all_object_axioms(bound):
    checks = check_wo_axioms(extnat_fragment(bound))
    assert [c.axiom for c in checks] == ["O1", "O2", "O3", "O4"]
    assert failures(checks) == []


def test_full_order_as_auxiliary_still_passes_when_sup_is_total():
    # with aux = leq the infinite element claims to be compact, but the
    # lower-set suprema still work out, so O1/O2 survive; the fragment is
    # a sanity check that the checker really depends on the relation
    checks = check_wo_axioms(extnat_fragment(4, aux="leq"))
    assert failures(checks) == []


def test_finite_only_sup_oracle_is_total_on_way_below_lower_sets():
    # inf is way below nothing, so the partial oracle never sees it
    checks = check_wo_axioms(extnat_fragment(4, sup="finite-only"))
    assert failures(checks) == []


def test_finite_only_sup_oracle_fails_o2_under_full_order():
    # with aux = leq the lower set of inf contains inf, where the partial
    # oracle is undefined
    checks = check_wo_axioms(extnat_fragment(4, aux="leq", sup="finite-only"))
    bad = failures(checks)
    assert [c.axiom for c in bad] == ["O2"]
    assert "sup undefined" in bad[0].witness
    assert "inf" in bad[0].witness


def test_overflow_to_inf_fails_o3():
    base = extnat_fragment(6)
    cap = ExtNat(6)

    def add(x, y):
        s = x + y
        return s if not s.is_finite or s <= cap else INF

    broken = dataclasses.replace(base, add=add)
    bad = failures(check_wo_axioms(broken))
    assert [c.axiom for c in bad] == ["O3"]
    assert bad[0].witness is not None


@pytest.mark.parametrize(
    "fault,axiom,witness",
    [
        # 1 and 2 are incomparable, and both are way below 2
        ({"leq": lambda x, y: x == y or x == ExtNat(0)}, "O1",
         "lower set of 2 not directed at (1, 2)"),
        # nothing is aux-below 0 under the strict order
        ({"aux": lambda x, y: x < y}, "O1",
         "lower set of 0 has no aux-compact greatest element"),
        ({"sup": lambda values: INF}, "O2", "sup of lower set of 0 returned inf"),
        # under the order that makes everything equal, 0 bounds every set
        ({"leq": lambda x, y: True, "sup": lambda values: ExtNat(0)}, "O2",
         "1 is aux-compact but sup of its lower set is 0"),
        # 1 is not compact: only 0 is aux-below it, but 1 is aux-below 1+1
        ({"aux": lambda x, y: way_below(x, y) and not x == y == ExtNat(1)}, "O4",
         "1 aux-below 1+1 but no dominating split sum"),
    ],
    ids=["O1-directed", "O1-compact", "O2-bound", "O2-compact", "O4"],
)
def test_each_object_axiom_names_its_first_counterexample(fault, axiom, witness):
    checks = check_wo_axioms(dataclasses.replace(extnat_fragment(2), **fault))
    assert [c.witness for c in checks if c.axiom == axiom] == [witness]


def test_unclosed_fragment_raises():
    frag = Fragment(
        elements=[ExtNat(0), ExtNat(1)],
        add=lambda x, y: x + y,
        zero=ExtNat(0),
        leq=lambda x, y: x <= y,
        aux=lambda x, y: x <= y,
        sup=max,
    )
    with pytest.raises(FragmentNotClosed):
        check_wo_axioms(frag)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scaling_is_a_morphism(k):
    frag = extnat_fragment(10)
    checks = check_wm_axioms(extnat_scaling(frag, k), frag, frag)
    assert [c.axiom for c in checks] == ["M1", "M2"]
    assert failures(checks) == []


def test_scaling_rejects_k_zero():
    with pytest.raises(ValueError):
        extnat_scaling(extnat_fragment(4), 0)


def test_morphism_that_breaks_continuity_is_caught():
    frag = extnat_fragment(4)

    def collapse(x):
        # sends everything to inf: aux(t, f(s)) holds for finite t, but no
        # s' aux-below s has an image above t > f(s') is... it does: the
        # image is inf, so M1 holds; break M2 instead with a swap
        return INF if x == ExtNat(0) else x

    checks = check_wm_axioms(collapse, frag, frag)
    assert any(not c.passed for c in checks)


def test_morphism_escaping_target_raises():
    small = extnat_fragment(2)
    big = extnat_fragment(10)

    def embed(x):
        return x if not x.is_finite else ExtNat(x.finite_value + 5)

    with pytest.raises(FragmentNotClosed):
        check_wm_axioms(embed, small, small)
    # in a large enough target the shift evaluates, but it is not
    # continuous: aux(8, f(inf)) has no lift below inf
    checks = check_wm_axioms(embed, small, big)
    assert [c.axiom for c in failures(checks)] == ["M1"]
