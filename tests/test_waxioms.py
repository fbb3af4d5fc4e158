import dataclasses
import random
import traceback

import pytest

from cuntz.extnat import INF, ExtNat, way_below
from cuntz.waxioms import (
    Fragment,
    FragmentNotClosed,
    _first,
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


def overflow_to_inf(cap):
    """Clamped addition whose finite sums above cap become inf."""

    def add(x, y):
        s = x + y
        return s if not s.is_finite or s <= cap else INF

    return add


def test_overflow_to_inf_fails_o3():
    broken = dataclasses.replace(extnat_fragment(6), add=overflow_to_inf(ExtNat(6)))
    bad = failures(check_wo_axioms(broken))
    assert [c.axiom for c in bad] == ["O3"]
    assert bad[0].witness is not None


# One fault per object axiom on extnat_fragment(2), with its first
# counterexample as the generator checker printed it.
WITNESS_FAULTS = [
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
    # 1 + 2 overflows to inf, which is way below nothing
    ({"add": overflow_to_inf(ExtNat(2))}, "O3", "aux(1+2, 1+2) fails"),
    # 1 is not compact: only 0 is aux-below it, but 1 is aux-below 1+1
    ({"aux": lambda x, y: way_below(x, y) and not x == y == ExtNat(1)}, "O4",
     "1 aux-below 1+1 but no dominating split sum"),
]


@pytest.mark.parametrize(
    "fault,axiom,witness",
    WITNESS_FAULTS,
    ids=["O1-directed", "O1-compact", "O2-bound", "O2-compact", "O3", "O4"],
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
    with pytest.raises(FragmentNotClosed, match=r"^1 \+ 1 = 2 escapes the fragment$"):
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


# The differential oracles: the generator checkers as they stood before O1,
# O3, O4, M1 and M2 moved to bitmasks, kept verbatim.  check_wo_axioms and
# check_wm_axioms must agree with them on every fragment, including which
# addition or image raises FragmentNotClosed.


def _greatest(values, leq):
    for x in values:
        if all(leq(y, x) for y in values):
            return x
    return None


def reference_check_wo_axioms(fragment: Fragment):
    elems = list(fragment.elements)
    leq, aux = fragment.leq, fragment.aux
    lowers = {a: [x for x in elems if aux(x, a)] for a in elems}

    sums: dict = {}

    def cadd(x, y):
        key = (x, y)
        if key not in sums:
            sums[key] = fragment.checked_add(x, y)
        return sums[key]

    def directed():
        for a in elems:
            low = lowers[a]
            for x in low:
                for y in low:
                    if not any(leq(x, z) and leq(y, z) for z in low):
                        yield f"lower set of {a} not directed at ({x}, {y})"
            top = _greatest(low, leq)
            if top is None or not aux(top, top):
                yield f"lower set of {a} has no aux-compact greatest element"

    def sup_ok():
        for a in elems:
            low = lowers[a]
            s = fragment.sup(low)
            if s is None:
                yield f"sup undefined on the lower set of {a}"
            elif not all(leq(x, s) for x in low) or not leq(s, a):
                yield f"sup of lower set of {a} returned {s}"
            elif aux(a, a) and s != a:
                yield f"{a} is aux-compact but sup of its lower set is {s}"

    def additive():
        for a in elems:
            for b in elems:
                ab = cadd(a, b)
                for a1 in lowers[a]:
                    for b1 in lowers[b]:
                        if not aux(cadd(a1, b1), ab):
                            yield f"aux({a1}+{b1}, {a}+{b}) fails"

    def cofinal():
        for a in elems:
            # Largest candidates first: a dominating split sum is usually
            # found on the first try, keeping the search near linear.
            rev_a = list(reversed(lowers[a]))
            for b in elems:
                ab = cadd(a, b)
                rev_b = list(reversed(lowers[b]))
                for c in lowers[ab]:
                    if not any(leq(c, cadd(a1, b1)) for a1 in rev_a for b1 in rev_b):
                        yield f"{c} aux-below {a}+{b} but no dominating split sum"

    return [
        _first("O1", directed()),
        _first("O2", sup_ok()),
        _first("O3", additive()),
        _first("O4", cofinal()),
    ]


def reference_check_wm_axioms(morphism, source: Fragment, target: Fragment):
    images = {}
    for s in source.elements:
        m = morphism(s)
        if m not in target:
            raise FragmentNotClosed(f"image {m} of {s} escapes the target fragment")
        images[s] = m

    def continuity():
        for s in source.elements:
            fs = images[s]
            for t in target.elements:
                if target.aux(t, fs) and not any(
                    source.aux(s1, s) and target.leq(t, images[s1])
                    for s1 in source.elements
                ):
                    yield f"aux({t}, f({s})) has no lift below {s}"

    def preserves():
        for a in source.elements:
            for b in source.elements:
                if source.aux(a, b) and not target.aux(images[a], images[b]):
                    yield f"aux({a}, {b}) holds but aux(f({a}), f({b})) fails"

    return [_first("M1", continuity()), _first("M2", preserves())]


def outcome(check, *fragments):
    """Everything a checker prints for its arguments, or the escape it raises."""
    try:
        return [str(c) for c in check(*fragments)]
    except FragmentNotClosed as exc:
        return f"FragmentNotClosed: {exc}"


def reference_outcome(fragment):
    """The reference's outcome, and whether its escape was raised while O4
    (its ``cofinal``) ran."""
    try:
        return [str(c) for c in reference_check_wo_axioms(fragment)], False
    except FragmentNotClosed as exc:
        frames = traceback.walk_tb(exc.__traceback__)
        in_o4 = any(frame.f_code.co_name == "cofinal" for frame, _ in frames)
        return f"FragmentNotClosed: {exc}", in_o4


def agrees_with_reference(fragment):
    expected, in_o4 = reference_outcome(fragment)
    assert outcome(check_wo_axioms, fragment) == expected
    return expected, in_o4


EXTNAT_FAULTS = {
    "none": lambda bound: {},
    "overflow": lambda bound: {"add": overflow_to_inf(ExtNat(bound))},
    "sup-none": lambda bound: {"sup": lambda values: None},
    "unclamped": lambda bound: {"add": lambda x, y: x + y},
}


@pytest.mark.parametrize("fault", sorted(EXTNAT_FAULTS))
@pytest.mark.parametrize("sup", ["max", "finite-only"])
@pytest.mark.parametrize("aux", ["way-below", "leq"])
def test_extnat_variants_match_the_reference(aux, sup, fault):
    for bound in range(13):
        fragment = extnat_fragment(bound, aux=aux, sup=sup)
        agrees_with_reference(dataclasses.replace(fragment, **EXTNAT_FAULTS[fault](bound)))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("aux", ["way-below", "leq"])
def test_extnat_scalings_match_the_reference(aux, k):
    for bound in range(13):
        fragment = extnat_fragment(bound, aux=aux)
        scale = extnat_scaling(fragment, k)
        expected = outcome(reference_check_wm_axioms, scale, fragment, fragment)
        assert outcome(check_wm_axioms, scale, fragment, fragment) == expected


@pytest.mark.parametrize("fault", [f for f, _, _ in WITNESS_FAULTS])
def test_witness_fragments_match_the_reference(fault):
    agrees_with_reference(dataclasses.replace(extnat_fragment(2), **fault))


def random_fragment(rng):
    """1-7 elements with a random addition table and random, non-monotone
    aux and leq relations; about one in ten has a sum that escapes."""
    n = rng.randint(1, 7)
    elements = list(range(n))
    table = {(x, y): rng.randrange(n) for x in elements for y in elements}
    if rng.random() < 0.1:
        table[rng.choice(sorted(table))] = n
    density = rng.random()
    aux = {(x, y) for x in elements for y in elements if rng.random() < density}
    leq = {(x, y) for x in elements for y in elements if rng.random() < 0.5}
    sup = rng.choice([lambda values: max(values, default=None),
                      lambda values: None,
                      lambda values, top=rng.randrange(n): top])
    return Fragment(
        elements=elements,
        add=lambda x, y: table[x, y],
        zero=0,
        leq=lambda x, y: (x, y) in leq,
        aux=lambda x, y: (x, y) in aux,
        sup=sup,
    )


def reaches_o4(results):
    """Assert that a set reaches both lazy endings of O4: a failure, and an
    escape first raised by one of its own additions."""
    checked = [o for o, _ in results if isinstance(o, list)]
    assert sum(o[3].startswith("O4: FAIL") for o in checked) >= 1000
    assert sum(in_o4 for _, in_o4 in results) >= 30


def test_random_fragments_match_the_reference():
    rng = random.Random(20)
    results = [agrees_with_reference(random_fragment(rng)) for _ in range(3000)]
    outcomes = [o for o, _ in results]
    # the set reaches every ending of O3: an escape, a failure and a pass
    unclosed = [o for o in outcomes if isinstance(o, str)]
    checked = [o for o in outcomes if isinstance(o, list)]
    assert len(unclosed) >= 100
    assert sum(o[2].startswith("O3: FAIL") for o in checked) >= 1000
    assert sum(o[2] == "O3: pass" for o in checked) >= 100
    reaches_o4(results)


def with_a_repeat(rng, fragment):
    """The fragment with one of its elements listed a second time."""
    elements = list(fragment.elements)
    elements.insert(rng.randint(0, len(elements)), rng.choice(elements))
    return dataclasses.replace(fragment, elements=elements)


def test_random_fragments_with_a_repeated_element_match_the_reference():
    # A mask built by adding bits, not or-ing them, counts a repeated
    # element twice; only fragments like these tell the two apart.
    rng = random.Random(23)
    results = [agrees_with_reference(with_a_repeat(rng, random_fragment(rng)))
               for _ in range(3000)]
    outcomes = [o for o, _ in results]
    unclosed = [o for o in outcomes if isinstance(o, str)]
    checked = [o for o in outcomes if isinstance(o, list)]
    assert len(unclosed) >= 100
    assert sum("not directed" in o[0] for o in checked) >= 1000
    assert sum("greatest element" in o[0] for o in checked) >= 500
    assert sum(o[0] == "O1: pass" for o in checked) >= 100
    assert sum(o[2].startswith("O3: FAIL") for o in checked) >= 1000
    reaches_o4(results)


def random_morphism(rng, source, target):
    """A random map from the source's elements to the target's; about one
    in ten sends an element outside the target."""
    top = max(target.elements) + 1
    image = {s: rng.randrange(top) for s in source.elements}
    if rng.random() < 0.1:
        image[rng.choice(source.elements)] = top
    return image.__getitem__


def test_random_morphisms_match_the_reference():
    rng = random.Random(24)
    outcomes = []
    for _ in range(3000):
        source, target = random_fragment(rng), random_fragment(rng)
        if rng.random() < 0.5:
            source = with_a_repeat(rng, source)
        if rng.random() < 0.5:
            target = with_a_repeat(rng, target)
        f = random_morphism(rng, source, target)
        expected = outcome(reference_check_wm_axioms, f, source, target)
        assert outcome(check_wm_axioms, f, source, target) == expected
        outcomes.append(expected)
    # every ending of M1: an escaping image, a failure and a pass
    checked = [o for o in outcomes if isinstance(o, list)]
    assert len(outcomes) - len(checked) >= 100
    assert sum(o[0].startswith("M1: FAIL") for o in checked) >= 500
    assert sum(o[0] == "M1: pass" for o in checked) >= 500


# The aux and leq masks are kept on the fragment: check_wo_axioms and every
# morphism check on it share them.


def test_a_replaced_oracle_gets_its_own_masks():
    fragment = extnat_fragment(2)
    check_wo_axioms(fragment)
    check_wm_axioms(extnat_scaling(fragment, 2), fragment, fragment)
    # the O4 witness fault: 1 is no longer aux-below itself
    faulty = dataclasses.replace(
        fragment, aux=lambda x, y: way_below(x, y) and not x == y == ExtNat(1))
    expected, _ = reference_outcome(faulty)
    assert outcome(check_wo_axioms, faulty) == expected
    assert expected != outcome(check_wo_axioms, fragment)
    # f = id: aux(1, 1) holds in the source but not in the faulty target
    args = (lambda x: x, fragment, faulty)
    expected = outcome(reference_check_wm_axioms, *args)
    assert outcome(check_wm_axioms, *args) == expected
    assert expected[1].startswith("M2: FAIL")
    # and the masks cannot go stale under an assigned oracle
    with pytest.raises(dataclasses.FrozenInstanceError):
        fragment.aux = faulty.aux


def test_morphism_checks_call_no_oracle_once_the_masks_exist():
    calls = {"aux": 0, "leq": 0}

    def counted(name, relation):
        def call(x, y):
            calls[name] += 1
            return relation(x, y)
        return call

    base = extnat_fragment(6)
    fragment = dataclasses.replace(base, aux=counted("aux", base.aux),
                                   leq=counted("leq", base.leq))
    n = len(fragment.elements)
    check_wm_axioms(extnat_scaling(fragment, 2), fragment, fragment)
    assert calls == {"aux": n * n, "leq": n * n}
    calls.update(aux=0, leq=0)
    check_wm_axioms(extnat_scaling(fragment, 3), fragment, fragment)
    assert calls == {"aux": 0, "leq": 0}
    check_wo_axioms(fragment)
    # only O2 asks the oracles: aux(a, a) and leq around each supremum
    assert calls["aux"] <= n and calls["leq"] <= n * (n + 1)
