import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cuntz.extnat import INF, ExtNat
from cuntz.multiplicity import (
    ClosedSet,
    FragmentInconsistent,
    Space,
    SpaceMismatch,
    mf,
    mf_add,
    mf_from_json,
    mf_is_idempotent,
    mf_leq,
    mf_omega,
    mf_recover_space,
    mf_sup_sequence,
    mf_to_json,
    opaque_fragment,
    space_from_json,
    space_to_json,
)

X3 = Space.discrete(("p", "q", "r"))
I = Space.interval()

VALUES = (None, ExtNat(1), ExtNat(2), ExtNat(3), INF)


@st.composite
def discrete_mfs(draw, space=X3):
    atoms = {}
    for p in space.points:
        v = draw(st.sampled_from(VALUES))
        if v is not None:
            atoms[p] = v
    return mf(space, atoms)


@st.composite
def interval_mfs(draw):
    # essential first: up to two disjoint segments with 1/32 endpoints
    n_seg = draw(st.integers(0, 2))
    cuts = draw(
        st.lists(st.integers(0, 32), min_size=2 * n_seg, max_size=2 * n_seg, unique=True)
    )
    cuts.sort()
    segs = [
        (Fraction(cuts[2 * i], 32), Fraction(cuts[2 * i + 1], 32))
        for i in range(n_seg)
    ]
    ess = ClosedSet.of_intervals(segs)
    free = [Fraction(k, 32) for k in range(33) if not ess.contains(Fraction(k, 32))]
    atoms = {}
    for p in draw(st.lists(st.sampled_from(free), unique=True, max_size=3)) if free else []:
        atoms[p] = draw(st.sampled_from((ExtNat(1), ExtNat(2), INF)))
    return mf(I, atoms, ess)


any_mf_pairs = st.one_of(
    st.tuples(discrete_mfs(), discrete_mfs()),
    st.tuples(interval_mfs(), interval_mfs()),
)


def sample_points(*fns):
    pts = {Fraction(k, 64) for k in range(65)}
    for f in fns:
        pts.update(p for p, _ in f.atoms)
        for lo, hi in f.essential.segments:
            pts.add(lo)
            pts.add(hi)
    return pts


def pointwise_leq(nu, mu):
    if nu.space.is_discrete:
        pts = nu.space.points
    else:
        pts = sample_points(nu, mu)
    return all(nu.value_at(p) <= mu.value_at(p) for p in pts)


# ---------------------------------------------------------------------------
# Construction and validation.

def test_constructor_rejects_malformed_functions():
    with pytest.raises(ValueError):
        mf(X3, {"p": ExtNat(0)})
    with pytest.raises(ValueError):
        mf(X3, {"s": ExtNat(1)})
    with pytest.raises(SpaceMismatch):
        mf(X3, essential=[(Fraction(0), Fraction(1, 2))])
    with pytest.raises(ValueError):
        mf(I, {Fraction(1, 4): ExtNat(1)}, [(Fraction(0), Fraction(1, 2))])
    with pytest.raises(ValueError):
        mf(I, essential=[(Fraction(1, 4), Fraction(1, 4))])
    with pytest.raises(ValueError):
        mf(I, {Fraction(3, 2): ExtNat(1)})


def test_atom_order_is_canonical():
    a = mf(X3, [("r", ExtNat(1)), ("p", ExtNat(2))])
    b = mf(X3, [("p", ExtNat(2)), ("r", ExtNat(1))])
    assert a == b


def test_touching_essential_components_merge():
    nu = mf(I, essential=[(Fraction(0), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2))])
    assert nu.essential.segments == ((Fraction(0), Fraction(1, 2)),)


def test_value_at():
    nu = mf(I, {Fraction(3, 4): INF}, [(Fraction(0), Fraction(1, 2))])
    assert nu.value_at(Fraction(1, 4)) == INF
    assert nu.value_at(Fraction(3, 4)) == INF
    assert nu.value_at(Fraction(5, 8)) == ExtNat(0)


# ---------------------------------------------------------------------------
# Monoid and order laws.

@settings(max_examples=150)
@given(any_mf_pairs)
def test_addition_commutes(pair):
    nu, mu = pair
    assert mf_add(nu, mu) == mf_add(mu, nu)


@settings(max_examples=100)
@given(discrete_mfs(), discrete_mfs(), discrete_mfs())
def test_addition_associates_discrete(a, b, c):
    assert mf_add(mf_add(a, b), c) == mf_add(a, mf_add(b, c))


@settings(max_examples=60)
@given(interval_mfs(), interval_mfs(), interval_mfs())
def test_addition_associates_interval(a, b, c):
    assert mf_add(mf_add(a, b), c) == mf_add(a, mf_add(b, c))


@settings(max_examples=100)
@given(any_mf_pairs)
def test_zero_is_neutral_and_leq_matches_pointwise(pair):
    nu, mu = pair
    zero = mf(nu.space)
    assert mf_add(nu, zero) == nu
    assert mf_leq(zero, nu)
    assert mf_leq(nu, mu) == pointwise_leq(nu, mu)


@settings(max_examples=100)
@given(any_mf_pairs)
def test_order_laws(pair):
    nu, mu = pair
    assert mf_leq(nu, nu)
    if mf_leq(nu, mu) and mf_leq(mu, nu):
        assert nu == mu  # canonical representations make antisymmetry literal
    assert mf_leq(nu, mf_add(nu, mu))


@settings(max_examples=100)
@given(discrete_mfs(), discrete_mfs(), discrete_mfs())
def test_order_transitive_and_monotone(a, b, c):
    if mf_leq(a, b) and mf_leq(b, c):
        assert mf_leq(a, c)
    if mf_leq(a, b):
        assert mf_leq(mf_add(a, c), mf_add(b, c))


def test_space_mismatch_raises():
    with pytest.raises(SpaceMismatch):
        mf_add(mf(X3), mf(I))
    with pytest.raises(SpaceMismatch):
        mf_leq(mf(X3), mf(Space.discrete(("p",))))


# ---------------------------------------------------------------------------
# Idempotents, absorption, quotient.

@settings(max_examples=100)
@given(any_mf_pairs)
def test_idempotency_iff_every_atom_infinite(pair):
    nu, _ = pair
    # mf builds canonical values, so == is pointwise equality
    double = mf_add(nu, nu)
    assert (double == nu) == (mf_leq(double, nu) and mf_leq(nu, double))
    assert mf_is_idempotent(nu) == (double == nu)
    assert mf_is_idempotent(nu) == all(not v.is_finite for _, v in nu.atoms)


@settings(max_examples=100)
@given(any_mf_pairs)
def test_omega_absorption_characterises_support(pair):
    nu, mu = pair
    omega = mf_omega(mu.support())
    absorbed = mf_add(omega, nu) == omega
    assert absorbed == nu.support().subset_of(mu.support())


def test_omega_of_closed_set_round_trip():
    c = ClosedSet.of_intervals([(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2))])
    omega = mf_omega(c)
    assert mf_is_idempotent(omega)
    assert omega.support() == c


@settings(max_examples=100)
@given(any_mf_pairs)
def test_tau_quotient_is_additive(pair):
    nu, mu = pair
    assert mf_add(nu, mu).support() == nu.support().union(mu.support())


# ---------------------------------------------------------------------------
# Supremum sequences.

@settings(max_examples=80)
@given(any_mf_pairs, st.integers(1, 6))
def test_sup_sequence_monotone_and_bounded(pair, n):
    nu, _ = pair
    s_n = mf_sup_sequence(nu, n)
    s_next = mf_sup_sequence(nu, n + 1)
    assert mf_leq(s_n, s_next)
    assert mf_leq(s_n, nu)
    assert not s_n.essential.segments  # finitely supported by construction
    assert all(v.is_finite for _, v in s_n.atoms)


@settings(max_examples=60)
@given(discrete_mfs())
def test_sup_sequence_attains_discrete_values(nu):
    finite_top = max(
        (v.finite_value for _, v in nu.atoms if v.is_finite), default=0
    )
    n = max(finite_top, 3)
    s = mf_sup_sequence(nu, n)
    for p in nu.space.points:
        v = nu.value_at(p)
        if v.is_finite:
            assert s.value_at(p) == v
        else:
            assert s.value_at(p) == ExtNat(n)


def test_sup_sequence_fills_the_essential_set():
    nu = mf(I, essential=[(Fraction(0), Fraction(1, 2))])
    s3 = mf_sup_sequence(nu, 3)
    assert len(s3.atoms) == 3
    assert all(nu.essential.contains(p) for p, _ in s3.atoms)
    assert all(v == ExtNat(3) for _, v in s3.atoms)
    with pytest.raises(ValueError):
        mf_sup_sequence(nu, 0)


# ---------------------------------------------------------------------------
# Space reconstruction.

def unit_fragment(space):
    """All {0,1,inf}-valued multiplicity functions on a finite discrete
    space, the i-th one from the i-th state of product((0, 1, 2)), as the
    seedless opaque_fragment numbers its tokens."""
    values = (None, ExtNat(1), INF)
    return [
        mf(space, {p: values[s] for p, s in zip(space.points, states) if s})
        for states in product((0, 1, 2), repeat=len(space.points))
    ]


def recover_from_functions(fragment):
    """Run the reconstruction against actual multiplicity-function values."""
    index = {f: f for f in fragment}
    return mf_recover_space(fragment, lambda a, b: index.get(mf_add(a, b)), mf_leq)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_recover_from_actual_functions(k):
    space = Space.discrete(tuple(f"t{i}" for i in range(k)))
    fragment = unit_fragment(space)
    assert len(fragment) == 3**k
    rec = recover_from_functions(fragment)
    assert rec.point_count == k
    assert len(rec.closed_sets) == 2**k
    sizes = sorted(len(s) for s in rec.closed_sets)
    assert sizes == sorted(bin(m).count("1") for m in range(2**k))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_bitmask_oracles_agree_with_multiplicity_functions(k):
    # the multiplicity functions are the slow, obvious oracle for the
    # bitmask fragment that classification reconstructs from
    fragment = unit_fragment(Space.discrete(tuple(f"t{i}" for i in range(k))))
    tokens, add, leq = opaque_fragment(k)
    assert tokens == list(range(len(fragment)))
    for a, b in product(tokens, repeat=2):
        assert leq(a, b) == mf_leq(fragment[a], fragment[b])
        total, s = mf_add(fragment[a], fragment[b]), add(a, b)
        # the sum leaves the fragment exactly where it has a value 2
        assert (s is None) == any(v == ExtNat(2) for _, v in total.atoms)
        if s is not None:
            assert fragment[s] == total


@pytest.mark.parametrize("k,seed", [(1, 0), (2, 7), (3, 42), (4, 3), (5, 11)])
def test_recover_from_opaque_fragment(k, seed):
    tokens, add, leq = opaque_fragment(k, seed=seed)
    rec = mf_recover_space(tokens, add, leq)
    assert rec.point_count == k
    assert len(rec.closed_sets) == 2**k
    assert rec.closed_sets[0] == frozenset()
    assert rec.closed_sets[-1] == frozenset(range(k))


def test_recover_rejects_corrupted_oracles():
    tokens, add, leq = opaque_fragment(2, seed=5)
    with pytest.raises(FragmentInconsistent):
        mf_recover_space(tokens, add, lambda a, b: True)
    with pytest.raises(FragmentInconsistent):
        mf_recover_space(tokens[:-1], add, leq)
    with pytest.raises(FragmentInconsistent):
        mf_recover_space([], add, leq)


def _corrupt(add=None, leq=None, tokens=None):
    """The seedless two-point fragment with some of its oracles replaced.
    Its tokens are 0 = (0,0), 1 = (0,1), 2 = (0,inf), 3 = (1,0), 4 = (1,1),
    5 = (1,inf), 6 = (inf,0), 7 = (inf,1) and 8 = (inf,inf)."""
    good_tokens, good_add, good_leq = opaque_fragment(2)
    return (
        good_tokens if tokens is None else tokens(good_tokens),
        good_add if add is None else lambda a, b: add(good_add, a, b),
        good_leq if leq is None else lambda a, b: leq(good_leq, a, b),
    )


@pytest.mark.parametrize(
    "oracles,message",
    [
        (_corrupt(leq=lambda leq, a, b: a == b), "no least element"),
        (_corrupt(add=lambda add, a, b: None), "the least element is not neutral"),
        # without (0,1), the minimal idempotent (0,inf) dominates only 0
        (_corrupt(tokens=lambda ts: [t for t in ts if t != 1]),
         "a minimal idempotent dominates 2 elements, expected 3"),
        # (0,inf) <= (0,1) as well: the chain under (0,inf) is not strict
        (_corrupt(leq=lambda leq, a, b: leq(a, b) or (a, b) == (2, 1)),
         "broken chain under a minimal idempotent"),
        # (1,0) <= (0,1): the point candidate (0,1) is not minimal
        (_corrupt(leq=lambda leq, a, b: leq(a, b) or (a, b) == (3, 1)),
         "a point candidate is not minimal"),
        (_corrupt(tokens=lambda ts: ts + [4]), "fragment size 10 does not match 2 points"),
        # (1,inf) + (1,inf) = (1,inf): five idempotents
        (_corrupt(add=lambda add, a, b: a if (a, b) == (5, 5) else add(a, b)),
         "5 idempotents cannot form a power set on 2 points"),
        # (0,inf) absorbs (1,0): it has the closed set of (inf,inf)
        (_corrupt(add=lambda add, a, b: a if (a, b) == (2, 3) else add(a, b)),
         "absorption tests do not separate the idempotents"),
    ],
    ids=["least", "neutral", "dominated", "chain", "minimal", "size", "power-set",
         "absorption"],
)
def test_each_law_of_the_fragment_is_checked(oracles, message):
    with pytest.raises(FragmentInconsistent) as err:
        mf_recover_space(*oracles)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# JSON interchange.

def test_documents_round_trip():
    doc = {
        "space": {"kind": "discrete", "points": ["p", "q"]},
        "atoms": [{"at": "p", "mult": 2}, {"at": "q", "mult": "inf"}],
        "essential": [],
    }
    nu = mf_from_json(doc)
    assert nu.value_at("p") == ExtNat(2)
    assert nu.value_at("q") == INF
    assert mf_from_json(json.loads(json.dumps(mf_to_json(nu)))) == nu

    doc2 = {
        "space": {"kind": "interval"},
        "atoms": [{"at": "3/4", "mult": "inf"}],
        "essential": [["0", "1/2"]],
    }
    mu = mf_from_json(doc2)
    assert mu.value_at(Fraction(3, 4)) == INF
    assert mf_from_json(mf_to_json(mu)) == mu


@settings(max_examples=100)
@given(any_mf_pairs)
def test_json_round_trips_generated(pair):
    nu, _ = pair
    assert mf_from_json(json.loads(json.dumps(mf_to_json(nu)))) == nu


def test_space_json():
    assert space_from_json(space_to_json(X3)) == X3
    assert space_from_json({"kind": "interval"}) == I
    with pytest.raises(ValueError):
        space_from_json({"kind": "circle"})
    with pytest.raises(ValueError):
        mf_from_json(
            {"space": {"kind": "discrete", "points": ["p"]}, "atoms": [], "essential": [["0", "1"]]}
        )
