import json
from fractions import Fraction

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
    mf_equal,
    mf_from_json,
    mf_is_idempotent,
    mf_leq,
    mf_omega,
    mf_recover_space,
    mf_sup_sequence,
    mf_to_json,
    opaque_fragment,
    recover_from_functions,
    space_from_json,
    space_to_json,
    unit_fragment,
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
    assert mf_is_idempotent(nu) == mf_equal(mf_add(nu, nu), nu)
    assert mf_is_idempotent(nu) == all(not v.is_finite for _, v in nu.atoms)


@settings(max_examples=100)
@given(any_mf_pairs)
def test_omega_absorption_characterises_support(pair):
    nu, mu = pair
    omega = mf_omega(mu.support())
    absorbed = mf_equal(mf_add(omega, nu), omega)
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
