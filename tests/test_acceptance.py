"""Acceptance gate: nine criteria, each timed against its budget.

Every test prints one line to the real stdout so the verdicts survive
pytest's capture; a criterion fails loudly through its assertions.
"""

import dataclasses
import random
import sys
import time
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from cuntz.algebra import parse_algebra
from cuntz.catalog import (
    CarSG,
    ExtNatSG,
    IdealLatticeSG,
    MfSG,
    MfiSG,
    NatSG,
    TwoPointSG,
    classify,
    compose_product,
    eval_W,
    eval_WW,
    scale_membership_note,
)
from cuntz.extnat import INF, ExtNat
from cuntz.multiplicity import (
    Space,
    mf,
    mf_add,
    mf_is_idempotent,
    mf_leq,
    mf_omega,
    mf_recover_space,
    mf_sup_sequence,
    opaque_fragment,
)
from cuntz.orderzero import (
    SCALARS,
    comparison_certificate,
    findim,
    obstruction_margin,
    oz_check_order_zero,
    oz_construct_witness,
    oz_cuntz_leq_commutative,
    oz_eps_rank_inequality,
    oz_handelman,
    oz_kronecker_rank,
    oz_new,
    oz_verify_witness,
    oz_witness_search,
)
from cuntz.waxioms import check_wm_axioms, check_wo_axioms, extnat_fragment, extnat_scaling


def report(n: int, started: float, budget: float, note: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s, budget {budget:g}s"
    print(
        f"criterion {n}: PASS ({note}; {elapsed:.2f}s < {budget:g}s)",
        file=sys.__stdout__,
    )


# ---------------------------------------------------------------------------
# Shared generators.

POS16 = tuple(Fraction(j, 16) for j in range(4, 17))  # spectral floor 1/4


def scalar_map(rank: int):
    return oz_new(SCALARS, max(1, rank), [rank], [tuple(Fraction(1) for _ in range(rank))])


def random_diag_map(rng: random.Random, points: int):
    mults = [rng.randint(0, 2) for _ in range(points)]
    if sum(mults) == 0:
        mults[rng.randrange(points)] = 1
    blocks = []
    for m in mults:
        blocks.append(
            tuple(
                Fraction(0) if rng.random() < 0.25 else rng.choice(POS16)
                for _ in range(m)
            )
        )
    dim = sum(mults) + rng.randint(0, 2)
    return oz_new(findim(*([1] * points)), min(12, dim), mults, blocks)


def dominated_pair(rng: random.Random, points: int):
    phi = random_diag_map(rng, points)
    mults, blocks = [], []
    for i in range(points):
        n = phi.ranks[i] + rng.randint(0, 1)
        mults.append(n)
        blocks.append(tuple(rng.choice(POS16) for _ in range(n)))
    if sum(mults) == 0:
        mults[0], blocks[0] = 1, (rng.choice(POS16),)
    psi = oz_new(phi.domain, min(12, sum(mults) + rng.randint(0, 1)), mults, blocks)
    return phi, psi


def random_discrete_mf(rng: random.Random, space: Space, values=(0, 1, 2, 3, INF)):
    atoms = {}
    for p in space.points:
        v = rng.choice(values)
        if v == INF:
            atoms[p] = INF
        elif v:
            atoms[p] = ExtNat(v)
    return mf(space, atoms)


def random_interval_mf(rng: random.Random):
    segments = []
    nsegs = rng.randint(0, 2)
    if nsegs:
        cuts = sorted(rng.sample(range(33), 2 * nsegs))
        segments = [
            (Fraction(cuts[2 * i], 32), Fraction(cuts[2 * i + 1], 32))
            for i in range(nsegs)
        ]
    covered = lambda x: any(lo <= x <= hi for lo, hi in segments)
    free = [Fraction(i, 32) for i in range(33) if not covered(Fraction(i, 32))]
    atoms = {}
    for x in rng.sample(free, min(len(free), rng.randint(0, 3))):
        atoms[x] = INF if rng.random() < 0.3 else ExtNat(rng.randint(1, 3))
    return mf(Space.interval(), atoms, segments or None)


def pointwise_leq(nu, mu, points) -> bool:
    return all(nu.value_at(x) <= mu.value_at(x) for x in points)


# ---------------------------------------------------------------------------
# 1. Regression identity table.

def test_criterion_1_regression_table():
    t0 = time.perf_counter()
    traces = []

    value, trace = eval_W(parse_algebra("C"), parse_algebra("C"))
    assert value == NatSG()
    traces.append(trace)

    for r, s in [(0, 1), (1, 1), (2, 3), (3, 4), (4, 2)]:
        assert oz_kronecker_rank(scalar_map(r), scalar_map(s)) == ExtNat(r * s)

    value, trace = eval_W(parse_algebra("C"), parse_algebra("C (x) K"))
    assert value == ExtNatSG()
    traces.append(trace)

    value, trace = eval_WW(parse_algebra("M(2)"), parse_algebra("M(3)"))
    assert value == ExtNatSG()
    traces.append(trace)

    for simple in ("M(2)", "Z", "CAR", "Oinf"):
        value, trace = eval_WW(parse_algebra(simple), parse_algebra("O2"))
        assert value == TwoPointSG()
        traces.append(trace)
    value, trace = eval_WW(parse_algebra("F(2,3,5)"), parse_algebra("O2"))
    assert value == IdealLatticeSG(3)
    traces.append(trace)
    lattice = value
    full = lattice.identity
    for x in lattice.elements():
        assert lattice.add(x, full) == x
        assert lattice.add(x, frozenset()) == frozenset()

    for d in ("UHF(2:inf)", "Z", "Q"):
        for a, b in [("M(2)", "M(3)"), ("C", "M(4)")]:
            lhs, ltrace = eval_W(
                parse_algebra(f"{a} (x) {d}"), parse_algebra(f"{b} (x) {d}")
            )
            rhs, rtrace = eval_W(parse_algebra(a), parse_algebra(f"{b} (x) {d}"))
            assert lhs == rhs
            traces.extend([ltrace, rtrace])

    value, trace = eval_WW(parse_algebra("CX(p,q,r)"), parse_algebra("C"))
    assert value == MfSG(("p", "q", "r"))
    traces.append(trace)
    value, trace = eval_W(parse_algebra("CX(p,q,r)"), parse_algebra("C"))
    assert value == MfiSG(("p", "q", "r"))
    traces.append(trace)

    value, trace = eval_W(parse_algebra("CAR"), parse_algebra("CAR"))
    assert value == CarSG()
    traces.append(trace)

    for trace in traces:
        assert trace, "every identity must come with a derivation"
        for step in trace:
            assert step.rule and step.anchor

    report(1, t0, 1.0, f"{len(traces)} identities, all traced")


# ---------------------------------------------------------------------------
# 2. Multiplicity comparison against pointwise oracles.

def test_criterion_2_mf_leq_oracles():
    t0 = time.perf_counter()
    checked = 0

    for size in range(1, 5):
        space = Space.discrete(tuple(f"p{i}" for i in range(size)))
        pool = []
        for values in iproduct((0, 1, 2, INF), repeat=size):
            atoms = {}
            for p, v in zip(space.points, values):
                if v == INF:
                    atoms[p] = INF
                elif v:
                    atoms[p] = ExtNat(v)
            pool.append(mf(space, atoms))
        for nu in pool:
            for mu in pool:
                expected = pointwise_leq(nu, mu, space.points)
                assert mf_leq(nu, mu) == expected
                checked += 1

    rng = random.Random(2)
    for _ in range(500):
        space = Space.discrete(tuple(f"p{i}" for i in range(rng.randint(1, 6))))
        nu = random_discrete_mf(rng, space)
        mu = random_discrete_mf(rng, space)
        assert mf_leq(nu, mu) == pointwise_leq(nu, mu, space.points)
        checked += 1

    grid = [Fraction(k, 64) for k in range(65)]
    for _ in range(200):
        nu = random_interval_mf(rng)
        mu = random_interval_mf(rng)
        samples = set(grid)
        for f in (nu, mu):
            samples.update(p for p, _ in f.atoms)
            for lo, hi in f.essential.segments:
                samples.update((lo, hi))
        assert mf_leq(nu, mu) == pointwise_leq(nu, mu, sorted(samples))
        checked += 1

    report(2, t0, 5.0, f"{checked} comparisons, zero disagreements")


# ---------------------------------------------------------------------------
# 3. Comparison theorem end-to-end: witness or obstruction.

def criterion_3_corpus():
    """The 200 seeded pairs of criterion 3, as (case, phi, psi): even cases
    dominated, odd ones drawn independently."""
    rng = random.Random(3)
    for case in range(200):
        points = rng.randint(1, 4)
        if case % 2 == 0:
            phi, psi = dominated_pair(rng, points)
        else:
            phi = random_diag_map(rng, points)
            psi = random_diag_map(rng, points)
        yield case, phi, psi


def test_criterion_3_comparison_end_to_end():
    t0 = time.perf_counter()
    witnessed = obstructed = 0
    lowest = float("inf")

    for case, phi, psi in criterion_3_corpus():
        if oz_cuntz_leq_commutative(phi, psi):
            rep = oz_construct_witness(phi, psi)
            assert rep.residual < 1e-6
            # the zero-padded witness verifies on the same used corner
            assert oz_verify_witness(phi, psi, rep.dense()).residual == rep.residual
            witnessed += 1
        else:
            cert = comparison_certificate(phi, psi)
            assert cert is not None
            point, lhs, rhs = cert
            assert lhs > rhs
            best = oz_witness_search(phi, psi, samples=10**4, seed=case)
            assert best >= 0.1
            # Eckart-Young: no candidate beats the margin of the ranks
            assert best >= obstruction_margin(phi, psi) - 1e-12
            lowest = min(lowest, best)
            obstructed += 1

    assert witnessed and obstructed
    note = f"{witnessed} witnesses, {obstructed} obstructions, lowest search best {lowest:.4f}"
    report(3, t0, 20.0, note)


class DenseProbe:
    """A map seen through ``domain`` and ``apply`` alone, which the
    order-zero check probes through the dense, zero-padded images."""

    def __init__(self, phi):
        self.domain, self.apply = phi.domain, phi.apply


def test_criterion_3_corpus_checks_as_the_dense_probe():
    # The check read from the block form gives the dense probe's report, to the bit.
    for case, phi, psi in criterion_3_corpus():
        for m in (phi, psi):
            report = oz_check_order_zero(m, trials=10, seed=case)
            assert report == oz_check_order_zero(DenseProbe(m), trials=10, seed=case)
            assert report.passed


# ---------------------------------------------------------------------------
# 4. Epsilon-rank inequality and the Handelman sequence.

def test_criterion_4_eps_rank_and_handelman():
    t0 = time.perf_counter()
    rng = random.Random(4)

    for _ in range(300):
        points = rng.randint(1, 3)
        phi = random_diag_map(rng, points)
        a = [(Fraction(rng.randint(0, 16), 16),) for _ in phi.domain.blocks]
        eps = Fraction(rng.randint(0, 16), 16)
        assert oz_eps_rank_inequality(phi, a, eps).holds

    npr = np.random.default_rng(4)
    for _ in range(100):
        g = npr.normal(size=(4, 4))
        raw = g @ g.T
        a = raw / (np.linalg.norm(raw, 2) + 1e-12) * npr.uniform(0.0, 1.0)
        b = a + (0.25 + npr.uniform(0.0, 0.5)) * np.eye(4)
        rep = oz_handelman(a, b, 10**4)
        assert rep.z_norm <= 1 + 1e-9
        assert rep.deviation < 1e-3

    report(4, t0, 10.0, "300 rank instances, 100 Handelman pairs")


# ---------------------------------------------------------------------------
# 5. Composition product.

def test_criterion_5_composition_product():
    t0 = time.perf_counter()
    rng = random.Random(5)

    for _ in range(100):
        space = Space.discrete(tuple(f"p{i}" for i in range(rng.randint(1, 5))))
        nu = random_discrete_mf(rng, space, values=(0, 1, 2, 3, 4, INF))
        rank = {p: rng.randint(0, 4) for p in space.points if rng.random() < 0.8}
        total, infinite = 0, False
        for p, r in rank.items():
            v = nu.value_at(p)
            if r == 0:
                continue
            if v.is_finite:
                total += r * v.finite_value
            elif v == INF:
                infinite = True
        expected = INF if infinite else ExtNat(total)
        assert compose_product(rank, nu) == expected

    for r, s in iproduct(range(4), range(4)):
        phi, psi = scalar_map(r), scalar_map(s)
        product = oz_kronecker_rank(phi, psi)
        assert product == ExtNat(r * s)
        paired = compose_product({"x1": r}, psi.multiplicity)
        assert paired == product

    report(5, t0, 2.0, "100 pairings match, scalar case is multiplication")


# ---------------------------------------------------------------------------
# 6. Space reconstruction from anonymised fragments.

def test_criterion_6_reconstruction():
    t0 = time.perf_counter()
    rng = random.Random(6)
    counts = {}

    for k in range(1, 7):
        for _ in range(50):
            tokens, add, leq = opaque_fragment(k, seed=rng.randrange(2**32))
            recovered = mf_recover_space(tokens, add, leq)
            assert recovered.point_count == k
            assert len(recovered.closed_sets) == 2**k
            assert frozenset() in recovered.closed_sets
            assert frozenset(range(k)) in recovered.closed_sets
            counts.setdefault(k, set()).add(recovered.point_count)

    recovered_counts = [counts[k] for k in range(1, 7)]
    assert recovered_counts == [{k} for k in range(1, 7)]

    report(6, t0, 5.0, "300 relabelled fragments, exact counts")


# ---------------------------------------------------------------------------
# 7. Classification verdicts with scale certificates.

def test_criterion_7_classification():
    t0 = time.perf_counter()

    v = classify(parse_algebra("UHF(2:inf)"), parse_algebra("UHF(3:inf)"))
    assert v.verdict == "NotIsomorphic"

    for a, b in [
        ("UHF(2:inf,3:inf)", "UHF(3:inf,2:inf)"),
        ("CAR", "UHF(2:inf)"),
        ("UHF(2:inf,3:inf)", "UHF(2:inf,3:inf)"),
    ]:
        v = classify(parse_algebra(a), parse_algebra(b))
        assert v.verdict == "Isomorphic"

    for n in range(1, 9):
        for m in range(1, 9):
            v = classify(parse_algebra(f"M({n})"), parse_algebra(f"M({m})"))
            assert v.verdict == ("Isomorphic" if n == m else "NotIsomorphic")
            note = scale_membership_note(parse_algebra(f"M({n})"), parse_algebra(f"M({m})"))
            assert note.invertible
            assert note.strictly_invertible == (n == m)
            assert note.forward_scale == tuple(range(m // n + 1))
            assert note.backward_scale == tuple(range(n // m + 1))
            if n != m and m % n == 0:
                assert 1 in note.forward_scale and 1 not in note.backward_scale

    report(7, t0, 1.0, "UHF invariants and 64 matrix pairs with scales")


# ---------------------------------------------------------------------------
# 8. Category axioms on the extended naturals.

def faulty_fragment(bound: int, fault: str):
    """extnat_fragment(bound) with a fault: "overflow" lets a finite sum past
    the bound jump to inf, which is not additively compatible with
    way-below; "sup-none" leaves every supremum undefined."""
    base = extnat_fragment(bound)
    if fault == "overflow":
        cap = ExtNat(bound)

        def add(x: ExtNat, y: ExtNat) -> ExtNat:
            s = x + y
            return s if not s.is_finite or s <= cap else INF

        return dataclasses.replace(base, add=add, name=f"{base.name} overflow fault")
    assert fault == "sup-none"
    return dataclasses.replace(base, sup=lambda values: None, name=f"{base.name} sup fault")


def test_criterion_8_axioms():
    t0 = time.perf_counter()

    fragment = extnat_fragment(20)
    checks = check_wo_axioms(fragment)
    assert [c.axiom for c in checks] == ["O1", "O2", "O3", "O4"]
    assert all(c.passed for c in checks)

    for k in range(1, 6):
        morphism = extnat_scaling(fragment, k)
        assert all(c.passed for c in check_wm_axioms(morphism, fragment, fragment))

    broken = check_wo_axioms(faulty_fragment(8, "overflow"))
    bad = [c for c in broken if not c.passed]
    assert [c.axiom for c in bad] == ["O3"]
    assert bad[0].witness

    broken = check_wo_axioms(faulty_fragment(8, "sup-none"))
    bad = [c for c in broken if not c.passed]
    assert [c.axiom for c in bad] == ["O2"]
    assert "sup undefined" in bad[0].witness

    report(8, t0, 2.0, "bound 20 passes, scalings pass, faults witnessed")


# ---------------------------------------------------------------------------
# 9. Randomized algebraic law suite.

def test_criterion_9_law_suite():
    t0 = time.perf_counter()
    rng = random.Random(0)
    cases = 0

    def fresh(space=None):
        if space is None:
            if rng.random() < 0.3:
                return random_interval_mf(rng)
            space = Space.discrete(tuple(f"p{i}" for i in range(rng.randint(1, 5))))
        if space.is_discrete:
            return random_discrete_mf(rng, space)
        return random_interval_mf(rng)

    while cases < 1000:
        nu = fresh()
        mu = fresh(nu.space)
        rho = fresh(nu.space)
        kind = cases % 6
        if kind == 0:
            assert mf_add(nu, mu) == mf_add(mu, nu)
            assert mf_add(mf_add(nu, mu), rho) == mf_add(nu, mf_add(mu, rho))
        elif kind == 1:
            zero = mf(nu.space)
            assert mf_add(nu, zero) == nu
            assert mf_leq(zero, nu)
        elif kind == 2:
            assert mf_leq(nu, nu)
            assert mf_leq(nu, mf_add(nu, mu))
            if mf_leq(nu, mu) and mf_leq(mu, rho):
                assert mf_leq(nu, rho)
        elif kind == 3:
            omega = mf_omega(mu.support())
            absorbed = mf_add(omega, nu) == omega
            assert absorbed == nu.support().subset_of(mu.support())
        elif kind == 4:
            assert mf_is_idempotent(nu) == (mf_add(nu, nu) == nu)
        else:
            previous = None
            for n in range(1, 5):
                term = mf_sup_sequence(nu, n)
                assert mf_leq(term, nu)
                assert all(v.is_finite for _, v in term.atoms)
                assert term.essential.is_empty
                if previous is not None:
                    assert mf_leq(previous, term)
                previous = term
        cases += 1

    report(9, t0, 5.0, "1000 randomized cases, seed 0")
