"""Fragment ops of the exact-mix workload: exact pure-Python work in
waxioms and multiplicity, each with its oracle.

Axiom checks on {0..bound, inf}, some with a fault the benchmark injects; space reconstruction from relabelled {0,1,inf}
fragments; classification of CX pairs; and many tiny mf_leq / mf_add law
ops checked against the benchmark's own pointwise values.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from cuntz.algebra import parse_algebra
from cuntz.catalog import classify
from cuntz.extnat import INF, ExtNat
from cuntz.multiplicity import Space, mf, mf_add, mf_leq, mf_recover_space, opaque_fragment
from cuntz.waxioms import check_wm_axioms, check_wo_axioms, extnat_fragment, extnat_scaling

from common import Op

GRID = [Fraction(k, 64) for k in range(65)]


def faulty_fragment(bound: int, fault: str):
    """extnat_fragment(bound) with a fault: "overflow" lets a finite sum past
    the bound jump to inf, which breaks additivity of way-below (O3);
    "sup-none" makes every supremum undefined (O2)."""
    base = extnat_fragment(bound)
    if fault == "none":
        return base
    if fault == "overflow":
        cap = ExtNat(bound)

        def add(x, y):
            s = x + y
            return s if not s.is_finite or s <= cap else INF

        return dataclasses.replace(base, add=add)
    return dataclasses.replace(base, sup=lambda values: None)


def wo_op(bound: int, fault: str) -> Op:
    fragment = faulty_fragment(bound, fault)
    size = {"bound": bound, "elements": bound + 2, "fault": fault}

    def check(checks):
        if [c.axiom for c in checks] != ["O1", "O2", "O3", "O4"]:
            return f"axioms {[c.axiom for c in checks]}"
        failing = [c for c in checks if not c.passed]
        want = {"none": [], "overflow": ["O3"], "sup-none": ["O2"]}[fault]
        if [c.axiom for c in failing] != want:
            return f"bound {bound} fault {fault}: failing {[c.axiom for c in failing]}"
        if fault == "sup-none" and "sup undefined" not in failing[0].witness:
            return f"O2 witness {failing[0].witness!r}"
        if fault == "overflow" and not failing[0].witness:
            return "O3 failed without a counterexample"
        return None

    return Op(f"wo-{fault}", lambda t: t.call("waxioms.wo", size, check_wo_axioms, fragment),
              check)


def wm_op(bound: int, k: int) -> Op:
    fragment = extnat_fragment(bound)
    scale = extnat_scaling(fragment, k)
    size = {"bound": bound, "elements": bound + 2}

    def check(checks):
        if [(c.axiom, c.passed) for c in checks] != [("M1", True), ("M2", True)]:
            return f"scaling by {k} at bound {bound}: {checks}"
        return None

    return Op("wm", lambda t: t.call("waxioms.wm", size, check_wm_axioms, scale,
                                     fragment, fragment), check)


def recover_op(k: int, seed: int) -> Op:
    tokens, add, leq = opaque_fragment(k, seed=seed)
    size = {"k": k, "tokens": len(tokens)}

    def check(rec):
        if rec.point_count != k or len(rec.closed_sets) != 2**k:
            return f"k={k}: {rec.point_count} points, {len(rec.closed_sets)} closed sets"
        if frozenset() not in rec.closed_sets or frozenset(range(k)) not in rec.closed_sets:
            return f"k={k}: empty or full set missing"
        return None

    return Op("recover", lambda t: t.call("multiplicity.recover", size, mf_recover_space,
                                          tokens, add, leq), check)


def cx_classify_op(k: int, m: int) -> Op:
    ta = "CX(" + ",".join(f"p{i}" for i in range(k)) + ")"
    tb = "CX(" + ",".join(f"q{i}" for i in range(m)) + ")"

    def run(t):
        a = t.call("algebra.parse", {"chars": len(ta)}, parse_algebra, ta)
        b = t.call("algebra.parse", {"chars": len(tb)}, parse_algebra, tb)
        return t.call("catalog.classify", {"k": max(k, m)}, classify, a, b)

    def check(verdict):
        want = "Isomorphic" if k == m else "NotIsomorphic"
        return None if verdict.verdict == want else f"CX({k}) vs CX({m}): {verdict.verdict}"

    return Op("classify-cx", run, check)


class Fn:
    """A multiplicity function as the benchmark's own data, and the library
    object built from it."""

    def __init__(self, rng: random.Random, space: Space):
        self.atoms, self.segments = {}, []
        if space.is_discrete:
            for p in space.points:
                v = rng.choice((0, 1, 2, 3, "inf"))
                if v:
                    self.atoms[p] = v
            self.points = list(space.points)
        else:
            nsegs = rng.randint(0, 2)
            if nsegs:
                cuts = sorted(rng.sample(range(33), 2 * nsegs))
                self.segments = [(Fraction(cuts[2 * i], 32), Fraction(cuts[2 * i + 1], 32))
                                 for i in range(nsegs)]
            free = [x for x in GRID[::2] if not self._in_segment(x)]
            for x in rng.sample(free, min(len(free), rng.randint(0, 3))):
                self.atoms[x] = "inf" if rng.random() < 0.3 else rng.randint(1, 3)
            self.points = sorted({*GRID, *self.atoms, *(e for s in self.segments for e in s)})
        self.obj = mf(space, {p: INF if v == "inf" else ExtNat(v) for p, v in self.atoms.items()},
                      self.segments or None)
        self.tokens = len(self.atoms) + len(self.segments)

    def _in_segment(self, x) -> bool:
        return any(lo <= x <= hi for lo, hi in self.segments)

    def value(self, x):
        """float('inf') for an infinite value, else the multiplicity."""
        if self._in_segment(x):
            return float("inf")
        v = self.atoms.get(x, 0)
        return float("inf") if v == "inf" else v


def _as_number(v: ExtNat):
    return v.finite_value if v.is_finite else float("inf")


def tiny_op(rng: random.Random, kind: str, points: int) -> Op:
    """mf_leq, mf_add or the law nu <= nu + mu on a discrete space with
    ``points`` points, or on the unit interval when ``points`` is 0."""
    if points:
        space = Space.discrete(tuple(f"p{i}" for i in range(points)))
    else:
        space = Space.interval()
    nu, mu = Fn(rng, space), Fn(rng, space)
    points = sorted(set(nu.points) | set(mu.points))
    size = {"tokens": nu.tokens + mu.tokens}

    if kind == "leq":
        def run(t):
            return t.call("multiplicity.mf_leq", size, mf_leq, nu.obj, mu.obj)

        def check(got):
            want = all(nu.value(x) <= mu.value(x) for x in points)
            return None if got == want else f"mf_leq {got} for {nu.obj} vs {mu.obj}"
    elif kind == "add":
        def run(t):
            return (t.call("multiplicity.mf_add", size, mf_add, nu.obj, mu.obj),
                    t.call("multiplicity.mf_add", size, mf_add, mu.obj, nu.obj))

        def check(sums):
            if sums[0] != sums[1]:
                return "mf_add is not commutative"
            for x in points:
                if _as_number(sums[0].value_at(x)) != nu.value(x) + mu.value(x):
                    return f"mf_add at {x}: {sums[0].value_at(x)}"
            return None
    else:
        def run(t):
            total = t.call("multiplicity.mf_add", size, mf_add, nu.obj, mu.obj)
            return t.call("multiplicity.mf_leq", size, mf_leq, nu.obj, total)

        def check(got):
            return None if got else "nu is not below nu + mu"

    return Op(f"mf-{kind}", run, check)
