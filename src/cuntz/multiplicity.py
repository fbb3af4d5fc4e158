"""Multiplicity functions over finite discrete spaces and the unit interval.

A multiplicity function assigns to each point of a compact metric space a
value in N0 ∪ {inf}: finitely many isolated atoms with value >= 1, plus a
closed "essential" set on which the value is infinite.  For the unit
interval the essential set is a finite union of non-degenerate closed
subintervals with rational endpoints; isolated infinite points are stored
as atoms with value inf.  Addition is pointwise and saturating; the order
is pointwise.  These monoids realise the bivariant Cuntz semigroups with
one-dimensional target: the stabilised pairing gives all multiplicity
functions whose support is closed (with value inf at accumulation points
of the support), the unstabilised one the finitely supported functions
with finite values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .extnat import INF, ExtNat
from .record import Record

Point = Union[str, Fraction]
Interval = Tuple[Fraction, Fraction]


class SpaceMismatch(Exception):
    """Two operands live over different space models."""


class FragmentInconsistent(Exception):
    """An anonymised fragment violates the monoid laws it should satisfy."""


DISCRETE = "discrete"
INTERVAL = "interval"


class Space(Record):
    """A finite discrete space with named points, or the unit interval."""

    kind: str
    points: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (DISCRETE, INTERVAL):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == DISCRETE:
            if len(set(self.points)) != len(self.points):
                raise ValueError("discrete point labels must be distinct")
        elif self.points:
            raise ValueError("the interval space has no point labels")

    @classmethod
    def discrete(cls, labels: Iterable[str]) -> "Space":
        return cls(DISCRETE, tuple(labels))

    @classmethod
    def interval(cls) -> "Space":
        return cls(INTERVAL)

    @property
    def is_discrete(self) -> bool:
        return self.kind == DISCRETE

    def __str__(self) -> str:
        if self.is_discrete:
            return "{" + ",".join(self.points) + "}"
        return "[0,1]"


UNIT_INTERVAL = Space.interval()


def _norm_intervals(segments: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, validate, and merge overlapping or touching closed intervals."""
    segs = []
    for lo, hi in segments:
        lo, hi = Fraction(lo), Fraction(hi)
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"interval [{lo},{hi}] not inside [0,1]")
        segs.append((lo, hi))
    segs.sort()
    merged: List[Interval] = []
    for lo, hi in segs:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class ClosedSet(Record):
    """A closed subset: a label set (discrete) or normalised rational
    intervals (unit interval; [a,a] encodes an isolated point)."""

    space: Space
    labels: frozenset = frozenset()
    segments: Tuple[Interval, ...] = ()

    @classmethod
    def discrete(cls, space: Space, labels: Iterable[str]) -> "ClosedSet":
        labels = frozenset(labels)
        unknown = labels - set(space.points)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} are not points of {space}")
        return cls(space, labels=labels)

    @classmethod
    def of_intervals(cls, segments: Iterable[Interval]) -> "ClosedSet":
        return cls(UNIT_INTERVAL, segments=_norm_intervals(segments))

    @classmethod
    def empty(cls, space: Space) -> "ClosedSet":
        return cls(space)

    @property
    def is_empty(self) -> bool:
        return not self.labels and not self.segments

    def contains(self, point: Point) -> bool:
        if self.space.is_discrete:
            return point in self.labels
        p = Fraction(point)
        return any(lo <= p <= hi for lo, hi in self.segments)

    def subset_of(self, other: "ClosedSet") -> bool:
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")
        if self.space.is_discrete:
            return self.labels <= other.labels
        # Components of other are disjoint, so a connected piece must fit
        # inside a single component.
        return all(
            any(olo <= lo and hi <= ohi for olo, ohi in other.segments)
            for lo, hi in self.segments
        )

    def union(self, other: "ClosedSet") -> "ClosedSet":
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")
        if self.space.is_discrete:
            return ClosedSet(self.space, labels=self.labels | other.labels)
        return ClosedSet.of_intervals(self.segments + other.segments)

    def nondegenerate(self) -> "ClosedSet":
        if self.space.is_discrete:
            return ClosedSet.empty(self.space)
        return ClosedSet(self.space, segments=tuple(s for s in self.segments if s[0] < s[1]))

    def degenerate_points(self) -> Tuple[Fraction, ...]:
        if self.space.is_discrete:
            return ()
        return tuple(lo for lo, hi in self.segments if lo == hi)

    def __str__(self) -> str:
        if self.space.is_discrete:
            return "{" + ",".join(sorted(self.labels)) + "}"
        return " u ".join(f"[{lo},{hi}]" for lo, hi in self.segments) or "{}"


def _atom_key(space: Space) -> Callable[[Tuple[Point, ExtNat]], object]:
    if space.is_discrete:
        order = {p: i for i, p in enumerate(space.points)}
        return lambda item: order[item[0]]
    return lambda item: item[0]


class MultiplicityFunction(Record):
    """Atoms (point -> value >= 1) plus an essential closed set of value inf.

    Atom points lie outside the essential set; over the interval the
    essential set has only non-degenerate components, so every atom is
    isolated in the support.
    """

    space: Space
    atoms: Tuple[Tuple[Point, ExtNat], ...]
    essential: ClosedSet

    def value_at(self, point: Point) -> ExtNat:
        if not self.space.is_discrete:
            point = Fraction(point)
        if self.essential.contains(point):
            return INF
        for p, v in self.atoms:
            if p == point:
                return v
        return ExtNat(0)

    def atom_map(self) -> Dict[Point, ExtNat]:
        return dict(self.atoms)

    def support(self) -> ClosedSet:
        if self.space.is_discrete:
            return ClosedSet.discrete(self.space, [p for p, _ in self.atoms])
        isolated = tuple((p, p) for p, _ in self.atoms)
        return ClosedSet.of_intervals(self.essential.segments + isolated)

    def __str__(self) -> str:
        parts = [f"{p}:{v}" for p, v in self.atoms]
        if not self.essential.is_empty:
            parts.append(f"inf on {self.essential}")
        return "{" + ", ".join(parts) + "}"


def mf(
    space: Space,
    atoms: Union[Dict[Point, ExtNat], Iterable[Tuple[Point, ExtNat]], None] = None,
    essential: Union[ClosedSet, Iterable[Interval], None] = None,
) -> MultiplicityFunction:
    """Validating constructor; canonicalises atom order and the essential set."""
    if essential is None:
        ess = ClosedSet.empty(space)
    elif isinstance(essential, ClosedSet):
        ess = essential
    else:
        ess = ClosedSet.of_intervals(essential)
    if ess.space != space:
        raise SpaceMismatch(f"essential set lives on {ess.space}, not {space}")
    if space.is_discrete and not ess.is_empty:
        raise ValueError("discrete spaces have no non-degenerate essential part")
    if ess.degenerate_points():
        raise ValueError(
            "isolated infinite points belong in the atoms, not the essential set"
        )

    pairs: List[Tuple[Point, ExtNat]] = []
    items = atoms.items() if isinstance(atoms, dict) else (atoms or ())
    seen = set()
    for point, value in items:
        value = ExtNat.of(value)
        if space.is_discrete:
            if point not in space.points:
                raise ValueError(f"atom {point!r} is not a point of {space}")
        else:
            point = Fraction(point)
            if not 0 <= point <= 1:
                raise ValueError(f"atom {point} outside [0,1]")
        if point in seen:
            raise ValueError(f"duplicate atom at {point}")
        seen.add(point)
        if value == ExtNat(0):
            raise ValueError(f"atom at {point} has value 0; omit it instead")
        if ess.contains(point):
            raise ValueError(f"atom at {point} lies inside the essential set")
        pairs.append((point, value))
    pairs.sort(key=_atom_key(space))
    return MultiplicityFunction(space, tuple(pairs), ess)


def mf_add(
    nu: MultiplicityFunction, mu: MultiplicityFunction
) -> MultiplicityFunction:
    """Pointwise saturating sum.

    Essential sets union (touching components merge); atoms falling inside
    the resulting essential set are absorbed.
    """
    if nu.space != mu.space:
        raise SpaceMismatch(f"{nu.space} vs {mu.space}")
    ess = nu.essential.union(mu.essential)
    atoms: Dict[Point, ExtNat] = {}
    for p, v in nu.atoms + mu.atoms:
        if ess.contains(p):
            continue
        atoms[p] = atoms[p] + v if p in atoms else v
    return mf(nu.space, atoms, ess)


def mf_leq(nu: MultiplicityFunction, mu: MultiplicityFunction) -> bool:
    """Pointwise order: nu <= mu everywhere.

    Every atom of nu must be matched at the same point by mu (or lie in
    mu's essential set), and nu's essential set must sit inside mu's.
    """
    if nu.space != mu.space:
        raise SpaceMismatch(f"{nu.space} vs {mu.space}")
    if not nu.essential.subset_of(mu.essential):
        return False
    mu_atoms = mu.atom_map()
    for p, v in nu.atoms:
        if mu.essential.contains(p):
            continue
        if p not in mu_atoms or not v <= mu_atoms[p]:
            return False
    return True


def mf_omega(closed: ClosedSet) -> MultiplicityFunction:
    """The idempotent carried by a closed set: value inf exactly there.

    Degenerate interval components become infinite atoms; for discrete
    spaces every member is an infinite atom.
    """
    if closed.space.is_discrete:
        return mf(closed.space, {p: INF for p in closed.labels})
    atoms = {p: INF for p in closed.degenerate_points()}
    return mf(closed.space, atoms, closed.nondegenerate())


def mf_is_idempotent(nu: MultiplicityFunction) -> bool:
    """nu + nu == nu, i.e. every atom already has value inf."""
    return all(not v.is_finite for _, v in nu.atoms)


def dyadic_points() -> Iterator[Fraction]:
    """The fixed enumeration 0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, ... of [0,1]."""
    yield Fraction(0)
    yield Fraction(1)
    den = 2
    while True:
        for num in range(1, den, 2):
            yield Fraction(num, den)
        den *= 2


def mf_sup_sequence(nu: MultiplicityFunction, n: int) -> MultiplicityFunction:
    """The n-th term of a finitely supported sequence with supremum nu.

    Finite atoms are kept as they are, infinite atoms are capped at n, and
    the essential set is replaced by n atoms of value n placed at the first
    n points of the dyadic enumeration that fall inside it.
    """
    if n < 1:
        raise ValueError("the sequence index starts at 1")
    atoms: Dict[Point, ExtNat] = {}
    cap = ExtNat(n)
    for p, v in nu.atoms:
        atoms[p] = v if v.is_finite else cap
    if not nu.essential.is_empty:
        found = 0
        for q in dyadic_points():
            if nu.essential.contains(q):
                atoms[q] = cap
                found += 1
                if found == n:
                    break
    return mf(nu.space, atoms)


# ---------------------------------------------------------------------------
# Space reconstruction from an anonymised fragment.

AddOracle = Callable[[object, object], Optional[object]]
LeqOracle = Callable[[object, object], bool]


@dataclass
class RecoveredSpace:
    """Result of reconstructing a finite discrete space from its fragment.

    A dataclass, not a Record: callers take it apart with ``dataclasses``.
    """

    point_count: int
    closed_sets: Tuple[frozenset, ...]


def mf_recover_space(
    tokens: Sequence[object], add: AddOracle, leq: LeqOracle
) -> RecoveredSpace:
    """Recover a finite discrete space from its anonymised {0,1,inf} fragment.

    ``tokens`` lists the fragment elements in arbitrary (relabelled) order;
    ``add`` returns the sum token or None when the sum leaves the fragment;
    ``leq`` is the pointwise order.  The point count is the number of
    minimal non-zero elements, and the closed-set lattice is read off the
    idempotents through the absorption tests omega + delta == omega.
    Raises FragmentInconsistent when the oracles contradict the laws these
    fragments must satisfy.
    """
    if not tokens:
        raise FragmentInconsistent("empty fragment")
    tokens = list(tokens)

    zero = tokens[0]
    for t in tokens:
        if leq(t, zero):
            zero = t
    for t in tokens:
        if not leq(zero, t):
            raise FragmentInconsistent("no least element")
        if add(zero, t) != t or add(t, zero) != t:
            raise FragmentInconsistent("the least element is not neutral")

    idempotents = [t for t in tokens if add(t, t) == t]

    minimal_idem = []
    for i in idempotents:
        if i == zero:
            continue
        if not any(leq(j, i) for j in idempotents if j != zero and j != i):
            minimal_idem.append(i)

    deltas = []
    for m in minimal_idem:
        below = [t for t in tokens if leq(t, m)]
        if len(below) != 3:
            raise FragmentInconsistent(
                f"a minimal idempotent dominates {len(below)} elements, expected 3"
            )
        mid = [t for t in below if t != zero and t != m]
        d = mid[0]
        if not (leq(zero, d) and leq(d, m)) or leq(m, d):
            raise FragmentInconsistent("broken chain under a minimal idempotent")
        deltas.append(d)

    for d in deltas:
        for t in tokens:
            if leq(t, d) and t != zero and t != d:
                raise FragmentInconsistent("a point candidate is not minimal")

    k = len(deltas)
    if len(set(deltas)) != k or len(tokens) != 3**k:
        raise FragmentInconsistent(
            f"fragment size {len(tokens)} does not match {k} points"
        )
    if len(idempotents) != 2**k:
        raise FragmentInconsistent(
            f"{len(idempotents)} idempotents cannot form a power set on {k} points"
        )

    closed_sets = {
        frozenset(i for i, d in enumerate(deltas) if add(w, d) == w) for w in idempotents
    }
    if len(closed_sets) != 2**k:
        raise FragmentInconsistent("absorption tests do not separate the idempotents")

    return RecoveredSpace(k, tuple(sorted(closed_sets, key=lambda s: (len(s), sorted(s)))))


def opaque_fragment(
    num_points: int, seed: Optional[int] = None
) -> Tuple[List[int], AddOracle, LeqOracle]:
    """A relabelled {0,1,inf} fragment over ``num_points`` points.

    Elements are encoded as integer tokens in shuffled order; the oracles
    work on a pair of bitmasks (support, infinite part) per token, so the
    reconstruction can be exercised at scale.  ``add`` returns None when a
    sum needs the value 2 somewhere and therefore leaves the fragment.
    """
    states = list(iproduct((0, 1, 2), repeat=num_points))
    n = len(states)
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    # order[i] is the token of the i-th state; invert for lookups.
    supp = [0] * n
    inf_part = [0] * n
    for i, st in enumerate(states):
        t = order[i]
        s_mask = 0
        i_mask = 0
        for bit, v in enumerate(st):
            if v:
                s_mask |= 1 << bit
            if v == 2:
                i_mask |= 1 << bit
        supp[t] = s_mask
        inf_part[t] = i_mask
    by_mask = {(supp[t], inf_part[t]): t for t in range(n)}

    def add(a: int, b: int) -> Optional[int]:
        sa, ia = supp[a], inf_part[a]
        sb, ib = supp[b], inf_part[b]
        ones_a = sa & ~ia
        ones_b = sb & ~ib
        if ones_a & ones_b:
            return None  # 1 + 1 = 2 leaves the {0,1,inf} fragment
        return by_mask[(sa | sb, ia | ib)]

    def leq(a: int, b: int) -> bool:
        return (supp[a] & ~supp[b]) == 0 and (inf_part[a] & ~inf_part[b]) == 0

    tokens = list(range(n))
    if seed is not None:
        random.Random(seed + 1).shuffle(tokens)
    return tokens, add, leq


# ---------------------------------------------------------------------------
# JSON interchange.

def space_to_json(space: Space) -> dict:
    if space.is_discrete:
        return {"kind": "discrete", "points": list(space.points)}
    return {"kind": "interval"}


def space_from_json(doc: dict) -> Space:
    if not isinstance(doc, dict):
        raise ValueError(f"a space document is a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "discrete":
        points = doc.get("points")
        if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
            raise ValueError(f"discrete points must be a list of strings, got {points!r}")
        return Space.discrete(points)
    if kind == "interval":
        return UNIT_INTERVAL
    raise ValueError(f"unknown space kind {kind!r}")


def mf_to_json(nu: MultiplicityFunction) -> dict:
    atoms = []
    for p, v in nu.atoms:
        at = p if nu.space.is_discrete else str(p)
        atoms.append({"at": at, "mult": v.to_json()})
    doc = {"space": space_to_json(nu.space), "atoms": atoms, "essential": []}
    if not nu.space.is_discrete:
        doc["essential"] = [[str(lo), str(hi)] for lo, hi in nu.essential.segments]
    return doc


def mf_from_json(doc: dict) -> MultiplicityFunction:
    space = space_from_json(doc["space"])
    atoms = []
    for item in doc.get("atoms", ()):
        point = item["at"] if space.is_discrete else Fraction(item["at"])
        atoms.append((point, ExtNat.of(item["mult"])))
    essential = None
    segs = doc.get("essential") or ()
    if segs:
        if space.is_discrete:
            raise ValueError("discrete documents must not carry an essential set")
        essential = [(Fraction(lo), Fraction(hi)) for lo, hi in segs]
    return mf(space, atoms, essential)
