"""Finite-fragment checkers for the axioms of ordered monoids carrying an
auxiliary relation, and for the morphisms between them.

A fragment is a finite window into a (possibly infinite) positively ordered
monoid together with an auxiliary relation ``aux`` refining the order.  The
four object axioms are checked over the fragment:

  O1  every lower set {x : aux(x, a)} is upward directed and contains a
      cofinal aux-increasing sequence;
  O2  that lower set admits a supremum, which is a itself;
  O3  aux is additive: aux(a', a) and aux(b', b) imply aux(a'+b', a+b);
  O4  lower sets are additively cofinal: every c with aux(c, a+b) is
      dominated by a sum a'+b' of elements aux-below a and b.

On a finite carrier a cofinal aux-increasing sequence exists iff the lower
set has a greatest element t with aux(t, t) (the sequence is eventually
constant), which is what O1 tests.  For O2 the supremum oracle may be
partial; when a is not aux-compact (aux(a, a) fails) the fragment can only
exhibit a cofinal piece of the true lower set, so any upper bound <= a is
accepted, while aux-compact elements must realise the supremum exactly.

The two morphism axioms:

  M1  continuity: aux(t, f(s)) in the target lifts to some aux(s', s) in
      the source with t <= f(s');
  M2  f preserves aux.

O1, O3, O4, M1 and M2 read bitmasks over the element order, built from n^2
oracle calls per relation and kept on the fragment; O2 enumerates.  Each
reports the first counterexample, and the first escaping addition, of
enumerating its quantifiers in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from .extnat import INF, ExtNat, way_below

T = TypeVar("T")


class FragmentNotClosed(Exception):
    """An addition or image escaped the fragment under test."""


@dataclass
class AxiomCheck:
    axiom: str
    passed: bool
    witness: Optional[str] = None

    def __str__(self) -> str:
        tail = "" if self.passed else f"  counterexample: {self.witness}"
        return f"{self.axiom}: {'pass' if self.passed else 'FAIL'}{tail}"


@dataclass(frozen=True)
class Fragment:
    """A finite carrier with its monoid, order, and auxiliary oracles.

    ``sup`` receives the aux-lower set of an element (as a list) and returns
    its supremum in the ambient monoid, or None where it is undefined.

    A fragment is frozen, since it keeps the masks of its oracles.  The
    index and the masks are not init fields, so a copy made by
    ``dataclasses.replace`` builds its own from its own oracles.
    """

    elements: Sequence[T]
    add: Callable[[T, T], T]
    zero: T
    leq: Callable[[T, T], bool]
    aux: Callable[[T, T], bool]
    sup: Callable[[Sequence[T]], Optional[T]]
    name: str = "fragment"
    _index: dict = field(init=False, repr=False)
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_index", {x: None for x in self.elements})

    def __contains__(self, x: T) -> bool:
        return x in self._index

    def masks(self, relation: str) -> tuple:
        """The masks of ``relation``, "aux" or "leq", over the elements (see
        _masks), from n^2 oracle calls on first use and kept for later checks."""
        if relation not in self._tables:
            self._tables[relation] = _masks(self.elements, getattr(self, relation))
        return self._tables[relation]

    def checked_add(self, x: T, y: T) -> T:
        s = self.add(x, y)
        if s not in self:
            raise FragmentNotClosed(f"{x} + {y} = {s} escapes the fragment")
        return s


def _masks(elements: Sequence[T], rel) -> tuple:
    """The bit of each element (of its last place, if listed twice) and, per
    x, the masks of the z with rel(x, z) and of the y with rel(y, x)."""
    bit = {x: 1 << i for i, x in enumerate(elements)}
    up, down = dict.fromkeys(bit, 0), dict.fromkeys(bit, 0)
    for x, bx in bit.items():
        for z, bz in bit.items():
            if rel(x, z):
                up[x] |= bz
                down[z] |= bx
    return bit, up, down


def _first(axiom: str, counterexamples: Iterator[str]) -> AxiomCheck:
    """The check of one axiom: the first counterexample, if there is one."""
    witness = next(counterexamples, None)
    return AxiomCheck(axiom, witness is None, witness)


def check_wo_axioms(fragment: Fragment) -> List[AxiomCheck]:
    """Check the four object axioms on a fragment.

    Returns one AxiomCheck per axiom with a concrete counterexample on
    failure.  Raises FragmentNotClosed if a tested addition escapes.

    The fragment's masks (n^2 aux and n^2 leq calls, once): below[a] holds
    the x with aux(x, a), up[x] and down[x] the z above and the y below x.
    O1 tests a pair (x, y) of a lower set as up[x] & up[y] & below[a], and
    takes the first x whose down[x] covers below[a] as its greatest element.
    O3 reads below[a+b] and keeps, per (a', b), the sums a'+b' over b'
    aux-below b.  O4 ORs the down-masks of the split sums a'+b' until they
    cover below[a+b].  All three do O(n^3) integer work, not n^4 oracle
    calls; O2 enumerates.
    """
    elems = list(fragment.elements)
    leq, aux = fragment.leq, fragment.aux
    bit, _, below = fragment.masks("aux")
    _, up, down = fragment.masks("leq")
    lowers = {a: [x for x in elems if bit[x] & below[a]] for a in elems}

    sums: dict = {}
    missing = object()  # a sum may be None, so None cannot mark a miss

    def cadd(x, y):
        key = (x, y)
        s = sums.get(key, missing)
        if s is missing:
            s = sums[key] = fragment.checked_add(x, y)
        return s

    def directed():
        for a in elems:
            low, mask = lowers[a], below[a]
            ups = [up[y] for y in low]
            for x in low:
                ux = up[x] & mask
                for y, uy in zip(low, ups):
                    if not ux & uy:
                        yield f"lower set of {a} not directed at ({x}, {y})"
            top = next((x for x in low if not mask & ~down[x]), None)
            if top is None or not bit[top] & below[top]:
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
        # span[b][a1] holds the sums a1 + b1 over b1 in lowers[b].  A span
        # is filled, and refilled where it fails, in enumeration order and
        # tested sum by sum, so the first escaping sum and the first
        # counterexample are those of enumerating every (a, b, a1, b1).
        span = {b: {} for b in elems}
        for a in elems:
            for b in elems:
                ab = cadd(a, b)
                good, spans = below[ab], span[b]
                for a1 in lowers[a]:
                    mask = spans.get(a1)
                    if mask is None or mask & ~good:
                        mask = 0
                        for b1 in lowers[b]:
                            s = bit[cadd(a1, b1)]
                            if not s & good:
                                yield f"aux({a1}+{b1}, {a}+{b}) fails"
                            mask |= s
                        spans[a1] = mask

    def cofinal():
        # Per (a, b) the split sums a1 + b1 are walked largest first (a
        # dominating one is usually the first), and seen ORs their
        # down-masks until it covers below[a+b].  Testing each c against the
        # sums in turn reaches the same prefix, the longest that any c needs,
        # so the sums added, and the first that escapes, are the enumeration's.
        rev = {a: lowers[a][::-1] for a in elems}
        for a in elems:
            for b in elems:
                ab = cadd(a, b)
                need, seen = below[ab], 0
                walk = (down[cadd(a1, b1)] for a1 in rev[a] for b1 in rev[b])
                while need & ~seen:
                    more = next(walk, None)
                    if more is None:
                        break
                    seen |= more
                for c in lowers[ab]:
                    if not bit[c] & seen:
                        yield f"{c} aux-below {a}+{b} but no dominating split sum"

    return [
        _first("O1", directed()),
        _first("O2", sup_ok()),
        _first("O3", additive()),
        _first("O4", cofinal()),
    ]


def check_wm_axioms(
    morphism: Callable[[T], T], source: Fragment, target: Fragment
) -> List[AxiomCheck]:
    """Check the two morphism axioms for a map between fragments.

    Raises FragmentNotClosed if an image falls outside the target fragment.
    Both axioms read the fragments' masks and make no oracle call once
    check_wo_axioms or an earlier morphism check has built them.  M1 tests
    up[t] & lift[s]: the target's z above t against the images of the s'
    aux-below s.  M2 tests the bit of f(a) against the target's below[f(b)].
    """
    images = {}
    for s in source.elements:
        m = morphism(s)
        if m not in target:
            raise FragmentNotClosed(f"image {m} of {s} escapes the target fragment")
        images[s] = m
    src_bit, _, src_below = source.masks("aux")
    bit, _, below = target.masks("aux")
    _, up, _ = target.masks("leq")
    # Per source element, in order: its bit and below-mask and those of its
    # image.  The n^2 loops read these rows and hash no element.
    rows = [(s, src_bit[s], src_below[s], bit[images[s]], below[images[s]])
            for s in source.elements]
    lifts = []
    for _, _, low, _, _ in rows:
        lift = 0
        for _, b1, _, f1, _ in rows:
            if b1 & low:
                lift |= f1
        lifts.append(lift)

    def continuity():
        targets = [(t, bit[t], up[t]) for t in target.elements]
        for (s, _, _, _, below_fs), lift in zip(rows, lifts):
            for t, bt, ut in targets:
                if bt & below_fs and not ut & lift:
                    yield f"aux({t}, f({s})) has no lift below {s}"

    def preserves():
        for a, ba, _, fa, _ in rows:
            for b, _, low, _, below_fb in rows:
                if ba & low and not fa & below_fb:
                    yield f"aux({a}, {b}) holds but aux(f({a}), f({b})) fails"

    return [_first("M1", continuity()), _first("M2", preserves())]


def extnat_fragment(
    bound: int, aux: str = "way-below", sup: str = "max"
) -> Fragment:
    """The fragment {0, ..., bound, inf} of ExtNat.

    Addition clamps finite sums at the bound so the fragment is closed;
    the clamped monoid is associative, commutative and order compatible.
    ``aux`` selects the auxiliary relation (``way-below`` or the full order
    ``leq``); ``sup`` selects the supremum oracle (``max``, or the partial
    ``finite-only`` oracle that is undefined on sets containing inf).
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    cap = ExtNat(bound)
    elements: List[ExtNat] = [ExtNat(k) for k in range(bound + 1)] + [INF]

    def add(x: ExtNat, y: ExtNat) -> ExtNat:
        s = x + y
        return s if not s.is_finite or s <= cap else cap

    if aux == "way-below":
        aux_fn = way_below
    elif aux == "leq":
        aux_fn = lambda x, y: x <= y
    else:
        raise ValueError(f"unknown auxiliary relation {aux!r}")

    def sup_max(values: Sequence[ExtNat]) -> Optional[ExtNat]:
        out = None
        for v in values:
            if out is None or out < v:
                out = v
        return out

    def sup_finite_only(values: Sequence[ExtNat]) -> Optional[ExtNat]:
        if any(not v.is_finite for v in values):
            return None
        return sup_max(values)

    if sup == "max":
        sup_fn = sup_max
    elif sup == "finite-only":
        sup_fn = sup_finite_only
    else:
        raise ValueError(f"unknown supremum oracle {sup!r}")

    return Fragment(
        elements=elements,
        add=add,
        zero=ExtNat(0),
        leq=lambda x, y: x <= y,
        aux=aux_fn,
        sup=sup_fn,
        name=f"extnat<=({bound})",
    )


def extnat_scaling(fragment: Fragment, k: int) -> Callable[[ExtNat], ExtNat]:
    """Multiplication by k on a clamped ExtNat fragment.

    Finite values map to min(k*x, bound); inf maps to inf.  For k >= 1 this
    is a monoid morphism of the clamped fragment.
    """
    if k < 1:
        raise ValueError("the scaling factor must be >= 1")
    cap = max((x for x in fragment.elements if x.is_finite), key=lambda v: v.finite_value)

    def scale(x: ExtNat) -> ExtNat:
        if not x.is_finite:
            return INF
        y = ExtNat(k * x.finite_value)
        return y if y <= cap else cap

    return scale
