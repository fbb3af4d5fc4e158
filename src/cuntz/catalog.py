"""Evaluation of the bivariant invariants W(A,B) and WW(A,B) over the
algebra catalog.

The evaluator is a terminating rewrite system on queries.  Rules are grouped
in three classes: base facts that read off a value directly, structural
isomorphisms (recovery of the univariant semigroup, matrix and limit
stability, additivity, absorption of a strongly self-absorbing tensor
factor), and last-resort absorption of a bare strongly self-absorbing first
argument.  A lower class always fires before a higher one; inside a class a
fixed priority breaks ties, and the tests check that any class-respecting
order of the tied rules reaches the same canonical value.
Every step is recorded with the name of the theorem that justifies it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import (
    COMPLEX,
    AlgebraExpr,
    CX,
    Complex,
    DirectSum,
    FinDim,
    KirchbergSimple,
    Mat,
    MatAmp,
    MatInf,
    Stabilize,
    Tensor,
    UHF,
    absorbs,
    finite_type_compact,
    finite_type_strict,
    is_exact,
    is_strongly_self_absorbing,
    kills_compact_targets,
    kills_findim_targets,
    normalize,
    simple_summand_count,
    to_text,
)
from .extnat import ExtNat
from .record import Record
from .supernatural import sn_format, sn_parse
from .supernatural import _is_prime

# The multiplicity layer is imported only by ``compose_product``, which
# takes a multiplicity function, so that an evaluation never loads it.
if TYPE_CHECKING:
    from .multiplicity import MultiplicityFunction

DYADIC_SUPERNATURAL = sn_parse("2:inf")


class SemigroupValue(Record):
    """Base class for canonical values; variants below.

    Each variant declares its JSON ``kind`` and its text once: a constant
    ``symbol``, or a ``text`` method and the JSON ``fields`` besides the kind.
    """

    __slots__ = ()
    kind = symbol = ""

    def text(self) -> str:
        return self.symbol

    def fields(self) -> dict:
        return {}


class NatSG(SemigroupValue):
    kind, symbol = "Nat", "ℕ₀"


class ExtNatSG(SemigroupValue):
    kind, symbol = "ExtNat", "ℕ₀∪{∞}"


class ZeroSG(SemigroupValue):
    kind, symbol = "Zero", "{0}"


class TwoPointSG(SemigroupValue):
    kind, symbol = "TwoPoint", "{0,∞}"


class CarSG(SemigroupValue):
    """Dyadic compact values together with a soft positive part."""

    kind, symbol = "Car", "ℕ₀[1/2]⊔(0,∞)"


class _OnPoints(SemigroupValue):
    """A monoid of multiplicity functions on the points of a ``CX``, which
    are always discrete; JSON writes them as a discrete space."""

    points: Tuple[str, ...]

    def text(self) -> str:
        return f"{self.symbol}({','.join(self.points)})"

    def fields(self) -> dict:
        return {"space": {"kind": "discrete", "points": list(self.points)}}


class MfSG(_OnPoints):
    kind = symbol = "Mf"


class MfiSG(_OnPoints):
    kind, symbol = "Mfi", "Mf_i"


def _power_of_two(k: int) -> Union[int, str]:
    """2^k as a number, or written as a power past 2^64: a tensor chain of
    n two-summand algebras has 2^n summands, and CX may have any number of
    points."""
    return 2 ** k if k <= 64 else f"2^{k}"


class IdealLatticeSG(SemigroupValue):
    """Subsets of k simple summands under intersection."""

    summands: int
    kind = "IdealLattice"

    def text(self) -> str:
        k = self.summands
        return f"ideal lattice on {k} summands ({_power_of_two(k)} elements, + = ∩)"

    def fields(self) -> dict:
        return {"summands": self.summands}

    def elements(self) -> Tuple[frozenset, ...]:
        base = list(range(1, self.summands + 1))
        subsets = []
        for mask in range(1 << self.summands):
            subsets.append(frozenset(base[i] for i in range(self.summands) if mask >> i & 1))
        return tuple(sorted(subsets, key=lambda s: (len(s), sorted(s))))

    @staticmethod
    def add(x: frozenset, y: frozenset) -> frozenset:
        return x & y

    @property
    def identity(self) -> frozenset:
        return frozenset(range(1, self.summands + 1))


class DirectSumSG(SemigroupValue):
    summands: Tuple[SemigroupValue, ...]
    kind = "DirectSum"

    def __post_init__(self):
        if not self.summands:
            raise ValueError("a direct sum value needs summands")

    def text(self) -> str:
        return "⊕[" + ", ".join(value_text(s) for s in self.summands) + "]"

    def fields(self) -> dict:
        return {"summands": [value_to_json(s) for s in self.summands]}


class _OfAlgebra(SemigroupValue):
    algebra: AlgebraExpr

    def text(self) -> str:
        return f"{self.symbol}({to_text(self.algebra)})"

    def fields(self) -> dict:
        return {"algebra": to_text(self.algebra)}


class WOfSG(_OfAlgebra):
    kind, symbol = "WOf", "W"


class CuOfSG(_OfAlgebra):
    kind, symbol = "CuOf", "Cu"


class UnknownSG(SemigroupValue):
    query: str
    kind = "Unknown"

    def text(self) -> str:
        return f"Unknown[{self.query}]"

    def fields(self) -> dict:
        return {"query": self.query}


def _value(v: SemigroupValue) -> SemigroupValue:
    if not isinstance(v, SemigroupValue):
        raise TypeError(f"not a semigroup value: {v!r}")
    return v


def value_text(v: SemigroupValue) -> str:
    return _value(v).text()


def value_to_json(v: SemigroupValue) -> dict:
    return {"kind": _value(v).kind, **v.fields()}


def direct_sum_value(parts: Sequence[SemigroupValue]) -> SemigroupValue:
    """Flatten nested sums and order summands canonically."""
    flat: List[SemigroupValue] = []
    for p in parts:
        if isinstance(p, DirectSumSG):
            flat.extend(p.summands)
        else:
            flat.append(p)
    flat.sort(key=lambda v: (type(v).__name__, value_text(v)))
    return DirectSumSG(tuple(flat))


def has_unknown(v: SemigroupValue) -> bool:
    if isinstance(v, UnknownSG):
        return True
    if isinstance(v, DirectSumSG):
        return any(has_unknown(s) for s in v.summands)
    return False


# ---------------------------------------------------------------------------
# Queries and the trace.

class Query(Record):
    variant: str  # "W" | "WW" | "Wof" | "Cuof"
    a: AlgebraExpr
    b: Optional[AlgebraExpr] = None


# variant -> (text form, the value of a query that no rule rewrites, or None
# for an Unknown one)
_VARIANTS = {
    "W": ("W({}, {})", None),
    "WW": ("WW({}, {})", None),
    "Wof": ("W({})", WOfSG),
    "Cuof": ("Cu({})", CuOfSG),
}


def query_text(q: Query) -> str:
    if q.variant not in _VARIANTS:
        raise ValueError(f"unknown query variant {q.variant!r}")
    return _VARIANTS[q.variant][0].format(
        to_text(q.a), None if q.b is None else to_text(q.b)
    )


class TraceStep(Record):
    rule: str
    anchor: str
    before: str
    after: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "anchor": self.anchor,
            "before": self.before,
            "after": self.after,
        }


RewriteTrace = List[TraceStep]


# A rule's outcome: the value, the next query, or the parts of a split.
Outcome = Union[SemigroupValue, Query, Tuple[Query, ...]]


# ---------------------------------------------------------------------------
# The rules.

def _is_dyadic_uhf(e: AlgebraExpr) -> bool:
    return isinstance(e, UHF) and e.number == DYADIC_SUPERNATURAL


def _r_zero(q: Query) -> Optional[Outcome]:
    if q.variant == "W":
        if finite_type_strict(q.b) and kills_findim_targets(q.a):
            return ZeroSG()
        if finite_type_compact(q.b) and kills_compact_targets(q.a):
            return ZeroSG()
    if q.variant == "WW":
        if finite_type_compact(q.b) and kills_compact_targets(q.a):
            return ZeroSG()
    return None


def _r_car(q: Query) -> Optional[Outcome]:
    if q.variant == "W" and _is_dyadic_uhf(q.a) and _is_dyadic_uhf(q.b):
        return CarSG()
    return None


def _r_kirchberg(q: Query) -> Optional[Outcome]:
    if q.variant == "WW" and isinstance(q.b, KirchbergSimple) and is_exact(q.a):
        k = simple_summand_count(q.a)
        return TwoPointSG() if k == 1 else IdealLatticeSG(k)
    return None


def _r_homology(q: Query) -> Optional[Outcome]:
    if isinstance(q.a, CX) and isinstance(q.b, Complex):
        if q.variant == "WW":
            return MfSG(q.a.points)
        if q.variant == "W":
            return MfiSG(q.a.points)
    return None


def _r_base_mono(q: Query) -> Optional[Outcome]:
    if q.variant == "Wof":
        if isinstance(q.a, Complex):
            return NatSG()
        if _is_dyadic_uhf(q.a):
            return CarSG()
        if isinstance(q.a, CX):
            return MfiSG(q.a.points)
    if q.variant == "Cuof":
        if isinstance(q.a, Complex):
            return ExtNatSG()
        if isinstance(q.a, CX):
            return MfSG(q.a.points)
    return None


def _r_recover(q: Query) -> Optional[Outcome]:
    if q.variant == "W" and isinstance(q.a, Complex):
        return Query("Wof", q.b)
    return None


def _r_bridge(q: Query) -> Optional[Outcome]:
    if q.variant == "WW":
        return Query("W", q.a, Stabilize(q.b))
    return None


def _r_target_strip(q: Query) -> Optional[Outcome]:
    if q.variant == "W":
        if isinstance(q.b, Mat):
            return Query("W", q.a, COMPLEX)
        if isinstance(q.b, (MatAmp, MatInf)):
            return Query("W", q.a, q.b.inner)
    if q.variant in ("Wof", "Cuof"):
        if isinstance(q.a, Mat):
            return Query(q.variant, COMPLEX)
        if isinstance(q.a, (MatAmp, MatInf)):
            return Query(q.variant, q.a.inner)
    return None


def _r_stability(q: Query) -> Optional[Outcome]:
    if q.variant == "W":
        if isinstance(q.a, MatInf):
            return Query("W", q.a.inner, q.b)
        if isinstance(q.a, Stabilize) and isinstance(q.b, Stabilize):
            return Query("W", q.a.inner, q.b)
    if q.variant == "Wof" and isinstance(q.a, Stabilize):
        return Query("Cuof", q.a.inner)
    if q.variant == "Cuof" and isinstance(q.a, Stabilize):
        return Query("Cuof", q.a.inner)
    return None


def _r_domain_strip(q: Query) -> Optional[Outcome]:
    if q.variant == "W":
        if isinstance(q.a, Mat):
            return Query("W", COMPLEX, q.b)
        if isinstance(q.a, MatAmp):
            return Query("W", q.a.inner, q.b)
    return None


def _summand_exprs(e: AlgebraExpr) -> Optional[Tuple[AlgebraExpr, ...]]:
    if isinstance(e, DirectSum):
        return e.items
    if isinstance(e, FinDim) and len(e.sizes) >= 2:
        return tuple(Mat(n) for n in e.sizes)
    if isinstance(e, CX):
        return (COMPLEX,) * len(e.points)
    return None


def _r_additivity(q: Query) -> Optional[Outcome]:
    if q.variant == "WW":
        return None
    if (parts := _summand_exprs(q.a)) is not None:
        part = lambda e: Query(q.variant, e, q.b)
    elif q.variant == "W" and (parts := _summand_exprs(q.b)) is not None:
        part = lambda e: Query("W", q.a, e)
    else:
        return None
    queries = tuple(map(part, parts))
    return queries[0] if len(queries) == 1 else queries


def _absorb(e: AlgebraExpr, b: AlgebraExpr) -> AlgebraExpr:
    """e with every strongly self-absorbing tensor factor that b absorbs
    replaced by C, looking through amplifications, limits and
    stabilization."""
    if isinstance(e, Tensor):
        return Tensor(*(_absorb(item, b) for item in e.items))
    if isinstance(e, (Stabilize, MatInf, MatAmp)):
        return e.replace(inner=_absorb(e.inner, b))
    if is_strongly_self_absorbing(e) and absorbs(b, e):
        return COMPLEX
    return e


def _r_absorption(q: Query) -> Optional[Outcome]:
    if q.variant != "W" or is_strongly_self_absorbing(q.a):
        return None
    rest = _absorb(q.a, q.b)
    return None if rest == q.a else Query("W", rest, q.b)


def _r_bare_absorption(q: Query) -> Optional[Outcome]:
    if q.variant == "W" and is_strongly_self_absorbing(q.a) and absorbs(q.b, q.a):
        return Query("W", COMPLEX, q.b)
    return None


class _Rule(Record):
    name: str
    anchor: str
    klass: int
    fn: Callable[[Query], Optional[Outcome]]


RULES: Tuple[_Rule, ...] = (
    _Rule("R6-zero", "finite-dimensional representation obstruction", 0, _r_zero),
    _Rule("R6-CAR", "CAR algebra self-pairing", 0, _r_car),
    _Rule(
        "R6-Kirchberg",
        "bivariant ideal lattice theorem for Kirchberg algebras",
        0,
        _r_kirchberg,
    ),
    _Rule(
        "R6-homology",
        "multiplicity function description of Cuntz homology",
        0,
        _r_homology,
    ),
    _Rule("R6-base", "base Cuntz semigroup values", 0, _r_base_mono),
    _Rule("R1", "recovery of the Cuntz semigroup from the bivariant theory", 1, _r_recover),
    _Rule("R2", "matrix stability of the target", 1, _r_target_strip),
    _Rule("R3", "stability isomorphism", 1, _r_stability),
    _Rule("R3-bridge", "stabilized definition of the bivariant semigroup", 1, _r_bridge),
    _Rule("R2-domain", "matrix stability of the domain", 1, _r_domain_strip),
    _Rule("R4", "additivity of the bivariant Cuntz semigroup", 1, _r_additivity),
    _Rule("R5", "strongly self-absorbing absorption theorem", 1, _r_absorption),
    _Rule("R7", "absorption of a strongly self-absorbing factor", 2, _r_bare_absorption),
)


def _normalize_query(q: Query) -> Query:
    a = normalize(q.a)
    b = normalize(q.b) if q.b is not None else None
    return Query(q.variant, a, b)


def _first_match(q: Query) -> Optional[Tuple[_Rule, Outcome]]:
    """The rule the engine applies, with its outcome, or None.  RULES is
    sorted by class, so the first rule that matches is the first of the
    lowest matching class, and the rules after it need not run."""
    for rule in RULES:
        outcome = rule.fn(q)
        if outcome is not None:
            return rule, outcome
    return None


def _matches(q: Query) -> List[Tuple[_Rule, Outcome]]:
    """Matching rules of the lowest matching class, in priority order; the
    confluence tests try each of them."""
    found: List[Tuple[_Rule, Outcome]] = []
    best = None
    for rule in RULES:
        outcome = rule.fn(q)
        if outcome is None:
            continue
        if best is None or rule.klass < best:
            best = rule.klass
            found = [(rule, outcome)]
        elif rule.klass == best:
            found.append((rule, outcome))
    return found


def _terminal_value(q: Query) -> SemigroupValue:
    terminal = _VARIANTS[q.variant][1]
    return terminal(q.a) if terminal else UnknownSG(query_text(q))


def _evaluate(q: Query) -> Tuple[SemigroupValue, RewriteTrace]:
    """Rewrite the query; the parts of a split wait on a stack and are
    rewritten depth first, each with its own step budget, and the value of a
    query that splits is the direct sum of every terminal value.  A part that
    exhausts its budget is Unknown, named by the query it stopped at."""
    trace: RewriteTrace = []
    nq = _normalize_query(q)
    text = query_text(nq)
    if text != query_text(q):
        trace.append(TraceStep("N", "canonical presentation", query_text(q), text))
    stack = [(nq, text)]
    values: List[SemigroupValue] = []
    while stack:
        q, before = stack.pop()
        # The budget only guards termination.  It grows with the query, so
        # that no long query is cut short: every node of it prints as at
        # least one character.
        for _ in range(64 + len(before)):
            matched = _first_match(q)
            if matched is None:
                values.append(_terminal_value(q))
                break
            rule, outcome = matched
            if isinstance(outcome, SemigroupValue):
                trace.append(TraceStep(rule.name, rule.anchor, before, value_text(outcome)))
                values.append(outcome)
                break
            if isinstance(outcome, Query):
                q = _normalize_query(outcome)
                after = query_text(q)
                trace.append(TraceStep(rule.name, rule.anchor, before, after))
                before = after
                continue
            parts = [(p, query_text(p)) for p in map(_normalize_query, outcome)]
            after = " (+) ".join(t for _, t in parts)
            trace.append(TraceStep(rule.name, rule.anchor, before, after))
            stack.extend(reversed(parts))
            break
        else:  # the budget ran out: the value of this part is unknown
            values.append(UnknownSG(before))
    # A split has at least two parts, so one value means no split happened.
    return (values[0] if len(values) == 1 else direct_sum_value(values)), trace


def eval_W(a: AlgebraExpr, b: AlgebraExpr) -> Tuple[SemigroupValue, RewriteTrace]:
    """Evaluate W(a,b) to a canonical value with a rule-by-rule trace."""
    return _evaluate(Query("W", a, b))


def eval_WW(a: AlgebraExpr, b: AlgebraExpr) -> Tuple[SemigroupValue, RewriteTrace]:
    """Evaluate WW(a,b) = W(a (x) K, b (x) K) to a canonical value."""
    return _evaluate(Query("WW", a, b))


# ---------------------------------------------------------------------------
# The composition product.

def compose_product(rank: Mapping[str, int], nu: MultiplicityFunction) -> ExtNat:
    """Pairing of a rank function with a multiplicity function over a shared
    finite discrete space: sum of pointwise products in the extended
    naturals."""
    from .multiplicity import SpaceMismatch

    if nu.space.kind != "discrete":
        raise SpaceMismatch("the composition product needs a discrete space")
    labels = set(nu.space.points)
    total = ExtNat(0)
    for point, r in rank.items():
        if point not in labels:
            raise SpaceMismatch(f"rank function mentions unknown point {point!r}")
        if not isinstance(r, int) or r < 0:
            raise ValueError("ranks must be non-negative integers")
        total = total + ExtNat(r) * nu.value_at(point)
    return total


# ---------------------------------------------------------------------------
# Classification and scales.

class ClassificationVerdict(Record):
    verdict: str  # Isomorphic | NotIsomorphic | Undecided
    certificate: str

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "certificate": self.certificate}


def _uhf_witness_prime(p, q) -> Tuple[int, ExtNat, ExtNat]:
    candidates = sorted({prime for prime, _ in p.exponents} | {prime for prime, _ in q.exponents})
    if p.universal or q.universal:
        n = 2
        while n in candidates or not _is_prime(n):
            n += 1
        candidates.append(n)
    for prime in sorted(candidates):
        if p.exponent(prime) != q.exponent(prime):
            return prime, p.exponent(prime), q.exponent(prime)
    raise AssertionError("no witness prime for equal supernatural numbers")


def _classify_cx(a: CX, b: CX) -> ClassificationVerdict:
    """Cuntz homology is a complete invariant, and Mf_i(X) of a k-point space
    is ℕ₀^k with exactly k minimal non-zero elements, so two finite discrete
    spaces are homeomorphic exactly when their point counts agree."""
    ka, kb = len(a.points), len(b.points)
    if ka == kb:
        return ClassificationVerdict(
            "Isomorphic",
            f"point counts agree: {ka} points, "
            f"closed-set lattices of size {_power_of_two(ka)} coincide",
        )
    return ClassificationVerdict(
        "NotIsomorphic",
        f"point counts differ: {ka} != {kb}",
    )


def _normal_pair(a: AlgebraExpr, b: AlgebraExpr) -> Tuple[AlgebraExpr, AlgebraExpr]:
    """Normal forms of both expressions, with C read as M(1)."""
    return tuple(Mat(1) if isinstance(x, Complex) else x for x in (normalize(a), normalize(b)))


def classify(a: AlgebraExpr, b: AlgebraExpr) -> ClassificationVerdict:
    """Isomorphism verdicts on the decidable catalog fragment.

    Matrix algebras compare by dimension, UHF algebras by their supernatural
    numbers, finite discrete function algebras by their point counts; all
    other pairs are Undecided.
    """
    a, b = _normal_pair(a, b)
    if isinstance(a, Mat) and isinstance(b, Mat):
        if a.n == b.n:
            return ClassificationVerdict(
                "Isomorphic", f"matrix dimensions agree: {a.n} = {b.n}"
            )
        return ClassificationVerdict(
            "NotIsomorphic", f"matrix dimensions differ: {a.n} != {b.n}"
        )
    if isinstance(a, UHF) and isinstance(b, UHF):
        if a.number == b.number:
            return ClassificationVerdict(
                "Isomorphic",
                f"equal supernatural numbers: {sn_format(a.number)}",
            )
        prime, ea, eb = _uhf_witness_prime(a.number, b.number)
        return ClassificationVerdict(
            "NotIsomorphic",
            f"prime {prime} exponent mismatch: {ea} vs {eb}",
        )
    if isinstance(a, CX) and isinstance(b, CX):
        return _classify_cx(a, b)
    return ClassificationVerdict("Undecided", "outside the decidable catalog fragment")


class NotDecidable(Exception):
    """Scale analysis is restricted to matrix pairs."""


SCALE_LISTED = 16  # a scale of a larger rank budget prints as {0,1,…,budget}


class ScaleNote(Record):
    n: int
    m: int
    forward_budget: int
    backward_budget: int
    invertible: bool
    strictly_invertible: bool

    @property
    def forward_scale(self) -> Tuple[int, ...]:
        """{0, ..., floor(m/n)}, built on each read."""
        return tuple(range(self.forward_budget + 1))

    @property
    def backward_scale(self) -> Tuple[int, ...]:
        """{0, ..., floor(n/m)}, built on each read."""
        return tuple(range(self.backward_budget + 1))

    def text(self) -> str:
        fwd, bwd = self.forward_budget, self.backward_budget
        lines = [
            f"WW(M({self.n}),M({self.m})) has carrier ℕ₀∪{{∞}}.",
            f"Scale from M({self.n}) to M({self.m}): {_scale_text(fwd)} "
            f"(rank budget floor({self.m}/{self.n}) = {fwd}).",
            f"Scale from M({self.m}) to M({self.n}): {_scale_text(bwd)} "
            f"(rank budget floor({self.n}/{self.m}) = {bwd}).",
            "An invertible class exists: 1 composes with 1 to the identity class "
            "in both orders.",
        ]
        if self.strictly_invertible:
            lines.append(
                "The class 1 lies in both scales, so it is strictly invertible "
                "and the algebras are isomorphic."
            )
        else:
            missing = "forward" if fwd < 1 else "backward"
            lines.append(
                f"No strictly invertible class: 1 is missing from the {missing} "
                "scale, which forces n = m for isomorphism."
            )
        return " ".join(lines)

    def to_json(self) -> dict:
        """The scales as lists up to a rank budget of ``SCALE_LISTED``; a
        larger budget is given as ``forward_budget``/``backward_budget`` in
        place of the list."""
        return {
            "n": self.n,
            "m": self.m,
            **_scale_json("forward", self.forward_budget),
            **_scale_json("backward", self.backward_budget),
            "invertible": self.invertible,
            "strictly_invertible": self.strictly_invertible,
            "note": self.text(),
        }


def _scale_text(budget: int) -> str:
    if budget > SCALE_LISTED:
        return f"{{0,1,…,{budget}}}"
    return "{" + ",".join(map(str, range(budget + 1))) + "}"


def _scale_json(direction: str, budget: int) -> dict:
    if budget > SCALE_LISTED:
        return {f"{direction}_budget": budget}
    return {f"{direction}_scale": list(range(budget + 1))}


def scale_membership_note(a: AlgebraExpr, b: AlgebraExpr) -> ScaleNote:
    """Which classes of WW(M_n, M_m) come from maps M_n -> M_m.

    The scale is the rank budget of unital-size bookkeeping, {0..floor(m/n)},
    stored as its budget floor(m/n); strict invertibility needs 1 in the
    scales of both directions.
    """
    a, b = _normal_pair(a, b)
    if not (isinstance(a, Mat) and isinstance(b, Mat)):
        raise NotDecidable("scale analysis is only implemented for matrix pairs")
    n, m = a.n, b.n
    return ScaleNote(
        n=n,
        m=m,
        forward_budget=m // n,
        backward_budget=n // m,
        invertible=True,
        strictly_invertible=(n == m),
    )
