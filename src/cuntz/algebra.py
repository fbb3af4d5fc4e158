"""Symbolic descriptors for the catalog of C*-algebras.

Expressions are finite trees: leaves name concrete algebras (scalars, matrix
algebras, finite-dimensional sums, continuous functions on a finite discrete
space, UHF algebras given by a supernatural number, the Jiang-Su algebra,
simple Kirchberg algebras, the compact operators) and nodes combine them by
tensor product, direct sum, stabilization, matrix amplification M_n(-) and
the algebraic limit M_inf(-).

The text syntax is

    C | M(n) | F(n1,...,nk) | CX(p1,...,pk) | UHF(2:inf,...) | CAR | Z | Q
      | O2 | Oinf | Kirchberg(name) | K | A (+) B | A (x) B | stab(A) | Minf(A)

with (x) binding tighter than (+).  A run of one operator is a single chain
node holding its operands in order: ``A (x) B (x) C`` is ``Tensor(A, B, C)``,
and a parenthesised chain inside it stays one operand.  At most
``MAX_NESTING`` parentheses may be open at once.  CAR and Q are sugar for
UHF(2:inf) and UHF(Q).  ``normalize`` rewrites a tree to a canonical form
using only plain *-isomorphisms (matrix bookkeeping and absorption of matrix
factors into stabilization), never theorems about the invariants themselves.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional, Tuple

from .record import Record
from .supernatural import (
    Supernatural,
    sn_format,
    sn_is_infinite_type,
    sn_mul,
    sn_parse,
)


class AlgebraExpr(Record):
    """Base class; concrete variants are the records below."""

    __slots__ = ()


class Complex(AlgebraExpr):
    pass


class Mat(AlgebraExpr):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")


class FinDim(AlgebraExpr):
    sizes: Tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("finite-dimensional sums need sizes >= 1")


class CX(AlgebraExpr):
    """Continuous functions on a finite discrete space with named points."""

    points: Tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("the space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be distinct")


class UHF(AlgebraExpr):
    number: Supernatural


class JiangSu(AlgebraExpr):
    pass


class KirchbergSimple(AlgebraExpr):
    name: str

    def __post_init__(self):
        if self.name not in ("O2", "Oinf", "other"):
            raise ValueError(f"unknown Kirchberg label {self.name!r}")


class Compacts(AlgebraExpr):
    pass


class _Chain(AlgebraExpr):
    """Two or more operands joined by one associative operator.

    A first operand that is a chain of the same operator is spliced in, so a
    chain is the left spine of the binary tree the text parses to, and
    ``Tensor(Tensor(a, b), c) == Tensor(a, b, c)``.
    """

    items: Tuple[AlgebraExpr, ...]

    def __init__(self, *operands: AlgebraExpr):
        if len(operands) < 2:
            raise ValueError("a chain needs at least two operands")
        if type(operands[0]) is type(self):
            operands = operands[0].items + operands[1:]
        object.__setattr__(self, "items", operands)


class Tensor(_Chain):
    pass


class DirectSum(_Chain):
    pass


class Stabilize(AlgebraExpr):
    inner: AlgebraExpr


class MatAmp(AlgebraExpr):
    n: int
    inner: AlgebraExpr

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("amplification size must be >= 1")


class MatInf(AlgebraExpr):
    inner: AlgebraExpr


COMPLEX = Complex()


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# Parsing, printing and normalizing recurse once per level of parentheses;
# the bound keeps every input far from the interpreter's recursion limit.
MAX_NESTING = 100

# The whitespace before a token, and the token, with "(+)" and "(x)" tried
# before "(".  Any non-space character starts a token, so matches are
# contiguous.  \s is str.isspace, \d str.isdecimal, \w str.isalnum or "_".
_TOKEN = re.compile(r"(\s*)(\(\+\)|\(x\)|[(),:]|\d+|\w+|\S)")
_KINDS = {"(+)": "OPLUS", "(x)": "OTIMES", "(": "LP", ")": "RP", ",": "COMMA", ":": "COLON"}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    depth = 0
    pos = 0
    for space, lexeme in _TOKEN.findall(text):
        pos += len(space)
        # a word starts with a letter; any other lexeme must be a number
        kind = _KINDS.get(lexeme) or ("NAME" if lexeme[0].isalpha() else "INT")
        if kind == "LP":
            depth += 1
            if depth > MAX_NESTING:
                raise ExprSyntaxError(f"more than {MAX_NESTING} open parentheses", pos)
        elif kind == "RP":
            depth -= 1
        elif kind == "INT" and not lexeme[0].isdecimal():
            raise ExprSyntaxError(f"unexpected character {lexeme[0]!r}", pos)
        tokens.append((kind, lexeme, pos))
        pos += len(lexeme)
    tokens.append(("EOF", "", len(text)))
    return tokens


# The bare leaves, built when read, and the one-argument wrappers.
_LEAVES = {
    "C": lambda: COMPLEX,
    "CAR": lambda: UHF(sn_parse("2:inf")),
    "Z": JiangSu,
    "Q": lambda: UHF(sn_parse("Q")),
    "O2": lambda: KirchbergSimple("O2"),
    "Oinf": lambda: KirchbergSimple("Oinf"),
    "K": Compacts,
}
_WRAPPERS = {"stab": Stabilize, "Minf": MatInf}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> AlgebraExpr:
        expr = self.sum()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return expr

    def sum(self) -> AlgebraExpr:
        items = [self.product()]
        while self.peek()[0] == "OPLUS":
            self.next()
            items.append(self.product())
        return items[0] if len(items) == 1 else DirectSum(*items)

    def product(self) -> AlgebraExpr:
        items = [self.atom()]
        while self.peek()[0] == "OTIMES":
            self.next()
            items.append(self.atom())
        return items[0] if len(items) == 1 else Tensor(*items)

    def atom(self) -> AlgebraExpr:
        kind, text, pos = self.next()
        if kind == "LP":
            inner = self.sum()
            self.expect("RP")
            return inner
        if kind != "NAME":
            raise ExprSyntaxError(f"expected an algebra, found {text!r}", pos)
        if text in _LEAVES:
            return _LEAVES[text]()
        if text in _WRAPPERS:
            self.expect("LP")
            inner = self.sum()
            self.expect("RP")
            return _WRAPPERS[text](inner)
        if text == "M":
            return Mat(self._int_args(pos, exactly=1)[0])
        if text == "F":
            return FinDim(tuple(self._int_args(pos)))
        if text == "CX":
            return CX(tuple(self._label_args(pos)))
        if text == "UHF":
            return UHF(self._supernatural_arg(pos))
        if text == "Kirchberg":
            self.expect("LP")
            name = self.expect("NAME")
            self.expect("RP")
            try:
                return KirchbergSimple(name[1])
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), name[2]) from None
        raise ExprSyntaxError(f"unknown algebra name {text!r}", pos)

    def _int_args(self, pos: int, exactly: Optional[int] = None) -> List[int]:
        self.expect("LP")
        out = []
        while True:
            tok = self.expect("INT")
            value = int(tok[1])
            if value < 1:
                raise ExprSyntaxError("sizes must be >= 1", tok[2])
            out.append(value)
            if self.peek()[0] != "COMMA":
                break
            self.next()
        self.expect("RP")
        if exactly is not None and len(out) != exactly:
            raise ExprSyntaxError(f"expected {exactly} argument(s)", pos)
        return out

    def _label_args(self, pos: int) -> List[str]:
        if self.peek()[0] == "OTIMES":  # "CX(x)": "(x)" scans as one token
            self.next()
            return ["x"]
        self.expect("LP")
        out = []
        while True:
            tok = self.next()
            if tok[0] not in ("NAME", "INT"):
                raise ExprSyntaxError(f"expected a point label, found {tok[1]!r}", tok[2])
            out.append(tok[1])
            if self.peek()[0] != "COMMA":
                break
            self.next()
        self.expect("RP")
        if len(set(out)) != len(out):
            raise ExprSyntaxError("point labels must be distinct", pos)
        return out

    def _supernatural_arg(self, pos: int) -> Supernatural:
        self.expect("LP")
        pieces = []
        while self.peek()[0] != "RP":
            tok = self.next()
            if tok[0] == "EOF":
                raise ExprSyntaxError("unterminated UHF argument", tok[2])
            pieces.append(tok[1])
        self.expect("RP")
        try:
            return sn_parse("".join(pieces))
        except ValueError as exc:
            raise ExprSyntaxError(str(exc), pos) from None


def parse_algebra(text: str) -> AlgebraExpr:
    """Parse the catalog syntax; errors carry the character position."""
    return _Parser(text).parse()


def to_text(expr: AlgebraExpr) -> str:
    """Render an expression in the catalog syntax (reparseable)."""
    form = _FORMS.get(type(expr))
    if form is None:
        raise TypeError(f"not an algebra expression: {expr!r}")
    return form[1](expr)


def _chain_text(expr: _Chain) -> str:
    me = _FORMS[type(expr)][0]
    op = " (x) " if isinstance(expr, Tensor) else " (+) "
    return op.join(
        f"({to_text(x)})" if _FORMS[type(x)][0] <= me else to_text(x) for x in expr.items
    )


# class -> (binding precedence, text form); an amplification prints as a
# tensor product but binds like an atom.
_FORMS = {
    Complex: (3, lambda e: "C"),
    Mat: (3, lambda e: f"M({e.n})"),
    FinDim: (3, lambda e: f"F({','.join(str(n) for n in e.sizes)})"),
    CX: (3, lambda e: f"CX({','.join(e.points)})"),
    UHF: (3, lambda e: f"UHF({sn_format(e.number)})"),
    JiangSu: (3, lambda e: "Z"),
    KirchbergSimple: (
        3,
        lambda e: e.name if e.name in ("O2", "Oinf") else f"Kirchberg({e.name})",
    ),
    Compacts: (3, lambda e: "K"),
    Stabilize: (3, lambda e: f"stab({to_text(e.inner)})"),
    MatInf: (3, lambda e: f"Minf({to_text(e.inner)})"),
    MatAmp: (3, lambda e: _chain_text(Tensor(Mat(e.n), e.inner))),
    Tensor: (2, _chain_text),
    DirectSum: (1, _chain_text),
}


def normalize(expr: AlgebraExpr) -> AlgebraExpr:
    """Canonical form under plain *-isomorphisms, in one bottom-up pass.

    Matrix sizes multiply out, scalar tensor factors drop, and the matrix
    factors of a tensor product become one amplification; a stabilization
    absorbs amplifications and algebraic limits, an algebraic limit absorbs
    amplifications, and the compacts become stab(C).  Amplifications,
    stabilizations and limits are read as one-factor tensor products.
    """
    if isinstance(expr, Compacts):
        return Stabilize(COMPLEX)
    if isinstance(expr, FinDim) and len(expr.sizes) == 1:
        expr = Mat(expr.sizes[0])
    if isinstance(expr, Mat):
        return COMPLEX if expr.n == 1 else expr
    if isinstance(expr, DirectSum):
        return DirectSum(*map(normalize, expr.items))
    size, wrap = 1, None
    if isinstance(expr, Tensor):
        factors = expr.items
    elif isinstance(expr, MatAmp):
        size, factors = expr.n, (expr.inner,)
    elif isinstance(expr, (Stabilize, MatInf)):
        wrap, factors = type(expr), (expr.inner,)
    else:
        return expr
    cores = []
    for factor in map(normalize, factors):
        if isinstance(factor, Mat):
            size *= factor.n
            continue
        if isinstance(factor, MatAmp):
            size, factor = size * factor.n, factor.inner
        elif isinstance(factor, Stabilize):
            wrap, factor = Stabilize, factor.inner
        elif isinstance(factor, MatInf):
            wrap, factor = wrap or MatInf, factor.inner
        if not isinstance(factor, Complex):
            cores.append(factor)
    core = Tensor(*cores) if len(cores) > 1 else cores[0] if cores else COMPLEX
    if wrap is not None:
        return wrap(core)
    if size == 1:
        return core
    return Mat(size) if isinstance(core, Complex) else MatAmp(size, core)


# ---------------------------------------------------------------------------
# Structural predicates used by the rewrite engine.

def is_unital(expr: AlgebraExpr) -> bool:
    if isinstance(expr, (Compacts, Stabilize, MatInf)):
        return False
    if isinstance(expr, _Chain):
        return all(map(is_unital, expr.items))
    if isinstance(expr, MatAmp):
        return is_unital(expr.inner)
    return True


def simple_summand_count(expr: AlgebraExpr) -> int:
    """Number of simple direct summands (ideals are subsets of these)."""
    if isinstance(expr, (Complex, Mat, UHF, JiangSu, KirchbergSimple, Compacts)):
        return 1
    if isinstance(expr, FinDim):
        return len(expr.sizes)
    if isinstance(expr, CX):
        return len(expr.points)
    if isinstance(expr, DirectSum):
        return sum(map(simple_summand_count, expr.items))
    if isinstance(expr, Tensor):
        return math.prod(map(simple_summand_count, expr.items))
    if isinstance(expr, (Stabilize, MatInf, MatAmp)):
        return simple_summand_count(expr.inner)
    raise TypeError(f"not an algebra expression: {expr!r}")


def _leaf_finite_dimensional(leaf: AlgebraExpr) -> bool:
    return isinstance(leaf, (Complex, Mat, FinDim, CX))


def finite_type_strict(expr: AlgebraExpr) -> bool:
    """Finite dimensional as an algebra: finite-dimensional leaves combined
    without stabilization or algebraic limits."""
    if isinstance(expr, _Chain):
        return all(map(finite_type_strict, expr.items))
    if isinstance(expr, MatAmp):
        return finite_type_strict(expr.inner)
    if isinstance(expr, (Stabilize, MatInf, Compacts)):
        return False
    return _leaf_finite_dimensional(expr)


def finite_type_compact(expr: AlgebraExpr) -> bool:
    """Built from finite-dimensional leaves and the compacts; every
    representation of such an algebra acts by compact operators blockwise."""
    if isinstance(expr, _Chain):
        return all(map(finite_type_compact, expr.items))
    if isinstance(expr, (MatAmp, Stabilize, MatInf)):
        return finite_type_compact(expr.inner)
    return _leaf_finite_dimensional(expr) or isinstance(expr, Compacts)


def kills_findim_targets(expr: AlgebraExpr) -> bool:
    """True when every order zero map from the algebra into a
    finite-dimensional target is zero.

    Holds for the simple infinite-dimensional leaves (no finite-dimensional
    representations), is inherited by matrix amplifications and algebraic
    limits through their corners, propagates through a tensor product from
    either factor, and holds for any stabilization.
    """
    if isinstance(expr, (UHF, JiangSu, KirchbergSimple, Compacts)):
        return True
    if isinstance(expr, Stabilize):
        return True
    if isinstance(expr, (MatAmp, MatInf)):
        return kills_findim_targets(expr.inner)
    if isinstance(expr, Tensor):
        return any(map(kills_findim_targets, expr.items))
    if isinstance(expr, DirectSum):
        return all(map(kills_findim_targets, expr.items))
    return False


def kills_compact_targets(expr: AlgebraExpr) -> bool:
    """True when every order zero map into blockwise-compact targets is
    zero: the unit of any corner would land on a finite-rank projection and
    force a finite-dimensional representation.

    The compacts themselves map into such targets (witness the identity),
    so they do not qualify; the simple unital infinite-dimensional leaves
    do.
    """
    if isinstance(expr, (UHF, JiangSu, KirchbergSimple)):
        return True
    if isinstance(expr, (MatAmp, Stabilize, MatInf)):
        return kills_compact_targets(expr.inner)
    if isinstance(expr, Tensor):
        return any(map(kills_compact_targets, expr.items)) and is_unital(expr)
    if isinstance(expr, DirectSum):
        return all(map(kills_compact_targets, expr.items))
    return False


def is_strongly_self_absorbing(expr: AlgebraExpr) -> bool:
    """Catalog membership: the Jiang-Su algebra, O2 and Oinf, and UHF
    algebras of infinite type (the universal UHF algebra among them)."""
    if isinstance(expr, JiangSu):
        return True
    if isinstance(expr, KirchbergSimple):
        return expr.name in ("O2", "Oinf")
    if isinstance(expr, UHF):
        return sn_is_infinite_type(expr.number)
    return False


def absorbs(target: AlgebraExpr, d: AlgebraExpr) -> bool:
    """Certify syntactically that the target is D-stable for a strongly
    self-absorbing catalog algebra D: D appears as a tensor factor, up to
    matrix amplification, limits and stabilization, or a UHF factor already
    dominates D's supernatural number."""
    if isinstance(target, (Stabilize, MatInf, MatAmp)):
        return absorbs(target.inner, d)
    if isinstance(target, Tensor):
        return any(absorbs(item, d) for item in target.items)
    if isinstance(d, UHF) and isinstance(target, UHF):
        return sn_mul(target.number, d.number) == target.number
    return target == d
