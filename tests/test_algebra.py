import pytest
from hypothesis import given, settings, strategies as st

from cuntz.algebra import (
    COMPLEX,
    CX,
    Compacts,
    Complex,
    DirectSum,
    ExprSyntaxError,
    FinDim,
    JiangSu,
    KirchbergSimple,
    Mat,
    MatAmp,
    MatInf,
    Stabilize,
    Tensor,
    UHF,
    absorbs,
    is_strongly_self_absorbing,
    is_unital,
    kills_compact_targets,
    kills_findim_targets,
    normalize,
    parse_algebra,
    simple_summand_count,
    to_text,
)
from cuntz.catalog import IdealLatticeSG, Query, TwoPointSG, _r_kirchberg
from cuntz.supernatural import sn_parse


def roundtrip(text):
    return to_text(parse_algebra(text))


# ---------------------------------------------------------------------------
# Parsing and printing.

def test_leaf_syntax():
    assert parse_algebra("C") == COMPLEX
    assert parse_algebra("M(3)") == Mat(3)
    assert parse_algebra("M(٣)") == Mat(3)  # a decimal digit of any script
    assert parse_algebra("F(2,3,5)") == FinDim((2, 3, 5))
    assert parse_algebra("CX(p,q,r)") == CX(("p", "q", "r"))
    assert parse_algebra("CX(1,2)") == CX(("1", "2"))
    assert parse_algebra("UHF(2:inf,3:2)") == UHF(sn_parse("2:inf,3:2"))
    assert parse_algebra("CAR") == UHF(sn_parse("2:inf"))
    assert parse_algebra("Q") == UHF(sn_parse("Q"))
    assert parse_algebra("Z") == JiangSu()
    assert parse_algebra("O2") == KirchbergSimple("O2")
    assert parse_algebra("Oinf") == KirchbergSimple("Oinf")
    assert parse_algebra("Kirchberg(other)") == KirchbergSimple("other")
    assert parse_algebra("K") == Compacts()
    assert parse_algebra("stab(C)") == Stabilize(COMPLEX)
    assert parse_algebra("Minf(M(2))") == MatInf(Mat(2))


def test_operator_precedence_and_associativity():
    e = parse_algebra("C (+) M(2) (x) M(3)")
    assert e == DirectSum(COMPLEX, Tensor(Mat(2), Mat(3)))
    e = parse_algebra("C (+) M(2) (+) M(3)")
    assert e == DirectSum(DirectSum(COMPLEX, Mat(2)), Mat(3))
    e = parse_algebra("(C (+) M(2)) (x) M(3)")
    assert e == Tensor(DirectSum(COMPLEX, Mat(2)), Mat(3))


def test_syntax_errors_carry_positions():
    for text, pos in [
        ("nonsense", 0),
        ("M(0)", 2),
        ("M(2", 3),
        ("CX(p,p)", 0),
        ("C (+)", 5),
        ("M(2) M(3)", 5),
        ("UHF(4:1)", 0),
        ("", 0),
        ("M(²)", 2),
    ]:
        with pytest.raises(ExprSyntaxError) as err:
            parse_algebra(text)
        assert err.value.pos == pos
        assert f"position {pos}" in str(err.value)


@st.composite
def exprs(draw, depth=3, matamp=True):
    if depth == 0:
        return draw(
            st.sampled_from(
                [
                    COMPLEX,
                    Mat(2),
                    Mat(5),
                    FinDim((2, 3)),
                    CX(("p", "q")),
                    UHF(sn_parse("2:inf")),
                    UHF(sn_parse("Q")),
                    JiangSu(),
                    KirchbergSimple("O2"),
                    KirchbergSimple("Oinf"),
                    KirchbergSimple("other"),
                    Compacts(),
                ]
            )
        )
    kind = draw(st.integers(0, 5 if matamp else 4))
    sub = exprs(depth=depth - 1, matamp=matamp)
    if kind == 0:
        return draw(exprs(depth=0))
    if kind == 1:
        return Tensor(draw(sub), draw(sub))
    if kind == 2:
        return DirectSum(draw(sub), draw(sub))
    if kind == 3:
        return Stabilize(draw(sub))
    if kind == 4:
        return MatInf(draw(sub))
    return MatAmp(draw(st.integers(1, 4)), draw(sub))


@given(exprs(matamp=False))
def test_text_round_trips_exactly(e):
    # amplifications print as tensors, so keep them out of the exact check
    assert parse_algebra(to_text(e)) == e


@given(exprs())
def test_normalize_is_idempotent_and_round_trips(e):
    n = normalize(e)
    assert normalize(n) == n
    assert normalize(parse_algebra(to_text(n))) == n


# ---------------------------------------------------------------------------
# Normalization rules.

@pytest.mark.parametrize(
    "before,after",
    [
        ("K", "stab(C)"),
        ("F(4)", "M(4)"),
        ("M(1)", "C"),
        ("M(2) (x) M(3)", "M(6)"),
        ("C (x) Z", "Z"),
        ("Z (x) C", "Z"),
        ("M(2) (x) Z", "M(2) (x) Z"),
        ("M(2) (x) M(3) (x) Z", "M(6) (x) Z"),
        ("stab(M(7))", "stab(C)"),
        ("stab(stab(Z))", "stab(Z)"),
        ("stab(Minf(Z))", "stab(Z)"),
        ("Minf(stab(Z))", "stab(Z)"),
        ("Minf(M(3))", "Minf(C)"),
        ("Minf(Minf(Z))", "Minf(Z)"),
        ("M(2) (x) K", "stab(C)"),
        ("M(2) (x) stab(Z)", "stab(Z)"),
        ("M(2) (x) Minf(Z)", "Minf(Z)"),
        ("C (x) K", "stab(C)"),
        ("Z (x) K", "stab(Z)"),
        ("(M(2) (x) Z) (x) M(2)", "M(4) (x) Z"),
        ("CX(p)", "CX(p)"),
        ("CX(p,q) (+) C", "CX(p,q) (+) C"),
    ],
)
def test_normal_forms(before, after):
    assert to_text(normalize(parse_algebra(before))) == after


def test_normalize_keeps_cx_labels():
    e = normalize(parse_algebra("CX(a,b,c)"))
    assert e == CX(("a", "b", "c"))


# ---------------------------------------------------------------------------
# normalize against the fixpoint of single rewrite steps it replaced.

def reference_normalize(expr):
    """Apply one bottom-up round of rewrite steps until nothing changes,
    reading every chain as its binary split."""
    for _ in range(200):
        new = _reference_step(expr)
        if new == expr:
            return expr
        expr = new
    raise AssertionError("reference normalization did not stabilize")


def _binary(chain):
    """The chain of all but the last operand, and the last operand."""
    *head, last = chain.items
    return (head[0] if len(head) == 1 else type(chain)(*head)), last


def _reference_step(expr):
    if isinstance(expr, (Tensor, DirectSum)):
        left, right = _binary(expr)
        expr = type(expr)(_reference_step(left), _reference_step(right))
    elif isinstance(expr, (Stabilize, MatInf)):
        expr = type(expr)(_reference_step(expr.inner))
    elif isinstance(expr, MatAmp):
        expr = MatAmp(expr.n, _reference_step(expr.inner))

    if isinstance(expr, Compacts):
        return Stabilize(COMPLEX)
    if isinstance(expr, FinDim) and len(expr.sizes) == 1:
        return Mat(expr.sizes[0])
    if isinstance(expr, Mat) and expr.n == 1:
        return COMPLEX
    if isinstance(expr, MatAmp):
        n, inner = expr.n, expr.inner
        if n == 1:
            return inner
        if isinstance(inner, Complex):
            return Mat(n)
        if isinstance(inner, Mat):
            return Mat(n * inner.n)
        if isinstance(inner, MatAmp):
            return MatAmp(n * inner.n, inner.inner)
        if isinstance(inner, (Stabilize, MatInf)):
            return inner
    if isinstance(expr, Tensor):
        left, right = _binary(expr)
        if isinstance(left, Complex):
            return right
        if isinstance(right, Complex):
            return left
        if isinstance(left, Mat):
            return MatAmp(left.n, right)
        if isinstance(right, Mat):
            return MatAmp(right.n, left)
        if isinstance(left, MatAmp):
            return MatAmp(left.n, Tensor(left.inner, right))
        if isinstance(right, MatAmp):
            return MatAmp(right.n, Tensor(left, right.inner))
        for wrap in (Stabilize, MatInf):
            if isinstance(left, wrap):
                return wrap(Tensor(left.inner, right))
            if isinstance(right, wrap):
                return wrap(Tensor(left, right.inner))
    if isinstance(expr, Stabilize):
        inner = expr.inner
        if isinstance(inner, Mat):
            return Stabilize(COMPLEX)
        if isinstance(inner, (Stabilize, MatInf)):
            while isinstance(inner, (Stabilize, MatInf)):
                inner = inner.inner
            return Stabilize(inner)
        if isinstance(inner, MatAmp):
            return Stabilize(inner.inner)
    if isinstance(expr, MatInf):
        inner = expr.inner
        if isinstance(inner, Mat):
            return MatInf(COMPLEX)
        if isinstance(inner, (MatInf, Stabilize)):
            return inner
        if isinstance(inner, MatAmp):
            return MatInf(inner.inner)
    return expr


@st.composite
def chains(draw, depth=4):
    """Expressions whose tensor products and direct sums have 2-4 operands."""
    kind = draw(st.integers(0, 5)) if depth else 0
    sub = chains(depth=depth - 1)
    if kind == 0:
        return draw(exprs(depth=0))
    if kind < 3:
        return (Tensor, DirectSum)[kind - 1](*draw(st.lists(sub, min_size=2, max_size=4)))
    if kind == 5:
        return MatAmp(draw(st.integers(1, 4)), draw(sub))
    return (Stabilize, MatInf)[kind - 3](draw(sub))


@settings(max_examples=300, deadline=None)
@given(chains())
def test_normalize_matches_the_rewrite_fixpoint(e):
    assert normalize(e) == reference_normalize(e)


def test_a_chain_splices_only_a_leading_chain_of_its_own_operator():
    z, c = JiangSu(), COMPLEX
    assert Tensor(Tensor(z, c), z) == Tensor(z, c, z)
    assert Tensor(Tensor(z, c), z).items == (z, c, z)
    assert Tensor(z, Tensor(c, z)).items == (z, Tensor(c, z))
    assert Tensor(DirectSum(z, c), z).items == (DirectSum(z, c), z)
    with pytest.raises(ValueError):
        Tensor(z)


# ---------------------------------------------------------------------------
# Predicates.

def test_leaves_and_summands():
    e = parse_algebra("F(2,3) (+) CX(p,q,r) (x) M(2)")
    assert simple_summand_count(e) == 2 + 3


def test_unital():
    assert is_unital(parse_algebra("M(3) (x) Z"))
    assert not is_unital(parse_algebra("K"))
    assert not is_unital(parse_algebra("stab(Z)"))
    assert not is_unital(parse_algebra("Minf(C)"))
    assert not is_unital(parse_algebra("M(2) (x) stab(Z)"))
    assert is_unital(parse_algebra("F(2,3) (+) CX(p)"))


@given(exprs())
def test_the_kirchberg_rule_fires_on_every_catalog_expression(e):
    # R6-Kirchberg asks A to be exact, which every catalog expression is:
    # WW(A, B) for a Kirchberg B is read off A's simple summands alone.
    k = simple_summand_count(e)
    for name in ("O2", "Oinf", "other"):
        value = _r_kirchberg(Query("WW", e, KirchbergSimple(name)))
        assert value == (TwoPointSG() if k == 1 else IdealLatticeSG(k))


def test_kills_findim_targets():
    assert kills_findim_targets(parse_algebra("CAR"))
    assert kills_findim_targets(parse_algebra("Z"))
    assert kills_findim_targets(parse_algebra("O2"))
    assert kills_findim_targets(parse_algebra("K"))
    assert kills_findim_targets(parse_algebra("stab(M(2))"))
    assert kills_findim_targets(parse_algebra("M(2) (x) CAR"))
    assert kills_findim_targets(parse_algebra("CAR (+) Z"))
    assert not kills_findim_targets(parse_algebra("M(2)"))
    assert not kills_findim_targets(parse_algebra("Minf(C)"))
    assert not kills_findim_targets(parse_algebra("CAR (+) M(2)"))
    assert not kills_findim_targets(parse_algebra("CX(p,q)"))


def test_kills_compact_targets():
    assert kills_compact_targets(parse_algebra("CAR"))
    assert kills_compact_targets(parse_algebra("Z (x) M(2)"))
    assert kills_compact_targets(parse_algebra("Minf(O2)"))
    assert not kills_compact_targets(parse_algebra("K"))
    assert not kills_compact_targets(parse_algebra("stab(C)"))
    # a stabilized factor breaks the unital tensor argument
    assert not kills_compact_targets(parse_algebra("Z (x) stab(C)"))
    assert kills_compact_targets(parse_algebra("stab(Z (x) M(2))"))


def test_strongly_self_absorbing_membership():
    assert is_strongly_self_absorbing(parse_algebra("Z"))
    assert is_strongly_self_absorbing(parse_algebra("O2"))
    assert is_strongly_self_absorbing(parse_algebra("Oinf"))
    assert is_strongly_self_absorbing(parse_algebra("CAR"))
    assert is_strongly_self_absorbing(parse_algebra("Q"))
    assert not is_strongly_self_absorbing(parse_algebra("UHF(2:3)"))
    assert not is_strongly_self_absorbing(parse_algebra("M(2)"))
    assert not is_strongly_self_absorbing(parse_algebra("Kirchberg(other)"))


def test_absorption_certificates():
    d = parse_algebra("CAR")
    assert absorbs(parse_algebra("M(3) (x) CAR"), d)
    assert absorbs(parse_algebra("stab(CAR)"), d)
    assert absorbs(parse_algebra("CAR"), d)
    assert absorbs(parse_algebra("Q"), d)  # 2:inf divides into Q idempotently
    assert absorbs(parse_algebra("UHF(2:inf,3:inf)"), d)
    assert not absorbs(parse_algebra("UHF(3:inf)"), d)
    assert not absorbs(parse_algebra("M(2)"), d)
    z = parse_algebra("Z")
    assert absorbs(parse_algebra("Z (x) M(5)"), z)
    assert not absorbs(parse_algebra("CAR"), z)
