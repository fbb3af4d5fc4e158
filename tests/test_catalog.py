import random
from itertools import product

import pytest

from cuntz import catalog
from cuntz.algebra import COMPLEX, MAX_NESTING, Mat, Tensor, parse_algebra, to_text
from cuntz.catalog import (
    CarSG,
    CuOfSG,
    DirectSumSG,
    ExtNatSG,
    IdealLatticeSG,
    MfSG,
    MfiSG,
    NatSG,
    NotDecidable,
    Query,
    TwoPointSG,
    UnknownSG,
    WOfSG,
    ZeroSG,
    classify,
    compose_product,
    direct_sum_value,
    eval_W,
    eval_WW,
    has_unknown,
    query_text,
    scale_membership_note,
    value_text,
    value_to_json,
)
from cuntz.cli import main
from cuntz.extnat import ExtNat, INF
from cuntz.multiplicity import Space, SpaceMismatch, mf, mf_recover_space, opaque_fragment


def W(a, b):
    return eval_W(parse_algebra(a), parse_algebra(b))


def WW(a, b):
    return eval_WW(parse_algebra(a), parse_algebra(b))


def anchors(trace):
    return [step.anchor for step in trace]


def rules(trace):
    return [step.rule for step in trace]


# ---------------------------------------------------------------------------
# The regression table.

def test_w_of_scalars_is_nat():
    value, trace = W("C", "C")
    assert value == NatSG()
    assert value_text(value) == "ℕ₀"
    assert "recovery of the Cuntz semigroup from the bivariant theory" in anchors(trace)
    assert "base Cuntz semigroup values" in anchors(trace)


def test_w_scalar_into_stabilization_is_extnat():
    value, trace = W("C", "C (x) K")
    assert value == ExtNatSG()
    assert "stability isomorphism" in anchors(trace)


def test_ww_matrix_pair_is_extnat():
    value, trace = WW("M(2)", "M(3)")
    assert value == ExtNatSG()
    assert rules(trace)[0] == "R3-bridge"


def test_ww_into_kirchberg_counts_ideals():
    value, trace = WW("M(2)", "O2")
    assert value == TwoPointSG()
    assert "bivariant ideal lattice theorem for Kirchberg algebras" in anchors(trace)
    value, _ = WW("Z", "O2")
    assert value == TwoPointSG()
    value, _ = WW("F(2,3,5)", "O2")
    assert value == IdealLatticeSG(3)
    value, _ = WW("CX(p,q)", "Oinf")
    assert value == IdealLatticeSG(2)


def test_car_self_pairing():
    value, trace = W("CAR", "CAR")
    assert value == CarSG()
    assert anchors(trace) == ["CAR algebra self-pairing"]
    assert value_text(value) == "ℕ₀[1/2]⊔(0,∞)"


@pytest.mark.parametrize("d", ["CAR", "Z", "Q"])
def test_absorption_identity(d):
    lhs, _ = W(f"M(2) (x) {d}", f"M(3) (x) {d}")
    rhs, _ = W("M(2)", f"M(3) (x) {d}")
    assert lhs == rhs
    assert not has_unknown(lhs)


SSA_CANONICAL = {
    "Z": "Z", "CAR": "UHF(2:inf)", "Q": "UHF(Q)", "O2": "O2", "Oinf": "Oinf",
    "UHF(3:inf)": "UHF(3:inf)",
}


@pytest.mark.parametrize("n", [70, 80])
@pytest.mark.parametrize("d", sorted(SSA_CANONICAL))
def test_long_absorbed_chains_evaluate(d, n):
    # D^n is D: one R5 step absorbs every factor, so the trace stays as short
    # as for a single factor.
    chain = " (x) ".join([d] * n)
    self_pairing = CarSG() if d == "CAR" else WOfSG(parse_algebra(SSA_CANONICAL[d]))
    for target, expected in [
        (d, self_pairing),
        (f"M(2) (x) {d}", self_pairing),
        (f"stab({d})", CuOfSG(parse_algebra(SSA_CANONICAL[d]))),
    ]:
        value, trace = W(chain, target)
        assert value == expected
        assert rules(trace).count("R5") == 1
        assert len(trace) <= 4


LINEAR_TRACE_FACTORS = ["Z", "CAR", "Q", "UHF(3:inf)", "O2"]


def _eval_text(a, b, capsys):
    """The query text, the value text, the trace lines and their rule names
    as `cuntz eval` prints them."""
    assert main(["eval", a, b]) == 0
    first, *lines = capsys.readouterr().out.splitlines()
    query, value = first.split(" = ", 1)
    return query, value, lines, [line.split(" [", 1)[0].strip() for line in lines]


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("d", LINEAR_TRACE_FACTORS)
def test_one_additivity_step_names_every_summand(d, n, capsys):
    # n summands, each a chain of 32 factors D, against D: one R4 step lists
    # every part once, and one R5 step per part absorbs its whole chain.
    chain = " (x) ".join([SSA_CANONICAL[d]] * 32)
    query, value, lines, steps = _eval_text(" (+) ".join([chain] * n), d, capsys)
    assert value == value_text(direct_sum_value([W(chain, d)[0]] * n))
    assert steps[0] == "R4" and steps.count("R4") == 1
    part = f"W({chain}, {SSA_CANONICAL[d]})"
    assert lines[0].split(" => ", 1)[1].split(" (+) ") == [part] * n
    assert steps.count("R5") == n
    assert len("\n".join(lines)) <= 4 * len(query)


@pytest.mark.parametrize("n", [50, 1000])
def test_one_absorption_step_strips_every_factor(n, capsys):
    # a chain cycling through five strongly self-absorbing factors, against a
    # target that absorbs each of them
    chain = " (x) ".join(LINEAR_TRACE_FACTORS[i % 5] for i in range(n))
    query, value, lines, steps = _eval_text(chain, "Q (x) Z (x) O2", capsys)
    assert value == "W(UHF(Q) (x) Z (x) O2)"
    assert steps == ["R5", "R1"]
    assert lines[0].endswith(" => W(C, UHF(Q) (x) Z (x) O2)")
    assert len("\n".join(lines)) <= 4 * len(query)


def _looping_on_z(monkeypatch):
    """Patch the matcher so that W(Z, Z) rewrites to itself, forever; other
    queries match as before."""
    real = catalog._first_match
    loop = catalog._Rule("loop", "rewrites a query to itself", 1, lambda q: q)
    z = parse_algebra("Z")
    monkeypatch.setattr(
        catalog, "_first_match", lambda q: (loop, q) if q == Query("W", z, z) else real(q)
    )


def test_an_exhausted_step_budget_is_unknown(monkeypatch):
    _looping_on_z(monkeypatch)
    value, trace = W("Z", "Z")
    assert value == UnknownSG("W(Z, Z)")
    # 64 steps plus one per character of the query text
    assert len(trace) == 64 + len("W(Z, Z)")
    assert {(s.rule, s.before, s.after) for s in trace} == {("loop", "W(Z, Z)", "W(Z, Z)")}


def test_an_exhausted_part_of_a_sum_is_unknown_alone(monkeypatch):
    _looping_on_z(monkeypatch)
    value, _ = W("Z (+) C", "Z")
    assert value == direct_sum_value([UnknownSG("W(Z, Z)"), WOfSG(parse_algebra("Z"))])
    assert has_unknown(value)


def test_an_exhausted_step_budget_exits_2_from_the_cli(monkeypatch, capsys):
    _looping_on_z(monkeypatch)
    assert main(["eval", "Z", "Z"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "W(Z, Z) = Unknown[W(Z, Z)]"
    assert err == ""


# ---------------------------------------------------------------------------
# Each distinct part of a split is derived once per query.

def reference_evaluate(q, splits=None):
    """The engine without shared parts: the parts of a split wait on a
    stack, and each is rewritten afresh, depth first, with its own step
    budget.  ``splits``, if given, collects each (query, parts) split."""
    trace = []
    nq = catalog._normalize_query(q)
    text = query_text(nq)
    if text != query_text(q):
        trace.append(catalog.TraceStep("N", "canonical presentation", query_text(q), text))
    stack = [(nq, text)]
    values = []
    while stack:
        q, before = stack.pop()
        for _ in range(64 + len(before)):
            matched = catalog._first_match(q)
            if matched is None:
                values.append(catalog._terminal_value(q))
                break
            rule, outcome = matched
            if isinstance(outcome, catalog.SemigroupValue):
                trace.append(catalog.TraceStep(rule.name, rule.anchor, before, value_text(outcome)))
                values.append(outcome)
                break
            if isinstance(outcome, Query):
                q = catalog._normalize_query(outcome)
                after = query_text(q)
                trace.append(catalog.TraceStep(rule.name, rule.anchor, before, after))
                before = after
                continue
            if splits is not None:
                splits.append((q, outcome))
            parts = [(p, query_text(p)) for p in map(catalog._normalize_query, outcome)]
            after = " (+) ".join(t for _, t in parts)
            trace.append(catalog.TraceStep(rule.name, rule.anchor, before, after))
            stack.extend(reversed(parts))
            break
        else:
            values.append(UnknownSG(before))
    return (values[0] if len(values) == 1 else direct_sum_value(values)), trace


def _assert_same_evaluation(q, splits=None):
    got_value, got_trace = catalog._evaluate(q)
    value, trace = reference_evaluate(q, splits)
    assert value_text(got_value) == value_text(value)
    assert value_to_json(got_value) == value_to_json(value)
    assert [s.to_json() for s in got_trace] == [s.to_json() for s in trace]


# Few leaves, so that the summands of a sum repeat: finite-dimensional
# algebras and CX(...) split into parts themselves.
SHARED_LEAVES = ["C", "M(2)", "M(3)", "F(2,2,3)", "F(2,3)", "CX(p,q)", "CX(p,q,r)", "Z",
                 "O2", "CAR", "K", "Oinf", "UHF(3:inf)", "UHF(2:1,3:1)"]


def shared_expr(rng, depth):
    """An expression text: a leaf, a sum whose summands are drawn from two or
    three subexpressions, a stabilized such sum, a tensor product, or an
    amplification."""
    shape = rng.randrange(6) if depth else 0
    if shape <= 1:
        return rng.choice(SHARED_LEAVES)
    inner = lambda: f"({shared_expr(rng, depth - 1)})"
    if shape in (2, 3):
        pool = [inner() for _ in range(rng.randint(2, 3))]
        text = " (+) ".join(rng.choice(pool) for _ in range(rng.randint(2, 6)))
        return text if shape == 2 else f"stab({text})"
    if shape == 4:
        return " (x) ".join(inner() for _ in range(rng.randint(2, 3)))
    return rng.choice(["Minf({})", "M(2) (x) {}", "stab({})"]).format(inner())


def test_shared_parts_evaluate_as_the_reference():
    rng = random.Random(29)
    seen = dict.fromkeys(["WW", "repeated", "nested", "repeated nested stab", "tensor",
                          "DirectSum", "FinDim", "CX", "target"], 0)
    for _ in range(3000):
        variant = "WW" if rng.random() < 0.3 else "W"
        a, b = shared_expr(rng, 2), shared_expr(rng, 1)
        splits = []
        _assert_same_evaluation(Query(variant, parse_algebra(a), parse_algebra(b)), splits)
        seen["WW"] += variant == "WW"
        seen["tensor"] += "(x)" in a + b
        seen["nested"] += len(splits) >= 2
        for q, parts in splits:
            split = catalog._summand_exprs(q.a)
            seen[type(q.a).__name__ if split is not None else "target"] += 1
            repeated = [p for p in set(parts) if parts.count(p) > 1]
            seen["repeated"] += bool(repeated)
            seen["repeated nested stab"] += any(
                "stab(" in to_text(p.a) and "(+)" in to_text(p.a) for p in repeated
            )
    assert min(seen.values()) >= 100, seen


def test_a_repeated_part_that_exhausts_its_budget_is_unknown_each_time(monkeypatch):
    _looping_on_z(monkeypatch)
    q = Query("W", parse_algebra("Z (+) C (+) Z (+) Z"), parse_algebra("Z"))
    _assert_same_evaluation(q)
    value, trace = catalog._evaluate(q)
    assert value_text(value).count("Unknown[W(Z, Z)]") == 3
    assert sum(s.rule == "loop" for s in trace) == 3 * (64 + len("W(Z, Z)"))


def test_each_distinct_part_is_derived_once(monkeypatch):
    # A sum of 5, 40 or 1,000 summands drawn from the same five leaves asks
    # the rules the same number of times: once per step of each distinct
    # part, whatever the summand count.
    real, calls = catalog._first_match, []
    monkeypatch.setattr(catalog, "_first_match", lambda q: calls.append(q) or real(q))
    leaves = ["C", "M(2)", "Z", "CX(p,q)", "stab(C (+) M(2))"]
    counts = []
    for n in (5, 40, 1000):
        calls.clear()
        value, trace = W(" (+) ".join((leaves * n)[:n]), "O2")
        counts.append(len(calls))
        assert len(trace) > n
    assert counts[0] == counts[1] == counts[2] <= 20
    # A part that occurs again adds the same steps, not copies of them.
    _, trace = W("Z (+) C (+) Z", "O2 (+) C")
    first, second = [i for i, s in enumerate(trace) if s.before == "W(Z, O2 (+) C)"]
    steps = len(trace) - second  # the second Z is the last part
    assert steps > 1
    assert all(x is y for x, y in zip(trace[first:first + steps], trace[second:]))


def _nested_splits(levels):
    text = "C"
    for _ in range(levels):
        text = f"stab(M(2) (+) {text})"
    return text


@pytest.mark.parametrize("target", ["C", "O2", "C (+) Z", "stab(C)"])
@pytest.mark.parametrize("flag", ["--w", "--ww"])
def test_splits_nested_as_deep_as_the_parser_allows_evaluate(flag, target, capsys):
    # a split at each of MAX_NESTING - 1 levels; one more level does not parse
    levels = MAX_NESTING - 1
    code = main(["eval", flag, _nested_splits(levels), target])
    out, err = capsys.readouterr()
    assert code in (0, 2) and err == ""
    if target == "stab(C)":
        assert out.count("R4 [") >= levels
    assert main(["eval", flag, _nested_splits(levels + 1), target]) == 1


def test_homology_values():
    value, trace = WW("CX(p,q,r)", "C")
    assert value == MfSG(("p", "q", "r"))
    assert anchors(trace) == ["multiplicity function description of Cuntz homology"]
    value, _ = W("CX(p,q,r)", "C")
    assert value == MfiSG(("p", "q", "r"))


def test_zero_rule():
    value, trace = W("O2", "F(2,3)")
    assert value == ZeroSG()
    assert anchors(trace) == ["finite-dimensional representation obstruction"]
    value, _ = W("CAR", "K")
    assert value == ZeroSG()
    value, _ = WW("Z", "M(4)")
    assert value == ZeroSG()


def test_tensor_factor_absorption_path():
    value, trace = W("CAR (x) Q", "Q")
    assert value == WOfSG(parse_algebra("Q"))
    assert "strongly self-absorbing absorption theorem" in anchors(trace)
    # a bare strongly self-absorbing first argument is absorbed by R7
    value, trace = W("Q", "Q")
    assert value == WOfSG(parse_algebra("Q"))
    assert "absorption of a strongly self-absorbing factor" in anchors(trace)


# ---------------------------------------------------------------------------
# Terminal values and unknowns.

def test_terminal_wof_value():
    value, trace = W("C", "Z")
    assert value == WOfSG(parse_algebra("Z"))
    assert value_text(value) == "W(Z)"
    assert not has_unknown(value)


def test_direct_sum_of_terminals():
    value, _ = W("C", "Z (+) Z")
    assert value == DirectSumSG((WOfSG(parse_algebra("Z")), WOfSG(parse_algebra("Z"))))
    assert value_text(value) == "⊕[W(Z), W(Z)]"


@pytest.mark.parametrize(
    "a,b,parts,value",
    [
        ("Z (+) O2 (+) C (+) Z", "C", "W(Z, C) (+) W(O2, C) (+) W(C, C) (+) W(Z, C)",
         "⊕[ℕ₀, {0}, {0}, {0}]"),
        ("C (+) Z (+) O2", "C", "W(C, C) (+) W(Z, C) (+) W(O2, C)", "⊕[ℕ₀, {0}, {0}]"),
        ("Z", "M(2) (+) M(3) (+) stab(Z)", "W(Z, M(2)) (+) W(Z, M(3)) (+) W(Z, stab(Z))",
         "⊕[Cu(Z), {0}, {0}]"),
    ],
    ids=["zero-first", "zero-last", "target"],
)
def test_every_summand_is_its_own_part(a, b, parts, value):
    # summands that admit only zero maps are parts like any other, so each
    # adds its own {0} wherever it stands in the sum
    got, trace = W(a, b)
    assert value_text(got) == value
    assert (trace[0].rule, trace[0].after) == ("R4", parts)


def test_unknown_query_is_reported():
    value, trace = W("UHF(2:inf)", "UHF(3:inf)")
    assert value == UnknownSG("W(UHF(2:inf), UHF(3:inf))")
    assert has_unknown(value)
    assert trace == []


def test_direct_sum_flattens_and_sorts():
    v = direct_sum_value([DirectSumSG((ExtNatSG(), NatSG())), ZeroSG()])
    assert v == DirectSumSG((ExtNatSG(), NatSG(), ZeroSG()))
    assert has_unknown(direct_sum_value([NatSG(), UnknownSG("x")]))


def test_mixed_direct_sum_evaluation():
    value, _ = W("C", "C (+) M(2) (x) K")
    # ℕ₀ from the scalar summand, ℕ₀ ∪ {∞} from the stabilized one
    assert value == DirectSumSG((ExtNatSG(), NatSG()))


def test_normalization_recorded_in_trace():
    value, trace = W("M(3) (x) M(2)", "C")
    assert value == NatSG()
    assert trace[0].rule == "N"
    assert trace[0].anchor == "canonical presentation"
    assert trace[0].before == "W(M(3) (x) M(2), C)"
    assert trace[0].after == "W(M(6), C)"


def test_trace_steps_chain():
    _, trace = W("C", "C (x) K")
    for step in trace:
        assert step.before.startswith(("W(", "Cu(", "WW("))
        assert isinstance(step.to_json()["after"], str)
    # each step rewrites the previous result
    for first, second in zip(trace, trace[1:]):
        assert first.after == second.before


# ---------------------------------------------------------------------------
# Confluence of admissible rule orders.

def explore_values(q, depth=8):
    """All values reachable by class-respecting rule orders.

    The evaluator picks the highest-priority rule among those of the lowest
    matching class; here every rule of that class is tried.  A singleton
    result certifies confluence for the query.
    """
    q = catalog._normalize_query(q)
    if depth < 0:
        return {UnknownSG("depth limit exceeded")}
    matched = catalog._matches(q)
    if not matched:
        return {catalog._terminal_value(q)}
    out = set()
    for rule, outcome in matched:
        if isinstance(outcome, catalog.SemigroupValue):
            out.add(outcome)
        elif isinstance(outcome, Query):
            out |= explore_values(outcome, depth - 1)
        else:
            part_sets = [explore_values(p, depth - 1) for p in outcome]
            for combo in product(*part_sets):
                out.add(direct_sum_value(list(combo)))
    return out


CONFLUENT_QUERIES = [
    ("W", "C", "C"),
    ("W", "C", "M(5)"),
    ("W", "C", "C (x) K"),
    ("WW", "M(2)", "M(3)"),
    ("WW", "F(2,3,5)", "O2"),
    ("W", "CAR", "CAR"),
    ("WW", "CX(p,q,r)", "C"),
    ("W", "F(2,3)", "M(2)"),
    ("W", "M(2) (x) CAR", "M(3) (x) CAR"),
    ("W", "CAR (x) Q", "Q"),
    ("W", "C", "Z (+) Z"),
    ("W", "O2", "F(2,3)"),
    ("WW", "Z", "O2"),
]


@pytest.mark.parametrize("variant,a,b", CONFLUENT_QUERIES)
def test_rule_order_confluence(variant, a, b):
    q = Query(variant, parse_algebra(a), parse_algebra(b))
    values = explore_values(q)
    assert len(values) == 1
    evaluated, _ = (eval_W if variant == "W" else eval_WW)(
        parse_algebra(a), parse_algebra(b)
    )
    assert values == {evaluated}


def test_rules_are_sorted_by_class():
    # The engine applies the first rule that matches.  That is the first
    # rule of the lowest matching class only while RULES is sorted by class.
    klasses = [rule.klass for rule in catalog.RULES]
    assert klasses == sorted(klasses)


@pytest.mark.parametrize("variant,a,b", CONFLUENT_QUERIES)
def test_the_first_match_heads_the_matches(variant, a, b):
    q = catalog._normalize_query(Query(variant, parse_algebra(a), parse_algebra(b)))
    matched = catalog._matches(q)
    assert catalog._first_match(q) == (matched[0] if matched else None)


def test_presentation_split_on_function_domain_with_matrix_target():
    # stripping the target gives Mf_i({p,q}); splitting the domain gives
    # ℕ₀ ⊕ ℕ₀.  The monoids agree, the presentations do not, and the
    # evaluator deterministically picks the multiplicity one.
    q = Query("W", parse_algebra("CX(p,q)"), parse_algebra("M(3)"))
    values = explore_values(q)
    assert values == {
        MfiSG(("p", "q")),
        DirectSumSG((NatSG(), NatSG())),
    }
    evaluated, _ = W("CX(p,q)", "M(3)")
    assert evaluated == MfiSG(("p", "q"))


# ---------------------------------------------------------------------------
# The ideal lattice monoid.

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ideal_lattice_monoid_laws(k):
    lat = IdealLatticeSG(k)
    elems = lat.elements()
    assert len(elems) == 2 ** k
    assert len(set(elems)) == len(elems)
    assert lat.identity == frozenset(range(1, k + 1))
    for x in elems:
        assert lat.add(x, lat.identity) == x
        assert lat.add(x, x) == x
        for y in elems:
            assert lat.add(x, y) == lat.add(y, x)
            for z in elems:
                assert lat.add(lat.add(x, y), z) == lat.add(x, lat.add(y, z))


def test_ideal_lattice_ordering_of_elements():
    elems = IdealLatticeSG(2).elements()
    assert elems == (
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    )


# ---------------------------------------------------------------------------
# Cuntz homology and the composition product.

def test_homology_variants():
    # WW(C(X), C) is every multiplicity function, W(C(X), C) the finitely
    # supported ones; both in one R6-homology step
    x = ("p", "q")
    for evaluate, expected in [(WW, MfSG(x)), (W, MfiSG(x))]:
        value, trace = evaluate("CX(p,q)", "C")
        assert value == expected
        assert [step.rule for step in trace] == ["R6-homology"]


def test_compose_product_values():
    x = Space.discrete(("p", "q", "r"))
    nu = mf(x, atoms={"p": 2, "q": INF})
    assert compose_product({"p": 3}, nu) == ExtNat(6)
    assert compose_product({"p": 1, "q": 0, "r": 5}, nu) == ExtNat(2)
    assert compose_product({"q": 1}, nu) == INF
    assert compose_product({}, nu) == ExtNat(0)


def test_compose_product_rejects_bad_input():
    x = Space.discrete(("p",))
    nu = mf(x, atoms={"p": 1})
    with pytest.raises(SpaceMismatch):
        compose_product({"z": 1}, nu)
    with pytest.raises(ValueError):
        compose_product({"p": -1}, nu)
    interval_nu = mf(Space.interval(), atoms={})
    with pytest.raises(SpaceMismatch):
        compose_product({"p": 1}, interval_nu)


# ---------------------------------------------------------------------------
# Classification verdicts.

def test_matrix_classification():
    v = classify(parse_algebra("M(2)"), parse_algebra("M(2)"))
    assert v.verdict == "Isomorphic"
    v = classify(parse_algebra("M(2)"), parse_algebra("M(6)"))
    assert v.verdict == "NotIsomorphic"
    assert "2 != 6" in v.certificate
    v = classify(parse_algebra("M(3) (x) M(2)"), parse_algebra("M(6)"))
    assert v.verdict == "Isomorphic"
    v = classify(parse_algebra("C"), parse_algebra("M(1)"))
    assert v.verdict == "Isomorphic"


def test_uhf_classification():
    iso = classify(parse_algebra("CAR"), parse_algebra("UHF(2:inf)"))
    assert iso.verdict == "Isomorphic"
    iso = classify(parse_algebra("UHF(3:inf,2:inf)"), parse_algebra("UHF(2:inf,3:inf)"))
    assert iso.verdict == "Isomorphic"
    not_iso = classify(parse_algebra("UHF(2:inf)"), parse_algebra("UHF(3:inf)"))
    assert not_iso.verdict == "NotIsomorphic"
    assert "prime" in not_iso.certificate
    universal = classify(parse_algebra("Q"), parse_algebra("CAR"))
    assert universal.verdict == "NotIsomorphic"
    assert "prime 3" in universal.certificate


def test_cx_classification_uses_reconstruction():
    v = classify(parse_algebra("CX(p,q)"), parse_algebra("CX(a,b)"))
    assert v.verdict == "Isomorphic"
    assert v.certificate.startswith("point counts agree")
    v = classify(parse_algebra("CX(p)"), parse_algebra("CX(a,b)"))
    assert v.verdict == "NotIsomorphic"


def cx(k, label="p"):
    return parse_algebra("CX(" + ",".join(f"{label}{i}" for i in range(k)) + ")")


def test_cx_classification_agrees_with_reconstruction():
    # the reconstruction of the {0,1,inf} fragment is the oracle for k <= 8
    recovered = {k: mf_recover_space(*opaque_fragment(k, seed=k)) for k in range(1, 9)}
    for k, m in product(range(1, 9), repeat=2):
        a, b = recovered[k], recovered[m]
        if a.point_count == b.point_count:
            expected = ("Isomorphic", "point counts agree: "
                        f"{a.point_count} points, closed-set lattices of size "
                        f"{len(a.closed_sets)} coincide")
        else:
            expected = ("NotIsomorphic", "point counts differ: "
                        f"{a.point_count} != {b.point_count}")
        v = classify(cx(k), cx(m, "q"))
        assert (v.verdict, v.certificate) == expected


def test_cx_classification_is_decided_past_ten_points():
    for k in (11, 40, 1000):
        assert classify(cx(k), cx(k, "q")).verdict == "Isomorphic"
        assert classify(cx(k), cx(k + 1, "q")).verdict == "NotIsomorphic"
    v = classify(cx(1000), cx(1000, "q"))
    assert v.certificate.endswith("closed-set lattices of size 2^1000 coincide")


def test_classification_is_symmetric_on_the_fragment():
    pairs = [("M(2)", "M(4)"), ("CAR", "Q"), ("CX(p,q)", "CX(a,b,c)")]
    for a, b in pairs:
        fwd = classify(parse_algebra(a), parse_algebra(b))
        bwd = classify(parse_algebra(b), parse_algebra(a))
        assert fwd.verdict == bwd.verdict


def test_outside_fragment_is_undecided():
    for a, b in [("Z", "Z"), ("O2", "O2"), ("M(2)", "CAR"), ("Z (x) CAR", "CAR")]:
        v = classify(parse_algebra(a), parse_algebra(b))
        assert v.verdict == "Undecided"
        assert v.certificate == "outside the decidable catalog fragment"


# ---------------------------------------------------------------------------
# Scale membership notes.

def test_scale_note_for_matrix_pair():
    note = scale_membership_note(parse_algebra("M(2)"), parse_algebra("M(6)"))
    assert note.forward_scale == (0, 1, 2, 3)
    assert note.backward_scale == (0,)
    assert note.invertible
    assert not note.strictly_invertible
    assert "forces n = m" in note.text()
    assert note.to_json()["note"] == note.text()


def test_scale_note_for_equal_sizes():
    note = scale_membership_note(parse_algebra("M(3)"), parse_algebra("M(3)"))
    assert note.forward_scale == (0, 1)
    assert note.strictly_invertible
    assert "strictly invertible" in note.text()


def test_scale_note_unwraps_scalars_and_products():
    note = scale_membership_note(parse_algebra("C"), parse_algebra("M(2) (x) M(2)"))
    assert note.n == 1 and note.m == 4
    assert note.forward_scale == (0, 1, 2, 3, 4)


def test_scale_note_refuses_non_matrix_pairs():
    with pytest.raises(NotDecidable):
        scale_membership_note(parse_algebra("Z"), parse_algebra("M(2)"))


# ---------------------------------------------------------------------------
# Serialization of values.

def test_value_json_kinds():
    assert value_to_json(NatSG()) == {"kind": "Nat"}
    assert value_to_json(TwoPointSG()) == {"kind": "TwoPoint"}
    assert value_to_json(IdealLatticeSG(3)) == {"kind": "IdealLattice", "summands": 3}
    doc = value_to_json(MfSG(("p",)))
    assert doc["kind"] == "Mf"
    assert doc["space"]["kind"] == "discrete"
    nested = value_to_json(DirectSumSG((NatSG(), WOfSG(parse_algebra("Z")))))
    assert nested == {
        "kind": "DirectSum",
        "summands": [{"kind": "Nat"}, {"kind": "WOf", "algebra": "Z"}],
    }


def test_query_text_shapes():
    q = Query("WW", Mat(2), Mat(3))
    assert query_text(q) == "WW(M(2), M(3))"
    assert query_text(Query("Wof", COMPLEX)) == "W(C)"
    assert query_text(Query("Cuof", Tensor(Mat(2), COMPLEX))) == "Cu(M(2) (x) C)"
