"""Catalog ops of the exact-mix workload: W/WW evaluations, classifications
and scale notes, each with its oracle.

Small catalog identities have values known in advance.  Direct sums and
tensor chains carry the expensive rewrites.  Chains against absorbing
targets take one rewrite step per factor, and past 61-64 factors they
exceed the rewrite engine's 64-step budget and raise RuntimeError;
``over_budget_failures`` measures that defect apart from the timed loop.
"""

from __future__ import annotations

import random

from cuntz.algebra import normalize, parse_algebra
from cuntz.catalog import (
    DirectSumSG,
    classify,
    direct_sum_value,
    eval_W,
    eval_WW,
    scale_membership_note,
    value_text,
)

from common import Op, dealt

NAT = "ℕ₀"
EXTNAT = "ℕ₀∪{∞}"
ZERO = "{0}"
TWO_POINT = "{0,∞}"
CAR_VALUE = "ℕ₀[1/2]⊔(0,∞)"

# Canonical text of each strongly self-absorbing catalog algebra.
SSA = {
    "Z": "Z",
    "CAR": "UHF(2:inf)",
    "Q": "UHF(Q)",
    "O2": "O2",
    "Oinf": "Oinf",
    "UHF(3:inf)": "UHF(3:inf)",
}


def self_pairing(d: str) -> str:
    """W(D, D) = W(C, D) = W(D), except that the CAR algebra has its own
    closed form."""
    return CAR_VALUE if d == "CAR" else f"W({SSA[d]})"


# Known values of W(A, B) for the summands that the direct sums draw from,
# by target B.  Matrix stability, additivity, absorption of a strongly
# self-absorbing factor and the finite-dimensional representation
# obstruction give each entry.
_FD_KILLED = {s: ZERO for s in (
    "Z", "CAR", "Q", "O2", "Oinf", "UHF(3:inf)", "M(3) (x) Q", "M(2) (x) Z",
    "M(2) (x) O2", "Z (x) CAR",
)}
SUMMAND_VALUES = {
    "C": {"C": NAT, "M(2)": NAT, "M(3)": NAT, "F(2,3)": f"⊕[{NAT}, {NAT}]",
          "CX(p,q)": "Mf_i(p,q)", "stab(C)": ZERO, "K": ZERO, **_FD_KILLED},
    "M(4)": {"C": NAT, "M(2)": NAT, "M(3)": NAT, "F(2,3)": f"⊕[{NAT}, {NAT}]",
             "CX(p,q)": "Mf_i(p,q)", "stab(C)": ZERO, "K": ZERO, **_FD_KILLED},
    "stab(C)": {"C": EXTNAT, "M(2)": EXTNAT, "M(3)": EXTNAT,
                "F(2,3)": f"⊕[{EXTNAT}, {EXTNAT}]", "CX(p,q)": f"⊕[{EXTNAT}, {EXTNAT}]",
                "stab(C)": EXTNAT, "K": EXTNAT, "C (x) K": EXTNAT, **_FD_KILLED},
}
for _d, _extra in (("Z", ("Z", "M(2) (x) Z")), ("O2", ("O2", "M(2) (x) O2")),
                   ("Q", ("CAR", "Q", "UHF(3:inf)", "M(3) (x) Q"))):
    _w = f"W({SSA[_d]})"
    SUMMAND_VALUES[_d] = {"C": _w, "M(2)": _w, "M(3)": _w, "F(2,3)": f"⊕[{_w}, {_w}]",
                          "CX(p,q)": f"⊕[{_w}, {_w}]", **{s: _w for s in _extra}}


FAMILIES = 9


def known_identity(rng: random.Random, family: int):
    """(variant, A, B, expected value text): the README and regression-table
    identities (family 0), and families generated around them."""
    if family == 0:
        return rng.choice([
            ("W", "C", "C", NAT),
            ("W", "C", "C (x) K", EXTNAT),
            ("WW", "M(2)", "M(3)", EXTNAT),
            ("WW", "F(2,3,5)", "O2", "ideal lattice on 3 summands (8 elements, + = ∩)"),
            ("WW", "CX(p,q,r)", "C", "Mf(p,q,r)"),
            ("W", "CX(p,q,r)", "C", "Mf_i(p,q,r)"),
            ("W", "CAR", "CAR", CAR_VALUE),
            ("W", "CAR (x) Q", "Q", "W(UHF(Q))"),
        ])
    if family == 1:
        n, m = rng.randint(1, 16), rng.randint(1, 16)
        return ("W", f"M({n})", f"M({m})", NAT)
    if family == 2:
        n, m = rng.randint(1, 16), rng.randint(1, 16)
        return ("WW", f"M({n})", f"M({m})", EXTNAT)
    if family == 3:
        k = rng.randint(2, 6)
        sizes = ",".join(str(rng.randint(1, 9)) for _ in range(k))
        return ("WW", f"F({sizes})", "O2",
                f"ideal lattice on {k} summands ({2 ** k} elements, + = ∩)")
    if family == 4:
        simple = rng.choice([f"M({rng.randint(1, 9)})", *SSA])
        return ("WW", simple, "O2", TWO_POINT)
    if family == 5:
        labels = ",".join(rng.sample("abcdefghpqrs", rng.randint(1, 6)))
        if rng.random() < 0.5:
            return ("W", f"CX({labels})", "C", f"Mf_i({labels})")
        return ("WW", f"CX({labels})", "C", f"Mf({labels})")
    if family == 6:
        d = rng.choice(list(SSA))
        return ("W", rng.choice([d, "C"]), d, self_pairing(d))
    if family == 7:
        n, m, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(2, 5)
        return ("W", f"M({n})", f"M({m}) (x) Z", "W(Z)") if rng.random() < 0.5 else (
            "W", f"M({n})", f"M({k}) (x) O2", "W(O2)")
    target = rng.choice(list(SUMMAND_VALUES))
    summand, value = rng.choice(sorted(SUMMAND_VALUES[target].items()))
    return ("W", summand, target, value)


def evaluate(tracer, variant, a_text, b_text, **size):
    """parse -> normalize -> eval through the tracer; returns the value and
    its rewrite trace."""
    a = tracer.call("algebra.parse", {"chars": len(a_text)}, parse_algebra, a_text)
    b = tracer.call("algebra.parse", {"chars": len(b_text)}, parse_algebra, b_text)
    a = tracer.call("algebra.normalize", {"chars": len(a_text)}, normalize, a)
    b = tracer.call("algebra.normalize", {"chars": len(b_text)}, normalize, b)
    fn = eval_W if variant == "W" else eval_WW
    value, trace = tracer.call("catalog.eval", size, fn, a, b)
    tracer.annotate(steps=len(trace))
    return value, trace


def _expect_text(expected: str):
    def check(result):
        value, trace = result
        got = value_text(value)
        if got != expected:
            return f"value {got!r}, expected {expected!r}"
        if not trace:
            return "value came without a derivation"
        return None
    return check


def identity_op(rng: random.Random, family: int) -> Op:
    variant, a, b, expected = known_identity(rng, family)
    return Op(
        "identity",
        lambda t: evaluate(t, variant, a, b),
        _expect_text(expected),
    )


def absorption_op(rng: random.Random) -> Op:
    """W(a (x) D, b (x) D) equals W(a, b (x) D) for the UHF, Z and Q factors
    of the regression table."""
    d = rng.choice(["UHF(2:inf)", "Z", "Q"])
    a, b = f"M({rng.randint(1, 6)})", f"M({rng.randint(1, 6)})"

    def run(t):
        lhs, _ = evaluate(t, "W", f"{a} (x) {d}", f"{b} (x) {d}")
        rhs, _ = evaluate(t, "W", a, f"{b} (x) {d}")
        return value_text(lhs), value_text(rhs)

    return Op("absorption", run, lambda r: None if r[0] == r[1] else f"{r[0]} != {r[1]}")


def chain_op(rng: random.Random, factors: int, absorbing: bool) -> Op:
    """D (x) ... (x) D against a target; D^n is isomorphic to D.  Targets
    that absorb D take one rewrite step per factor; the others admit only
    zero maps and take one step in all."""
    d = rng.choice(list(SSA))
    if absorbing:
        target, expected = rng.choice([
            (d, self_pairing(d)),
            (f"M(2) (x) {d}", self_pairing(d)),
            (f"stab({d})", f"Cu({SSA[d]})"),
        ])
    else:
        target, expected = rng.choice([("C", ZERO), (f"M({rng.randint(2, 9)})", ZERO)])
    a = " (x) ".join([d] * factors)
    return Op(
        "chain",
        lambda t: evaluate(t, "W", a, target, factors=factors),
        _expect_text(expected),
    )


# Chains against absorbing targets evaluate up to 61-64 factors in the
# current program, depending on D and the target; longer ones exceed the
# 64-step rewrite budget.
ABSORBING_CHAIN_MAX = 60
OVER_BUDGET_FACTORS = range(71, 81)


def over_budget_failures() -> int:
    """How many of a fixed set of absorbing chains past the step budget
    (71-80 factors, every strongly self-absorbing D in turn) raise.  Run
    apart from the timed loop; a program that lifts the budget reads 0."""
    failures = 0
    targets = [lambda d: d, lambda d: f"M(2) (x) {d}", lambda d: f"stab({d})"]
    for i, n in enumerate(OVER_BUDGET_FACTORS):
        d = list(SSA)[i % len(SSA)]
        a = parse_algebra(" (x) ".join([d] * n))
        b = parse_algebra(targets[i % len(targets)](d))
        try:
            eval_W(normalize(a), normalize(b))
        except RuntimeError:
            failures += 1
    return failures


def nonzero_summands(value) -> list:
    """The summand texts of a value with zero-monoid summands dropped.

    The zero monoid is neutral for direct sums, and the rewrite engine
    collapses a run of summands that all admit only zero maps to one {0}; two
    values are isomorphic when these lists agree.
    """
    parts = value.summands if isinstance(value, DirectSumSG) else (value,)
    return sorted(value_text(p) for p in parts if value_text(p) != ZERO)


def sum_op(rng: random.Random, summands: int, target: str, singles: dict) -> Op:
    """A direct sum must equal its summands evaluated one by one."""
    pool = sorted(SUMMAND_VALUES[target])
    parts = [rng.choice(pool) for _ in range(summands)]
    a = " (+) ".join(parts)

    def single(summand):
        if (summand, target) not in singles:
            value, _ = eval_W(parse_algebra(summand), parse_algebra(target))
            singles[summand, target] = value
        return singles[summand, target]

    def check(result):
        value, _ = result
        for p in set(parts):
            got, known = value_text(single(p)), SUMMAND_VALUES[target][p]
            if got != known:
                return f"W({p}, {target}) = {got}, known {known}"
        expected = direct_sum_value([single(p) for p in parts])
        if nonzero_summands(value) != nonzero_summands(expected):
            return f"sum of {summands} differs from its summands evaluated one by one"
        return None

    return Op("sum", lambda t: evaluate(t, "W", a, target, summands=summands), check)


def matrix_classify_op(rng: random.Random) -> Op:
    n, m = rng.randint(1, 12), rng.randint(1, 12)
    if rng.random() < 0.3:
        m = n

    def run(t):
        a = t.call("algebra.parse", {"chars": 4}, parse_algebra, f"M({n})")
        b = t.call("algebra.parse", {"chars": 4}, parse_algebra, f"M({m})")
        verdict = t.call("catalog.classify", {}, classify, a, b)
        note = t.call("catalog.scale_note", {}, scale_membership_note, a, b)
        return verdict, note

    def check(result):
        verdict, note = result
        if verdict.verdict != ("Isomorphic" if n == m else "NotIsomorphic"):
            return f"M({n}) vs M({m}): {verdict.verdict}"
        if note.forward_scale != tuple(range(m // n + 1)):
            return f"forward scale {note.forward_scale}"
        if note.backward_scale != tuple(range(n // m + 1)):
            return f"backward scale {note.backward_scale}"
        if not note.invertible or note.strictly_invertible != (n == m):
            return "invertibility flags"
        return None

    return Op("classify-matrix", run, check)


def _uhf_text(exps: dict, rng: random.Random) -> str:
    if exps == "Q":
        return "Q"
    items = dealt(rng, exps.items())
    return "UHF(" + ",".join(f"{p}:{e}" for p, e in items) + ")"


def _exponent(exps, prime: int) -> str:
    return "inf" if exps == "Q" else str(exps.get(prime, 0))


def uhf_classify_op(rng: random.Random) -> Op:
    def draw():
        if rng.random() < 0.1:
            return "Q"
        primes = rng.sample([2, 3, 5, 7], rng.randint(1, 3))
        return {p: rng.choice(["1", "2", "3", "inf"]) for p in primes}

    x = draw()
    y = x if rng.random() < 0.5 else draw()
    ta, tb = _uhf_text(x, rng), _uhf_text(y, rng)

    def run(t):
        a = t.call("algebra.parse", {"chars": len(ta)}, parse_algebra, ta)
        b = t.call("algebra.parse", {"chars": len(tb)}, parse_algebra, tb)
        return t.call("catalog.classify", {}, classify, a, b)

    def check(verdict):
        if verdict.verdict != ("Isomorphic" if x == y else "NotIsomorphic"):
            return f"{ta} vs {tb}: {verdict.verdict}"
        if x != y:
            # "prime P exponent mismatch: a vs b"
            words = verdict.certificate.replace(":", "").split()
            prime, ea, eb = int(words[1]), words[4], words[6]
            if (ea, eb) != (_exponent(x, prime), _exponent(y, prime)) or ea == eb:
                return f"certificate {verdict.certificate!r} for {ta} vs {tb}"
        return None

    return Op("classify-uhf", run, check)
