"""Write golden_cli.json: exact stdout, stderr and exit code of `cuntz eval`,
`cuntz classify` and `cuntz axioms` on a fixed corpus.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py

test_golden.py replays every record through ``cuntz.cli.main``.  The file is
a regression fixture: regenerate it only when an output format changes on
purpose, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from cuntz.cli import main

OUT = Path(__file__).with_name("golden_cli.json")

# W/WW identities of the acceptance table, as (variant flag, A, B).
REGRESSION = (
    [("--w", "C", "C"), ("--w", "C", "C (x) K"), ("--ww", "M(2)", "M(3)")]
    + [("--ww", s, "O2") for s in ("M(2)", "Z", "CAR", "Oinf", "F(2,3,5)")]
    + [
        row
        for d in ("UHF(2:inf)", "Z", "Q")
        for a, b in (("M(2)", "M(3)"), ("C", "M(4)"))
        for row in (("--w", f"{a} (x) {d}", f"{b} (x) {d}"), ("--w", a, f"{b} (x) {d}"))
    ]
    + [("--ww", "CX(p,q,r)", "C"), ("--w", "CX(p,q,r)", "C"), ("--w", "CAR", "CAR")]
)

RIGHT_NESTED = [
    "Z (x) (Z (x) Z)",
    "M(2) (x) (Z (x) (M(3) (x) Z))",
    "C (+) (M(2) (+) (CX(p,q) (+) Z))",
    "(C (+) M(2)) (+) (M(3) (+) Z)",
    "Z (x) (CAR (+) O2)",
    "(CAR (+) O2) (x) Z",
    "stab(Z (x) (M(2) (x) stab(Z)))",
    "Minf(M(2) (x) (C (+) Minf(Z)))",
    "(Z (x) Z) (x) (Z (x) (Z (x) Z))",
    "M(2) (x) (M(3) (x) (M(5) (x) C))",
    "F(2,3) (+) (CX(p) (+) (K (+) Minf(C)))",
    "O2 (x) (Oinf (x) (Z (x) O2))",
    "Q (x) (CAR (x) (M(2) (x) Q))",
    "C (x) (C (x) (C (x) K))",
    "(C (+) C) (x) (M(2) (+) (C (+) C))",
    "stab(Minf(M(2) (x) (K (x) Z)))",
    "Minf(stab(Z) (x) (Z (x) M(2)))",
    "UHF(2:inf,3:2) (x) (UHF(3:inf) (x) CAR)",
    "Kirchberg(other) (x) (O2 (+) Oinf)",
    "M(2) (x) (stab(C) (+) (Minf(C) (+) K))",
] + [" (x) (".join(["Z"] * n) + ")" * (n - 1) for n in (5, 12)] + [
    " (+) (".join(["C"] * n) + ")" * (n - 1) for n in (5, 12)
]

TARGETS = ["C", "M(2)", "Z", "O2", "CAR", "stab(C)", "F(2,3)", "Q"]

SSA = ["Z", "CAR", "Q", "O2", "Oinf", "UHF(3:inf)"]

PARSE_ERRORS = ["M(2", "C (+)", "", "nonsense", "stab(", "((C)", "M(0)", "CX(p,p)",
                "UHF(4:1)", "M(2) M(3)", "Kirchberg(O3)", "C (x) (x) C", "#"]

CLASSIFY = [
    ("M(3) (x) M(2)", "M(6)"), ("M(2)", "M(6)"), ("CAR", "Z"), ("CAR", "UHF(2:inf)"),
    ("UHF(2:inf,3:2)", "UHF(2:inf,3:1)"), ("Q", "CAR"), ("CX(p,q)", "CX(a,b)"),
    ("CX(p,q)", "CX(a,b,c)"), ("C", "M(1)"), ("F(4)", "M(2) (x) M(2)"),
    ("M(2) (x) (M(3) (x) M(5))", "M(30)"), ("K", "stab(C)"), ("C (x) C", "C"),
    ("M(2) (x) Z", "Z"), ("Minf(M(3))", "Minf(C)"), ("F(2,3)", "M(2) (+) M(3)"),
]

LEAVES = ["C", "M(1)", "M(3)", "F(2,3)", "F(4)", "CX(p,q)", "CX(1)", "CAR", "Q", "Z",
          "O2", "Oinf", "Kirchberg(other)", "K", "UHF(2:inf,3:2)", "UHF(3:inf)", "UHF(5:1)"]


# axioms extnat bounds, each run under every --aux and --sup; bound 64 is the
# largest the CLI accepts.
AXIOM_BOUNDS = (0, 1, 6, 12, 20, 28, 64)


def random_expr(rng: random.Random, depth: int) -> str:
    shape = rng.randrange(5) if depth else 0
    if shape == 0:
        return rng.choice(LEAVES)
    a = random_expr(rng, depth - 1)
    if shape == 1:
        op = rng.choice([" (x) ", " (+) "])
        return f"{a}{op}({random_expr(rng, depth - 1)})"
    if shape == 2:
        return " (x) ".join([a] + [random_expr(rng, 0) for _ in range(rng.randrange(1, 4))])
    return rng.choice(["stab({})", "Minf({})", "M(2) (x) ({})"]).format(a)


def corpus():
    argvs = []
    for flag, a, b in REGRESSION:
        argvs.append(["eval", flag, a, b])
        argvs.append(["eval", flag, a, b, "--format", "json"])
    for a in RIGHT_NESTED:
        for b in TARGETS[:4]:
            argvs.append(["eval", a, b])
        argvs.append(["eval", "--ww", a, "O2"])
        argvs.append(["classify", a, "Z"])
    for d in SSA:
        for n in (2, 3, 9):
            chain = " (x) ".join([d] * n)
            argvs.append(["eval", chain, d])
            argvs.append(["eval", f"M(2) (x) {chain}", f"stab({d})"])
    for n in (20, 80):
        argvs.append(["eval", " (x) ".join(["Z"] * n), "Z"])
    argvs.append(["eval", " (x) ".join(["O2"] * 6), "stab(O2)", "--format", "json"])
    argvs.append(["eval", " (x) ".join(["M(2)", "Z"] * 12), "Z (x) M(3)"])
    for n in (2, 3, 8, 60):
        argvs.append(["eval", " (+) ".join(["C"] * n), "C"])
    for n in (4, 12):
        argvs.append(["eval", "--ww", " (+) ".join((["M(2)", "Z", "CX(p)"] * n)[:n]), "C"])
        argvs.append(["eval", "C", " (+) ".join(["C"] * n)])
        argvs.append(["eval", " (+) ".join(["Z"] * n), " (+) ".join(["M(2)"] * 3)])
    argvs.append(["eval", " (+) ".join(["C"] * 6), "M(2)", "--format", "json"])
    for text in PARSE_ERRORS:
        argvs.append(["eval", text, "C"])
        argvs.append(["classify", "C", text])
    for a, b in CLASSIFY:
        argvs.append(["classify", a, b])
        argvs.append(["classify", b, a, "--format", "json"])
    rng = random.Random(5)
    for _ in range(30):
        a, b = random_expr(rng, 3), random_expr(rng, 2)
        argvs.append(["eval", rng.choice(["--w", "--ww"]), a, b])
    for bound in AXIOM_BOUNDS:
        for aux in ("way-below", "leq"):
            for sup in ("max", "finite-only"):
                argvs.append(["axioms", "extnat", "--bound", str(bound), "--aux", aux, "--sup", sup])
    return argvs


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    records = [run(argv) for argv in corpus()]
    with OUT.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, ensure_ascii=False) for r in records))
        fh.write("\n]\n")
    print(f"{len(records)} records, {OUT.stat().st_size} bytes")
