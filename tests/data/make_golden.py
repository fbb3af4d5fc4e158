"""Write golden_cli.json: exact stdout, stderr and exit code of `cuntz eval`,
`cuntz classify`, `cuntz axioms`, `cuntz compare` and the diag-mode
`cuntz oz eps|check|compare` on a fixed corpus.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py

A command that reads documents carries them in its record, under "files"
(file name -> text); it is run in a directory that holds just those files.
Every number these commands print is exact: ``oz compare`` is recorded only
on pairs where phi is not below psi, which print the rank certificate and
the obstruction margin, never a witness residual.

test_golden.py replays every record through ``cuntz.cli.main``.  The file is
a regression fixture: regenerate it only when an output format changes on
purpose, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
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


# Sums whose parts repeat, under every kind of R4 split: a domain sum, a
# target sum, F(...) and CX(...) against a non-C target, and a repeated
# nested stab(A (+) B); each in text and JSON.
REPEATED_PARTS = [
    ("--w", "C (+) M(2) (+) C (+) Z (+) M(2) (+) C", "C"),
    ("--w", "C (+) M(2) (+) C (+) Z (+) M(2) (+) C", "O2"),
    ("--ww", "C (+) M(2) (+) C (+) Z (+) M(2) (+) C", "C"),
    ("--w", " (+) ".join(["C", "M(2)", "Z", "CX(p)", "O2"] * 8), "O2"),
    ("--w", "C", "M(2) (+) C (+) M(2) (+) stab(C) (+) C"),
    ("--w", "Z (+) C (+) Z", "M(2) (+) C (+) M(2)"),
    ("--w", "F(2,2,3)", "C"),
    ("--w", "F(2,2,3)", "C (+) Z"),
    ("--w", "CX(p,q,r)", "O2"),
    ("--w", "CX(p,q,r)", "M(2) (+) C"),
    ("--w", "stab(C (+) M(2)) (+) Z (+) stab(C (+) M(2))", "C"),
    ("--w", "stab(C (+) M(2)) (+) Z (+) stab(C (+) M(2))", "O2"),
    ("--ww", "stab(C (+) M(2)) (+) Z (+) stab(C (+) M(2))", "C"),
]


# Scanner and argument paths that no other record reaches: characters that
# are alphanumeric but not letters or decimal digits, a decimal digit of
# another script, wrong argument counts and shapes, unclosed arguments, an
# operator broken by a space, tab-, newline- and NBSP-spaced operators, and
# parentheses nested to MAX_NESTING and one past it.
PARSE_PATHS = [
    "M(²)", "F(2,³)", "_x", "M(٣)",
    "M(2,3)", "M()", "CX()", "UHF()", "UHF(2:inf", "Kirchberg(O2", "stab(x)",
    "C (+ ) C", "C\t(+)\u00a0M(2)\n(+)\tZ\u00a0(x)\u00a0CAR",
    "(" * 100 + "C" + ")" * 100, "(" * 101 + "C" + ")" * 101,
]

# CX(x) is the point labelled x, though "(x)" scans as the tensor operator.
POINT_X = ["CX(x)", "CX( x)", "CX(x) (x) M(2)"]


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


# Diagonal entries of the oz maps, and the eps of the cuts.
OZ_ENTRIES = ("0", "0", "1/4", "1/3", "1/2", "2/3", "3/4", "1")
OZ_DOMAINS = ((1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (2,), (1, 2), (3, 1))
OZ_EPS = ("0", "1/3", "1/2", "1")


def _document(doc: dict) -> str:
    return json.dumps({"schema": "cuntz/1", **doc})


def oz_diag_map(rng: random.Random, domain) -> dict:
    """A diag-mode map document on ``domain``: up to three diagonal entries
    per block, drawn from OZ_ENTRIES, into a target with up to 3 spare
    dimensions."""
    mults = [rng.randint(0, 3) for _ in domain]
    blocks = [[rng.choice(OZ_ENTRIES) for _ in range(m)] for m in mults]
    used = sum(m * n for m, n in zip(mults, domain))
    return {
        "domain": list(domain),
        "target_dim": used + rng.randint(0, 3),
        "mult": mults,
        "blocks": [[[x if r == c else "0" for c in range(len(d))] for r, x in enumerate(d)]
                   for d in blocks],
        "mode": "diag",
    }


def _ranks(doc: dict):
    return [sum(row[r] != "0" for r, row in enumerate(block)) for block in doc["blocks"]]


def oz_obstructions(rng: random.Random, per_verdict: int):
    """Pairs (phi, psi) of diag map documents on one domain where phi is not
    below psi: ``per_verdict`` with psi below phi (geq), as many incomparable."""
    found = {"geq": [], "incomparable": []}
    while any(len(pairs) < per_verdict for pairs in found.values()):
        domain = rng.choice(OZ_DOMAINS)
        phi, psi = oz_diag_map(rng, domain), oz_diag_map(rng, domain)
        below = all(a <= b for a, b in zip(_ranks(phi), _ranks(psi)))
        above = all(b <= a for a, b in zip(_ranks(phi), _ranks(psi)))
        if not below:
            pairs = found["geq" if above else "incomparable"]
            if len(pairs) < per_verdict:
                pairs.append((phi, psi))
    return found["geq"] + found["incomparable"]


def mf_document(rng: random.Random, space: dict) -> dict:
    """A multiplicity function on ``space``: finite or infinite atoms, and on
    the interval up to two essential segments on a grid of 1/16."""
    atoms, essential = [], []
    if space["kind"] == "discrete":
        for p in space["points"]:
            v = rng.choice((0, 1, 2, 3, "inf"))
            if v:
                atoms.append({"at": p, "mult": v})
    else:
        cuts = sorted(rng.sample(range(17), 2 * rng.randint(0, 2)))
        segments = list(zip(cuts[::2], cuts[1::2]))
        essential = [[f"{lo}/16", f"{hi}/16"] for lo, hi in segments]
        free = [x for x in range(17) if not any(lo <= x <= hi for lo, hi in segments)]
        for x in sorted(rng.sample(free, min(len(free), rng.randint(0, 3)))):
            atoms.append({"at": f"{x}/16", "mult": rng.choice((1, 2, 3, "inf"))})
    return {"space": space, "atoms": atoms, "essential": essential}


def _raised(rng: random.Random, nu: dict) -> dict:
    """nu with one atom raised by one, or to inf: a function above nu."""
    mu = json.loads(json.dumps(nu))
    if mu["atoms"]:
        atom = rng.choice(mu["atoms"])
        atom["mult"] = "inf" if atom["mult"] == "inf" or rng.random() < 0.3 else atom["mult"] + 1
    return mu


def file_corpus():
    """(argv, files) for the commands that read documents."""
    rng = random.Random(28)
    runs = []
    spaces = [{"kind": "discrete", "points": list("pqrs"[:k])} for k in (1, 2, 3, 4)]
    spaces.append({"kind": "interval"})
    for i in range(14):
        space = spaces[i % len(spaces)]
        nu = mf_document(rng, space)
        mu = _raised(rng, nu) if i % 3 else mf_document(rng, space)
        if i % 2:
            nu, mu = mu, nu
        files = {"space.json": _document(space), "nu.json": _document(nu),
                 "mu.json": _document(mu)}
        for fmt in ("text", "json"):
            runs.append((["compare", "space.json", "nu.json", "mu.json", "--format", fmt], files))
    # a function on another space, and a document without the schema
    other = mf_document(rng, spaces[1])
    files = {"space.json": _document(spaces[0]), "nu.json": _document(other),
             "mu.json": json.dumps(other)}
    runs.append((["compare", "space.json", "nu.json", "nu.json"], files))
    runs.append((["compare", "space.json", "nu.json", "mu.json"], files))
    for phi, psi in oz_obstructions(rng, 8):
        files = {"phi.json": _document(phi), "psi.json": _document(psi)}
        for fmt in ("text", "json"):
            runs.append((["oz", "compare", "phi.json", "psi.json", "--format", fmt], files))
    for i in range(10):
        files = {"phi.json": _document(oz_diag_map(rng, OZ_DOMAINS[i % len(OZ_DOMAINS)]))}
        for fmt in ("text", "json"):
            runs.append((["oz", "eps", "phi.json", "--eps", OZ_EPS[i % 4], "--format", fmt], files))
            trials = ["--trials", str(i)] if i % 3 else []
            runs.append((["oz", "check", "phi.json", *trials, "--format", fmt], files))
    return runs


def repeated_part_corpus():
    return [["eval", flag, a, b, *fmt] for flag, a, b in REPEATED_PARTS
            for fmt in ([], ["--format", "json"])]


def parse_path_corpus(texts):
    return [argv for text in texts for argv in (["eval", text, "C"], ["classify", "C", text])]


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


def run(argv, files=None):
    """The record of one command; ``files`` are written to a fresh
    directory, which is the working directory while the command runs."""
    record = {"argv": argv} if files is None else {"argv": argv, "files": files}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (files or {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return {**record, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    records = [run(argv) for argv in corpus()]
    records += [run(argv, files) for argv, files in file_corpus()]
    records += [run(argv) for argv in repeated_part_corpus()]
    records += [run(argv) for argv in parse_path_corpus(PARSE_PATHS)]
    records += [run(argv) for argv in parse_path_corpus(POINT_X)]
    with OUT.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, ensure_ascii=False) for r in records))
        fh.write("\n]\n")
    print(f"{len(records)} records, {OUT.stat().st_size} bytes")
