"""The package surface: the text and JSON forms of every value, expression
and query variant, and the layering of the submodules."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cuntz
from cuntz.algebra import (
    COMPLEX,
    CX,
    Compacts,
    DirectSum,
    FinDim,
    JiangSu,
    KirchbergSimple,
    Mat,
    MatAmp,
    MatInf,
    Stabilize,
    Tensor,
    UHF,
    normalize,
    parse_algebra,
    to_text,
)
from cuntz.catalog import (
    CarSG,
    CuOfSG,
    DirectSumSG,
    ExtNatSG,
    IdealLatticeSG,
    MfSG,
    MfiSG,
    NatSG,
    Query,
    TwoPointSG,
    UnknownSG,
    WOfSG,
    ZeroSG,
    query_text,
    value_text,
    value_to_json,
)
from cuntz.supernatural import sn_parse

PQ = ("p", "q")

VALUES = [
    (NatSG(), "ℕ₀", {"kind": "Nat"}),
    (ExtNatSG(), "ℕ₀∪{∞}", {"kind": "ExtNat"}),
    (ZeroSG(), "{0}", {"kind": "Zero"}),
    (TwoPointSG(), "{0,∞}", {"kind": "TwoPoint"}),
    (CarSG(), "ℕ₀[1/2]⊔(0,∞)", {"kind": "Car"}),
    (
        MfSG(PQ),
        "Mf(p,q)",
        {"kind": "Mf", "space": {"kind": "discrete", "points": ["p", "q"]}},
    ),
    (
        MfiSG(PQ),
        "Mf_i(p,q)",
        {"kind": "Mfi", "space": {"kind": "discrete", "points": ["p", "q"]}},
    ),
    (
        IdealLatticeSG(3),
        "ideal lattice on 3 summands (8 elements, + = ∩)",
        {"kind": "IdealLattice", "summands": 3},
    ),
    (
        IdealLatticeSG(65),
        "ideal lattice on 65 summands (2^65 elements, + = ∩)",
        {"kind": "IdealLattice", "summands": 65},
    ),
    (
        DirectSumSG((NatSG(), DirectSumSG((ZeroSG(), WOfSG(JiangSu()))))),
        "⊕[ℕ₀, ⊕[{0}, W(Z)]]",
        {
            "kind": "DirectSum",
            "summands": [
                {"kind": "Nat"},
                {
                    "kind": "DirectSum",
                    "summands": [{"kind": "Zero"}, {"kind": "WOf", "algebra": "Z"}],
                },
            ],
        },
    ),
    (
        WOfSG(Tensor(Mat(2), UHF(sn_parse("2:inf")))),
        "W(M(2) (x) UHF(2:inf))",
        {"kind": "WOf", "algebra": "M(2) (x) UHF(2:inf)"},
    ),
    (CuOfSG(Stabilize(COMPLEX)), "Cu(stab(C))", {"kind": "CuOf", "algebra": "stab(C)"}),
    (UnknownSG("W(Z, O2)"), "Unknown[W(Z, O2)]", {"kind": "Unknown", "query": "W(Z, O2)"}),
]


@pytest.mark.parametrize("value,text,doc", VALUES, ids=lambda x: type(x).__name__)
def test_value_text_and_json(value, text, doc):
    assert value_text(value) == text
    assert value_to_json(value) == doc


def test_every_value_class_is_pinned():
    pinned = {type(v) for v, _, _ in VALUES}
    assert len(pinned) == 12


@pytest.mark.parametrize("render", [value_text, value_to_json])
def test_non_values_are_refused(render):
    with pytest.raises(TypeError):
        render(COMPLEX)


Z = JiangSu()
EXPRESSIONS = [
    (COMPLEX, "C"),
    (Mat(3), "M(3)"),
    (FinDim((2, 3, 5)), "F(2,3,5)"),
    (CX(("p", "q", "1")), "CX(p,q,1)"),
    (UHF(sn_parse("2:inf,3:2")), "UHF(2:inf,3:2)"),
    (UHF(sn_parse("Q")), "UHF(Q)"),
    (Z, "Z"),
    (KirchbergSimple("O2"), "O2"),
    (KirchbergSimple("Oinf"), "Oinf"),
    (KirchbergSimple("other"), "Kirchberg(other)"),
    (Compacts(), "K"),
    (Tensor(Z, Mat(2)), "Z (x) M(2)"),
    (Tensor(Tensor(Z, Z), Z), "Z (x) Z (x) Z"),
    (Tensor(Z, Tensor(Z, Z)), "Z (x) (Z (x) Z)"),
    (DirectSum(COMPLEX, Tensor(Z, Z)), "C (+) Z (x) Z"),
    (Tensor(DirectSum(COMPLEX, Z), Z), "(C (+) Z) (x) Z"),
    (DirectSum(COMPLEX, DirectSum(Z, Z)), "C (+) (Z (+) Z)"),
    (Stabilize(DirectSum(COMPLEX, Z)), "stab(C (+) Z)"),
    (MatAmp(2, Z), "M(2) (x) Z"),
    (MatAmp(2, DirectSum(COMPLEX, Z)), "M(2) (x) (C (+) Z)"),
    (DirectSum(MatAmp(2, Z), Z), "M(2) (x) Z (+) Z"),
    # An amplification binds like an atom, so it takes no parentheses.
    (Tensor(Z, MatAmp(2, Z)), "Z (x) M(2) (x) Z"),
    (MatInf(Tensor(Z, Compacts())), "Minf(Z (x) K)"),
]


@pytest.mark.parametrize("expr,text", EXPRESSIONS, ids=[t for _, t in EXPRESSIONS])
def test_to_text(expr, text):
    assert to_text(expr) == text
    assert normalize(parse_algebra(text)) == normalize(expr)


def test_every_expression_class_is_pinned():
    assert len({type(e) for e, _ in EXPRESSIONS}) == 13


def test_to_text_refuses_non_expressions():
    with pytest.raises(TypeError):
        to_text(NatSG())


@pytest.mark.parametrize(
    "query,text",
    [
        (Query("W", Mat(2), Tensor(Z, Z)), "W(M(2), Z (x) Z)"),
        (Query("WW", DirectSum(COMPLEX, Z), Mat(3)), "WW(C (+) Z, M(3))"),
        (Query("Wof", Stabilize(Z)), "W(stab(Z))"),
        (Query("Cuof", MatAmp(2, COMPLEX)), "Cu(M(2) (x) C)"),
    ],
)
def test_query_text(query, text):
    assert query_text(query) == text


def test_query_text_refuses_unknown_variants():
    with pytest.raises(ValueError):
        query_text(Query("X", COMPLEX))


def test_exact_layer_does_not_load_numpy():
    src = str(Path(cuntz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, cuntz.catalog, cuntz.waxioms, cuntz.multiplicity; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# Each subcommand loads only its own layer: only the oz subcommands load
# numpy (through cuntz.orderzero), and only eval and classify the catalog.
# eval and classify load neither the multiplicity layer nor dataclasses,
# also on CX values, and the oz subcommands load neither either.  Each set
# below names modules that a subcommand must leave unloaded.
NUMPY = {"numpy", "cuntz.orderzero"}
NUMPY_OR_CATALOG = NUMPY | {"cuntz.catalog"}
MULTIPLICITY = {"dataclasses", "cuntz.multiplicity"}
NUMPY_OR_MULTIPLICITY = NUMPY | MULTIPLICITY
OTHER_LAYERS = MULTIPLICITY | {"cuntz.catalog", "cuntz.waxioms"}


def _diag_map(target_dim, diags):
    m = len(diags)
    return {
        "domain": [1],
        "target_dim": target_dim,
        "mult": [m],
        "blocks": [[[d if r == c else "0" for c in range(m)] for r, d in enumerate(diags)]],
        "mode": "diag",
    }


@pytest.mark.parametrize(
    "argv,absent",
    [
        pytest.param(argv, absent, id=" ".join(argv))
        for argv, absent in [
            (["eval", "M(2)", "Z"], NUMPY_OR_MULTIPLICITY),
            (["eval", "--ww", "CX(p,q)", "O2"], NUMPY),
            (["eval", "CX(p,q)", "C"], NUMPY_OR_MULTIPLICITY),
            (["classify", "M(2)", "M(3)"], NUMPY_OR_MULTIPLICITY),
            (["classify", "CX(a,b)", "CX(p,q)"], NUMPY_OR_MULTIPLICITY),
            (["compare", "{space}", "{nu}", "{mu}"], NUMPY_OR_CATALOG),
            (["axioms", "extnat", "--bound", "4"], NUMPY_OR_CATALOG),
            (["oz", "check", "{phi}"], OTHER_LAYERS),
            (["oz", "compare", "{phi}", "{psi}"], OTHER_LAYERS),
            (["oz", "witness", "{phi}", "{psi}"], OTHER_LAYERS),
        ]
    ],
)
def test_each_subcommand_loads_only_its_own_layer(tmp_path, argv, absent):
    docs = {
        "space": {"kind": "discrete", "points": ["p", "q"]},
        "phi": _diag_map(3, ["1", "1/2"]),
        "psi": _diag_map(4, ["1", "1/2", "1/4"]),
    }
    for name, atoms in [("nu", {"p": 1}), ("mu", {"p": 2, "q": 1})]:
        docs[name] = {
            "space": docs["space"],
            "atoms": [{"at": p, "mult": m} for p, m in atoms.items()],
            "essential": [],
        }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"schema": "cuntz/1", **doc}), encoding="utf-8")
    src = str(Path(cuntz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import json, sys; from cuntz.cli import main; code = main(sys.argv[1:]); "
        f"print(json.dumps([code, sorted(m for m in {sorted(absent)!r} if m in sys.modules)]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *(a.format(**paths) for a in argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]


# Every public top-level name of the package must have a caller: a use as a
# Name or Attribute outside its own definition, in the package, the
# benchmark or the acceptance criteria.  The unit tests alone keep no name
# alive, and docstrings and comments are not uses.
ROOT = Path(__file__).resolve().parents[1]


def _loads(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_every_public_name_has_a_caller():
    package = sorted((ROOT / "src" / "cuntz").glob("*.py"))
    callers = package + sorted((ROOT / "perfbench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in callers}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.stem}.{name}"
        for path in package
        for name, node in _public_definitions(trees[path])
        if loads[name] == _loads(node)[name]
    ]
    assert unused == []
