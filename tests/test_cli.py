import contextlib
import copy
import io
import json
import math
import tempfile
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuntz.algebra import parse_algebra
from cuntz.catalog import ZeroSG, direct_sum_value, eval_W, value_text
from cuntz.cli import main

SCHEMA = "cuntz/1"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def discrete_space_doc():
    return {"kind": "discrete", "points": ["p", "q"]}


def mf_doc(atoms):
    return {
        "schema": SCHEMA,
        "space": discrete_space_doc(),
        "atoms": [{"at": p, "mult": m} for p, m in atoms],
        "essential": [],
    }


def diag_map_doc(target_dim, diags):
    m = len(diags)
    rows = [[diags[r] if r == c else "0" for c in range(m)] for r in range(m)]
    return {
        "schema": SCHEMA,
        "domain": [1],
        "target_dim": target_dim,
        "mult": [m],
        "blocks": [rows],
        "mode": "diag",
    }


@pytest.fixture
def space_file(tmp_path):
    return write(tmp_path, "space.json", {"schema": SCHEMA, **discrete_space_doc()})


# ---------------------------------------------------------------------------
# eval

def test_eval_scalar_pair(capsys):
    assert main(["eval", "C", "C"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "W(C, C) = ℕ₀"
    assert any("[base Cuntz semigroup values]" in line for line in out[1:])


def test_eval_json_document(capsys):
    assert main(["eval", "--ww", "M(2)", "M(3)", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == SCHEMA
    assert doc["query"] == "WW(M(2), M(3))"
    assert doc["value"] == {"kind": "ExtNat"}
    assert doc["value_text"] == "ℕ₀∪{∞}"
    for step in doc["trace"]:
        assert set(step) == {"rule", "anchor", "before", "after"}


def test_eval_unknown_exits_2(capsys):
    assert main(["eval", "UHF(2:inf)", "UHF(3:inf)", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"]["kind"] == "Unknown"


@pytest.mark.parametrize("text,pos", [("M(²)", 2), ("F(2,³)", 4)])
def test_eval_refuses_a_digit_that_is_not_decimal(text, pos, capsys):
    assert main(["eval", text, "C"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"unexpected character {text[pos]!r}" in err


def test_eval_variant_flags_are_exclusive(capsys):
    assert main(["eval", "--w", "--ww", "C", "C"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_reports_parse_position(capsys):
    assert main(["eval", "C", "M(2"]) == 1
    err = capsys.readouterr().err
    assert "position 3" in err


def test_eval_output_is_deterministic(capsys):
    main(["eval", "CX(p,q)", "C", "--format", "json"])
    first = capsys.readouterr().out
    main(["eval", "CX(p,q)", "C", "--format", "json"])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# compare

def test_compare_leq(tmp_path, space_file, capsys):
    nu = write(tmp_path, "nu.json", mf_doc([("p", 1)]))
    mu = write(tmp_path, "mu.json", mf_doc([("p", 2), ("q", 1)]))
    assert main(["compare", space_file, nu, mu]) == 0
    assert capsys.readouterr().out.strip() == "leq"


def test_compare_verdicts(tmp_path, space_file, capsys):
    nu = write(tmp_path, "nu.json", mf_doc([("p", 1)]))
    same = write(tmp_path, "same.json", mf_doc([("p", 1)]))
    other = write(tmp_path, "other.json", mf_doc([("q", "inf")]))
    assert main(["compare", space_file, nu, same]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert main(["compare", space_file, nu, other, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "incomparable"


def test_compare_requires_schema(tmp_path, space_file, capsys):
    doc = mf_doc([("p", 1)])
    del doc["schema"]
    nu = write(tmp_path, "nu.json", doc)
    assert main(["compare", space_file, nu, nu]) == 1
    assert "schema" in capsys.readouterr().err


def test_compare_rejects_space_disagreement(tmp_path, capsys):
    other_space = write(
        tmp_path, "space.json", {"schema": SCHEMA, "kind": "discrete", "points": ["z"]}
    )
    nu = write(tmp_path, "nu.json", mf_doc([("p", 1)]))
    assert main(["compare", other_space, nu, nu]) == 1
    assert "disagree" in capsys.readouterr().err


def test_compare_refuses_points_that_are_not_a_list_of_strings(tmp_path, capsys):
    # "pq" is one string, not the two points p and q
    pq = {"kind": "discrete", "points": "pq"}
    space = write(tmp_path, "space.json", {"schema": SCHEMA, **pq})
    nu = write(tmp_path, "nu.json", {**mf_doc([("p", 1)]), "space": pq})
    assert main(["compare", space, nu, nu]) == 1
    assert "points must be a list of strings" in capsys.readouterr().err


def test_compare_missing_file(tmp_path, space_file, capsys):
    assert main(["compare", space_file, str(tmp_path / "absent.json"), space_file]) == 1
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify

def test_classify_isomorphic_matrices(capsys):
    assert main(["classify", "M(3) (x) M(2)", "M(6)", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Isomorphic"
    assert doc["scale"]["strictly_invertible"] is True


def test_classify_scale_note_for_unequal_sizes(capsys):
    assert main(["classify", "M(2)", "M(6)", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NotIsomorphic"
    assert doc["scale"]["forward_scale"] == [0, 1, 2, 3]
    assert doc["scale"]["backward_scale"] == [0]
    assert "note" in doc["scale"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("pair", [("C", "M(1000000000000000000000000)"),
                                  ("M(2000000000000000000000000)", "M(2)")])
def test_classify_of_25_digit_matrix_sizes_prints_a_bounded_scale(capsys, pair, fmt):
    # the scale {0, ..., floor(m/n)} is printed by its rank budget, not
    # member by member
    assert main(["classify", *pair, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert len((out + err).encode()) < 2000
    if fmt == "json":
        budgets = json.loads(out)["scale"]
        assert 10**24 in (budgets.get("forward_budget"), budgets.get("backward_budget"))


def test_classify_undecided_exits_3(capsys):
    assert main(["classify", "CAR", "Z"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("Undecided")


def test_classify_uhf_pair_has_no_scale_note(capsys):
    assert main(["classify", "CAR", "UHF(2:inf)", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Isomorphic"
    assert "scale" not in doc


# ---------------------------------------------------------------------------
# oz

@pytest.fixture
def phi_file(tmp_path):
    return write(tmp_path, "phi.json", diag_map_doc(3, ["1", "1/2"]))


@pytest.fixture
def psi_file(tmp_path):
    return write(tmp_path, "psi.json", diag_map_doc(4, ["1", "1/2", "1/4"]))


def test_oz_check_passes(phi_file, capsys):
    assert main(["oz", "check", phi_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["max_violation"] <= doc["tolerance"]


def test_oz_check_on_one_point_is_vacuous(phi_file, tmp_path, capsys):
    assert main(["oz", "check", phi_file]) == 0
    assert capsys.readouterr().out == "order zero check: vacuous (0 trials)\n"
    assert main(["oz", "check", phi_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["vacuous"], doc["passed"], doc["trials"]) == (True, True, 0)
    two_points = {**diag_map_doc(3, ["1"]), "domain": [1, 1], "mult": [1, 1],
                  "blocks": [[["1"]], [["1/2"]]]}
    assert main(["oz", "check", write(tmp_path, "two.json", two_points)]) == 0
    assert capsys.readouterr().out.startswith("order zero check: pass (")


def test_oz_check_rejects_negative_trials(phi_file, capsys):
    for trials, code, err in [
        ("-5", 1, "error: argument --trials: trials must be >= 0\n"),
        ("-1", 1, "error: argument --trials: trials must be >= 0\n"),
        ("x", 1, "error: argument --trials: invalid int value: 'x'\n"),
        ("0", 0, ""),
    ]:
        assert main(["oz", "check", phi_file, "--trials", trials]) == code
        out = "order zero check: vacuous (0 trials)\n" if code == 0 else ""
        assert capsys.readouterr() == (out, err)


def test_oz_check_rejects_bad_tol(phi_file, capsys):
    assert main(["oz", "check", phi_file, "--tol", "0"]) == 1
    assert "tolerance must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["check", "compare", "witness"])
def test_oz_rejects_a_non_finite_tol(phi_file, psi_file, capsys, command, tol):
    maps = [phi_file] if command == "check" else [phi_file, psi_file]
    assert main(["oz", command, *maps, "--tol", tol]) == 1
    assert "tolerance must be > 0 and finite" in capsys.readouterr().err


def test_oz_eps_cut(phi_file, capsys):
    assert main(["oz", "eps", phi_file, "--eps", "1/2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == SCHEMA
    assert doc["blocks"] == [[["1/2", "0"], ["0", "0"]]]


def test_oz_eps_rejects_negative(phi_file, tmp_path, capsys):
    assert main(["oz", "eps", phi_file, "--eps=-1/2"]) == 1
    assert "invalid eps" in capsys.readouterr().err
    assert main(["oz", "eps", phi_file, "--eps", "junk"]) == 1
    # in psd mode -1e-400 rounds to the float -0.0, which is still negative
    psd = write(tmp_path, "psd.json", {"schema": SCHEMA, "domain": [1], "target_dim": 1,
                                       "mult": [1], "blocks": [[[0.5]]], "mode": "psd"})
    capsys.readouterr()
    assert main(["oz", "eps", psd, "--eps=-1e-400"]) == 1
    assert capsys.readouterr().err == "error: invalid eps: eps must be >= 0\n"


def test_oz_compare_leq_carries_witness(phi_file, psi_file, capsys):
    assert main(["oz", "compare", phi_file, psi_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "leq"
    assert doc["witness_residual"] <= doc["tolerance"]


def test_oz_compare_failure_carries_certificate(phi_file, psi_file, capsys):
    assert main(["oz", "compare", psi_file, phi_file, "--format", "json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "geq"
    assert doc["certificate"] == {"point": "x1", "phi_rank": 3, "psi_rank": 2}
    # the third largest entry of (1, 1/2, 1/4): rank 2 cannot reach it
    assert doc["obstruction_margin"] == 0.25


def test_oz_compare_prints_the_obstruction_margin(phi_file, psi_file, capsys):
    assert main(["oz", "compare", psi_file, phi_file]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "geq",
        "rank exceeds at x1: 3 > 2",
        "obstruction margin 2.500e-01 (no witness residual is below it)",
    ]
    # a dominated pair prints no margin
    assert main(["oz", "compare", phi_file, psi_file, "--format", "json"]) == 0
    assert "obstruction_margin" not in json.loads(capsys.readouterr().out)


def test_oz_compare_names_the_rank_cutoff_where_a_psd_rank_decides(phi_file, tmp_path, capsys):
    def one_point(name, block, mode):
        doc = {**diag_map_doc(1, ["1"]), "blocks": [block], "mode": mode}
        return write(tmp_path, name, doc)

    half = one_point("half.json", [[0.5]], "psd")
    tiny = one_point("tiny.json", [[1e-11]], "psd")
    assert main(["oz", "compare", half, tiny]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "geq",
        "rank exceeds at x1: 1 > 0",
        "rank cutoff 1e-10 at x1: phi's smallest counted eigenvalue 5.000e-01, "
        "psi's largest uncounted 1.000e-11",
        "obstruction margin 5.000e-01 (no witness residual is below it)",
    ]
    assert main(["oz", "compare", half, tiny, "--format", "json"]) == 4
    assert json.loads(capsys.readouterr().out)["rank_cutoff"] == {
        "cutoff": 1e-10,
        "phi_smallest_counted": 0.5,
        "psi_largest_uncounted": 1e-11,
    }
    # a diag phi against psi = 0 in psd mode: psi's rank still decides, and
    # a psi that counts every eigenvalue has none uncounted
    zero = one_point("zero.json", [[0.0]], "psd")
    assert main(["oz", "compare", phi_file, zero, "--format", "json"]) == 4
    assert json.loads(capsys.readouterr().out)["rank_cutoff"]["psi_largest_uncounted"] == 0.0
    two = {**diag_map_doc(2, ["1"]), "mult": [2], "blocks": [[[1.0, 0.0], [0.0, 0.5]]],
           "mode": "psd"}
    assert main(["oz", "compare", write(tmp_path, "two.json", two), half, "--format", "json"]) == 4
    assert json.loads(capsys.readouterr().out)["rank_cutoff"] == {
        "cutoff": 1e-10,
        "phi_smallest_counted": 0.5,
        "psi_largest_uncounted": None,
    }
    # the same pair in diag mode counts exact entries: equal, and no cutoff
    exact = one_point("exact.json", [["1/100000000000"]], "diag")
    assert main(["oz", "compare", one_point("h.json", [["1/2"]], "diag"), exact]) == 0
    assert "cutoff" not in capsys.readouterr().out


def test_oz_witness_round_trip(phi_file, psi_file, capsys):
    assert main(["oz", "witness", phi_file, psi_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["witness"]) == 4
    assert all(len(row) == 3 for row in doc["witness"])


def test_oz_witness_obstructed_pair(phi_file, psi_file, capsys):
    assert main(["oz", "witness", psi_file, phi_file, "--format", "json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert "reason" in doc


def test_oz_compare_refuses_maps_on_different_domains(tmp_path, capsys):
    three = {**diag_map_doc(3, ["1"]), "domain": [1, 1, 1], "mult": [1, 1, 1],
             "blocks": [[["1"]], [["1"]], [["1"]]]}
    two = {**diag_map_doc(3, ["1"]), "domain": [1, 1], "mult": [1, 0],
           "blocks": [[["1"]], []]}
    a, b = write(tmp_path, "three.json", three), write(tmp_path, "two.json", two)
    for command in ("compare", "witness"):
        assert main(["oz", command, a, b]) == 1
        assert capsys.readouterr() == (
            "", "error: comparison needs a common domain, got [1, 1, 1] and [1, 1]\n"
        )


def test_oz_compare_and_witness_on_a_matrix_block(tmp_path, capsys):
    # W(M_2, M_k) = W(C, M_k): the ranks of the one block decide, and the
    # witness is c (x) 1_2.
    small = {**diag_map_doc(5, ["1/2"]), "domain": [2]}
    big = {**diag_map_doc(5, ["1", "3/4"]), "domain": [2]}
    a, b = write(tmp_path, "small.json", small), write(tmp_path, "big.json", big)
    assert main(["oz", "compare", a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "leq" and out[1].startswith("witness residual ")
    assert main(["oz", "compare", b, a, "--format", "json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"] == {"point": "x1", "phi_rank": 2, "psi_rank": 1}
    assert main(["oz", "witness", a, b, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["residual"] < 1e-12
    assert main(["oz", "witness", a, b]) == 0
    assert capsys.readouterr().out.startswith("witness accepted: ")


def test_oz_tiny_exact_entry_is_compared_and_witnessed(phi_file, tmp_path, capsys):
    half = write(tmp_path, "half.json", diag_map_doc(2, ["1/2"]))
    tiny = write(tmp_path, "tiny.json", diag_map_doc(2, ["1/1000000000000"]))
    assert main(["oz", "compare", half, tiny]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "equal"
    assert main(["oz", "compare", half, tiny, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness_residual"] <= doc["tolerance"]
    assert main(["oz", "witness", half, tiny]) == 0
    assert capsys.readouterr().out.startswith("witness accepted: ")


def test_oz_rejects_malformed_map(tmp_path, capsys):
    doc = diag_map_doc(3, ["1", "1/2"])
    doc["blocks"] = [[["1", "1/3"], ["0", "1/2"]]]  # off-diagonal entry
    bad = write(tmp_path, "bad.json", doc)
    assert main(["oz", "check", bad]) == 1
    assert "invalid map document" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [("target_dim", 1.5), ("target_dim", True), ("mult", [1.9]), ("domain", [1.2])],
)
def test_oz_map_sizes_must_be_json_integers(tmp_path, phi_file, capsys, field, value):
    # int() would truncate these to sizes that fit the blocks
    doc = {**diag_map_doc(3, ["1"]), field: value}
    bad = write(tmp_path, "bad.json", doc)
    assert main(["oz", "compare", bad, phi_file]) == 1
    assert f"{field} must be a JSON integer" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [float("inf"), float("nan")])
def test_oz_rejects_non_finite_psd_block(tmp_path, capsys, entry):
    doc = {
        "schema": SCHEMA,
        "domain": [1],
        "target_dim": 2,
        "mult": [1],
        "blocks": [[[entry]]],
        "mode": "psd",
    }
    bad = write(tmp_path, "bad.json", doc)
    assert main(["oz", "check", bad]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_oz_refuses_a_bool_psd_entry(tmp_path, capsys):
    # [[true]] was read as [[1.0]]: compare printed equal and exited 0
    doc = {"schema": SCHEMA, "domain": [1], "target_dim": 1, "mult": [1],
           "blocks": [[[True]]], "mode": "psd"}
    bad = write(tmp_path, "bad.json", doc)
    assert main(["oz", "compare", bad, bad]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("invalid map document: psd block 0 entry (0, 0) must be a number, got true\n")


def psd_pair_docs(phi_rows, psi_rows):
    """A one-point psd pair into M(2) with the given 2 x 2 blocks."""
    return [{"schema": SCHEMA, "domain": [1], "target_dim": 2, "mult": [2],
             "blocks": [rows], "mode": "psd"} for rows in (phi_rows, psi_rows)]


def test_oz_reads_rational_strings_in_a_psd_block(tmp_path, capsys):
    # "1/2" exited 1 with "could not convert string to float"; a rational
    # string is read exactly and rounded once, so it prints what its float does
    rational = psd_pair_docs([["1/3", "1/3"], ["1/3", "1/3"]], [["3/4", "1/4"], ["1/4", "3/4"]])
    floats = psd_pair_docs([[1 / 3, 1 / 3], [1 / 3, 1 / 3]], [[0.75, 0.25], [0.25, 0.75]])
    printed = []
    for docs in (rational, floats):
        phi, psi = (write(tmp_path, f"{name}.json", doc) for name, doc in zip("ab", docs))
        for sub in ("compare", "witness"):
            for fmt in ([], ["--format", "json"]):
                assert main(["oz", sub, phi, psi, *fmt]) == 0
                printed.append(capsys.readouterr())
    assert printed[:4] == printed[4:]
    assert printed[0].out.splitlines()[0] == "leq"
    assert json.loads(printed[3].out)["passed"] is True


@pytest.mark.parametrize("entry, message", [
    ("abc", "psd block 0 entry (1, 0) must be a number, got abc"),
    ("1/0", "psd block 0 entry (1, 0) must be a number, got 1/0"),
    ("1/2/3", "psd block 0 entry (1, 0) must be a number, got 1/2/3"),
    (False, "psd block 0 entry (1, 0) must be a number, got false"),
    ("inf", "block 0 has a non-finite entry"),
    ("nan", "block 0 has a non-finite entry"),
    ("1e400", "block 0 has a non-finite entry"),
    ("10**400/1", "psd block 0 entry (1, 0) must be a number, got 10**400/1"),
])
def test_oz_names_a_psd_entry_that_is_not_a_number(tmp_path, capsys, entry, message):
    doc, _ = psd_pair_docs([["1/2", "0"], [entry, "1/2"]], [])
    bad = write(tmp_path, "bad.json", doc)
    assert main(["oz", "witness", bad, bad]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}: invalid map document: {message}\n"


def huge_and_ok(tmp_path):
    """A map into a target of 10^30 that uses 1 dimension, and one into 3."""
    big = {**diag_map_doc(10**30, ["1/2"]), "domain": [1, 1], "mult": [1, 0],
           "blocks": [[["1/2"]], []]}
    ok = {**diag_map_doc(3, ["1"]), "domain": [1, 1], "mult": [1, 1],
          "blocks": [[["1"]], [["1/2"]]]}
    return write(tmp_path, "big.json", big), write(tmp_path, "ok.json", ok)


@pytest.mark.parametrize("command", ["compare", "witness", "check"])
def test_oz_huge_target_is_a_value_in_text(tmp_path, capsys, command):
    # the witness is built and verified on the used corner alone, and the
    # check probes the images on that corner
    big, ok = huge_and_ok(tmp_path)
    argv = ["oz", "check", big] if command == "check" else ["oz", command, big, ok]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith({"compare": "leq\n", "witness": "witness accepted: ",
                           "check": "order zero check: pass "}[command])


@pytest.mark.parametrize("command", ["witness"])
def test_oz_target_too_large_for_a_dense_matrix_is_an_input_error(tmp_path, capsys, command):
    # the witness's JSON lists the zero-padded matrix
    big, ok = huge_and_ok(tmp_path)
    assert main(["oz", command, big, ok, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: target_dim too large")


def test_classify_rejects_a_strong_pseudoprime(capsys):
    assert main(["classify", "UHF(318665857834031151167461:inf)", "CAR"]) == 1
    assert "is not prime" in capsys.readouterr().err
    assert main(["classify", "UHF(618970019642690137449562111:inf)", "CAR"]) == 1
    assert "not certified" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# axioms

def test_axioms_pass(capsys):
    assert main(["axioms", "extnat", "--bound", "8", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    names = [c["axiom"] for c in doc["checks"]]
    assert names[:4] == ["O1", "O2", "O3", "O4"]
    assert "M1[x2]" in names and "M2[x5]" in names
    assert all(c["witness"] is None for c in doc["checks"])


def test_axioms_bound_is_limited(capsys):
    assert main(["axioms", "extnat", "--bound", "65"]) == 1
    assert "0..64" in capsys.readouterr().err


def test_axioms_has_no_fault_option(capsys):
    assert main(["axioms", "extnat", "--fault", "overflow"]) == 1
    assert "unrecognized arguments: --fault overflow" in capsys.readouterr().err


def test_axioms_leq_with_a_finite_only_sup_fails_o2(capsys):
    # with aux = leq the lower set of inf contains inf, whose supremum the
    # finite-only oracle leaves undefined: O2 is the one failing check
    args = ["axioms", "extnat", "--bound", "6", "--aux", "leq", "--sup", "finite-only"]
    assert main(args) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if ": FAIL" in line] == [
        "  O2: FAIL (sup undefined on the lower set of inf)"
    ]
    assert main([*args, "--format", "json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["axiom"] for c in failed] == ["O2"]
    assert failed[0]["witness"] == "sup undefined on the lower set of inf"
    assert doc["passed"] is False


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_axioms_unknown_carrier_rejected(capsys):
    assert main(["axioms", "dyadic"]) == 1


# ---------------------------------------------------------------------------
# Inputs that once ended in a traceback or a wrong exit code.

def test_oz_compare_exits_4_when_its_witness_is_rejected(tmp_path, capsys):
    # 10^-400 counts for the rank but has no float scale, so the ranks say
    # equal while the witness misses phi; the exit code follows the witness.
    half = write(tmp_path, "half.json", diag_map_doc(2, ["1/2"]))
    tiny = write(tmp_path, "tiny.json", diag_map_doc(2, [f"1/{10 ** 400}"]))
    assert main(["oz", "compare", half, tiny]) == 4
    assert capsys.readouterr().out == (
        "equal\nwitness REJECTED: residual 5.000e-01 (tol 1e-06)\n"
    )
    assert main(["oz", "compare", half, tiny, "--format", "json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["witness_passed"]) == ("equal", False)
    assert main(["oz", "witness", half, tiny]) == 4
    assert capsys.readouterr().out.startswith("witness REJECTED: residual 5.000e-01")


def test_oz_compare_keeps_the_bytes_of_a_passing_witness(phi_file, psi_file, capsys):
    assert main(["oz", "compare", phi_file, psi_file]) == 0
    assert capsys.readouterr().out == "leq\nwitness residual 0.000e+00 (tol 1e-06)\n"
    assert main(["oz", "compare", phi_file, psi_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"schema", "verdict", "witness_residual", "tolerance"}


def test_compare_refuses_a_space_that_is_not_an_object(tmp_path, space_file, capsys):
    nu = write(tmp_path, "nu.json", {**mf_doc([("p", 1)]), "space": ["a"]})
    assert main(["compare", space_file, nu, nu]) == 1
    assert "invalid document" in capsys.readouterr().err


def test_oz_eps_beyond_the_float_range_is_the_full_cut(tmp_path, capsys):
    doc = {"schema": SCHEMA, "domain": [1], "target_dim": 2, "mult": [2],
           "blocks": [[[0.5, 0.25], [0.25, 0.5]]], "mode": "psd"}
    psd = write(tmp_path, "psd.json", doc)
    assert main(["oz", "eps", psd, "--eps", "2"]) == 0
    full_cut = capsys.readouterr().out
    assert main(["oz", "eps", psd, "--eps", "1e400"]) == 0
    assert capsys.readouterr().out == full_cut


def test_eval_of_an_ideal_lattice_too_large_to_count(capsys):
    # F(2,3)^(x)14 has 2^14 simple summands; 2^(2^14) has more digits than
    # Python prints, so the element count stays a power.
    chain = " (x) ".join(["F(2,3)"] * 14)
    assert main(["eval", "--ww", chain, "O2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("= ideal lattice on 16384 summands (2^16384 elements, + = ∩)")


def test_eval_of_a_long_absorbed_chain(capsys):
    chain = " (x) ".join(["Z"] * 70)
    assert main(["eval", chain, "Z"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"W({chain}, Z) = W(Z)"
    # one R5 step absorbs all 70 factors, then R1
    assert len(out) == 1 + 2


def test_nesting_past_the_parser_bound_is_an_input_error(capsys):
    deep = "stab(" * 5000 + "Z" + ")" * 5000
    for argv in (["eval", deep, "Z"], ["eval", "--ww", "Z", deep], ["classify", deep, "C"]):
        assert main(argv) == 1
        # the 101st parenthesis opens at 100 * len("stab(") + 4
        assert capsys.readouterr().err.endswith("more than 100 open parentheses at position 504\n")


def test_a_parse_error_quotes_a_window_of_a_long_expression(capsys):
    deep = "stab(" * 5000 + "Z" + ")" * 5000
    assert main(["eval", deep, "Z"]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert err == (
        f"error: cannot parse '…{deep[474:534]}…': "
        "more than 100 open parentheses at position 504\n"
    )


@pytest.mark.parametrize(
    "text,quote",
    [
        # at most 60 characters: quoted whole
        ("M(2) (+) " * 6 + "M(2", "M(2) (+) " * 6 + "M(2"),
        # longer: 30 characters either side of the position, cut with …
        ("M(2) (+) " * 10 + "M(2", "…M(2) (+) M(2) (+) M(2) (+) M(2"),
        ("M(2" + " (+) M(2)" * 10, "M(2 (+) M(2) (+) M(2) (+) M(2) (+)…"),
        ("C (+) " * 10 + "C)", "… (+) C (+) C (+) C (+) C (+) C)"),
    ],
    ids=["short", "error-at-end", "error-at-start", "just-past-60"],
)
def test_a_parse_error_quotes_by_expression_length(text, quote, capsys):
    assert main(["classify", text, "C"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot parse '{quote}': ")


@pytest.mark.parametrize(
    "nested,target,codes",
    [
        ("stab(" * 100 + "Z" + ")" * 100, "Z", (2, 0, 3)),
        ("(" * 100 + "Z" + ")" * 100, "Z", (0, 0, 3)),
        ("Z (x) (" * 100 + "Z" + ")" * 100, "Z", (0, 0, 3)),
        ("C (+) (" * 100 + "Z" + ")" * 100, "M(2)", (0, 0, 3)),
    ],
    ids=["stab", "parentheses", "right-nested-tensor", "right-nested-sum"],
)
def test_nesting_at_the_parser_bound_evaluates(nested, target, codes, capsys):
    for argv, code in zip((["eval"], ["eval", "--ww"], ["classify"]), codes):
        assert main(argv + [nested, target]) == code
    assert capsys.readouterr().err == ""


def test_a_long_sum_is_the_sum_of_its_summands(capsys):
    summands = ["C", "M(2)", "Z", "CX(p,q)", "F(2,3)", "K", "stab(CAR)", "Minf(O2)"] * 125
    target = parse_algebra("M(3)")
    values = [eval_W(parse_algebra(s), target)[0] for s in summands]
    assert main(["eval", " (+) ".join(summands), "M(3)"]) == 0
    first = capsys.readouterr().out.split("\n", 1)[0]
    assert first.endswith(" = " + value_text(direct_sum_value(values)))


def test_eval_of_a_thousand_factor_absorbed_chain(capsys):
    chain = " (x) ".join(["Z"] * 1000)
    assert main(["eval", chain, "Z"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"W({chain}, Z) = W(Z)"
    assert len(out) == 1 + 2


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{}", b"[" * 100000, b'{"schema": "cuntz/1", "domain": [1e400]}'],
    ids=["not-utf-8", "nested-too-deep", "infinite-size"],
)
def test_unreadable_documents_are_input_errors(tmp_path, space_file, raw, capsys):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    assert main(["compare", space_file, str(path), str(path)]) == 1
    assert main(["oz", "check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# Every input ends in an exit code, never in an exception.

LEAVES = [
    "C", "M(1)", "M(3)", "F(2,3)", "F(4)", "CX(p,q)", "CX(1)", "CAR", "Q", "Z", "O2",
    "Oinf", "Kirchberg(other)", "K", "UHF(2:inf,3:2)", "UHF(3:inf)", "UHF(5:1)",
]
SSA_TEXT = ["Z", "CAR", "Q", "O2", "Oinf", "UHF(3:inf)"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(LEAVES), min_size=2, max_size=4), st.sampled_from(LEAVES))
def test_every_order_of_a_sum_has_one_value(summands, target):
    # R4 makes every summand its own part, so the value of a flat sum is the
    # direct sum of the values of its summands, whatever their order
    def value(a):
        return eval_W(parse_algebra(a), parse_algebra(target))[0]

    singles = [value(s) for s in summands]
    texts = {value_text(value(" (+) ".join(p))) for p in set(permutations(summands))}
    assert len(texts) == 1
    got = texts.pop()
    # R6-zero reads {0} off a sum whose summands all admit only zero maps
    # before R4 can split it
    if got != value_text(direct_sum_value(singles)):
        assert got == "{0}" and all(v == ZeroSG() for v in singles)


@st.composite
def trees(draw, depth):
    # Binary trees: both operands of a chain may be compound.
    shape = draw(st.integers(0, 4)) if depth else 0
    if shape == 0:
        return draw(st.sampled_from(LEAVES))
    a = draw(trees(depth - 1))
    if shape == 1:
        op = draw(st.sampled_from([" (x) ", " (+) "]))
        return f"{a}{op}({draw(trees(depth - 1))})"
    return ["stab({})", "Minf({})", "M(2) (x) ({})"][shape - 2].format(a)


@st.composite
def expressions(draw, depth):
    # Grown one layer at a time, so that the nesting can pass the parser's
    # bound of 100 open parentheses without deep recursion in the strategy;
    # each layer joins a shallow tree on either side.
    text = draw(trees(3))
    for _ in range(draw(st.integers(0, depth))):
        shape = draw(st.integers(0, 4))
        if shape < 2:
            op = draw(st.sampled_from([" (x) ", " (+) "]))
            other = draw(trees(3))
            text = f"{text}{op}({other})" if shape == 0 else f"{other}{op}({text})"
        else:
            text = ["stab({})", "Minf({})", "M(2) (x) ({})"][shape - 2].format(text)
    return text


EXPRESSIONS = st.one_of(
    trees(20),
    expressions(150),
    st.builds(lambda d, n: " (x) ".join([d] * n), st.sampled_from(SSA_TEXT), st.integers(1, 100)),
    st.lists(trees(2), min_size=1, max_size=100).map(" (x) ".join),
    st.lists(
        st.sampled_from(["C", "M", "UHF", "stab", "Z", "(", ")", "(x)", "(+)", ",", ":", "2",
                         "inf", "0", "#", " ", "²"]),
        max_size=30,
    ).map("".join),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    if code == 1:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS, EXPRESSIONS)
def test_every_expression_pair_ends_in_an_exit_code(a, b):
    for argv in (["eval", a, b], ["eval", "--ww", a, b], ["classify", a, b]):
        run_cli(argv)


WEIRD = [math.inf, -math.inf, math.nan, -1, 0, 1, 2.5, "1/0", "inf", "nan", "x", "",
         [], {}, None, True, ["a"], [[]]]
SPACE_DOCS = [{"kind": "discrete", "points": ["p", "q"]}, {"kind": "interval"}]
MF_DOCS = [
    {"space": SPACE_DOCS[0], "atoms": [{"at": "p", "mult": 2}, {"at": "q", "mult": "inf"}],
     "essential": []},
    {"space": SPACE_DOCS[1], "atoms": [{"at": "1/3", "mult": 1}], "essential": [["1/2", "1"]]},
]
MAP_DOCS = [
    {"domain": [1, 1], "target_dim": 3, "mult": [2, 0], "blocks": [[["1", "0"], ["0", "1/2"]], []],
     "mode": "diag"},
    {"domain": [1], "target_dim": 2, "mult": [2], "blocks": [[[0.5, 0.25], [0.25, 0.5]]],
     "mode": "psd"},
    {"domain": [2], "target_dim": 2, "mult": [1], "blocks": [[["1/2"]]]},
]


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def documents(draw, templates):
    # Dimensions stay small: the order-zero lab builds dense target-size
    # matrices, so a well-formed document with a huge target_dim is a memory
    # hazard rather than malformed input.
    doc = copy.deepcopy(draw(st.sampled_from(templates)))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        # A copy: a later mutation can write into an inserted list, and
        # WEIRD itself must not change between examples.
        value = copy.deepcopy(draw(st.sampled_from(WEIRD)))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    text = json.dumps({"schema": SCHEMA, **doc} if isinstance(doc, dict) else doc)
    return draw(st.sampled_from([text, text[: len(text) // 2], text.replace("0.5", "1e400")]))


@settings(max_examples=150, deadline=None)
@given(
    documents(SPACE_DOCS), documents(MF_DOCS), documents(MF_DOCS),
    documents(MAP_DOCS), documents(MAP_DOCS),
    st.sampled_from(["0", "1/2", "2", "1e400", "-1", "nan", "inf", "1/0", "x"]),
)
def test_every_document_ends_in_an_exit_code(space, nu, mu, phi, psi, eps):
    with tempfile.TemporaryDirectory() as tmp:
        names = {}
        for name, text in [("space", space), ("nu", nu), ("mu", mu), ("phi", phi), ("psi", psi)]:
            names[name] = str(Path(tmp) / f"{name}.json")
            Path(names[name]).write_text(text, encoding="utf-8")
        run_cli(["compare", names["space"], names["nu"], names["mu"]])
        run_cli(["oz", "check", names["phi"], "--trials", "2"])
        run_cli(["oz", "eps", names["phi"], "--eps", eps])
        run_cli(["oz", "compare", names["phi"], names["psi"]])
        run_cli(["oz", "witness", names["phi"], names["psi"]])
