import json

import pytest

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


def test_oz_check_rejects_bad_tol(phi_file, capsys):
    assert main(["oz", "check", phi_file, "--tol", "0"]) == 1
    assert "tolerance must be > 0" in capsys.readouterr().err


def test_oz_eps_cut(phi_file, capsys):
    assert main(["oz", "eps", phi_file, "--eps", "1/2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == SCHEMA
    assert doc["blocks"] == [[["1/2", "0"], ["0", "0"]]]


def test_oz_eps_rejects_negative(phi_file, capsys):
    assert main(["oz", "eps", phi_file, "--eps=-1/2"]) == 1
    assert "invalid eps" in capsys.readouterr().err
    assert main(["oz", "eps", phi_file, "--eps", "junk"]) == 1


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


def test_axioms_overflow_fault(capsys):
    assert main(["axioms", "extnat", "--bound", "8", "--fault", "overflow"]) == 4
    out = capsys.readouterr().out
    assert "O3: FAIL" in out


def test_axioms_sup_fault(capsys):
    assert (
        main(
            [
                "axioms",
                "extnat",
                "--bound",
                "6",
                "--fault",
                "sup-none",
                "--format",
                "json",
            ]
        )
        == 4
    )
    doc = json.loads(capsys.readouterr().out)
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert failed and failed[0]["axiom"] == "O2"
    assert "sup undefined" in failed[0]["witness"]


def test_axioms_fault_flag_is_hidden():
    from cuntz.cli import build_parser

    help_text = build_parser().format_help()
    assert "--fault" not in help_text


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_axioms_unknown_carrier_rejected(capsys):
    assert main(["axioms", "dyadic"]) == 1
