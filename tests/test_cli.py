import json
from pathlib import Path

import numpy as np
import pytest

from qsslab.cli import main
from qsslab.schemes import (
    SchemeSpec,
    build_threshold34,
    identity_assignment,
    load_scheme,
    save_scheme,
)
from qsslab.structures import structure_to_dict, threshold_structure

GOLDEN_TABLES = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "tables.json"


@pytest.fixture()
def threshold34_files(tmp_path):
    scheme_path = tmp_path / "threshold34.json"
    scheme_path.write_text(json.dumps(save_scheme(build_threshold34())))
    gamma_path = tmp_path / "threshold34_structure.json"
    gamma_path.write_text(json.dumps(structure_to_dict(threshold_structure(3, 4))))
    return str(scheme_path), str(gamma_path)


def write_over_budget_scheme(tmp_path):
    """14 particles: with the reference qubit, one over the state engine's budget."""
    doc = {
        "num_particles": 14,
        "secret_dim": 2,
        "basis_images": {
            "0": [{"ket": "0" * 14, "re": 1.0, "im": 0.0}],
            "1": [{"ket": "0" * 13 + "1", "re": 1.0, "im": 0.0}],
        },
        "assignment": {f"P{i}": [i] for i in range(1, 15)},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_structure(tmp_path, name, players, sets):
    path = tmp_path / name
    path.write_text(json.dumps({"players": players, "minimal_authorized": sets}))
    return str(path)


# ---------------------------------------------------------------------------
# structure check


class TestStructureCheck:
    def test_threshold34(self, tmp_path, capsys):
        path = write_structure(tmp_path, "g.json", 4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        assert main(["structure", "check", path]) == 0
        out = capsys.readouterr().out
        assert "admissible; |A1|=4 |A2|=6; perfect: infeasible" in out

    def test_threshold23_feasible(self, tmp_path, capsys):
        path = write_structure(tmp_path, "g.json", 3, [[1, 2], [1, 3], [2, 3]])
        assert main(["structure", "check", path]) == 0
        assert "perfect: feasible" in capsys.readouterr().out

    def test_disjoint_sets_exit2(self, tmp_path, capsys):
        path = write_structure(tmp_path, "g.json", 4, [[1, 2], [3, 4]])
        assert main(["structure", "check", path]) == 2
        assert "disjoint authorized sets" in capsys.readouterr().err

    def test_malformed_json_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["structure", "check", str(path)]) == 2

    def test_empty_set_diagnostic(self, tmp_path, capsys):
        path = write_structure(tmp_path, "g.json", 3, [[1, 2], []])
        assert main(["structure", "check", path]) == 2
        assert "[]" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        path = write_structure(tmp_path, "g.json", 3, [[1, 2], [1, 3]])
        assert main(["structure", "check", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] and doc["complement_law"]
        assert doc["a2"] == [[1], [2, 3]]


# ---------------------------------------------------------------------------
# scheme verification


class TestSchemeVerify:
    def test_generalized_passes(self, threshold34_files, capsys):
        scheme, gamma = threshold34_files
        assert main(["scheme", "verify", scheme, gamma]) == 0
        assert "verdict generalized" in capsys.readouterr().out

    def test_perfect_fails_exit4(self, threshold34_files, capsys):
        scheme, gamma = threshold34_files
        assert main(["scheme", "verify", scheme, gamma, "--model", "perfect"]) == 4
        err = capsys.readouterr().err
        assert "verification failure" in err

    def test_corrupted_scheme_exit4(self, tmp_path, threshold34_files, corrupted_scheme):
        _, gamma = threshold34_files
        bad_path = tmp_path / "bad_scheme.json"
        bad_path.write_text(json.dumps(save_scheme(corrupted_scheme)))
        assert main(["scheme", "verify", str(bad_path), gamma]) == 4

    def test_structural_mismatch_exit3(self, tmp_path, threshold34_files):
        scheme, _ = threshold34_files
        claimed = write_structure(tmp_path, "claimed.json", 4, [[1, 2, 3, 4]])
        assert main(["scheme", "verify", scheme, claimed]) == 3

    def test_json_report(self, threshold34_files, capsys):
        scheme, gamma = threshold34_files
        assert main(["scheme", "verify", scheme, gamma, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "generalized"
        assert len(doc["records"]) == 15

    def test_csv_report(self, threshold34_files, capsys):
        scheme, gamma = threshold34_files
        assert main(["scheme", "verify", scheme, gamma, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "subset;class;s_a;s_ra;i_ra;pass"
        assert len(lines) == 16

    def test_bad_tolerance(self, threshold34_files):
        scheme, gamma = threshold34_files
        assert main(["scheme", "verify", scheme, gamma, "--tolerance", "0.1"]) == 2

    def test_resource_limit_exit5(self, tmp_path, capsys):
        scheme_path = write_over_budget_scheme(tmp_path)
        gamma_path = tmp_path / "big_gamma.json"
        gamma_path.write_text(
            json.dumps({"players": 14, "minimal_authorized": [list(range(1, 15))]})
        )
        assert main(["scheme", "verify", scheme_path, str(gamma_path)]) == 5
        assert "resource limit" in capsys.readouterr().err

    @pytest.mark.parametrize("count, code", [(40, 5), (15, 5), (0, 2), (-3, 2)])
    def test_particle_count_checked_before_allocation(
        self, tmp_path, threshold34_files, monkeypatch, capsys, count, code
    ):
        _, gamma = threshold34_files
        doc = save_scheme(build_threshold34())
        doc["num_particles"] = count
        scheme_path = tmp_path / "sized.json"
        scheme_path.write_text(json.dumps(doc))

        def no_allocation(*args, **kwargs):
            raise AssertionError("image table allocated before the size check")

        monkeypatch.setattr(np, "zeros", no_allocation)
        assert main(["scheme", "verify", str(scheme_path), gamma]) == code
        err = capsys.readouterr().err
        assert err.startswith("resource limit: " if code == 5 else "error: ")

    def test_dense_isometry_json_exit4(self, tmp_path, capsys):
        # with this seed S(R) evaluates just above one bit and is clamped
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)))
        scheme_path = tmp_path / "dense.json"
        scheme_path.write_text(json.dumps(save_scheme(SchemeSpec(4, q.T, identity_assignment(4)))))
        gamma_path = tmp_path / "dense_gamma.json"
        gamma_path.write_text(json.dumps(structure_to_dict(threshold_structure(3, 4))))
        code = main(["scheme", "verify", str(scheme_path), str(gamma_path), "--format", "json"])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"
        assert all(isinstance(r["pass"], bool) for r in doc["records"])


# ---------------------------------------------------------------------------
# build


class TestBuild:
    def test_threshold34(self, tmp_path):
        out = tmp_path / "scheme.json"
        assert main(["build", "threshold34", "--out", str(out)]) == 0
        loaded = load_scheme(json.loads(out.read_text()))
        assert loaded == build_threshold34()

    def test_block(self, tmp_path, capsys):
        assert main(["build", "block", "--n", "5", "--b", "1,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_particles"] == 5
        assert doc["realizes"]["minimal_authorized"] == [
            [1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4, 5], [2, 3, 4, 5]
        ]

    def test_star(self, tmp_path, capsys):
        assert main(["build", "star", "--n", "4", "--center", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["realizes"]["minimal_authorized"] == [[1, 2], [1, 3], [1, 4]]

    def test_bad_parameters(self, capsys):
        assert main(["build", "block", "--n", "9", "--b", "1"]) == 2


# ---------------------------------------------------------------------------
# assign


class TestAssign:
    def test_induce(self, tmp_path, capsys):
        assert main(["build", "block", "--n", "5", "--b", "1,2", "--out", str(tmp_path / "base.json")]) == 0
        base_doc = json.loads((tmp_path / "base.json").read_text())
        scheme_doc = {k: base_doc[k] for k in ("num_particles", "secret_dim", "basis_images")}
        scheme_doc["assignment"] = {"P1": [2], "P2": [3], "P3": [4], "P4": [5], "DEALER": [1]}
        scheme_path = tmp_path / "redist.json"
        scheme_path.write_text(json.dumps(scheme_doc))
        base_path = write_structure(
            tmp_path, "base_structure.json", 5,
            [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4, 5], [2, 3, 4, 5]],
        )
        assert main(["assign", "induce", "--scheme", str(scheme_path), "--base", base_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"players": 4, "minimal_authorized": [[1, 2, 3, 4]]}

    def test_search_found(self, tmp_path, capsys):
        target = write_structure(tmp_path, "target.json", 4, [[1, 2, 3], [1, 4]])
        assert main(
            ["assign", "search", "--target", target, "--base-n", "6", "--base-b", "1,2,3",
             "--allow-dealer"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["assignment"] is not None

    def test_search_absent_returns_null(self, tmp_path, threshold34_files, capsys):
        scheme, gamma = threshold34_files
        target = write_structure(tmp_path, "star.json", 4, [[1, 2], [1, 3], [1, 4]])
        assert main(
            ["assign", "search", "--target", target, "--scheme", scheme, "--base", gamma,
             "--allow-dealer"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["assignment"] is None


# ---------------------------------------------------------------------------
# enumerate


class TestEnumerate:
    def test_catalog_numbers_present(self, capsys):
        assert main(["enumerate", "--max-n", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        numbers = {row["catalog_no"] for row in doc["classes"] if row["catalog_no"]}
        assert numbers == set(range(1, 17))
        assert any(row["catalog_no"] is None for row in doc["classes"])

    def test_deterministic_output(self, capsys):
        assert main(["enumerate", "--max-n", "4", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["enumerate", "--max-n", "4", "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_text_format_marks_extras(self, capsys):
        assert main(["enumerate", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "beyond catalog" in out


# ---------------------------------------------------------------------------
# reconstruct


class TestReconstruct:
    def test_circuit_trials(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        assert main(
            ["reconstruct", scheme, "--set", "1,3,4", "--trials", "5", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["fidelities"]) == 5
        assert min(doc["fidelities"]) >= 1.0 - 1e-9

    def test_circuit_deterministic_with_seed(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        args = ["reconstruct", scheme, "--set", "1,3,4", "--trials", "3",
                "--seed", "7", "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_measure_protocol(self, tmp_path, capsys):
        out = tmp_path / "block.json"
        assert main(["build", "block", "--n", "5", "--b", "1,2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(
            ["reconstruct", str(out), "--set", "1,2,4", "--protocol", "measure",
             "--block", "1,2", "--trials", "4", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert min(doc["fidelities"]) >= 1.0 - 1e-9

    def test_decoder(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        assert main(
            ["reconstruct", scheme, "--set", "2,3,4", "--protocol", "decoder",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelities"][0] >= 1.0 - 1e-6

    def test_decoder_refuses_pair(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        assert main(
            ["reconstruct", scheme, "--set", "1,2", "--protocol", "decoder"]
        ) == 4
        assert "decoding failure" in capsys.readouterr().err

    def test_decoder_over_qubit_budget_exit5(self, tmp_path, capsys):
        path = write_over_budget_scheme(tmp_path)
        assert main(["reconstruct", path, "--set", "1,2", "--protocol", "decoder"]) == 5
        assert capsys.readouterr().err.startswith("resource limit: ")

    def test_unauthorized_circuit_set(self, threshold34_files):
        scheme, _ = threshold34_files
        assert main(["reconstruct", scheme, "--set", "1,2", "--protocol", "circuit"]) == 2


# ---------------------------------------------------------------------------
# tables


class TestTables:
    def test_json_matches_golden_bytes(self, capsys):
        assert main(["tables", "--format", "json"]) == 0
        assert capsys.readouterr().out == GOLDEN_TABLES.read_text()

    def test_deterministic_artifacts(self, tmp_path):
        assert main(["tables", "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["tables", "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "feasibility.json").read_bytes() == (
            tmp_path / "b" / "feasibility.json"
        ).read_bytes()
        assert (tmp_path / "a" / "feasibility.csv").read_bytes() == (
            tmp_path / "b" / "feasibility.csv"
        ).read_bytes()

    def test_writes_artifacts(self, tmp_path, feasibility_rows, capsys):
        # the fixture warms nothing here; the command recomputes, which stays fast
        assert main(["tables", "--out-dir", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "feasibility.json").read_text())
        assert len(doc["rows"]) == 16
        csv_text = (tmp_path / "out" / "feasibility.csv").read_text()
        assert csv_text.splitlines()[0].startswith("no;players;structure;pqss;gqss")
        assert len(csv_text.strip().splitlines()) == 17
        unknown = [row for row in doc["rows"] if row["gqss"] == "unknown"]
        assert sorted(row["no"] for row in unknown) == [9, 10]


# ---------------------------------------------------------------------------
# input errors end in exit 2 and one diagnostic line, never a traceback


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "block", "--n", "5"],
        ["build", "star"],
        ["build", "star", "--n", "4"],
        ["reconstruct", "SCHEME", "--set", "1,3,4", "--trials", "0"],
        ["reconstruct", "SCHEME", "--set", "1,3,4", "--trials", "-2"],
        ["reconstruct", "SCHEME", "--set", "1,9", "--protocol", "decoder"],
    ],
)
def test_input_error_exit2_one_line(threshold34_files, capsys, argv):
    scheme, _ = threshold34_files
    argv = [scheme if a == "SCHEME" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
