import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsslab.cli import main
from qsslab.schemes import (
    SchemeSpec,
    build_block_scheme,
    build_threshold34,
    identity_assignment,
    load_scheme,
    save_scheme,
)
from qsslab.structures import HYPERSTAR_CATALOG, structure_to_dict, threshold_structure

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


def write_pair_scheme(tmp_path):
    """A valid two-particle scheme, outside the circuit's and the block family's sizes."""
    doc = {
        "num_particles": 2,
        "basis_images": {
            "0": [{"ket": "00", "re": 1.0, "im": 0.0}],
            "1": [{"ket": "11", "re": 1.0, "im": 0.0}],
        },
        "assignment": {"P1": [1], "P2": [2]},
    }
    path = tmp_path / "pair.json"
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
        assert main(["build", "block", "--n", "14", "--b", "1"]) == 2


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

    def test_measure_protocol_keeps_its_size_limit(self, tmp_path, capsys):
        # block(8) builds and verifies, but the measure simulation stops at 7 particles
        path = tmp_path / "block8.json"
        path.write_text(json.dumps(save_scheme(build_block_scheme(8, [1])[0])))
        assert main(
            ["reconstruct", str(path), "--set", "1,2", "--protocol", "measure", "--block", "1"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

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

    def test_text_out_writes_file(self, tmp_path, threshold34_files, capsys):
        scheme, _ = threshold34_files
        out = tmp_path / "fidelities.txt"
        argv = ["reconstruct", scheme, "--set", "1,3,4", "--trials", "2", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0].startswith("trial 1: fidelity ")
        assert lines[-1].startswith("min fidelity: ")

    def test_unauthorized_circuit_set(self, threshold34_files):
        scheme, _ = threshold34_files
        assert main(["reconstruct", scheme, "--set", "1,2", "--protocol", "circuit"]) == 2


# ---------------------------------------------------------------------------
# tables


class TestTables:
    def test_json_matches_golden_bytes(self, capsys):
        assert main(["tables", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert out == GOLDEN_TABLES.read_text()
        assert err == ""  # each row's route is a debug event, off by default

    def test_default_format_is_json(self, capsys):
        assert main(["tables"]) == 0
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
        ["assign", "search", "--target", "GAMMA", "--scheme", "SCHEME"],
        ["reconstruct", "PAIR", "--set", "1,2", "--protocol", "measure", "--block", "1"],
        ["reconstruct", "PAIR", "--set", "1,2", "--protocol", "circuit"],
        ["reconstruct", "SCHEME", "--set", "1,3,4", "--seed", "-1"],
        ["scheme", "verify", "SCHEME", "GAMMA", "--out", "MISSING/report.txt"],
        ["structure", "check", "MISSING"],
        ["structure", "check", "DIR"],
    ],
)
def test_input_error_exit2_one_line(tmp_path, threshold34_files, capsys, argv):
    scheme, gamma = threshold34_files
    paths = {
        "SCHEME": scheme,
        "GAMMA": gamma,
        "PAIR": write_pair_scheme(tmp_path),
        "DIR": str(tmp_path),
    }
    argv = [paths.get(a, a.replace("MISSING", str(tmp_path / "missing"))) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _scheme_doc(**changes):
    doc = save_scheme(build_threshold34())
    doc.update(changes)
    return doc


def _first_entry(**changes):
    doc = save_scheme(build_threshold34())
    entry = doc["basis_images"]["0"][0]
    entry.update(changes)
    for key in [k for k, v in changes.items() if v is None]:
        del entry[key]
    return doc


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("scheme", _scheme_doc(assignment={"P1": 1})),
        ("scheme", _scheme_doc(assignment=[1, 2, 3, 4])),
        ("scheme", _scheme_doc(assignment={"P01": [1, 2], "P2": [3, 4]})),
        ("scheme", _scheme_doc(basis_images=[[1, 0], [0, 1]])),
        ("scheme", _scheme_doc(num_particles=float("inf"))),
        ("scheme", _first_entry(ket=None)),
        ("scheme", _first_entry(ket=1111)),
        ("scheme", _first_entry(re="x")),
        ("scheme", _first_entry(re=float("nan"))),
        ("structure", {"players": 4, "minimal_authorized": [["1", 2, 3], [1, 4]]}),
        ("structure", {"players": 4, "minimal_authorized": [[1.0, 2, 3], [1, 4]]}),
        ("structure", {"players": 4, "minimal_authorized": [[None, 2, 3], [1, 4]]}),
        ("structure", {"players": float("inf"), "minimal_authorized": [[1, 2]]}),
        ("structure", {"players": 3, "minimal_authorized": [[True, 2], [2, 3]]}),
        ("scheme", _scheme_doc(assignment={"P1": [1.5], "P2": [2], "P3": [3], "P4": [4]})),
        ("scheme", _scheme_doc(assignment={"P1": [True], "P2": [2], "P3": [3], "P4": [4]})),
    ],
)
def test_malformed_document_exit2(tmp_path, threshold34_files, capsys, kind, doc):
    scheme, gamma = threshold34_files
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["scheme", "verify", str(path), gamma] if kind == "scheme" else [
        "structure", "check", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: bad {kind} {path}: ")


@pytest.mark.parametrize(
    "field, value", [("re", float("inf")), ("im", float("-inf")), ("re", float("nan"))]
)
def test_non_finite_amplitude_exit2_without_warning(
    tmp_path, threshold34_files, capsys, field, value
):
    _, gamma = threshold34_files
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(_first_entry(**{field: value})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["scheme", "verify", str(path), gamma]) == 2
    assert caught == []
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["structure", "check", "GAMMA", "--format", "csv"],
        ["reconstruct", "SCHEME", "--set", "1,3,4", "--format", "csv"],
        ["reconstruct", "SCHEME", "--set", "1,3,4", "--tolerance", "1e-9"],
        ["tables", "--format", "text"],
        ["assign", "induce", "--scheme", "SCHEME", "--base", "GAMMA", "--format", "json"],
        ["assign", "search", "--target", "GAMMA", "--base-n", "4", "--base-b", "1",
         "--format", "json"],
    ],
)
def test_removed_option_exit2(threshold34_files, argv):
    scheme, gamma = threshold34_files
    argv = [{"SCHEME": scheme, "GAMMA": gamma}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# fuzzing: malformed documents and argv lists end in a documented exit code


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 7), max_size=3),
)
# numbers that may stand where a document holds an integer or a finite amplitude
_NUMBER = st.one_of(st.booleans(), st.floats(), st.sampled_from([float("inf"), float("-inf")]))
# valid (scheme, structure) pairs of at most 6 particles, so that no case allocates a large array
_VALID_PAIRS = [(build_threshold34(), threshold_structure(3, 4))] + [
    build_block_scheme(m, [1, 2][: m - 2]) for m in (3, 4, 5, 6)
]
_VALID_STRUCTURES = [structure_to_dict(entry.structure) for entry in HYPERSTAR_CATALOG]


@st.composite
def _documents(draw):
    """A scheme and a structure document: valid, redistributed or with one field corrupted."""
    scheme, gamma = draw(st.sampled_from(_VALID_PAIRS))
    doc = save_scheme(scheme)
    m = doc["num_particles"]
    if draw(st.booleans()):  # redistribute, DEALER holding the particles drawn as 0
        players = draw(st.integers(1, m))
        doc["assignment"] = {f"P{i}": [] for i in range(1, players + 1)}
        for p, h in enumerate(draw(st.lists(st.integers(0, players), min_size=m, max_size=m)), 1):
            doc["assignment"].setdefault(f"P{h}" if h else "DEALER", []).append(p)
    if draw(st.booleans()):
        structure = structure_to_dict(gamma)
    else:
        structure = copy.deepcopy(draw(st.sampled_from(_VALID_STRUCTURES)))
    corrupt = draw(st.sampled_from(
        ["", "scheme", "entry", "structure", "set", "particle", "player"]))
    if corrupt == "scheme":
        doc[draw(st.sampled_from(["num_particles", "basis_images", "assignment"]))] = draw(_JUNK)
    elif corrupt == "entry":
        doc["basis_images"]["0"][0][draw(st.sampled_from(["ket", "re", "im"]))] = draw(
            st.one_of(_JUNK, _NUMBER))
    elif corrupt == "particle":
        particles = draw(st.sampled_from([ps for ps in doc["assignment"].values() if ps]))
        particles[draw(st.integers(0, len(particles) - 1))] = draw(_NUMBER)
    elif corrupt == "player":
        players = draw(st.sampled_from(structure["minimal_authorized"]))
        players[draw(st.integers(0, len(players) - 1))] = draw(_NUMBER)
    elif corrupt == "structure":
        structure[draw(st.sampled_from(["players", "minimal_authorized"]))] = draw(_JUNK)
    elif corrupt == "set":
        structure["minimal_authorized"].append(
            draw(st.lists(st.one_of(st.integers(0, 6), _JUNK), max_size=3))
        )
    return doc, structure


_VALUE = st.sampled_from(["-1", "0", "1", "2", "3", "1,2", "1,3,4", "2,9", "x", "", "nan", "1e-9"])
_FLAG = st.sampled_from([
    "--format", "--tolerance", "--seed", "--trials", "--set", "--block", "--protocol",
    "--model", "--max-n", "--base-n", "--base-b", "--n", "--b", "--center", "--allow-dealer",
])
_COMMAND = st.sampled_from([
    ["structure", "check", "GAMMA"],
    ["scheme", "verify", "SCHEME", "GAMMA"],
    ["build", "block"],
    ["build", "star"],
    ["assign", "induce", "--scheme", "SCHEME", "--base", "GAMMA"],
    ["assign", "search", "--target", "GAMMA", "--scheme", "SCHEME", "--base", "GAMMA"],
    ["assign", "search", "--target", "GAMMA", "--base-n", "4"],
    ["enumerate"],
    ["reconstruct", "SCHEME", "--set", "1,2,3"],
    ["reconstruct", "SCHEME", "--protocol", "decoder", "--set", "1,2"],
    ["reconstruct", "SCHEME", "--protocol", "measure", "--block", "1", "--set", "1,3"],
])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    docs=_documents(),
    junk=st.sampled_from(["", "scheme", "structure"]),
    junk_doc=_JUNK,
    command=_COMMAND,
    extra=st.one_of(
        st.just(()),
        st.lists(st.tuples(_FLAG, _VALUE), max_size=2).map(lambda pairs: sum(pairs, ())),
        st.lists(st.one_of(_FLAG, _VALUE), max_size=3),
    ),
)
def test_fuzz_exit_codes(tmp_path_factory, docs, junk, junk_doc, command, extra):
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    paths = {"SCHEME": workdir / "scheme.json", "GAMMA": workdir / "gamma.json"}
    scheme_doc, structure_doc = docs
    paths["SCHEME"].write_text(json.dumps(junk_doc if junk == "scheme" else scheme_doc))
    paths["GAMMA"].write_text(json.dumps(junk_doc if junk == "structure" else structure_doc))
    argv = [str(paths[a]) if a in paths else a for a in command] + list(extra)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    assert code in {0, 2, 3, 4, 5}, argv
