import contextlib
import copy
import io
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsslab import cli
from qsslab.cli import main
from qsslab.protocols import MAX_TRIALS
from qsslab.schemes import (
    DEALER,
    SchemeSpec,
    build_block_scheme,
    build_threshold34,
    identity_assignment,
    induce_structure,
    load_scheme,
    save_scheme,
)
from qsslab.structures import (
    HYPERSTAR_CATALOG,
    AccessStructure,
    PlayerSubset,
    _adversary_masks,
    antichain_reduce,
    perfect_feasibility,
    structure_to_dict,
    threshold_structure,
)
import reference_verifier as ref_verifier
from reference_stabilizer import five_qubit_scheme
from reference_structures import brute_classes, complement_law_by_definition

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


def write_redistributed_scheme(tmp_path):
    """block(5, {1, 2}) with particle 1 at the dealer and P1..P4 holding particles 2..5."""
    doc = save_scheme(build_block_scheme(5, [1, 2])[0])
    doc["assignment"] = {"P1": [2], "P2": [3], "P3": [4], "P4": [5], "DEALER": [1]}
    path = tmp_path / "redist.json"
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

    def test_names_first_disjoint_pair_of_a_large_family(self, tmp_path, capsys):
        # 462 six-sets through P1, pairwise meeting, and the six-set {P7..P12}, which
        # misses exactly {P1..P6}; the message names the first disjoint pair of minimal
        # sets in itertools.combinations order
        sets = [[1, *c] for c in itertools.combinations(range(2, 13), 5)] + [list(range(7, 13))]
        gamma = AccessStructure.from_sets(12, sets)
        a, b = next(
            (a, b) for a, b in itertools.combinations(gamma.minimal_sets, 2) if not a.bits & b.bits
        )
        path = write_structure(tmp_path, "g.json", 12, sets)
        assert main(["structure", "check", path]) == 2
        assert capsys.readouterr().err == (
            f"error: disjoint authorized sets {a} and {b}: not quantum-admissible\n"
        )
        assert (str(a), str(b)) == ("{P1,P2,P3,P4,P5,P6}", "{P7,P8,P9,P10,P11,P12}")


@st.composite
def non_admissible_structures(draw):
    """Structures on 2-10 players with two disjoint minimal sets among random others."""
    n = draw(st.integers(2, 10))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=12))
    a = draw(st.integers(1, full - 1))
    b = (draw(st.integers(1, full)) & ~a) or full ^ a
    # reduction keeps a subset of a and of b, which stay disjoint
    return antichain_reduce(n, masks + [a, b])


@given(non_admissible_structures())
# 3,003 pairwise meeting 8-sets of P1..P14 sort before the disjoint pair through P15 and P16
@example(AccessStructure.from_sets(
    16, [list(c) for c in itertools.combinations(range(1, 15), 8)]
    + [[*range(1, 8), 15], [*range(8, 15), 16]]))
@settings(max_examples=80, deadline=None)
def test_structure_check_names_the_first_disjoint_pair(tmp_path_factory, gamma):
    a, b = next(
        (a, b) for a, b in itertools.combinations(gamma.minimal_sets, 2) if not a.bits & b.bits
    )
    path = tmp_path_factory.getbasetemp() / "non_admissible.json"
    path.write_text(json.dumps(structure_to_dict(gamma)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["structure", "check", str(path)]) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: disjoint authorized sets {a} and {b}: not quantum-admissible\n"


def structure_check_reference(gamma, fmt):
    """structure check's stdout, built through PlayerSubset objects and json.dumps.

    The partition is taken by definition from the minimal sets, apart from
    the library's tables.
    """
    a1_masks, a2_masks = brute_classes(gamma)[1:]
    assert [masks.tolist() for masks in _adversary_masks(gamma)] == [a1_masks, a2_masks]
    a1, a2 = ([PlayerSubset(b, gamma.n) for b in masks] for masks in (a1_masks, a2_masks))
    # the library prints the law as holding; the reference prints it so only when it does
    law = complement_law_by_definition(gamma)
    witness = perfect_feasibility(gamma)
    if fmt == "json":
        doc = {
            "players": gamma.n,
            "minimal_authorized": [list(s.players()) for s in gamma.minimal_sets],
            "admissible": True,
            "a1": [list(s.players()) for s in a1],
            "a2": [list(s.players()) for s in a2],
            "complement_law": law,
            "perfect": "feasible" if witness is None else "infeasible",
            "perfect_witness": list(witness.players()) if witness else None,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    verdict = "feasible" if witness is None else "infeasible"
    lines = [
        f"admissible; |A1|={len(a1)} |A2|={len(a2)}; perfect: {verdict}",
        "A1: " + (", ".join(str(s) for s in a1) or "(empty)"),
        "A2: " + (", ".join(str(s) for s in a2) or "(empty)"),
        f"complement law: {'holds' if law else 'fails'}",
    ]
    if witness:
        lines.append(f"perfect-infeasibility witness: {witness}")
    return "\n".join(lines) + "\n"


@st.composite
def admissible_structures(draw):
    """Admissible structures on 2-12 players: majority sets, or sets sharing a center."""
    n = draw(st.integers(2, 12))
    center = draw(st.integers(1, n)) if draw(st.booleans()) else None
    masks = []
    for _ in range(draw(st.integers(1, 5))):
        if center:
            players = {center} | draw(st.sets(st.integers(1, n), max_size=n - 1))
        else:  # more than n/2 players, so any two sets meet
            players = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(n // 2 + 1, n))]
        masks.append(sum(1 << (p - 1) for p in players))
    return antichain_reduce(n, masks)


@given(admissible_structures(), st.sampled_from(["json", "text"]))
@example(threshold_structure(7, 12), "json")
@example(threshold_structure(7, 12), "text")
@example(threshold_structure(3, 5), "json")  # A2 empty: feasible, with no witness
@example(threshold_structure(3, 5), "text")
@settings(max_examples=60, deadline=None)
def test_structure_check_matches_reference(tmp_path_factory, gamma, fmt):
    path = tmp_path_factory.getbasetemp() / "structure_check.json"
    path.write_text(json.dumps(structure_to_dict(gamma)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["structure", "check", str(path), "--format", fmt]) == 0
    assert out.getvalue() == structure_check_reference(gamma, fmt)


# the prefixes and separators of structure check (json, text) and scheme verify (json, csv, text)
@pytest.mark.parametrize("prefix, sep", [("\n      ", ","), ("P", ","), ("\n        ", ","), ("", " ")])
@pytest.mark.parametrize("n", range(2, 13))
def test_subset_texts_join_each_subset(n, prefix, sep):
    expect = [
        sep.join(prefix + str(p) for p in PlayerSubset(b, n).players()) for b in range(1 << n)
    ]
    assert cli._subset_texts(n, prefix, sep) == expect


@pytest.mark.parametrize("first", [1, 3, 7])
def test_subset_texts_from_a_first_player(first):
    """Entry b names players first + i for the bits i of b."""
    expect = [",".join(f"P{first + i}" for i in range(4) if b >> i & 1) for b in range(16)]
    assert cli._subset_texts(first + 3, "P", ",", first) == expect


@given(st.integers(2, 13).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=300)
)))
@example((2, {1}))
@example((2, {2}))
@example((5, set(range(1, 32))))
@example((12, {1 << 6, (1 << 6) + 1, 1 << 11, 4095}))  # high players alone, then with low ones
@settings(max_examples=150, deadline=None)
def test_joined_subsets_join_the_subset_texts(family):
    """Joined by groups of shared high players, as the table of every subset joins them."""
    n, masks = family
    masks = np.array(sorted(masks), dtype=np.int64)
    for prefix, joiner in (("\n      ", "\n    ],\n    ["), ("P", "}, {")):
        table = cli._subset_texts(n, prefix)
        pieces = cli._joined_subsets(n, masks, prefix, joiner)
        assert "".join(pieces) == joiner.join(table[b] for b in masks.tolist())
        assert len(pieces) <= 3 << (n - n // 2)  # a few pieces per group, not one per subset


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps


_JSON_SCALARS = st.one_of(
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZé€😀 ')),
    st.text(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.floats(),  # NaN and both infinities included
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1.5e300, float("nan"), float("inf"), -float("inf")]),
    st.floats(allow_nan=True).map(np.float64),
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=25,
)


@given(_JSON_DOCS)
@example({})
@example([])
@example({"": [(), {}, [[]]], "a": {"b": ()}})
@example(True)
@example(None)
@example([True, False, None, 1, 0, 1.0, 0.0, (None, [False])])
@example({"pass": True, "fail": False, "witness": None, "rows": [{"ok": True}]})
@settings(max_examples=300, deadline=None)
def test_dump_matches_json_dumps(doc):
    pieces = cli._dump(doc)
    assert all(type(p) is str for p in pieces)
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True)


_SUBSET_LISTS = st.lists(st.lists(st.integers(1, 16), min_size=1, max_size=5).map(tuple), max_size=5)


@given(
    st.one_of(_SUBSET_LISTS, _JSON_DOCS),
    st.lists(st.one_of(st.none(), st.text(max_size=3)), max_size=3),
    _JSON_DOCS,
)
@example([(1, 2), (3,)], [], None)
@example([], ["a", None, "b"], {"z": [1]})
@example([(1,)], [None, None, None], [])
@settings(max_examples=200, deadline=None)
def test_dump_writes_fragments_as_their_value(value, path, sibling):
    """A _Fragment of _dump(value)'s pieces, indented for depth len(path) (None: a list level, str: a dict key)."""
    def nest(leaf):
        for step in reversed(path):
            leaf = [sibling, leaf] if step is None else {step: leaf, step + "~": sibling}
        return leaf

    fragment = cli._Fragment([p.replace("\n", "\n" + "  " * len(path)) for p in cli._dump(value)])
    pieces = cli._dump(nest(fragment))
    assert "".join(pieces) == json.dumps(nest(value), indent=2, sort_keys=True)
    # spliced by reference: the fragment's own str objects, in order, nothing copied
    assert [p for p in pieces if any(p is q for q in fragment)] == list(fragment)


@pytest.mark.parametrize("path", [[], [None], ["a"], [None, "b", None], ["x", "y", "z"]])
def test_fragment_pieces_come_back_by_identity(path):
    """Each str of a fragment, however large, is one of _dump's pieces, the same object."""
    rows = [f"{i}" * 3 for i in range(2000)]
    fragment = cli._Fragment(["[", ",".join(rows), "]"])
    doc = fragment
    for step in reversed(path):
        doc = [1, doc] if step is None else {step: doc, "other": [1.5, None]}
    pieces = cli._dump(doc)
    spliced = [p for p in pieces if any(p is q for q in fragment)]
    assert len(spliced) == 3 and all(p is q for p, q in zip(spliced, fragment))


def test_scalar_containers_stay_one_piece():
    """A container of scalars is one piece; a document around a large one adds only a few."""
    assert cli._dump([1, 2.5, "a", True, None]) == [json.dumps([1, 2.5, "a", True, None], indent=2)]
    doc = {"fidelities": [0.5] * 10_000, "trace": {"protocol": "circuit"}, "n": 3}
    pieces = cli._dump(doc)
    assert len(pieces) <= 6
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("pieces", [[], [""], ["a"], ["{", "\n", "}"], ["x\n"], ["x\n", ""]])
def test_emit_writes_to_the_stdout_of_the_call(tmp_path, pieces):
    """stdout is looked up when _emit runs; stdout and --out files always get a final line break."""
    text = "".join(pieces)
    for _ in range(2):  # a fresh redirect each time
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(list(pieces), None)
        assert out.getvalue() == text + "\n"
    path = tmp_path / "out.txt"
    cli._emit(list(pieces), str(path))
    assert path.read_text() == text + "\n"


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, np.bool_(True), np.bool_(False), object()])
def test_dump_rejects_what_json_rejects(bad):
    for doc in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._dump(doc)


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


#: The five-qubit code with P1..P4 holding one qubit each and qubit 5 kept by the dealer.
FIVE_DEALER = {"P1": [1], "P2": [2], "P3": [3], "P4": [4], "DEALER": [5]}


def _verify_cases():
    """(name, scheme, claimed structure, model, tolerance) for the renderer test."""
    block, block_gamma = build_block_scheme(5, [1, 2])
    base, base_gamma = build_block_scheme(5, [1, 2])
    redistributed = SchemeSpec(
        5, base.basis_images, {"P1": (2,), "P2": (3,), "P3": (4,), "P4": (5,), DEALER: (1,)},
        name="redistributed",
    )
    images = np.zeros((2, 16), dtype=np.complex128)
    images[0, 0b0000] = images[0, 0b1111] = 2**-0.5
    images[1, 0b0011] = images[1, 0b1110] = 2**-0.5
    corrupted = SchemeSpec(4, images, identity_assignment(4), name="corrupted")
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)))
    dense = SchemeSpec(4, q.T, identity_assignment(4), name="dense")
    threshold34 = build_threshold34()
    return [
        ("block", block, block_gamma, "generalized", 1e-9),
        ("block13", *build_block_scheme(13, [2, 5, 11]), "generalized", 1e-9),
        ("redistributed", redistributed, induce_structure(redistributed, base_gamma),
         "generalized", 1e-12),
        ("failing", corrupted, threshold_structure(3, 4), "generalized", 1e-9),
        ("dense", dense, threshold_structure(3, 4), "generalized", 1e-6),
        ("perfect", threshold34, threshold_structure(3, 4), "perfect", 1e-9),
        ("perfect_block", block, block_gamma, "perfect", 1e-6),
        ("five_dealer", five_qubit_scheme(FIVE_DEALER), threshold_structure(3, 4), "perfect", 1e-9),
    ]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("case", _verify_cases(), ids=lambda case: case[0])
def test_scheme_verify_matches_reference_renderer(tmp_path, capsys, case, fmt):
    """scheme verify's bytes against the per-subset reference report and renderer."""
    _, scheme, gamma, model, tolerance = case
    scheme_path = tmp_path / f"{scheme.name}.json"
    scheme_path.write_text(json.dumps(save_scheme(scheme)))
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps(structure_to_dict(gamma)))
    code = main(["scheme", "verify", str(scheme_path), str(gamma_path), "--model", model,
                 "--tolerance", repr(tolerance), "--format", fmt])
    out, err = capsys.readouterr()
    rep = ref_verifier.report(load_scheme(save_scheme(scheme), name=scheme.name), gamma,
                              model, tolerance)
    assert out == ref_verifier.render(rep, fmt) + "\n"
    if rep.meets_requested:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (4, f"verification failure at subset {rep.requested_witness}\n")


# ---------------------------------------------------------------------------
# perfect mixed schemes: the five-qubit code with particles kept by the dealer


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def verify_doc(capsys, scheme_path, gamma_path, model):
    """scheme verify's exit code and JSON document; stderr must stay empty."""
    code = main(["scheme", "verify", scheme_path, gamma_path, "--model", model, "--format", "json"])
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


class TestPerfectMixedSchemes:
    @pytest.mark.parametrize("model", ["perfect", "generalized"])
    def test_five_qubit_code_with_a_dealer_over_threshold34(self, tmp_path, capsys, model):
        scheme = write_doc(tmp_path, "five.json", save_scheme(five_qubit_scheme(FIVE_DEALER)))
        gamma = write_doc(tmp_path, "g.json", structure_to_dict(threshold_structure(3, 4)))
        code, doc = verify_doc(capsys, scheme, gamma, model)
        assert (code, doc["verdict"], doc["meets_requested"]) == (0, "perfect", True)

    def test_assign_search_hit_verifies(self, tmp_path, capsys):
        five = write_doc(tmp_path, "five.json", save_scheme(five_qubit_scheme(identity_assignment(5))))
        base = write_doc(tmp_path, "base.json", structure_to_dict(threshold_structure(3, 5)))
        target = write_doc(tmp_path, "target.json", structure_to_dict(threshold_structure(3, 4)))
        argv = ["assign", "search", "--scheme", five, "--base", base, "--target", target]
        assert main(argv + ["--allow-dealer"]) == 0
        assignment = json.loads(capsys.readouterr().out)["assignment"]
        assert assignment == FIVE_DEALER
        found = write_doc(tmp_path, "found.json", save_scheme(five_qubit_scheme(assignment)))
        for model in ("perfect", "generalized"):
            code, doc = verify_doc(capsys, found, target, model)
            assert (code, doc["verdict"]) == (0, "perfect")

    @pytest.mark.parametrize("number, assignment", [
        (1, {"P1": [1, 2], "P2": [3, 4], "DEALER": [5]}),
        (2, {"P1": [1, 2], "P2": [3], "P3": [4], "DEALER": [5]}),
        (3, {"P1": [1], "P2": [2], "P3": [3], "DEALER": [4, 5]}),
    ])
    def test_catalog_rows_without_a_pure_perfect_scheme(self, tmp_path, capsys, number, assignment):
        gamma = HYPERSTAR_CATALOG[number - 1]
        assert perfect_feasibility(gamma) is not None  # A2 is nonempty
        scheme = write_doc(tmp_path, "five.json", save_scheme(five_qubit_scheme(assignment)))
        code, doc = verify_doc(capsys, scheme, write_doc(tmp_path, "g.json", structure_to_dict(gamma)),
                               "perfect")
        assert (code, doc["verdict"]) == (0, "perfect")


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
        assert main(["build", "block", "--n", "4", "--b", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["realizes"]["minimal_authorized"] == [[1, 2], [1, 3], [1, 4]]

    def test_bad_parameters(self, capsys):
        assert main(["build", "block", "--n", "14", "--b", "1"]) == 2

    def test_build_star_is_refused(self, capsys):
        # a star is build block with a one-player block; there is no second family for it
        with pytest.raises(SystemExit) as exc:
            main(["build", "star", "--n", "4", "--center", "1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            "qsslab build: error: argument family: invalid choice: 'star' "
            "(choose from 'threshold34', 'block')"
        )


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

    def test_measure_co_block_set_prints_what_the_co_block_prints(self, tmp_path, capsys):
        # block(5, {1, 2}) is block(5, {3, 4, 5}); {P1,P3,P4,P5} holds the co-block whole
        out = tmp_path / "block.json"
        assert main(["build", "block", "--n", "5", "--b", "1,2", "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["reconstruct", str(out), "--set", "1,3,4,5", "--protocol", "measure",
                "--trials", "20", "--format", "json", "--block"]
        assert main(argv + ["3,4,5"]) == 0
        co_block = capsys.readouterr().out
        assert main(argv + ["1,2"]) == 0
        assert capsys.readouterr().out == co_block
        assert min(json.loads(co_block)["fidelities"]) >= 1.0 - 1e-9

    def test_measure_protocol_keeps_its_size_limit(self, tmp_path, capsys):
        # 14 particles loads, but the measure simulation stops at the 13 of build_block_scheme,
        # refused in build block's words
        path = write_over_budget_scheme(tmp_path)
        assert main(
            ["reconstruct", path, "--set", "1,2", "--protocol", "measure", "--block", "1"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == ["error: block schemes are built for 3 <= n <= 13, got 14"]

    def test_measure_protocol_at_thirteen_particles(self, tmp_path, capsys):
        path = tmp_path / "block13.json"
        path.write_text(json.dumps(save_scheme(build_block_scheme(13, [3, 4, 9])[0])))
        assert main(
            ["reconstruct", str(path), "--set", "3,4,9,12", "--protocol", "measure",
             "--block", "3,4,9", "--trials", "64", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["fidelities"]) == 64
        assert min(doc["fidelities"]) >= 1.0 - 1e-9

    def test_decoder(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        assert main(
            ["reconstruct", scheme, "--set", "2,3,4", "--protocol", "decoder",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelities"][0] >= 1.0 - 1e-6

    def test_trace_lists_acting_players_ascending(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        for protocol in ("decoder", "circuit"):
            assert main(
                ["reconstruct", scheme, "--set", "3,2,1,1", "--protocol", protocol,
                 "--trials", "1", "--format", "json"]
            ) == 0
            assert json.loads(capsys.readouterr().out)["trace"]["acting"] == [1, 2, 3], protocol

    @pytest.mark.parametrize("players", [3, 12, 13])
    def test_decoder_at_thirteen_particles(self, tmp_path, capsys, players):
        # the decoder acts on at most 2 * rank(rho_E) vectors, never on all of 2^|A|,
        # and 3 players leave |E| = 10 to one thin SVD at the smaller side of the cut
        path = tmp_path / "block13.json"
        path.write_text(json.dumps(save_scheme(build_block_scheme(13, [1, 2])[0])))
        acting = ",".join(str(p) for p in range(1, players + 1))
        assert main(
            ["reconstruct", str(path), "--set", acting, "--protocol", "decoder",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelities"][0] >= 1.0 - 1e-9

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

    @pytest.mark.parametrize("protocol", ["circuit", "measure"])
    def test_trials_over_the_cap_exit5(self, tmp_path, threshold34_files, capsys, protocol):
        scheme, _ = threshold34_files
        if protocol == "measure":
            scheme = str(tmp_path / "block5.json")
            assert main(["build", "block", "--n", "5", "--b", "1,2", "--out", scheme]) == 0
        argv = ["reconstruct", scheme, "--set", "1,2,3", "--protocol", protocol, "--block", "1,2",
                "--trials", str(MAX_TRIALS + 1)]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("resource limit: ")

    def test_decoder_draws_nothing_whatever_the_trials(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        argv = ["reconstruct", scheme, "--set", "1,3,4", "--protocol", "decoder",
                "--trials", str(MAX_TRIALS + 1), "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["fidelities"][0] >= 1.0 - 1e-9

    def test_unauthorized_circuit_set(self, threshold34_files):
        scheme, _ = threshold34_files
        assert main(["reconstruct", scheme, "--set", "1,2", "--protocol", "circuit"]) == 2

    def test_circuit_full_set(self, threshold34_files, capsys):
        scheme, _ = threshold34_files
        assert main(
            ["reconstruct", scheme, "--set", "1,2,3,4", "--trials", "20", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["fidelities"]) == 20 and min(doc["fidelities"]) >= 1.0 - 1e-9
        assert doc["trace"]["acting"] == [1, 2, 3, 4]


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
# --out and --out-dir files hold the bytes stdout shows


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def out_inputs(tmp_path, threshold34_files):
    scheme, gamma = threshold34_files
    block = str(tmp_path / "block5.json")
    assert main(["build", "block", "--n", "5", "--b", "1,2", "--out", block]) == 0
    block_gamma = write_doc(tmp_path, "block5_gamma.json", json.loads(Path(block).read_text())["realizes"])
    target = write_structure(tmp_path, "target4.json", 4, [[1, 2, 3], [1, 4]])
    star = write_structure(tmp_path, "star4.json", 4, [[1, 2], [1, 3], [1, 4]])
    return {"SCHEME": scheme, "GAMMA": gamma, "BLOCK": block, "BLOCK_GAMMA": block_gamma,
            "TARGET": target, "STAR": star}


_OUT_CALLS = [
    *(["scheme", "verify", "BLOCK", "BLOCK_GAMMA", "--format", fmt] for fmt in ("text", "json", "csv")),
    *(["scheme", "verify", "SCHEME", "GAMMA", "--model", "perfect", "--format", fmt]  # exit 4
      for fmt in ("text", "json", "csv")),
    ["build", "threshold34"],
    ["build", "block", "--n", "6", "--b", "2,5"],
    ["build", "block", "--n", "5", "--b", "3"],
    ["assign", "induce", "--scheme", "BLOCK", "--base", "BLOCK_GAMMA"],
    ["assign", "search", "--target", "TARGET", "--base-n", "6", "--base-b", "1,2,3", "--allow-dealer"],
    ["assign", "search", "--target", "STAR", "--base-n", "4", "--base-b", "3,4", "--allow-dealer"],
    *(["enumerate", "--max-n", "5", "--format", fmt] for fmt in ("text", "json", "csv")),
    *(["reconstruct", "SCHEME", "--set", "1,3,4", "--trials", "1500", "--format", fmt]
      for fmt in ("text", "json")),
    *(["reconstruct", "BLOCK", "--set", "1,3,4,5", "--protocol", "measure", "--block", "1,2",
       "--trials", "7", "--format", fmt] for fmt in ("text", "json")),
    *(["reconstruct", "BLOCK", "--set", "3,1,2", "--protocol", "decoder", "--format", fmt]
      for fmt in ("text", "json")),
]


@pytest.mark.parametrize("argv", _OUT_CALLS, ids=lambda argv: " ".join(argv))
def test_out_file_holds_what_stdout_shows(tmp_path, out_inputs, argv):
    argv = [out_inputs.get(a, a) for a in argv]
    code, shown, err = run_cli(argv)
    path = tmp_path / "out.txt"
    assert run_cli(argv + ["--out", str(path)]) == (code, "", err)
    assert shown.endswith("\n") and path.read_bytes() == shown.encode()


def test_out_dir_files_hold_what_stdout_shows(tmp_path):
    code, message, _ = run_cli(["tables", "--out-dir", str(tmp_path)])
    assert code == 0
    assert message == f"wrote {tmp_path / 'feasibility.json'} and {tmp_path / 'feasibility.csv'}\n"
    for fmt in ("json", "csv"):
        assert (tmp_path / f"feasibility.{fmt}").read_text() == run_cli(["tables", "--format", fmt])[1]


# ---------------------------------------------------------------------------
# input errors end in exit 2 and one diagnostic line, never a traceback


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "block", "--n", "5"],
        ["reconstruct", "SCHEME", "--set", "1,3,4", "--trials", "0"],
        ["reconstruct", "SCHEME", "--set", "1,3,4", "--trials", "-2"],
        ["reconstruct", "SCHEME", "--set", "1,9", "--protocol", "decoder"],
        ["assign", "search", "--target", "GAMMA", "--scheme", "SCHEME"],
        ["reconstruct", "PAIR", "--set", "1,2", "--protocol", "measure", "--block", "1"],
        ["reconstruct", "PAIR", "--set", "1,2", "--protocol", "circuit"],
        ["reconstruct", "REDIST", "--set", "1,2,3", "--protocol", "measure", "--block", "1,2"],
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
        "REDIST": write_redistributed_scheme(tmp_path),
        "DIR": str(tmp_path),
    }
    argv = [paths.get(a, a.replace("MISSING", str(tmp_path / "missing"))) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def write_one_player_scheme(tmp_path):
    """A two-particle scheme with particle 1 at P1 and particle 2 at the dealer."""
    doc = {**json.loads(Path(write_pair_scheme(tmp_path)).read_text()),
           "assignment": {"P1": [1], "DEALER": [2]}}
    return write_doc(tmp_path, "one_player.json", doc)


@pytest.mark.parametrize(
    "argv, line",
    [
        (["reconstruct", "SCHEME", "--set", "1,x"],
         "error: expected comma-separated player numbers, got '1,x'"),
        (["reconstruct", "SCHEME", "--set", ","], "error: empty player list ','"),
        (["reconstruct", "REDIST", "--set", "1,3,4,5", "--protocol", "measure"],
         "error: --block is required for the measure protocol"),
        (["structure", "check", "PLAYERS0"],
         "error: bad structure PLAYERS0: player count must be in [2, 16], got 0"),
        # one player is below the structures' player count, whether P1 is authorized or not
        (["assign", "induce", "--scheme", "ONE", "--base", "PAIR_GAMMA"],
         "error: player count must be in [2, 16], got 1"),
        (["assign", "induce", "--scheme", "ONE", "--base", "P1_GAMMA"],
         "error: player count must be in [2, 16], got 1"),
    ],
)
def test_refusal_exit2_exact_line(tmp_path, threshold34_files, argv, line):
    paths = {
        "SCHEME": threshold34_files[0],
        "REDIST": write_redistributed_scheme(tmp_path),
        "PLAYERS0": write_structure(tmp_path, "players0.json", 0, [[1]]),
        "ONE": write_one_player_scheme(tmp_path),
        "PAIR_GAMMA": write_structure(tmp_path, "pair_gamma.json", 2, [[1, 2]]),
        "P1_GAMMA": write_structure(tmp_path, "p1_gamma.json", 2, [[1]]),
    }
    code, out, err = run_cli([paths.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err == line.replace("PLAYERS0", paths["PLAYERS0"]) + "\n"


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
        ("scheme", _first_entry(re=True, im=False)),
        ("scheme", _first_entry(re="1.0", im="0")),
        ("structure", {"players": 4, "minimal_authorized": [["1", 2, 3], [1, 4]]}),
        ("structure", {"players": 4, "minimal_authorized": [[1.0, 2, 3], [1, 4]]}),
        ("structure", {"players": 4, "minimal_authorized": [[None, 2, 3], [1, 4]]}),
        ("structure", {"players": float("inf"), "minimal_authorized": [[1, 2]]}),
        ("structure", {"players": 3, "minimal_authorized": [[True, 2], [2, 3]]}),
        # a player in range of a huge player count: refused by the count, with no bit built
        ("structure", {"players": 10**20, "minimal_authorized": [[10**19]]}),
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


@pytest.mark.parametrize("text", ['"players"', "[[1, 2], [1, 3]]"])
@pytest.mark.parametrize("position", ["structure check", "verify scheme", "verify structure"])
def test_non_object_document_exit2(tmp_path, threshold34_files, capsys, text, position):
    scheme, gamma = threshold34_files
    path = str(tmp_path / "doc.json")
    Path(path).write_text(text)
    kind, argv = {
        "structure check": ("structure", ["structure", "check", path]),
        "verify scheme": ("scheme", ["scheme", "verify", path, gamma]),
        "verify structure": ("structure", ["scheme", "verify", scheme, path]),
    }[position]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad {kind} {path}: {kind} document must be a JSON object\n"


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
_VALID_STRUCTURES = [structure_to_dict(gamma) for gamma in HYPERSTAR_CATALOG]


def test_parser_is_built_once_and_stays_reusable(threshold34_files, capsys):
    scheme, _ = threshold34_files
    usage_error = ["reconstruct", scheme, "--protocol", "nope", "--set", "1,3,4"]
    valid = ["reconstruct", scheme, "--set", "1,3,4", "--trials", "2"]
    runs = []
    for argv in (usage_error, valid, usage_error, valid):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert runs[0][0] == 2 and runs[0][1] == "" and runs[1][0] == 0
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(usage_error)
    assert capsys.readouterr().err == runs[0][2]
    assert cli._parser() is cli._parser()


# ---------------------------------------------------------------------------
# main's parse: straight to the subcommand's parser, as the three-level parse


_LEAF_WORDS = [
    ["structure", "check"], ["scheme", "verify"], ["build"], ["assign", "induce"],
    ["assign", "search"], ["enumerate"], ["reconstruct"], ["tables"],
]
# the positionals and required options each subcommand needs to parse
_LEAF_NEEDS = {
    "check": ["g.json"], "verify": ["s.json", "g.json"], "build": ["block"],
    "induce": ["--scheme", "s.json", "--base", "g.json"], "search": ["--target", "g.json"],
    "enumerate": [], "reconstruct": ["s.json", "--set", "1,2"], "tables": [],
}
_OPTIONS = [
    "-h", "--help", "--format", "--tolerance", "--out", "--model", "--n", "--b", "--center",
    "--scheme", "--base", "--target", "--base-n", "--base-b", "--allow-dealer", "--max-n",
    "--set", "--protocol", "--trials", "--block", "--seed", "--out-dir",
]
_TOKENS = sorted({w for words in _LEAF_WORDS for w in words}) + _OPTIONS + [
    "threshold34", "block", "json", "csv", "perfect", "decoder", "1", "-1", "1,2", "1e-9",
    "g.json", "--", "-", "--he", "--fo", "--bogus", "-x", "--format=json", "", "nope",
]


def parse_both(argv, monkeypatch, capsys):
    """main's parse and build_parser().parse_args on argv: [(exit code, stdout, stderr, fields)].

    Both run on one fresh parser whose subcommands record their namespace
    instead of running.  fields is that namespace without the subparser
    dests command and action, which only the three-level parse sets, or
    None when the parse exits.
    """
    leaves = {}
    parser = cli.build_parser(leaves)
    seen = []
    for leaf in leaves.values():
        leaf.set_defaults(func=lambda args: seen.append(args) or 0)
    monkeypatch.setattr(cli, "_parser", lambda: (parser, leaves))

    def three_levels(argv):
        args = parser.parse_args(argv)
        return args.func(args)

    runs = []
    for parse in (main, three_levels):
        seen.clear()
        try:
            code = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
        fields = [{k: v for k, v in vars(args).items() if k not in ("command", "action")}
                  for args in seen]
        runs.append((code, *capsys.readouterr(), fields))
    return runs


def _fixed_argvs():
    leaves = [words + _LEAF_NEEDS[words[-1]] for words in _LEAF_WORDS]
    yield from ([], ["-h"], ["--he"], ["--help"], ["nope"], ["--"], ["--", "tables"])
    for group in ("structure", "scheme", "assign"):
        # bare group words, help and abbreviated help at the group level, unknown actions
        yield from ([group], [group, "-h"], [group, "--he"], [group, "nope"], [group, "--"])
    # options before the command word go to the root parser
    yield from (["-h", "tables"], ["--format", "json", "tables"], ["--he", "enumerate"])
    yield ["structure", "--format", "json", "check", "g.json"]
    for words, argv in zip(_LEAF_WORDS, leaves):
        yield argv
        yield from (words + ["-h"], words + ["--he"], argv + ["-h"], argv + ["--he"])
        yield from (argv + ["--bogus"], argv + ["--bogus", "x", "--", "y"], argv + ["extra"])
        yield from (words + ["--"] + argv[len(words):], argv + ["--"], argv + ["--", "--x"])
        # missing positionals and required options
        yield words
    yield from (["tables", "check"], ["enumerate", "--max-n"], ["build", "cube"])
    yield ["reconstruct", "s.json", "--set", "1", "--protocol", "nope"]


@pytest.mark.parametrize("argv", list(_fixed_argvs()), ids=" ".join)
def test_main_parses_as_the_three_level_parse(argv, monkeypatch, capsys):
    direct, three_levels = parse_both(argv, monkeypatch, capsys)
    assert direct == three_levels


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([[], *_LEAF_WORDS, ["structure"], ["assign"]]),
    st.lists(st.sampled_from(_TOKENS), max_size=6),
)
def test_main_parses_random_argv_as_the_three_level_parse(monkeypatch, capsys, words, rest):
    direct, three_levels = parse_both(words + rest, monkeypatch, capsys)
    assert direct == three_levels


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
