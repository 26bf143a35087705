import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_verifier as ref
from reference_stabilizer import five_qubit_images, five_qubit_scheme

from qsslab import cli
from qsslab.schemes import (
    DEALER,
    PreparedBase,
    SchemeSpec,
    build_block_scheme,
    identity_assignment,
    induce_structure,
    save_scheme,
    search_assignment,
)
from qsslab.structures import (
    A2,
    CLASS_NAMES,
    AccessStructure,
    PlayerSubset,
    StructureError,
    _adversary_masks,
    antichain_reduce,
    is_quantum_admissible,
    structure_to_dict,
    threshold_structure,
)
from qsslab.verifier import (
    StructuralMismatchError,
    SubsetEntropyTable,
    _evaluate,
    _report,
    matrix_to_dict,
    report_hash,
    report_to_dict,
    verify,
)
from qsslab.qstate import PureState, RegisterLayout, ResourceLimitError, cut_entropies
from qsslab.schemes import distribute_purified
from reference_verifier import entropy_profile, register_entropy, report_records


def record_for(report, players):
    """The record of the subset of these players."""
    bits = PlayerSubset.from_players(players, report.num_players).bits
    return report_records(report)[bits - 1]


# ---------------------------------------------------------------------------
# full verification of the four-share threshold scheme


@pytest.fixture(scope="module")
def report(threshold34_scheme, threshold34_gamma):
    return verify(threshold34_scheme, threshold34_gamma)


class TestVerifyThreshold34:
    def test_headline_numbers(self, report):
        assert report.i_rs == pytest.approx(2.0, abs=1e-9)
        assert report.s_s == pytest.approx(1.0, abs=1e-9)
        assert report.verdict == "generalized"

    def test_profile_by_subset_size(self, report):
        for r in report_records(report):
            size = len(r.subset)
            if size >= 3:
                assert r.classification == "authorized"
                assert r.i_ra == pytest.approx(2.0, abs=1e-9)
            elif size == 2:
                assert r.classification == "A2"
                assert r.i_ra == pytest.approx(1.0, abs=1e-9)
            else:
                assert r.classification == "A1"
                assert r.i_ra == pytest.approx(0.0, abs=1e-9)
            assert r.condition_pass

    def test_report_complete(self, report):
        assert len(report_records(report)) == 15
        assert sorted(r.subset.bits for r in report_records(report)) == list(range(1, 16))

    def test_perfect_model_fails_on_a_pair(self, threshold34_scheme, threshold34_gamma):
        report = verify(threshold34_scheme, threshold34_gamma, model="perfect")
        assert report.verdict == "generalized"
        assert not report.meets_requested
        assert report.requested_witness is not None
        assert len(report.requested_witness) == 2

    def test_balance(self, report):
        assert report.entropy_balanced
        assert report.worst_balance_deviation <= 1e-9

    def test_unauthorized_complement_identity(self, report):
        by_bits = {r.subset.bits: r for r in report_records(report)}
        for r in report_records(report):
            comp = r.subset.complement().bits
            if comp == 0:
                continue
            assert r.i_ra + by_bits[comp].i_ra == pytest.approx(2.0, abs=1e-9)


class TestVerifyBlockScheme:
    def test_five_share_profile(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        report = verify(scheme, gamma)
        assert report.verdict == "generalized"
        assert report.i_rs == pytest.approx(2.0, abs=1e-9)
        assert report.s_s == pytest.approx(1.0, abs=1e-9)
        for r in report_records(report):
            if r.classification == "authorized":
                assert r.i_ra == pytest.approx(2.0, abs=1e-9)
            elif r.classification == "A1":
                assert r.i_ra == pytest.approx(0.0, abs=1e-9)
            else:
                assert r.i_ra == pytest.approx(1.0, abs=1e-9)

    def test_named_sets(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        report = verify(scheme, gamma)
        assert record_for(report, [1, 2, 3]).i_ra == pytest.approx(2.0, abs=1e-9)
        assert record_for(report, [1, 3, 4, 5]).i_ra == pytest.approx(2.0, abs=1e-9)
        assert record_for(report, [3]).classification == "A1"
        assert record_for(report, [1, 2]).classification == "A2"


class TestVerifyFailures:
    def test_corrupted_scheme_fails_with_witness(self, corrupted_scheme, threshold34_gamma):
        report = verify(corrupted_scheme, threshold34_gamma)
        assert report.verdict == "fail"
        assert report.witness is not None
        failing = [r for r in report_records(report) if not r.condition_pass]
        assert failing
        assert report.witness == failing[0].subset
        # the breakage shows as an authorized triple short of full correlation
        triple = record_for(report, [1, 2, 3])
        assert triple.i_ra == pytest.approx(1.5, abs=1e-9)
        assert not triple.condition_pass

    def test_mismatch_when_structure_understates(self, threshold34_scheme):
        claimed = AccessStructure.from_sets(4, [[1, 2, 3, 4]])
        with pytest.raises(StructuralMismatchError) as err:
            verify(threshold34_scheme, claimed)
        assert len(err.value.witness) == 3

    def test_player_count_mismatch(self, threshold34_scheme):
        with pytest.raises(StructureError, match="players"):
            verify(threshold34_scheme, threshold_structure(2, 3))

    def test_unknown_model(self, threshold34_scheme, threshold34_gamma):
        with pytest.raises(ValueError, match="model"):
            verify(threshold34_scheme, threshold34_gamma, model="strict")

    def test_resource_limit(self):
        images = np.zeros((2, 1 << 14), dtype=np.complex128)
        images[0, 0] = images[1, 1] = 1.0
        big = SchemeSpec(14, images, identity_assignment(14))
        with pytest.raises(ResourceLimitError):
            verify(big, AccessStructure.from_sets(14, [[i] for i in range(1, 15)]))


class TestEntropyBalance:
    def test_threshold34_balanced(self, threshold34_scheme, threshold34_gamma):
        report = verify(threshold34_scheme, threshold34_gamma)
        assert report.entropy_balanced
        assert report.worst_balance_deviation <= 1e-9
        assert report.verdict == "generalized"

    def test_block_scheme_balanced(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        report = verify(scheme, gamma)
        assert report.entropy_balanced and report.verdict == "generalized"

    def test_corrupted_scheme_unbalanced(self, corrupted_scheme, threshold34_gamma):
        report = verify(corrupted_scheme, threshold34_gamma)
        assert not report.entropy_balanced
        assert report.worst_balance_deviation == pytest.approx(0.5, abs=1e-9)
        assert report.verdict == "fail"

    def test_worst_deviation_is_the_dense_a2_maximum(self, corrupted_scheme, threshold34_gamma):
        from qsslab.qstate import partial_trace, von_neumann_entropy

        state = distribute_purified(corrupted_scheme)

        def s(subset):
            return von_neumann_entropy(partial_trace(state, [f"p{p}" for p in subset.players()]))

        n = threshold34_gamma.n
        a2 = [PlayerSubset(int(b), n) for b in _adversary_masks(threshold34_gamma)[1]]
        devs = [abs(s(a) - s(a.complement())) for a in a2]
        report = verify(corrupted_scheme, threshold34_gamma)
        assert report.worst_balance_deviation == pytest.approx(max(devs), abs=1e-12)

    def test_mismatch_counts_as_not_generalized(self, threshold34_scheme):
        claimed = AccessStructure.from_sets(4, [[1, 2, 3, 4]])
        with pytest.raises(StructuralMismatchError):
            verify(threshold34_scheme, claimed)


class TestEntropyProfile:
    def test_uniform_secret_matches_verify(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        records = report_records(verify(scheme, gamma))
        assert entropy_profile(scheme) == [(r.subset, r.s_a, r.s_ra, r.i_ra) for r in records]

    def test_biased_secret_scaling(self, threshold34_scheme, threshold34_gamma):
        p = 0.3
        h = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        profile = entropy_profile(threshold34_scheme, (p, 1 - p))
        assert len(profile) == 15
        for subset, _, _, i_ra in profile:
            if threshold34_gamma.authorized[subset.bits]:
                expected = 2 * h  # recoverable sets keep the full correlation
            elif len(subset) == 2:
                expected = h  # unavoidable sets hold exactly the secret entropy
            else:
                expected = 0.0
            assert i_ra == pytest.approx(expected, abs=1e-9), str(subset)


class TestEntropyTable:
    def test_lookup_matches_direct_computation(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme)
        table = SubsetEntropyTable(state, 4)
        (s_a,), (s_ra,) = table.read([0b0011])
        assert s_a == pytest.approx(register_entropy(state, ("p1", "p2")), abs=1e-12)
        assert s_ra == pytest.approx(register_entropy(state, ("R", "p1", "p2")), abs=1e-12)
        (s_a,), (s_ra,) = table.read([0b0111])
        # S(R) is the S(RA) of no particles
        (s_none,), (s_r,) = table.read([0])
        assert s_none == 0.0
        assert s_r == pytest.approx(register_entropy(state, ("R",)), abs=1e-12)
        assert s_r + s_a - s_ra == pytest.approx(2.0, abs=1e-9)

    def test_read_maps_particles_through_the_layout_order(self):
        # R and the particles out of order: particle p is not the p-th register
        rng = np.random.default_rng(23)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = PureState(RegisterLayout(("p3", "R", "p1", "p2")), amps / np.linalg.norm(amps))
        masks = np.arange(8)
        s_a, s_ra = SubsetEntropyTable(state, 3).read(masks)

        def cut(particles):
            keep = sum(1 << (3 - state.layout.axis(f"p{p}")) for p in particles)
            return cut_entropies(state, [keep])[0]

        inside = [[p for p in (1, 2, 3) if mask >> (p - 1) & 1] for mask in masks.tolist()]
        want_a = np.array([cut(ps) if ps else 0.0 for ps in inside])
        want_ra = np.array([cut(set((1, 2, 3)) - set(ps)) for ps in inside])
        for got, want in ((s_a, want_a), (s_ra, want_ra)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_generalized_checker_accepts_identity(self, threshold34_scheme, threshold34_gamma):
        table = SubsetEntropyTable(distribute_purified(threshold34_scheme), 4)
        codes = threshold34_gamma.class_codes
        result = _evaluate(table, [0b0001, 0b0010, 0b0100, 0b1000], codes, 1e-9)
        assert result["ok"].all()
        assert verify(threshold34_scheme, threshold34_gamma).verdict == "generalized"

    def test_generalized_checker_rejects_bad_grouping(self, threshold34_scheme):
        # claiming the star while the state realizes the threshold
        star = AccessStructure.from_sets(4, [[1, 2], [1, 3], [1, 4]])
        table = SubsetEntropyTable(distribute_purified(threshold34_scheme), 4)
        result = _evaluate(table, [0b0001, 0b0010, 0b0100, 0b1000], star.class_codes, 1e-9)
        assert not result["ok"].all()


class TestReportSerialization:
    def test_document_shape(self, threshold34_scheme, threshold34_gamma):
        report = verify(threshold34_scheme, threshold34_gamma)
        doc = report_to_dict(report)
        assert doc["verdict"] == "generalized"
        assert doc["i_rs"] == pytest.approx(2.0)
        assert len(doc["records"]) == 15
        record = doc["records"][0]
        assert set(record) == {"subset", "class", "s_a", "s_ra", "i_ra", "pass"}
        json.dumps(doc)  # must be serializable

    def test_hash_stable(self, threshold34_scheme, threshold34_gamma):
        a = report_hash(verify(threshold34_scheme, threshold34_gamma))
        b = report_hash(verify(threshold34_scheme, threshold34_gamma))
        assert a == b and len(a) == 12


# ---------------------------------------------------------------------------
# feasibility matrix (computed once per session by the fixture)


class TestFeasibilityMatrix:
    def test_every_row_perfect_infeasible(self, feasibility_rows):
        assert len(feasibility_rows) == 16
        for row in feasibility_rows:
            assert not row.pqss_feasible, row.number
            assert row.pqss_witness is not None

    def test_gqss_verdicts(self, feasibility_rows):
        expected_unknown = {9, 10}
        for row in feasibility_rows:
            if row.number in expected_unknown:
                assert row.gqss == "unknown", row.number
                assert row.assignment is None
            else:
                assert row.gqss == "verified", row.number
                assert row.assignment is not None
                assert row.report_hash is not None

    def test_documented_assignment_rows(self, feasibility_rows):
        rows = {row.number: row for row in feasibility_rows}
        assert rows[7].assignment == {
            "P1": [2], "P2": [3], "P3": [4], "P4": [5], DEALER: [1]
        }
        assert rows[13].assignment == {
            "P1": [1, 4], "P2": [2], "P3": [3], "P4": [5], "P5": [6]
        }
        assert rows[14].assignment == {
            "P1": [1, 5], "P2": [2, 4], "P3": [3], "P4": [6], "P5": [7]
        }

    def test_row5_discrepancy_flagged(self, feasibility_rows):
        rows = {row.number: row for row in feasibility_rows}
        assert any("rejected" in note for note in rows[5].notes)
        assert rows[5].gqss == "verified"

    def test_verified_assignments_revalidate(self, feasibility_rows):
        for row in feasibility_rows:
            if row.gqss != "verified":
                continue
            name = row.scheme_name
            assert name is not None
            if name.startswith("star"):
                continue
            n = int(name.split("n=")[1].split(",")[0])
            block = [int(x) for x in name.split("b={")[1].split("}")[0].split(",")]
            base_scheme, base_gamma = build_block_scheme(n, block)
            assignment = {h: tuple(ps) for h, ps in row.assignment.items()}
            rebuilt = SchemeSpec(n, base_scheme.basis_images, assignment)
            report = verify(rebuilt, row.structure)
            assert report.verdict == "generalized", row.number

    def test_tolerance_reaches_every_route(self, monkeypatch):
        import qsslab.verifier as verifier

        seen = []
        real_report = verifier._report

        def spy(table, scheme, gamma, model, tolerance):
            seen.append((scheme.name, tolerance))
            return real_report(table, scheme, gamma, model, tolerance)

        monkeypatch.setattr(verifier, "_report", spy)
        verifier.feasibility_matrix(tolerance=1e-7)
        assert [tol for _, tol in seen] == [1e-7] * len(seen)
        for route in ("star", "via documented assignment", "via search"):
            assert any(route in name for name, _ in seen), route

    def test_search_bases_follow_the_search_cap(self, monkeypatch):
        import qsslab.schemes as schemes
        from qsslab.verifier import _search_bases

        monkeypatch.setattr(schemes, "MAX_SEARCH_PARTICLES", 6)
        assert max(m for m, _ in _search_bases(3)) == 6

    def test_matrix_document(self, feasibility_rows):
        doc = matrix_to_dict(feasibility_rows)
        assert len(doc["rows"]) == 16
        json.dumps(doc)


# ---------------------------------------------------------------------------
# the entropy oracle against the dense reduced state, and the 13-particle ceiling


def test_block_scheme_cuts_match_partial_trace():
    from qsslab.qstate import partial_trace, von_neumann_entropy

    for m in range(3, 10):
        scheme, _ = build_block_scheme(m, range(1, (m + 1) // 2 + 1))
        state = distribute_purified(scheme)
        labels = state.layout.labels
        for bits in range(1, (1 << len(labels)) - 1):
            regs = tuple(labels[i] for i in range(len(labels)) if bits >> i & 1)
            dense = von_neumann_entropy(partial_trace(state, regs))
            assert abs(register_entropy(state, regs) - dense) <= 1e-12, (m, regs)


def test_matrix_entropies_are_bit_equal_to_partial_trace(monkeypatch):
    import qsslab.schemes as schemes
    import qsslab.verifier as verifier
    from qsslab.qstate import cut_entropies, partial_trace, von_neumann_entropy

    seen = []

    def recording(state, keep_masks):
        values = cut_entropies(state, keep_masks)
        seen.append((state, list(keep_masks), values))
        return values

    monkeypatch.setattr(schemes, "cut_entropies", recording)
    verifier.feasibility_matrix()
    assert seen
    for state, keep_masks, values in seen:
        labels = state.layout.labels
        n = len(labels)
        for mask, s in zip(keep_masks, values.tolist()):
            # keeping nothing is the same cut as keeping everything
            regs = tuple(labels[a] for a in range(n) if (mask or -1) >> (n - 1 - a) & 1)
            dense = von_neumann_entropy(partial_trace(state, regs))
            assert s == dense and np.signbit(s) == np.signbit(dense), regs


def test_thirteen_particle_block_scheme_verifies(monkeypatch):
    dims = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrix):
        dims.append(matrix.shape[-1])
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    scheme, gamma = build_block_scheme(13, [2, 5, 7, 11])
    report = verify(scheme, gamma)
    assert report.verdict == "generalized"
    assert len(report_records(report)) == (1 << 13) - 1
    authorized = [r for r in report_records(report) if r.classification == "authorized"]
    assert authorized
    for r in authorized:
        assert r.i_ra == pytest.approx(2.0, abs=1e-9), str(r.subset)
    # a four-term state: every spectrum comes from a Gram matrix of at most 4 x 4
    assert max(dims) <= 4
    # the 2^13 cut entropies come from one stack per padded shape (1 x 1, 2 x 2 and 4 x 4),
    # the 4 x 4 stack in four batches of at most CUT_BATCH_ELEMENTS // 16 cuts
    assert len(dims) <= 6, len(dims)


def _dense_entropy(state, regs):
    from qsslab.qstate import partial_trace, von_neumann_entropy

    return von_neumann_entropy(partial_trace(state, regs))


def test_record_entropies_keep_the_dense_path_bits_and_signs():
    # S(RA) is read as S(particles outside A); the dense path computes S(RA)
    # itself.  A dealer-free scheme has S(R P1..Pm) = -0.0 on the full set,
    # and report hashes depend on that sign.
    signed_zeros = 0
    for m in range(3, 8):
        for k in range(1, m // 2 + 1):
            scheme, gamma = build_block_scheme(m, range(1, k + 1))
            state = distribute_purified(scheme)
            for r in report_records(verify(scheme, gamma)):
                regs = scheme.registers_of(r.subset.bits)
                for value, dense in ((r.s_a, _dense_entropy(state, regs)),
                                     (r.s_ra, _dense_entropy(state, ("R",) + regs))):
                    assert value == dense, (scheme.name, r.subset)
                    assert np.signbit(value) == np.signbit(dense), (scheme.name, r.subset)
                signed_zeros += np.signbit(r.s_ra)
    assert signed_zeros == sum(m // 2 for m in range(3, 8))


@pytest.mark.parametrize("m", range(3, 8))
def test_s_with_ref_is_the_entropy_of_the_other_particles(m):
    assignments = [identity_assignment(m)]
    # the dealer keeps the last particle, or the last two
    for kept in range(1, min(2, m - 2) + 1):
        held = {f"P{i}": (i,) for i in range(1, m - kept + 1)}
        assignments.append({**held, DEALER: tuple(range(m - kept + 1, m + 1))})
    base, _ = build_block_scheme(m, range(1, (m + 1) // 2 + 1))
    for assignment in assignments:
        scheme = SchemeSpec(m, base.basis_images, assignment)
        state = distribute_purified(scheme)
        table = SubsetEntropyTable(state, m)
        for subset, _, s_ra, _ in entropy_profile(scheme):
            mask = sum(1 << (p - 1) for p in scheme.particles_of(subset.bits))
            regs = scheme.registers_of(subset.bits)
            others = tuple(f"p{p}" for p in range(1, m + 1) if not mask >> (p - 1) & 1)
            assert s_ra == table.read([mask])[1][0]
            assert s_ra == register_entropy(state, ("R",) + regs), (assignment, subset)
            if others:
                assert s_ra == register_entropy(state, others), (assignment, subset)


def test_matrix_logs_the_route_of_every_row(caplog, feasibility_rows):
    import logging

    import qsslab.verifier as verifier

    with caplog.at_level(logging.DEBUG, logger="qsslab.matrix"):
        verifier.feasibility_matrix()
    *events, summary = [r.getMessage() for r in caplog.records if r.name == "qsslab.matrix"]
    assert summary.startswith("matrix: ")
    assert len(events) == len(feasibility_rows)
    for message, row in zip(events, feasibility_rows):
        assert message.startswith(f"row {row.number} ")
        route = message.split(": ", 1)[1]
        if row.gqss == "unknown":
            assert route.startswith("none of 8 routes: ") and "search base (m=7, k=3)" in route
        elif "via search" in row.scheme_name:
            m = row.scheme_name.split("n=")[1].split(",")[0]
            assert route.startswith(f"search base (m={m}, k=")
        elif "via documented" in row.scheme_name:
            assert route == f"documented recipe over {row.scheme_name.split(' via')[0]}"
        else:
            assert route == f"direct star {row.scheme_name}"


def test_routes_of_every_catalog_row():
    """A row's fixed routes, with the route tables' assignments, then one search per base in order."""
    from qsslab.structures import HYPERSTAR_CATALOG
    from qsslab.verifier import DIRECT_STARS, DOCUMENTED_ASSIGNMENTS, _routes, _search_bases

    bases = {}

    def prepared(m, block):
        if (m, block) not in bases:
            bases[m, block] = PreparedBase(*build_block_scheme(m, block))
        return bases[m, block]

    for entry in HYPERSTAR_CATALOG:
        routes = list(_routes(entry, prepared, 1e-9))
        fixed = []
        if entry.number in (2, 4, 8):
            n, center = DIRECT_STARS[entry.number]
            name = f"star(n={n},center={center})"
            fixed.append((f"direct star {name}", bases[n, (center,)], identity_assignment(n), name))
        if entry.number in (5, 7, 13, 14):
            (m, block), recipe = DOCUMENTED_ASSIGNMENTS[entry.number]
            name = bases[m, block].scheme.name
            fixed.append((f"documented recipe over {name}", bases[m, block], recipe,
                          f"{name} via documented assignment"))
        searches = [
            (f"search base (m={m}, k={len(block)})", bases[m, block],
             search_assignment(bases[m, block], entry.structure, allow_dealer=True),
             f"{bases[m, block].scheme.name} via search")
            for m, block in _search_bases(entry.structure.n)
        ]
        assert routes == fixed + searches, entry.number


# ---------------------------------------------------------------------------
# prepared bases: one per (m, block) in a matrix call, shared by every route


def _outcome(check, *args):
    """The report's document by repr (signed zeros kept) with its hash, or the mismatch message."""
    try:
        report = check(*args)
    except StructuralMismatchError as exc:
        return str(exc)
    return repr(report_to_dict(report)), report_hash(report)


def test_prepared_base_searches_equal_fresh_searches():
    from qsslab.schemes import PreparedBase, search_assignment
    from qsslab.structures import HYPERSTAR_CATALOG
    from qsslab.verifier import _search_bases

    hits = 0
    for m, block in _search_bases(3):
        prepared = PreparedBase(*build_block_scheme(m, block))
        for entry in HYPERSTAR_CATALOG:
            target = entry.structure
            if target.n > m:
                continue
            shared = search_assignment(prepared, target, allow_dealer=True)
            fresh_base = PreparedBase(*build_block_scheme(m, block))
            fresh = search_assignment(fresh_base, target, allow_dealer=True)
            assert shared == fresh, (m, block, entry.number)
            if shared is None:
                continue
            hits += 1
            candidate = SchemeSpec(m, prepared.scheme.basis_images, shared, "candidate")
            from_table = _outcome(
                _report, prepared.table, candidate, target, "generalized", 1e-9
            )
            assert from_table == _outcome(verify, candidate, target), (m, block, entry.number)
    assert hits


def test_every_matrix_report_equals_a_fresh_verify(monkeypatch):
    import qsslab.verifier as verifier

    reports = []
    real_report = verifier._report

    def recording(table, *args):
        try:
            result = real_report(table, *args)
        except StructuralMismatchError as exc:
            reports.append((args, str(exc)))
            raise
        reports.append((args, result))
        return result

    monkeypatch.setattr(verifier, "_report", recording)
    verifier.feasibility_matrix()
    monkeypatch.undo()
    assert len(reports) >= 14
    for args, result in reports:
        if not isinstance(result, str):
            result = repr(report_to_dict(result)), report_hash(result)
        assert result == _outcome(verify, *args), args[0].name


def test_matrix_prepares_each_base_once(monkeypatch, caplog):
    import logging
    import re
    from collections import Counter

    import qsslab.schemes as schemes
    import qsslab.verifier as verifier

    classes, states = Counter(), Counter()
    real_classes, real_distribute = schemes.interchangeable_classes, schemes.distribute_purified

    def counting_classes(scheme, gamma):
        classes[scheme.name] += 1
        return real_classes(scheme, gamma)

    def counting_distribute(scheme, *args):
        states[scheme.name] += 1
        return real_distribute(scheme, *args)

    monkeypatch.setattr(schemes, "interchangeable_classes", counting_classes)
    monkeypatch.setattr(schemes, "distribute_purified", counting_distribute)
    monkeypatch.setattr(verifier, "distribute_purified", counting_distribute)
    with caplog.at_level(logging.DEBUG, logger="qsslab.matrix"):
        matrix = verifier.feasibility_matrix()
    bases = {build_block_scheme(m, block)[0].name for m, block in verifier._search_bases(3)}
    assert set(classes) == bases and set(classes.values()) == {1}
    assert set(states) <= bases and set(states.values()) == {1}

    # a row runs its search bases in order up to the one that realizes it, or all of them
    expected_searches = 0
    for row in matrix:
        names = [build_block_scheme(m, block)[0].name for m, block in verifier._search_bases(row.players)]
        if row.gqss == "unknown":
            expected_searches += len(names)
        elif row.scheme_name.endswith(" via search"):
            expected_searches += names.index(row.scheme_name.split(" via")[0]) + 1
    summary = [r.getMessage() for r in caplog.records if r.name == "qsslab.matrix"][-1]
    found = re.fullmatch(
        r"matrix: (\d+) bases prepared, (\d+) searches, "
        r"(\d+) entropy-table entries computed, (\d+) read",
        summary,
    )
    assert found, summary
    prepared, searches, computed, read = map(int, found.groups())
    assert prepared == len(bases)
    assert searches == expected_searches
    # every built table computes each of its 2^m entries at most once
    assert 0 < computed <= sum(1 << int(name.split("n=")[1].split(",")[0]) for name in states)
    assert computed < read


# ---------------------------------------------------------------------------
# the columnar entropy-condition pass against the per-subset reference loop


def _assignment(draw, m, n, dealer):
    """A random assignment of m particles to P1..Pn, and to the dealer when it takes part."""
    holders = [f"P{i}" for i in range(1, n + 1)] + ([DEALER] if dealer else [])
    owner = draw(st.lists(st.integers(0, len(holders) - 1), min_size=m, max_size=m))
    return {h: tuple(p + 1 for p in range(m) if owner[p] == j) for j, h in enumerate(holders)}


def _admissible_structure(draw, n):
    """A random admissible structure on n players: sets through one center, or majorities."""
    center = draw(st.integers(1, n)) if draw(st.booleans()) else None
    masks = []
    for _ in range(draw(st.integers(1, 4))):
        if center:
            players = {center} | draw(st.sets(st.integers(1, n), max_size=n - 1))
        else:  # more than n/2 players, so any two sets meet
            players = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(n // 2 + 1, n))]
        masks.append(sum(1 << (p - 1) for p in players))
    return antichain_reduce(n, masks)


def _realized_structure(scheme, base):
    """The structure the scheme's assignment induces on base, or None if empty or inadmissible."""
    induced = induce_structure(scheme, base)
    return induced if induced.minimal_sets and is_quantum_admissible(induced) else None


@st.composite
def verify_cases(draw, dealer=None):
    """(scheme, claimed admissible structure, model, tolerance) over at most 6 particles.

    Images are a random isometry, a block scheme's or the five-qubit code's,
    whose exact correlations make structural mismatches and perfect verdicts
    reachable.  Particles go to players P1..Pn, or to the dealer when it is
    drawn; dealer=False or True fixes whether it takes part.
    """
    m = draw(st.integers(2, 6))
    base = None
    if m == 5 and draw(st.booleans()):
        images, base = five_qubit_images(), threshold_structure(3, 5)
    elif m >= 3 and draw(st.booleans()):
        block = draw(st.integers(1, (1 << m) - 2))
        scheme, base = build_block_scheme(m, PlayerSubset(block, m))
        images = scheme.basis_images
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.normal(size=(1 << m, 2)) + 1j * rng.normal(size=(1 << m, 2)))
        images = q.T
    n = draw(st.integers(2, m))
    dealer = draw(st.booleans()) if dealer is None else dealer
    scheme = SchemeSpec(m, images, _assignment(draw, m, n, dealer), name="case")
    gamma = None
    if base is not None and draw(st.booleans()):
        gamma = _realized_structure(scheme, base)
    if gamma is None:
        gamma = _admissible_structure(draw, n)
    return scheme, gamma, draw(st.sampled_from(["generalized", "perfect"])), \
        draw(st.sampled_from([1e-12, 1e-6]))


def _reprs(values):
    return [repr(v) for v in values]


def _error(call):
    try:
        return None, call()
    except StructuralMismatchError as exc:
        return exc, None


def assert_same_report(call, reference_call):
    """A columnar report against the reference's, every float by repr, or the same error."""
    error, report = _error(call)
    ref_error, rep = _error(reference_call)
    assert type(error) is type(ref_error)
    if error is not None:
        assert str(error) == str(ref_error)
        assert error.witness == ref_error.witness
        assert repr(error.i_ra) == repr(ref_error.i_ra)
        assert repr(error.i_rs) == repr(ref_error.i_rs)
        return
    got = report_records(report)
    assert [r.subset for r in got] == [r.subset for r in rep.records]
    for column in ("classification", "s_a", "s_ra", "i_ra", "condition_pass"):
        assert _reprs(getattr(r, column) for r in got) == _reprs(
            getattr(r, column) for r in rep.records), column
    for field in ("scheme", "model", "verdict", "witness", "entropy_balanced",
                  "meets_requested", "requested_witness"):
        assert getattr(report, field) == getattr(rep, field), field
    for field in ("i_rs", "s_s", "worst_balance_deviation"):
        assert repr(getattr(report, field)) == repr(getattr(rep, field)), field
    assert repr(sorted(report_to_dict(report).items())) == repr(sorted(ref.report_doc(rep).items()))
    assert report_hash(report) == ref.report_hash(rep)


@given(verify_cases())
@example((build_block_scheme(5, [1, 2])[0], threshold_structure(3, 5), "generalized", 1e-12))
@example((build_block_scheme(5, [1, 2])[0], build_block_scheme(5, [1, 2])[1], "perfect", 1e-6))
@settings(max_examples=200, deadline=None)
def test_columnar_pass_matches_the_reference_loop(case):
    scheme, gamma, model, tolerance = case
    codes = gamma.class_codes
    table = SubsetEntropyTable(distribute_purified(scheme), scheme.num_particles)
    ev = _evaluate(table, scheme.player_masks, codes, tolerance)
    ref_table = SubsetEntropyTable(distribute_purified(scheme), scheme.num_particles)
    want = ref.evaluate(ref_table, scheme.player_masks, codes, tolerance)
    assert repr(ev["s_s"]) == repr(want.s_s)
    assert [CLASS_NAMES[c] for c in ev["classes"]] == [r.classification for r in want.records]
    for column in ("s_a", "s_ra", "i_ra"):
        assert _reprs(ev[column].tolist()) == _reprs(getattr(r, column) for r in want.records)
    assert ev["ok"].tolist() == [r.condition_pass for r in want.records]
    assert_same_report(lambda: verify(scheme, gamma, model, tolerance),
                       lambda: ref.report(scheme, gamma, model, tolerance))


class FixedTable:
    """SubsetEntropyTable's read over given entropies s[A], 0.0 for no particles."""

    def __init__(self, s):
        self._s = np.asarray(s, dtype=np.float64)

    def read(self, masks):
        masks = np.asarray(masks, dtype=np.int64)
        return np.where(masks == 0, 0.0, self._s[masks]), self._s[(len(self._s) - 1) ^ masks]


_GRID = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, float("nan")])


@given(verify_cases(), st.lists(_GRID, min_size=64, max_size=64),
       st.sampled_from([0.25, 0.5, 1e-9]))
@example(  # the perfect model's I(R:A) > tolerance, with I(R:A) = 2 tolerance
    (SchemeSpec(3, build_block_scheme(3, [1])[0].basis_images, {"P1": (2, 3), "P2": (1,)}),
     AccessStructure.from_sets(2, [[1, 2]]), "perfect", 1e-12),
    [0.0] * 7 + [0.5], 0.25,
)
@settings(max_examples=300, deadline=None)
def test_columnar_pass_matches_the_reference_at_the_boundaries(case, entropies, tolerance):
    """Entropies on a binary grid, signed zeros and NaN, at tolerances the grid hits exactly."""
    scheme, gamma, model, _ = case
    s = entropies[: 1 << scheme.num_particles]
    assert_same_report(lambda: _report(FixedTable(s), scheme, gamma, model, tolerance),
                       lambda: ref.report(scheme, gamma, model, tolerance, FixedTable(s)))


# ---------------------------------------------------------------------------
# one judge: verify holds a scheme to the entropy conditions alone, as the search does


@given(verify_cases(dealer=False))
@settings(max_examples=200, deadline=None)
def test_pure_schemes_are_never_perfect_over_a_nonempty_a2(case):
    """With every particle at a player, I(R:B) + I(R:Bbar) = 2 S(R) for B and Bbar in A2.

    S(R) = 1 for the maximally mixed secret, so both terms cannot be within
    the tolerance of 0.
    """
    scheme, gamma, model, tolerance = case
    assume((gamma.class_codes == A2).any())
    try:
        report = verify(scheme, gamma, model, tolerance)
    except StructuralMismatchError:
        return
    assert report.verdict != "perfect"


@st.composite
def search_cases(draw):
    """(PreparedBase, admissible target, allow_dealer) over block bases, m = 3..7, or the five-qubit code.

    Half the targets are induced by a random assignment the search may use,
    so hits are common; the others are random admissible structures.
    """
    if draw(st.integers(0, 5)) == 0:
        base = PreparedBase(five_qubit_scheme(identity_assignment(5)), threshold_structure(3, 5))
    else:
        m = draw(st.integers(3, 7))
        base = PreparedBase(*build_block_scheme(m, PlayerSubset(draw(st.integers(1, (1 << m) - 2)), m)))
    m = base.scheme.num_particles
    allow_dealer = draw(st.booleans())
    n = draw(st.integers(2, min(m, 5)))  # at most 6^7 profiles, with the dealer
    target = None
    if draw(st.booleans()):
        scheme = SchemeSpec(m, base.scheme.basis_images, _assignment(draw, m, n, allow_dealer))
        target = _realized_structure(scheme, base.structure)
    if target is None:
        target = _admissible_structure(draw, n)
    return base, target, allow_dealer


@given(search_cases())
@settings(max_examples=150, deadline=None)
def test_every_search_hit_verifies(case):
    base, target, allow_dealer = case
    assignment = search_assignment(base, target, allow_dealer)
    if assignment is None:
        return
    found = SchemeSpec(base.scheme.num_particles, base.scheme.basis_images, assignment)
    assert verify(found, target).verdict != "fail"


@given(verify_cases(dealer=True))
@settings(max_examples=100, deadline=None)
def test_scheme_verify_exits_without_a_traceback(tmp_path_factory, case):
    scheme, gamma, model, tolerance = case
    workdir = tmp_path_factory.getbasetemp() / "judge"
    workdir.mkdir(exist_ok=True)
    scheme_path, gamma_path = workdir / "scheme.json", workdir / "gamma.json"
    scheme_path.write_text(json.dumps(save_scheme(scheme)))
    gamma_path.write_text(json.dumps(structure_to_dict(gamma)))
    argv = ["scheme", "verify", str(scheme_path), str(gamma_path), "--model", model,
            "--tolerance", repr(tolerance), "--format", "json", "--out", str(workdir / "out.json")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in {0, 3, 4}
