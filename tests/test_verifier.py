import json

import numpy as np
import pytest

from qsslab.schemes import DEALER, SchemeSpec, build_block_scheme, identity_assignment
from qsslab.structures import (
    AccessStructure,
    StructureError,
    adversary_partition,
    threshold_structure,
)
from qsslab.verifier import (
    StructuralMismatchError,
    SubsetEntropyTable,
    _evaluate,
    check_entropy_balance,
    entropy_profile,
    matrix_to_dict,
    report_hash,
    report_to_dict,
    verify,
)
from qsslab.qstate import ResourceLimitError
from qsslab.schemes import distribute_purified


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
        for r in report.records:
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
        assert len(report.records) == 15
        assert sorted(r.subset.bits for r in report.records) == list(range(1, 16))

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
        by_bits = {r.subset.bits: r for r in report.records}
        for r in report.records:
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
        for r in report.records:
            if r.classification == "authorized":
                assert r.i_ra == pytest.approx(2.0, abs=1e-9)
            elif r.classification == "A1":
                assert r.i_ra == pytest.approx(0.0, abs=1e-9)
            else:
                assert r.i_ra == pytest.approx(1.0, abs=1e-9)

    def test_named_sets(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        report = verify(scheme, gamma)
        assert report.record_for([1, 2, 3]).i_ra == pytest.approx(2.0, abs=1e-9)
        assert report.record_for([1, 3, 4, 5]).i_ra == pytest.approx(2.0, abs=1e-9)
        assert report.record_for([3]).classification == "A1"
        assert report.record_for([1, 2]).classification == "A2"


class TestVerifyFailures:
    def test_corrupted_scheme_fails_with_witness(self, corrupted_scheme, threshold34_gamma):
        report = verify(corrupted_scheme, threshold34_gamma)
        assert report.verdict == "fail"
        assert report.witness is not None
        failing = [r for r in report.records if not r.condition_pass]
        assert failing
        assert report.witness == failing[0].subset
        # the breakage shows as an authorized triple short of full correlation
        triple = report.record_for([1, 2, 3])
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
        result = check_entropy_balance(threshold34_scheme, threshold34_gamma)
        assert result.balanced
        assert result.worst_deviation <= 1e-9
        assert result.generalized_ok and result.agrees_with_verify

    def test_block_scheme_balanced(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        result = check_entropy_balance(scheme, gamma)
        assert result.balanced and result.agrees_with_verify

    def test_corrupted_scheme_unbalanced(self, corrupted_scheme, threshold34_gamma):
        result = check_entropy_balance(corrupted_scheme, threshold34_gamma)
        assert not result.balanced
        assert result.worst_deviation == pytest.approx(0.5, abs=1e-9)
        assert not result.generalized_ok
        assert result.agrees_with_verify

    def test_witness_is_first_worst_a2_member(self, corrupted_scheme, threshold34_gamma):
        from qsslab.qstate import subsystem_entropy

        state = distribute_purified(corrupted_scheme)

        def s(subset):
            return subsystem_entropy(state, [f"p{p}" for p in subset.players()])

        a2 = adversary_partition(threshold34_gamma).a2
        devs = [abs(s(a) - s(a.complement())) for a in a2]
        result = check_entropy_balance(corrupted_scheme, threshold34_gamma)
        assert result.worst_deviation == pytest.approx(max(devs), abs=1e-12)
        assert result.witness == a2[devs.index(max(devs))]
        report = verify(corrupted_scheme, threshold34_gamma)
        assert report.worst_balance_deviation == result.worst_deviation

    def test_mismatch_counts_as_not_generalized(self, threshold34_scheme):
        claimed = AccessStructure.from_sets(4, [[1, 2, 3, 4]])
        result = check_entropy_balance(threshold34_scheme, claimed)
        assert not result.generalized_ok


class TestEntropyProfile:
    def test_uniform_secret_matches_verify(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        records = verify(scheme, gamma).records
        assert entropy_profile(scheme) == [(r.subset, r.s_a, r.s_ra, r.i_ra) for r in records]

    def test_biased_secret_scaling(self, threshold34_scheme, threshold34_gamma):
        p = 0.3
        h = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        profile = entropy_profile(threshold34_scheme, (p, 1 - p))
        assert len(profile) == 15
        for subset, _, _, i_ra in profile:
            if threshold34_gamma.contains(subset):
                expected = 2 * h  # recoverable sets keep the full correlation
            elif len(subset) == 2:
                expected = h  # unavoidable sets hold exactly the secret entropy
            else:
                expected = 0.0
            assert i_ra == pytest.approx(expected, abs=1e-9), str(subset)


class TestEntropyTable:
    def test_lookup_matches_direct_computation(self, threshold34_scheme):
        from qsslab.qstate import subsystem_entropy

        state = distribute_purified(threshold34_scheme)
        table = SubsetEntropyTable(state, 4)
        assert table.s(0b0011) == pytest.approx(
            subsystem_entropy(state, ("p1", "p2")), abs=1e-12
        )
        assert table.s_with_ref(0b0011) == pytest.approx(
            subsystem_entropy(state, ("R", "p1", "p2")), abs=1e-12
        )
        i_ref = table.s_ref + table.s(0b0111) - table.s_with_ref(0b0111)
        assert i_ref == pytest.approx(2.0, abs=1e-9)

    def test_generalized_checker_accepts_identity(self, threshold34_scheme, threshold34_gamma):
        table = SubsetEntropyTable(distribute_purified(threshold34_scheme), 4)
        classes = threshold34_gamma.subset_classes
        result = _evaluate(table, [0b0001, 0b0010, 0b0100, 0b1000], classes, 1e-9)
        assert not result.failing
        assert result.verdict == "generalized" and result.mismatch is None

    def test_generalized_checker_rejects_bad_grouping(self, threshold34_scheme):
        # claiming the star while the state realizes the threshold
        star = AccessStructure.from_sets(4, [[1, 2], [1, 3], [1, 4]])
        table = SubsetEntropyTable(distribute_purified(threshold34_scheme), 4)
        result = _evaluate(table, [0b0001, 0b0010, 0b0100, 0b1000], star.subset_classes, 1e-9)
        assert result.failing and result.verdict == "fail"


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
        assert len(feasibility_rows.rows) == 16
        for row in feasibility_rows.rows:
            assert not row.pqss_feasible, row.number
            assert row.pqss_witness is not None

    def test_gqss_verdicts(self, feasibility_rows):
        expected_unknown = {9, 10}
        for row in feasibility_rows.rows:
            if row.number in expected_unknown:
                assert row.gqss == "unknown", row.number
                assert row.assignment is None
            else:
                assert row.gqss == "verified", row.number
                assert row.assignment is not None
                assert row.report_hash is not None

    def test_documented_assignment_rows(self, feasibility_rows):
        rows = {row.number: row for row in feasibility_rows.rows}
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
        rows = {row.number: row for row in feasibility_rows.rows}
        assert any("rejected" in note for note in rows[5].notes)
        assert rows[5].gqss == "verified"

    def test_verified_assignments_revalidate(self, feasibility_rows):
        for row in feasibility_rows.rows:
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
        real_verify = verifier.verify

        def spy(scheme, gamma, model="generalized", tolerance=verifier.DEFAULT_TOLERANCE):
            seen.append((scheme.name, tolerance))
            return real_verify(scheme, gamma, model, tolerance)

        monkeypatch.setattr(verifier, "verify", spy)
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
    from qsslab.qstate import partial_trace, subsystem_entropy, von_neumann_entropy

    for m in range(3, 10):
        scheme, _ = build_block_scheme(m, range(1, (m + 1) // 2 + 1))
        state = distribute_purified(scheme)
        labels = state.layout.labels
        for bits in range(1, (1 << len(labels)) - 1):
            regs = tuple(labels[i] for i in range(len(labels)) if bits >> i & 1)
            dense = von_neumann_entropy(partial_trace(state, regs))
            assert abs(subsystem_entropy(state, regs) - dense) <= 1e-12, (m, regs)


def test_matrix_entropies_are_bit_equal_to_partial_trace(monkeypatch):
    import qsslab.verifier as verifier
    from qsslab.qstate import cut_entropies, partial_trace, von_neumann_entropy

    seen = []

    def recording(state, keep_masks):
        values = cut_entropies(state, keep_masks)
        seen.append((state, list(keep_masks), values))
        return values

    monkeypatch.setattr(verifier, "cut_entropies", recording)
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
    assert len(report.records) == (1 << 13) - 1
    authorized = [r for r in report.records if r.classification == "authorized"]
    assert authorized
    for r in authorized:
        assert r.i_ra == pytest.approx(2.0, abs=1e-9), str(r.subset)
    # a four-term state: every spectrum comes from a Gram matrix of at most 4 x 4
    assert max(dims) <= 4
    # the 2^13 cut entropies come from a few stacked calls, not one call per cut
    assert len(dims) <= 30, len(dims)


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
            for r in verify(scheme, gamma).records:
                regs = scheme.registers_of(r.subset.bits)
                for value, dense in ((r.s_a, _dense_entropy(state, regs)),
                                     (r.s_ra, _dense_entropy(state, ("R",) + regs))):
                    assert value == dense, (scheme.name, r.subset)
                    assert np.signbit(value) == np.signbit(dense), (scheme.name, r.subset)
                signed_zeros += np.signbit(r.s_ra)
    assert signed_zeros == sum(m // 2 for m in range(3, 8))


@pytest.mark.parametrize("m", range(3, 8))
def test_s_with_ref_is_the_entropy_of_the_other_particles(m):
    from qsslab.qstate import subsystem_entropy

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
            assert s_ra == table.s_with_ref(mask)
            assert s_ra == subsystem_entropy(state, ("R",) + regs), (assignment, subset)
            if others:
                assert s_ra == subsystem_entropy(state, others), (assignment, subset)


def test_matrix_logs_the_route_of_every_row(caplog, feasibility_rows):
    import logging

    import qsslab.verifier as verifier

    with caplog.at_level(logging.DEBUG, logger="qsslab.matrix"):
        verifier.feasibility_matrix()
    events = [r.getMessage() for r in caplog.records if r.name == "qsslab.matrix"]
    assert len(events) == len(feasibility_rows.rows)
    for message, row in zip(events, feasibility_rows.rows):
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
