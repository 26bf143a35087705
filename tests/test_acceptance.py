"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the -v test names double as the pass/fail report.
"""

import time

import numpy as np
import pytest

from qsslab.protocols import (
    decoupling_decoder,
    attack_threshold34_pair12,
    attack_threshold34_pair23,
    random_secrets,
    run_block_measure_protocol,
    run_threshold34_circuit,
)
from qsslab.qstate import (
    PureState,
    RegisterLayout,
    mutual_information,
    partial_trace,
)
from qsslab.schemes import build_block_scheme, build_threshold34, distribute_purified
from qsslab.structures import (
    AccessStructure,
    PlayerSubset,
    _adversary_masks,
    catalog_number,
    enumerate_hyperstars,
    perfect_feasibility,
    threshold_structure,
)
from qsslab.verifier import verify
from reference_structures import brute_canonical, complement_law_by_definition
from reference_verifier import register_entropy, report_records, trace_density_matrix

SQ2 = 2**-0.5


def announce(number, elapsed, message):
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.3f} s): {message}")


def test_criterion_1_distributed_state_is_exact():
    build_threshold34()  # warm the code paths before timing
    distribute_purified(build_threshold34())
    best = min(
        (lambda t0: (distribute_purified(build_threshold34()), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    state = distribute_purified(build_threshold34())
    expected = np.zeros(32, dtype=np.complex128)
    for ket in ("00000", "01111", "10011", "11100"):
        expected[int(ket, 2)] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
    assert best < 1e-3, f"state construction took {best * 1e3:.3f} ms"
    announce(1, best, "four-share state amplitudes exact within 1e-12, built under 1 ms")


def test_criterion_2_threshold34_entropy_profile():
    t0 = time.perf_counter()
    scheme = build_threshold34()
    report = verify(scheme, threshold_structure(3, 4))
    assert report.i_rs == pytest.approx(2.0, abs=1e-9)
    assert report.s_s == pytest.approx(1.0, abs=1e-9)
    for r in report_records(report):
        expected = {1: 0.0, 2: 1.0, 3: 2.0, 4: 2.0}[len(r.subset)]
        assert r.i_ra == pytest.approx(expected, abs=1e-9), str(r.subset)
    assert report.verdict == "generalized"
    perfect = verify(scheme, threshold_structure(3, 4), model="perfect")
    assert not perfect.meets_requested
    announce(2, time.perf_counter() - t0, "I(R:A) = 2/1/0 by subset size; generalized, not perfect")


def test_criterion_3_block_scheme_verification_numbers():
    t0 = time.perf_counter()
    scheme, gamma = build_block_scheme(5, [1, 2])
    report = verify(scheme, gamma)
    assert report.i_rs == pytest.approx(2.0, abs=1e-9)
    assert report.s_s == pytest.approx(1.0, abs=1e-9)
    values = {"authorized": 2.0, "A1": 0.0, "A2": 1.0}
    for r in report_records(report):
        assert r.i_ra == pytest.approx(values[r.classification], abs=1e-9), str(r.subset)
    announce(3, time.perf_counter() - t0, "five-share block scheme: I = 2 / 0 / 1 per class")


def _admissible_antichains(n):
    """Every antichain of pairwise-intersecting nonempty subsets of [n]."""
    out = []

    def extend(start, chosen):
        for mask in range(start, 1 << n):
            if any(c & mask == c for c in chosen):
                continue
            if any(c & mask == 0 for c in chosen):
                continue
            chosen.append(mask)
            out.append(tuple(chosen))
            extend(mask + 1, chosen)
            chosen.pop()

    extend(1, [])
    return out


def test_criterion_4_theorem_machine_checks():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 6):
        for masks in _admissible_antichains(n):
            gamma = AccessStructure.from_masks(n, masks)
            assert complement_law_by_definition(gamma), str(gamma)
            a1, a2 = _adversary_masks(gamma)
            closure = sum(
                1 for bits in range(1, 1 << n) if gamma.authorized[bits]
            )
            assert len(a1) + len(a2) + closure == (1 << n) - 1
            assert (perfect_feasibility(gamma) is None) == (not a2.size)
            checked += 1
    for k in range(2, 6):
        assert perfect_feasibility(threshold_structure(k, 2 * k - 1)) is None
        for n in range(k, 2 * k - 1):
            assert perfect_feasibility(threshold_structure(k, n)) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(4, elapsed, f"complement law, partition totality, feasibility on {checked} structures; threshold law for k <= 5")


def test_criterion_5_entropy_balance_equivalence(constructed_schemes):
    t0 = time.perf_counter()
    worst = 0.0
    for scheme, gamma in constructed_schemes:
        report = verify(scheme, gamma)
        assert report.entropy_balanced == (report.verdict != "fail"), scheme.name
        assert report.entropy_balanced, scheme.name
        worst = max(worst, report.worst_balance_deviation)
    assert worst <= 1e-9
    announce(
        5,
        time.perf_counter() - t0,
        f"balance matches the generalized verdict on {len(constructed_schemes)} schemes; worst |S(A)-S(comp)| = {worst:.2e}",
    )


def test_criterion_6_reconstruction_fidelities(constructed_schemes):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    threshold34 = build_threshold34()
    for acting in ((1, 3, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4)):
        for secret in random_secrets(rng, 20):
            out = run_threshold34_circuit(threshold34, acting, secret)
            assert out.fidelity >= 1.0 - 1e-9
    block_scheme, _ = build_block_scheme(5, [1, 2])
    for outsider in (3, 4, 5):
        for secret in random_secrets(rng, 20):
            out = run_block_measure_protocol(block_scheme, [1, 2], [1, 2, outsider], secret)
            assert out.fidelity >= 1.0 - 1e-9
    decoder_runs = 0
    for scheme, gamma in constructed_schemes:
        state = distribute_purified(scheme)
        n = scheme.num_players
        for bits in range(1, 1 << n):
            subset = PlayerSubset(bits, n)
            if not gamma.authorized[subset.bits]:
                continue
            result = decoupling_decoder(state, scheme.registers_of(bits))
            assert result.fidelity >= 1.0 - 1e-6, (scheme.name, str(subset))
            decoder_runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(6, elapsed, f"circuit 80 runs, measure 60 runs, decoder {decoder_runs} authorized sets, all at fidelity")


def test_criterion_7_feasibility_matrix():
    from qsslab.verifier import feasibility_matrix

    t0 = time.perf_counter()
    matrix = feasibility_matrix()
    elapsed = time.perf_counter() - t0
    rows = {row["no"]: row for row in matrix["rows"]}
    assert len(rows) == 16
    for row in matrix["rows"]:
        assert row["pqss"] == "infeasible"
        assert row["pqss_witness"] is not None
    for number in (1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16):
        assert rows[number]["gqss"] == "verified", number
    for number in (9, 10):
        assert rows[number]["gqss"] == "unknown", number
    assert any("rejected" in note for note in rows[5]["notes"])
    assert rows[5]["assignment"] is not None
    assert elapsed < 120.0
    announce(7, elapsed, "16/16 perfect-infeasible; generalized verified except 9 and 10 unknown; row-5 recipe corrected")


def test_criterion_8_enumeration_regression():
    t0 = time.perf_counter()
    classes = enumerate_hyperstars(5)
    per_n = {}
    for n, gamma in classes:
        per_n.setdefault(n, []).append(gamma)
    for n, minimum in ((2, 1), (3, 2), (4, 4), (5, 9)):
        assert len(per_n[n]) >= minimum, (n, len(per_n[n]))
    matched = set()
    for n, gamma in classes:
        number = catalog_number(gamma)
        if number:
            matched.add(number)
    assert matched == set(range(1, 17))
    for group in per_n.values():
        keys = [brute_canonical(g) for g in group]
        assert len(set(keys)) == len(keys)
    extras = [g for n, g in classes if catalog_number(g) is None]
    assert extras, "expected classes beyond the catalog"
    triangle = AccessStructure.from_sets(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])
    assert brute_canonical(triangle) in {brute_canonical(g) for g in extras if g.n == 4}
    announce(
        8,
        time.perf_counter() - t0,
        f"counts {tuple(len(per_n[n]) for n in (2, 3, 4, 5))}; all 16 cataloged classes found; "
        f"{len(extras)} classes beyond the catalog kept separate",
    )


def test_criterion_9_property_suites(constructed_schemes):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    # purity symmetry and complementary information on 100 random states
    for _ in range(100):
        n = int(rng.integers(2, 9))
        labels = tuple(f"q{i}" for i in range(n))
        raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = PureState(RegisterLayout(labels), raw / np.linalg.norm(raw))
        cut = int(rng.integers(1, n))
        order = list(rng.permutation(n))
        left = tuple(labels[i] for i in order[:cut])
        right = tuple(labels[i] for i in order[cut:])
        s_left, s_right = register_entropy(state, left), register_entropy(state, right)
        assert abs(s_left - s_right) <= 1e-9
        # complementary identity against the first register as reference
        rest = tuple(l for l in labels if l != labels[0])
        half = len(rest) // 2
        i_a = mutual_information(state, (labels[0],), rest[:half]) if half else 0.0
        i_b = mutual_information(state, (labels[0],), rest[half:])
        s_r = register_entropy(state, (labels[0],))
        if half:
            assert abs(i_a + i_b - 2.0 * s_r) <= 1e-9
    # partial-trace composition on the distributed threshold state
    state = distribute_purified(build_threshold34())
    rho_three = partial_trace(state, ("p1", "p2", "p3"))
    np.testing.assert_allclose(
        trace_density_matrix(rho_three, ("p1", "p2")).matrix,
        partial_trace(state, ("p1", "p2")).matrix,
        atol=1e-12,
    )
    # isometry Gram checks on every constructed scheme
    for scheme, _ in constructed_schemes:
        gram = scheme.basis_images @ scheme.basis_images.conj().T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
    # attack scenarios: collapse state and the vacuous outcome-1 branch
    report = attack_threshold34_pair12((0.6, 0.8))
    assert report.branch_probabilities["1"] == 0.0
    kets = {b: a for b, a in report.outcome0_residual.ket_terms()}
    assert kets["000"] == pytest.approx(0.6 * SQ2, abs=1e-12)
    assert kets["111"] == pytest.approx(0.6 * SQ2, abs=1e-12)
    assert kets["100"] == pytest.approx(0.8 * SQ2, abs=1e-12)
    assert kets["011"] == pytest.approx(0.8 * SQ2, abs=1e-12)
    phase = attack_threshold34_pair23((SQ2, SQ2), 1.1)
    assert phase.phase_blind
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(9, elapsed, "purity symmetry, information identities, trace composition, Gram and attack checks")
