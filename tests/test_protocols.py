import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import reference_protocols as ref

from qsslab import protocols, qstate
from qsslab.protocols import (
    MAX_TRIALS,
    DecouplingError,
    ProtocolError,
    UnauthorizedSetError,
    _bit_vector,
    _gather,
    _secret_fidelities,
    attack_threshold34_pair12,
    attack_threshold34_pair23,
    decoupling_decoder,
    random_secrets,
    run_block_measure_protocol,
    run_threshold34_circuit,
    simulate_protocol,
)
from qsslab.qstate import PureState, RegisterLayout, mutual_information, partial_trace
from qsslab.schemes import (
    SchemeError,
    SchemeSpec,
    apply_to_secret,
    build_block_scheme,
    build_threshold34,
    distribute_purified,
    identity_assignment,
)
from qsslab.structures import PlayerSubset, threshold_structure

SQ2 = 2**-0.5
TRIPLES = ((1, 3, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4))
THRESHOLD34 = build_threshold34()


def seeded_secrets(count, seed=42):
    """(count, 2) array of seeded random secrets."""
    return random_secrets(np.random.default_rng(seed), count)


def gate(kind, controls, targets):
    """A gate as _gather takes it: its trace entry."""
    return {"step": kind, "controls": controls, "targets": targets}


def apply_gates(state, *gates):
    _, (amps,), _ = simulate_protocol(state.amplitudes[None], _gather(state.layout, gates))
    return PureState(state.layout, amps[0])


def measure(state, register):
    """(probabilities, states, vacuous) of measuring one register of one state."""
    return simulate_protocol(state.amplitudes[None], None, _bit_vector(state.layout, register))


def reference_gate(g):
    return ref.GateStep(g["step"], g["controls"], g["targets"])


# ---------------------------------------------------------------------------
# gate steps


GATES = [
    gate("pauli_x", (), ("b",)),
    gate("cnot", ("a",), ("c",)),
    gate("single_controlled", ("d",), ("a", "b")),
    gate("double_controlled", ("a", "d"), ("c",)),
]


def random_state(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    return PureState(RegisterLayout(("a", "b", "c", "d")), raw / np.linalg.norm(raw))


class TestGateSteps:
    def test_cnot_action(self):
        state = PureState(RegisterLayout(("a", "b")), [0, 0, 1, 0])  # |10>
        out = apply_gates(state, gate("cnot", ("a",), ("b",)))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_double_control_flips_on_differing_bits(self):
        # |011>: controls a=0, b=1 differ, so the target c flips
        state = PureState(RegisterLayout(("a", "b", "c")), [0, 0, 0, 1, 0, 0, 0, 0])
        out = apply_gates(state, gate("double_controlled", ("a", "b"), ("c",)))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0, 0, 0, 0, 0], atol=1e-15)
        # |110>: controls equal, nothing happens
        state = PureState(RegisterLayout(("a", "b", "c")), [0, 0, 0, 0, 0, 0, 1, 0])
        out = apply_gates(state, gate("double_controlled", ("a", "b"), ("c",)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_every_step_is_an_involution(self):
        state = random_state(23)
        for g in GATES:
            assert _gather(state.layout, [g, g]).tolist() == list(range(16))
            twice = apply_gates(state, g, g)
            np.testing.assert_array_equal(twice.amplitudes, state.amplitudes)

    def test_gates_match_the_per_state_reference(self):
        state = random_state(29)
        expected = state
        for g in GATES:
            expected = ref.apply_gate_step(expected, reference_gate(g))
        np.testing.assert_array_equal(apply_gates(state, *GATES).amplitudes, expected.amplitudes)

    def test_no_gates_is_no_gather(self):
        assert _gather(RegisterLayout(("a", "b")), []) is None

    def test_gates_leave_other_marginals_alone(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        state = apply_to_secret(scheme, 0.6, 0.8)
        before = partial_trace(state, ("p4", "p5")).matrix
        stepped = apply_gates(
            state, gate("cnot", ("p1",), ("p2",)), gate("pauli_x", (), ("p3",))
        )
        after = partial_trace(stepped, ("p4", "p5")).matrix
        np.testing.assert_allclose(before, after, atol=1e-12)


class TestMeasureStep:
    def test_branches_of_plus_state(self):
        state = PureState(RegisterLayout(("a",)), [SQ2, SQ2])
        probabilities, states, vacuous = measure(state, "a")
        assert probabilities.shape == (2, 1) and len(states) == 2
        assert probabilities[:, 0].tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
        assert not vacuous.any()

    def test_zero_probability_branch_reported(self):
        state = PureState(RegisterLayout(("a",)), [1.0, 0.0])
        probabilities, _, vacuous = measure(state, "a")
        assert probabilities[1, 0] == 0.0 and vacuous[1, 0]
        assert not vacuous[0, 0]

    def test_collapse_of_distributed_block_state(self):
        # measuring p3 on the five-share block state collapses the shares
        # to (a|00>+b|11>)|000> or (a|11>+b|00>)|111>
        scheme, _ = build_block_scheme(5, [1, 2])
        state = apply_to_secret(scheme, 0.6, 0.8)
        _, states, _ = measure(state, "p3")
        kets0 = dict(PureState(state.layout, states[0][0]).ket_terms())
        assert kets0["00000"] == pytest.approx(0.6, abs=1e-12)
        assert kets0["11000"] == pytest.approx(0.8, abs=1e-12)
        kets1 = dict(PureState(state.layout, states[1][0]).ket_terms())
        assert kets1["11111"] == pytest.approx(0.6, abs=1e-12)
        assert kets1["00111"] == pytest.approx(0.8, abs=1e-12)

    def test_zero_probability_rows_are_masked_without_warnings(self):
        # row 0 never yields a = 1, row 1 does half the time
        layout = RegisterLayout(("a", "b"))
        block = np.array([[SQ2, SQ2, 0, 0], [0.5, 0.5, 0.5, 0.5]], dtype=np.complex128)
        cnot = gate("cnot", ("a",), ("b",))
        after = _gather(layout, [cnot])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probabilities, states, vacuous = simulate_protocol(
                block, None, _bit_vector(layout, "a"), (after, after))
            fid, pure = _secret_fidelities(
                states[1], layout, "b", np.array([[1, 0], [1, 0]], dtype=complex)
            )
        assert vacuous[1].tolist() == [True, False]
        assert probabilities[1].tolist() == [0.0, 0.5]
        assert probabilities[0].tolist() == pytest.approx([1.0, 0.5], abs=1e-15)
        protocol = ref.ReconstructionProtocol(
            PlayerSubset.from_players([1], 2), (ref.MeasureStep("a"), reference_gate(cnot)))
        for row, state in enumerate(PureState(layout, amps) for amps in block):
            branch_states = ref.simulate_protocol(protocol, state, {"a": "P1", "b": "P1"})[0]
            for b, ref_br in enumerate(branch_states):
                assert probabilities[b, row] == ref_br.probability
                if ref_br.state is not None:
                    np.testing.assert_array_equal(states[b][row], ref_br.state.amplitudes)
        assert fid[1] == pytest.approx(0.5, abs=1e-12) and pure[1]  # b is left in |+>


def trace_registers(trace):
    """Every register a protocol trace's steps name: controls, targets and measured registers."""
    registers = set()
    for step in trace["steps"]:
        registers.update(step.get("controls", ()), step.get("targets", ()))
        if "register" in step:
            registers.add(step["register"])
    return registers


class TestProtocolLocality:
    """The protocols touch only particles of acting players, with no check at run time."""

    @pytest.mark.parametrize("acting", TRIPLES)
    def test_circuit_names_only_acting_registers(self, acting):
        out = run_threshold34_circuit(THRESHOLD34, acting, (0.6, 0.8))
        held = THRESHOLD34.registers_of(PlayerSubset.from_players(acting, 4).bits)
        assert held == tuple(f"p{i}" for i in acting)
        assert trace_registers(out.trace) == set(held)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_measure_names_only_acting_registers(self, n):
        cases = 0
        for bits in range(1, (1 << n) - 1):
            block = PlayerSubset(bits, n)
            scheme, _ = build_block_scheme(n, block)
            for outsider in sorted(set(range(1, n + 1)) - set(block.players())):
                acting = PlayerSubset(bits | 1 << (outsider - 1), n)
                out = run_block_measure_protocol(scheme, block, acting, (0.6, 0.8))
                held = scheme.registers_of(acting.bits)
                assert held == tuple(f"p{i}" for i in acting.players())
                assert trace_registers(out.trace) <= set(held)
                assert f"p{outsider}" in trace_registers(out.trace)
                cases += 1
        assert cases == n * 2 ** (n - 1) - n  # 1,755 acting sets over n = 3..8

    def test_protocols_refuse_a_non_identity_assignment(self):
        swapped = SchemeSpec(4, THRESHOLD34.basis_images,
                             {"P1": (2,), "P2": (1,), "P3": (3,), "P4": (4,)})
        for acting in TRIPLES:
            with pytest.raises(ProtocolError, match="each player holds their own particle"):
                run_threshold34_circuit(swapped, acting, (0.6, 0.8))
        base, _ = build_block_scheme(5, [1, 2])
        redistributed = SchemeSpec(
            5, base.basis_images,
            {"P1": (2,), "P2": (3,), "P3": (4,), "P4": (5,), "DEALER": (1,)},
        )
        with pytest.raises(ProtocolError, match="each player holds their own particle"):
            run_block_measure_protocol(redistributed, [1, 2], [1, 2, 3], (0.6, 0.8))


# ---------------------------------------------------------------------------
# circuit reconstruction


class TestThreshold34Circuit:
    def test_basis_secret(self):
        out = run_threshold34_circuit(THRESHOLD34, (1, 3, 4), (1.0, 0.0))
        assert out.fidelity >= 1.0 - 1e-9
        assert out.output_register == "p1"

    @pytest.mark.parametrize("acting", TRIPLES)
    def test_random_secrets_full_fidelity(self, acting):
        for secret in seeded_secrets(20):
            out = run_threshold34_circuit(THRESHOLD34, acting, secret)
            assert out.fidelity >= 1.0 - 1e-9
            assert out.residual_factorized

    def test_residual_of_first_triple(self):
        out = run_threshold34_circuit(THRESHOLD34, (1, 3, 4), (0.6, 0.8))
        residual = {e["ket"]: e["re"] for e in out.trace["residual"]}
        assert residual["000"] == pytest.approx(SQ2, abs=1e-9)
        assert residual["110"] == pytest.approx(SQ2, abs=1e-9)
        assert len(residual) == 2
        assert any("(|000>+|110>)" in note for note in out.deviations)

    def test_full_set_runs_the_first_triple(self):
        secrets = seeded_secrets(16, seed=4)
        full = run_threshold34_circuit(THRESHOLD34, (1, 2, 3, 4), secrets)
        triple = run_threshold34_circuit(THRESHOLD34, (1, 3, 4), secrets)
        assert full.trace["acting"] == [1, 2, 3, 4]
        assert full == dataclasses.replace(triple, trace={**triple.trace, "acting": [1, 2, 3, 4]})
        assert full.fidelity >= 1.0 - 1e-9 and full.residual_factorized

    def test_unauthorized_pair_rejected(self):
        with pytest.raises(UnauthorizedSetError):
            run_threshold34_circuit(THRESHOLD34, (1, 2), (1.0, 0.0))

    def test_only_sets_of_three_or_more_reconstruct(self):
        for bits in range(16):
            acting = PlayerSubset(bits, 4)
            if bits.bit_count() >= 3:
                out = run_threshold34_circuit(THRESHOLD34, acting, seeded_secrets(4, seed=bits))
                assert out.fidelity >= 1.0 - 1e-9 and out.residual_factorized
            else:
                with pytest.raises(UnauthorizedSetError, match="not an authorized triple"):
                    run_threshold34_circuit(THRESHOLD34, acting, (0.6, 0.8))

    def test_unnormalized_secret_rejected(self):
        with pytest.raises(ProtocolError, match="normalized"):
            run_threshold34_circuit(THRESHOLD34, (1, 3, 4), (1.0, 1.0))

    def test_nan_secret_rejected(self):
        with pytest.raises(ProtocolError, match="normalized"):
            run_threshold34_circuit(THRESHOLD34, (1, 3, 4), (float("nan"), 0.0))
        scheme, _ = build_block_scheme(5, [1, 2])
        with pytest.raises(ProtocolError, match="normalized"):
            run_block_measure_protocol(scheme, [1, 2], [1, 2, 3], (float("nan"), 0.0))

    def test_wrong_scheme_rejected(self):
        scheme, _ = build_block_scheme(4, [1])
        with pytest.raises(ProtocolError, match="four-share"):
            run_threshold34_circuit(scheme, (1, 3, 4), (1.0, 0.0))


# ---------------------------------------------------------------------------
# measure-and-correct reconstruction


class TestBlockMeasureProtocol:
    def test_five_shares_both_branches(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        out = run_block_measure_protocol(scheme, [1, 2], [1, 2, 3], (0.6, 0.8))
        assert out.fidelity >= 1.0 - 1e-9
        assert out.branch_probabilities["0"] == pytest.approx(0.5, abs=1e-9)
        assert out.branch_probabilities["1"] == pytest.approx(0.5, abs=1e-9)
        assert out.output_register == "p1"
        # outcome 0 ends with the secret on p1 over |0000> residue
        kets0 = {e["ket"]: e["re"] for e in out.trace["branches"]["0"]}
        assert kets0["00000"] == pytest.approx(0.6, abs=1e-9)
        assert kets0["10000"] == pytest.approx(0.8, abs=1e-9)

    @pytest.mark.parametrize("outsider", (3, 4, 5))
    def test_every_outsider_measurer(self, outsider):
        scheme, _ = build_block_scheme(5, [1, 2])
        for secret in seeded_secrets(20, seed=7):
            out = run_block_measure_protocol(scheme, [1, 2], [1, 2, outsider], secret)
            assert out.fidelity >= 1.0 - 1e-9
            assert out.residual_factorized

    def test_smallest_instance(self):
        scheme, _ = build_block_scheme(3, [1, 2])
        out = run_block_measure_protocol(scheme, [1, 2], [1, 2, 3], (0.6, 0.8))
        assert out.fidelity >= 1.0 - 1e-9
        assert min(out.branch_fidelities.values()) >= 1.0 - 1e-9

    def test_co_block_plus_insider_runs_on_the_co_block(self):
        # block(5, {1, 2}) and block(5, {3, 4, 5}) are one scheme: the same run, bit for bit
        scheme, _ = build_block_scheme(5, [1, 2])
        secrets = seeded_secrets(20, seed=3)
        out = run_block_measure_protocol(scheme, [1, 2], [1, 3, 4, 5], secrets)
        assert out == run_block_measure_protocol(scheme, [3, 4, 5], [1, 3, 4, 5], secrets)
        assert out.fidelity >= 1.0 - 1e-9 and out.residual_factorized
        assert out.trace["measurer"] == 1 and out.output_register == "p3"

    def test_further_players_stay_idle(self):
        scheme, _ = build_block_scheme(6, [2, 5])
        out = run_block_measure_protocol(scheme, [2, 5], [1, 2, 3, 5, 6], seeded_secrets(8))
        assert out.fidelity >= 1.0 - 1e-9 and out.residual_factorized
        assert out.trace["measurer"] == 1
        assert trace_registers(out.trace) == {"p1", "p2", "p5"}

    def test_unauthorized_set_rejected(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        with pytest.raises(UnauthorizedSetError):
            run_block_measure_protocol(scheme, [1, 2], [3, 4, 5], (1.0, 0.0))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_acting_set_of_every_block(self, n):
        secrets = seeded_secrets(3, seed=n)
        for block_bits in range(1, (1 << n) - 1):
            block = PlayerSubset(block_bits, n)
            scheme, gamma = build_block_scheme(n, block)
            for bits in range(1 << n):
                acting = PlayerSubset(bits, n)
                if gamma.authorized[acting.bits]:
                    out = run_block_measure_protocol(scheme, block, acting, secrets)
                    assert out.fidelity >= 1.0 - 1e-9, (block, acting)
                    assert out.residual_factorized, (block, acting)
                else:
                    with pytest.raises(UnauthorizedSetError):
                        run_block_measure_protocol(scheme, block, acting, secrets)

    def test_star_block_single_member(self):
        scheme, _ = build_block_scheme(4, [1])
        out = run_block_measure_protocol(scheme, [1], [1, 3], (0.6, 0.8))
        assert out.fidelity >= 1.0 - 1e-9
        assert out.output_register == "p1"


# ---------------------------------------------------------------------------
# batched protocols against the per-secret reference (tests/reference_protocols.py)

LAST_SECRET_FIELDS = (
    "output_register", "branch_probabilities", "branch_fidelities", "deviations", "trace"
)


def assert_matches_reference(out, expected):
    """A batch outcome against the reference outcomes of its secrets, bit for bit."""
    assert out.fidelities == [e.fidelity for e in expected]
    assert out.fidelity == min(e.fidelity for e in expected)
    assert out.residual_factorized == all(e.residual_factorized for e in expected)
    for name in LAST_SECRET_FIELDS:
        assert getattr(out, name) == getattr(expected[-1], name), name


def block_cases(n):
    """Every block of n players, with one outsider each, as (scheme, block, acting)."""
    for bits in range(1, (1 << n) - 1):
        block = list(PlayerSubset(bits, n).players())
        outsiders = [p for p in range(1, n + 1) if p not in block]
        acting = sorted(block + [outsiders[bits % len(outsiders)]])
        yield build_block_scheme(n, block)[0], block, acting


def assert_same_error(call, reference_call):
    with pytest.raises(ProtocolError) as got:
        call()
    with pytest.raises(ProtocolError) as want:
        reference_call()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("acting", TRIPLES + ((1, 2, 3, 4),))
    def test_circuit_triple(self, acting):
        secrets = seeded_secrets(256, seed=sum(acting))
        out = run_threshold34_circuit(THRESHOLD34, acting, secrets)
        expected = [ref.threshold34_circuit(THRESHOLD34, acting, s) for s in secrets]
        assert_matches_reference(out, expected)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_measure_every_block(self, n):
        for scheme, block, acting in block_cases(n):
            secrets = seeded_secrets(8, seed=len(block) * n + acting[-1])
            out = run_block_measure_protocol(scheme, block, acting, secrets)
            expected = [ref.block_measure_protocol(scheme, block, acting, s) for s in secrets]
            assert_matches_reference(out, expected)

    def test_measure_at_thirteen_particles(self):
        scheme, _ = build_block_scheme(13, [2, 5, 11])
        secrets = seeded_secrets(6, seed=13)  # 4 secrets per chunk at 2^13 amplitudes
        out = run_block_measure_protocol(scheme, [2, 5, 11], [2, 5, 7, 11], secrets)
        expected = [ref.block_measure_protocol(scheme, [2, 5, 11], [2, 5, 7, 11], s)
                    for s in secrets]
        assert_matches_reference(out, expected)
        assert out.fidelity >= 1.0 - 1e-9

    def test_single_secret_is_a_batch_of_one(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        for secret in seeded_secrets(3, seed=11):
            single = run_threshold34_circuit(THRESHOLD34, (1, 3, 4), secret)
            assert single == run_threshold34_circuit(THRESHOLD34, (1, 3, 4), [secret])
            assert_matches_reference(
                single, [ref.threshold34_circuit(THRESHOLD34, (1, 3, 4), secret)])
            single = run_block_measure_protocol(scheme, [1, 2], [1, 2, 4], secret)
            assert single == run_block_measure_protocol(scheme, [1, 2], [1, 2, 4], [secret])
            assert_matches_reference(
                single, [ref.block_measure_protocol(scheme, [1, 2], [1, 2, 4], secret)])

    def test_secrets_are_checked_once_before_the_set(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        secrets = seeded_secrets(5)
        with pytest.raises(UnauthorizedSetError):
            run_threshold34_circuit(THRESHOLD34, (1, 2), secrets)
        with pytest.raises(UnauthorizedSetError):
            run_block_measure_protocol(scheme, [1, 2], [3, 4, 5], secrets)
        unnormalized = np.concatenate([secrets, [(1.0, 1.0)]])
        with pytest.raises(ProtocolError, match="not normalized"):
            run_threshold34_circuit(THRESHOLD34, (1, 2), unnormalized)
        with pytest.raises(ProtocolError, match="not normalized"):
            run_block_measure_protocol(scheme, [1, 2], [3, 4, 5], unnormalized)
        with pytest.raises(ProtocolError, match="no secrets given"):
            run_threshold34_circuit(THRESHOLD34, (1, 3, 4), np.empty((0, 2)))
        with pytest.raises(ProtocolError, match="no secrets given"):
            run_block_measure_protocol(scheme, [1, 2], [1, 2, 5], np.empty((0, 2)))

    def test_iterators_are_refused(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        with pytest.raises(ProtocolError):
            run_threshold34_circuit(THRESHOLD34, (1, 3, 4), iter(seeded_secrets(3)))
        with pytest.raises(ProtocolError):
            run_block_measure_protocol(scheme, [1, 2], [1, 2, 5], (s for s in seeded_secrets(3)))

    @pytest.mark.parametrize("sizes", [(1, 2, 3, 4), (7,), (5, 1, 1, 3), (3, 3, 3)])
    def test_a_batch_is_the_runs_over_its_slices(self, monkeypatch, sizes):
        secrets = seeded_secrets(sum(sizes), seed=len(sizes))
        bounds = np.cumsum((0,) + sizes)
        slices = [secrets[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        scheme, _ = build_block_scheme(5, [2, 4])
        monkeypatch.setattr(qstate, "CUT_BATCH_ELEMENTS", 3 * 32)
        for run in (lambda s: run_block_measure_protocol(scheme, [2, 4], [1, 2, 4], s),
                    lambda s: run_threshold34_circuit(THRESHOLD34, (1, 2, 4), s)):
            parts = [run(s) for s in slices]
            fidelities = [f for part in parts for f in part.fidelities]
            assert run(secrets) == dataclasses.replace(
                parts[-1],
                fidelity=min(fidelities),
                fidelities=fidelities,
                residual_factorized=all(part.residual_factorized for part in parts),
            )

    @pytest.mark.parametrize("budget_rows", (1, 3, 7))
    def test_chunks_that_do_not_divide_the_batch(self, monkeypatch, budget_rows):
        secrets = seeded_secrets(10, seed=budget_rows)
        scheme, _ = build_block_scheme(5, [2, 4])
        whole_circuit = run_threshold34_circuit(THRESHOLD34, (1, 2, 4), secrets)
        whole_measure = run_block_measure_protocol(scheme, [2, 4], [1, 2, 4], secrets)
        monkeypatch.setattr(qstate, "CUT_BATCH_ELEMENTS", budget_rows * 16)
        assert run_threshold34_circuit(THRESHOLD34, (1, 2, 4), secrets) == whole_circuit
        monkeypatch.setattr(qstate, "CUT_BATCH_ELEMENTS", budget_rows * 32)
        chunked = run_block_measure_protocol(scheme, [2, 4], [1, 2, 4], secrets)
        assert chunked == whole_measure
        assert_matches_reference(
            chunked, [ref.block_measure_protocol(scheme, [2, 4], [1, 2, 4], s) for s in secrets])

    def test_circuit_errors_match(self):
        block_scheme, _ = build_block_scheme(4, [1])
        cases = [
            ((1.0, 0.0), (1, 2), THRESHOLD34),
            ((1.0, 1.0), (1, 3, 4), THRESHOLD34),
            ((1.0, 0.0), (1, 3, 4), block_scheme),
            ((1.0, 1.0), (1, 2), block_scheme),
        ]
        for secret, acting, scheme in cases:
            assert_same_error(lambda: run_threshold34_circuit(scheme, acting, secret),
                              lambda: ref.threshold34_circuit(scheme, acting, secret))
        with pytest.raises(ProtocolError, match="not normalized"):
            run_threshold34_circuit(THRESHOLD34, (1, 3, 4),
                                    [(1.0, 0.0), (0.6, 0.8), (0.6, 0.6)])

    def test_measure_errors_match(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        cases = [
            ([1, 2], [3, 4, 5], (1.0, 0.0)),  # unauthorized
            ([1, 2], [1, 2], (1.0, 0.0)),  # the block alone
            ([1, 2], [1, 2, 3], (1.0, 1.0)),  # unnormalized
            ([1, 3], [1, 2, 3], (1.0, 0.0)),  # scheme of another block
            ([1, 3], [3, 4, 5], (1.0, 1.0)),
        ]
        for block, acting, secret in cases:
            assert_same_error(
                lambda: run_block_measure_protocol(scheme, block, acting, secret),
                lambda: ref.block_measure_protocol(scheme, block, acting, secret),
            )

    @pytest.mark.parametrize("n", range(3, 6))
    def test_measure_every_authorized_set(self, n):
        # co-block plus insider sets and supersets included, such as {1, 3, 4, 5} and
        # {1, 2, 3, 4} with block {1, 2} at n = 5
        for bits in range(1, (1 << n) - 1):
            block = list(PlayerSubset(bits, n).players())
            scheme, gamma = build_block_scheme(n, block)
            for acting_bits in np.flatnonzero(gamma.authorized).tolist():
                acting = list(PlayerSubset(acting_bits, n).players())
                secret = seeded_secrets(1, seed=bits * 64 + acting_bits)
                out = run_block_measure_protocol(scheme, block, acting, secret)
                expected = [ref.block_measure_protocol(scheme, block, acting, secret[0])]
                assert_matches_reference(out, expected)

    @pytest.mark.parametrize("n", [2, 14])
    def test_measure_size_limit_is_the_block_scheme_bound(self, n):
        images = np.zeros((2, 1 << n))
        images[0, 0] = images[1, 1] = 1.0
        scheme = SchemeSpec(n, images, identity_assignment(n))
        with pytest.raises(SchemeError, match=rf"^block schemes are built for 3 <= n <= 13, got {n}$"):
            run_block_measure_protocol(scheme, [1], [1, 2], (1.0, 0.0))


# ---------------------------------------------------------------------------
# decoupling decoder


class TestDecouplingDecoder:
    def test_threshold_triple(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme)
        result = decoupling_decoder(state, ("p1", "p2", "p3"))
        assert result.fidelity >= 1.0 - 1e-6
        assert result.i_re <= 1e-9
        assert result.output_register == "p1"

    def test_block_co_set(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        state = distribute_purified(scheme)
        result = decoupling_decoder(state, ("p1", "p3", "p4", "p5"))
        assert result.fidelity >= 1.0 - 1e-6

    def test_rejects_the_reference_among_the_acting_registers(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme)
        with pytest.raises(ProtocolError, match="acting registers include the reference"):
            decoupling_decoder(state, ("p1", "R", "p2"))

    def test_pair_fails_with_diagnostic(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme)
        with pytest.raises(DecouplingError) as err:
            decoupling_decoder(state, ("p1", "p2"))
        assert err.value.i_re == pytest.approx(1.0, abs=1e-9)

    def test_full_set_decodes(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme)
        result = decoupling_decoder(state, ("p1", "p2", "p3", "p4"))
        assert result.fidelity >= 1.0 - 1e-6
        assert result.i_re == 0.0  # E is empty

    def test_isometry_is_unitary(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme)
        result = decoupling_decoder(state, ("p1", "p2", "p3"))
        rows = result.isometry.shape[0]
        assert result.isometry.shape == (rows, 8)
        np.testing.assert_allclose(
            result.isometry @ result.isometry.conj().T, np.eye(rows), atol=1e-10
        )
        assert len(result.targets) == rows
        assert len(set(result.targets)) == rows
        assert all(0 <= t < 8 for t in result.targets)

    def test_rejects_target_outside_acting_block(self, threshold34_scheme):
        # a pure reference decouples from anything, but p1's two relative
        # states for secret 1 would need indices 1 and 2 of a 2-dim block
        state = distribute_purified(threshold34_scheme, (0.0, 1.0))
        with pytest.raises(ProtocolError, match="do not fit"):
            decoupling_decoder(state, ("p1",))

    def test_biased_secret_purification(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme, (0.3, 0.7))
        result = decoupling_decoder(state, ("p1", "p2", "p3"))
        assert result.fidelity >= 1.0 - 1e-6

    def test_decoder_recovers_concrete_secrets(self, threshold34_scheme):
        # the isometry is built once from the purification, then decodes
        # any actual secret pushed through the scheme
        a_regs = ("p1", "p2", "p3")
        result = decoupling_decoder(distribute_purified(threshold34_scheme), a_regs)
        for alpha, beta in ((0.6, 0.8j), (1.0, 0.0), (SQ2, -SQ2)):
            state = apply_to_secret(threshold34_scheme, alpha, beta)
            decoded = apply_on_acting(state, a_regs, result.isometry, result.targets)
            rho = partial_trace(decoded, (result.output_register,)).matrix
            psi = np.array([alpha, beta])
            fidelity = float(np.real(psi.conj() @ rho @ psi))
            assert fidelity >= 1.0 - 1e-6

    @pytest.mark.parametrize("case", ["threshold", "block"])
    def test_criterion_matches_recoverability(self, case, threshold34_scheme):
        # I(R:E) vanishes exactly when A attains full correlation
        if case == "threshold":
            scheme = threshold34_scheme
        else:
            scheme, _ = build_block_scheme(5, [1, 2])
        state = distribute_purified(scheme)
        i_rs = 2.0
        labels = tuple(f"p{i}" for i in range(1, scheme.num_particles + 1))
        for bits in range(1, 1 << len(labels)):
            a_regs = tuple(l for i, l in enumerate(labels) if bits >> i & 1)
            e_regs = tuple(l for l in labels if l not in a_regs)
            i_ra = mutual_information(state, ("R",), a_regs)
            i_re = mutual_information(state, ("R",), e_regs) if e_regs else 0.0
            assert (i_re <= 1e-9) == (abs(i_ra - i_rs) <= 1e-9)


def apply_on_acting(state, a_regs, matrix, targets):
    """Apply matrix (rows = targets in the acting block) to the acting registers.

    Row j maps onto index targets[j] of the acting block, ordered by layout
    position, most significant first; indices no row maps onto get amplitude 0.
    """
    a_axes = state.layout.axes(a_regs)
    k = len(a_axes)
    coeffs = np.tensordot(
        state.tensor(), matrix.reshape((-1,) + (2,) * k), axes=(a_axes, tuple(range(1, k + 1)))
    )
    block = np.zeros(coeffs.shape[:-1] + (1 << k,), dtype=np.complex128)
    block[..., list(targets)] = coeffs
    block = block.reshape(coeffs.shape[:-1] + (2,) * k)
    n = state.num_qubits
    return PureState(state.layout, np.moveaxis(block, range(n - k, n), a_axes).reshape(-1))


def dense_decoder_reference(state, a_regs):
    """The decoder as a full 2^|A| x 2^|A| unitary: (fidelity, rho(R, output)).

    The relative states of A are orthonormalized as in decoupling_decoder,
    then completed to a basis of the acting space by Gram-Schmidt over the
    standard basis, the leftover vectors taking the unused indices in order.
    """
    layout = state.layout
    a_axes = layout.axes(a_regs)
    r_axis = layout.axis("R")
    e_axes = tuple(ax for ax in range(layout.num_qubits) if ax not in a_axes and ax != r_axis)
    p = np.real(np.diag(partial_trace(state, ("R",)).matrix))
    if e_axes:
        rho_e = partial_trace(state, [layout.labels[ax] for ax in e_axes]).matrix
        e_vals, e_vecs = np.linalg.eigh(rho_e)
        e_vals, e_vecs = e_vals[::-1], e_vecs[:, ::-1]
    else:
        e_vals, e_vecs = np.array([1.0]), np.array([[1.0 + 0.0j]])
    dim_a = 1 << len(a_axes)
    t = state.tensor().transpose((r_axis,) + e_axes + a_axes).reshape(2, len(e_vals), dim_a)
    basis, targets = [], []
    for i in (0, 1):
        for k in range(len(e_vals)):
            weight = p[i] * max(float(e_vals[k]), 0.0)
            if weight > 1e-12:
                basis.append(e_vecs[:, k].conj() @ t[i] / np.sqrt(weight))
                targets.append(i * dim_a // 2 + k)
    for j in range(dim_a):
        basis.append(np.eye(dim_a, dtype=np.complex128)[j])
    kept, unused = [], [x for x in range(dim_a) if x not in targets]
    for n, vec in enumerate(basis):
        for prev in kept:
            vec = vec - (prev.conj() @ vec) * prev
        norm = np.linalg.norm(vec)
        if n < len(targets):
            assert norm > 0.5
        elif norm <= 1e-6 or len(kept) == dim_a:
            continue
        kept.append(vec / norm)
    targets += unused
    unitary = np.zeros((dim_a, dim_a), dtype=np.complex128)
    for vec, tgt in zip(kept, targets):
        unitary[tgt] = vec.conj()
    np.testing.assert_allclose(unitary @ unitary.conj().T, np.eye(dim_a), atol=1e-8)
    decoded = apply_on_acting(state, a_regs, unitary, range(dim_a))
    rho = partial_trace(decoded, ("R", layout.labels[a_axes[0]])).matrix
    phi = np.array([np.sqrt(p[0]), 0.0, 0.0, np.sqrt(p[1])])
    return float(np.real(phi.conj() @ rho @ phi)), rho


def _authorized_cases():
    cases = [(build_threshold34(), threshold_structure(3, 4), "all")]
    for m in range(3, 7):
        # b and its complement give the same scheme, so b leaves out player m
        cases += [
            (*build_block_scheme(m, PlayerSubset(b, m)), "all") for b in range(1, 1 << (m - 1))
        ]
    for m in (7, 8):
        cases += [(*build_block_scheme(m, range(1, k + 1)), "minimal") for k in range(1, m)]
    for scheme, gamma, which in cases:
        if which == "all":
            masks = np.flatnonzero(gamma.authorized).tolist()
        else:
            masks = gamma.masks()
        for bits in masks:
            yield pytest.param(scheme, bits, id=f"{scheme.name}-{which}-{bits:b}")
    for m in (9, 10, 11):
        # A = {P1, Pm} leaves |E| = m - 2, up to a 512 x 512 rho_E in the dense reference
        scheme, _ = build_block_scheme(m, [1])
        bits = PlayerSubset.from_players([1, m], m).bits
        yield pytest.param(scheme, bits, id=f"{scheme.name}-large-E-{bits:b}")


class TestDecoderAgainstDenseReference:
    @pytest.mark.parametrize(("scheme", "bits"), _authorized_cases())
    def test_authorized_set(self, scheme, bits):
        self.check(distribute_purified(scheme), scheme.registers_of(bits))

    def test_biased_purification(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme, (0.3, 0.7))
        for a_regs in (("p1", "p2", "p3"), ("p2", "p3", "p4"), ("p1", "p2", "p3", "p4")):
            self.check(state, a_regs)

    @staticmethod
    def check(state, a_regs):
        result = decoupling_decoder(state, a_regs)
        fidelity, rho = dense_decoder_reference(state, a_regs)
        assert result.fidelity == pytest.approx(fidelity, abs=1e-12)
        decoded = apply_on_acting(state, a_regs, result.isometry, result.targets)
        np.testing.assert_allclose(
            partial_trace(decoded, ("R", result.output_register)).matrix, rho, rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------------------
# attack scenarios


class TestPairAttacks:
    def test_outcome_one_never_happens(self):
        for secret in seeded_secrets(5, seed=3):
            report = attack_threshold34_pair12(secret)
            assert report.branch_probabilities["1"] == 0.0
            assert any("probability exactly 0" in note for note in report.deviations)

    def test_collapse_state(self):
        alpha, beta = 0.6, 0.8
        report = attack_threshold34_pair12((alpha, beta))
        kets = {b: a for b, a in report.outcome0_residual.ket_terms()}
        # (a|0>+b|1>)|00> + (a|1>+b|0>)|11> over (p1,p3,p4), normalized
        assert kets["000"] == pytest.approx(alpha * SQ2, abs=1e-12)
        assert kets["100"] == pytest.approx(beta * SQ2, abs=1e-12)
        assert kets["011"] == pytest.approx(beta * SQ2, abs=1e-12)
        assert kets["111"] == pytest.approx(alpha * SQ2, abs=1e-12)

    def test_basis_secret_leaves_ghz(self):
        report = attack_threshold34_pair12((1.0, 0.0))
        kets = {b: a for b, a in report.outcome0_residual.ket_terms()}
        assert set(kets) == {"000", "111"}
        assert kets["000"] == pytest.approx(SQ2, abs=1e-12)

    def test_phase_blindness(self):
        report = attack_threshold34_pair23((SQ2, SQ2), np.pi / 3)
        assert report.phase_blind
        assert report.max_entry_difference <= 1e-12

    def test_magnitude_leak_in_diagonal(self):
        report = attack_threshold34_pair23((1.0, 0.0), 0.7)
        np.testing.assert_allclose(report.diagonal, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(
            report.rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12
        )

    def test_pair_holds_exactly_one_bit(self):
        report = attack_threshold34_pair23((0.6, 0.8), 0.0)
        assert report.mixed_secret_mutual_info == pytest.approx(1.0, abs=1e-9)


def secret_fidelity(state, register, alpha, beta):
    fid, pure = _secret_fidelities(
        state.amplitudes[None], state.layout, register, np.array([[alpha, beta]], dtype=complex)
    )
    return float(fid[0]), bool(pure[0])


class TestOutputRegister:
    def test_factorized_output(self):
        alpha, beta = 0.6, 0.8j
        amps = np.kron([alpha, beta], [SQ2, 0.0, 0.0, SQ2])
        state = PureState(RegisterLayout(("p1", "p2", "p3")), amps)
        fidelity, factorized = secret_fidelity(state, "p1", alpha, beta)
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        assert factorized
        assert (fidelity, factorized) == ref.secret_fidelity(state, "p1", alpha, beta)

    def test_output_entangled_with_the_rest(self):
        # Bell pair: p1 alone is maximally mixed, so the rest is not pure either
        state = PureState(RegisterLayout(("p1", "p2")), np.array([SQ2, 0.0, 0.0, SQ2]))
        fidelity, factorized = secret_fidelity(state, "p1", 1.0, 0.0)
        assert fidelity == pytest.approx(0.5, abs=1e-12)
        assert not factorized
        rest = partial_trace(state, ["p2"]).matrix
        assert np.real(np.trace(rest @ rest)) == pytest.approx(0.5, abs=1e-12)


class TestRandomSecrets:
    def test_normalized_and_deterministic(self):
        a1 = seeded_secrets(10, seed=5)
        a2 = seeded_secrets(10, seed=5)
        assert a1.tobytes() == a2.tobytes()
        for alpha, beta in a1:
            assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 1061, 3001])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
    def test_secrets_equal_the_scalar_draws_bit_for_bit(self, count, seed):
        got = random_secrets(np.random.default_rng(seed), count)
        rng = np.random.default_rng(seed)
        expected = np.array([ref.random_secret(rng) for _ in range(count)], dtype=np.complex128)
        assert got.shape == (count, 2) and got.dtype == np.complex128
        assert got.tobytes() == expected.tobytes()

    def test_over_the_cap_nothing_is_drawn(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(qstate.ResourceLimitError, match=f"at most {MAX_TRIALS} trials"):
            random_secrets(rng, MAX_TRIALS + 1)
        assert rng.bit_generator.state == state

    def test_the_cap_itself_is_drawn(self, monkeypatch):
        monkeypatch.setattr(protocols, "MAX_TRIALS", 5)
        assert random_secrets(np.random.default_rng(3), 5).shape == (5, 2)
        with pytest.raises(qstate.ResourceLimitError):
            random_secrets(np.random.default_rng(3), 6)

    def test_memory_stays_below_one_full_amplitude_array(self):
        trials = 100_000
        full_batch_bytes = trials * 16 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            out = run_threshold34_circuit(
                THRESHOLD34, (1, 2, 3), random_secrets(np.random.default_rng(9), trials)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.fidelities) == trials
        assert out.fidelity >= 1.0 - 1e-9
        assert peak < full_batch_bytes, (peak, full_batch_bytes)


# ---------------------------------------------------------------------------
# refusals name what is wrong


def _reference_off_its_eigenbasis():
    """threshold34 with an unevenly mixed secret, its reference turned by a Hadamard."""
    state = distribute_purified(THRESHOLD34, (0.8, 0.2))
    hadamard = np.array([[1, 1], [1, -1]]) * SQ2
    return PureState(state.layout, (hadamard @ state.amplitudes.reshape(2, -1)).reshape(-1))


@pytest.mark.parametrize("call, message", [
    (lambda: run_threshold34_circuit(THRESHOLD34, [1, 3, 4], np.full((2, 3), 3**-0.5)),
     "a secret is one (alpha, beta) pair of amplitudes"),
    (lambda: decoupling_decoder(_reference_off_its_eigenbasis(), ("p1", "p2", "p3")),
     "reference is not stored in its eigenbasis"),
], ids=["secret shape", "reference basis"])
def test_refusal_message(call, message):
    with pytest.raises(ProtocolError) as info:
        call()
    assert str(info.value) == message
