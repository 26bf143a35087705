"""Per-secret reference for the batched protocols: each gate steps a fresh PureState.

This is the simulation the protocols ran before they were batched: one
secret at a time, every gate a conditional flip that builds a new state,
every measurement collapsing a state into both branches.  The
differential tests require the batched protocols to give the same bits.
The step types and the interpreter, with its check that every register
belongs to an acting player, are the engine the protocols ran on before
they were reduced to gathers.
random_secret is the per-secret draw that random_secrets replaced.
"""

from dataclasses import dataclass

import numpy as np

from qsslab.protocols import (
    _CIRCUIT_ROLES,
    _DOCUMENTED_RESIDUAL_NOTE,
    ProtocolError,
    ProtocolOutcome,
    UnauthorizedSetError,
    _ket_doc,
    _residual_ket,
)
from qsslab.qstate import PureState, partial_trace
from qsslab.schemes import (
    apply_to_secret,
    build_block_scheme,
    build_threshold34,
    identity_assignment,
)
from qsslab.structures import PlayerSubset


@dataclass(frozen=True)
class GateStep:
    """One conditional-flip gate on particle registers."""

    kind: str  # "single_controlled" | "double_controlled" | "cnot" | "pauli_x"
    controls: tuple
    targets: tuple

    @property
    def registers(self):
        return self.controls + self.targets


@dataclass(frozen=True)
class MeasureStep:
    """Computational-basis measurement, outcome announced classically."""

    register: str


@dataclass(frozen=True)
class CorrectionStep:
    """Gates applied conditionally on an earlier measurement outcome."""

    register: str
    on_outcome: dict

    @property
    def registers(self):
        return tuple(
            r for gates in self.on_outcome.values() for g in gates for r in g.registers
        )


@dataclass(frozen=True)
class ReconstructionProtocol:
    acting_players: PlayerSubset
    steps: tuple


def _conditional_flip(state, target, condition):
    layout = state.layout
    tbit = 1 << (layout.num_qubits - 1 - layout.axis(target))
    idx = np.arange(layout.dim)
    return PureState(layout, state.amplitudes[np.where(condition, idx ^ tbit, idx)])


def _bit_vector(state, register):
    shift = state.num_qubits - 1 - state.layout.axis(register)
    return (np.arange(state.layout.dim) >> shift) & 1


def apply_gate_step(state, step):
    if step.kind == "pauli_x":
        return _conditional_flip(state, step.targets[0], np.True_)
    if step.kind in ("cnot", "single_controlled"):
        cond = _bit_vector(state, step.controls[0]) == 1
        for target in step.targets:
            state = _conditional_flip(state, target, cond)
        return state
    cond = _bit_vector(state, step.controls[0]) != _bit_vector(state, step.controls[1])
    return _conditional_flip(state, step.targets[0], cond)


def measure_z(state, register):
    """Both branches as (outcome, probability, collapsed state or None)."""
    bits = _bit_vector(state, register)
    probs = [float(np.sum(np.abs(state.amplitudes[bits == b]) ** 2)) for b in (0, 1)]
    branches = []
    for b in (0, 1):
        if probs[b] <= 1e-300:
            branches.append((b, 0.0, None))
            continue
        amps = np.where(bits == b, state.amplitudes, 0.0) / np.sqrt(probs[b])
        branches.append((b, probs[b], PureState(state.layout, amps)))
    return branches


@dataclass
class Branch:
    outcomes: dict
    probability: float
    state: PureState | None


def simulate_protocol(protocol, state, register_owner):
    acting = {f"P{p}" for p in protocol.acting_players.players()}

    def check_ownership(registers):
        for reg in registers:
            owner = register_owner.get(reg)
            if owner not in acting:
                raise ProtocolError(
                    f"register {reg} belongs to {owner}, outside the acting set {sorted(acting)}"
                )

    branches = [Branch({}, 1.0, state)]
    log = []
    for step in protocol.steps:
        if isinstance(step, GateStep):
            check_ownership(step.registers)
            for br in branches:
                if br.state is not None:
                    br.state = apply_gate_step(br.state, step)
            log.append({"step": step.kind, "controls": step.controls, "targets": step.targets})
        elif isinstance(step, MeasureStep):
            check_ownership((step.register,))
            new_branches = []
            for br in branches:
                if br.state is None:
                    new_branches.append(br)
                    continue
                for outcome, prob, collapsed in measure_z(br.state, step.register):
                    outcomes = dict(br.outcomes)
                    outcomes[step.register] = outcome
                    new_branches.append(Branch(outcomes, br.probability * prob, collapsed))
            branches = new_branches
            log.append({"step": "measure_z", "register": step.register})
        elif isinstance(step, CorrectionStep):
            check_ownership(step.registers)
            for br in branches:
                if br.state is None:
                    continue
                for gate in step.on_outcome.get(br.outcomes.get(step.register), ()):
                    br.state = apply_gate_step(br.state, gate)
            log.append({"step": "correction", "register": step.register})
        else:
            raise ProtocolError(f"unknown step {step!r}")
    return branches, log


def secret_fidelity(state, register, alpha, beta):
    rho = partial_trace(state, [register]).matrix
    psi = np.array([alpha, beta], dtype=np.complex128)
    purity = float(np.real(np.trace(rho @ rho)))
    return float(np.real(psi.conj() @ rho @ psi)), purity >= 1.0 - 1e-9


def _outcome(fidelity, probabilities, **fields):
    total = sum(probabilities.values())
    if abs(total - 1.0) > 1e-9:
        raise ProtocolError(f"branch probabilities sum to {total}, not 1")
    return ProtocolOutcome(
        fidelity=fidelity, fidelities=[fidelity], branch_probabilities=probabilities, **fields
    )


def random_secret(rng):
    """One qubit drawn uniformly from the pure-state sphere via two angles."""
    theta = np.arccos(1.0 - 2.0 * rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return (np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0))


def threshold34_circuit(scheme, acting_set, secret):
    alpha, beta = complex(secret[0]), complex(secret[1])
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ProtocolError("secret amplitudes are not normalized")
    reference = build_threshold34()
    if scheme.num_particles != 4 or not np.allclose(
        scheme.basis_images, reference.basis_images, atol=1e-12
    ):
        raise ProtocolError("circuit wiring is specific to the four-share threshold scheme")
    if scheme.assignment != identity_assignment(4):
        raise ProtocolError("circuit wiring assumes each player holds their own particle")
    acting = PlayerSubset.coerce(acting_set, 4)
    if len(acting.players()) < 3:
        raise UnauthorizedSetError(f"{acting} is not an authorized triple")
    # the first triple of the wiring table that the set holds
    key = [t for t in _CIRCUIT_ROLES if t <= set(acting.players())][0]
    controller, targets, output = _CIRCUIT_ROLES[key]
    steps = (
        GateStep("single_controlled", (f"p{controller}",), tuple(f"p{t}" for t in targets)),
        GateStep("double_controlled", tuple(f"p{t}" for t in targets), (f"p{controller}",)),
    )
    owner = {f"p{i}": f"P{i}" for i in range(1, 5)}
    state = apply_to_secret(scheme, alpha, beta)
    branches, log = simulate_protocol(ReconstructionProtocol(acting, steps), state, owner)
    final = branches[0].state
    out_reg = f"p{output}"
    fidelity, factorized = secret_fidelity(final, out_reg, alpha, beta)
    residual = _residual_ket(final, out_reg, alpha, beta)
    deviations = [_DOCUMENTED_RESIDUAL_NOTE] if key == frozenset({1, 3, 4}) else []
    trace = {
        "protocol": "circuit",
        "acting": list(acting.players()),
        "steps": log,
        "residual": _ket_doc(residual),
    }
    return _outcome(
        fidelity,
        {"": 1.0},
        output_register=out_reg,
        residual_factorized=factorized,
        branch_fidelities={"": fidelity},
        deviations=deviations,
        trace=trace,
    )


def block_measure_protocol(scheme, block, acting_set, secret):
    n = scheme.num_particles
    block = PlayerSubset.coerce(block, n)
    reference, gamma = build_block_scheme(n, block)
    if not np.allclose(scheme.basis_images, reference.basis_images, atol=1e-12):
        raise ProtocolError("scheme images do not match the block construction for this block")
    if scheme.assignment != identity_assignment(n):
        raise ProtocolError("measure protocol assumes each player holds their own particle")
    alpha, beta = complex(secret[0]), complex(secret[1])
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ProtocolError("secret amplitudes are not normalized")
    acting = PlayerSubset.coerce(acting_set, n)
    if not gamma.authorized[acting.bits]:
        raise UnauthorizedSetError(f"{acting} is not authorized for this block scheme")
    # an authorized set holds the block or the co-block, and a player beyond it
    held = set(acting.players())
    members = block.players()
    if not set(members) <= held:
        members = block.complement().players()
    measurer = min(held - set(members))
    first = members[0]
    flips = tuple(GateStep("pauli_x", (), (f"p{p}",)) for p in members)
    chain = tuple(GateStep("cnot", (f"p{first}",), (f"p{p}",)) for p in members[1:])
    steps = (MeasureStep(f"p{measurer}"), CorrectionStep(f"p{measurer}", {1: flips})) + chain
    owner = {f"p{i}": f"P{i}" for i in range(1, n + 1)}
    state = apply_to_secret(scheme, alpha, beta)
    branches, log = simulate_protocol(ReconstructionProtocol(acting, steps), state, owner)
    out_reg = f"p{first}"
    probabilities, fidelities = {}, {}
    worst_fidelity, factorized = 1.0, True
    for br in branches:
        key = str(br.outcomes[f"p{measurer}"])
        probabilities[key] = br.probability
        if br.state is None:
            continue
        f, branch_factorized = secret_fidelity(br.state, out_reg, alpha, beta)
        fidelities[key] = f
        worst_fidelity = min(worst_fidelity, f)
        factorized = factorized and branch_factorized
    trace = {
        "protocol": "measure",
        "acting": list(acting.players()),
        "measurer": measurer,
        "steps": log,
        "branches": {str(br.outcomes[f"p{measurer}"]): _ket_doc(br.state) for br in branches},
    }
    return _outcome(
        worst_fidelity,
        probabilities,
        output_register=out_reg,
        residual_factorized=factorized,
        branch_fidelities=fidelities,
        trace=trace,
    )
