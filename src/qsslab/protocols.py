"""Reconstruction protocols and attack scenarios.

Gates follow the controlled-U rule of the constructions: a single control
applies U_i to the target for control value i, a control pair applies
U_k with k = 2 - (i XOR j); the tables are fixed to U0 = U2 = identity
and U1 = bit flip, so both cases reduce to conditional flips.

A conditional flip whose controls are disjoint from its targets permutes
the basis indices, so _gather composes a list of gates, each given as its
trace entry, into one gather index.  Every protocol here is such a gather
around at most one computational-basis measurement: simulate_protocol
applies the gather before it, takes both outcomes exactly with their
probabilities (nothing is sampled) and applies each outcome's gather.  It
runs a stacked (T, 2^n) block of amplitude vectors, one row per secret;
the protocols take their secrets as one (T, 2) array and feed it in
chunks of at most qstate.CUT_BATCH_ELEMENTS amplitudes, and nothing is
stepped per secret.
Both protocols refuse schemes whose players do not each hold their own
particle, and wire every authorized set from its own players, so every
register a protocol touches belongs to an acting player.
"""

from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .qstate import PureState, RegisterLayout, check_norms, mutual_information, partial_trace
from .schemes import (
    _THRESHOLD34_BLOCK,
    _block_images,
    apply_to_secret,
    build_threshold34,
    distribute_purified,
    identity_assignment,
    particle_labels,
)
from .structures import PlayerSubset

DECOUPLING_TOL = 1e-9
#: Most secrets random_secrets draws.  The secrets, their fidelities and the
#: per-branch arrays grow with the count: 10^6 circuit trials take about 250 MB.
MAX_TRIALS = 1_000_000


class ProtocolError(ValueError):
    """Protocol construction or simulation failure."""


class UnauthorizedSetError(ProtocolError):
    """The acting set cannot reconstruct the secret."""


class DecouplingError(ProtocolError):
    """Complement still correlated with the reference; decoding impossible."""

    def __init__(self, i_re):
        self.i_re = i_re
        super().__init__(
            f"I(R:E) = {i_re:.9f} > {DECOUPLING_TOL}; the acting set cannot decode"
        )


# ---------------------------------------------------------------------------
# gathers


def _bit_vector(layout, register):
    shift = layout.num_qubits - 1 - layout.axis(register)
    return (np.arange(layout.dim) >> shift) & 1


def _gather(layout, gates):
    """Gather index of the gates applied in order: the gated amplitudes are amplitudes[..., index].

    Each gate is its trace entry {"step": kind, "controls": ..., "targets": ...}
    and flips its targets where its condition holds: always for "pauli_x",
    on control bit 1 for "cnot" and "single_controlled", and for
    "double_controlled" (U_{2 - i XOR j}) exactly where the two control bits
    differ.  The condition reads only the controls, which the flip leaves
    alone, so each gate's index is an involution.  None when there are no gates.
    """
    n = layout.num_qubits
    idx = np.arange(layout.dim)
    gather = None
    for gate in gates:
        controls = gate["controls"]
        if gate["step"] == "double_controlled":
            cond = _bit_vector(layout, controls[0]) != _bit_vector(layout, controls[1])
        elif controls:
            cond = _bit_vector(layout, controls[0]) == 1
        else:
            cond = np.True_
        flip = sum(1 << (n - 1 - layout.axis(t)) for t in gate["targets"])
        step = np.where(cond, idx ^ flip, idx)
        gather = step if gather is None else gather[step]
    return gather


def simulate_protocol(amplitudes, before, bits=None, after=(None, None)):
    """Run a (T, 2^n) block of normalized amplitude vectors through gathers and one measurement.

    The gather before (None: no gate) acts first.  With bits None that is
    the whole protocol, one branch of probability 1.  Otherwise bits holds
    the measured register's value at each basis index, both outcomes b are
    taken exactly, and the gather after[b] acts on outcome b's collapsed
    state.  Returns the (branches, T) probabilities, the per-branch (T, 2^n)
    amplitudes and the (branches, T) vacuous flags: a branch is vacuous for
    a row when its probability there is at most 1e-300, and then its
    probability is 0 and its amplitudes are meaningless.  Gathers are taken
    with np.take, which keeps rows contiguous, so each row's outcome
    probability is summed in the same order as for a single vector.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if before is not None:
        amps = np.take(amps, before, axis=1)
    if bits is None:
        return np.ones((1, len(amps))), [amps], np.zeros((1, len(amps)), dtype=bool)
    probabilities, states, vacuous = [], [], []
    for b, gather in zip((0, 1), after):
        mask = bits == b
        p = np.sum(np.abs(np.take(amps, np.flatnonzero(mask), axis=1)) ** 2, axis=1)
        zero = p <= 1e-300
        collapsed = np.where(mask, amps, 0.0) / np.sqrt(np.where(zero, 1.0, p))[:, None]
        check_norms(np.linalg.norm(collapsed, axis=1)[~zero])
        if gather is not None:
            collapsed = np.take(collapsed, gather, axis=1)
        probabilities.append(np.where(zero, 0.0, p))
        states.append(collapsed)
        vacuous.append(zero)
    return np.array(probabilities), states, np.array(vacuous)


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class ProtocolOutcome:
    """Result of a protocol over a batch of secrets.

    fidelities has one entry per secret and fidelity is their minimum;
    residual_factorized holds for the whole batch.  The branch fields, the
    deviations and the trace describe the last secret.
    """

    output_register: str
    fidelity: float
    fidelities: list
    residual_factorized: bool
    branch_probabilities: dict
    branch_fidelities: dict
    deviations: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)


def _secret_array(secrets):
    """(T, 2) complex array of one (alpha, beta) pair or of T >= 1 rows, each normalized within 1e-9."""
    try:
        array = np.atleast_2d(np.asarray(secrets, dtype=np.complex128))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"secrets are not an array of amplitudes: {exc}") from exc
    if not len(array):
        raise ProtocolError("no secrets given")
    if array.ndim != 2 or array.shape[1] != 2:
        raise ProtocolError("a secret is one (alpha, beta) pair of amplitudes")
    if not np.all(np.abs(np.abs(array[:, 0]) ** 2 + np.abs(array[:, 1]) ** 2 - 1.0) <= 1e-9):
        raise ProtocolError("secret amplitudes are not normalized")
    return array


def _secret_fidelities(amplitudes, layout, register, secrets):
    """Fidelity of the register with each row's secret, and whether the rest factorizes off it.

    Each row is a pure state, so the other registers have the same purity
    as the register's 2 x 2 reduced state: the rest is pure exactly when
    that is.  rho and psi^dagger rho psi are stacked matmuls in the order
    of the single-state computation, which keeps them bit-equal to it.
    """
    n = layout.num_qubits
    ax = layout.axis(register)
    order = (0, ax + 1) + tuple(a + 1 for a in range(n) if a != ax)
    t = amplitudes.reshape((-1,) + (2,) * n).transpose(order).reshape(len(amplitudes), 2, -1)
    rho = t @ t.conj().transpose(0, 2, 1)
    purity = np.real(np.trace(rho @ rho, axis1=1, axis2=2))
    fidelity = np.real((secrets.conj()[:, None, :] @ rho) @ secrets[:, :, None])[:, 0, 0]
    return fidelity, purity >= 1.0 - 1e-9


@dataclass
class _BatchRun:
    """Per branch (rows) and secret (columns): probability, fidelity, vacuous flag."""

    probabilities: np.ndarray
    fidelities: np.ndarray
    vacuous: np.ndarray
    factorized: bool
    last_states: list  # the last secret's state per branch, None where vacuous


def _run_batch(layout, images, secrets, out_reg, before, bits=None, after=(None, None)):
    """Push the (T, 2) secrets through simulate_protocol, one bounded chunk of rows at a time.

    before, bits and after are simulate_protocol's.  A chunk holds at most
    qstate.CUT_BATCH_ELEMENTS amplitudes.  Per secret: the state norm of the
    encoded secret, the branch probabilities (checked to sum to 1 within
    1e-9), and each branch's fidelity and purity flag.
    """
    size = max(1, qstate.CUT_BATCH_ELEMENTS // layout.dim)
    probabilities, fidelities, vacuous = [], [], []
    factorized = True
    for start in range(0, len(secrets), size):
        chunk = secrets[start:start + size]
        amps = chunk[:, 0:1] * images[0] + chunk[:, 1:2] * images[1]
        check_norms(np.linalg.norm(amps, axis=1))
        probs, states, empty = simulate_protocol(amps, before, bits, after)
        totals = probs.sum(axis=0)
        bad = np.flatnonzero(np.abs(totals - 1.0) > 1e-9)
        if bad.size:
            raise ProtocolError(f"branch probabilities sum to {totals[bad[0]]}, not 1")
        fids = []
        for branch, branch_empty in zip(states, empty):
            fid, pure = _secret_fidelities(branch, layout, out_reg, chunk)
            fids.append(fid)
            factorized = factorized and bool(np.all(pure | branch_empty))
        probabilities.append(probs)
        fidelities.append(np.array(fids))
        vacuous.append(empty)
    last_states = [None if branch_empty[-1] else PureState(layout, branch[-1])
                   for branch, branch_empty in zip(states, empty)]
    return _BatchRun(
        np.concatenate(probabilities, axis=1),
        np.concatenate(fidelities, axis=1),
        np.concatenate(vacuous, axis=1),
        factorized,
        last_states,
    )


def _residual_ket(state, output_register, alpha, beta):
    """Project the output register onto the secret and renormalize the rest."""
    layout = state.layout
    ax = layout.axis(output_register)
    rest_axes = tuple(a for a in range(layout.num_qubits) if a != ax)
    t = state.tensor().transpose((ax,) + rest_axes).reshape(2, -1)
    vec = np.conj(alpha) * t[0] + np.conj(beta) * t[1]
    norm = np.linalg.norm(vec)
    if norm < 1e-9:
        return None
    rest_labels = tuple(layout.labels[a] for a in rest_axes)
    return PureState(RegisterLayout(rest_labels), vec / norm)


def _ket_doc(state):
    """JSON-ready ket expansion of a state."""
    if state is None:
        return None
    return [
        {"ket": b, "re": float(a.real), "im": float(a.imag)} for b, a in state.ket_terms()
    ]


# ---------------------------------------------------------------------------
# circuit reconstruction for the four-share threshold scheme

# authorized triple -> (controller, stage-one targets, output particle), fixed
# wiring validated by the fidelity-1 requirement; a set runs the first it holds
_CIRCUIT_ROLES = {
    frozenset({1, 3, 4}): (3, (1, 4), 1),
    frozenset({2, 3, 4}): (3, (2, 4), 2),
    frozenset({1, 2, 3}): (1, (2, 3), 3),
    frozenset({1, 2, 4}): (1, (2, 4), 4),
}

_DOCUMENTED_RESIDUAL_NOTE = (
    "acting set {P1,P3,P4}: gate algebra leaves the residual "
    "(|000>+|110>)/sqrt(2) on (p2,p3,p4); the documented walkthrough ket "
    "(|010>+|110>)/sqrt(2) does not match and is recorded, not adopted"
)


def run_threshold34_circuit(scheme, acting_set, secrets):
    """Controlled-flip reconstruction circuit for an authorized set of the threshold34 scheme.

    The set runs the first _CIRCUIT_ROLES triple it holds; a fourth player
    idles.  Stage one: the triple's controller conditions flips on its other
    two particles.  Stage two: those two jointly control a parity flip back
    onto the controller.  The secret ends on the output particle with
    fidelity 1 and the residual factorizes.  scheme must be
    build_threshold34()'s scheme, with its identity assignment.  secrets
    is one (alpha, beta) pair or a (T, 2) array of them, checked before the
    scheme; the circuit is one gather, applied to all of them at once.
    """
    secrets = _secret_array(secrets)
    if scheme.num_particles != 4 or not np.allclose(
        scheme.basis_images, _block_images(4, _THRESHOLD34_BLOCK), atol=1e-12
    ):
        raise ProtocolError("circuit wiring is specific to the four-share threshold scheme")
    if scheme.assignment != identity_assignment(4):
        raise ProtocolError("circuit wiring assumes each player holds their own particle")
    acting = PlayerSubset.coerce(acting_set, 4)
    key = next((t for t in _CIRCUIT_ROLES if t <= set(acting.players())), None)
    if key is None:
        raise UnauthorizedSetError(f"{acting} is not an authorized triple")
    controller, targets, output = _CIRCUIT_ROLES[key]

    stage_one = tuple(f"p{t}" for t in targets)
    steps = [
        {"step": "single_controlled", "controls": (f"p{controller}",), "targets": stage_one},
        {"step": "double_controlled", "controls": stage_one, "targets": (f"p{controller}",)},
    ]
    layout = RegisterLayout(particle_labels(4))
    out_reg = f"p{output}"
    run = _run_batch(layout, scheme.basis_images, secrets, out_reg, _gather(layout, steps))
    fidelities = run.fidelities[0].tolist()
    residual = _residual_ket(run.last_states[0], out_reg, *secrets[-1])

    deviations = []
    if key == frozenset({1, 3, 4}):
        deviations.append(_DOCUMENTED_RESIDUAL_NOTE)
    trace = {
        "protocol": "circuit",
        "acting": list(acting.players()),
        "steps": steps,
        "residual": _ket_doc(residual),
    }
    return ProtocolOutcome(
        output_register=out_reg,
        fidelity=min(fidelities),
        fidelities=fidelities,
        residual_factorized=run.factorized,
        branch_probabilities={"": 1.0},
        branch_fidelities={"": fidelities[-1]},
        deviations=deviations,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# measure-and-correct reconstruction for block schemes


def run_block_measure_protocol(scheme, block, acting_set, secrets):
    """Measurement protocol for any authorized set of a block scheme.

    block(n, b) and block(n, ~b) have the same images, so the protocol wires
    the block, or else its complement: the first side the acting set holds
    whole along with another player (a set with neither is unauthorized).
    The lowest other player measures and announces the bit, and the rest
    idle; on outcome 1 every particle of the side is flipped, then a flip
    chain from its first particle disentangles the rest, leaving the secret
    there.  The scheme and block are bounded as build_block_scheme bounds
    them.  secrets is one (alpha, beta) pair or a (T, 2) array of them,
    checked after the scheme; each secret's fidelity is that of its worst
    reachable branch, capped at 1.
    """
    n = scheme.num_particles
    reference = _block_images(n, block)
    block = PlayerSubset.coerce(block, n)
    if not np.allclose(scheme.basis_images, reference, atol=1e-12):
        raise ProtocolError("scheme images do not match the block construction for this block")
    if scheme.assignment != identity_assignment(n):
        raise ProtocolError("measure protocol assumes each player holds their own particle")
    secrets = _secret_array(secrets)

    acting = PlayerSubset.coerce(acting_set, n)
    side = next((s for s in (block, block.complement())
                 if acting.bits & s.bits == s.bits and acting.bits != s.bits), None)
    if side is None:
        raise UnauthorizedSetError(f"{acting} is not authorized for this block scheme")

    members = side.players()
    measurer = min(set(acting.players()) - set(members))
    first = members[0]
    measured = f"p{measurer}"
    flips = [{"step": "pauli_x", "controls": (), "targets": (f"p{p}",)} for p in members]
    chain = [{"step": "cnot", "controls": (f"p{first}",), "targets": (f"p{p}",)}
             for p in members[1:]]
    layout = RegisterLayout(particle_labels(n))
    out_reg = f"p{first}"
    after = (_gather(layout, chain), _gather(layout, flips + chain))
    run = _run_batch(layout, scheme.basis_images, secrets, out_reg, None,
                     _bit_vector(layout, measured), after)
    # fmin folds like min(worst, f) from worst = 1: a NaN fidelity leaves it alone
    worst = np.fmin.reduce(np.where(run.vacuous, 1.0, run.fidelities), axis=0, initial=1.0)
    fidelities = worst.tolist()

    keys = ("0", "1")
    probabilities = {key: float(p) for key, p in zip(keys, run.probabilities[:, -1])}
    branch_fidelities = {
        key: float(f)
        for key, f, vacuous in zip(keys, run.fidelities[:, -1], run.vacuous[:, -1])
        if not vacuous
    }
    trace = {
        "protocol": "measure",
        "acting": list(acting.players()),
        "measurer": measurer,
        "steps": [{"step": "measure_z", "register": measured},
                  {"step": "correction", "register": measured}] + chain,
        "branches": {key: _ket_doc(state) for key, state in zip(keys, run.last_states)},
    }
    return ProtocolOutcome(
        output_register=out_reg,
        fidelity=min(fidelities),
        fidelities=fidelities,
        residual_factorized=run.factorized,
        branch_probabilities=probabilities,
        branch_fidelities=branch_fidelities,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# generic decoupling decoder


@dataclass
class DecoderResult:
    isometry: np.ndarray
    targets: tuple
    fidelity: float
    output_register: str
    i_re: float


def decoupling_decoder(state, a_regs):
    """Decode the secret onto the acting registers via purification matching.

    The reference is register "R", as purify_secret names it.  The decoder
    needs the complement E of R and A to be uncorrelated with R (I(R:E) = 0):
    the global state is then a purification of a product rho_R x rho_E,
    whose relative states on A, one per eigenvector k of rho_E and reference
    value i, form an orthonormal family.  It also needs rank(rho_E) <=
    2^(|A|-1), so that the targets below fit on A.  That follows from
    I(R:E) = 0 only when both reference values have weight, since then
    rank(rho_A) = rank(rho_R x rho_E) = 2 rank(rho_E).  With a pure
    reference it can fail, and the set is refused: A = {P1} of threshold34
    is.  The decoder is the partial isometry V on their span: row j of
    ``isometry`` is the conjugate of the j-th relative state, and it maps
    that state to the acting-block index ``targets[j] = i * 2^(|A|-1) + k``,
    i.e. output qubit (the first acting register) i and junk k.  V has at
    most 2 * rank(rho_E) rows, so nothing of size 2^|A| x 2^|A| is built:
    the fidelity of (R, output) with the purified secret is read off the
    coefficients of the state on those rows.  The eigenvectors of rho_E
    come from one thin SVD of the coefficient matrix M[e, (i, a)], whose
    cost is set by the smaller side of the E | (R, A) cut, so the decoder
    reaches the 13-particle ceiling whether E or A is small.
    """
    if "R" in a_regs:
        raise ProtocolError("acting registers include the reference")
    layout = state.layout
    a_axes = layout.axes(a_regs)
    r_axis = layout.axis("R")
    n = layout.num_qubits
    e_axes = tuple(ax for ax in range(n) if ax not in a_axes and ax != r_axis)
    r_mask = 1 << (n - 1 - r_axis)
    e_mask = sum(1 << (n - 1 - ax) for ax in e_axes)
    # an empty E keeps nothing: its cut of the pure state has entropy 0
    s_r, s_e, s_re = qstate.cut_entropies(state, [r_mask, e_mask, r_mask | e_mask]).tolist()
    i_re = s_r + s_e - s_re
    if i_re > DECOUPLING_TOL:
        raise DecouplingError(i_re)

    dim_a = 1 << len(a_axes)
    junk = dim_a // 2
    t = state.tensor().transpose((r_axis,) + e_axes + a_axes).reshape(2, -1, dim_a)
    if abs(np.vdot(t[1], t[0])) > 1e-9:
        raise ProtocolError("reference is not stored in its eigenbasis")
    p = np.einsum("iea,iea->i", t, t.conj()).real
    # M[e, (i, a)] = t[i, e, a] = U diag(s) Vh: column k of U is the eigenvector of
    # rho_E = M M^dagger with eigenvalue s_k^2, and projecting E onto it leaves
    # s_k Vh[k, (i, a)], so the relative state of (i, k) is Vh[k, i-block] / sqrt(p_i)
    _, s, vh = np.linalg.svd(t.transpose(1, 0, 2).reshape(t.shape[1], -1), full_matrices=False)
    rel = vh.reshape(-1, 2, dim_a)

    kept, targets = [], []
    for i in (0, 1):
        for k in range(len(s)):
            if p[i] * s[k] ** 2 <= 1e-12:
                continue
            vec = rel[k, i] / np.sqrt(p[i])
            for prev in kept:
                vec = vec - (prev.conj() @ vec) * prev
            norm = np.linalg.norm(vec)
            if norm < 0.5:
                raise ProtocolError("relative states degenerate; decoder construction failed")
            kept.append(vec / norm)
            targets.append(i * junk + k)
    if max(targets) >= dim_a or len(set(targets)) < len(targets):
        raise ProtocolError("relative states do not fit (output qubit) x (junk) on the acting set")

    isometry = np.array(kept).conj()
    if np.max(np.abs(isometry @ isometry.conj().T - np.eye(len(kept)))) > 1e-8:
        raise ProtocolError("decoder matrix failed the partial-isometry check")

    # the decoded state on (R, E, output, junk), then rho(R, output) = M M^dagger
    decoded = np.zeros_like(t)
    decoded[:, :, targets] = t @ isometry.T
    m = decoded.reshape(2, t.shape[1], 2, junk).transpose(0, 2, 1, 3).reshape(4, -1)
    rho = m @ m.conj().T
    phi = np.zeros(4, dtype=np.complex128)
    phi[0b00] = np.sqrt(p[0])
    phi[0b11] = np.sqrt(p[1])
    fidelity = float(np.real(phi.conj() @ rho @ phi))
    out_reg = layout.labels[a_axes[0]]
    return DecoderResult(isometry, tuple(targets), fidelity, out_reg, i_re)


# ---------------------------------------------------------------------------
# attack scenarios on the four-share threshold scheme


@dataclass
class PairAttackReport:
    branch_probabilities: dict
    outcome0_residual: PureState | None
    deviations: list = field(default_factory=list)


def attack_threshold34_pair12(secret):
    """P1 applies a flip controlled on their particle onto P2's; P2 measures.

    The outcome-1 branch has probability exactly zero; the outcome-0
    collapse leaves P1, P3, P4 holding a state still entangled with the
    secret amplitudes, so the pair learns nothing it can isolate.
    """
    alpha, beta = complex(secret[0]), complex(secret[1])
    state = apply_to_secret(build_threshold34(), alpha, beta)
    layout = state.layout
    cnot = {"step": "cnot", "controls": ("p1",), "targets": ("p2",)}
    probabilities, states, vacuous = simulate_protocol(
        state.amplitudes[None], _gather(layout, [cnot]), _bit_vector(layout, "p2"))
    probs = {"0": float(probabilities[0, 0]), "1": float(probabilities[1, 0])}
    residual = None
    if not vacuous[0, 0]:
        # p2 collapsed to |0>: slice it out to expose the (p1,p3,p4) factor
        t = states[0][0].reshape((2,) * 4)
        residual = PureState(RegisterLayout(("p1", "p3", "p4")), t[:, 0, :, :].reshape(-1))
    notes = []
    if probs["1"] <= 1e-12:
        notes.append(
            "outcome-1 branch has probability exactly 0; the outcome-1 "
            "measurement scenario is unreachable"
        )
    return PairAttackReport(
        branch_probabilities=probs,
        outcome0_residual=residual,
        deviations=notes,
    )


@dataclass
class PhaseAttackReport:
    rho: np.ndarray
    rho_phased: np.ndarray
    max_entry_difference: float
    phase_blind: bool
    diagonal: np.ndarray
    mixed_secret_mutual_info: float


def attack_threshold34_pair23(secret, phase):
    """Reduced state of the pair (P2, P3) and its blindness to the secret phase.

    The pair's reduced state is diagonal and depends only on the secret
    magnitudes, so multiplying beta by any phase changes nothing the pair
    can observe; the magnitudes do leak, consistent with the generalized
    bound I(R:A) = S(S) rather than zero.
    """
    alpha, beta = complex(secret[0]), complex(secret[1])
    scheme = build_threshold34()
    rho = partial_trace(apply_to_secret(scheme, alpha, beta), ("p2", "p3")).matrix
    phased = beta * np.exp(1j * float(phase))
    rho_phased = partial_trace(apply_to_secret(scheme, alpha, phased), ("p2", "p3")).matrix
    diff = float(np.max(np.abs(rho - rho_phased)))
    purified = distribute_purified(scheme)
    info = mutual_information(purified, ("R",), ("p2", "p3"))
    return PhaseAttackReport(
        rho=rho,
        rho_phased=rho_phased,
        max_entry_difference=diff,
        phase_blind=diff <= 1e-12,
        diagonal=np.real(np.diag(rho)).copy(),
        mixed_secret_mutual_info=info,
    )


def random_secrets(rng, count):
    """(count, 2) array of qubits drawn uniformly from the pure-state sphere.

    Each row is (cos(theta/2), e^(i phi) sin(theta/2)) with theta = arccos(1 - 2u),
    phi = 2 pi u' and u, u' the generator's next two doubles.  A count above
    MAX_TRIALS raises qstate.ResourceLimitError before anything is drawn.
    """
    if count > MAX_TRIALS:
        raise qstate.ResourceLimitError(f"at most {MAX_TRIALS} trials supported, got {count}")
    u = rng.random(2 * count)
    theta = np.arccos(1.0 - 2.0 * u[0::2])
    phi = 2.0 * np.pi * u[1::2]
    return np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1)
