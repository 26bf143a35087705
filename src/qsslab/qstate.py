"""Exact state-vector engine over labeled one-qubit registers.

States live on an ordered register layout; the first label is the most
significant bit of the amplitude index.  Everything is dense complex128:
at the target scale (at most 14 qubits) exact linear algebra is cheap and
beats sampling, so reduced states and spectra are computed directly.

The entropy of a subsystem of a pure state depends only on the Schmidt
spectrum of the cut between the subsystem and the rest, so cut_entropies
never forms a reduced state.  For a batch of cuts it splits the state's
nonzero amplitudes into the kept and traced-out bits of their indices,
scatters them into one stack of small coefficient matrices per padded
matrix shape, and diagonalizes the smaller Gram matrix of every cut in
one stacked eigvalsh call, in batches of bounded size.  A four-term state
gives at most 4 x 4 Gram matrices, in at most three shapes; a dense state
gives at most the smaller side of the cut.  It is the one entropy path:
mutual_information takes pure states only and reads its three cuts from
it.  partial_trace (of a pure state) and von_neumann_entropy are the dense
reference that the tests compare against; partial_trace also gives
attack_threshold34_pair23 its two-share states.

Entropy is base 2 throughout: a maximally mixed qubit has S = 1.
"""

import functools
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-10
ISOMETRY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
ZERO_EIGENVALUE_CUT = 1e-12
#: Default slack of the entropy conditions on I(R:A) (verifier, search, CLI).
DEFAULT_TOLERANCE = 1e-9

MAX_QUBITS = 14


class QStateError(ValueError):
    """Malformed state, layout, or operator input."""


class ResourceLimitError(QStateError):
    """Qubit budget exceeded."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered one-qubit register names; order fixes tensor indices."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise QStateError("layout needs at least one register")
        if len(set(labels)) != len(labels):
            raise QStateError(f"duplicate register labels in {labels}")
        if len(labels) > MAX_QUBITS:
            raise ResourceLimitError(f"at most {MAX_QUBITS} qubits supported, got {len(labels)}")

    @property
    def num_qubits(self):
        return len(self.labels)

    @property
    def dim(self):
        return 1 << len(self.labels)

    def axis(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise QStateError(f"unknown register {label!r}; layout has {self.labels}") from None

    def axes(self, labels):
        """Axes of the given registers, sorted into layout order."""
        return tuple(sorted(self.axis(lbl) for lbl in labels))


def check_norms(norms):
    """Raise on the first state norm that deviates from 1 beyond NORM_TOL."""
    norms = np.asarray(norms, dtype=np.float64)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))  # NaN fails too
    if bad.size:
        norm = float(norms[bad[0]])
        raise QStateError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")


class PureState:
    """Normalized amplitude vector over a RegisterLayout."""

    def __init__(self, layout, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (layout.dim,):
            raise QStateError(
                f"amplitude vector has shape {amplitudes.shape}, expected ({layout.dim},)"
            )
        check_norms([float(np.linalg.norm(amplitudes))])
        self.layout = layout
        self.amplitudes = amplitudes.copy()
        self.amplitudes.flags.writeable = False

    @property
    def num_qubits(self):
        return self.layout.num_qubits

    def tensor(self):
        return self.amplitudes.reshape((2,) * self.num_qubits)

    @functools.cached_property
    def support(self):
        """(indices, amplitudes) of the exactly nonzero components."""
        indices = np.flatnonzero(self.amplitudes)
        return indices, self.amplitudes[indices]

    def ket_terms(self, cut=1e-12):
        """(bitstring, amplitude) pairs of the significant components."""
        n = self.num_qubits
        indices = np.flatnonzero(np.abs(self.amplitudes) > cut)
        return [(format(i, f"0{n}b"), a) for i, a in zip(indices.tolist(), self.amplitudes[indices])]

    def __repr__(self):
        terms = ", ".join(f"|{b}>: {a:.4g}" for b, a in self.ket_terms(1e-6))
        return f"PureState({self.layout.labels}; {terms})"


class DensityMatrix:
    """Hermitian trace-one matrix, optionally tagged with register labels."""

    def __init__(self, matrix, labels=None):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise QStateError(f"density matrix must be square, got shape {matrix.shape}")
        if np.max(np.abs(matrix - matrix.conj().T)) > HERMITIAN_TOL:
            raise QStateError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(matrix))
        if abs(tr - 1.0) > HERMITIAN_TOL:
            raise QStateError(f"trace {tr} deviates from 1")
        if labels is not None:
            labels = tuple(labels)
            if matrix.shape[0] != 1 << len(labels):
                raise QStateError("label count does not match matrix dimension")
        self.matrix = matrix.copy()
        self.matrix.flags.writeable = False
        self.labels = labels

    @property
    def dim(self):
        return self.matrix.shape[0]


def purify_secret(probabilities):
    """Purification |RS> = sum_i sqrt(p_i) |i>_R |i>_S of a one-qubit mixture."""
    probs = [float(p) for p in probabilities]
    if len(probs) != 2:
        raise QStateError("only one-qubit secrets (two probabilities) are supported")
    if any(p < -NORM_TOL for p in probs):
        raise QStateError(f"negative probability in {probs}")
    if abs(sum(probs) - 1.0) > NORM_TOL:
        raise QStateError(f"probabilities {probs} do not sum to 1")
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b00] = np.sqrt(max(probs[0], 0.0))
    amps[0b11] = np.sqrt(max(probs[1], 0.0))
    return PureState(RegisterLayout(("R", "S")), amps)


def apply_isometry(state, target, new_labels, images):
    """Replace one register with new registers via a basis-image table.

    images[b] is the amplitude vector over the new registers that the
    basis ket |b> of the target register maps to; the two images must be
    orthonormal (Gram matrix equal to the identity within 1e-10).  The new
    registers are spliced into the target's position in the layout.
    """
    new_labels = tuple(new_labels)
    images = np.asarray(images, dtype=np.complex128)
    if images.shape != (2, 1 << len(new_labels)):
        raise QStateError(
            f"image table has shape {images.shape}, expected (2, {1 << len(new_labels)})"
        )
    gram = images @ images.conj().T
    if np.max(np.abs(gram - np.eye(2))) > ISOMETRY_TOL:
        raise QStateError("basis images are not orthonormal: not an isometry")
    t = state.layout.axis(target)
    remaining = state.layout.labels[:t] + state.layout.labels[t + 1 :]
    clash = set(new_labels) & set(remaining)
    if clash:
        raise QStateError(f"new register labels collide with existing ones: {sorted(clash)}")
    labels = state.layout.labels[:t] + new_labels + state.layout.labels[t + 1 :]
    n = state.num_qubits
    pre, post = 1 << t, 1 << (n - 1 - t)
    psi = state.amplitudes.reshape(pre, 2, post)
    out = np.einsum("pbq,bs->psq", psi, images)
    return PureState(RegisterLayout(labels), out.reshape(-1))


def partial_trace(state, keep):
    """Reduced density matrix of a pure state on the kept registers, in layout order."""
    keep = tuple(keep)
    if not keep:
        raise QStateError("keep at least one register")
    if not isinstance(state, PureState):
        raise QStateError(f"partial trace needs a PureState, got {type(state).__name__}")
    layout = state.layout
    keep_ax = layout.axes(keep)
    env_ax = tuple(a for a in range(layout.num_qubits) if a not in keep_ax)
    k, e = len(keep_ax), len(env_ax)
    t = state.tensor().transpose(keep_ax + env_ax).reshape(1 << k, 1 << e)
    kept_labels = tuple(layout.labels[a] for a in keep_ax)
    return DensityMatrix(t @ t.conj().T, labels=kept_labels)


def _spectrum_entropies(values, log2_dims):
    """-sum lambda log2 lambda of each density spectrum row c, clamped to [0, log2_dims[c]].

    The clamp keeps Python's max/min semantics, so a pure cut stays -0.0.
    """
    low = values.min()
    if low < EIGENVALUE_FLOOR:
        raise QStateError(f"density matrix has eigenvalue {low} below floor")
    nonzero = values > ZERO_EIGENVALUE_CUT
    lam = np.where(nonzero, values, 1.0)
    s = -np.where(nonzero, lam * np.log2(lam), 0.0).sum(axis=-1)
    s = np.where(s < 0.0, 0.0, s)
    return np.where(log2_dims < s, log2_dims, s)


def von_neumann_entropy(dm):
    """S(rho) = -sum lambda_i log2 lambda_i, in bits."""
    return float(_spectrum_entropies(np.linalg.eigvalsh(dm.matrix)[None], np.log2(dm.dim))[0])


def _dense_ranks(values):
    """Rank of each entry among its row's distinct values, ascending, and each row's count."""
    rows = np.arange(len(values))[:, None]
    order = values.argsort(axis=1)
    ordered = values[rows, order]
    step = np.zeros(values.shape, dtype=np.int64)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=step[:, 1:])
    step.cumsum(axis=1, out=step)
    ranks = np.empty_like(step)
    ranks[rows, order] = step
    return ranks, step[:, -1] + 1


def _packed_bits(masks, k):
    """pext(x, mask) of every k-bit x, one row per mask, and each mask's popcount."""
    x = np.arange(1 << k)
    table = np.zeros((len(masks), 1 << k), dtype=np.int64)
    packed = np.zeros(len(masks), dtype=np.int64)  # mask bits below the current bit
    for bit in range(k):
        selected = (masks >> bit) & 1
        table |= (((x >> bit) & 1)[None, :] * selected[:, None]) << packed[:, None]
        packed += selected
    return table, packed


def _subset_ranks(indices, masks, n):
    """_dense_ranks of indices & mask for each mask, over n-bit indices.

    When the indices are all 2^n of them, the distinct values of x & mask
    are the submasks of mask, so the rank of x & mask is pext(x, mask), its
    masked bits packed in order, and a row has 2^popcount(mask) values: no
    sort.  pext is read off two half-width tables, x = hi * 2^low + lo.
    """
    if len(indices) != 1 << n:
        return _dense_ranks(indices & masks[:, None])
    low = n // 2
    hi, hi_bits = _packed_bits(masks >> low, n - low)
    lo, lo_bits = _packed_bits(masks & ((1 << low) - 1), low)
    ranks = (hi << lo_bits[:, None])[:, :, None] | lo[:, None, :]
    return ranks.reshape(len(masks), 1 << n), np.int64(1) << (hi_bits + lo_bits)


def _cut_group_entropies(indices, amps, masks, n, rows, cols, log2_dims):
    """Entropies of cuts whose M is padded to (rows, cols), in one eigvalsh call.

    The kept and traced-out bits of every cut are ranked in one pass.  Each
    cut's M is scattered through one flat index with the side that has fewer
    distinct values as its rows, zero-padded to (rows, cols); the spectrum
    of M M^dagger is the nonzero spectrum of the reduced state.
    """
    b = len(masks)
    ranks, distinct = _subset_ranks(indices, np.concatenate([masks, ((1 << n) - 1) ^ masks]), n)
    flip = distinct[:b] > distinct[b:]
    ranks[:b] *= np.where(flip, 1, cols)[:, None]
    ranks[b:] *= np.where(flip, cols, 1)[:, None]
    flat = ranks[:b] + ranks[b:]
    flat += (np.arange(b) * (rows * cols))[:, None]
    m = np.zeros(b * rows * cols, dtype=np.complex128)
    m[flat] = amps
    m = m.reshape(b, rows, cols)
    gram = m @ m.conj().transpose(0, 2, 1)
    return _spectrum_entropies(np.linalg.eigvalsh(gram), log2_dims)


#: Most elements a temporary of cut_entropies may hold, counting a cut's
#: padded M and the ranks of both its sides: a dense 14-qubit state is
#: processed one cut at a time, with temporaries of at most 512 KB.
CUT_BATCH_ELEMENTS = 1 << 15

#: Set bits of each byte value; keep masks have at most MAX_QUBITS < 16 bits.
_BYTE_POPCOUNTS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def cut_entropies(state, keep_masks):
    """Entropy of each kept register set of a pure state, as a float array.

    keep_masks[c] selects the kept registers by amplitude-index bit: the
    register on layout axis a is bit num_qubits - 1 - a.  A mask of 0
    keeps nothing and gives the entropy of the whole (pure) state.  The
    state's nonzero amplitudes a_i at indices x_i are scattered into
    M[kept bits of x_i, traced-out bits of x_i], the kept and traced-out
    bits relabelled by their ascending rank; the nonzero spectrum of the
    reduced state M M^dagger equals that of M^dagger M, so the smaller of
    the two is diagonalized.  With j registers on the smaller side of the
    cut and s nonzero amplitudes, M is zero-padded to
    (min(2^j, s), min(2^(n-j), s)).  Cuts with the same padded shape (a
    four-term state has at most three) are stacked together and processed
    in batches of at most CUT_BATCH_ELEMENTS elements per temporary.
    """
    masks = np.asarray(keep_masks, dtype=np.int64).reshape(-1)
    n = state.num_qubits
    if masks.size and not (0 <= masks.min() and masks.max() < 1 << n):
        raise QStateError(f"keep masks must lie in [0, {1 << n}) for {n} registers")
    indices, amps = state.support
    size = len(indices)
    counts = _BYTE_POPCOUNTS[masks & 0xFF] + _BYTE_POPCOUNTS[masks >> 8]
    rows = np.minimum(1 << np.minimum(counts, n - counts), size)  # min(2^j, s) of each cut
    out = np.empty(masks.shape, dtype=np.float64)
    for r in sorted(set(rows.tolist())):
        group = np.flatnonzero(rows == r)
        # min(2^(n-j), s): 2^n // r is 2^(n-j) when r = 2^j, and at least s when r = s <= 2^j
        c = min((1 << n) // r, size)
        batch = max(1, CUT_BATCH_ELEMENTS // max(r * c, 2 * size))
        for start in range(0, len(group), batch):
            cuts = group[start : start + batch]
            out[cuts] = _cut_group_entropies(
                indices, amps, masks[cuts], n, r, c, counts[cuts].astype(np.float64)
            )
    return out


def _keep_mask(layout, regs):
    """cut_entropies mask of a nonempty register list without repeats."""
    regs = tuple(regs)
    if not regs:
        raise QStateError("keep at least one register")
    keep_ax = layout.axes(regs)
    if len(set(keep_ax)) != len(keep_ax):
        raise QStateError(f"duplicate registers in {regs}")
    return sum(1 << (layout.num_qubits - 1 - a) for a in keep_ax)


def mutual_information(state, ref_regs, a_regs):
    """I(R:A) = S(R) + S(A) - S(RA) of a pure state, its three cuts in one cut_entropies call."""
    if not isinstance(state, PureState):
        raise QStateError(f"mutual information needs a PureState, got {type(state).__name__}")
    ref_regs, a_regs = tuple(ref_regs), tuple(a_regs)
    overlap = set(ref_regs) & set(a_regs)
    if overlap:
        raise QStateError(f"register lists overlap on {sorted(overlap)}")
    masks = [_keep_mask(state.layout, regs) for regs in (ref_regs, a_regs, ref_regs + a_regs)]
    s_r, s_a, s_ra = cut_entropies(state, masks).tolist()
    return s_r + s_a - s_ra
