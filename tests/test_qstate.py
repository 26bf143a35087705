import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab.qstate import (
    DensityMatrix,
    PureState,
    QStateError,
    RegisterLayout,
    apply_isometry,
    cut_entropies,
    mutual_information,
    partial_trace,
    purify_secret,
    von_neumann_entropy,
)
from qsslab.qstate import _dense_ranks, _subset_ranks
from qsslab.schemes import build_block_scheme, distribute_purified, identity_assignment
from qsslab.structures import PlayerSubset
from reference_stabilizer import (
    FIVE_QUBIT_GENERATORS,
    FIVE_QUBIT_PURIFIED_CHECKS,
    block_generators,
    five_qubit_images,
    five_qubit_scheme,
    pauli_matrix,
    stabilizer_entropy,
    subspace_entropy,
)
from reference_verifier import register_entropy, trace_density_matrix

SQ2 = 2**-0.5


def bell_state():
    return PureState(RegisterLayout(("a", "b")), [SQ2, 0, 0, SQ2])


def threshold34_images():
    images = np.zeros((2, 16), dtype=np.complex128)
    images[0, 0b0000] = images[0, 0b1111] = SQ2
    images[1, 0b0011] = images[1, 0b1100] = SQ2
    return images


def distributed_state():
    """Purified maximally mixed secret pushed through the four-share isometry."""
    return apply_isometry(
        purify_secret((0.5, 0.5)), "S", ("p1", "p2", "p3", "p4"), threshold34_images()
    )


# ---------------------------------------------------------------------------
# oracle: index-arithmetic partial trace, independent of the library path


def oracle_reduced(amplitudes, num_qubits, keep_axes):
    keep_axes = tuple(keep_axes)
    env = [a for a in range(num_qubits) if a not in keep_axes]
    k = len(keep_axes)
    rho = np.zeros((1 << k, 1 << k), dtype=np.complex128)

    def bit(i, axis):
        return (i >> (num_qubits - 1 - axis)) & 1

    for i in range(1 << num_qubits):
        for j in range(1 << num_qubits):
            if any(bit(i, a) != bit(j, a) for a in env):
                continue
            ik = sum(bit(i, a) << (k - 1 - t) for t, a in enumerate(keep_axes))
            jk = sum(bit(j, a) << (k - 1 - t) for t, a in enumerate(keep_axes))
            rho[ik, jk] += amplitudes[i] * np.conj(amplitudes[j])
    return rho


def oracle_entropy(rho):
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-12]
    return float(-(lam * np.log2(lam)).sum())


# ---------------------------------------------------------------------------
# layouts and states


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(QStateError, match="duplicate"):
            RegisterLayout(("a", "a"))

    def test_qubit_cap(self):
        with pytest.raises(QStateError, match="14"):
            RegisterLayout(tuple(f"q{i}" for i in range(15)))

    def test_unknown_register(self):
        with pytest.raises(QStateError, match="unknown"):
            RegisterLayout(("a", "b")).axis("c")


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(QStateError, match="norm"):
            PureState(RegisterLayout(("a",)), [1.0, 1.0])

    def test_nan_norm_rejected(self):
        with pytest.raises(QStateError, match="norm"):
            PureState(RegisterLayout(("a",)), [float("nan"), 0.0])

    def test_amplitudes_read_only(self):
        state = bell_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(QStateError, match="Hermitian"):
            DensityMatrix([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(QStateError, match="trace"):
            DensityMatrix([[1.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# purification


class TestPurifySecret:
    def test_maximally_mixed(self):
        state = purify_secret((0.5, 0.5))
        np.testing.assert_allclose(state.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15)

    def test_pure_secret(self):
        state = purify_secret((1.0, 0.0))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_biased_secret_marginal(self):
        state = purify_secret((0.3, 0.7))
        rho = oracle_reduced(state.amplitudes, 2, (1,))
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(rho)), [0.3, 0.7], atol=1e-12)

    def test_rejects_bad_distribution(self):
        with pytest.raises(QStateError):
            purify_secret((0.5, 0.6))
        with pytest.raises(QStateError):
            purify_secret((1.5, -0.5))
        with pytest.raises(QStateError):
            purify_secret((1.0,))

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_reference_correlation_is_twice_secret_entropy(self, p):
        state = purify_secret((p, 1.0 - p))
        i_rs = mutual_information(state, ("R",), ("S",))
        s_s = register_entropy(state, ("S",))
        assert abs(i_rs - 2.0 * s_s) <= 1e-9


# ---------------------------------------------------------------------------
# isometry application


class TestApplyIsometry:
    def test_four_share_distribution(self):
        state = distributed_state()
        assert state.layout.labels == ("R", "p1", "p2", "p3", "p4")
        expected = np.zeros(32, dtype=np.complex128)
        for ket in ("00000", "01111", "10011", "11100"):
            expected[int(ket, 2)] = 0.5
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_identity_images(self):
        state = purify_secret((0.5, 0.5))
        out = apply_isometry(state, "S", ("T",), np.eye(2))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_rejects_non_orthogonal_images(self):
        images = np.zeros((2, 4), dtype=np.complex128)
        images[0, 0] = images[1, 0] = 1.0
        with pytest.raises(QStateError, match="isometry"):
            apply_isometry(purify_secret((0.5, 0.5)), "S", ("a", "b"), images)

    def test_rejects_label_collision(self):
        with pytest.raises(QStateError, match="collide"):
            apply_isometry(purify_secret((0.5, 0.5)), "S", ("R",), np.eye(2))

    def test_norm_preserved_on_random_isometry(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(raw)
        images = q[:2, :]
        state = apply_isometry(purify_secret((0.3, 0.7)), "S", ("a", "b"), images)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# partial trace


class TestPartialTrace:
    def test_bell_marginal(self):
        rho = partial_trace(bell_state(), ("a",))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_share_pair_is_classical_mixture(self):
        rho = partial_trace(distributed_state(), ("p1", "p2"))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_product_state_marginal(self):
        amps = np.kron([1, 0], [SQ2, SQ2])
        state = PureState(RegisterLayout(("a", "b")), amps)
        rho = partial_trace(state, ("b",))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_matches_oracle_on_random_state(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps = raw / np.linalg.norm(raw)
        state = PureState(RegisterLayout(("a", "b", "c", "d")), amps)
        for keep, axes in ((("b", "d"), (1, 3)), (("a",), (0,)), (("a", "b", "c"), (0, 1, 2))):
            np.testing.assert_allclose(
                partial_trace(state, keep).matrix, oracle_reduced(amps, 4, axes), atol=1e-12
            )

    def test_keep_order_is_layout_order(self):
        state = distributed_state()
        a = partial_trace(state, ("p2", "p1")).matrix
        b = partial_trace(state, ("p1", "p2")).matrix
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_composition(self):
        state = distributed_state()
        one_step = partial_trace(state, ("p1", "p2"))
        rho_three = partial_trace(state, ("p1", "p2", "p3"))
        two_step = trace_density_matrix(rho_three, ("p1", "p2"))
        np.testing.assert_allclose(one_step.matrix, two_step.matrix, atol=1e-12)

    def test_unknown_register(self):
        with pytest.raises(QStateError, match="unknown"):
            partial_trace(bell_state(), ("z",))

    def test_empty_keep_rejected(self):
        with pytest.raises(QStateError):
            partial_trace(bell_state(), ())

    def test_density_matrix_rejected(self):
        rho = partial_trace(bell_state(), ("a", "b"))
        with pytest.raises(QStateError, match="needs a PureState"):
            partial_trace(rho, ("a",))


# ---------------------------------------------------------------------------
# spectra and entropy


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_projector(self):
        rho = np.zeros((4, 4))
        rho[2, 2] = 1.0
        assert von_neumann_entropy(DensityMatrix(rho)) == pytest.approx(0.0, abs=1e-12)

    def test_two_qubit_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) == pytest.approx(2.0, abs=1e-12)

    def test_clamp_at_maximum_returns_python_float(self):
        # trace 1 - 2e-11 is within tolerance, and the spectrum sums to an
        # entropy just above one bit; the clamp must not leak numpy scalars
        s = von_neumann_entropy(DensityMatrix(np.eye(2) * (0.5 - 1e-11)))
        assert type(s) is float
        assert s == 1.0

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            s = von_neumann_entropy(DensityMatrix(rho))
            assert -1e-9 <= s <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# mutual information: values frozen from the index-arithmetic oracle


class TestMutualInformation:
    def test_share_triple_recovers_everything(self):
        state = distributed_state()
        oracle = (
            oracle_entropy(oracle_reduced(state.amplitudes, 5, (0,)))
            + oracle_entropy(oracle_reduced(state.amplitudes, 5, (1, 2, 3)))
            - oracle_entropy(oracle_reduced(state.amplitudes, 5, (0, 1, 2, 3)))
        )
        assert oracle == pytest.approx(2.0, abs=1e-9)
        value = mutual_information(state, ("R",), ("p1", "p2", "p3"))
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_single_share_learns_nothing(self):
        assert mutual_information(distributed_state(), ("R",), ("p1",)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_share_pair_learns_one_bit(self):
        assert mutual_information(distributed_state(), ("R",), ("p1", "p2")) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_rejects_overlap(self):
        with pytest.raises(QStateError, match="overlap"):
            mutual_information(distributed_state(), ("R",), ("R", "p1"))

    def test_rejects_a_density_matrix(self):
        rho = partial_trace(distributed_state(), ("R", "p1", "p2"))
        with pytest.raises(QStateError, match="PureState"):
            mutual_information(rho, ("R",), ("p1",))


# ---------------------------------------------------------------------------
# purity identities on random states


def random_state(rng, labels):
    raw = rng.normal(size=1 << len(labels)) + 1j * rng.normal(size=1 << len(labels))
    return PureState(RegisterLayout(labels), raw / np.linalg.norm(raw))


@given(st.integers(0, 10_000), st.integers(3, 6))
@settings(max_examples=60, deadline=None)
def test_purity_symmetry(seed, n):
    rng = np.random.default_rng(seed)
    labels = tuple(f"q{i}" for i in range(n))
    state = random_state(rng, labels)
    cut = int(rng.integers(1, n))
    part = list(rng.permutation(n))
    left = tuple(labels[i] for i in part[:cut])
    right = tuple(labels[i] for i in part[cut:])
    assert abs(register_entropy(state, left) - register_entropy(state, right)) <= 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_complementary_information(seed):
    rng = np.random.default_rng(seed)
    labels = ("R", "a", "b", "c")
    state = random_state(rng, labels)
    i_ra = mutual_information(state, ("R",), ("a",))
    i_rbc = mutual_information(state, ("R",), ("b", "c"))
    s_r = register_entropy(state, ("R",))
    assert abs(i_ra + i_rbc - 2.0 * s_r) <= 1e-9


# ---------------------------------------------------------------------------
# subsystem entropy from the support Gram matrix, against the dense reduced state


def random_isometry_state(rng, m):
    """A random secret distribution pushed through a random dense isometry onto m particles."""
    raw = rng.normal(size=(1 << m, 2)) + 1j * rng.normal(size=(1 << m, 2))
    images = np.linalg.qr(raw)[0].T
    p = float(rng.uniform(0.05, 0.95))
    labels = tuple(f"p{i}" for i in range(1, m + 1))
    return apply_isometry(purify_secret((p, 1 - p)), "S", labels, images)


def proper_cuts(labels):
    """Every nonempty proper subset of the labels, as a register tuple."""
    n = len(labels)
    for bits in range(1, (1 << n) - 1):
        yield tuple(labels[i] for i in range(n) if bits >> i & 1)


class TestSupportEntropy:
    def test_support_is_every_nonzero_amplitude(self):
        amps = np.zeros(8, dtype=np.complex128)
        amps[0], amps[5], amps[6] = np.sqrt(1 - 1e-300), 1e-150, 0.0
        state = PureState(RegisterLayout(("a", "b", "c")), amps)
        indices, values = state.support
        assert indices.tolist() == [0, 5]
        assert values.tolist() == [amps[0], amps[5]]
        assert state.support is state.support

    def test_random_dense_isometries_match_partial_trace(self):
        rng = np.random.default_rng(11)
        for m in range(1, 7):
            state = random_isometry_state(rng, m)
            for regs in proper_cuts(state.layout.labels):
                dense = von_neumann_entropy(partial_trace(state, regs))
                assert abs(register_entropy(state, regs) - dense) <= 1e-12, (m, regs)

    def test_register_order_does_not_matter(self):
        state = random_isometry_state(np.random.default_rng(3), 4)
        assert register_entropy(state, ("p3", "R", "p1")) == register_entropy(
            state, ("R", "p1", "p3")
        )

    def test_rejects_empty_duplicate_and_unknown_registers(self):
        state = distributed_state()
        with pytest.raises(QStateError, match="at least one"):
            mutual_information(state, ("R",), ())
        with pytest.raises(QStateError, match="duplicate"):
            mutual_information(state, ("R",), ("p1", "p1"))
        with pytest.raises(QStateError, match="unknown"):
            mutual_information(state, ("R",), ("p9",))


class TestCutEntropies:
    @pytest.mark.parametrize("which", ["block9", "block13", "dense10"])
    def test_chunking_is_bit_identical(self, which, monkeypatch):
        import qsslab.qstate as qstate

        if which == "block9":
            state = distribute_purified(build_block_scheme(9, [2, 5, 7])[0])
        elif which == "block13":  # 14 qubits, four terms
            state = distribute_purified(build_block_scheme(13, [1, 2])[0])
        else:
            state = random_isometry_state(np.random.default_rng(5), 10)
        masks = np.arange(1 << state.num_qubits)
        whole = cut_entropies(state, masks)
        monkeypatch.setattr(qstate, "CUT_BATCH_ELEMENTS", 3)
        chunked = cut_entropies(state, masks[::-1])[::-1]
        assert np.array_equal(chunked, whole)
        assert np.array_equal(np.signbit(chunked), np.signbit(whole))

    @staticmethod
    def assert_ranks_match_argsort(state):
        indices, _ = state.support
        n = state.num_qubits
        masks = np.arange(1 << n)
        for side in (masks, ((1 << n) - 1) ^ masks):
            ranks, counts = _subset_ranks(indices, side, n)
            want_ranks, want_counts = _dense_ranks(indices & side[:, None])
            np.testing.assert_array_equal(ranks, want_ranks)
            np.testing.assert_array_equal(counts, want_counts)

    def test_dense_ranks_skip_the_sort_and_match_it(self):
        rng = np.random.default_rng(17)
        for m in range(1, 10):  # R plus m particles: up to 10 qubits
            state = random_isometry_state(rng, m)
            assert len(state.support[0]) == 1 << state.num_qubits
            self.assert_ranks_match_argsort(state)

    def test_sparse_ranks_keep_the_sort(self):
        sparse = distribute_purified(build_block_scheme(7, [2, 5])[0])
        amps = random_isometry_state(np.random.default_rng(4), 5).amplitudes.copy()
        amps[9] = 0.0  # one zero amplitude: the support is no longer every index
        almost_dense = PureState(RegisterLayout(tuple("abcdef")), amps / np.linalg.norm(amps))
        for state in (sparse, almost_dense):
            assert len(state.support[0]) < 1 << state.num_qubits
            self.assert_ranks_match_argsort(state)
        labels = almost_dense.layout.labels
        for regs in proper_cuts(labels):
            dense = von_neumann_entropy(partial_trace(almost_dense, regs))
            assert abs(register_entropy(almost_dense, regs) - dense) <= 1e-12

    @staticmethod
    def sparse_state(rng, num_qubits, terms):
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        support = rng.choice(1 << num_qubits, size=terms, replace=False)
        amps[support] = rng.normal(size=terms) + 1j * rng.normal(size=terms)
        labels = tuple(f"q{i}" for i in range(num_qubits))
        return PureState(RegisterLayout(labels), amps / np.linalg.norm(amps))

    @pytest.mark.parametrize("which", ["dense6", "block13", "sparse6", "sparse12", "empty"])
    def test_matches_one_cut_at_a_time(self, which):
        rng = np.random.default_rng(8)
        if which == "block13":
            state = distribute_purified(build_block_scheme(13, [1, 2])[0])
            full = (1 << 14) - 1
            masks = np.concatenate([[0, full], rng.choice(np.arange(1, full), 600, replace=False)])
        elif which.startswith("sparse"):
            # 6 terms on 9 qubits, 12 on 10: several smaller sides share one padded shape
            terms = int(which[len("sparse") :])
            state = self.sparse_state(rng, 9 if terms == 6 else 10, terms)
            masks = np.arange(1 << state.num_qubits)
        else:
            state = random_isometry_state(rng, 5)
            masks = np.arange(1 << 6 if which == "dense6" else 0)
        batched = cut_entropies(state, masks)
        single = np.array([cut_entropies(state, [mask])[0] for mask in masks.tolist()])
        assert np.array_equal(batched, single)
        assert np.array_equal(np.signbit(batched), np.signbit(single))

    def test_keeping_nothing_is_the_cut_of_keeping_everything(self):
        state = distributed_state()
        dense = von_neumann_entropy(partial_trace(state, state.layout.labels))
        for s in cut_entropies(state, [0, 0b11111]).tolist():
            assert s == dense == 0.0 and np.signbit(s) == np.signbit(dense)

    def test_rejects_masks_outside_the_layout(self):
        with pytest.raises(QStateError, match="keep masks"):
            cut_entropies(bell_state(), [4])
        with pytest.raises(QStateError, match="keep masks"):
            cut_entropies(bell_state(), [-1])


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_entropy_inequalities_on_random_isometries(seed, m):
    rng = np.random.default_rng(seed)
    state = random_isometry_state(rng, m)
    particles = state.layout.labels[1:]
    side = rng.integers(0, 3, size=m)  # 0: in A, 1: in B, 2: neither
    side[0], side[1] = 0, 1
    a = tuple(p for p, k in zip(particles, side) if k == 0)
    b = tuple(p for p, k in zip(particles, side) if k == 1)
    rest = tuple(p for p in particles if p not in a)
    s_a, s_b = register_entropy(state, a), register_entropy(state, b)
    s_ab = register_entropy(state, a + b)
    # purity: A and its complement R + (particles outside A) share one spectrum
    assert abs(s_a - register_entropy(state, ("R",) + rest)) <= 1e-9
    assert s_ab <= s_a + s_b + 1e-9  # subadditivity
    assert abs(s_a - s_b) <= s_ab + 1e-9  # Araki-Lieb


# ---------------------------------------------------------------------------
# every cut of block, star, threshold34 and five-qubit states against exact GF(2) entropies


def assert_every_cut_is_exact(state, exact):
    masks = np.arange(1 << state.num_qubits)
    want = np.array([exact(mask) for mask in masks.tolist()], dtype=np.float64)
    np.testing.assert_allclose(cut_entropies(state, masks), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m, block", [
    (13, (1,)), (13, (1, 2)), (13, (3, 7, 11)),  # 2^14 cuts each
    (4, (3, 4)),  # threshold34
    (5, (1,)),  # star(n=5, center=1)
])
def test_block_cuts_match_gf2_ranks(m, block):
    generators = block_generators(m, block)
    state = distribute_purified(build_block_scheme(m, block)[0])
    assert_every_cut_is_exact(state, lambda mask: subspace_entropy(generators, mask))


@given(st.integers(3, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, (1 << m) - 2))))
@settings(max_examples=30, deadline=None)
def test_random_block_cuts_match_gf2_ranks(case):
    m, bits = case
    block = PlayerSubset(bits, m).players()
    generators = block_generators(m, block)
    state = distribute_purified(build_block_scheme(m, block)[0])
    assert_every_cut_is_exact(state, lambda mask: subspace_entropy(generators, mask))


def test_five_qubit_cuts_match_the_stabilizer_ranks():
    images = five_qubit_images()
    for word in FIVE_QUBIT_GENERATORS:  # the code space holds both logical states
        assert np.allclose(pauli_matrix(word) @ images.T, images.T, rtol=0, atol=1e-15)
    state = distribute_purified(five_qubit_scheme(identity_assignment(5)))
    assert_every_cut_is_exact(
        state, lambda mask: stabilizer_entropy(FIVE_QUBIT_PURIFIED_CHECKS, 6, mask))
