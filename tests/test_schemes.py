import functools
import itertools
import json
import logging
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import schemes
from qsslab.schemes import (
    DEALER,
    PreparedBase,
    SchemeSpec,
    antichain_reduce,
    apply_to_secret,
    block_structure,
    build_block_scheme,
    build_star_scheme,
    build_threshold34,
    distribute_purified,
    identity_assignment,
    induce_structure,
    interchangeable_classes,
    load_scheme,
    particle_labels,
    save_scheme,
    search_assignment,
    SchemeError,
)
from qsslab.structures import (
    AccessStructure,
    PlayerSubset,
    _maximal_unauthorized,
    is_quantum_admissible,
    subset_unions,
)
import reference_schemes
from reference_schemes import grid_matches, grid_search, profile_rows
from reference_structures import permute_particles

SQ2 = 2**-0.5


def masks_of(sets, n):
    return AccessStructure.from_sets(n, sets).masks()


# ---------------------------------------------------------------------------
# constructors


class TestThreshold34:
    def test_images(self, threshold34_scheme):
        images = threshold34_scheme.basis_images
        assert images[0, 0b0000] == pytest.approx(SQ2)
        assert images[0, 0b1111] == pytest.approx(SQ2)
        assert images[1, 0b0011] == pytest.approx(SQ2)
        assert images[1, 0b1100] == pytest.approx(SQ2)
        assert np.count_nonzero(images) == 4

    def test_orthonormal(self, threshold34_scheme):
        gram = threshold34_scheme.basis_images @ threshold34_scheme.basis_images.conj().T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_distributed_state(self, threshold34_scheme):
        state = distribute_purified(threshold34_scheme)
        expected = {"00000": 0.5, "01111": 0.5, "10011": 0.5, "11100": 0.5}
        assert {b: a.real for b, a in state.ket_terms()} == pytest.approx(expected, abs=1e-12)

    def test_identity_assignment(self, threshold34_scheme):
        assert threshold34_scheme.assignment == identity_assignment(4)


class TestBlockScheme:
    def test_five_particle_structure(self):
        _, gamma = build_block_scheme(5, [1, 2])
        assert gamma.masks() == masks_of([[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4, 5], [2, 3, 4, 5]], 5)

    def test_six_particle_structure(self):
        _, gamma = build_block_scheme(6, [1, 2, 3])
        assert gamma.masks() == masks_of(
            [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 4, 5, 6], [2, 4, 5, 6], [3, 4, 5, 6]], 6
        )

    def test_absorbed_superset(self):
        # the co-block family member {1} + {2,3} = full set dissolves by monotonicity
        _, gamma = build_block_scheme(3, [1])
        assert gamma.masks() == masks_of([[1, 2], [1, 3]], 3)

    def test_block_and_complement_give_same_scheme(self):
        s1, g1 = build_block_scheme(5, [1, 2])
        s2, g2 = build_block_scheme(5, [3, 4, 5])
        assert np.array_equal(s1.basis_images, s2.basis_images)
        assert g1.masks() == g2.masks()

    def test_all_instances_admissible(self):
        for n in range(3, 8):
            for size in range(1, n):
                _, gamma = build_block_scheme(n, list(range(1, size + 1)))
                assert is_quantum_admissible(gamma), (n, size)

    def test_rejects_degenerate_block(self):
        with pytest.raises(SchemeError, match="proper subset"):
            build_block_scheme(4, [1, 2, 3, 4])
        with pytest.raises(SchemeError):
            build_block_scheme(14, [1])


class TestStarScheme:
    def test_four_players(self):
        _, gamma = build_star_scheme(4, 1)
        assert gamma.masks() == masks_of([[1, 2], [1, 3], [1, 4]], 4)

    def test_five_players(self):
        _, gamma = build_star_scheme(5, 1)
        assert gamma.masks() == masks_of([[1, 2], [1, 3], [1, 4], [1, 5]], 5)

    def test_off_center(self):
        _, gamma = build_star_scheme(3, 2)
        assert gamma.masks() == masks_of([[1, 2], [2, 3]], 3)


class TestSchemeSpec:
    def test_rejects_non_isometry(self):
        images = np.zeros((2, 4), dtype=np.complex128)
        images[0, 0] = images[1, 0] = 1.0
        with pytest.raises(SchemeError, match="isometry"):
            SchemeSpec(2, images, identity_assignment(2))

    def test_rejects_double_assignment(self):
        scheme = build_threshold34()
        with pytest.raises(SchemeError, match="assigned to both"):
            SchemeSpec(
                4, scheme.basis_images, {"P1": (1, 2), "P2": (2,), "P3": (3,), "P4": (4,)}
            )

    def test_rejects_unassigned_particle(self):
        scheme = build_threshold34()
        with pytest.raises(SchemeError, match="unassigned"):
            SchemeSpec(4, scheme.basis_images, {"P1": (1,), "P2": (2,), "P3": (3,)})

    def test_dealer_particles_tracked(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        redist = SchemeSpec(
            5,
            scheme.basis_images,
            {"P1": (2,), "P2": (3,), "P3": (4,), "P4": (5,), DEALER: (1,)},
        )
        assert redist.num_players == 4
        assert redist.particles_of(0b1111) == (2, 3, 4, 5)


# ---------------------------------------------------------------------------
# induced structures


class TestInduceStructure:
    def test_dealer_keeps_first_particle(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        redist = SchemeSpec(
            5,
            scheme.basis_images,
            {"P1": (2,), "P2": (3,), "P3": (4,), "P4": (5,), DEALER: (1,)},
        )
        induced = induce_structure(redist, gamma)
        assert induced.masks() == masks_of([[1, 2, 3, 4]], 4)

    def test_corrected_block_split(self):
        scheme, gamma = build_block_scheme(6, [1, 2, 3])
        redist = SchemeSpec(
            6, scheme.basis_images, {"P1": (1, 4), "P2": (2,), "P3": (3,), "P4": (5, 6)}
        )
        induced = induce_structure(redist, gamma)
        assert induced.masks() == masks_of([[1, 2, 3], [1, 4]], 4)

    def test_identity_assignment_is_identity(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        assert induce_structure(scheme, gamma).masks() == gamma.masks()

    def test_empty_induced_structure(self):
        scheme, gamma = build_block_scheme(3, [1])
        redist = SchemeSpec(3, scheme.basis_images, {"P1": (2,), "P2": (3,), DEALER: (1,)})
        assert induce_structure(redist, gamma).masks() == ()

    def test_monotone_under_extra_particles(self):
        scheme, gamma = build_block_scheme(5, [1, 2])
        lean = SchemeSpec(
            5, scheme.basis_images, {"P1": (2,), "P2": (3,), "P3": (4,), "P4": (5,), DEALER: (1,)}
        )
        rich = SchemeSpec(
            5, scheme.basis_images, {"P1": (1, 2), "P2": (3,), "P3": (4,), "P4": (5,)}
        )
        before = induce_structure(lean, gamma)
        after = induce_structure(rich, gamma)
        for bits in range(1, 1 << 4):
            s = PlayerSubset(bits, 4)
            if before.masks() and before.authorized[s.bits]:
                assert after.authorized[s.bits]

    def test_particle_count_mismatch(self):
        scheme, _ = build_block_scheme(5, [1, 2])
        with pytest.raises(SchemeError, match="particles"):
            induce_structure(scheme, AccessStructure.from_sets(4, [[1, 2]]))


class TestPermutationTransfer:
    def test_permuted_images_realize_permuted_structure(self):
        from qsslab.verifier import verify

        rng = np.random.default_rng(19)
        for n, block in ((4, [1, 2]), (5, [1, 2])):
            scheme, gamma = build_block_scheme(n, block)
            perm = tuple(int(x) for x in rng.permutation(n) + 1)
            # rename the particles inside the images but keep Pi holding pi
            relabeled = permute_particles(scheme, perm)
            permuted_scheme = SchemeSpec(n, relabeled.basis_images, identity_assignment(n))
            permuted_gamma = AccessStructure.from_sets(
                n, [[perm[p - 1] for p in s.players()] for s in gamma.minimal_sets]
            )
            report = verify(permuted_scheme, permuted_gamma)
            assert report.verdict == "generalized", (n, block, perm)

    def test_consistent_renaming_keeps_the_structure(self):
        # renaming particles in images and assignment together changes nothing
        from qsslab.verifier import verify

        scheme, gamma = build_block_scheme(5, [1, 2])
        renamed = permute_particles(scheme, (3, 5, 1, 2, 4))
        assert verify(renamed, gamma).verdict == "generalized"


# ---------------------------------------------------------------------------
# assignment search


class TestSearchAssignment:
    def test_finds_block_split(self):
        base = PreparedBase(*build_block_scheme(6, [1, 2, 3]))
        target = AccessStructure.from_sets(4, [[1, 2, 3], [1, 4]])
        assignment = search_assignment(base, target, allow_dealer=True)
        assert assignment is not None
        scheme = SchemeSpec(6, base.scheme.basis_images, assignment)
        assert induce_structure(scheme, base.structure).masks() == target.masks()
        from qsslab.verifier import verify

        assert verify(scheme, target).verdict == "generalized"

    def test_threshold_cannot_induce_star(self, threshold34_scheme, threshold34_gamma):
        target = AccessStructure.from_sets(4, [[1, 2], [1, 3], [1, 4]])
        assignment = search_assignment(
            PreparedBase(threshold34_scheme, threshold34_gamma), target, allow_dealer=True
        )
        assert assignment is None

    def test_deterministic_first_result(self):
        base = PreparedBase(*build_block_scheme(5, [1, 2]))
        target = AccessStructure.from_sets(4, [[1, 2, 3, 4]])
        first = search_assignment(base, target, allow_dealer=True)
        second = search_assignment(base, target, allow_dealer=True)
        assert first == second is not None

    def test_without_dealer(self):
        # splitting the six-particle base over four players needs no dealer
        base = PreparedBase(*build_block_scheme(6, [1, 2, 3]))
        target = AccessStructure.from_sets(4, [[1, 2, 3], [1, 4]])
        assignment = search_assignment(base, target, allow_dealer=False)
        assert assignment is not None
        assert DEALER not in assignment
        # but the all-particles structure over two players is out of reach
        pair_target = AccessStructure.from_sets(2, [[1, 2]])
        base5 = PreparedBase(*build_block_scheme(5, [1, 2]))
        with_dealer = search_assignment(base5, pair_target, allow_dealer=True)
        without = search_assignment(base5, pair_target, allow_dealer=False)
        assert with_dealer is not None
        assert without is not None  # every particle can still go to a player

    def test_bounds(self):
        base = PreparedBase(*build_block_scheme(5, [1, 2]))
        target = AccessStructure.from_sets(6, [[1, 2, 3, 4, 5, 6]])
        with pytest.raises(SchemeError, match="search"):
            search_assignment(base, target, allow_dealer=False)

    def test_logs_one_debug_event(self, caplog):
        base = PreparedBase(*build_block_scheme(6, [1, 2, 3]))
        target = AccessStructure.from_sets(4, [[1, 2, 3], [1, 4]])
        with caplog.at_level(logging.DEBUG, logger="qsslab.search"):
            search_assignment(base, target, allow_dealer=True)
        (record,) = [r for r in caplog.records if r.name == "qsslab.search"]
        message = record.getMessage()
        # two classes of three particles over five holders: C(7, 3)^2 profiles
        assert "classes ((1, 2, 3), (4, 5, 6))" in message
        assert "1225 profile rows" in message
        assert message.endswith(", hit")


class TestInterchangeableClasses:
    @pytest.mark.parametrize("m", range(3, 8))
    def test_block_and_co_block(self, m):
        for block in ([1], [2, m], list(range(1, m // 2 + 1))):
            scheme, gamma = build_block_scheme(m, block)
            co_block = [p for p in range(1, m + 1) if p not in block]
            assert set(interchangeable_classes(scheme, gamma)) == {tuple(block), tuple(co_block)}

    def test_dense_isometry_has_singletons(self):
        scheme = _dense_scheme(5, seed=3)
        gamma = AccessStructure.from_sets(5, [[1, 2, 3, 4, 5]])
        assert interchangeable_classes(scheme, gamma) == ((1,), (2,), (3,), (4,), (5,))

    def test_structure_breaks_image_symmetry(self):
        # images symmetric in the block, but the base masks single out particle 1
        scheme, _ = build_block_scheme(4, [1, 2])
        gamma = AccessStructure.from_sets(4, [[1, 3], [1, 4]])
        assert interchangeable_classes(scheme, gamma) == ((1,), (2,), (3, 4))


def _dense_scheme(m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(1 << m, 2)) + 1j * rng.normal(size=(1 << m, 2))
    q, _ = np.linalg.qr(raw)
    return SchemeSpec(m, q.T, identity_assignment(m))


def _rotated_block(m, block, seed):
    """A block scheme under random one-particle unitaries: dense images, the same entropies."""
    scheme, gamma = build_block_scheme(m, block)
    rng = np.random.default_rng(seed)
    images = scheme.basis_images.reshape((2,) + (2,) * m)
    for axis in range(1, m + 1):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        images = np.moveaxis(np.tensordot(u, images, axes=([1], [axis])), 0, axis)
    return SchemeSpec(m, images.reshape(2, -1), scheme.assignment), gamma


def _grid_oracle(base, target, allow_dealer):
    """First holder^particles assignment, in lexicographic particle order, that realizes the target."""
    from qsslab.verifier import StructuralMismatchError, verify

    scheme, gamma = base
    m = scheme.num_particles
    holders = [f"P{i}" for i in range(1, target.n + 1)] + ([DEALER] if allow_dealer else [])
    for row in itertools.product(range(len(holders)), repeat=m):
        assignment = {
            h: tuple(p + 1 for p in range(m) if row[p] == j) for j, h in enumerate(holders)
        }
        candidate = SchemeSpec(m, scheme.basis_images, assignment)
        if induce_structure(candidate, gamma).masks() != target.masks():
            continue
        try:
            if verify(candidate, target).verdict != "fail":
                return assignment
        except StructuralMismatchError:
            continue
    return None


_ORACLE_TARGETS = [
    AccessStructure.from_sets(max(max(s) for s in sets), sets)
    for sets in (
        [[1, 2]],
        [[1, 2], [1, 3]],
        [[1, 2, 3]],
        [[1, 2], [1, 3], [2, 3]],
        [[1, 2, 3], [1, 4]],
        [[1, 2], [1, 3], [1, 4]],
        [[1, 2, 3, 4]],
    )
]


class TestSearchMatchesGridOracle:
    """The profile search returns the grid scan's first hit."""

    @pytest.mark.parametrize("allow_dealer", [False, True])
    @pytest.mark.parametrize("m, block", [(3, [1]), (4, [1]), (4, [1, 2]), (5, [1]), (5, [1, 2])])
    def test_block_bases(self, m, block, allow_dealer):
        base = build_block_scheme(m, block)
        prepared = PreparedBase(*base)
        for target in _ORACLE_TARGETS:
            if target.n > m:
                continue
            expected = _grid_oracle(base, target, allow_dealer)
            assert search_assignment(prepared, target, allow_dealer) == expected, str(target)

    @pytest.mark.parametrize("allow_dealer", [False, True])
    def test_relabeled_block_through_json(self, allow_dealer):
        scheme, gamma = build_block_scheme(5, [1, 2])
        perm = (4, 1, 5, 3, 2)
        relabeled = permute_particles(scheme, perm)
        loaded = load_scheme(json.loads(json.dumps(save_scheme(relabeled))))
        loaded_gamma = AccessStructure.from_sets(
            5, [[perm[p - 1] for p in s.players()] for s in gamma.minimal_sets]
        )
        base = (loaded, loaded_gamma)
        prepared = PreparedBase(*base)
        assert set(prepared.classes) == {(1, 4), (2, 3, 5)}
        for target in _ORACLE_TARGETS:
            expected = _grid_oracle(base, target, allow_dealer)
            assert search_assignment(prepared, target, allow_dealer) == expected, str(target)

    @pytest.mark.parametrize("allow_dealer", [False, True])
    def test_dense_rotated_block(self, allow_dealer):
        # one-particle unitaries keep every entropy but break every transposition
        base = _rotated_block(5, [1, 2], seed=7)
        assert interchangeable_classes(*base) == ((1,), (2,), (3,), (4,), (5,))
        assert np.count_nonzero(base[0].basis_images) == 2 * 32
        prepared = PreparedBase(*base)
        hits = 0
        for target in _ORACLE_TARGETS:
            expected = _grid_oracle(base, target, allow_dealer)
            assert search_assignment(prepared, target, allow_dealer) == expected, str(target)
            hits += expected is not None
        assert hits  # the comparison covers hits, not only exhausted searches


def _hyperstar(rng, n):
    """A seeded antichain whose sets share a player and together cover all n players."""
    edges = [e for e in range(1, 1 << n) if e & 1]
    perm = rng.sample(range(n), n)
    while True:
        chosen = antichain_reduce(n, rng.sample(edges, rng.randint(1, 4))).masks()
        if functools.reduce(operator.or_, chosen) == (1 << n) - 1:
            relabeled = [sum(1 << perm[p] for p in range(n) if e >> p & 1) for e in chosen]
            return AccessStructure.from_masks(n, sorted(relabeled))


class TestSearchMatchesGridSearch:
    """The product scan gives the materialized grid's matches, so the same first hit."""

    @pytest.mark.parametrize("allow_dealer", [False, True])
    @pytest.mark.parametrize(
        "m, block", [(6, [1]), (6, [2, 5]), (6, [1, 3, 4]), (7, [3]), (7, [1, 6]), (7, [2, 4, 7])]
    )
    def test_block_bases(self, m, block, allow_dealer):
        prepared = PreparedBase(*build_block_scheme(m, block))
        rng = random.Random(f"{m}:{block}")
        for n in (5, 6):
            for _ in range(3):
                target = _hyperstar(rng, n)
                expected = grid_search(prepared, target, allow_dealer)
                assert search_assignment(prepared, target, allow_dealer) == expected, str(target)

    def test_seven_holder_grids(self):
        # 6 players and the dealer: hyperstar targets, mostly out of reach, and
        # the targets that seeded random assignments induce
        rng = random.Random(5)
        hits = 0
        for m, block in ((7, [1, 2, 3]), (6, [1, 2])):
            prepared = PreparedBase(*build_block_scheme(m, block))
            targets = [_hyperstar(rng, 6) for _ in range(4)]
            for _ in range(4):
                holder = [rng.randrange(7) for _ in range(m)]
                players = [sum(1 << p for p in range(m) if holder[p] == j) for j in range(6)]
                induced = prepared.structure.authorized[subset_unions(players)]
                targets.append(antichain_reduce(6, np.flatnonzero(induced).tolist()))
            for target in targets:
                expected = grid_search(prepared, target, True)
                assert search_assignment(prepared, target, True) == expected, str(target)
                hits += expected is not None
        assert hits

    @pytest.mark.parametrize("allow_dealer", [False, True])
    def test_rotated_block(self, allow_dealer):
        # singleton classes: the grid is the whole holder^particles grid
        base = _rotated_block(6, [1, 2], seed=11)
        prepared = PreparedBase(*base)
        assert prepared.classes == tuple((p,) for p in range(1, 7))
        rng = random.Random(11)
        hits = 0
        for n in (4, 5):
            for _ in range(3):
                target = _hyperstar(rng, n)
                expected = grid_search(prepared, target, allow_dealer)
                assert search_assignment(prepared, target, allow_dealer) == expected, str(target)
                hits += expected is not None
        assert hits


@st.composite
def scan_cases(draw):
    """Classes over m particles, a holder count, a base structure and a target.

    The classes are one class, all singletons or a mixed partition of the
    particles; the holder count is at most the largest that keeps the full
    grid under 8000 rows.  The target, over 2 to holders players, is empty,
    a random antichain or the structure some grid row induces, so that the
    comparison covers matching rows too.
    """
    m = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["one", "singletons", "mixed"]))
    particles = draw(st.permutations(range(1, m + 1)))
    if kind == "one":
        cuts = []
    elif kind == "singletons":
        cuts = list(range(1, m))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, m - 1))))
    bounds = [0] + cuts + [m]
    classes = sorted(tuple(sorted(particles[a:b])) for a, b in zip(bounds, bounds[1:]))
    sizes = [
        math.prod(math.comb(h + len(cls) - 1, len(cls)) for cls in classes) for h in range(2, 8)
    ]
    num_holders = draw(st.integers(2, 1 + sum(size <= 8000 for size in sizes)))
    n = draw(st.integers(2, num_holders))
    base = antichain_reduce(m, draw(st.lists(st.integers(1, (1 << m) - 1), max_size=5)))
    kind = draw(st.sampled_from(["empty", "random", "induced"]))
    if kind == "empty":
        target = AccessStructure(n, ())
    elif kind == "random":
        target = antichain_reduce(n, draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4)))
    else:
        masks, _ = profile_rows(classes, m, num_holders)
        row = masks[draw(st.integers(0, len(masks) - 1))]
        union = subset_unions(int(h) for h in row[:n])
        target = antichain_reduce(n, np.flatnonzero(base.authorized[union]).tolist())
    return classes, m, num_holders, base, target


def _scan(classes, m, num_holders, base, target):
    choices = tuple(schemes._class_choices(cls, m, num_holders) for cls in classes)
    masks, index = schemes._induced_matches(choices, base.authorized, target)
    return masks.tolist(), index.tolist()


@given(scan_cases())
@settings(max_examples=300, deadline=None)
def test_frontier_filter_matches_subset_filter(case):
    classes, m, num_holders, base, target = case
    masks, index = grid_matches(classes, m, num_holders, base.authorized, target)
    assert _scan(*case) == (masks.tolist(), index.tolist())


def _frontier_survivors(classes, m, num_holders, base, target):
    """Profiles of the full grid that agree with the target on the first k frontier sets, per k."""
    masks, _ = profile_rows(classes, m, num_holders)
    frontier = target.masks() + tuple(_maximal_unauthorized(target).tolist())
    union = subset_unions(masks[:, j] for j in range(target.n))
    ok = np.ones(len(masks), dtype=bool)
    counts = []
    for bits in frontier:
        ok &= base.authorized[union[bits]] == target.authorized[bits]
        counts.append(int(ok.sum()))
    return len(masks), counts


@pytest.mark.parametrize(
    "classes, m, num_holders, base, target, emptied",
    [
        # no dealer, so every profile gives the players all particles and the full
        # player set is authorized; any nonempty holding is authorized too, so each
        # maximal unauthorized set keeps only the profile that leaves it empty
        (
            ((1, 2, 3),), 3, 2,
            AccessStructure.from_sets(3, [[1], [2], [3]]), AccessStructure.from_sets(2, [[1, 2]]),
            True,
        ),
        (
            ((1, 2, 3, 4),), 4, 3, AccessStructure.from_sets(4, [[1], [2], [3], [4]]),
            AccessStructure.from_sets(3, [[1, 2, 3]]), True,
        ),
        # hits: the threshold34 base realizes itself; star4 on one-particle blocks with
        # the dealer, where the base has no full set
        (
            ((1, 2), (3, 4)), 4, 4, block_structure(4, [3, 4]), block_structure(4, [3, 4]),
            False,
        ),
        (
            ((1,), (2, 3, 4, 5)), 5, 5, block_structure(5, [1]),
            AccessStructure.from_sets(4, [[1, 2], [1, 3], [1, 4]]), False,
        ),
        (
            ((1,), (2, 3, 4, 5, 6, 7)), 7, 5, block_structure(7, [1]),
            AccessStructure.from_sets(4, [[1, 2], [1, 3], [1, 4]]), False,
        ),
    ],
)
def test_frontier_filter_edges(classes, m, num_holders, base, target, emptied):
    total, counts = _frontier_survivors(classes, m, num_holders, base, target)
    if emptied:
        # the first frontier set keeps every profile and a later one removes the rest
        assert counts[0] == total and counts[-1] == 0
    else:
        assert counts[-1] > 0 and len(counts) > 1
    masks, index = grid_matches(classes, m, num_holders, base.authorized, target)
    assert _scan(classes, m, num_holders, base, target) == (masks.tolist(), index.tolist())
    assert len(index) == counts[-1]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_frontier_filter_on_the_empty_target(n):
    # no minimal sets: the only maximal unauthorized set is the full set, which
    # stays unauthorized when the dealer holds particle 3 and at least one of 1, 2
    target = AccessStructure(n, ())
    base = AccessStructure.from_sets(4, [[1, 2], [3]])
    classes = ((1, 2), (3,), (4,))
    masks, index = grid_matches(classes, 4, n + 1, base.authorized, target)
    assert _scan(classes, 4, n + 1, base, target) == (masks.tolist(), index.tolist())
    assert 0 < len(index) < len(profile_rows(classes, 4, n + 1)[1])


# ---------------------------------------------------------------------------
# serialization


class TestSchemeJson:
    def test_round_trip(self, threshold34_scheme):
        doc = save_scheme(threshold34_scheme)
        assert doc["secret_dim"] == 2
        loaded = load_scheme(doc)
        assert loaded == threshold34_scheme

    def test_round_trip_through_text(self, threshold34_scheme):
        text = json.dumps(save_scheme(threshold34_scheme))
        assert load_scheme(json.loads(text)) == threshold34_scheme
        with pytest.raises(SchemeError, match="must be a JSON object"):
            load_scheme(text)

    def test_scaled_images_warn_and_normalize(self, threshold34_scheme):
        doc = save_scheme(threshold34_scheme)
        for entry in doc["basis_images"]["0"]:
            entry["re"] *= 2.0
        with pytest.warns(UserWarning, match="normalized"):
            loaded = load_scheme(doc)
        np.testing.assert_allclose(
            loaded.basis_images, threshold34_scheme.basis_images, atol=1e-12
        )

    def test_rejects_parallel_images(self, threshold34_scheme):
        doc = save_scheme(threshold34_scheme)
        doc["basis_images"]["1"] = doc["basis_images"]["0"]
        with pytest.raises(SchemeError, match="isometry"):
            load_scheme(doc)

    def test_rejects_overlapping_assignment(self, threshold34_scheme):
        doc = save_scheme(threshold34_scheme)
        doc["assignment"]["P1"] = [1, 2]
        with pytest.raises(SchemeError, match="assigned to both"):
            load_scheme(doc)

    def test_rejects_bad_ket(self, threshold34_scheme):
        doc = save_scheme(threshold34_scheme)
        doc["basis_images"]["0"][0]["ket"] = "00"
        with pytest.raises(SchemeError, match="ket"):
            load_scheme(doc)


# ---------------------------------------------------------------------------
# helpers


class TestHelpers:
    def test_particle_labels(self):
        assert particle_labels(3) == ("p1", "p2", "p3")

    def test_antichain_reduce(self):
        reduced = antichain_reduce(3, [0b011, 0b111, 0b101])
        assert reduced.masks() == (0b011, 0b101)

    def test_apply_to_secret_normalization(self, threshold34_scheme):
        with pytest.raises(SchemeError, match="normalized"):
            apply_to_secret(threshold34_scheme, 1.0, 1.0)
        with pytest.raises(SchemeError, match="normalized"):
            apply_to_secret(threshold34_scheme, float("nan"), 0.0)

    def test_block_structure_matches_builder(self):
        for n, block in ((5, [1, 2]), (6, [1, 2, 3]), (4, [2])):
            _, gamma = build_block_scheme(n, block)
            assert reference_schemes.block_structure(n, block).masks() == gamma.masks()


@pytest.mark.parametrize("n", range(2, 10))
def test_block_structure_matches_reference_on_every_block(n):
    # every bitmask: the builders' nonempty proper blocks, and the empty and full ones
    # that block_structure also accepts; n = 2 leaves the full set alone
    for bits in range(1 << n):
        block = PlayerSubset(bits, n)
        expect = reference_schemes.block_structure(n, block).masks()
        assert block_structure(n, block).masks() == expect, block
    assert block_structure(2, [1]).masks() == (0b11,)


@pytest.mark.parametrize("n", range(10, 14))
def test_block_structure_matches_reference_on_random_blocks(n):
    rng = random.Random(n)
    blocks = [[1], [n], list(range(2, n + 1)), list(range(1, n))]  # one-particle block, co-block
    blocks += [sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))) for _ in range(20)]
    for block in blocks:
        expect = reference_schemes.block_structure(n, block).masks()
        assert block_structure(n, block).masks() == expect, block
