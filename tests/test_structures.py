import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsslab import structures
from qsslab.structures import (
    CLASS_NAMES,
    HYPERSTAR_CATALOG,
    AccessStructure,
    PlayerSubset,
    StructureError,
    antichain_reduce,
    canonical_key,
    catalog_number,
    enumerate_hyperstars,
    is_quantum_admissible,
    load_structure,
    perfect_feasibility,
    structure_to_dict,
    subset_unions,
    threshold_structure,
)
from reference_structures import (
    brute_canonical,
    brute_classes,
    closure_by_definition,
    complement_law_by_definition,
    complement_law_holds,
    first_nested_pair_by_loop,
    load_structure_reference,
    maximal_unauthorized_by_definition,
    minimal_by_definition,
    table_bits,
)


def gamma(n, sets):
    return AccessStructure.from_sets(n, sets)


def subset(players, n):
    return PlayerSubset.from_players(players, n)



# ---------------------------------------------------------------------------
# subsets


class TestPlayerSubset:
    def test_round_trip(self):
        s = subset([1, 3], 4)
        assert s.players() == (1, 3)
        assert s.bits == 0b101

    def test_complement(self):
        assert subset([1, 2], 4).complement().players() == (3, 4)

    def test_out_of_range_player(self):
        with pytest.raises(StructureError):
            subset([5], 4)

    def test_out_of_range_bitmask(self):
        with pytest.raises(StructureError, match=r"^bitmask 0x8 out of range for n=3$"):
            PlayerSubset(8, 3)

    def test_coerce(self):
        s = subset([1, 3], 4)
        assert PlayerSubset.coerce(s, 4) is s
        assert PlayerSubset.coerce([3, 1], 4) == s
        with pytest.raises(StructureError, match="over 4 players, expected 5"):
            PlayerSubset.coerce(s, 5)


class TestAccessStructure:
    def test_rejects_nested_sets(self):
        with pytest.raises(StructureError, match="antichain"):
            gamma(4, [[1, 2], [1, 2, 3]])

    def test_rejects_equal_sets(self):
        with pytest.raises(StructureError, match=r"\[1, 2\] and \[1, 2\] are nested or equal"):
            gamma(3, [[1, 2], [2, 3], [1, 2]])

    def test_rejects_empty_member(self):
        with pytest.raises(StructureError, match="nonempty"):
            AccessStructure(3, (PlayerSubset(0, 3),))

    def test_names_nested_pair_in_a_large_family(self):
        sets = [list(c) for c in itertools.combinations(range(1, 13), 7)]
        with pytest.raises(
            StructureError,
            match=r"^not an antichain: \[1, 2, 3, 4, 5, 6, 8\] and \[1, 2, 3, 4, 5, 6, 8, 9\] ",
        ):
            gamma(12, sets + [[1, 2, 3, 4, 5, 6, 8, 9]])

    def test_rejects_member_over_another_player_count(self):
        with pytest.raises(StructureError, match=r"^set \{P1,P2\} has player count 4, expected 3$"):
            AccessStructure(3, (subset([1, 2], 4),))

    def test_minimal_sets_sorted_by_mask(self):
        g = gamma(4, [[1, 4], [1, 2, 3]])
        assert [s.players() for s in g.minimal_sets] == [(1, 2, 3), (1, 4)]


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.lists(st.integers(1, (1 << n) - 1), max_size=12).map(lambda ms: (n, ms))
    ),
)
@example((3, [0b011, 0b110, 0b111, 0b001]))
@example((2, []))
@settings(max_examples=200, deadline=None)
def test_antichain_check_names_first_pair_in_combinations_order(family):
    n, masks = family
    expected = first_nested_pair_by_loop(masks)
    assert structures._first_nested_pair(masks) == expected
    if expected is None:
        assert AccessStructure.from_masks(n, masks).masks() == tuple(sorted(masks))
    else:
        a, b = (PlayerSubset(masks[i], n).players() for i in expected)
        message = f"not an antichain: {list(a)} and {list(b)} are nested or equal"
        with pytest.raises(StructureError) as info:
            AccessStructure.from_masks(n, masks)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# closure and admissibility


class TestClosure:
    def test_superset_of_minimal(self):
        g = gamma(3, [[1, 2]])
        assert g.authorized[subset([1, 2, 3], 3).bits]

    def test_pair_outside_closure(self):
        g = gamma(4, [[1, 2, 3], [1, 4]])  # catalog No.5
        assert not g.authorized[subset([1, 2], 4).bits]

    def test_threshold_triple(self):
        g = threshold_structure(3, 4)
        assert g.authorized[subset([2, 3, 4], 4).bits]


class TestAdmissibility:
    def test_disjoint_pair_rejected(self):
        assert not is_quantum_admissible(gamma(4, [[1, 2], [3, 4]]))

    def test_star_admissible(self):
        assert is_quantum_admissible(gamma(4, [[1, 2], [1, 3], [1, 4]]))

    def test_threshold34_admissible(self):
        # any two 3-subsets of a 4-set overlap in at least two players
        assert is_quantum_admissible(threshold_structure(3, 4))


# ---------------------------------------------------------------------------
# adversary partition


def adversary_masks(g):
    """g's A1 and A2 bitmasks as two ascending lists, as structure check reads them."""
    a1, a2 = structures._adversary_masks(g)
    return a1.tolist(), a2.tolist()


class TestAdversaryPartition:
    def test_threshold34_sizes(self):
        a1, a2 = adversary_masks(threshold_structure(3, 4))
        assert len(a1) == 4 and len(a2) == 6
        assert (a1, a2) == brute_classes(threshold_structure(3, 4))[1:]

    def test_two_star_on_three(self):
        a1, a2 = adversary_masks(gamma(3, [[1, 2], [1, 3]]))
        assert [PlayerSubset(b, 3).players() for b in a2] == [(1,), (2, 3)]
        assert [PlayerSubset(b, 3).players() for b in a1] == [(2,), (3,)]

    def test_threshold23_a2_empty(self):
        assert adversary_masks(threshold_structure(2, 3))[1] == []

    def test_rejects_inadmissible(self):
        with pytest.raises(StructureError, match="admissible"):
            structures._adversary_masks(gamma(4, [[1, 2], [3, 4]]))


# ---------------------------------------------------------------------------
# complement law (on the partition by definition) and perfect feasibility


class TestComplementLaw:
    def test_threshold34(self):
        assert complement_law_by_definition(threshold_structure(3, 4))

    def test_two_star_on_three(self):
        # {1} and {2,3} are mutual complements inside A2
        g = gamma(3, [[1, 2], [1, 3]])
        assert brute_classes(g)[2] == [0b001, 0b110]
        assert complement_law_by_definition(g)


@pytest.mark.parametrize(
    "g", [threshold_structure(3, 4), threshold_structure(2, 3), gamma(5, [[1, 2, 3], [1, 4, 5]])], ids=str
)
def test_complement_law_reference_fails_each_clause(g):
    # structure_check_reference prints the law from this helper, so each clause must be able to fail
    authorized, a1, a2 = brute_classes(g)
    full = (1 << g.n) - 1
    assert complement_law_holds(g.n, authorized, a1, a2)
    # an A1 set whose complement is moved out of the authorized sets fails the A1 clause
    for bits in a1[-2:]:
        moved = [m for m in authorized if m != full ^ bits]
        assert not complement_law_holds(g.n, moved, a1 + [full ^ bits], a2)
    # an A2 set whose complement is moved into the authorized sets fails the A2 clause
    for bits in a2[-2:]:
        moved = [m for m in a2 if m != full ^ bits]
        assert not complement_law_holds(g.n, authorized + [full ^ bits], a1, moved)


class TestPerfectFeasibility:
    def test_threshold34_infeasible_with_pair_witness(self):
        witness = perfect_feasibility(threshold_structure(3, 4))
        assert witness is not None
        assert len(witness) == 2

    def test_threshold23_feasible(self):
        assert perfect_feasibility(threshold_structure(2, 3)) is None

    def test_catalog_all_infeasible(self):
        for number, g in enumerate(HYPERSTAR_CATALOG, 1):
            assert perfect_feasibility(g) is not None, number

    def test_matches_a2_emptiness(self):
        for g in HYPERSTAR_CATALOG:
            a2 = adversary_masks(g)[1]
            assert (perfect_feasibility(g) is None) == (not a2)


class TestThresholdStructure:
    def test_counts(self):
        assert len(threshold_structure(3, 4).minimal_sets) == 4
        assert len(threshold_structure(2, 3).minimal_sets) == 3

    def test_rejects_disjoint_capacity(self):
        with pytest.raises(StructureError, match="admissible"):
            threshold_structure(3, 6)

    def test_disjoint_capacity_message(self):
        with pytest.raises(StructureError) as info:
            threshold_structure(3, 6)
        assert str(info.value) == "((3,6)) is not quantum-admissible: two disjoint 3-subsets exist"

    def test_rejects_bad_k(self):
        with pytest.raises(StructureError):
            threshold_structure(0, 3)
        with pytest.raises(StructureError):
            threshold_structure(4, 3)

    def test_threshold_law(self):
        # k = 1 would need a single player, below the subset domain floor
        for k in range(2, 6):
            assert perfect_feasibility(threshold_structure(k, 2 * k - 1)) is None
            for n in range(k, 2 * k - 1):
                assert perfect_feasibility(threshold_structure(k, n)) is not None


# ---------------------------------------------------------------------------
# hypergraphs


class TestHyperstar:
    """A structure is a hyperstar iff its class is one that enumerate_hyperstars lists."""

    @staticmethod
    def enumerated(g):
        return canonical_key(g) in {c.masks() for n, c in enumerate_hyperstars(g.n) if n == g.n}

    def test_star(self):
        assert self.enumerated(gamma(4, [[1, 2], [1, 3], [1, 4]]))

    def test_threshold_not_star(self):
        assert not self.enumerated(threshold_structure(3, 4))

    def test_single_full_edge(self):
        assert self.enumerated(gamma(5, [[1, 2, 3, 4, 5]]))

    def test_needs_edges(self):
        assert not self.enumerated(AccessStructure(3, ()))


# ---------------------------------------------------------------------------
# isomorphism


def apply_permutation(g, perm):
    return AccessStructure.from_sets(
        g.n, [[perm[p - 1] for p in s.players()] for s in g.minimal_sets]
    )


@st.composite
def relabeled_antichains(draw):
    """A random antichain on 6 to 8 players and a random relabeling (image of P1, P2, ...)."""
    n = draw(st.integers(6, 8))
    family = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    perm = draw(st.permutations(list(range(1, n + 1))))
    return antichain_reduce(n, family), tuple(perm)


class TestIsomorphism:
    """Isomorphic structures share a canonical key and others do not."""

    def test_mixed_sizes_found(self):
        g1 = gamma(4, [[1, 2, 3], [1, 4]])
        g2 = gamma(4, [[1, 2], [1, 3, 4]])
        assert canonical_key(g1) == canonical_key(g2)

    def test_relabeling_found(self):
        assert canonical_key(gamma(3, [[1, 2], [1, 3]])) == canonical_key(gamma(3, [[1, 2], [2, 3]]))

    def test_distinct_catalog_classes(self):
        g4 = HYPERSTAR_CATALOG[4 - 1]
        g5 = HYPERSTAR_CATALOG[5 - 1]
        assert canonical_key(g4) != canonical_key(g5)

    def test_empty_structures(self):
        empty = AccessStructure(3, ())
        assert canonical_key(empty) == ()
        assert canonical_key(empty) != canonical_key(gamma(3, [[1, 2]]))

    @given(relabeled_antichains())
    @settings(max_examples=30, deadline=None)
    def test_relabeled_copy_keeps_its_key(self, case):
        g, perm = case
        assert canonical_key(apply_permutation(g, perm)) == canonical_key(g)

    @given(relabeled_antichains(), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_one_mask_changed_is_not_isomorphic(self, case, pick):
        g, perm = case
        masks = list(apply_permutation(g, perm).masks())
        # toggle one player of one mask, keeping an antichain: the mask count
        # stays and the total mask size moves by one, so no relabeling matches
        changes = [
            (i, m ^ (1 << p))
            for i, m in enumerate(masks)
            for p in range(g.n)
            if m ^ (1 << p)
            and all(o & (m ^ (1 << p)) not in (o, m ^ (1 << p)) for o in masks if o != m)
        ]
        assume(changes)
        i, changed = changes[pick % len(changes)]
        masks[i] = changed
        assert canonical_key(AccessStructure.from_masks(g.n, masks)) != canonical_key(g)

    @given(
        st.permutations(list(range(1, 6))),
        st.permutations(list(range(1, 6))),
        st.integers(0, len(HYPERSTAR_CATALOG) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_properties(self, perm5, other5, idx):
        g = HYPERSTAR_CATALOG[idx]
        perm = tuple(perm5[: g.n])
        second = tuple(other5[: g.n])
        if sorted(perm) != list(range(1, g.n + 1)) or sorted(second) != sorted(perm):
            return
        relabeled = apply_permutation(g, perm)
        # the key of a relabeled copy is the key of the original, and both are
        # the by-definition minimum over all relabelings
        assert canonical_key(relabeled) == canonical_key(g) == brute_canonical(relabeled)
        # transitive across a second relabeling
        twice = apply_permutation(relabeled, second)
        assert canonical_key(twice) == canonical_key(relabeled) == canonical_key(g)


# ---------------------------------------------------------------------------
# enumeration


class TestEnumeration:
    def test_two_players(self):
        classes = [g for n, g in enumerate_hyperstars(2)]
        assert len(classes) == 1
        assert classes[0].masks() == gamma(2, [[1, 2]]).masks()

    def test_three_players(self):
        classes = [g for n, g in enumerate_hyperstars(3) if g.n == 3]
        keys = {canonical_key(g) for g in classes}
        assert canonical_key(gamma(3, [[1, 2], [1, 3]])) in keys
        assert canonical_key(gamma(3, [[1, 2, 3]])) in keys
        assert len(classes) == 2

    def test_four_players_contains_catalog(self):
        classes = [g for n, g in enumerate_hyperstars(4) if g.n == 4]
        keys = {brute_canonical(g) for g in classes}
        for number, g in enumerate(HYPERSTAR_CATALOG[3:7], 4):
            assert brute_canonical(g) in keys, number
        # the three-triangle family is a class of its own
        assert brute_canonical(gamma(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])) in keys
        assert len(classes) == 5

    def test_entries_are_valid_and_distinct(self):
        classes = enumerate_hyperstars(5)
        for n, g in classes:
            assert g.n == n
            assert functools.reduce(lambda a, b: a & b, g.masks()) != 0  # a common player
            assert is_quantum_admissible(g)
        per_n = {}
        for n, g in classes:
            per_n.setdefault(n, []).append(brute_canonical(g))
        for n, keys in per_n.items():
            assert len(set(keys)) == len(keys), n

    def test_deterministic(self):
        a = [(n, g.masks()) for n, g in enumerate_hyperstars(4)]
        b = [(n, g.masks()) for n, g in enumerate_hyperstars(4)]
        assert a == b

    def test_bounds(self):
        with pytest.raises(StructureError):
            enumerate_hyperstars(7)

    def test_six_player_count_regression(self):
        classes = enumerate_hyperstars(6)
        per_n = {}
        for n, _ in classes:
            per_n[n] = per_n.get(n, 0) + 1
        assert per_n == {2: 1, 3: 2, 4: 5, 5: 20, 6: 180}

    def test_catalog_number_roundtrip(self):
        for number, g in enumerate(HYPERSTAR_CATALOG, 1):
            assert catalog_number(g) == number

    @given(st.integers(0, len(HYPERSTAR_CATALOG) - 1), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_catalog_number_under_relabeling(self, idx, rnd):
        g = HYPERSTAR_CATALOG[idx]
        perm = list(range(1, g.n + 1))
        rnd.shuffle(perm)
        assert catalog_number(apply_permutation(g, tuple(perm))) == idx + 1

    def test_catalog_number_beyond_catalog_sizes(self):
        # twelve players: a canonical key would scan 10! relabelings, the lookup none
        star = gamma(12, [[1, j] for j in range(2, 13)])
        assert catalog_number(star) is None


@st.composite
def admissible_structures(draw):
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        k = draw(st.integers((n + 2) // 2, n))
        return threshold_structure(k, n)
    center = draw(st.integers(1, n))
    count = draw(st.integers(1, 4))
    masks = set()
    for _ in range(count):
        extra = draw(st.sets(st.integers(1, n), max_size=n - 1))
        masks.add(sum(1 << (p - 1) for p in {center} | extra))
    minimal = [m for m in sorted(masks) if not any(o != m and o & m == o for o in masks)]
    return AccessStructure.from_masks(n, minimal)


class TestCanonicalKey:
    @given(st.integers(0, len(HYPERSTAR_CATALOG) - 1), st.permutations(list(range(1, 6))))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_relabeling(self, idx, perm5):
        g = HYPERSTAR_CATALOG[idx]
        perm = tuple(perm5[: g.n])
        if sorted(perm) != list(range(1, g.n + 1)):
            return
        assert canonical_key(apply_permutation(g, perm)) == canonical_key(g)

    def test_matches_full_permutation_minimum_on_catalog(self):
        for g in HYPERSTAR_CATALOG:
            assert canonical_key(g) == brute_canonical(g)

    @given(admissible_structures())
    @settings(max_examples=80, deadline=None)
    def test_matches_full_permutation_minimum(self, g):
        assert canonical_key(g) == brute_canonical(g)

    def test_large_n_rejected(self):
        with pytest.raises(StructureError, match="capped"):
            canonical_key(gamma(9, [[1, 2]]))


# ---------------------------------------------------------------------------
# subset-union table against a direct OR over each subset's members


def brute_union(masks, bits):
    out = 0
    for i, m in enumerate(masks):
        if bits >> i & 1:
            out = out | m
    return out


@given(st.lists(st.integers(0, (1 << 20) - 1), max_size=7))
@settings(max_examples=80, deadline=None)
def test_subset_unions_match_bruteforce_on_ints(masks):
    assert subset_unions(masks) == [brute_union(masks, b) for b in range(1 << len(masks))]


@given(st.integers(0, 6), st.integers(1, 9), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_subset_unions_match_bruteforce_on_columns(n, rows, seed):
    grid = np.random.default_rng(seed).integers(0, 1 << 14, size=(rows, n), dtype=np.int32)
    columns = [grid[:, j] for j in range(n)]
    fast = subset_unions(columns)
    assert len(fast) == 1 << n
    for bits in range(1, 1 << n):
        assert fast[bits].dtype == np.int32
        assert np.array_equal(fast[bits], brute_union(columns, bits))


# ---------------------------------------------------------------------------
# partition totality over random admissible structures


@given(admissible_structures())
@settings(max_examples=120, deadline=None)
def test_partition_totality(g):
    a1, a2 = adversary_masks(g)
    closure = sum(
        1 for bits in range(1, 1 << g.n) if g.authorized[bits]
    )
    assert len(a1) + len(a2) + closure == (1 << g.n) - 1
    for bits in a1:
        assert any(m & bits == 0 for m in g.masks())
    for bits in a2:
        assert all(m & bits != 0 for m in g.masks())


@given(admissible_structures())
@settings(max_examples=120, deadline=None)
def test_complement_law_always_holds(g):
    # structure check prints the law as holding; test_subset_classes_match_bruteforce
    # ties class_codes to this partition
    assert complement_law_by_definition(g)


@given(admissible_structures())
@settings(max_examples=60, deadline=None)
def test_feasible_iff_a2_empty(g):
    assert (perfect_feasibility(g) is None) == (not adversary_masks(g)[1])


# ---------------------------------------------------------------------------
# class table


@st.composite
def antichains(draw):
    """Random structures, admissible or not, possibly without minimal sets."""
    n = draw(st.integers(2, 6))
    masks = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=6))
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    return AccessStructure.from_masks(n, minimal)


@given(antichains())
@example(gamma(4, [[1, 2], [3, 4]]))
@example(AccessStructure(3, ()))
@settings(max_examples=150, deadline=None)
def test_subset_classes_match_bruteforce(g):
    expected = {}
    for cls, masks in zip(("authorized", "A1", "A2"), brute_classes(g)):
        expected.update(dict.fromkeys(masks, cls))
    classes = class_names(g)
    assert len(classes) == 1 << g.n
    assert {bits: classes[bits] for bits in range(1, 1 << g.n)} == expected


@given(antichains())
@example(AccessStructure(3, ()))
@example(gamma(2, [[1], [2]]))
@settings(max_examples=150, deadline=None)
def test_maximal_unauthorized_matches_bruteforce(g):
    full = (1 << g.n) - 1
    expected = [
        bits for bits in range(1, full + 1)
        if not g.authorized[bits]
        and all(g.authorized[bits | 1 << i] for i in range(g.n) if not bits >> i & 1)
    ]
    assert structures._maximal_unauthorized(g).tolist() == expected


def class_names(g):
    """g's class table by name, as CLASS_NAMES spells each code."""
    return [CLASS_NAMES[code] for code in g.class_codes.tolist()]


@st.composite
def families(draw):
    """Random families of nonempty subset bitmasks on 2-10 players, nested members allowed."""
    n = draw(st.integers(2, 10))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8))


@given(st.integers(2, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=8))
))
@example((2, [0b10]))
@example((3, [0b001, 0b110]))
@example((16, [0, 0xFFFF]))
@settings(max_examples=150, deadline=None)
def test_up_closure_matches_the_per_pass_loop(family):
    # the int passes against the definition, small tables shorter than one byte
    n, masks = family
    closed, above = structures._up_closure(n, masks)
    expected, expected_above = closure_by_definition(n, masks)
    assert (closed, above) == (table_bits(expected), table_bits(expected_above))
    table = structures._bool_table(n, closed)
    assert table.dtype == expected.dtype and table.shape == expected.shape
    assert np.array_equal(table, expected)


def check_bitset_passes(n, family):
    """The int passes on family against their definitions: closure, minimal sets, refusals, maxima."""
    closed, above = closure_by_definition(n, family)
    assert structures._up_closure(n, family) == (table_bits(closed), table_bits(above))
    minimal = minimal_by_definition(family)
    assert antichain_reduce(n, family).masks() == tuple(minimal)
    pair = first_nested_pair_by_loop(family)
    if pair is not None:
        a, b = (list(PlayerSubset(family[i], n).players()) for i in pair)
        with pytest.raises(StructureError) as info:
            AccessStructure.from_masks(n, family)
        assert str(info.value) == f"not an antichain: {a} and {b} are nested or equal"
        return
    g = AccessStructure.from_masks(n, family)
    table = g.authorized
    assert table.dtype == bool and table.shape == (1 << n,) and not table.flags.writeable
    assert np.array_equal(table, closed)
    expected = maximal_unauthorized_by_definition(n, minimal)
    assert structures._maximal_unauthorized(g).tolist() == expected


def small_families(n):
    """Every family of at most two nonempty subsets in either order, duplicates included.

    On 2 and 3 players, whose tables are shorter than one byte, every
    family of distinct subsets as well.
    """
    subsets = range(1, 1 << n)
    yield []
    for r in (1, 2):
        yield from map(list, itertools.product(subsets, repeat=r))
    if n <= 3:
        for r in range(3, len(subsets) + 1):
            yield from map(list, itertools.combinations(subsets, r))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bitset_passes_match_the_definitions_on_every_small_family(n):
    for family in small_families(n):
        check_bitset_passes(n, family)


@given(st.integers(2, structures.MAX_PLAYERS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=8))
))
@example((16, [0xFFFF]))
@example((16, [0x00FF, 0xFF00, 0x0FF0]))
@example((16, [0x8001, 0x0003, 0x8001]))
@settings(max_examples=100, deadline=None)
def test_bitset_passes_match_the_definitions_on_random_families(case):
    n, family = case
    check_bitset_passes(n, family)
    # random members of many players are seldom nested: check the antichain they reduce to
    check_bitset_passes(n, minimal_by_definition(family))


@pytest.mark.parametrize(
    "n, sets, message",
    [
        (2, [[1], [1, 2]], "[1] and [1, 2] are nested or equal"),
        (3, [[2, 3], [1], [2, 3]], "[2, 3] and [2, 3] are nested or equal"),
        (3, [[1, 3], [2, 3], [1, 2, 3], [1]], "[1, 3] and [1, 2, 3] are nested or equal"),
        (4, [[1, 2, 3], [3, 4], [1, 2]], "[1, 2, 3] and [1, 2] are nested or equal"),
        (16, [[1, 16], [2, 15], list(range(1, 17))],
         "[1, 16] and [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16] are nested or equal"),
    ],
)
def test_antichain_refusals_name_the_first_pair(n, sets, message):
    with pytest.raises(StructureError) as info:
        gamma(n, sets)
    assert str(info.value) == "not an antichain: " + message


@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=10))
))
@example((2, []))
@example((3, [0b111, 0b111]))
@example((8, [0xFF, 0x01, 0x03, 0x80]))
@settings(max_examples=200, deadline=None)
def test_antichain_reduce_hands_over_the_family_closure(family):
    """The reduced structure equals from_masks of the minimal members, its closure included."""
    n, masks = family
    g = antichain_reduce(n, masks)
    expected = AccessStructure.from_masks(n, minimal_by_definition(masks))
    assert g == expected and g.minimal_sets == expected.minimal_sets
    assert g._closure == expected._closure
    assert np.array_equal(g.authorized, expected.authorized)
    assert all(type(s.bits) is int for s in g.minimal_sets)


def test_antichain_reduce_keeps_the_constructor_refusals():
    with pytest.raises(StructureError, match="must be nonempty"):
        antichain_reduce(3, [0, 0b011])
    with pytest.raises(StructureError, match="player count"):
        antichain_reduce(17, [1])


@given(families(), st.randoms(use_true_random=False))
@example((4, [0b0011, 0b1100]), None)
@example((3, []), None)
@example((5, [0b00011, 0b00111, 0b11111, 0b00011]), None)
@settings(max_examples=120, deadline=None)
def test_authorized_table_matches_bruteforce(family, rnd):
    from qsslab.schemes import SchemeSpec, induce_structure

    n, masks = family
    minimal = sorted({m for m in masks if not any(o != m and o & m == o for o in masks)})
    g = antichain_reduce(n, masks)
    assert g.masks() == tuple(minimal)
    for bits in range(1 << n):
        expected = any(m & bits == m for m in masks)
        assert g.authorized[bits] == expected, bits
    assert is_quantum_admissible(g) == all(a & b for a, b in itertools.combinations(minimal, 2))
    with pytest.raises(ValueError):
        g.authorized[0] = True
    if rnd is None:
        return
    # the family as a structure over n particles, handed to k players and maybe the dealer
    k = rnd.randint(2, n)
    holders = [f"P{i}" for i in range(1, k + 1)] + (["DEALER"] if rnd.random() < 0.5 else [])
    assignment = {h: [] for h in holders}
    for i, h in enumerate(holders[:k]):
        assignment[h].append(i + 1)
    for p in range(k + 1, n + 1):
        assignment[rnd.choice(holders)].append(p)
    images = np.zeros((2, 1 << n))
    images[0, 0] = images[1, 1] = 1.0
    scheme = SchemeSpec(n, images, assignment)
    held = [sum(1 << (p - 1) for p in assignment[f"P{i}"]) for i in range(1, k + 1)]
    authorized = [
        bits for bits in range(1, 1 << k)
        if any(m & brute_union(held, bits) == m for m in minimal)
    ]
    expected = sorted(
        a for a in authorized if not any(o != a and o & a == o for o in authorized)
    )
    assert induce_structure(scheme, g).masks() == tuple(expected)


def test_threshold_7_12_class_counts():
    classes = class_names(threshold_structure(7, 12))
    sizes = {cls: set() for cls in ("authorized", "A1", "A2")}
    for bits in range(1, 1 << 12):
        sizes[classes[bits]].add(bits.bit_count())
    assert [classes[1:].count(cls) for cls in sizes] == [1586, 1585, 924]
    assert sizes == {"authorized": set(range(7, 13)), "A1": set(range(1, 6)), "A2": {6}}


def test_structure_analyses_classify_once(monkeypatch):
    table = AccessStructure.__dict__["class_codes"]
    calls = []

    def spy(self):
        calls.append(self)
        return table.func(self)

    spied = functools.cached_property(spy)
    spied.__set_name__(AccessStructure, "class_codes")
    monkeypatch.setattr(AccessStructure, "class_codes", spied)
    g = gamma(5, [[1, 2, 3], [1, 4, 5]])
    a2 = structures._adversary_masks(g)[1]
    assert perfect_feasibility(g) == PlayerSubset(int(a2[0]), g.n)
    assert calls == [g]


# ---------------------------------------------------------------------------
# JSON interface


class TestStructureJson:
    def test_round_trip(self):
        g = gamma(4, [[1, 2, 3], [1, 4]])
        assert load_structure(structure_to_dict(g)).masks() == g.masks()

    def test_rejects_json_text(self):
        doc = json.dumps({"players": 3, "minimal_authorized": [[1, 2], [1, 3]]})
        with pytest.raises(StructureError, match="must be a JSON object"):
            load_structure(doc)

    def test_rejects_empty_set_with_name(self):
        with pytest.raises(StructureError, match=r"\[\]"):
            load_structure({"players": 3, "minimal_authorized": [[1, 2], []]})

    def test_rejects_nested_sets_naming_pair(self):
        with pytest.raises(StructureError, match=r"\[1, 2\].*\[1, 2, 3\]"):
            load_structure({"players": 3, "minimal_authorized": [[1, 2], [1, 2, 3]]})

    def test_names_first_nested_pair_in_given_order(self):
        with pytest.raises(StructureError, match=r"^not an antichain: \[1, 3\] and \[1, 2, 3\]"):
            load_structure({"players": 3, "minimal_authorized": [[1, 3], [2, 3], [1, 2, 3], [1]]})

    def test_rejects_out_of_range(self):
        with pytest.raises(StructureError, match="out of range"):
            load_structure({"players": 3, "minimal_authorized": [[1, 4]]})

    def test_rejects_missing_field(self):
        with pytest.raises(StructureError):
            load_structure({"players": 3})


def outcome(load, doc):
    """A loader's structure, with its closure, or the type and message of what it raised."""
    try:
        g = load(doc)
    except Exception as exc:  # noqa: BLE001 - the reference decides what may be raised
        return type(exc), str(exc)
    return g, g._closure


# one player entry each of the kinds a JSON document can hold, valid or not
_PLAYER_ENTRIES = st.one_of(
    st.integers(-2, 18),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-2, max_value=18),
    st.sampled_from([1.0, 2.0, "1", "x", None, [1], [], {"p": 1}, 10**30, -(10**30)]),
)


@given(
    st.one_of(st.integers(-1, 18), st.sampled_from([True, 2.0, "4", None, 10**20])),
    st.lists(st.one_of(st.lists(_PLAYER_ENTRIES, max_size=5), st.just([]), st.just(7)),
             max_size=5),
)
@example(4, [[1, 2], [1, True]])
@example(4, [[1, 2.0]])
@example(4, [[1, "2"]])
@example(4, [[0, 1]])
@example(4, [[5]])
@example(4, [[1, 2], []])
@example(4, [[1, [2]]])
@example(4, [[0, "x"]])  # the non-integer is named before the player out of range
@example(4, [[5, 0]])  # the first player out of range is named
@example(20, [[18, 19]])  # in range, so the player count is what is refused
@example(20, [[18, 21]])
@example(1, [[1]])
@example(0, [[1]])
@example(4, [[1, 2], [1, 2, 3]])
@example(4, [[1, 2], [2, 1]])
@settings(max_examples=400, deadline=None)
def test_load_structure_matches_the_reference_loader(players, sets):
    """Valid and malformed documents: the same structure and closure, or the same error and message."""
    doc = {"players": players, "minimal_authorized": sets}
    assert outcome(load_structure, doc) == outcome(load_structure_reference, doc)


@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(1, n), min_size=1, max_size=n), min_size=1, max_size=6)
)))
@settings(max_examples=200, deadline=None)
def test_load_structure_matches_the_reference_on_valid_documents(family):
    n, sets = family
    doc = {"players": n, "minimal_authorized": sets}
    assert outcome(load_structure, doc) == outcome(load_structure_reference, doc)


def test_player_count_is_refused_before_a_player_bit_is_built():
    """A player in range of a huge player count gets no bit (the reference loader shifts one)."""
    doc = {"players": 10**20, "minimal_authorized": [[10**19]]}
    with pytest.raises(StructureError, match=r"^player count must be in \[2, 16\], got 10{20}$"):
        load_structure(doc)


@pytest.mark.parametrize("players, sets", [(0, [[1]]), (1, [[1]]), (20, [[18, 21]])])
def test_load_structure_names_the_player_count_first(players, sets):
    """An out-of-range player count is refused before any player of the sets is read."""
    doc = {"players": players, "minimal_authorized": sets}
    message = f"player count must be in [2, 16], got {players}"
    for load in (load_structure, load_structure_reference):
        with pytest.raises(StructureError) as info:
            load(doc)
        assert str(info.value) == message


@pytest.mark.parametrize("n", [0, 1, 17])
@pytest.mark.parametrize("build", [
    lambda n: AccessStructure(n, ()),
    lambda n: AccessStructure.from_masks(n, []),
    lambda n: antichain_reduce(n, []),
    lambda n: PlayerSubset(0, n),
], ids=["constructor", "from_masks", "antichain_reduce", "subset"])
def test_player_count_is_checked_before_any_closure_is_built(monkeypatch, build, n):
    def refuse(n):
        raise AssertionError(f"a 2^{n}-subset closure was started")

    monkeypatch.setattr(structures, "_lacking", refuse)
    with pytest.raises(StructureError) as info:
        build(n)
    assert str(info.value) == f"player count must be in [2, 16], got {n}"


def test_load_structure_of_many_sets_matches_the_reference():
    doc = {"players": 12, "minimal_authorized": [list(c) for c in itertools.combinations(range(1, 13), 7)]}
    g = load_structure(doc)
    assert (g, g._closure) == outcome(load_structure_reference, doc)
    assert g == threshold_structure(7, 12)
