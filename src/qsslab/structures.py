"""Combinatorics of quantum access structures.

Players are numbered 1..n; a subset of players is a bitmask with bit i-1
standing for player Pi.  An access structure is stored as the antichain of
its minimal authorized sets.  Whether a subset is authorized is decided in
one place, the up-closure of the minimal sets: an int whose bit b stands for
subset b, unpacked into a bool table (AccessStructure.authorized) for the
admissibility check, the A1/A2 classes and the structures derived from it.

A structure is quantum-admissible when no two authorized sets are disjoint
(two disjoint authorized sets could each reconstruct the secret, cloning
it).  The adversary structure splits into A1 (unauthorized sets disjoint
from some authorized set) and A2 (unauthorized sets meeting every
authorized set); A2 is exactly the obstruction to pure perfect schemes.
The complement law holds by these definitions: an A1 set's complement is
authorized; an A2 set's is unauthorized, its own complement too, so it is A2.
"""

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

MAX_PLAYERS = 16
MAX_ISO_PLAYERS = 8
MAX_ENUM_PLAYERS = 6


class StructureError(ValueError):
    """Malformed subset or structure input."""


def _bit_positions(mask):
    """0-based positions of set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _json_int(value):
    """An integer field of a JSON document; booleans, floats and strings raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def subset_unions(masks):
    """Table of unions: entry b is the OR of masks[i] over the set bits i of b.

    Built by doubling, so it serves plain int masks and numpy columns of
    per-row masks alike.  Entry 0 is the int 0.
    """
    union = [0]
    for m in masks:
        union += [u | m for u in union]
    return union


@functools.cache
def _lacking(n):
    """Per player i+1, the int whose bit b is set when subset b lacks the player: runs of 2^i bits."""
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(n))


def _bool_table(n, bits):
    """Bool table over the 2^n subsets from an int over them: entry b is bit b."""
    raw = np.frombuffer(bits.to_bytes(max(1, 1 << n >> 3), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=1 << n, bitorder="little").view(bool)


def _up_closure(n, masks):
    """The subsets containing a member of a family of bitmasks, and those strictly containing one.

    Each is an int over the 2^n subsets, bit b standing for subset b.  Pass i
    moves each subset without player i+1 onto the same subset with it, a shift by 2^i.
    """
    closed, above = 0, 0
    for m in masks:
        closed |= 1 << m
    for i, lacking in enumerate(_lacking(n)):
        moved = (closed & lacking) << (1 << i)
        closed |= moved
        above |= moved
    return closed, above


def antichain_reduce(n, masks):
    """Structure whose minimal sets are the minimal elements of a family of subset bitmasks.

    A subset is minimal when it lies in the family's up-closure and
    strictly contains no member.
    """
    closed, above = _up_closure(n, masks)
    return AccessStructure.from_masks(n, np.flatnonzero(_bool_table(n, closed ^ above)).tolist())


def _maximal_unauthorized(gamma):
    """Bitmasks of gamma's nonempty maximal unauthorized sets, ascending.

    A set is maximal unauthorized when it is unauthorized and every
    one-player extension of it is authorized (the full set qualifies when
    it is unauthorized, having no extension).
    """
    unauthorized = ((1 << (1 << gamma.n)) - 2) & ~gamma._closure
    extendable = 0
    for i, lacking in enumerate(_lacking(gamma.n)):
        extendable |= (unauthorized >> (1 << i)) & lacking
    return np.flatnonzero(_bool_table(gamma.n, unauthorized & ~extendable))


@dataclass(frozen=True, order=True)
class PlayerSubset:
    """A subset of the players P1..Pn, encoded as a bitmask."""

    bits: int
    n: int

    def __post_init__(self):
        if not 2 <= self.n <= MAX_PLAYERS:
            raise StructureError(f"player count must be in [2, {MAX_PLAYERS}], got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise StructureError(f"bitmask {self.bits:#x} out of range for n={self.n}")

    @classmethod
    def from_players(cls, players, n):
        bits = 0
        for p in players:
            if not 1 <= p <= n:
                raise StructureError(f"player {p} out of range 1..{n}")
            bits |= 1 << (p - 1)
        return cls(bits, n)

    @classmethod
    def coerce(cls, players, n):
        """A subset of n players, given as a PlayerSubset over n players or as 1-based players."""
        if isinstance(players, PlayerSubset):
            if players.n != n:
                raise StructureError(f"subset {players} is over {players.n} players, expected {n}")
            return players
        return cls.from_players(players, n)

    def players(self):
        """1-based player indices, ascending."""
        return tuple(p + 1 for p in _bit_positions(self.bits))

    def complement(self):
        return PlayerSubset(((1 << self.n) - 1) ^ self.bits, self.n)

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def __str__(self):
        return "{" + ",".join(f"P{p}" for p in self.players()) + "}"


#: Mask pairs compared per block of rows in _first_nested_pair (8 MB of int64)
_PAIR_BLOCK = 1 << 20


def _first_nested_pair(masks):
    """First (i, j), i < j, in itertools.combinations order with masks[i], masks[j] nested or equal.

    One pair matrix over the masks, read in row-major order on its upper
    triangle; built a block of rows at a time, so memory stays bounded
    however many masks an input lists.  None when the masks are an antichain.
    """
    m = np.array(masks, dtype=np.int64)
    rows = max(1, _PAIR_BLOCK // max(1, len(m)))
    for start in range(0, len(m), rows):
        block = m[start:start + rows, None]
        meet = block & m
        hits = np.argwhere(np.triu((meet == block) | (meet == m), start + 1))
        if len(hits):
            return start + int(hits[0, 0]), int(hits[0, 1])
    return None


#: Subset classes by their code in AccessStructure.class_codes
CLASS_NAMES = ("authorized", "A1", "A2")
AUTHORIZED, A1, A2 = 0, 1, 2


@dataclass(frozen=True)
class AccessStructure:
    """Antichain of minimal authorized player subsets."""

    n: int
    minimal_sets: tuple

    def __post_init__(self):
        sets = tuple(self.minimal_sets)
        for s in sets:
            if s.n != self.n:
                raise StructureError(f"set {s} has player count {s.n}, expected {self.n}")
            if s.bits == 0:
                raise StructureError("minimal authorized set must be nonempty")
        object.__setattr__(self, "minimal_sets", tuple(sorted(sets, key=lambda s: s.bits)))
        masks = self.masks()
        closed, above = _up_closure(self.n, masks)
        object.__setattr__(self, "_closure", closed)  # an int, bit b for subset b
        # the masks are an antichain exactly when each is a minimal element of their
        # up-closure; the pair walk only names the offending pair
        if (closed ^ above).bit_count() < len(masks):
            masks = [s.bits for s in sets]
            a, b = (PlayerSubset(masks[i], self.n) for i in _first_nested_pair(masks))
            raise StructureError(
                f"not an antichain: {list(a.players())} and {list(b.players())} are nested or equal"
            )

    @classmethod
    def from_sets(cls, n, sets):
        """Build from 1-based player collections, e.g. [[1,2,3],[1,4]]."""
        return cls(n, tuple(PlayerSubset.from_players(s, n) for s in sets))

    @classmethod
    def from_masks(cls, n, masks):
        return cls(n, tuple(PlayerSubset(m, n) for m in masks))

    def masks(self):
        return tuple(s.bits for s in self.minimal_sets)

    @functools.cached_property
    def authorized(self):
        """Read-only bool table by bitmask: True where the subset contains a minimal set."""
        table = _bool_table(self.n, self._closure)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def class_codes(self):
        """Read-only int8 table of each player subset's class, by bitmask: AUTHORIZED, A1 or A2.

        Of the unauthorized sets, A1 sets are disjoint from a minimal set,
        that is, their complement is authorized; A2 sets meet all of them.
        The complement of bitmask b is entry b of the reversed table.
        """
        table = self.authorized
        codes = np.where(table, AUTHORIZED, np.where(table[::-1], A1, A2)).astype(np.int8)
        codes.flags.writeable = False
        return codes

    def __str__(self):
        return "{" + ", ".join(str(s) for s in self.minimal_sets) + "}"


def is_quantum_admissible(gamma):
    """True iff no two authorized sets are disjoint: no authorized set has an authorized complement."""
    return not (gamma.authorized & gamma.authorized[::-1]).any()


def _admissible_classes(gamma):
    """gamma's class codes, after checking that the A1/A2 split is meaningful for it."""
    if not is_quantum_admissible(gamma):
        raise StructureError("adversary partition requires a quantum-admissible structure")
    return gamma.class_codes


def _adversary_masks(gamma):
    """Bitmasks of gamma's A1 sets and of its A2 sets, each an ascending int array.

    The empty set is neither: its complement, the full set, is authorized.
    """
    codes = _admissible_classes(gamma)[1:]
    return np.flatnonzero(codes == A1) + 1, np.flatnonzero(codes == A2) + 1


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Whether a pure perfect scheme can exist for the structure."""

    feasible: bool
    witness: PlayerSubset | None = None


def perfect_feasibility(gamma):
    """Pure perfect schemes exist iff A2 is empty; a witness from A2 is returned otherwise."""
    a2 = _adversary_masks(gamma)[1]
    if a2.size:
        return FeasibilityVerdict(False, PlayerSubset(int(a2[0]), gamma.n))
    return FeasibilityVerdict(True)


def threshold_structure(k, n):
    """The ((k,n)) structure: authorized sets are all subsets of size >= k."""
    if not 1 <= k <= n:
        raise StructureError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n >= 2 * k:
        raise StructureError(
            f"(({k},{n})) is not quantum-admissible: two disjoint {k}-subsets exist"
        )
    sets = [
        PlayerSubset.from_players(c, n) for c in itertools.combinations(range(1, n + 1), k)
    ]
    return AccessStructure(n, tuple(sets))


@functools.cache
def _relabeling_shifts(n):
    """Every player relabeling as a row of the bit each player lands on.

    Row r of the read-only (n!, n) table holds relabeling r in
    itertools.permutations order: entry p is 1 << (new position of position p).
    """
    shifts = np.left_shift(1, np.array(list(itertools.permutations(range(n))), dtype=np.int64))
    shifts.flags.writeable = False
    return shifts


def _canonical_form(n, masks):
    """Least sorted mask tuple over all n! player relabelings.

    Every mask is remapped under every relabeling at once: one int64
    matmul of the bit-shift table against the masks' bit matrix, a sort
    within each row and a lexsort over the rows.
    """
    if n > MAX_ISO_PLAYERS:
        raise StructureError(f"isomorphism search capped at n={MAX_ISO_PLAYERS}, got n={n}")
    if not masks:
        return ()
    bits = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    remapped = _relabeling_shifts(n) @ bits.T
    remapped.sort(axis=1)
    return tuple(remapped[np.lexsort(remapped.T[::-1])[0]].tolist())


def canonical_key(gamma):
    """Lexicographically least sorted bitmask tuple over all player relabelings.

    n is capped at MAX_ISO_PLAYERS.
    """
    return _canonical_form(gamma.n, gamma.masks())


def _pinned_hyperstar_antichains(n):
    """All antichains of subsets containing player 1 whose union covers 1..n.

    Every hyperstar class has such a representative (relabel its common
    vertex to P1), so this generates at least one candidate per class.
    """
    edges = [m for m in range(1, 1 << n) if m & 1]
    full = (1 << n) - 1
    found = []

    def extend(start, chosen, union):
        for idx in range(start, len(edges)):
            e = edges[idx]
            # ascending masks: e can only be a superset of an earlier choice
            if any(c & e == c for c in chosen):
                continue
            chosen.append(e)
            new_union = union | e
            if new_union == full:
                found.append(tuple(chosen))
            extend(idx + 1, chosen, new_union)
            chosen.pop()

    extend(0, [], 0)
    return found


def enumerate_hyperstars(max_n):
    """All isomorphism classes of hyperstar structures covering n players, for n = 2..max_n.

    Returns (n, structure) pairs where each structure is the canonical
    class representative (least lexicographic bitmask list under player
    permutation), in deterministic (n, key) order.
    """
    if not 2 <= max_n <= MAX_ENUM_PLAYERS:
        raise StructureError(f"enumeration supported for 2 <= max_n <= {MAX_ENUM_PLAYERS}")
    out = []
    for n in range(2, max_n + 1):
        keys = {_canonical_form(n, masks) for masks in _pinned_hyperstar_antichains(n)}
        out.extend((n, AccessStructure.from_masks(n, key)) for key in sorted(keys))
    return out


@dataclass(frozen=True)
class CatalogEntry:
    """A numbered hyperstar class with at most five players."""

    number: int
    structure: AccessStructure


def _entry(number, n, sets):
    return CatalogEntry(number, AccessStructure.from_sets(n, sets))


#: The sixteen hyperstar classes on 2..5 players used by the feasibility matrix.
HYPERSTAR_CATALOG = (
    _entry(1, 2, [[1, 2]]),
    _entry(2, 3, [[1, 2], [1, 3]]),
    _entry(3, 3, [[1, 2, 3]]),
    _entry(4, 4, [[1, 2], [1, 3], [1, 4]]),
    _entry(5, 4, [[1, 2, 3], [1, 4]]),
    _entry(6, 4, [[1, 2, 3], [1, 2, 4]]),
    _entry(7, 4, [[1, 2, 3, 4]]),
    _entry(8, 5, [[1, 2], [1, 3], [1, 4], [1, 5]]),
    _entry(9, 5, [[1, 2], [1, 3], [1, 4, 5]]),
    _entry(10, 5, [[1, 2], [1, 3, 4], [1, 3, 5]]),
    _entry(11, 5, [[1, 2], [1, 3, 4, 5]]),
    _entry(12, 5, [[1, 2, 3], [1, 2, 4], [1, 2, 5]]),
    _entry(13, 5, [[1, 2, 3], [1, 4, 5]]),
    _entry(14, 5, [[1, 2, 3], [1, 2, 4, 5]]),
    _entry(15, 5, [[1, 2, 3, 4], [1, 2, 3, 5]]),
    _entry(16, 5, [[1, 2, 3, 4, 5]]),
)


@functools.cache
def _catalog_index():
    """(player count, canonical key) -> catalog number."""
    return {(e.structure.n, canonical_key(e.structure)): e.number for e in HYPERSTAR_CATALOG}


def catalog_number(gamma):
    """Catalog number of the class isomorphic to gamma, or None if uncataloged."""
    # canonical keys cost n!-ish work, so they are only taken where the catalog has classes
    if all(e.structure.n != gamma.n for e in HYPERSTAR_CATALOG):
        return None
    return _catalog_index().get((gamma.n, canonical_key(gamma)))


def load_structure(data):
    """Parse a decoded access-structure JSON document.

    data is the dict of the form {"players": 4, "minimal_authorized":
    [[1,2,3],[1,4]]} with 1-based player indices; any other JSON value is
    rejected.  Rejects empty sets and nested (non-antichain) entries with a
    diagnostic naming the offender.
    """
    if not isinstance(data, dict):
        raise StructureError("structure document must be a JSON object")
    try:
        n = _json_int(data["players"])
        raw_sets = data["minimal_authorized"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"missing or bad field: {exc}") from exc
    if not isinstance(raw_sets, list) or not raw_sets:
        raise StructureError("minimal_authorized must be a nonempty list of player lists")
    # at most MAX_PLAYERS entries whatever n is; the first set refuses an n out of range
    bit_of = {p: 1 << (p - 1) for p in range(1, min(n, MAX_PLAYERS) + 1)}
    subsets = []
    for raw in raw_sets:
        if not isinstance(raw, list) or not raw:
            raise StructureError(f"minimal set {raw!r} is empty or not a list")
        bits, outside = 0, []
        try:  # one pass; a non-integer anywhere in the set is named before a player out of range
            for p in raw:
                p = p if type(p) is int else _json_int(p)
                if p in bit_of:
                    bits |= bit_of[p]
                elif not 1 <= p <= n:
                    outside.append(p)
        except TypeError:
            raise StructureError(f"minimal set {raw!r} holds a non-integer player") from None
        if outside:
            raise StructureError(f"player {outside[0]} out of range 1..{n}")
        subsets.append(PlayerSubset(bits, n))
    return AccessStructure(n, tuple(subsets))


def structure_to_dict(gamma):
    """Inverse of load_structure."""
    return {
        "players": gamma.n,
        "minimal_authorized": [list(s.players()) for s in gamma.minimal_sets],
    }
