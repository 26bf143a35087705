"""References by definition for structure and relabeling tests.

Each helper works from the minimal sets or the basis images directly, so
the tests can check the library's class tables, canonical keys and
searches against something that does not share their code.
"""

import itertools

import numpy as np

from qsslab.schemes import SchemeSpec
from qsslab.structures import AccessStructure, PlayerSubset, StructureError, _json_int


def brute_classes(g):
    """Bitmasks of g's nonempty authorized, A1 and A2 sets by definition, each ascending.

    A1 sets are unauthorized and disjoint from some minimal set; A2 sets
    are unauthorized and meet every minimal set.
    """
    minimal = g.masks()
    authorized, a1, a2 = [], [], []
    for bits in range(1, 1 << g.n):
        if any(m & bits == m for m in minimal):
            authorized.append(bits)
        elif any(not m & bits for m in minimal):
            a1.append(bits)
        else:
            a2.append(bits)
    return authorized, a1, a2


def complement_law_by_definition(g):
    """The complement law on brute_classes(g): A1 complements are authorized, A2 is closed."""
    return complement_law_holds(g.n, *brute_classes(g))


def complement_law_holds(n, authorized, a1, a2):
    """Whether every A1 complement is authorized and every A2 complement is A2, on bitmask lists."""
    authorized, a2_set = set(authorized), set(a2)
    full = (1 << n) - 1
    return all(full ^ bits in authorized for bits in a1) and all(full ^ bits in a2_set for bits in a2)


def brute_canonical(g):
    """Full n!-permutation minimum, the definition canonical_key must match."""

    def remap(mask, perm):
        return sum(1 << perm[p] for p in range(g.n) if mask >> p & 1)

    best = None
    for perm in itertools.permutations(range(g.n)):
        key = tuple(sorted(remap(m, perm) for m in g.masks()))
        if best is None or key < best:
            best = key
    return best


def closure_by_definition(n, family):
    """Bool tables over the 2^n subsets: those containing a member of family, and those strictly.

    Every subset is tested against every member at once.
    """
    subsets = np.arange(1 << n, dtype=np.int64)[:, None]
    members = np.array(sorted(set(family)), dtype=np.int64)
    inside = (subsets & members) == members
    return inside.any(axis=1), (inside & (subsets != members)).any(axis=1)


def table_bits(table):
    """A bool table over the subsets as one int: bit b is entry b."""
    return int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")


def minimal_by_definition(family):
    """The members of family that contain no other member, ascending and once each."""
    return sorted({m for m in family if not any(o != m and o & m == o for o in family)})


def maximal_unauthorized_by_definition(n, minimal):
    """Nonempty subsets outside the up-closure of minimal whose one-player extensions are all in it."""
    authorized = closure_by_definition(n, minimal)[0]
    subsets = np.arange(1, 1 << n)
    keep = ~authorized[subsets]
    for i in range(n):
        keep &= (subsets >> i & 1).astype(bool) | authorized[subsets | 1 << i]
    return subsets[keep].tolist()


def first_nested_pair_by_loop(masks):
    """First (i, j), i < j, in itertools.combinations order with masks[i], masks[j] nested or equal."""
    for (i, a), (j, b) in itertools.combinations(enumerate(masks), 2):
        if a & b in (a, b):
            return i, j
    return None


def permute_particles(scheme, perm):
    """The scheme with particle i relabeled perm[i-1] in its images and its assignment."""
    m = scheme.num_particles
    order = [0] * m
    for i0, j in enumerate(perm):
        order[j - 1] = i0
    images = np.stack(
        [image.reshape((2,) * m).transpose(order).reshape(-1) for image in scheme.basis_images]
    )
    assignment = {
        holder: tuple(sorted(perm[p - 1] for p in particles))
        for holder, particles in scheme.assignment.items()
    }
    return SchemeSpec(m, images, assignment, name=f"{scheme.name}~perm")


def load_structure_reference(data):
    """The structure loader as it was before it built masks in one pass, for differential tests.

    Each set's players go through _json_int as a list, then through
    PlayerSubset.from_players: type errors first, then the first player
    out of range, then the player count.
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
    subsets = []
    for raw in raw_sets:
        if not isinstance(raw, list) or not raw:
            raise StructureError(f"minimal set {raw!r} is empty or not a list")
        try:
            subsets.append(PlayerSubset.from_players([_json_int(p) for p in raw], n))
        except TypeError:
            raise StructureError(f"minimal set {raw!r} holds a non-integer player") from None
    return AccessStructure(n, tuple(subsets))
