"""Share-distribution schemes: constructors, particle assignment, search.

A scheme is an isometry from the one-qubit secret into n particle
registers, given by the images of |0> and |1>, plus an assignment of
particles to holders.  Holders are the players P1..Pn and optionally
DEALER; dealer-retained particles never count toward any player subset
and are traced out during verification.

Particle p occupies register "p<p>"; particle 1 is the most significant
bit of an image ket, matching the register layout convention.

A subset-entropy table holds one entropy per particle bitmask, filled in
bulk by qstate.cut_entropies; since the global state is pure, S(RA) is
read as the entropy of the particles outside A.  Re-grouping particles
under different player assignments (the redistribution search) costs
table reads only.
"""

import functools
import itertools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qstate import (
    DEFAULT_TOLERANCE,
    ISOMETRY_TOL,
    MAX_QUBITS,
    PureState,
    RegisterLayout,
    ResourceLimitError,
    apply_isometry,
    cut_entropies,
    purify_secret,
)
from .structures import (
    AUTHORIZED,
    AccessStructure,
    PlayerSubset,
    _bit_positions,
    _json_int,
    _maximal_unauthorized,
    antichain_reduce,
    is_quantum_admissible,
    subset_unions,
)

MAX_SEARCH_PARTICLES = 7
DEALER = "DEALER"
_THRESHOLD34_BLOCK = PlayerSubset(0b1100, 4)  # build_threshold34 is block(4, {3, 4})

_log = logging.getLogger("qsslab.search")


class SchemeError(ValueError):
    """Malformed scheme, assignment, or family parameters."""


def particle_labels(m):
    return tuple(f"p{i}" for i in range(1, m + 1))


def _validate_assignment(assignment, num_particles):
    holders = dict(assignment)
    players = [h for h in holders if h != DEALER]
    n = len(players)
    if n == 0:
        raise SchemeError("assignment needs at least one player")
    if set(players) != {f"P{i}" for i in range(1, n + 1)}:
        raise SchemeError(f"players must be named P1..P{n} contiguously, got {sorted(players)}")
    seen = {}
    for holder, particles in holders.items():
        for p in particles:
            if not 1 <= p <= num_particles:
                raise SchemeError(f"particle {p} out of range 1..{num_particles}")
            if p in seen:
                raise SchemeError(f"particle {p} assigned to both {seen[p]} and {holder}")
            seen[p] = holder
    missing = sorted(set(range(1, num_particles + 1)) - set(seen))
    if missing:
        raise SchemeError(f"particles {missing} are unassigned")
    return {h: tuple(sorted(holders[h])) for h in holders}


@dataclass(eq=False)
class SchemeSpec:
    """Basis-image isometry plus a particle-to-holder assignment."""

    num_particles: int
    basis_images: np.ndarray
    assignment: dict
    name: str = ""

    def __post_init__(self):
        images = np.asarray(self.basis_images, dtype=np.complex128)
        if images.shape != (2, 1 << self.num_particles):
            raise SchemeError(
                f"basis images must have shape (2, {1 << self.num_particles}), got {images.shape}"
            )
        # finite first: an inf entry would make the Gram product warn (inf * 0) before the refusal
        if not (np.isfinite(images).all()
                and np.max(np.abs(images @ images.conj().T - np.eye(2))) <= ISOMETRY_TOL):
            raise SchemeError("basis images are not orthonormal: not an isometry")
        self.basis_images = images
        self.assignment = _validate_assignment(self.assignment, self.num_particles)

    @property
    def num_players(self):
        return sum(1 for h in self.assignment if h != DEALER)

    @property
    def player_masks(self):
        """Particle bitmask of each player P1..Pn, in player order."""
        return [
            sum(1 << (p - 1) for p in self.assignment[f"P{i}"])
            for i in range(1, self.num_players + 1)
        ]

    def registers_of(self, player_bits):
        """Registers of the particles jointly held by the players in the bitmask, ascending."""
        held = sum(m for pos, m in enumerate(self.player_masks) if player_bits >> pos & 1)
        return tuple(f"p{p + 1}" for p in _bit_positions(held))

    def __eq__(self, other):
        if not isinstance(other, SchemeSpec):
            return NotImplemented
        return (
            self.num_particles == other.num_particles
            and np.array_equal(self.basis_images, other.basis_images)
            and self.assignment == other.assignment
        )


def identity_assignment(n):
    return {f"P{i}": (i,) for i in range(1, n + 1)}


def apply_to_secret(scheme, alpha, beta):
    """State over the particle registers for a known pure secret a|0>+b|1>."""
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-9:  # NaN fails too
        raise SchemeError("secret amplitudes are not normalized")
    amps = alpha * scheme.basis_images[0] + beta * scheme.basis_images[1]
    return PureState(RegisterLayout(particle_labels(scheme.num_particles)), amps)


def distribute_purified(scheme, probabilities=(0.5, 0.5)):
    """Purify the secret mixture and push it through the scheme isometry.

    Returns the global state over (R, p1..pm); this is the object all
    entropy verification runs on.
    """
    state = purify_secret(probabilities)
    return apply_isometry(state, "S", particle_labels(scheme.num_particles), scheme.basis_images)


def block_structure(n, block):
    """Authorized sets: the block plus one outsider, or the co-block plus one insider.

    The minimal sets are listed directly.  Two sets of this family are
    nested only when one is the full set, which is in the family when the
    block or the co-block is one player and then contains every other set;
    so the family less the full set is the antichain, and the full set is
    minimal only when it is alone (n = 2).
    """
    block = PlayerSubset.coerce(block, n)
    full = (1 << n) - 1
    comp = full ^ block.bits
    masks = {block.bits | (1 << pos) for pos in _bit_positions(comp)}
    masks.update(comp | (1 << pos) for pos in _bit_positions(block.bits))
    if len(masks) > 1:
        masks.discard(full)
    return AccessStructure.from_masks(n, masks)


def _block_images(n, block):
    """Images of |0> and |1> in block(n, block), block a player list or PlayerSubset.

    (|0..0> + |1..1>)/sqrt(2) and (|x> + |~x>)/sqrt(2), x having bit 1 on the block.
    Every block scheme is built here, so this refuses what the family does
    not cover: n outside 3..13, or a block that is empty or every player.
    """
    if not 3 <= n <= MAX_QUBITS - 1:
        raise SchemeError(f"block schemes are built for 3 <= n <= {MAX_QUBITS - 1}, got {n}")
    block = PlayerSubset.coerce(block, n)
    if block.bits == 0 or block.bits == (1 << n) - 1:
        raise SchemeError("block must be a nonempty proper subset of the players")
    dim = 1 << n
    x = sum(1 << (n - p) for p in block.players())
    images = np.zeros((2, dim), dtype=np.complex128)
    images[0, 0] = images[0, dim - 1] = 1 / np.sqrt(2)
    images[1, x] = images[1, (dim - 1) ^ x] = 1 / np.sqrt(2)
    return images


def build_block_scheme(n, block):
    """The block scheme of _block_images, with the identity assignment, and its access structure."""
    images = _block_images(n, block)
    block = PlayerSubset.coerce(block, n)
    name = f"block(n={n},b={{{','.join(map(str, block.players()))}}})"
    scheme = SchemeSpec(n, images, identity_assignment(n), name=name)
    return scheme, block_structure(n, block)


def build_threshold34():
    """The four-share scheme in which any three players recover the secret."""
    scheme, _ = build_block_scheme(4, _THRESHOLD34_BLOCK)
    scheme.name = "threshold34"
    return scheme


def induce_structure(scheme, base_gamma):
    """Access structure on players induced by the particle assignment.

    A player subset is authorized iff the particles it jointly holds are
    authorized in the base structure (base_gamma.authorized); dealer
    particles are out of reach.  Result is reduced to its minimal
    antichain and may be empty if no player subset qualifies.
    """
    if base_gamma.n != scheme.num_particles:
        raise SchemeError(
            f"base structure is over {base_gamma.n} particles, scheme has {scheme.num_particles}"
        )
    union = subset_unions(scheme.player_masks)
    return antichain_reduce(scheme.num_players, np.flatnonzero(base_gamma.authorized[union]).tolist())


def _is_transposition_symmetric(scheme, base_masks, i, j):
    """Whether swapping particles i and j (0-based) fixes the base masks and the images.

    The masks, a handful of ints, are tested first: most pairs fail on them.
    """
    swap = (1 << i) | (1 << j)
    swapped = {bm ^ swap if (bm >> i ^ bm >> j) & 1 else bm for bm in base_masks}
    if swapped != set(base_masks):
        return False
    tensor = scheme.basis_images.reshape((2,) + (2,) * scheme.num_particles)
    return np.array_equal(np.swapaxes(tensor, 1 + i, 1 + j), tensor)


def interchangeable_classes(scheme, base_gamma):
    """Particles grouped into classes that any permutation within a class leaves exact.

    Particles i and j are interchangeable when the transposition (i j)
    leaves the image tensor and the set of base-structure masks exactly
    unchanged.  These transpositions form a group, so the relation is an
    equivalence and each class is checked against its first particle only.
    Returns tuples of 1-based particles, ascending, ordered by first particle.
    """
    base_masks = base_gamma.masks()
    classes = []
    for p in range(scheme.num_particles):
        for cls in classes:
            if _is_transposition_symmetric(scheme, base_masks, cls[0], p):
                cls.append(p)
                break
        else:
            classes.append([p])
    return tuple(tuple(p + 1 for p in cls) for cls in classes)


@functools.cache
def _multisets(num_holders, size):
    """Read-only int8 table of the holder multisets of a size, one per row, ascending.

    Rows are in itertools.combinations_with_replacement order, that is,
    lexicographic; the table depends on the two counts only.
    """
    count = math.comb(num_holders + size - 1, size)
    rows = itertools.combinations_with_replacement(range(num_holders), size)
    table = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int8, count=count * size)
    table = table.reshape(count, size)
    table.flags.writeable = False
    return table


def _class_choices(cls, num_particles, num_holders):
    """Holder masks and grid-index terms of a class's choices, one per multiset of holders.

    A profile says how many particles of each class every holder gets.
    Its lexicographically least assignment gives the ascending particles
    of a class to the holders in ascending order, which is exactly one
    multiset of holders per class.  The grid row index of an assignment h
    is sum_p h(p) * H^(m - p), the sum of its classes' terms.  The masks
    are float64, exact below 2^53, so that unions are one BLAS matmul.
    """
    choice = _multisets(num_holders, len(cls))
    particles = np.array(cls, dtype=np.int64)
    bits = np.broadcast_to(np.left_shift(1, particles - 1), choice.shape)
    cells = choice + num_holders * np.arange(len(choice))[:, None]
    masks = np.bincount(cells.ravel(), bits.ravel(), minlength=len(choice) * num_holders)
    return masks.reshape(-1, num_holders), choice @ num_holders ** (num_particles - particles)


def _induced_matches(choices, base_authorized, target):
    """Holder masks and grid indices, by ascending index, of the profiles inducing the target.

    choices holds _class_choices for each class; a profile is one choice
    per class, its holder masks the sum of theirs, and holders past the
    target's players (DEALER) count toward no subset.  A profile's induced
    closure, base_authorized at the union of its masks over a subset's
    players, and the target's are both monotone, so they agree on every
    subset once they agree on the target's frontier: its minimal
    authorized sets and its nonempty maximal unauthorized sets.  (The
    empty set is unauthorized in both.)  Each particle of a class goes to
    one holder, so a set's union is the sum over classes of the class's
    union, which is the sum over the set's holders.  The first frontier
    set is tested on the whole product of choices; each other set in turn
    on the profiles that passed the sets before it, until none is left.
    Masks are summed for the matches only.
    """
    num_holders = choices[0][0].shape[1]
    frontier = np.array(target.masks() + tuple(_maximal_unauthorized(target).tolist()))
    authorized = np.arange(frontier.size) < len(target.masks())
    members = (frontier >> np.arange(num_holders)[:, None] & 1).astype(np.float64)
    # per class, one row per frontier set, one column per choice
    unions = [(members.T @ masks.T).astype(np.intp) for masks, _ in choices]
    first = functools.reduce(np.add.outer, [union[0] for union in unions]).ravel()
    rows = np.flatnonzero(base_authorized.take(first) == authorized[0])
    picks = np.unravel_index(rows, [union.shape[1] for union in unions])
    for k in range(1, frontier.size):
        if not len(picks[0]):
            break
        at = _sum_picks([union[k] for union in unions], picks)
        keep = base_authorized.take(at) == authorized[k]
        picks = [pick[keep] for pick in picks]
    masks = _sum_picks([masks for masks, _ in choices], picks).astype(np.int64)
    index = _sum_picks([index for _, index in choices], picks)
    order = np.argsort(index)
    return masks[order], index[order]


def _sum_picks(tables, picks):
    """Sum over classes of each class's table rows at its picks."""
    return functools.reduce(np.add, [table.take(p, axis=0) for table, p in zip(tables, picks)])


class SubsetEntropyTable:
    """Subsystem entropies of the purified scheme state, one float per particle bitmask.

    The global state over (R, particles) is pure, so S(RA) is the entropy
    of the particles outside A and one array over particle masks holds
    both S(A) and S(RA); NaN marks an entry not yet computed.  S(R) is the
    entry of all particles, which a read of mask 0 returns as its S(RA).
    Any player grouping only changes which unions are read, so entries are
    shared across assignments.  The reference is register "R" of the
    purified secret.  computed and entries_read count entries filled and
    looked up.
    """

    def __init__(self, state, num_particles):
        self._state = state
        self._full = (1 << num_particles) - 1
        self._s = np.full(1 << num_particles, np.nan)
        n = state.num_qubits
        self._bits = np.array(
            [1 << (n - 1 - state.layout.axis(label)) for label in particle_labels(num_particles)],
            dtype=np.int64,
        )
        self.computed = self.entries_read = 0

    def read(self, masks):
        """(S(A), S(RA)) of each particle mask A as two float arrays; S of no particles is 0.0.

        Missing entries of A and of its complement are computed in one
        cut_entropies call.
        """
        masks = np.asarray(masks, dtype=np.int64)
        others = self._full ^ masks
        wanted = np.zeros(self._s.shape, dtype=bool)
        wanted[masks] = wanted[others] = True
        missing = np.flatnonzero(wanted & np.isnan(self._s))
        self.computed += missing.size
        self.entries_read += 2 * masks.size
        if missing.size:
            keep = (missing[:, None] >> np.arange(len(self._bits)) & 1) @ self._bits
            self._s[missing] = cut_entropies(self._state, keep)
        return np.where(masks == 0, 0.0, self._s[masks]), self._s[others]


def _evaluate(table, player_masks, class_codes, tolerance):
    """The entropy-condition pass behind verify and the search, as VerificationReport fields.

    player_masks[i] is the particle bitmask of player i+1 and class_codes
    the claimed structure's class table (AccessStructure.class_codes).
    Returns s_s and the columns: every nonempty player subset's class,
    S(A), S(RA), I(R:A) and generalized-model condition ok, computed with
    the float operations of a per-subset pass, in its order.
    """
    # the unions include mask 0, whose S(RA) is the entropy of all particles: S(R)
    s_a_of, s_ra_of = table.read(subset_unions(player_masks))
    s_s = float(s_ra_of[0])
    classes, s_a, s_ra = class_codes[1:], s_a_of[1:], s_ra_of[1:]
    i_ra = (s_s + s_a) - s_ra
    ok = np.where(classes == AUTHORIZED, np.abs(i_ra - 2.0 * s_s) <= tolerance,
                  i_ra <= s_s + tolerance)
    return dict(s_s=s_s, classes=classes, s_a=s_a, s_ra=s_ra, i_ra=i_ra, ok=ok)


class PreparedBase:
    """A search base, a scheme with its structure over particles, and what searches on it share.

    The interchangeable classes, the class choices of each holder count and
    the subset-entropy table depend on the base only, not on the target or
    the assignment; each is computed when first needed and kept.
    """

    def __init__(self, scheme, structure):
        if structure.n != scheme.num_particles:
            raise SchemeError("base structure must be over the scheme's particles")
        self.scheme, self.structure = scheme, structure
        self._choices = {}

    @functools.cached_property
    def classes(self):
        return interchangeable_classes(self.scheme, self.structure)

    def choices(self, num_holders):
        """_class_choices of each class, in class order, for num_holders holders."""
        if num_holders not in self._choices:
            m = self.scheme.num_particles
            self._choices[num_holders] = tuple(
                _class_choices(cls, m, num_holders) for cls in self.classes
            )
        return self._choices[num_holders]

    @functools.cached_property
    def table(self):
        """The SubsetEntropyTable of the base's images."""
        return SubsetEntropyTable(distribute_purified(self.scheme), self.scheme.num_particles)


def search_assignment(base, target, allow_dealer, tolerance=DEFAULT_TOLERANCE):
    """Particle-to-holder search realizing the target structure.

    base is a PreparedBase, which shares its work across searches on the
    same scheme and structure over its particles.  Holders are the target's
    players P1..Pn, plus DEALER when allow_dealer is set, ordered
    P1 < ... < Pn < DEALER.  The search covers one assignment per holder
    profile of interchangeable particles (see interchangeable_classes): the
    lexicographically least one, since entropies and the induced structure
    are the same on every assignment of a profile.  Profiles whose induced
    structure equals the target are taken in the order of those assignments,
    and the first whose scheme passes the generalized entropy conditions
    (the pass that verify runs, on the base's entropy table) is
    returned as a holder->particles dict.  It is the first hit of an
    exhaustive scan of all holder^particles assignments in lexicographic
    particle order.  None means no assignment passes.
    """
    scheme, m = base.scheme, base.scheme.num_particles
    if not target.n <= m <= MAX_SEARCH_PARTICLES:
        raise SchemeError(
            f"search needs target players <= particles <= {MAX_SEARCH_PARTICLES}"
        )
    n = target.n
    holders = [f"P{i}" for i in range(1, n + 1)] + ([DEALER] if allow_dealer else [])
    choices = base.choices(len(holders))
    matches, _ = _induced_matches(choices, base.structure.authorized, target)
    evaluated, hit = 0, None
    # two disjoint authorized sets would clone the secret: no scheme passes
    if len(matches) and is_quantum_admissible(target):
        table = base.table
        for row in matches.tolist():
            evaluated += 1
            ev = _evaluate(table, row[:n], target.class_codes, tolerance)
            if ev["ok"].all():
                hit = row
                break
    _log.debug(
        "search %s for %s: classes %s, %d profile rows, %d induced matches, "
        "%d candidates evaluated, %s",
        scheme.name or "scheme", target, base.classes, math.prod(len(i) for _, i in choices),
        len(matches), evaluated, "hit" if hit is not None else "no hit",
    )
    if hit is None:
        return None
    return {
        holder: tuple(p + 1 for p in _bit_positions(mask)) for holder, mask in zip(holders, hit)
    }


def save_scheme(scheme):
    """Serialize a scheme to the JSON document structure."""
    m = scheme.num_particles
    images = {}
    for b, image in enumerate(scheme.basis_images):
        indices = np.flatnonzero(np.abs(image) > 1e-15)
        images[str(b)] = [
            {"ket": format(idx, f"0{m}b"), "re": float(amp.real), "im": float(amp.imag)}
            for idx, amp in zip(indices.tolist(), image[indices])
        ]
    return {
        "num_particles": m,
        "secret_dim": 2,
        "basis_images": images,
        "assignment": {h: list(ps) for h, ps in scheme.assignment.items()},
    }


def load_scheme(data, name=""):
    """Parse a decoded scheme JSON document, a dict; normalizes images, rejects non-isometries."""
    if not isinstance(data, dict):
        raise SchemeError("scheme document must be a JSON object")
    try:
        m = _json_int(data["num_particles"])
        if _json_int(data.get("secret_dim", 2)) != 2:
            raise SchemeError("only secret_dim = 2 is supported")
        raw_images = data["basis_images"]
        raw_assignment = data["assignment"]
        if m < 1:
            raise SchemeError(f"num_particles must be at least 1, got {m}")
        if m > MAX_QUBITS:
            raise ResourceLimitError(f"{m} particles exceed {MAX_QUBITS} qubits")
        images = np.zeros((2, 1 << m), dtype=np.complex128)
        for b in (0, 1):
            entries = raw_images.get(str(b))
            if not entries:
                raise SchemeError(f"no image entries for basis ket |{b}>")
            for entry in entries:
                ket = entry["ket"]
                if len(ket) != m or set(ket) - {"0", "1"}:
                    raise SchemeError(f"bad ket {ket!r} for {m} particles")
                re, im = entry["re"], entry["im"]
                if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (re, im)):
                    raise SchemeError(f"amplitude of ket {ket} is not a JSON number")
                re, im = float(re), float(im)
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise SchemeError(f"amplitude of ket {ket} is not finite")
                images[b, int(ket, 2)] = complex(re, im)
            norm = float(np.linalg.norm(images[b]))
            if norm == 0.0:
                raise SchemeError(f"image of |{b}> is the zero vector")
            if abs(norm - 1.0) > 1e-6:
                warnings.warn(
                    f"image of |{b}> had norm {norm:.6g}; normalized on load", stacklevel=2
                )
            if abs(norm - 1.0) > 1e-12:  # keep exact serializations bit-identical
                images[b] /= norm
        assignment = {h: tuple(_json_int(p) for p in ps) for h, ps in raw_assignment.items()}
    except (SchemeError, ResourceLimitError):  # both are ValueErrors, refused in their own words
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemeError(f"missing or bad field: {exc}") from exc
    return SchemeSpec(m, images, assignment, name=name)
