"""The assignment search over a materialized profile grid, for differential tests.

Every profile row is built in full, as one (rows x holders) table of
holder masks, and compared with the target on all 2^n player subsets.
The library's search scans the product of per-class holder choices and
tests the target's frontier only; both must give the same matches in the
same order, and so the same first hit.  The block structures that the
library lists in closed form are built here by reducing their whole
family to its minimal sets.
"""

import itertools

import numpy as np

from qsslab import verifier
from qsslab.qstate import DEFAULT_TOLERANCE
from qsslab.schemes import DEALER
from qsslab.structures import (
    PlayerSubset,
    _bit_positions,
    antichain_reduce,
    is_quantum_admissible,
    subset_unions,
)


def profile_rows(classes, num_particles, num_holders):
    """Holder masks and grid row index of each profile's least concrete assignment.

    A profile says how many particles of each class every holder gets.
    Its lexicographically least assignment gives the ascending particles
    of a class to the holders in ascending order, which is exactly one
    multiset of holders per class from combinations_with_replacement.
    The grid row index of an assignment h is sum_p h(p) * H^(m - p).
    """
    masks = np.zeros((1, num_holders), dtype=np.int64)
    index = np.zeros(1, dtype=np.int64)
    for cls in classes:
        choice = np.array(
            list(itertools.combinations_with_replacement(range(num_holders), len(cls))),
            dtype=np.int64,
        )
        cls_masks = np.zeros((len(choice), num_holders), dtype=np.int64)
        rows = np.arange(len(choice))
        for t, p in enumerate(cls):
            cls_masks[rows, choice[:, t]] |= 1 << (p - 1)
        weights = num_holders ** (num_particles - np.array(cls, dtype=np.int64))
        masks = (masks[:, None, :] | cls_masks[None, :, :]).reshape(-1, num_holders)
        index = (index[:, None] + (choice @ weights)[None, :]).reshape(-1)
    return masks, index


def induced_match_indices_by_subsets(masks, base_authorized, target):
    """The search filter over all 2^n player subsets: every row compared on every subset."""
    union = subset_unions(masks[:, j] for j in range(target.n))
    ok = np.ones(masks.shape[0], dtype=bool)
    for bits in range(1, 1 << target.n):
        ok &= base_authorized[union[bits]] == target.authorized[bits]
    return np.nonzero(ok)[0]


def grid_matches(classes, num_particles, num_holders, base_authorized, target):
    """Holder masks and grid indices of the rows inducing the target, by ascending index."""
    masks, index = profile_rows(classes, num_particles, num_holders)
    matches = induced_match_indices_by_subsets(masks, base_authorized, target)
    matches = matches[np.argsort(index[matches])]
    return masks[matches], index[matches]


def grid_search(base, target, allow_dealer, tolerance=DEFAULT_TOLERANCE):
    """search_assignment on a PreparedBase, with the matches taken from the full grid."""
    n = target.n
    holders = [f"P{i}" for i in range(1, n + 1)] + ([DEALER] if allow_dealer else [])
    masks, _ = grid_matches(
        base.classes, base.scheme.num_particles, len(holders), base.structure.authorized, target
    )
    if not is_quantum_admissible(target):
        return None
    for row in masks:
        player_masks = [int(h) for h in row[:n]]
        ev = verifier._evaluate(base.table, player_masks, target.class_codes, tolerance)
        if ev["ok"].all():
            return {
                holder: tuple(p + 1 for p in _bit_positions(int(mask)))
                for holder, mask in zip(holders, row)
            }
    return None


def block_structure(n, block):
    """Minimal sets of the block plus each outsider and the co-block plus each insider."""
    block = PlayerSubset.coerce(block, n)
    comp = block.complement().bits
    masks = [block.bits | (1 << pos) for pos in _bit_positions(comp)]
    masks += [comp | (1 << pos) for pos in _bit_positions(block.bits)]
    return antichain_reduce(n, masks)
