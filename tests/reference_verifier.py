"""Entropy references for the verifier and state-engine tests.

verify only judges the maximally mixed secret.  entropy_profile runs the
same entropy pass at any distribution, with every subset classed
authorized, and returns (subset, S(A), S(RA), I(R:A)) tuples ordered by
subset bitmask.  register_entropy reads one register list's entropy off a
pure state through the cut oracle.
"""

import numpy as np

from qsslab.qstate import DEFAULT_TOLERANCE, _keep_mask, cut_entropies
from qsslab.schemes import distribute_purified
from qsslab.structures import AUTHORIZED
from qsslab.verifier import SubsetEntropyTable, _evaluate


def entropy_profile(scheme, probabilities=(0.5, 0.5)):
    table = SubsetEntropyTable(distribute_purified(scheme, probabilities), scheme.num_particles)
    codes = np.full(1 << scheme.num_players, AUTHORIZED, dtype=np.int8)
    ev = _evaluate(table, scheme.player_masks, codes, DEFAULT_TOLERANCE)
    return [(r.subset, r.s_a, r.s_ra, r.i_ra) for r in ev.records]


def register_entropy(state, regs):
    """Entropy of a pure state's reduced state on the given registers, as one cut."""
    return float(cut_entropies(state, [_keep_mask(state.layout, regs)])[0])
