"""Per-subset entropy records of a scheme at any secret distribution.

verify only judges the maximally mixed secret.  This helper runs the same
entropy pass at any distribution, with every subset classed authorized,
and returns (subset, S(A), S(RA), I(R:A)) tuples ordered by subset bitmask.
"""

from qsslab.qstate import DEFAULT_TOLERANCE
from qsslab.schemes import distribute_purified
from qsslab.verifier import SubsetEntropyTable, _evaluate, _player_masks


def entropy_profile(scheme, probabilities=(0.5, 0.5)):
    table = SubsetEntropyTable(distribute_purified(scheme, probabilities), scheme.num_particles)
    classes = ("authorized",) * (1 << scheme.num_players)
    ev = _evaluate(table, _player_masks(scheme), classes, DEFAULT_TOLERANCE)
    return [(r.subset, r.s_a, r.s_ra, r.i_ra) for r in ev.records]
