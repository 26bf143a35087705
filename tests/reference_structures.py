"""References by definition for structure and relabeling tests.

Each helper works from the minimal sets or the basis images directly, so
the tests can check the library's class tables, canonical keys and
searches against something that does not share their code.
"""

import itertools

import numpy as np

from qsslab.schemes import SchemeSpec


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


def up_closure_by_passes(n, masks):
    """Bool table over the 2^n subsets, one OR pass per player on the bool entries."""
    table = np.zeros(1 << n, dtype=bool)
    table[list(masks)] = True
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        pairs[:, 1] |= pairs[:, 0]
    return table


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
