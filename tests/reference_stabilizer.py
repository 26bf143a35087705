"""The five-qubit code and exact GF(2) entropies of the purified scheme states.

five_qubit_images builds the [[5,1,3]] code from its stabilizer
generators XZZXI and cyclic shifts: logical |0> is the projection of
|00000> onto the code space, normalized, and logical |1> is XXXXX|0>.

The purified state of a scheme lives on (R, p1..pm), R the most
significant bit as in distribute_purified.  A subset A of these qubits is
a bitmask in that order, the mask cut_entropies takes.  Two families have
exact entropies:

- block, star and threshold34 schemes purify to the uniform superposition
  over a GF(2) subspace, span{(R=1, x), (R=0, 1...1)}, x the block's bit
  pattern.  For a uniform superposition over the span of k independent
  rows G, S(A) = rank(G_A) + rank(G_Abar) - k.
- the five-qubit code purifies to a stabilizer state with six generators:
  the four code generators with I on R, X_R XXXXX and Z_R ZZZZZ.  For a
  stabilizer state, S(A) = rank of the check matrix restricted to A,
  minus |A| (Fattal et al., quant-ph/0406168).
"""

import numpy as np

from qsslab.schemes import SchemeSpec

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
_PAULI = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}


def pauli_matrix(word):
    """Dense matrix of an I/X/Z word, its first letter on the most significant qubit."""
    out = np.ones((1, 1))
    for letter in word:
        out = np.kron(out, _PAULI[letter])
    return out


def five_qubit_images():
    """Logical |0> and |1> of the five-qubit code as a (2, 32) array, qubit 1 most significant."""
    projector = np.eye(32)
    for word in FIVE_QUBIT_GENERATORS:
        projector = projector @ (np.eye(32) + pauli_matrix(word)) / 2
    zero = projector[:, 0] / np.linalg.norm(projector[:, 0])
    return np.array([zero, pauli_matrix("XXXXX") @ zero], dtype=np.complex128)


def five_qubit_scheme(assignment):
    """The five-qubit code with the given particle-to-holder assignment."""
    return SchemeSpec(5, five_qubit_images(), assignment, "five")


def gf2_rank(rows):
    """Rank over GF(2) of bit rows given as nonnegative ints."""
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [row ^ pivot if row & low else row for row in rows]
    return rank


def block_generators(m, block):
    """GF(2) rows of the purified block(m, block) state over (R, p1..pm): (1, x) and (0, 1...1)."""
    x = sum(1 << (m - p) for p in block)
    return [(1 << m) | x, (1 << m) - 1]


def subspace_entropy(generators, mask):
    """S(A) of the uniform superposition over the span of independent GF(2) rows."""
    inside = gf2_rank(g & mask for g in generators)
    outside = gf2_rank(g & ~mask for g in generators)
    return inside + outside - len(generators)


def pauli_bits(word):
    """(x, z) bit rows of an I/X/Z word, its first letter the most significant bit."""
    x = z = 0
    for letter in word:
        x, z = x << 1 | (letter == "X"), z << 1 | (letter == "Z")
    return x, z


#: The check rows of the purified five-qubit state over (R, p1..p5).
FIVE_QUBIT_PURIFIED_CHECKS = [pauli_bits("I" + word) for word in FIVE_QUBIT_GENERATORS] + [
    pauli_bits("XXXXXX"), pauli_bits("ZZZZZZ"),
]


def stabilizer_entropy(checks, num_qubits, mask):
    """S(A) of the stabilizer state of num_qubits independent (x, z) check rows."""
    restricted = ((x & mask) << num_qubits | (z & mask) for x, z in checks)
    return gf2_rank(restricted) - bin(mask).count("1")
