"""End-to-end verification of schemes against the secrecy models.

A scheme is verified on the purified maximally mixed secret: the global
state over (R, p1..pm) is built once and, for every nonempty player
subset A, the quantities S(A), S(RA), I(R:A) are computed.  Authorized
sets must reach full correlation I(R:A) = I(R:S); unauthorized sets are
held to the generalized bound I(R:A) <= S(S), or to I(R:A) = 0 under the
perfect model.

A subset-entropy table holds one entropy per particle bitmask, filled in
bulk by qstate.cut_entropies; since the global state is pure, S(RA) is
read as the entropy of the particles outside A.  Re-grouping particles
under different player assignments (the redistribution search) costs
table reads only.
"""

import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .qstate import DEFAULT_TOLERANCE, cut_entropies
from . import schemes
from .schemes import (
    SchemeSpec,
    build_block_scheme,
    build_star_scheme,
    distribute_purified,
    induce_structure,
    particle_labels,
    search_assignment,
)
from .structures import (
    HYPERSTAR_CATALOG,
    AccessStructure,
    PlayerSubset,
    StructureError,
    _admissible_classes,
    perfect_feasibility,
    subset_unions,
)


_log = logging.getLogger("qsslab.matrix")


class VerificationError(Exception):
    """Verification could not be carried out."""


class StructuralMismatchError(VerificationError):
    """The scheme realizes a different access structure than claimed.

    Raised when an unauthorized subset attains full correlation with the
    reference; reporting that as a secrecy failure would bury the real
    problem, which is that the claimed structure is wrong.
    """

    def __init__(self, witness, i_ra, i_rs):
        self.witness = witness
        self.i_ra = i_ra
        self.i_rs = i_rs
        super().__init__(
            f"unauthorized subset {witness} attains full correlation "
            f"I(R:A)={i_ra:.9f} = I(R:S)={i_rs:.9f}; claimed structure mismatches the scheme"
        )


class SubsetEntropyTable:
    """Subsystem entropies of the purified scheme state, one float per particle bitmask.

    The global state over (R, particles) is pure, so S(RA) is the entropy
    of the particles outside A and one array over particle masks holds
    both S(A) and S(RA); NaN marks an entry not yet computed.  Any player
    grouping only changes which unions are read, so entries are shared
    across assignments.  The reference is register "R" of the purified
    secret.
    """

    def __init__(self, state, num_particles):
        self._state = state
        self._full = (1 << num_particles) - 1
        self._s = np.full(1 << num_particles, np.nan)
        n = state.num_qubits
        self._bits = [
            1 << (n - 1 - state.layout.axis(label)) for label in particle_labels(num_particles)
        ]
        self.s_ref = self.read([0])[1][0]

    def read(self, masks):
        """(S(A), S(RA)) of each particle mask A as two float lists; S of no particles is 0.0.

        Missing entries of A and of its complement are computed in one
        cut_entropies call.
        """
        masks = np.asarray(masks, dtype=np.int64)
        others = self._full ^ masks
        wanted = np.zeros(self._s.shape, dtype=bool)
        wanted[masks] = wanted[others] = True
        missing = np.flatnonzero(wanted & np.isnan(self._s))
        if missing.size:
            keep = np.zeros(missing.shape, dtype=np.int64)
            for i, bit in enumerate(self._bits):
                keep |= (missing >> i & 1) * bit
            self._s[missing] = cut_entropies(self._state, keep)
        return np.where(masks == 0, 0.0, self._s[masks]).tolist(), self._s[others].tolist()

    def s(self, mask):
        return self.read([mask])[0][0]

    def s_with_ref(self, mask):
        return self.read([mask])[1][0]


@dataclass(frozen=True)
class SubsetRecord:
    """Entropy record of one player subset with its classification."""

    subset: PlayerSubset
    classification: str  # "authorized" | "A1" | "A2"
    s_a: float
    s_ra: float
    i_ra: float
    condition_pass: bool


@dataclass
class VerificationReport:
    scheme: str
    model: str
    i_rs: float
    s_s: float
    records: list
    verdict: str  # "perfect" | "generalized" | "fail"
    witness: PlayerSubset | None
    entropy_balanced: bool
    worst_balance_deviation: float
    meets_requested: bool
    requested_witness: PlayerSubset | None

    def record_for(self, players):
        bits = PlayerSubset.from_players(players, self.records[0].subset.n).bits
        for r in self.records:
            if r.subset.bits == bits:
                return r
        raise KeyError(players)


@dataclass(frozen=True)
class _Evaluation:
    """One player grouping of a scheme state, judged subset by subset."""

    s_s: float
    records: list
    failing: list
    verdict: str  # "perfect" | "generalized" | "fail"
    mismatch: SubsetRecord | None  # first unauthorized subset at full correlation
    worst_balance: float
    balance_witness: PlayerSubset | None  # first A2 member with the worst deviation


def _evaluate(table, player_masks, classes, tolerance):
    """The entropy-condition pass behind verify, the balance check, the profile and the search.

    player_masks[i] is the particle bitmask of player i+1 and classes the
    claimed structure's class table (AccessStructure.subset_classes).  Every
    nonempty player subset gets a record with its generalized-model
    condition; the A2 entropy balance S(A) = S(complement of A) is measured
    on the same table.
    """
    n = len(player_masks)
    s_s = table.s_ref
    i_rs = 2.0 * s_s
    union = subset_unions(player_masks)
    s_a_of, s_ra_of = table.read(union)
    records = []
    for bits in range(1, 1 << n):
        s_a, s_ra = s_a_of[bits], s_ra_of[bits]
        i_ra = s_s + s_a - s_ra
        cls = classes[bits]
        if cls == "authorized":
            ok = abs(i_ra - i_rs) <= tolerance
        else:
            ok = i_ra <= s_s + tolerance
        records.append(SubsetRecord(PlayerSubset(bits, n), cls, s_a, s_ra, i_ra, ok))

    unauthorized = [r for r in records if r.classification != "authorized"]
    mismatch = next((r for r in unauthorized if abs(r.i_ra - i_rs) <= tolerance), None)
    failing = [r for r in records if not r.condition_pass]
    if failing:
        verdict = "fail"
    elif all(r.i_ra <= tolerance for r in unauthorized):
        verdict = "perfect"
    else:
        verdict = "generalized"

    worst, witness, full = 0.0, None, (1 << n) - 1
    for r in records:
        if r.classification == "A2":
            dev = abs(r.s_a - s_a_of[full ^ r.subset.bits])
            if dev > worst:
                worst, witness = dev, r.subset
    return _Evaluation(s_s, records, failing, verdict, mismatch, worst, witness)


def _player_masks(scheme):
    return [scheme.particle_mask(f"P{i}") for i in range(1, scheme.num_players + 1)]


def _evaluate_scheme(scheme, gamma, tolerance):
    """Run the pass on a scheme as distributed, against a claimed structure."""
    n = scheme.num_players
    if gamma.n != n:
        raise StructureError(f"structure is over {gamma.n} players but scheme has {n}")
    table = SubsetEntropyTable(distribute_purified(scheme), scheme.num_particles)
    classes = _admissible_classes(gamma)
    ev = _evaluate(table, _player_masks(scheme), classes, tolerance)
    # a perfect verdict over a structure with nonempty A2 would contradict the
    # feasibility theorem; reaching this means the numerics are inconsistent
    if ev.verdict == "perfect" and "A2" in classes[1:]:
        raise VerificationError(
            "perfect verdict with nonempty A2 contradicts perfect-infeasibility"
        )
    return ev


def verify(scheme, gamma, model="generalized", tolerance=DEFAULT_TOLERANCE):
    """Full verification of a scheme against a claimed access structure.

    Builds the purified maximally mixed secret, distributes it, and
    evaluates every nonempty player subset.  Raises
    StructuralMismatchError when some unauthorized subset attains full
    correlation (the scheme's real structure differs from gamma);
    otherwise reports the strongest verdict earned plus the pass/fail of
    the requested model.
    """
    if model not in ("perfect", "generalized"):
        raise ValueError(f"unknown model {model!r}")
    ev = _evaluate_scheme(scheme, gamma, tolerance)
    i_rs = 2.0 * ev.s_s
    if ev.mismatch is not None:
        raise StructuralMismatchError(ev.mismatch.subset, ev.mismatch.i_ra, i_rs)

    if model == "perfect":
        requested_fail = [
            r
            for r in ev.records
            if (r.classification == "authorized" and not r.condition_pass)
            or (r.classification != "authorized" and r.i_ra > tolerance)
        ]
    else:
        requested_fail = ev.failing

    return VerificationReport(
        scheme=scheme.name or "scheme",
        model=model,
        i_rs=i_rs,
        s_s=ev.s_s,
        records=ev.records,
        verdict=ev.verdict,
        witness=ev.failing[0].subset if ev.failing else None,
        entropy_balanced=ev.worst_balance <= tolerance,
        worst_balance_deviation=ev.worst_balance,
        meets_requested=not requested_fail,
        requested_witness=requested_fail[0].subset if requested_fail else None,
    )


@dataclass(frozen=True)
class BalanceResult:
    """Entropy balance S(A) = S(complement of A) over the A2 members."""

    balanced: bool
    worst_deviation: float
    witness: PlayerSubset | None
    generalized_ok: bool
    agrees_with_verify: bool


def check_entropy_balance(scheme, gamma, tolerance=DEFAULT_TOLERANCE):
    """Check S(A) = S(A-complement) for every A in A2 and compare with verify.

    Complements are taken over the players; dealer particles belong to
    neither side and stay traced out.  For dealer-free schemes this
    balance is equivalent to the generalized verdict being attainable.
    """
    ev = _evaluate_scheme(scheme, gamma, tolerance)
    balanced = ev.worst_balance <= tolerance
    ok = ev.mismatch is None and ev.verdict != "fail"
    return BalanceResult(balanced, ev.worst_balance, ev.balance_witness, ok, balanced == ok)


def entropy_profile(scheme, probabilities=(0.5, 0.5)):
    """Per-subset entropy records for an arbitrary secret distribution.

    Sensitivity companion to verify: verdicts are only defined at the
    maximally mixed secret, but the correlation landscape at other
    distributions is often worth inspecting.  Returns a list of
    (subset, s_a, s_ra, i_ra) tuples ordered by subset bitmask.
    """
    table = SubsetEntropyTable(distribute_purified(scheme, probabilities), scheme.num_particles)
    classes = ("authorized",) * (1 << scheme.num_players)
    ev = _evaluate(table, _player_masks(scheme), classes, DEFAULT_TOLERANCE)
    return [(r.subset, r.s_a, r.s_ra, r.i_ra) for r in ev.records]


def report_to_dict(report):
    """JSON-ready document of a verification report."""
    return {
        "scheme": report.scheme,
        "model": report.model,
        "i_rs": report.i_rs,
        "s_s": report.s_s,
        "verdict": report.verdict,
        "witness": list(report.witness.players()) if report.witness else None,
        "entropy_balanced": report.entropy_balanced,
        "worst_balance_deviation": report.worst_balance_deviation,
        "meets_requested": report.meets_requested,
        "requested_witness": (
            list(report.requested_witness.players()) if report.requested_witness else None
        ),
        "records": [
            {
                "subset": list(r.subset.players()),
                "class": r.classification,
                "s_a": r.s_a,
                "s_ra": r.s_ra,
                "i_ra": r.i_ra,
                "pass": r.condition_pass,
            }
            for r in report.records
        ],
        "deviations": [],
    }


def report_hash(report):
    doc = json.dumps(report_to_dict(report), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


#: Redistribution recipes documented alongside the catalog, re-validated here.
DOCUMENTED_ASSIGNMENTS = {
    5: ((6, (1, 2, 3)), {"P1": (1, 4), "P2": (2, 3), "P3": (5,), "P4": (6,)}),
    7: ((5, (1, 2)), {"P1": (2,), "P2": (3,), "P3": (4,), "P4": (5,), "DEALER": (1,)}),
    13: ((6, (1, 2, 3)), {"P1": (1, 4), "P2": (2,), "P3": (3,), "P4": (5,), "P5": (6,)}),
    14: ((7, (1, 2, 3)), {"P1": (1, 5), "P2": (2, 4), "P3": (3,), "P4": (6,), "P5": (7,)}),
}

#: Rows realized directly by a star construction.
DIRECT_STARS = {2: (3, 1), 4: (4, 1), 8: (5, 1)}


@dataclass
class MatrixRow:
    number: int
    players: int
    structure: AccessStructure
    pqss_feasible: bool
    pqss_witness: PlayerSubset | None
    gqss: str  # "verified" | "unknown"
    scheme_name: str | None
    assignment: dict | None
    report_hash: str | None
    notes: list = field(default_factory=list)


@dataclass
class MatrixReport:
    rows: list


def _search_bases(target_n):
    """Block-scheme bases scanned for redistribution, smallest first.

    Blocks and their complements generate identical schemes, so block
    sizes run only to half the particle count.
    """
    for m in range(max(3, target_n), schemes.MAX_SEARCH_PARTICLES + 1):
        for k in range(1, m // 2 + 1):
            yield m, tuple(range(1, k + 1))


def _try_assignment(base_scheme, base_gamma, assignment, target, name, tolerance):
    """Realization check of every matrix route: the target is induced and verified."""
    candidate = SchemeSpec(base_scheme.num_particles, base_scheme.basis_images, assignment, name)
    induced = induce_structure(candidate, base_gamma)
    if induced.masks() != target.masks():
        return None, f"induces {induced} instead of {target}"
    try:
        report = verify(candidate, target, "generalized", tolerance)
    except StructuralMismatchError as exc:
        return None, f"induced structure matches but correlations do not: {exc}"
    if report.verdict not in ("perfect", "generalized"):
        return None, f"generalized conditions fail at {report.witness}"
    return (candidate, report), None


def feasibility_matrix(tolerance=DEFAULT_TOLERANCE):
    """Reproduce the perfect/generalized feasibility verdicts for the catalog.

    Perfect feasibility comes from the A2 test; generalized feasibility is
    re-established constructively: direct star schemes where the structure
    is a star, documented redistribution recipes where available (re-checked,
    with failures flagged and corrected by search), and otherwise an
    exhaustive assignment search over block-scheme bases with at most
    schemes.MAX_SEARCH_PARTICLES particles, the search's own cap.  Absence
    of a construction is reported as "unknown".
    """
    rows = []
    for entry in HYPERSTAR_CATALOG:
        gamma = entry.structure
        feas = perfect_feasibility(gamma)
        row = MatrixRow(
            number=entry.number,
            players=gamma.n,
            structure=gamma,
            pqss_feasible=feas.feasible,
            pqss_witness=feas.witness,
            gqss="unknown",
            scheme_name=None,
            assignment=None,
            report_hash=None,
        )

        result, tried = None, []
        if entry.number in DIRECT_STARS:
            scheme, built = build_star_scheme(*DIRECT_STARS[entry.number])
            tried.append(f"direct star {scheme.name}")
            result, _ = _try_assignment(
                scheme, built, scheme.assignment, gamma, scheme.name, tolerance
            )

        if result is None and entry.number in DOCUMENTED_ASSIGNMENTS:
            (m, block), assignment = DOCUMENTED_ASSIGNMENTS[entry.number]
            base_scheme, base_gamma = build_block_scheme(m, block)
            tried.append(f"documented recipe over {base_scheme.name}")
            result, failure = _try_assignment(
                base_scheme, base_gamma, assignment, gamma,
                f"{base_scheme.name} via documented assignment", tolerance,
            )
            if failure:
                row.notes.append(
                    f"row {entry.number}: documented assignment {assignment} over "
                    f"{base_scheme.name} rejected ({failure}); corrected by search"
                )

        if result is None:
            for m, block in _search_bases(gamma.n):
                tried.append(f"search base (m={m}, k={len(block)})")
                base_scheme, base_gamma = build_block_scheme(m, block)
                assignment = search_assignment(
                    (base_scheme, base_gamma), gamma, allow_dealer=True, tolerance=tolerance
                )
                if assignment is not None:
                    result, _ = _try_assignment(
                        base_scheme, base_gamma, assignment, gamma,
                        f"{base_scheme.name} via search", tolerance,
                    )
                    break

        route = tried[-1] if result else f"none of {len(tried)} routes: {'; '.join(tried)}"
        _log.debug("row %d %s: %s", entry.number, gamma, route)
        if result is not None:
            scheme, report = result
            row.gqss = "verified"
            row.scheme_name = scheme.name
            row.assignment = {h: list(ps) for h, ps in scheme.assignment.items()}
            row.report_hash = report_hash(report)
        rows.append(row)
    return MatrixReport(rows)


def matrix_to_dict(matrix):
    return {
        "rows": [
            {
                "no": row.number,
                "players": row.players,
                "structure": [list(s.players()) for s in row.structure.minimal_sets],
                "pqss": "feasible" if row.pqss_feasible else "infeasible",
                "pqss_witness": list(row.pqss_witness.players()) if row.pqss_witness else None,
                "gqss": row.gqss,
                "scheme": row.scheme_name,
                "assignment": row.assignment,
                "report_hash": row.report_hash,
                "notes": list(row.notes),
            }
            for row in matrix.rows
        ]
    }
