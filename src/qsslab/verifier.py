"""End-to-end verification of schemes against the secrecy models.

A scheme is verified on the purified maximally mixed secret: the global
state over (R, p1..pm) is built once and, for every nonempty player
subset A, the quantities S(A), S(RA), I(R:A) are computed.  Authorized
sets must reach full correlation I(R:A) = I(R:S); unauthorized sets are
held to the generalized bound I(R:A) <= S(S), or to I(R:A) = 0 under the
perfect model.
"""

import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .qstate import DEFAULT_TOLERANCE
from . import schemes
from .schemes import (
    PreparedBase,
    SchemeSpec,
    SubsetEntropyTable,
    _evaluate,
    build_block_scheme,
    distribute_purified,
    induce_structure,
    search_assignment,
)
from .structures import (
    A2,
    AUTHORIZED,
    CLASS_NAMES,
    HYPERSTAR_CATALOG,
    AccessStructure,
    PlayerSubset,
    StructureError,
    _admissible_classes,
    perfect_feasibility,
)


_log = logging.getLogger("qsslab.matrix")


class StructuralMismatchError(Exception):
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


@dataclass(eq=False)
class VerificationReport:
    """verify's verdicts.  Row b - 1 of the columns classes (codes into CLASS_NAMES), s_a,
    s_ra, i_ra and ok (the generalized-model condition) is the player subset of bitmask b.
    """

    scheme: str
    model: str
    i_rs: float
    s_s: float
    num_players: int
    classes: np.ndarray
    s_a: np.ndarray
    s_ra: np.ndarray
    i_ra: np.ndarray
    ok: np.ndarray
    verdict: str  # "perfect" | "generalized" | "fail"
    witness: PlayerSubset | None
    entropy_balanced: bool
    worst_balance_deviation: float
    meets_requested: bool
    requested_witness: PlayerSubset | None


def _report(table, scheme, gamma, model, tolerance):
    """verify's report, read from table, a SubsetEntropyTable of the scheme's basis images.

    The table does not depend on the assignment, so the matrix routes share one per base.
    """
    n = scheme.num_players
    if gamma.n != n:
        raise StructureError(f"structure is over {gamma.n} players but scheme has {n}")
    ev = _evaluate(table, scheme.player_masks, _admissible_classes(gamma), tolerance)
    classes, s_a, i_ra, ok = ev["classes"], ev["s_a"], ev["i_ra"], ev["ok"]
    i_rs = 2.0 * ev["s_s"]
    authorized = classes == AUTHORIZED
    failing = np.flatnonzero(~ok)
    if failing.size:
        verdict = "fail"
    elif (i_ra[~authorized] <= tolerance).all():
        verdict = "perfect"
    else:
        verdict = "generalized"
    mismatch = np.flatnonzero(~authorized & (np.abs(i_ra - i_rs) <= tolerance))
    if mismatch.size:
        row = int(mismatch[0])
        raise StructuralMismatchError(PlayerSubset(row + 1, n), float(i_ra[row]), i_rs)

    if model == "perfect":
        requested = np.flatnonzero(np.where(authorized, ~ok, i_ra > tolerance))
    else:
        requested = failing
    # row i's complement is row -2 - i, and no players have S = 0.0; fmax skips NaN as max() did
    complement = np.append(s_a[-2::-1], 0.0)
    worst = float(np.fmax.reduce(np.abs(s_a - complement)[classes == A2], initial=0.0))
    return VerificationReport(
        scheme=scheme.name or "scheme",
        model=model,
        i_rs=i_rs,
        num_players=n,
        **ev,
        verdict=verdict,
        witness=PlayerSubset(int(failing[0]) + 1, n) if failing.size else None,
        entropy_balanced=worst <= tolerance,
        worst_balance_deviation=worst,
        meets_requested=not requested.size,
        requested_witness=PlayerSubset(int(requested[0]) + 1, n) if requested.size else None,
    )


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
    table = SubsetEntropyTable(distribute_purified(scheme), scheme.num_particles)
    return _report(table, scheme, gamma, model, tolerance)


def _report_fields(report):
    """report_to_dict's document without its records."""
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
        "deviations": [],
    }


def report_to_dict(report):
    """JSON-ready document of a verification report, one record per nonempty player subset."""
    keys = ("class", "s_a", "s_ra", "i_ra", "pass")
    columns = zip(
        [CLASS_NAMES[code] for code in report.classes.tolist()], report.s_a.tolist(),
        report.s_ra.tolist(), report.i_ra.tolist(), report.ok.tolist(),
    )
    records = [
        {"subset": list(PlayerSubset(bits, report.num_players).players()), **dict(zip(keys, row))}
        for bits, row in enumerate(columns, 1)
    ]
    return {**_report_fields(report), "records": records}


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


def _search_bases(target_n):
    """Block-scheme bases scanned for redistribution, smallest first.

    Blocks and their complements generate identical schemes, so block
    sizes run only to half the particle count.
    """
    for m in range(max(3, target_n), schemes.MAX_SEARCH_PARTICLES + 1):
        for k in range(1, m // 2 + 1):
            yield m, tuple(range(1, k + 1))


def _routes(entry, prepared, tolerance):
    """Each realization route of a catalog entry as (label, base, assignment, scheme name), in order.

    The direct star with its own assignment, the documented recipe, then one search per
    _search_bases base, whose assignment is its hit or None; prepared(m, block) gives the bases.
    """
    if entry.number in DIRECT_STARS:
        n, center = DIRECT_STARS[entry.number]
        base = prepared(n, (center,))
        name = f"star(n={n},center={center})"
        yield f"direct star {name}", base, base.scheme.assignment, name
    if entry.number in DOCUMENTED_ASSIGNMENTS:
        (m, block), assignment = DOCUMENTED_ASSIGNMENTS[entry.number]
        base = prepared(m, block)
        yield (f"documented recipe over {base.scheme.name}", base, assignment,
               f"{base.scheme.name} via documented assignment")
    for m, block in _search_bases(entry.structure.n):
        base = prepared(m, block)
        hit = search_assignment(base, entry.structure, allow_dealer=True, tolerance=tolerance)
        yield f"search base (m={m}, k={len(block)})", base, hit, f"{base.scheme.name} via search"


def _try_assignment(base, assignment, target, name, tolerance):
    """Realization check of every matrix route on a PreparedBase: induce the target, then verify."""
    candidate = SchemeSpec(base.scheme.num_particles, base.scheme.basis_images, assignment, name)
    induced = induce_structure(candidate, base.structure)
    if induced.masks() != target.masks():
        return None, f"induces {induced} instead of {target}"
    try:
        report = _report(base.table, candidate, target, "generalized", tolerance)
    except StructuralMismatchError as exc:
        return None, f"induced structure matches but correlations do not: {exc}"
    if report.verdict not in ("perfect", "generalized"):
        return None, f"generalized conditions fail at {report.witness}"
    return (candidate, report), None


def feasibility_matrix(tolerance=DEFAULT_TOLERANCE):
    """Reproduce the perfect/generalized feasibility verdicts for the catalog, one MatrixRow each.

    Pure perfect feasibility comes from the A2 test; generalized feasibility is
    re-established constructively, by the first of _routes whose assignment
    passes _try_assignment: a direct star scheme where the structure is a
    star, a documented redistribution recipe where available (a rejected
    one is noted and corrected by search), then an exhaustive assignment
    search over block-scheme bases with at most schemes.MAX_SEARCH_PARTICLES
    particles, the search's own cap.  Absence of a construction is reported
    as "unknown".  Each block base (m, block), stars included, is prepared
    once per call and shared by every route.
    """
    rows, bases, searches = [], {}, 0

    def prepared(m, block):
        if (m, block) not in bases:
            bases[m, block] = PreparedBase(*build_block_scheme(m, block))
        return bases[m, block]

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
        for label, base, assignment, name in _routes(entry, prepared, tolerance):
            tried.append(label)
            searches += label.startswith("search")
            if assignment is None:
                continue
            result, failure = _try_assignment(base, assignment, gamma, name, tolerance)
            if result is not None:
                break
            if label.startswith("documented"):
                row.notes.append(
                    f"row {entry.number}: documented assignment {assignment} over "
                    f"{base.scheme.name} rejected ({failure}); corrected by search"
                )

        route = tried[-1] if result else f"none of {len(tried)} routes: {'; '.join(tried)}"
        _log.debug("row %d %s: %s", entry.number, gamma, route)
        if result is not None:
            scheme, report = result
            row.gqss = "verified"
            row.scheme_name = scheme.name
            row.assignment = {h: list(ps) for h, ps in scheme.assignment.items()}
            row.report_hash = report_hash(report)
        rows.append(row)
    # a cached_property is in the instance dict once computed
    tables = [vars(base)["table"] for base in bases.values() if "table" in vars(base)]
    _log.debug(
        "matrix: %d bases prepared, %d searches, %d entropy-table entries computed, %d read",
        len(bases), searches, sum(tb.computed for tb in tables),
        sum(tb.entries_read for tb in tables),
    )
    return rows


def matrix_to_dict(rows):
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
            for row in rows
        ]
    }
