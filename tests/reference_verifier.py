"""Entropy references for the verifier and state-engine tests.

verify only judges the maximally mixed secret.  entropy_profile runs the
same entropy pass at any distribution, with every subset classed
authorized, and returns (subset, S(A), S(RA), I(R:A)) tuples ordered by
subset bitmask.  register_entropy reads one register list's entropy off a
pure state through the cut oracle.  trace_density_matrix traces registers
out of a labelled density matrix, the input form partial_trace does not
take.

evaluate, report, report_doc and render are the verifier and the scheme
verify renderer as they were written before the pass went columnar: one
SubsetRecord per player subset, built in a Python loop over the bitmasks,
with the same float operations in the same order.  The differential tests
compare the columnar pass and the CLI's bytes against them.  report_records
reads a columnar report back as such records.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from qsslab.qstate import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    RegisterLayout,
    _keep_mask,
    cut_entropies,
)
from qsslab.schemes import distribute_purified
from qsslab.structures import (
    AUTHORIZED,
    CLASS_NAMES,
    PlayerSubset,
    StructureError,
    _admissible_classes,
    subset_unions,
)
from qsslab.verifier import StructuralMismatchError, SubsetEntropyTable


@dataclass(frozen=True)
class SubsetRecord:
    """Entropy record of one player subset with its classification."""

    subset: PlayerSubset
    classification: str  # "authorized" | "A1" | "A2"
    s_a: float
    s_ra: float
    i_ra: float
    condition_pass: bool


@dataclass(frozen=True)
class Evaluation:
    s_s: float
    records: list
    failing: list
    verdict: str
    mismatch: SubsetRecord | None
    worst_balance: float


def evaluate(table, player_masks, class_codes, tolerance):
    """The entropy-condition pass, one record per nonempty player subset."""
    n = len(player_masks)
    s_a_of, s_ra_of = (np.asarray(col).tolist() for col in table.read(subset_unions(player_masks)))
    s_s = s_ra_of[0]
    i_rs = 2.0 * s_s
    records = []
    for bits, code in enumerate(class_codes.tolist()[1:], 1):
        s_a, s_ra = s_a_of[bits], s_ra_of[bits]
        i_ra = s_s + s_a - s_ra
        if code == AUTHORIZED:
            ok = abs(i_ra - i_rs) <= tolerance
        else:
            ok = i_ra <= s_s + tolerance
        records.append(SubsetRecord(PlayerSubset(bits, n), CLASS_NAMES[code], s_a, s_ra, i_ra, ok))

    unauthorized = [r for r in records if r.classification != "authorized"]
    mismatch = next((r for r in unauthorized if abs(r.i_ra - i_rs) <= tolerance), None)
    failing = [r for r in records if not r.condition_pass]
    if failing:
        verdict = "fail"
    elif all(r.i_ra <= tolerance for r in unauthorized):
        verdict = "perfect"
    else:
        verdict = "generalized"

    full = (1 << n) - 1
    devs = [abs(r.s_a - s_a_of[full ^ r.subset.bits]) for r in records if r.classification == "A2"]
    return Evaluation(s_s, records, failing, verdict, mismatch, max([0.0, *devs]))


@dataclass
class Report:
    scheme: str
    model: str
    i_rs: float
    s_s: float
    records: list
    verdict: str
    witness: PlayerSubset | None
    entropy_balanced: bool
    worst_balance_deviation: float
    meets_requested: bool
    requested_witness: PlayerSubset | None


def report(scheme, gamma, model="generalized", tolerance=DEFAULT_TOLERANCE, table=None):
    """verify's report with its records, or the StructuralMismatchError verify raises.

    table defaults to the SubsetEntropyTable of the scheme's purified state.
    """
    n = scheme.num_players
    if gamma.n != n:
        raise StructureError(f"structure is over {gamma.n} players but scheme has {n}")
    codes = _admissible_classes(gamma)
    if table is None:
        table = SubsetEntropyTable(distribute_purified(scheme), scheme.num_particles)
    ev = evaluate(table, scheme.player_masks, codes, tolerance)
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
    return Report(
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


def report_doc(rep):
    """The JSON document of a reference report, records built one dict per subset."""
    return {
        "scheme": rep.scheme,
        "model": rep.model,
        "i_rs": rep.i_rs,
        "s_s": rep.s_s,
        "verdict": rep.verdict,
        "witness": list(rep.witness.players()) if rep.witness else None,
        "entropy_balanced": rep.entropy_balanced,
        "worst_balance_deviation": rep.worst_balance_deviation,
        "meets_requested": rep.meets_requested,
        "requested_witness": (
            list(rep.requested_witness.players()) if rep.requested_witness else None
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
            for r in rep.records
        ],
        "deviations": [],
    }


def report_hash(rep):
    doc = json.dumps(report_doc(rep), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


def report_records(report):
    """A verify report's columns as one SubsetRecord per nonempty player subset, by bitmask."""
    n = report.num_players
    columns = zip(
        report.classes.tolist(), report.s_a.tolist(), report.s_ra.tolist(),
        report.i_ra.tolist(), report.ok.tolist(),
    )
    return [
        SubsetRecord(PlayerSubset(bits, n), CLASS_NAMES[code], s_a, s_ra, i_ra, ok)
        for bits, (code, s_a, s_ra, i_ra, ok) in enumerate(columns, 1)
    ]


def _fmt(x):
    return f"{x:.12g}"


def render(rep, fmt):
    """scheme verify's stdout for a reference report, without the trailing newline."""
    if fmt == "json":
        return json.dumps(report_doc(rep), indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["subset;class;s_a;s_ra;i_ra;pass"]
        for r in rep.records:
            subset = " ".join(str(p) for p in r.subset.players())
            lines.append(
                f"{subset};{r.classification};{_fmt(r.s_a)};{_fmt(r.s_ra)};"
                f"{_fmt(r.i_ra)};{r.condition_pass}"
            )
        return "\n".join(lines)
    lines = [
        f"scheme {rep.scheme}: verdict {rep.verdict} "
        f"(requested {rep.model}: {'pass' if rep.meets_requested else 'FAIL'})",
        f"I(R:S)={_fmt(rep.i_rs)}  S(S)={_fmt(rep.s_s)}  "
        f"entropy balanced: {rep.entropy_balanced}",
    ]
    for r in rep.records:
        lines.append(
            f"  {str(r.subset):16s} {r.classification:10s} "
            f"I(R:A)={_fmt(r.i_ra):14s} {'ok' if r.condition_pass else 'FAIL'}"
        )
    return "\n".join(lines)


def entropy_profile(scheme, probabilities=(0.5, 0.5)):
    table = SubsetEntropyTable(distribute_purified(scheme, probabilities), scheme.num_particles)
    codes = np.full(1 << scheme.num_players, AUTHORIZED, dtype=np.int8)
    ev = evaluate(table, scheme.player_masks, codes, DEFAULT_TOLERANCE)
    return [(r.subset, r.s_a, r.s_ra, r.i_ra) for r in ev.records]


def register_entropy(state, regs):
    """Entropy of a pure state's reduced state on the given registers, as one cut."""
    return float(cut_entropies(state, [_keep_mask(state.layout, regs)])[0])


def trace_density_matrix(dm, keep):
    """Reduced state of a labelled density matrix on the kept registers, in label order."""
    layout = RegisterLayout(dm.labels)
    keep_ax = layout.axes(keep)
    env_ax = tuple(a for a in range(layout.num_qubits) if a not in keep_ax)
    k, e = len(keep_ax), len(env_ax)
    n = layout.num_qubits
    order = keep_ax + env_ax
    t = dm.matrix.reshape((2,) * (2 * n))
    t = t.transpose(order + tuple(n + a for a in order))
    t = t.reshape(1 << k, 1 << e, 1 << k, 1 << e)
    kept_labels = tuple(layout.labels[a] for a in keep_ax)
    return DensityMatrix(np.einsum("iaja->ij", t), labels=kept_labels)
