"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 structural mismatch,
4 verification failure, 5 resource limit.
"""

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import protocols, qstate, schemes, structures, verifier

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_VERIFICATION = 4
EXIT_RESOURCE = 5


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _fmt(x):
    return f"{x:.12g}"


def _read_json(path, kind):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"{kind} file not found: {path}", EXIT_INPUT) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"{kind} file {path} is not valid JSON: {exc}", EXIT_INPUT) from None


def _load_structure(path):
    try:
        return structures.load_structure(_read_json(path, "structure"))
    except structures.StructureError as exc:
        raise CliError(f"bad structure {path}: {exc}", EXIT_INPUT) from None


def _load_scheme(path):
    try:
        return schemes.load_scheme(_read_json(path, "scheme"), name=Path(path).stem)
    except schemes.SchemeError as exc:
        raise CliError(f"bad scheme {path}: {exc}", EXIT_INPUT) from None


def _emit(pieces, out):
    """Write the pieces with one writelines: to the file out, or else to sys.stdout as it is now.

    stdout gets a final line break; the file gets one unless the text ends with one.
    """
    if out:
        ends = next((p for p in reversed(pieces) if p), "").endswith("\n")
        with Path(out).open("w") as f:  # Path.write_text's mode and encoding
            f.writelines(pieces if ends else pieces + ["\n"])
    else:
        sys.stdout.writelines(pieces + ["\n"])


#: json's own rules for the scalars _dump leaves to it: NaN and the
#: infinities, and subclasses of int and float such as numpy.float64
_encode_scalar = json.JSONEncoder().encode


class _Fragment(list):
    """Pieces of JSON text that _dump splices in as they stand, indented for their depth."""


def _dump(doc):
    """doc exactly as json.dumps(doc, indent=2, sort_keys=True) writes it, as a list of str pieces.

    On CPython json only uses its C encoder without an indent; with one,
    every item passes up through nested Python generators.  This writer
    joins each container of scalars into one piece instead and appends
    the rest to one list, a _Fragment's pieces by reference, so no text
    is copied again once it is a piece.  Keys must be str; values json
    cannot encode raise TypeError, as they do in json.
    """
    pieces = []
    _json_text(doc, "\n", "", pieces)
    return pieces


def _scalar_text(value):
    """A scalar as _dump writes it; None for a container."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    cls = type(value)
    if cls is int or (cls is float and math.isfinite(value)):
        return cls.__repr__(value)
    if cls is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    return None if isinstance(value, (list, tuple, dict)) else _encode_scalar(value)


def _json_text(value, newline, head, out):
    """Append head, then value as _dump writes it after the line break newline, to out."""
    if type(value) is _Fragment:
        out.append(head)
        out += value
        return
    if not isinstance(value, (list, tuple, dict)):
        out.append(head + _scalar_text(value))
        return
    keys, items, opening, closing = None, value, "[", "]"
    if isinstance(value, dict):
        pairs = sorted(value.items())
        keys = [encode_basestring_ascii(k) + ": " for k, _ in pairs]
        items, opening, closing = [v for _, v in pairs], "{", "}"
    if not items:
        out.append(head + opening + closing)
        return
    inner = newline + "  "
    # exact ints, most of the leaves the CLI prints, skip the call
    texts = [repr(v) if type(v) is int else _scalar_text(v) for v in items]
    if None in texts:  # containers among the items: each item after its own head
        for i, (v, key) in enumerate(zip(items, keys or [""] * len(items))):
            _json_text(v, inner, ("," if i else head + opening) + inner + key, out)
        out.append(newline + closing)
        return
    if keys:
        texts = list(map(str.__add__, keys, texts))
    texts[0] = head + opening + inner + texts[0]
    texts[-1] += newline + closing
    out.append(("," + inner).join(texts))


def _float_texts(column):
    """Each float of a float64 column as _dump writes it (all finite: repr, no type test)."""
    if np.isfinite(column).all():
        return list(map(float.__repr__, column.tolist()))
    return [_scalar_text(v) for v in column.tolist()]


def _subset_texts(n, prefix, sep=",", first=1):
    """Entry b joins prefix + player with sep over players first + i for the bits i of b, ascending.

    Built by doubling, as structures.subset_unions builds its table.
    """
    body = [""]
    for p in range(first, n + 1):
        tok = prefix + str(p)
        tail = sep + tok
        body += [tok] + [b + tail for b in body[1:]]
    return body


def _joined_subsets(n, masks, prefix, joiner):
    """Pieces of joiner.join over the _subset_texts of an ascending bitmask array.

    Subsets sharing their players above n // 2 are joined by those players' text, after their
    lower players' text and a comma, so no string is built per subset.
    """
    k = n // 2
    low = _subset_texts(k, prefix)
    # each subset's lower players' text, with a comma when it has higher players too
    lows = np.array([low, [""] + [t + "," for t in low[1:]]], dtype=object)
    lows = lows[np.minimum(masks >> k, 1), masks & ((1 << k) - 1)].tolist()
    # the subsets with high players h are masks[starts[h]:starts[h + 1]]
    starts = np.searchsorted(masks, np.arange((1 << (n - k)) + 1) << k).tolist()
    pieces = []
    for high, a, b in zip(_subset_texts(n, prefix, ",", k + 1), starts, starts[1:]):
        if a < b:
            pieces += [(high + joiner).join(lows[a:b]), high, joiner]
    return pieces[:-1]


def _parse_players(raw):
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"expected comma-separated player numbers, got {raw!r}", EXIT_INPUT)
    if not values:
        raise CliError(f"empty player list {raw!r}", EXIT_INPUT)
    return values


def _tolerance(args):
    if not 1e-12 <= args.tolerance <= 1e-6:
        raise CliError(f"tolerance {args.tolerance} outside [1e-12, 1e-6]", EXIT_INPUT)
    return args.tolerance


# ---------------------------------------------------------------------------
# subcommands


def cmd_structure_check(args):
    gamma = _load_structure(args.path)
    if not structures.is_quantum_admissible(gamma):
        # two authorized sets are disjoint exactly when two minimal ones are; the first
        # minimal set with an authorized complement has all its disjoint partners after it
        full = (1 << gamma.n) - 1
        a = gamma.minimal_sets[int(np.argmax(gamma.authorized[full ^ np.array(gamma.masks())]))]
        b = next(b for b in gamma.minimal_sets if a.bits & b.bits == 0)
        raise CliError(f"disjoint authorized sets {a} and {b}: not quantum-admissible", EXIT_INPUT)
    n = gamma.n
    a1, a2 = structures._adversary_masks(gamma)
    # pure perfect schemes exist iff A2 is empty, as structures.perfect_feasibility decides
    witness = structures.PlayerSubset(int(a2[0]), n) if len(a2) else None
    verdict = "infeasible" if len(a2) else "feasible"
    # the complement law is printed as holding: it follows from how A1 and A2 are defined
    if args.format == "json":
        # each subset as _dump writes a list of player numbers under a top-level key
        a1_text, a2_text = (
            _Fragment(["[\n    [", *_joined_subsets(n, bits, "\n      ", "\n    ],\n    ["),
                       "\n    ]\n  ]"]) if len(bits) else [] for bits in (a1, a2)
        )
        doc = {
            "players": n,
            "minimal_authorized": [s.players() for s in gamma.minimal_sets],
            "admissible": True,
            "a1": a1_text,
            "a2": a2_text,
            "complement_law": True,
            "perfect": verdict,
            "perfect_witness": witness.players() if witness else None,
        }
        pieces = _dump(doc)
    else:
        pieces = [f"admissible; |A1|={len(a1)} |A2|={len(a2)}; perfect: {verdict}"]
        # each subset as str(PlayerSubset) writes it
        for name, bits in (("A1", a1), ("A2", a2)):
            text = ["{", *_joined_subsets(n, bits, "P", "}, {"), "}"] if len(bits) else ["(empty)"]
            pieces += [f"\n{name}: ", *text]
        pieces.append("\ncomplement law: holds")
        if witness:
            pieces.append(f"\nperfect-infeasibility witness: {witness}")
    _emit(pieces, None)
    return EXIT_OK


def cmd_scheme_verify(args):
    tolerance = _tolerance(args)
    scheme = _load_scheme(args.scheme)
    gamma = _load_structure(args.structure)
    report = verifier.verify(scheme, gamma, args.model, tolerance)
    # subsets as _dump writes them in a record, as a csv field, or as str(PlayerSubset)
    prefix, sep = {"json": ("\n        ", ","), "csv": ("", " "), "text": ("P", ",")}[args.format]
    floats = _float_texts if args.format == "json" else (lambda col: list(map(_fmt, col.tolist())))
    rows = zip(
        _subset_texts(report.num_players, prefix, sep)[1:], report.classes.tolist(),
        floats(report.s_a), floats(report.s_ra), floats(report.i_ra), report.ok.tolist(),
    )
    names = structures.CLASS_NAMES
    if args.format == "json":
        doc = verifier._report_fields(report)
        classes = [encode_basestring_ascii(name) for name in names]
        records = [
            f'{{\n      "class": {classes[c]},\n      "i_ra": {i_ra},\n      "pass": '
            f'{"true" if ok else "false"},\n      "s_a": {s_a},\n      "s_ra": {s_ra},'
            f'\n      "subset": [{subset}\n      ]\n    }}'
            for subset, c, s_a, s_ra, i_ra, ok in rows
        ]
        doc["records"] = _Fragment(["[\n    ", ",\n    ".join(records), "\n  ]"])
        out = _dump(doc)
    elif args.format == "csv":
        out = ["\n".join(["subset;class;s_a;s_ra;i_ra;pass"] + [
            f"{subset};{names[c]};{s_a};{s_ra};{i_ra};{ok}"
            for subset, c, s_a, s_ra, i_ra, ok in rows
        ])]
    else:
        out = ["\n".join([
            f"scheme {report.scheme}: verdict {report.verdict} "
            f"(requested {args.model}: {'pass' if report.meets_requested else 'FAIL'})",
            f"I(R:S)={_fmt(report.i_rs)}  S(S)={_fmt(report.s_s)}  "
            f"entropy balanced: {report.entropy_balanced}",
        ] + [
            f"  {'{' + subset + '}':16s} {names[c]:10s} I(R:A)={i_ra:14s} {'ok' if ok else 'FAIL'}"
            for subset, c, _, _, i_ra, ok in rows
        ])]
    _emit(out, args.out)
    if not report.meets_requested:
        print(f"verification failure at subset {report.requested_witness}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_build(args):
    needed = {"threshold34": (), "block": ("n", "b"), "star": ("n", "center")}[args.family]
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise CliError(f"build {args.family} needs {' and '.join(missing)}", EXIT_INPUT)
    if args.family == "threshold34":
        scheme = schemes.build_threshold34()
    elif args.family == "block":
        scheme, gamma = schemes.build_block_scheme(args.n, _parse_players(args.b))
    else:
        scheme, gamma = schemes.build_star_scheme(args.n, args.center)
    doc = schemes.save_scheme(scheme)
    if args.family != "threshold34":
        doc["realizes"] = structures.structure_to_dict(gamma)
    _emit(_dump(doc), args.out)
    return EXIT_OK


def cmd_assign_induce(args):
    scheme = _load_scheme(args.scheme)
    base = _load_structure(args.base)
    induced = schemes.induce_structure(scheme, base)
    _emit(_dump(structures.structure_to_dict(induced)), args.out)
    return EXIT_OK


def cmd_assign_search(args):
    tolerance = _tolerance(args)
    target = _load_structure(args.target)
    if args.scheme:
        if args.base is None:
            raise CliError("--scheme needs --base, its particles' structure", EXIT_INPUT)
        scheme = _load_scheme(args.scheme)
        base = _load_structure(args.base)
    else:
        if args.base_n is None or args.base_b is None:
            raise CliError("provide --scheme/--base files or --base-n/--base-b", EXIT_INPUT)
        scheme, base = schemes.build_block_scheme(args.base_n, _parse_players(args.base_b))
    assignment = schemes.search_assignment(
        schemes.PreparedBase(scheme, base), target, args.allow_dealer, tolerance
    )
    doc = {
        "base": scheme.name or "scheme",
        "target": structures.structure_to_dict(target),
        "assignment": {h: list(ps) for h, ps in assignment.items()} if assignment else None,
    }
    _emit(_dump(doc), args.out)
    return EXIT_OK


def cmd_enumerate(args):
    classes = structures.enumerate_hyperstars(args.max_n)
    rows = []
    for n, gamma in classes:
        rows.append(
            {
                "players": n,
                "minimal_authorized": [list(s.players()) for s in gamma.minimal_sets],
                "catalog_no": structures.catalog_number(gamma),
            }
        )
    if args.format == "json":
        out = _dump({"classes": rows})
    elif args.format == "csv":
        lines = ["players;structure;catalog_no"]
        for row in rows:
            sets = " ".join("".join(map(str, s)) for s in row["minimal_authorized"])
            lines.append(f"{row['players']};{sets};{row['catalog_no'] or '-'}")
        out = ["\n".join(lines)]
    else:
        lines = []
        for row in rows:
            sets = ", ".join("{" + ",".join(map(str, s)) + "}" for s in row["minimal_authorized"])
            tag = f"catalog No.{row['catalog_no']}" if row["catalog_no"] else "beyond catalog"
            lines.append(f"n={row['players']}  {sets}  [{tag}]")
        out = ["\n".join(lines)]
    _emit(out, args.out)
    return EXIT_OK


def cmd_reconstruct(args):
    scheme = _load_scheme(args.scheme)
    acting = _parse_players(args.set)
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}", EXIT_INPUT)
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}", EXIT_INPUT)
    if args.protocol == "measure":
        if not args.block:
            raise CliError("--block is required for the measure protocol", EXIT_INPUT)
        block = _parse_players(args.block)
    if args.protocol == "decoder":
        state = schemes.distribute_purified(scheme)
        subset = structures.PlayerSubset.from_players(acting, scheme.num_players)
        result = protocols.decoupling_decoder(state, scheme.registers_of(subset.bits))
        trace = {
            "protocol": "decoder",
            "acting": list(subset.players()),
            "output_register": result.output_register,
            "i_re": result.i_re,
        }
        doc = {"fidelities": [result.fidelity], "trace": trace}
    else:
        # one (trials, 2) array; above protocols.MAX_TRIALS nothing is drawn (exit 5)
        secrets = protocols.random_secrets(np.random.default_rng(args.seed), args.trials)
        if args.protocol == "circuit":
            outcome = protocols.run_threshold34_circuit(scheme, acting, secrets)
        else:
            outcome = protocols.run_block_measure_protocol(scheme, block, acting, secrets)
        doc = {
            "fidelities": outcome.fidelities,
            "trace": outcome.trace,
            "branch_probabilities": outcome.branch_probabilities,
            "branch_fidelities": outcome.branch_fidelities,
            "deviations": outcome.deviations,
        }
    fidelities = doc["fidelities"]
    if args.format == "json":
        out = _dump(doc)
    else:
        lines = [f"trial {i}: fidelity {_fmt(f)}" for i, f in enumerate(fidelities, 1)]
        lines.append(f"min fidelity: {_fmt(min(fidelities))}")
        out = ["\n".join(lines)]
    _emit(out, args.out)
    return EXIT_OK


def cmd_tables(args):
    rows = verifier.feasibility_matrix(tolerance=_tolerance(args))
    doc = verifier.matrix_to_dict(rows)
    csv_lines = ["no;players;structure;pqss;gqss;scheme;assignment;report_hash;notes"]
    for row in doc["rows"]:
        sets = " ".join("".join(map(str, s)) for s in row["structure"])
        assignment = (
            " ".join(
                f"{h}:{','.join(map(str, ps))}"
                for h, ps in sorted(row["assignment"].items())
                if ps
            )
            if row["assignment"]
            else "-"
        )
        csv_lines.append(
            f"{row['no']};{row['players']};{sets};{row['pqss']};{row['gqss']};"
            f"{row['scheme'] or '-'};{assignment};{row['report_hash'] or '-'};"
            f"{' | '.join(row['notes']) or '-'}"
        )
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _emit(_dump(doc), out_dir / "feasibility.json")
        _emit(["\n".join(csv_lines)], out_dir / "feasibility.csv")
        _emit([f"wrote {out_dir / 'feasibility.json'} and {out_dir / 'feasibility.csv'}"], None)
    else:
        _emit(["\n".join(csv_lines)] if args.format == "csv" else _dump(doc), None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, formats=(), *, tolerance=False, out=False):
    """Options shared by subcommands; formats are the --format values, default first."""
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0])
    if tolerance:
        parser.add_argument("--tolerance", type=float, default=qstate.DEFAULT_TOLERANCE)
    if out:
        parser.add_argument("--out", default=None)


def build_parser(leaves=None):
    """The qsslab parser; leaves, when given, gets each subcommand's parser by its command words."""
    leaves = {} if leaves is None else leaves

    def add_leaf(sub, name, **kwargs):
        leaf = sub.add_parser(name, **kwargs)
        leaves[tuple(leaf.prog.split()[1:])] = leaf  # prog is "qsslab" and the words
        return leaf

    parser = argparse.ArgumentParser(
        prog="qsslab",
        description="Construct, simulate, and verify quantum secret sharing schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_structure = sub.add_parser("structure", help="access-structure analyses")
    structure_sub = p_structure.add_subparsers(dest="action", required=True)
    p_check = add_leaf(structure_sub, "check", help="admissibility and adversary partition")
    p_check.add_argument("path")
    _add_common(p_check, ("text", "json"))
    p_check.set_defaults(func=cmd_structure_check)

    p_scheme = sub.add_parser("scheme", help="scheme analyses")
    scheme_sub = p_scheme.add_subparsers(dest="action", required=True)
    p_verify = add_leaf(scheme_sub, "verify", help="verify a scheme against a structure")
    p_verify.add_argument("scheme")
    p_verify.add_argument("structure")
    p_verify.add_argument("--model", choices=["perfect", "generalized"], default="generalized")
    _add_common(p_verify, ("text", "json", "csv"), tolerance=True, out=True)
    p_verify.set_defaults(func=cmd_scheme_verify)

    p_build = add_leaf(sub, "build", help="construct a scheme family member")
    p_build.add_argument("family", choices=["threshold34", "block", "star"])
    p_build.add_argument("--n", type=int, default=None)
    p_build.add_argument("--b", default=None, help="block players, e.g. 1,2")
    p_build.add_argument("--center", type=int, default=None)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_assign = sub.add_parser("assign", help="particle redistribution")
    assign_sub = p_assign.add_subparsers(dest="action", required=True)
    p_induce = add_leaf(assign_sub, "induce", help="induced structure of an assignment")
    p_induce.add_argument("--scheme", required=True)
    p_induce.add_argument("--base", required=True, help="structure over the particles")
    _add_common(p_induce, out=True)
    p_induce.set_defaults(func=cmd_assign_induce)
    p_search = add_leaf(assign_sub, "search", help="search assignments realizing a target")
    p_search.add_argument("--target", required=True)
    p_search.add_argument("--scheme", default=None)
    p_search.add_argument("--base", default=None)
    p_search.add_argument("--base-n", type=int, default=None)
    p_search.add_argument("--base-b", default=None)
    p_search.add_argument("--allow-dealer", action="store_true")
    _add_common(p_search, tolerance=True, out=True)
    p_search.set_defaults(func=cmd_assign_search)

    p_enum = add_leaf(sub, "enumerate", help="hyperstar isomorphism classes")
    p_enum.add_argument("--max-n", type=int, default=5)
    _add_common(p_enum, ("text", "json", "csv"), out=True)
    p_enum.set_defaults(func=cmd_enumerate)

    p_rec = add_leaf(sub, "reconstruct", help="run a reconstruction protocol")
    p_rec.add_argument("scheme")
    p_rec.add_argument("--set", required=True, help="acting players, e.g. 1,3,4")
    p_rec.add_argument("--protocol", choices=["circuit", "measure", "decoder"], default="circuit")
    p_rec.add_argument("--trials", type=int, default=20)
    p_rec.add_argument("--block", default=None, help="block players for the measure protocol")
    p_rec.add_argument("--seed", type=int, default=42)
    _add_common(p_rec, ("text", "json"), out=True)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_tables = add_leaf(sub, "tables", help="catalog feasibility matrix")
    p_tables.add_argument("--out-dir", default=None)
    _add_common(p_tables, ("json", "csv"), tolerance=True)
    p_tables.set_defaults(func=cmd_tables)
    return parser


@functools.cache
def _parser():
    """The parser and its leaves, built once per process: parsing keeps no state between calls."""
    leaves = {}
    return build_parser(leaves), leaves


def main(argv=None):
    parser, leaves = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # as the three-level parse does: the rest of argv after a subcommand's words to that
    # subcommand's parser, and any arguments it leaves over to the root parser's error
    words = next((w for w in (tuple(argv[:1]), tuple(argv[:2])) if w in leaves), ())
    args, extras = leaves.get(words, parser).parse_known_args(argv[len(words):])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except verifier.StructuralMismatchError as exc:
        print(f"structural mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except protocols.DecouplingError as exc:  # before ProtocolError, its base class
        print(f"decoding failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except qstate.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        structures.StructureError,
        schemes.SchemeError,
        protocols.ProtocolError,
        OSError,  # unreadable input or unwritable output path
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
