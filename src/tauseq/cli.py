"""Command-line interface: parse the arguments, call the library, emit JSON.

Exit codes are part of the public contract:
  0 success / all checks passed
  1 verification failure (an oracle found a nonzero residual)
  2 parse or usage error
  3 torsion in the lattice quotient
  4 unsupported quotient rank, or linearly dependent basis rows
  5 unsolvable (degenerate) recurrence
  70 internal error: an unexpected exception, whose traceback goes to stderr

All machine output goes to stdout as a single JSON document (JSON Lines for
scan); every failure, usage errors too, emits {"error": <its message>}.
Diagnostics go to stderr.  Identical invocation and seed produce
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import oeis, scan, verify
from .lattice import (LatticeError, RankError, SublatticeBasis, TorsionError,
                      edges_to_basis, parse_matrix, parse_polygon,
                      quotient_map)
from .maya import MayaDiagram, Partition, maya_from_young_charge, \
    young_charge_from_maya
from .recurrence import (BASE_POINT, BilinearRecurrence, UnsolvableError,
                         derive_recurrence, generate, octahedron_points)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_TORSION = 3
EXIT_RANK = 4
EXIT_UNSOLVABLE = 5
EXIT_INTERNAL = 70

# exception -> exit code; the first matching row wins, so a subclass comes
# before its base (TorsionError, UnsolvableError and RankError are
# LatticeErrors)
EXIT_CODES = (
    (TorsionError, EXIT_TORSION),
    (UnsolvableError, EXIT_UNSOLVABLE),
    (RankError, EXIT_RANK),
    ((ValueError, LatticeError, OSError, oeis.OeisError), EXIT_PARSE),
)


Result = tuple[int, dict | None]  # exit code, the one JSON document


def _fail(exc: Exception) -> Result:
    """The exit code and error document of exc."""
    code = next((code for types, code in EXIT_CODES
                 if isinstance(exc, types)), EXIT_INTERNAL)
    error = {"error": str(exc)}
    if isinstance(exc, TorsionError):
        error["invariant_factors"] = list(exc.invariant_factors)
    if code == EXIT_INTERNAL:
        import traceback
        traceback.print_exc()
        error["error"] = f"internal error: {type(exc).__name__}: {exc}"
    print(error["error"], file=sys.stderr)
    return code, error


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    return Partition(tuple(int(x) for x in text.split(",")) if text else ())


def _json_arg(text: str):
    try:  # nesting too deep to decode is a parse error, not an internal one
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON argument nested too deeply") from exc


def _basis_from_args(args) -> SublatticeBasis:
    if args.matrix is not None:
        return parse_matrix(args.matrix)
    if args.polygon is None:
        raise ValueError("need --matrix or --polygon")
    return edges_to_basis(parse_polygon(args.polygon).edges)


def cmd_maya(args) -> Result:
    if args.from_maya is not None:
        diagram = MayaDiagram.from_json_dict(_json_arg(args.from_maya))
        lam, charge = young_charge_from_maya(diagram)
        return EXIT_OK, {"young": list(lam.parts), "charge": charge}
    lam = _parse_partition(args.young)
    return EXIT_OK, maya_from_young_charge(lam, args.charge).to_json_dict()


def cmd_derive(args) -> Result:
    basis = _basis_from_args(args)
    w = quotient_map(basis)
    return EXIT_OK, {
        "basis": [list(basis.a), list(basis.b)],
        # literals: quotient_map raises on torsion, and w . n is the index
        "quotient": {"w": list(w), "m": 1, "torsion_free": True},
        "base_point": list(BASE_POINT),
        "octahedron_points": [{"point": list(pt), "index": idx}
                              for pt, idx in octahedron_points(w)],
        "recurrence": derive_recurrence(basis).to_json_dict(),
    }


def cmd_generate(args) -> Result:
    if args.recurrence_json is not None:
        rec = BilinearRecurrence.from_json_dict(
            _json_arg(args.recurrence_json))
    else:
        rec = derive_recurrence(_basis_from_args(args))
    init = None if args.init is None else [*map(int, args.init.split(","))]
    out = generate(rec, args.terms, init).to_json_dict()
    out["recurrence"] = rec.to_json_dict()
    return EXIT_OK, out


def cmd_verify(args) -> Result:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    seed = args.seed if args.seed is not None else args.global_seed
    report = verify.ORACLES[args.oracle](
        trials=args.trials, seed=seed, cutoff=args.cutoff, dim=args.dim,
        max_weight=args.max_weight)
    return (EXIT_OK if report["failures"] == 0 else EXIT_VERIFY_FAIL), report


def _load_db(args) -> oeis.StrippedDb:
    if args.oeis is None:
        return oeis.load_fixture()
    with open(args.oeis, "rb") as fh:
        db = oeis.load_stripped(fh)
    if db.malformed:
        count = len(db.malformed)
        print(f"oeis: skipped {count} malformed line{'s' * (count != 1)} "
              f"(first: line {db.malformed[0][0]})", file=sys.stderr)
    return db


def cmd_scan(args) -> Result:
    """Streams its JSON Lines records itself, so returns no document."""
    if args.output == "":
        raise ValueError("--output needs a path")
    cfg = scan.ScanConfig(bound=args.bound, terms=args.terms,
                          min_match_terms=args.min_match)
    db = _load_db(args)
    paths = [args.output, args.output + ".summary.json"] if args.output else []
    created = []  # a failed run removes the files it created, and only them
    try:
        for path in paths:  # before the walk: a bad path costs no scan
            try:
                open(path, "x").close()
                created.append(path)
            except FileExistsError:  # kept as it is until the scan is done
                open(path, "a").close()
        records, summary = scan.run_scan(cfg, db, workers=args.workers)
        if paths:  # the summary first: a failed write prints no record
            scan.write_summary(summary, paths[1])
            scan.write_jsonl(records, paths[0], echo=sys.stdout)
        else:
            sys.stdout.writelines(map(scan.jsonl_line, records))
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return EXIT_OK, None


def cmd_match(args) -> Result:
    terms = [int(x) for x in args.terms_list.split(",")]
    db = _load_db(args)
    policy = oeis.MatchPolicy(min_match_terms=args.min_match,
                              trim_leading_ones=not args.no_trim)
    hits = oeis.match_sequence(db, terms, policy)
    result = {"matches": [{"a_number": a, "position": p} for a, p in hits]}
    if args.online:
        try:
            result["online"] = oeis.search_online(terms, os.environ.get(
                "TAUSEQ_OEIS_ENDPOINT", oeis.DEFAULT_ENDPOINT))
        except oeis.OeisError as exc:
            result["online_error"] = str(exc)
    return EXIT_OK, result


def _set_config_defaults(parser: argparse.ArgumentParser, argv: list[str],
                         path: str) -> None:
    """Make each `key = value` line of a config file the default of the long
    option --key, on the global parser or else on the parser of the
    subcommand named in argv, so that flags on the command line still win."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    command = next((arg for arg in argv if arg in sub.choices), None)
    scopes = [parser] + ([sub.choices[command]] if command else [])
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"config error: {path}: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        action = next((p._option_string_actions[flag] for p in scopes
                       if flag in p._option_string_actions), None)
        if not sep or action is None:
            raise ValueError(f"config {path}: unknown key {key!r}")
        if action.nargs == 0:  # a switch such as --json
            if value not in ("true", "false"):
                raise ValueError(f"config {path}: {key} takes true or false")
            value = value == "true"
        action.required = False  # the file may supply --bound
        action.default = value


def _worker_count(text: str) -> int:
    """--workers: an integer from 1 to the CPU count."""
    count = int(text) if text.removeprefix("-").isdecimal() else 0
    if not 1 <= count <= (os.cpu_count() or 1):
        raise argparse.ArgumentTypeError(
            f"expected 1 to {os.cpu_count()} (the CPU count), got {text!r}")
    return count


def _check_choice(parser: argparse.ArgumentParser, action: argparse.Action,
                  value) -> None:
    """Reject a subcommand or oracle outside its choices in one message on
    every CPython (argparse quotes the choices in 3.11.7 and 3.13.0, not in
    3.13.13)."""
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentError(
            action, "invalid choice: %r (choose from %s)" % (
                value, ", ".join(map(repr, action.choices))))


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a ValueError, which main reports."""

    _check_value = _check_choice  # argparse's check of a value's choices

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tauseq",
        description="Octahedral tau-function recurrences, sequences, and "
                    "exact verification oracles.",
        epilog="--config FILE, anywhere in the arguments, reads "
               "'key = value' defaults; flags on the command line win.")
    parser.add_argument("--json", action="store_true",
                        help="echo the resolved configuration in the JSON "
                        "document (not scan's JSON Lines)")
    parser.add_argument("--seed", type=int, default=0, dest="global_seed",
                        help="default seed for randomized subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maya", help="(partition, charge) <-> Maya diagram")
    p.add_argument("--young", default="",
                   help="comma-separated parts, e.g. 4,2,2,1")
    p.add_argument("--charge", type=int, default=0)
    p.add_argument("--from-maya", default=None, metavar="JSON",
                   help="inverse direction: Maya JSON to (partition, charge)")
    p.set_defaults(func=cmd_maya)

    for name, func in (("derive", cmd_derive), ("generate", cmd_generate)):
        p = sub.add_parser(name)
        p.add_argument("--matrix", help='rows "5,-2,-2,-1;1,1,-1,-1"')
        p.add_argument("--polygon", help='vertices "x1,y1 x2,y2 ..."')
        if name == "generate":
            p.add_argument("--recurrence-json", help="recurrence JSON")
            p.add_argument("--terms", type=int, default=24)
            p.add_argument("--init", help="explicit seed window, commas; "
                           "write --init=-1,... when it starts with a minus")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run an exact oracle")
    p.add_argument("oracle", choices=verify.ORACLES)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the global --seed")
    p.add_argument("--cutoff", type=int, default=None, help="window K")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="enumerate polygons and classify")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--terms", type=int, default=scan.ScanConfig.terms)
    p.add_argument("--min-match", type=int, default=oeis.MatchPolicy.min_match_terms)
    p.add_argument("--oeis", help="stripped db path (default: fixture)")
    p.add_argument("--output", help="JSONL output path")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="processes that enumerate and key the cycles, "
                   "1 to the CPU count")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("match", help="match terms against the offline db")
    p.add_argument("--terms-list", required=True, metavar="TERMS",
                   help="comma-separated integers; write "
                   "--terms-list=-1,... when they start with a minus")
    p.add_argument("--oeis", help="stripped db path (default: fixture)")
    p.add_argument("--min-match", type=int, default=oeis.MatchPolicy.min_match_terms)
    p.add_argument("--no-trim", action="store_true",
                   help="do not trim leading ones")
    p.add_argument("--online", action="store_true",
                   help="also query the live OEIS endpoint (advisory)")
    p.set_defaults(func=cmd_match)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    # exact big-int text in and out for this command only
    with oeis.exact_int_str():
        try:
            pre = _Parser(prog="tauseq", add_help=False, allow_abbrev=False)
            pre.add_argument("--config", metavar="FILE")
            known, argv = pre.parse_known_args(argv)
            parser = build_parser()
            if known.config is not None:
                _set_config_defaults(parser, argv, known.config)
            args = parser.parse_args(argv)
            code, doc = args.func(args)
        except Exception as exc:
            code, doc = _fail(exc)
        if doc is not None:  # scan has streamed its records already
            if args is not None and args.json:
                doc["config"] = {k: v for k, v in vars(args).items()
                                 if k not in ("func", "json")
                                 and v is not None}
            sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
