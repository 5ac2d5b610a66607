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

A run imports only the modules of tauseq that its subcommand reads, since
most of a short command's wall time is start-up: the parser declares the
arguments of the named subcommand alone, each declaration and handler
imports what it reads when it runs, and _fail looks up an exception type
only in a module already loaded.  A fresh `import tauseq.cli` loads no
other module of tauseq.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from . import exact_int_str

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_TORSION = 3
EXIT_RANK = 4
EXIT_UNSOLVABLE = 5
EXIT_INTERNAL = 70

# exception -> exit code; the first matching row wins, so a subclass comes
# before its base (TorsionError, UnsolvableError and RankError are
# LatticeErrors).  "module.Name" is a type of that module of tauseq, which
# _fail looks up only once the module is loaded: a module not loaded has
# raised nothing
EXIT_CODES = (
    (("lattice.TorsionError",), EXIT_TORSION),
    (("recurrence.UnsolvableError",), EXIT_UNSOLVABLE),
    (("lattice.RankError",), EXIT_RANK),
    ((ValueError, "lattice.LatticeError", OSError, "oeis.OeisError"),
     EXIT_PARSE),
)


Result = tuple[int, dict | None]  # exit code, the one JSON document


def _is_a(exc: Exception, kind: type | str) -> bool:
    """isinstance(exc, kind), kind an EXIT_CODES type or type name."""
    if isinstance(kind, str):
        module, _, name = kind.partition(".")
        kind = getattr(sys.modules.get(f"{__package__}.{module}"), name, ())
    return isinstance(exc, kind)


def _fail(exc: Exception) -> Result:
    """The exit code and error document of exc."""
    code = next((code for kinds, code in EXIT_CODES
                 if any(_is_a(exc, kind) for kind in kinds)), EXIT_INTERNAL)
    error = {"error": str(exc)}
    if code == EXIT_TORSION:
        error["invariant_factors"] = list(exc.invariant_factors)
    if code == EXIT_INTERNAL:
        import traceback
        traceback.print_exc()
        error["error"] = f"internal error: {type(exc).__name__}: {exc}"
    print(error["error"], file=sys.stderr)
    return code, error


def _json_arg(text: str):
    try:  # nesting too deep to decode is a parse error, not an internal one
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON argument nested too deeply") from exc


def _basis_from_args(args):
    """The SublatticeBasis of --matrix or --polygon."""
    from .lattice import edges_to_basis, parse_matrix, parse_polygon
    if args.matrix is not None:
        return parse_matrix(args.matrix)
    if args.polygon is None:
        raise ValueError("need --matrix or --polygon")
    return edges_to_basis(parse_polygon(args.polygon).edges)


def cmd_maya(args) -> Result:
    from .maya import (MayaDiagram, Partition, maya_from_young_charge,
                       parse_parts, young_charge_from_maya)
    ceilings = CEILINGS["maya"]
    if args.from_maya is not None:
        # --charge's ceiling holds the charge and each half-integer
        # position p + 1/2 too, so that every part printed, at most twice
        # the ceiling, fits a signed 64-bit int.  A number of more digits
        # than the ceiling is past it before json.loads or int() reads it,
        # which takes quadratic time on a long text
        ceiling = ceilings["charge"]
        past = (f"charge and positions must lie between {-ceiling} and "
                f"{ceiling}, the ceiling of --charge")
        if re.search("[1-9][0-9]{%d}" % ceilings["digits"], args.from_maya):
            raise ValueError(past)
        diagram = MayaDiagram.from_json_dict(_json_arg(args.from_maya))
        if abs(diagram.charge) > ceiling or any(
                abs(2 * p + 1) > 2 * ceiling
                for p in diagram.added | diagram.removed):
            raise ValueError(past)
        # the partition has one part per position from the least removed
        # one up to the charge
        parts = diagram.charge - min(diagram.removed, default=diagram.charge)
        if parts > ceilings["parts"]:
            raise ValueError(f"the partition would have {parts} parts, past "
                             f"the ceiling of {ceilings['parts']}")
        lam, charge = young_charge_from_maya(diagram)
        return EXIT_OK, {"young": list(lam.parts), "charge": charge}
    lam = Partition(parse_parts(args.young.strip(), ceilings["parts"],
                                ceilings["digits"]))
    return EXIT_OK, maya_from_young_charge(lam, args.charge).to_json_dict()


def cmd_derive(args) -> Result:
    from .lattice import quotient_map
    from .recurrence import BASE_POINT, derive_recurrence, octahedron_points
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
    from .recurrence import BilinearRecurrence, derive_recurrence, generate
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
    from . import verify
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    seed = args.seed if args.seed is not None else args.global_seed
    report = verify.ORACLES[args.oracle](
        trials=args.trials, seed=seed, cutoff=args.cutoff, dim=args.dim,
        max_weight=args.max_weight)
    return (EXIT_OK if report["failures"] == 0 else EXIT_VERIFY_FAIL), report


def _load_db(args):
    """The StrippedDb of --oeis, or the fixture."""
    from . import oeis
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
    from . import scan
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
    from . import oeis
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


def _set_config_defaults(parser: argparse.ArgumentParser,
                         command: str | None, path: str) -> None:
    """Make each `key = value` line of a config file the default of the long
    option --key, on the global parser or else on the parser of command, so
    that flags on the command line still win."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
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
    """--workers: an integer from 1 to the CPU count.  A decimal text with
    more digits than the CPU count is past it before int() runs, which
    takes quadratic time on a long text, and is named by its length."""
    cpus = os.cpu_count() or 1
    digits = text.removeprefix("-")
    long = digits.isdecimal() and len(digits.lstrip("0")) > len(str(cpus))
    count = int(text) if digits.isdecimal() and not long else 0
    if not 1 <= count <= cpus:
        got = f"a {len(digits)}-digit number" if long else repr(text)
        raise argparse.ArgumentTypeError(
            f"expected 1 to {os.cpu_count()} (the CPU count), got {got}")
    return count


# the largest absolute value of each numeric option, by subcommand
# ("tauseq" for the global options) and long option: a run with every
# option of its subcommand at its ceiling takes at most about 70 s and
# 1.1 GB (the README gives the costs), and a seed or a charge fits a
# signed 64-bit int, so any JSON reader takes it back; past one the
# command exits with 2 as it parses.  maya's also bounds the charge and
# positions of --from-maya, and holds two ceilings that are not options,
# which cmd_maya checks before it parses a number: the parts of a
# partition, either way, and the digits of a --young part or of a number
# in --from-maya (as many as the charge ceiling has)
CEILINGS = {
    "tauseq": {"seed": 10 ** 18},
    "maya": {"charge": 10 ** 18, "parts": 10 ** 6, "digits": 19},
    "generate": {"terms": 1000},
    "scan": {"bound": 14, "terms": 100, "min_match": 100},
    "verify": {"trials": 1000, "seed": 10 ** 18, "cutoff": 9, "dim": 40,
               "max_weight": 18},
    "match": {"min_match": 1000},
}


def _at_most(command: str, option: str):
    """The type of an int option with a ceiling in CEILINGS.  A decimal text
    with more digits than the ceiling, signed or not, is past it before
    int() runs, which takes quadratic time on a long text (a --config value
    has no length limit)."""
    ceiling = CEILINGS[command][option]

    def parse(text: str) -> int:
        body = text.strip()
        sign = -1 if body.startswith("-") else 1
        digits = body.removeprefix("-" if sign < 0 else "+")
        digits = digits.replace("_", "").lstrip("0")
        long = digits.isdecimal() and len(digits) > len(str(ceiling))
        value = sign * (ceiling + 1) if long else int(text)
        if abs(value) > ceiling:
            raise argparse.ArgumentTypeError(
                f"must be <= {ceiling}, its ceiling" if value > 0
                else f"must be >= {-ceiling}, minus its ceiling")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" names it
    return parse


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


def _maya_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--young", default="",
                   help="comma-separated parts, e.g. 4,2,2,1")
    p.add_argument("--charge", type=_at_most("maya", "charge"), default=0)
    p.add_argument("--from-maya", default=None, metavar="JSON",
                   help="inverse direction: Maya JSON to (partition, charge)")


def _basis_arguments(p: argparse.ArgumentParser) -> None:
    """The options _basis_from_args reads, all that derive takes."""
    p.add_argument("--matrix", help='rows "5,-2,-2,-1;1,1,-1,-1"')
    p.add_argument("--polygon", help='vertices "x1,y1 x2,y2 ..."')


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    _basis_arguments(p)
    p.add_argument("--recurrence-json", help="recurrence JSON")
    p.add_argument("--terms", type=_at_most("generate", "terms"), default=24)
    p.add_argument("--init", help="explicit seed window, commas; "
                   "write --init=-1,... when it starts with a minus")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .verify import ORACLES
    p.add_argument("oracle", choices=ORACLES)
    p.add_argument("--trials", type=_at_most("verify", "trials"),
                   default=100)
    p.add_argument("--seed", type=_at_most("verify", "seed"), default=None,
                   help="overrides the global --seed")
    p.add_argument("--cutoff", type=_at_most("verify", "cutoff"),
                   default=None, help="window K")
    p.add_argument("--dim", type=_at_most("verify", "dim"), default=None)
    p.add_argument("--max-weight", type=_at_most("verify", "max_weight"),
                   default=6)


def _scan_arguments(p: argparse.ArgumentParser) -> None:
    from .scan import ScanConfig
    p.add_argument("--bound", type=_at_most("scan", "bound"), required=True)
    p.add_argument("--terms", type=_at_most("scan", "terms"),
                   default=ScanConfig.terms)
    p.add_argument("--min-match", type=_at_most("scan", "min_match"),
                   default=ScanConfig.min_match_terms)
    p.add_argument("--oeis", help="stripped db path (default: fixture)")
    p.add_argument("--output", help="JSONL output path")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="processes that enumerate and key the cycles, "
                   "1 to the CPU count")


def _match_arguments(p: argparse.ArgumentParser) -> None:
    from .oeis import MatchPolicy
    p.add_argument("--terms-list", required=True, metavar="TERMS",
                   help="comma-separated integers; write "
                   "--terms-list=-1,... when they start with a minus")
    p.add_argument("--oeis", help="stripped db path (default: fixture)")
    p.add_argument("--min-match", type=_at_most("match", "min_match"),
                   default=MatchPolicy.min_match_terms)
    p.add_argument("--no-trim", action="store_true",
                   help="do not trim leading ones")
    p.add_argument("--online", action="store_true",
                   help="also query the live OEIS endpoint (advisory)")


# each subcommand: its handler, the function that declares its arguments,
# and the keywords of its add_parser
SUBCOMMANDS = {
    "maya": (cmd_maya, _maya_arguments,
             {"help": "(partition, charge) <-> Maya diagram"}),
    "derive": (cmd_derive, _basis_arguments, {}),
    "generate": (cmd_generate, _generate_arguments, {}),
    "verify": (cmd_verify, _verify_arguments,
               {"help": "run an exact oracle"}),
    "scan": (cmd_scan, _scan_arguments,
             {"help": "enumerate polygons and classify"}),
    "match": (cmd_match, _match_arguments,
              {"help": "match terms against the offline db"}),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of tauseq, with every subcommand as a choice and the
    arguments of command alone (of none when command is None)."""
    parser = _Parser(
        prog="tauseq",
        description="Octahedral tau-function recurrences, sequences, and "
                    "exact verification oracles.",
        epilog="--config FILE, anywhere in the arguments, reads "
               "'key = value' defaults; flags on the command line win.")
    parser.add_argument("--json", action="store_true",
                        help="echo the resolved configuration in the JSON "
                        "document (not scan's JSON Lines)")
    parser.add_argument("--seed", type=_at_most("tauseq", "seed"), default=0,
                        dest="global_seed",
                        help="default seed for randomized subcommands")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, declare, keywords) in SUBCOMMANDS.items():
        p = sub.add_parser(name, **keywords)
        if name == command:
            declare(p)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    # exact big-int text in and out for this command only
    with exact_int_str():
        try:
            pre = _Parser(prog="tauseq", add_help=False, allow_abbrev=False)
            pre.add_argument("--config", metavar="FILE")
            known, argv = pre.parse_known_args(argv)
            # the subcommand argparse will select: only global options come
            # before it, and a value of theirs is an int
            command = next((arg for arg in argv if arg in SUBCOMMANDS), None)
            parser = build_parser(command)
            if known.config is not None:
                _set_config_defaults(parser, command, known.config)
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
