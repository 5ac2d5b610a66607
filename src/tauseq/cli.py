"""Command-line interface.

Exit codes are part of the public contract:
  0 success / all checks passed
  1 verification failure
  2 parse or usage error
  3 torsion in the lattice quotient
  4 unsupported quotient rank
  5 unsolvable (degenerate) recurrence

All machine output goes to stdout as a single JSON document (JSON Lines for
scan); diagnostics go to stderr.  Identical invocation and seed produce
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from . import fock, kp, oeis, scan
from .lattice import (LatticeError, RankError, TorsionError, parse_matrix,
                      parse_polygon, polygon_to_basis, quotient_map)
from .maya import MayaDiagram, Partition, maya_from_young_charge, \
    young_charge_from_maya
from .recurrence import (BilinearRecurrence, PermutationAction,
                         UnsolvableError, act_permutation, derive_recurrence,
                         generate, table_octahedron_residual)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_TORSION = 3
EXIT_RANK = 4
EXIT_UNSOLVABLE = 5


_RESOLVED_CONFIG: dict | None = None


def _emit(obj: dict) -> None:
    if _RESOLVED_CONFIG is not None:
        obj = {**obj, "config": _RESOLVED_CONFIG}
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _fail(code: int, message: str, **extra) -> int:
    _emit({"error": message, **extra})
    print(message, file=sys.stderr)
    return code


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition(())
    return Partition(tuple(int(x) for x in text.split(",")))


def _basis_from_args(args) -> "SublatticeBasis":
    if getattr(args, "matrix", None):
        return parse_matrix(args.matrix)
    return polygon_to_basis(parse_polygon(args.polygon))


def cmd_maya(args) -> int:
    try:
        if args.from_maya:
            diagram = MayaDiagram.from_json_dict(json.loads(args.from_maya))
            lam, charge = young_charge_from_maya(diagram)
            _emit({"young": list(lam.parts), "charge": charge})
        else:
            lam = _parse_partition(args.young)
            diagram = maya_from_young_charge(lam, args.charge)
            _emit(diagram.to_json_dict())
    except (ValueError, KeyError) as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    return EXIT_OK


def cmd_derive(args) -> int:
    try:
        basis = _basis_from_args(args)
    except (ValueError, LatticeError) as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    try:
        derived = derive_recurrence(basis)
    except TorsionError as exc:
        return _fail(EXIT_TORSION, str(exc),
                     invariant_factors=list(exc.invariant_factors))
    except UnsolvableError as exc:
        return _fail(EXIT_UNSOLVABLE, str(exc))
    except RankError as exc:
        return _fail(EXIT_RANK, str(exc))
    _emit({
        "basis": [list(basis.a), list(basis.b)],
        "quotient": {"w": list(derived.qmap.w), "m": derived.qmap.m,
                     "torsion_free": derived.qmap.torsion_free},
        "base_point": list(derived.base),
        "octahedron_points": [{"point": list(pt), "index": idx}
                              for pt, idx in derived.points],
        "recurrence": derived.recurrence.to_json_dict(),
    })
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        if args.recurrence_json:
            rec = BilinearRecurrence.from_json_dict(
                json.loads(args.recurrence_json))
        else:
            rec = derive_recurrence(_basis_from_args(args)).recurrence
        init = None
        if args.init:
            init = [int(x) for x in args.init.split(",")]
        run = generate(rec, args.terms, init)
    except TorsionError as exc:
        return _fail(EXIT_TORSION, str(exc),
                     invariant_factors=list(exc.invariant_factors))
    except UnsolvableError as exc:
        return _fail(EXIT_UNSOLVABLE, str(exc))
    except RankError as exc:
        return _fail(EXIT_RANK, str(exc))
    except (ValueError, LatticeError) as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    out = run.to_json_dict()
    out["recurrence"] = rec.to_json_dict()
    _emit(out)
    return EXIT_OK


def _verify_report(name: str, trials: int, failures: list, seed: int,
                   **extra) -> dict:
    return {
        "check": name,
        "trials": trials,
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
        "seed": seed,
        **extra,
    }


def _random_base_point(rng: random.Random, s: int) -> tuple[int, ...]:
    while True:
        n = tuple(rng.randint(-1, 1) for _ in range(s))
        if sum(n) == -2:
            return n


def verify_octahedron(trials: int, cutoff: int, seed: int) -> dict:
    window = fock.Window(cutoff, 4)
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        g = fock.random_group_element(window, rng)
        n = _random_base_point(rng, 4)
        residual = fock.octahedron_residual(g, n, window)
        if residual != 0:
            failures.append({"trial": trial, "base": list(n),
                             "residual": str(residual)})
    return _verify_report("octahedron", trials, failures, seed,
                          cutoff=cutoff)


def verify_plucker(trials: int, dim: int, seed: int) -> dict:
    failures = []
    for trial in range(trials):
        residual = fock.plucker3_residual(dim, seed + trial)
        if residual != 0:
            failures.append({"trial": trial, "residual": str(residual)})
    return _verify_report("plucker", trials, failures, seed, dim=dim)


def verify_plucker4(trials: int, dim: int, seed: int) -> dict:
    verbatim_failures = []
    failures = []
    for trial in range(trials):
        res = fock.plucker4_residuals(dim, seed + trial)
        if res["verbatim"] != 0:
            verbatim_failures.append({"trial": trial,
                                      "residual": str(res["verbatim"])})
        if res["symmetric"] != 0:
            failures.append({"trial": trial,
                             "residual": str(res["symmetric"])})
    verdict = ("symmetric reading holds; verbatim printed form fails"
               if failures == [] and verbatim_failures else
               "both readings hold" if not failures else
               "symmetric reading fails")
    return _verify_report("plucker4", trials, failures, seed, dim=dim,
                          verbatim_failures=len(verbatim_failures),
                          verdict=verdict)


def verify_states(cutoff: int) -> dict:
    report = fock.verify_state_identities(fock.Window(cutoff, 1))
    failures = [r for r in report if not r["ok"]]
    return {
        "check": "states",
        "trials": len(report),
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
        "cutoff": cutoff,
        "identities": [{"identity": r["identity"], "ok": r["ok"]}
                       for r in report],
    }


def verify_kp(max_weight: int) -> dict:
    failures = []
    lams = kp.partitions_up_to(max_weight)
    for lam in lams:
        residual = kp.kp_bilinear_residual(kp.schur(lam))
        if residual:
            failures.append({"partition": list(lam.parts),
                             "residual": kp.render(residual)})
    return {
        "check": "kp",
        "trials": len(lams),
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
        "max_weight": max_weight,
    }


def verify_permutation(trials: int, cutoff: int, seed: int,
                       sigmas: int = 5, probes: int = 100) -> dict:
    window = fock.Window(cutoff, 4)
    rng = random.Random(seed)
    bound = cutoff - 2
    bases = [n for n in itertools.product(range(-1, 2), repeat=4)
             if sum(n) == -2]
    failures = []
    for trial in range(trials):
        g = fock.random_group_element(window, rng)
        table = fock.tau_table(g, window, bound=bound)
        for _ in range(sigmas):
            perm = list(range(1, 5))
            rng.shuffle(perm)
            acted = act_permutation(PermutationAction(tuple(perm)), table)
            for _ in range(probes):
                base = rng.choice(bases)
                residual = table_octahedron_residual(acted, base)
                if residual != 0:
                    failures.append({"trial": trial, "sigma": perm,
                                     "base": list(base),
                                     "residual": str(residual)})
    return _verify_report("permutation", trials, failures, seed,
                          cutoff=cutoff, sigmas=sigmas, probes=probes)


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else args.global_seed
    try:
        if args.oracle == "octahedron":
            report = verify_octahedron(args.trials, args.cutoff or 4, seed)
        elif args.oracle == "plucker":
            report = verify_plucker(args.trials, args.dim or 8, seed)
        elif args.oracle == "plucker4":
            report = verify_plucker4(args.trials, args.dim or 9, seed)
        elif args.oracle == "states":
            report = verify_states(args.cutoff or 6)
        elif args.oracle == "kp":
            report = verify_kp(args.max_weight)
        else:
            report = verify_permutation(args.trials, args.cutoff or 4, seed)
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    _emit(report)
    return EXIT_OK if report["failures"] == 0 else EXIT_VERIFY_FAIL


def _load_db(args) -> oeis.StrippedDb:
    if args.oeis:
        with open(args.oeis, "rb") as fh:
            return oeis.load_stripped(fh)
    return oeis.load_fixture()


def cmd_scan(args) -> int:
    try:
        cfg = scan.ScanConfig(bound=args.bound, terms=args.terms,
                              min_match_terms=args.min_match)
        db = _load_db(args)
    except (ValueError, OSError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    records, summary = scan.run_scan(cfg, db, workers=args.workers)
    for record in records:
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    if args.output:
        scan.write_jsonl(records, args.output)
        scan.write_summary(summary, args.output + ".summary.json")
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_match(args) -> int:
    try:
        terms = [int(x) for x in args.terms_list.split(",")]
        db = _load_db(args)
        policy = oeis.MatchPolicy(min_match_terms=args.min_match,
                                  trim_leading_ones=not args.no_trim)
        hits = oeis.match_sequence(db, terms, policy)
    except oeis.QueryTooShort as exc:
        return _fail(EXIT_PARSE, str(exc))
    except (ValueError, OSError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    result = {"matches": [{"a_number": a, "position": p} for a, p in hits]}
    if args.online:
        endpoint = os.environ.get("TAUSEQ_OEIS_ENDPOINT",
                                  oeis.DEFAULT_ENDPOINT)
        try:
            result["online"] = oeis.search_online(terms, endpoint)
        except oeis.OeisError as exc:
            result["online_error"] = str(exc)
    _emit(result)
    return EXIT_OK


def _set_config_defaults(parser: argparse.ArgumentParser, argv: list[str],
                         path: str) -> None:
    """Make each `key = value` line of a config file the default of the long
    option --key, on the global parser or else on the parser of the
    subcommand named in argv, so that flags on the command line still win."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    command = next((arg for arg in argv if arg in sub.choices), None)
    scopes = [parser] + ([sub.choices[command]] if command else [])
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            flag = "--" + key.replace("_", "-")
            owner = next((p for p in scopes
                          if flag in p._option_string_actions), None)
            if not sep or owner is None:
                parser.error(f"config {path}: unknown key {key!r}")
            action = owner._option_string_actions[flag]
            if action.nargs == 0:  # a switch such as --json
                if value not in ("true", "false"):
                    parser.error(f"config {path}: {key} takes true or false")
                value = value == "true"
            action.required = False  # the file may supply --bound
            owner.set_defaults(**{action.dest: value})


def _worker_count(text: str) -> int:
    """--workers: an integer from 1 to the CPU count."""
    count = int(text) if text.removeprefix("-").isdecimal() else 0
    if not 1 <= count <= (os.cpu_count() or 1):
        raise argparse.ArgumentTypeError(
            f"expected 1 to {os.cpu_count()} (the CPU count), got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauseq",
        description="Octahedral tau-function recurrences, sequences, and "
                    "exact verification oracles.",
        epilog="--config FILE, anywhere in the arguments, reads "
               "'key = value' defaults; flags on the command line win.")
    parser.add_argument("--json", action="store_true",
                        help="echo the resolved configuration in the output")
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
    p.add_argument("oracle", choices=["plucker", "plucker4", "states",
                                      "octahedron", "kp", "permutation"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the global --seed")
    p.add_argument("--cutoff", type=int, default=None, help="window K")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="enumerate polygons and classify")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--terms", type=int, default=24)
    p.add_argument("--min-match", type=int, default=10)
    p.add_argument("--oeis", help="stripped db path (default: fixture)")
    p.add_argument("--output", help="JSONL output path")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="derive processes, 1 to the CPU count")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("match", help="match terms against the offline db")
    p.add_argument("--terms-list", required=True, metavar="TERMS",
                   help="comma-separated integers; write "
                   "--terms-list=-1,... when they start with a minus")
    p.add_argument("--oeis", help="stripped db path (default: fixture)")
    p.add_argument("--min-match", type=int, default=10)
    p.add_argument("--no-trim", action="store_true",
                   help="do not trim leading ones")
    p.add_argument("--online", action="store_true",
                   help="also query the live OEIS endpoint (advisory)")
    p.set_defaults(func=cmd_match)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="tauseq", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config", metavar="FILE")
    known, argv = pre.parse_known_args(argv)
    parser = build_parser()
    if known.config is not None:
        try:
            _set_config_defaults(parser, argv, known.config)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    args = parser.parse_args(argv)
    global _RESOLVED_CONFIG
    _RESOLVED_CONFIG = None
    if args.json:
        _RESOLVED_CONFIG = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "json") and v is not None
        }
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
