"""Command-line interface.

    loopbetti betti FILE [--max-dim T] [--json]
    loopbetti verify FILE [--s-max S] [--t-max T] [--loop-max N]
                          [--brute-loop-max N] [--direct-budget B]
                          [--json | --csv]
    loopbetti conjecture [--n-max N] [--json]

Exit status is 0 exactly when every asserted agreement holds; unreadable
files, parse errors and usage errors (including negative numbers) exit
with status 2.  A run that runs out of memory also exits with status 2,
printing one line that names the options to lower instead of a traceback.
That is a stopgap: work over a budget is not yet declined up front.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .closed_form import conjecture_rows
from .homology import reduced_betti
from .simplicial import TruncationError, ValidationError
from .sset_io import ParseError, parse_file
from .verify import DEFAULT_BRUTE_LOOP_MAX, DEFAULT_DIRECT_BUDGET, run_verify


def _cmd_betti(args) -> int:
    space, _ = parse_file(args.file)
    table = reduced_betti(space, args.max_dim)
    if args.json:
        doc = {
            "command": "betti",
            "file": str(args.file),
            "max_dim": args.max_dim,
            "betti": {str(n): table[n] for n in range(args.max_dim + 1)},
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        for n in range(args.max_dim + 1):
            sys.stdout.write(f"b{n} = {table[n]}\n")
    return 0


def _cmd_verify(args) -> int:
    space, invol = parse_file(args.file)
    if invol is None:
        sys.stderr.write("error: verify needs a file with an involution\n")
        return 2
    report = run_verify(
        space,
        invol,
        s_max=args.s_max,
        t_max=args.t_max,
        fixture=str(args.file),
        loop_max=args.loop_max,
        brute_loop_max=args.brute_loop_max,
        direct_budget=args.direct_budget,
    )
    if args.json:
        sys.stdout.write(report.to_json())
    elif args.csv:
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.human())
    return 0 if report.agreement else 1


def _cmd_conjecture(args) -> int:
    rows = conjecture_rows(args.n_max)
    mismatch = [r for r in rows if r[3] and r[1] != r[2]]
    if args.json:
        doc = {
            "command": "conjecture",
            "n_max": args.n_max,
            "rows": [
                {
                    "n": n,
                    "closed_form": closed,
                    "series": series,
                    "status": "asserted" if asserted else "conjectured",
                }
                for n, closed, series, asserted in rows
            ],
            "agreement": not mismatch,
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("  n  closed  series\n")
        for n, closed, series, asserted in rows:
            marker = "" if asserted else "  (conjectured)"
            bad = "" if closed == series else "  <- MISMATCH"
            sys.stdout.write(f"{n:>3}  {closed:>6}  {series:>6}{marker}{bad}\n")
    return 1 if mismatch else 0


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopbetti",
        description=(
            "Mod-2 Betti numbers of the loop space of the 1-stunted Borel "
            "construction of an involution, computed three independent ways."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="reduced Betti numbers of a simplicial-set file")
    p_betti.add_argument("file")
    p_betti.add_argument("--max-dim", type=nonnegative, default=4)
    p_betti.add_argument("--json", action="store_true")
    p_betti.set_defaults(func=_cmd_betti, limits="--max-dim")

    p_verify = sub.add_parser("verify", help="cross-validate the three computation paths")
    p_verify.add_argument("file")
    p_verify.add_argument("--s-max", type=nonnegative, default=3)
    p_verify.add_argument("--t-max", type=nonnegative, default=4)
    p_verify.add_argument("--loop-max", type=nonnegative, default=None)
    p_verify.add_argument(
        "--brute-loop-max",
        type=nonnegative,
        default=DEFAULT_BRUTE_LOOP_MAX,
        help="largest smash power brute-forced for the loop row",
    )
    p_verify.add_argument("--direct-budget", type=nonnegative, default=DEFAULT_DIRECT_BUDGET)
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true")
    p_verify.set_defaults(func=_cmd_verify, limits="--s-max, --t-max or --brute-loop-max")

    p_conj = sub.add_parser(
        "conjecture", help="closed form against the generating-function coefficients"
    )
    p_conj.add_argument("--n-max", type=nonnegative, default=12)
    p_conj.add_argument("--json", action="store_true")
    p_conj.set_defaults(func=_cmd_conjecture, limits="--n-max")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, ParseError, ValidationError, TruncationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        pass
    # reported after the handler, once the traceback and the tables its
    # frames hold are released
    sys.stderr.write(f"error: out of memory in {args.command}; lower {args.limits}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
