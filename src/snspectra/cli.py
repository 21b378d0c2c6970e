"""Command-line surface.

Exit codes: 0 on success, 1 when a verification fails (the failing invariant
is named on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import reports
from .families import FAMILIES, PAIRWISE_CAP
from .perms import DEFAULT_ENUMERATION_CAP
from .search import DEFAULT_NODE_BUDGET, EXHAUSTIVE_CAP
from .spectrum import GRAPH_CAP, SPECTRUM_CAP, TABLE_CAP
from .weightopt import WOPT_CAP


class VerificationFailure(Exception):
    pass


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = (int(end) for end in text.split("..", 1))
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}: the upper end is below the lower end")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to a file instead of stdout")
    common.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="json",
        help="json for every command; csv for chartable, table for table",
    )
    common.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="largest degree for which full enumeration is allowed",
    )

    parser = argparse.ArgumentParser(
        prog="snspectra",
        description=(
            "Exact spectra of the Cayley graphs on S_n joining permutations "
            "that agree on exactly t-1 points, eigenvalue bounds, and the "
            "extremal families attached to them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derangements", parents=[common], help="derangement counts d, even, odd")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("chartable", parents=[common], help="character table as CSV plus checks")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("spectrum", parents=[common], help="full spectrum of the agreement graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the brute-force adjacency oracle",
    )

    p = sub.add_parser("table", parents=[common], help="closed-form eigenvalue table over an n range")
    p.add_argument("--n-range", required=True, help="e.g. 6..12 or a single n")

    p = sub.add_parser("hoffman", parents=[common], help="Hoffman and cross bounds for the graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=2)

    p = sub.add_parser("families", parents=[common], help="construct and check a named family")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--verify-independence", action="store_true")
    p.add_argument(
        "--members",
        action="store_true",
        help="print the member list (cycle notation, one per line) instead of the manifest",
    )

    p = sub.add_parser("search", parents=[common], help="exact maximum independent set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    budget = p.add_mutually_exclusive_group()
    budget.add_argument(
        "--exact",
        "--slow",
        action="store_true",
        help=f"no node budget (the default below n = {EXHAUSTIVE_CAP})",
    )
    budget.add_argument("--node-budget", type=int, default=None)

    p = sub.add_parser("wopt", parents=[common], help="optimal conjugation-invariant weighted bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=2)

    p = sub.add_parser("reproduce", parents=[common], help="bundle of table, bounds and family checks")
    p.add_argument("--n-range", required=True, help="e.g. 6..12")

    return parser


def _finish(report: dict, args: argparse.Namespace) -> str:
    report["config"]["seed"] = args.seed
    report["config"]["cap"] = args.cap
    return reports.to_json(report)


def _node_budget(args: argparse.Namespace) -> int | None:
    if args.node_budget is None and args.n >= EXHAUSTIVE_CAP and not args.exact:
        return DEFAULT_NODE_BUDGET
    return args.node_budget


def _cap(what: str, value: int, cap: int, by: str) -> None:
    if value > cap:
        raise ValueError(f"{what} capped at {cap} by {by} (got {value})")


# every command writes json; each other format is written by one command
FORMAT_COMMAND = {"csv": "chartable", "table": "table"}


def check_caps(args: argparse.Namespace) -> None:
    """The cap policy: size the input from the arguments alone and refuse it
    before any work.  Each limit is the constant beside the route it guards.
    A ``--format`` the command does not write is refused first."""
    command, n = args.command, getattr(args, "n", None)
    if args.format != "json" and FORMAT_COMMAND[args.format] != command:
        raise ValueError(
            f"--format {args.format} is written only by "
            f"{FORMAT_COMMAND[args.format]}, not by {command}"
        )
    if command == "derangements":
        # d_n, the integer nearest n!/e, prints within the interpreter's limit
        # of L digits exactly when log10(n!/e) < L
        limit = sys.get_int_max_str_digits()
        if limit and n > 1 and (math.lgamma(n + 1) - 1) / math.log(10) >= limit:
            raise ValueError(
                f"derangements: d_{n} has more than {limit} digits, the "
                "sys.get_int_max_str_digits() limit for printing integers"
            )
    elif command == "chartable":
        _cap("chartable: n is", n, args.cap, "--cap")
    elif command in ("spectrum", "hoffman", "reproduce"):
        if command == "spectrum" and n < 3:
            raise ValueError(
                f"spectrum: need n >= 3 to class each row 2-fat, 2-tall or 2-medium (got n={n})"
            )
        top = _parse_range(args.n_range)[1] if command == "reproduce" else n
        _cap("full spectra: n is", top, SPECTRUM_CAP, "SPECTRUM_CAP")
        if command == "spectrum" and args.verify:
            _cap("spectrum --verify: n is", n, GRAPH_CAP, "GRAPH_CAP")
    elif command == "table":
        _cap("table: the top of --n-range is", _parse_range(args.n_range)[1], TABLE_CAP, "TABLE_CAP")
    elif command == "wopt":
        _cap("wopt: n is", n, WOPT_CAP, "WOPT_CAP")
    elif command == "search":
        _cap("search: n is", n, GRAPH_CAP, "GRAPH_CAP")
        if _node_budget(args) is None:
            _cap("search without a node budget: n is", n, EXHAUSTIVE_CAP, "EXHAUSTIVE_CAP")
    elif command == "families":
        name, spec, t = args.family, FAMILIES[args.family], args.t
        free = n - spec.pinned(t)
        if not 1 <= t <= n:
            raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
        if free < spec.min_free:
            raise ValueError(f"family {name} needs n >= {n - free + spec.min_free}")
        _cap(f"family {name}: unpinned points are", free, args.cap, "--cap")
        if args.verify_independence and not args.members:
            size = spec.size_formula(n) if spec.size_formula else math.factorial(free)
            _cap(f"pairwise check: family {name} size is", size, PAIRWISE_CAP, "PAIRWISE_CAP")


def run(args: argparse.Namespace) -> str:
    check_caps(args)
    if args.command == "derangements":
        return _finish(reports.derangements_report(args.n), args)

    if args.command == "chartable":
        report, csv_text = reports.chartable_report(args.n)
        if not all(report["checks"].values()):
            failing = [k for k, v in report["checks"].items() if not v]
            raise VerificationFailure(f"character table checks failed: {failing}")
        if args.format == "csv":
            return csv_text
        report["csv"] = csv_text
        return _finish(report, args)

    if args.command == "spectrum":
        report = reports.spectrum_report(args.n, args.t, args.verify, args.seed)
        if report["trace_check"] != "pass":
            raise VerificationFailure("spectrum trace identity failed")
        if args.verify and not report["oracle"]["match"]:
            raise VerificationFailure("spectrum does not match the brute-force oracle")
        return _finish(report, args)

    if args.command == "table":
        lo, hi = _parse_range(args.n_range)
        report = reports.table_report(lo, hi)
        if not report["all_match"]:
            raise VerificationFailure("closed forms disagree with the character route")
        if args.format == "table":
            return reports.table_text(report)
        return _finish(report, args)

    if args.command == "hoffman":
        return _finish(reports.hoffman_report(args.n, args.t), args)

    if args.command == "families":
        if args.members:
            return reports.family_members_text(args.family, args.n, args.t)
        report = reports.family_report(
            args.family, args.n, args.t, args.verify_independence
        )
        if report["formula_match"] is False:
            raise VerificationFailure(
                f"family {args.family} size does not match its formula"
            )
        checked = report["predicates_checked"]
        if "independent" in checked and not checked["independent"]["ok"]:
            raise VerificationFailure(
                f"family {args.family} is not independent; witness "
                f"{checked['independent']['witness']}"
            )
        return _finish(report, args)

    if args.command == "search":
        report = reports.search_report(args.n, args.t, _node_budget(args))
        if not report["witness_verified"]:
            raise VerificationFailure("search witness failed re-verification")
        return _finish(report, args)

    if args.command == "wopt":
        report = reports.wopt_report(args.n, args.t)
        if not report["certified"]:
            raise VerificationFailure("weighted bound optimum failed certification")
        return _finish(report, args)

    if args.command == "reproduce":
        lo, hi = _parse_range(args.n_range)
        report = reports.reproduce_report(lo, hi)
        if not report["all_checks_pass"]:
            raise VerificationFailure("reproduction bundle has failing checks")
        return _finish(report, args)

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = run(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
