"""Command-line surface.

Exit codes: 0 on success, 1 when a verification fails (the failing invariant
is named on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from . import reports
from .perms import DEFAULT_ENUMERATION_CAP


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
        help="output format where the command supports several",
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
    p.add_argument("--family", required=True, choices=reports.FAMILY_NAMES)
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
    p.add_argument("--exact", action="store_true", help="no node budget (default)")
    p.add_argument(
        "--slow",
        action="store_true",
        help="allow the large n=6..7 searches without a budget",
    )
    p.add_argument("--node-budget", type=int, default=None)

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


def run(args: argparse.Namespace) -> str:
    if args.command == "derangements":
        return _finish(reports.derangements_report(args.n), args)

    if args.command == "chartable":
        if args.n > args.cap:
            raise ValueError(f"chartable capped at n <= {args.cap}")
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
        if args.n - 2 > args.cap:
            raise ValueError(
                f"family construction enumerates degree {args.n - 2} cosets; "
                f"raise --cap (currently {args.cap}) to allow it"
            )
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
        budget = args.node_budget
        if budget is None and args.n >= 6 and not args.slow:
            budget = 500_000
        report = reports.search_report(args.n, args.t, budget)
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
