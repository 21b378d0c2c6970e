"""Command-line surface, one function per command.  Each sizes its input
from the arguments alone and refuses it before any work when it is over a
limit (the constant beside the route it guards), then calls its report
builder, which raises ArithmeticError at any check that fails.

Exit codes: 0 on success; 1 when a check fails, an ArithmeticError (the
failed check is named on stderr); 2 when an input is refused, a ValueError
or an argparse usage error, and when the ``--out`` file cannot be written.

Each command imports the modules of its route, and the caps kept beside
them, when it runs, so importing this module loads only ``reports`` and the
family registry that the parser reads (with ``perms``, which it uses).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import reports
from .families import FAMILIES, PAIRWISE_CAP
from .perms import DERANGEMENT_CAP, ENUMERATION_CAP, ROW_DEGREE_CAP


def _cap(what: str, value: int, cap: int, by: str) -> None:
    if value > cap:
        raise ValueError(f"{what} capped at {cap} by {by} (got {value})")


def _parse_range(text: str, start: int) -> tuple[int, int]:
    """(lo, hi) of an ``--n-range``; a lower end below 1 (no such degree) and
    a top below ``start``, the first n its command checks, are refused."""
    try:
        if ".." in text:
            lo, hi = (int(end) for end in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"--n-range {text!r} is not of the form N or LO..HI") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}: the upper end is below the lower end")
    if lo < 1:
        raise ValueError(f"range {text!r} starts below 1: no degree below 1 exists")
    if hi < start:
        raise ValueError(f"range {text!r} checks nothing: the first n checked is {start}")
    return lo, hi


def derangements(args: argparse.Namespace) -> dict:
    # d_n, the integer nearest n!/e, prints within the interpreter's limit
    # of L digits exactly when log10(n!/e) < L; from n = 26 on log10(n!/e) > n,
    # and L >= 640, so n > L is refused before lgamma could overflow.  With
    # the limit off (L = 0), DERANGEMENT_CAP bounds the run.
    n, limit = args.n, sys.get_int_max_str_digits()
    if limit and n > 1 and (n > limit or (math.lgamma(n + 1) - 1) / math.log(10) >= limit):
        raise ValueError(
            f"derangements: d_{n} has more than {limit} digits, the "
            "sys.get_int_max_str_digits() limit for printing integers"
        )
    _cap("derangements: n is", n, DERANGEMENT_CAP, "DERANGEMENT_CAP")
    return reports.derangements_report(n)


def chartable(args: argparse.Namespace) -> dict | str:
    _cap("chartable: n is", args.n, ENUMERATION_CAP, "ENUMERATION_CAP")
    report, csv_text = reports.chartable_report(args.n)
    return csv_text if args.format == "csv" else {**report, "csv": csv_text}


def spectrum(args: argparse.Namespace) -> dict:
    from .spectrum import GRAPH_CAP, SPECTRUM_CAP

    if args.n < 3:
        raise ValueError(
            f"spectrum: need n >= 3 to class each row 2-fat, 2-tall or 2-medium (got n={args.n})"
        )
    _cap("full spectra: n is", args.n, SPECTRUM_CAP, "SPECTRUM_CAP")
    if args.verify:
        _cap("spectrum --verify: n is", args.n, GRAPH_CAP, "GRAPH_CAP")
    return reports.spectrum_report(args.n, args.t, args.verify)


def table(args: argparse.Namespace) -> dict | str:
    from .spectrum import TABLE_CAP, TABLE_START

    lo, hi = _parse_range(args.n_range, TABLE_START)
    _cap("table: the top of --n-range is", hi, TABLE_CAP, "TABLE_CAP")
    report = reports.table_report(lo, hi)
    return reports.table_text(report) if args.format == "table" else report


def hoffman(args: argparse.Namespace) -> dict:
    from .spectrum import SPECTRUM_CAP

    _cap("full spectra: n is", args.n, SPECTRUM_CAP, "SPECTRUM_CAP")
    if args.t == args.n:
        raise ValueError(
            f"hoffman: the generating set is empty (no permutation of degree {args.n} has "
            f"exactly {args.n - 1} fixed points), so no eigenvalue bound applies"
        )
    return reports.hoffman_report(args.n, args.t)


def families(args: argparse.Namespace) -> dict | str:
    name, spec, n, t = args.family, FAMILIES[args.family], args.n, args.t
    _cap(f"family {name}: n is", n, ROW_DEGREE_CAP, "ROW_DEGREE_CAP, the int8 row limit")
    free = n - spec.pinned(t)
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    if free < spec.min_free:
        raise ValueError(f"family {name} needs n >= {n - free + spec.min_free}")
    _cap(f"family {name}: unpinned points are", free, ENUMERATION_CAP, "ENUMERATION_CAP")
    if args.members:
        return reports.family_members_text(name, n, t)
    if args.verify_independence:
        size = spec.size_formula(n) if spec.size_formula else math.factorial(free)
        _cap(f"pairwise check: family {name} size is", size, PAIRWISE_CAP, "PAIRWISE_CAP")
    return reports.family_report(name, n, t, args.verify_independence)


def search(args: argparse.Namespace) -> dict:
    from .search import DEFAULT_NODE_BUDGET, EXHAUSTIVE_CAP, EXHAUSTIVE_CAP_SLOW_T
    from .spectrum import GRAPH_CAP

    n = args.n
    budget = None if args.exact or n < EXHAUSTIVE_CAP else DEFAULT_NODE_BUDGET
    _cap("search: n is", n, GRAPH_CAP, "GRAPH_CAP")
    if budget is None:
        _cap("search without a node budget: n is", n, EXHAUSTIVE_CAP, "EXHAUSTIVE_CAP")
        if n == EXHAUSTIVE_CAP and args.t in EXHAUSTIVE_CAP_SLOW_T:
            raise ValueError(
                f"search without a node budget: t = {args.t} at n = {n} is refused by "
                f"EXHAUSTIVE_CAP_SLOW_T = {EXHAUSTIVE_CAP_SLOW_T}"
            )
    return reports.search_report(n, args.t, budget)


def wopt(args: argparse.Namespace) -> dict:
    from .weightopt import WOPT_CAP

    _cap("wopt: n is", args.n, WOPT_CAP, "WOPT_CAP")
    return reports.wopt_report(args.n, args.t)


def reproduce(args: argparse.Namespace) -> dict:
    from .spectrum import SPECTRUM_CAP

    lo, hi = _parse_range(args.n_range, reports.REPRODUCE_START)
    _cap("full spectra: n is", hi, SPECTRUM_CAP, "SPECTRUM_CAP")
    return reports.reproduce_report(lo, hi)


def _n_t(p: argparse.ArgumentParser, t: bool = True) -> argparse.ArgumentParser:
    """Add the shared --n and, unless ``t`` is false, --t."""
    p.add_argument("--n", type=int, required=True)
    if t:
        p.add_argument("--t", type=int, default=2)
    return p


class _SearchHelp(argparse.HelpFormatter):
    """Writes ``EXHAUSTIVE_CAP`` into the search help when the help is
    printed, so that building the parser imports no search module."""

    def _get_help_string(self, action: argparse.Action) -> str:
        from .search import EXHAUSTIVE_CAP

        return action.help.replace("EXHAUSTIVE_CAP", str(EXHAUSTIVE_CAP))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to a file instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="seed recorded in reports")

    parser = argparse.ArgumentParser(
        prog="snspectra",
        description=(
            "Exact spectra of the Cayley graphs on S_n joining permutations "
            "that agree on exactly t-1 points, eigenvalue bounds, and the "
            "extremal families attached to them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        run, help: str, formats: tuple[str, ...] = ("json",), **kw
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(run.__name__, parents=[common], help=help, **kw)
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(run=run)
        return p

    _n_t(command(derangements, "derangement counts d, even, odd"), t=False)
    _n_t(command(chartable, "character table as CSV plus checks", ("json", "csv")), t=False)
    _n_t(command(spectrum, "full spectrum of the agreement graph")).add_argument(
        "--verify", action="store_true", help="cross-check against the brute-force adjacency oracle"
    )
    command(table, "closed-form eigenvalue table over an n range", ("json", "table")).add_argument(
        "--n-range", required=True, help="e.g. 6..12 or a single n"
    )
    _n_t(command(hoffman, "Hoffman and cross bounds for the graph"))

    p = command(families, "construct and check a named family")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    output = _n_t(p).add_mutually_exclusive_group()
    output.add_argument("--verify-independence", action="store_true")
    output.add_argument(
        "--members",
        action="store_true",
        help="print the member list (cycle notation, one per line) instead of the manifest",
    )

    p = command(search, "exact maximum independent set", formatter_class=_SearchHelp)
    _n_t(p).add_argument(
        "--exact",
        "--slow",
        action="store_true",
        help="no node budget (the default below n = EXHAUSTIVE_CAP)",
    )

    _n_t(command(wopt, "optimal conjugation-invariant weighted bound"))
    command(reproduce, "bundle of table, bounds and family checks").add_argument(
        "--n-range", required=True, help="e.g. 6..12"
    )
    return parser


def run(args: argparse.Namespace) -> str:
    """Run the command and echo ``--seed`` and ``perms.ENUMERATION_CAP``
    (as ``cap``) into its json report, if it returns one."""
    report = args.run(args)
    if isinstance(report, str):
        return report
    report["config"].update(seed=args.seed, cap=ENUMERATION_CAP)
    return reports.to_json(report)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
