"""Report assembly and bit-exact serialization.

Every report embeds the configuration that produced it and a schema
version.  All integers and rationals are serialized as decimal strings
(eigenvalue products overflow fixed-width integers well before n = 12), so
identical configs produce byte-identical output.

Each builder imports the compute modules it calls when it runs, so that a
command loads only what it uses.  ``families`` and ``perms`` are the
exception: the CLI parser reads the family registry, which loads both.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from . import families as fam_mod
from .perms import derangement_counts, format_cycles

SCHEMA_VERSION = "1"


def encode(value: Any) -> Any:
    """Decimal-string encoding for exact values; containers recurse.  A
    record (a NamedTuple) is refused, not flattened into a list: a report
    names its fields."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if hasattr(value, "_fields"):
            raise TypeError(f"cannot encode a {type(value).__name__} record: report its fields")
        return [encode(v) for v in value]
    return value


def to_json(report: dict) -> str:
    return json.dumps(encode(report), sort_keys=True, indent=2) + "\n"


def _base(command: str, config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
    }


# ---------------------------------------------------------------------------


def derangements_report(n: int) -> dict:
    counts = derangement_counts(n)
    report = _base("derangements", {"n": n})
    report.update({"n": n, "d": counts.d, "even": counts.e, "odd": counts.o})
    return report


def chartable_report(n: int) -> tuple[dict, str]:
    from .characters import CharacterTable

    table = CharacterTable(n)
    checks = {
        "row_orthogonality": table.verify_row_orthogonality(),
        "column_orthogonality": table.verify_column_orthogonality(),
        "dimension_identity": table.verify_dimension_identity(),
        "regular_character": table.verify_regular_character(),
    }
    failing = [k for k, ok in checks.items() if not ok]
    if failing:
        raise ArithmeticError(f"character table checks failed: {failing}")
    report = _base("chartable", {"n": n})
    report.update({"n": n, "checks": checks})
    return report, table.to_csv()


def spectrum_report(n: int, t: int, verify: bool) -> dict:
    from .partitions import classify, format_partition
    from .spectrum import brute_force_spectrum, full_spectrum

    spec = full_spectrum(n, t)
    rows = [
        {
            "partition": format_partition(r.partition),
            "eigenvalue": r.eigenvalue,
            "multiplicity": r.multiplicity,
            "fatness_class": f"2-{classify(r.partition, 2)}",
        }
        for r in spec.rows
    ]
    report = _base("spectrum", {"n": n, "t": t, "verify": verify})
    report.update(
        {
            "n": n,
            "t": t,
            "degree": spec.degree,
            "rows": rows,
            "lambda_min": spec.lambda_min,
            "argmin": [format_partition(a) for a in spec.argmin],
            "lambda_second": spec.lambda_second,
            "nu": spec.nu,
            "trace_check": "pass",  # full_spectrum raises unless it holds
        }
    )
    if spec.degree == 0:
        report["warning"] = f"no permutation of degree {n} has exactly {t - 1} fixed points"
    if verify:
        pairs, cert = brute_force_spectrum(n, t)
        if pairs != spec.multiset():
            raise ArithmeticError("spectrum does not match the brute-force oracle")
        report["oracle"] = {
            "match": True,
            "method": "matrix-annihilation",
            "primes": list(cert.primes),
            "max_residual": cert.max_residual,
            "moments_checked": cert.moments_checked,
        }
    return report


def table_report(n_start: int, n_stop: int) -> dict:
    """Closed-form eigenvalues of the eight fat/tall rows, cross-checked
    against the character route, for a range of degrees."""
    from .partitions import format_partition
    from .spectrum import (
        TABLE_ROWS,
        TABLE_START,
        class_eigenvalues,
        closed_form_eigenvalue,
        generating_classes,
        table_row_partition,
    )

    columns = []
    for n in range(n_start, n_stop + 1):
        if n < TABLE_START:
            status = f"collision regime; closed forms need n >= {TABLE_START}"
            columns.append({"n": n, "status": status})
            continue
        classes = generating_classes(n, 2)
        rows = []
        for label in TABLE_ROWS:
            alpha = table_row_partition(label, n)
            closed = closed_form_eigenvalue(label, n)
            char_route = sum(class_eigenvalues(alpha, classes))
            if closed != char_route:
                raise ArithmeticError(
                    f"closed forms disagree with the character route: row {label} at n={n}"
                )
            rows.append(
                {
                    "row": label,
                    "partition": format_partition(alpha),
                    "closed_form": closed,
                    "character_route": char_route,
                    "match": True,
                }
            )
        columns.append({"n": n, "rows": rows})
    report = _base("table", {"n_start": n_start, "n_stop": n_stop})
    report.update({"columns": columns, "all_match": True})
    return report


def table_text(report: dict) -> str:
    """Aligned text rendering of the closed-form table, one column per n."""
    from .spectrum import TABLE_ROWS

    ns = [c["n"] for c in report["columns"] if "rows" in c]
    lines = []
    header = ["row".ljust(14)] + [str(n).rjust(14) for n in ns]
    lines.append(" ".join(header))
    for i, label in enumerate(TABLE_ROWS):
        cells = [label.ljust(14)]
        for c in report["columns"]:
            if "rows" not in c:
                continue
            cells.append(str(c["rows"][i]["closed_form"]).rjust(14))
        lines.append(" ".join(cells))
    skipped = [c for c in report["columns"] if "rows" not in c]
    for c in skipped:
        lines.append(f"n={c['n']}: {c['status']}")
    return "\n".join(lines) + "\n"


def hoffman_report(n: int, t: int) -> dict:
    from .bounds import bound_report

    br = bound_report(n, t)
    report = _base("hoffman", {"n": n, "t": t})
    report.update(
        {
            "n": n,
            "t": t,
            "degree": br.degree,
            "vertices": br.nverts,
            "lambda_min": br.lambda_min,
            "nu": br.nu,
            "hoffman_value": br.hoffman_value,
            "cross_value": br.cross_value,
            "cross_value_squared": br.cross_value_squared,
            "target": math.factorial(n - t),
            "ratio_to_target": br.ratio_to_target,
        }
    )
    return report


def family_report(name: str, n: int, t: int, verify_independence: bool) -> dict:
    spec = fam_mod.FAMILIES[name]
    family = spec.build(n, t)
    formula = None if spec.size_formula is None else spec.size_formula(n)
    if formula is not None and formula != len(family):
        raise ArithmeticError(f"family {name} size does not match its formula")
    report = _base(
        "families",
        {"family": name, "n": n, "t": t, "verify_independence": verify_independence},
    )
    report.update(
        {
            "n": n,
            "label": family.label,
            "size": len(family),
            "size_formula": formula,
            "formula_match": None if formula is None else True,
        }
    )
    predicates: dict[str, Any] = {}
    if verify_independence:
        res = fam_mod.verify(family, t)
        if not res.ok:
            witness = [format_cycles(w) for w in res.witness]
            raise ArithmeticError(f"family {name} is not independent; witness {witness}")
        predicates["independent"] = {
            "ok": True,
            "checked_pairs": res.checked_pairs,
            "witness": None,
        }
    report["predicates_checked"] = predicates
    return report


def family_members_text(name: str, n: int, t: int) -> str:
    family = fam_mod.FAMILIES[name].build(n, t)
    return "\n".join(format_cycles(s) for s in family.members.tolist()) + "\n"


def search_report(n: int, t: int, node_budget: int | None) -> dict:
    from .search import max_independent_set, verify_certificate

    result = max_independent_set(n, t, node_budget=node_budget)
    if not verify_certificate(result):
        raise ArithmeticError("search witness failed re-verification")
    report = _base("search", {"n": n, "t": t, "node_budget": node_budget})
    report.update(
        {
            "n": n,
            "t": t,
            "independence_number": result.independence_number,
            "exact": result.exact,
            "witness": [format_cycles(s) for s in result.witness],
            "witness_verified": True,
            "nodes": result.nodes,
            # the graph is vertex-transitive, so every search forces the identity in
            "forced_identity": True,
            "t_coset_size": math.factorial(n - t),
        }
    )
    if result.upper_bound is not None:
        report["upper_bound"] = result.upper_bound
    return report


def wopt_report(n: int, t: int) -> dict:
    from .bounds import bound_report
    from .partitions import format_partition
    from .weightopt import optimize_bound

    result = optimize_bound(n, t)
    report = _base("wopt", {"n": n, "t": t})
    report.update(
        {
            "n": n,
            "t": t,
            "classes": [
                {"cycle_type": format_partition(c), "weight": w}
                for c, w in result.weights
            ],
            "least_weighted_eigenvalue": result.least_eigenvalue,
            "bound": result.bound,
            "uniform_bound": bound_report(n, t).hoffman_value,
            "certified": True,  # optimize_bound raises unless certified
            "ratio_to_stabilizer_target": result.bound / math.factorial(n - t),
            "ratio_to_pair_target": result.bound / math.factorial(n - 2),
        }
    )
    return report


# ---------------------------------------------------------------------------

# the first degree the reproduction bundle checks: its spectral extremes
REPRODUCE_START = 4


def reproduce_report(n_start: int, n_stop: int) -> dict:
    """One bundle collecting the closed-form eigenvalue table, extremes of
    the spectrum, Hoffman ratios, and family size formula checks.  Each
    check raises ArithmeticError where it is made; ``checks_run`` counts
    them."""
    from .bounds import bound_report
    from .partitions import format_partition
    from .spectrum import full_spectrum

    sections: dict[str, Any] = {}

    sections["eigenvalue_table"] = table_report(n_start, n_stop)
    checks_run = 1

    extremes = []
    for n in range(max(n_start, REPRODUCE_START), n_stop + 1):
        spec = full_spectrum(n, 2)  # raises unless the trace identity holds
        hoff = bound_report(n, 2)
        checks_run += 1
        row = {
            "n": n,
            "degree": spec.degree,
            "lambda_min": spec.lambda_min,
            "argmin": [format_partition(a) for a in spec.argmin],
            "trace_check": "pass",
            "hoffman_value": hoff.hoffman_value,
            "hoffman_ratio_to_pair_stabilizer": hoff.ratio_to_target,
        }
        if n >= 5:
            if hoff.hoffman_value < math.factorial(n - 2):
                raise ArithmeticError(
                    f"reproduction bundle has failing checks: the Hoffman bound at n={n} "
                    "is below (n-2)!"
                )
            row["hoffman_sound_vs_2coset"] = True
            checks_run += 1
        extremes.append(row)
    sections["spectral_extremes"] = extremes

    sizes = []
    for n in range(max(n_start, 7), min(n_stop, 9) + 1):
        for name in ("B", "F1", "F2", "F3", "F4"):
            sized = family_report(name, n, 2, False)  # raises unless the size matches
            checks_run += 1
            size, formula = sized["size"], sized["size_formula"]
            sizes.append({"n": n, "family": name, "size": size, "formula": formula, "match": True})
    sections["family_sizes"] = sizes

    report = _base("reproduce", {"n_start": n_start, "n_stop": n_stop})
    report.update(
        {
            "sections": sections,
            "all_checks_pass": True,
            "checks_run": checks_run,
        }
    )
    return report
