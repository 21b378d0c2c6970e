"""The package's layers as the traced run sees them.

``instrument`` wraps the public functions at each module boundary from
outside, wherever the calling module holds them (several are imported by
name, such as ``reports.CharacterTable`` and ``search.graph_bitsets``).  The
``lru_cache`` recursions (``mn_character`` inside ``characters``,
``irreducible_character``, ``_distribution_count``) are never wrapped; they
are read through ``cache_info()`` when the step ends.  ``partitions`` and
``perms`` are sub-microsecond leaf helpers, so their time counts toward the
layer that calls them.

``step_metrics`` turns one traced step into the per-layer metrics.
"""

from __future__ import annotations

import importlib
from types import ModuleType

from spans import Counters, Tracer, by_name

LAYERS = (
    "cli",
    "reports",
    "characters",
    "partitions",
    "perms",
    "spectrum",
    "bounds",
    "families",
    "search",
    "weightopt",
)

FAMILY_CONSTRUCTORS = ("family_B", "family_F", "family_G", "t_coset", "hm_family", "family_H", "family_M")
TABLE_CHECKS = (
    "verify_row_orthogonality",
    "verify_column_orthogonality",
    "verify_dimension_identity",
    "verify_regular_character",
)

# (name, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = (
    ("cli.cpu_s", "s", "lower"),
    ("cli.steps", "count", "higher"),
    ("reports.encode_s", "s", "lower"),
    ("reports.bytes_out", "bytes", "lower"),
    ("characters.table_s", "s", "lower"),
    ("characters.checks_s", "s", "lower"),
    ("characters.det_misses", "count", "lower"),
    ("characters.mn_s", "s", "lower"),
    ("characters.mn_misses", "count", "lower"),
    ("characters.mn_hit_ratio", "ratio", "higher"),
    ("spectrum.eigen_s", "s", "lower"),
    ("spectrum.rows", "count", "lower"),
    ("spectrum.oracle_s", "s", "lower"),
    ("spectrum.adjacency_s", "s", "lower"),
    ("spectrum.oracle_primes", "count", "lower"),
    ("spectrum.oracle_moments", "count", "lower"),
    ("bounds.hoffman_s", "s", "lower"),
    ("bounds.projection_s", "s", "lower"),
    ("bounds.projection_terms", "count", "lower"),
    ("families.build_s", "s", "lower"),
    ("families.members", "count", "lower"),
    ("families.verify_s", "s", "lower"),
    ("families.pairs_checked", "count", "lower"),
    ("families.pairs_per_s", "1/s", "higher"),
    ("search.bitsets_s", "s", "lower"),
    ("search.bnb_s", "s", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.certificate_s", "s", "lower"),
    ("weightopt.lp_s", "s", "lower"),
    ("weightopt.other_s", "s", "lower"),
    ("weightopt.lp_rows", "count", "lower"),
    ("weightopt.lp_cols", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metric -> span names whose self times it sums
SELF_TIME = {
    "reports.encode_s": ("reports.to_json", "reports.table_text"),
    "characters.table_s": ("characters.CharacterTable",),
    "characters.checks_s": tuple(f"characters.{m}" for m in TABLE_CHECKS),
    "characters.mn_s": ("characters.mn_character",),
    "spectrum.eigen_s": ("spectrum.full_spectrum", "spectrum.eigenvalue"),
    "spectrum.oracle_s": ("spectrum.brute_force_spectrum",),
    "spectrum.adjacency_s": ("spectrum.adjacency_matrix",),
    "bounds.hoffman_s": ("bounds.bound_report",),
    "bounds.projection_s": ("bounds.projection_mass",),
    "families.build_s": tuple(f"families.{f}" for f in FAMILY_CONSTRUCTORS),
    "families.verify_s": ("families.verify",),
    "search.bitsets_s": ("search.graph_bitsets",),
    "search.bnb_s": ("search.max_independent_set",),
    "search.certificate_s": ("search.verify_certificate",),
    "weightopt.lp_s": ("weightopt.solve_lp_min",),
    "weightopt.other_s": ("weightopt.optimize_bound",),
}
# metric -> span name whose calls it counts
CALL_COUNT = {"spectrum.rows": "spectrum.eigenvalue"}
# metrics read from counters the wrappers and cache_info() fill in
COUNTERS = (
    "characters.det_misses",
    "characters.mn_misses",
    "characters.mn_hits",
    "spectrum.oracle_primes",
    "spectrum.oracle_moments",
    "bounds.projection_terms",
    "families.members",
    "families.pairs_checked",
    "search.nodes",
    "weightopt.lp_rows",
    "weightopt.lp_cols",
)
STEP_METRICS = (*SELF_TIME, *CALL_COUNT, *COUNTERS)


# ---------------------------------------------------------------------------
# Counter hooks: (counters, args, kwargs, result).


def _oracle(c: Counters, args, kwargs, result) -> None:
    _, cert = result
    c["spectrum.oracle_primes"] += len(cert.primes)
    c["spectrum.oracle_moments"] += cert.moments_checked


def _projection(c: Counters, args, kwargs, result) -> None:
    members = args[0] if args else kwargs.get("members")
    if hasattr(members, "__len__"):
        c["bounds.projection_terms"] += len(members) ** 2


def _members(c: Counters, args, kwargs, result) -> None:
    c["families.members"] += len(result)


def _pairs(c: Counters, args, kwargs, result) -> None:
    c["families.pairs_checked"] += result.checked_pairs


def _nodes(c: Counters, args, kwargs, result) -> None:
    c["search.nodes"] += result.nodes


def _lp_size(c: Counters, args, kwargs, result) -> None:
    cost, a_eq = args[0], args[1]
    c["weightopt.lp_rows"] += len(a_eq)
    c["weightopt.lp_cols"] += len(cost)


# layer -> [(function, hook)], wrapped wherever a package module holds it
BOUNDARIES = {
    "reports": [
        ("to_json", None),
        ("table_text", None),
        ("derangements_report", None),
        ("chartable_report", None),
        ("spectrum_report", None),
        ("table_report", None),
        ("hoffman_report", None),
        ("family_report", None),
        ("family_members_text", None),
        ("search_report", None),
        ("wopt_report", None),
        ("reproduce_report", None),
    ],
    "characters": [("CharacterTable", None)],
    "spectrum": [
        ("full_spectrum", None),
        ("eigenvalue", None),
        ("brute_force_spectrum", _oracle),
        ("adjacency_matrix", None),
    ],
    "bounds": [
        ("bound_report", None),
        ("projection_mass", _projection),
        ("exact_distance_sq_to_span", None),
    ],
    "families": [(f, _members) for f in FAMILY_CONSTRUCTORS] + [("verify", _pairs)],
    "search": [
        ("graph_bitsets", None),
        ("max_independent_set", _nodes),
        ("verify_certificate", None),
    ],
    "weightopt": [("solve_lp_min", _lp_size), ("optimize_bound", None)],
}
# mn_character is wrapped only where other layers call it, so that its own
# recursion inside characters stays unwrapped.
MN_CALLERS = ("spectrum", "bounds", "weightopt")


def _modules() -> dict[str, ModuleType]:
    mods = {"snspectra": importlib.import_module("snspectra")}
    for layer in LAYERS:
        try:
            mods[layer] = importlib.import_module(f"snspectra.{layer}")
        except ImportError:
            continue
    return mods


def instrument(tracer: Tracer) -> None:
    """Wrap every boundary function that exists; a missing one is skipped,
    so its metrics read zero."""
    mods = _modules()
    for layer, functions in BOUNDARIES.items():
        home = mods.get(layer)
        for attr, hook in functions:
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", original, hook)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    characters = mods["characters"]
    table = getattr(characters, "CharacterTable", None)
    table_cls = getattr(table, "__wrapped__", table)
    for method in TABLE_CHECKS:
        original = getattr(table_cls, method, None)
        if original is not None:
            setattr(table_cls, method, tracer.wrap(f"characters.{method}", original))
    mn = getattr(characters, "mn_character", None)
    if mn is not None:
        wrapper = tracer.wrap("characters.mn_character", mn)
        for layer in MN_CALLERS:
            if getattr(mods.get(layer), "mn_character", None) is mn:
                setattr(mods[layer], "mn_character", wrapper)
    cli = mods["cli"]
    cli.main = tracer.wrap("cli.main", cli.main)


def read_caches(counters: Counters) -> None:
    """Cache statistics of the unwrapped recursions, read at step end."""
    characters = _modules()["characters"]

    def info(name: str):
        fn = getattr(characters, name, None)
        return fn.cache_info() if hasattr(fn, "cache_info") else None

    for name in ("irreducible_character", "_distribution_count"):
        ci = info(name)
        if ci is not None:
            counters["characters.det_misses"] += ci.misses
    ci = info("mn_character")
    if ci is not None:
        counters["characters.mn_misses"] += ci.misses
        counters["characters.mn_hits"] += ci.hits


def step_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced step, before the runner adds the
    ones it measures itself (cli.cpu_s, cli.steps, reports.bytes_out,
    trace.overhead_s)."""
    time_by, count_by = by_name(trace)
    out = {m: sum(time_by.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    out.update({m: float(count_by.get(n, 0)) for m, n in CALL_COUNT.items()})
    counters = trace["counters"]
    out.update({m: float(counters.get(m, 0.0)) for m in COUNTERS})
    return out


def derived(totals: dict[str, float]) -> dict[str, float]:
    """Ratios, computed from summed components so that each keeps its base."""
    looked = totals["characters.mn_misses"] + totals["characters.mn_hits"]
    return {
        "characters.mn_hit_ratio": totals["characters.mn_hits"] / looked if looked else 0.0,
        "families.pairs_per_s": totals["families.pairs_checked"] / totals["families.verify_s"]
        if totals["families.verify_s"] > 0
        else 0.0,
        "search.nodes_per_s": totals["search.nodes"] / totals["search.bnb_s"]
        if totals["search.bnb_s"] > 0
        else 0.0,
    }
