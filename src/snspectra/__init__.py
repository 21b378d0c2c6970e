"""Exact-arithmetic toolkit for the Cayley graphs on symmetric groups that
join permutations agreeing on exactly t-1 points: character-theoretic
spectra, Hoffman-type bounds, extremal families, exact independent-set
search, and weighted-bound optimization."""

from .bounds import (
    BoundReport,
    bound_report,
    cross_hoffman_bound,
    cross_hoffman_bound_squared,
    exact_distance_sq_to_span,
    hoffman_bound,
    paper_tail_split,
    projection_mass,
    stability_gap_bound,
)
from .characters import (
    CharacterTable,
    character_table,
    class_size,
    mn_character,
)
from .families import (
    Family,
    family_B,
    family_B_size_formula,
    family_F,
    family_F_size_formula,
    family_G,
    family_H,
    family_M,
    hilton_milner_tail,
    hm_family,
    t_coset,
    verify,
)
from .partitions import (
    classify,
    dimension,
    parse_partition,
    format_partition,
    partitions_of,
    transpose,
)
from .perms import (
    DerangementCounts,
    agree_count,
    compose,
    cycle_type,
    derangement_count,
    derangement_counts,
    format_cycles,
    identity,
    inverse,
    parse_cycles,
    sign,
)
from .search import max_independent_set, verify_certificate
from .spectrum import (
    GeneratingSet,
    Spectrum,
    brute_force_spectrum,
    closed_form_eigenvalue,
    eigenvalue,
    fixed_point_generating_set,
    full_spectrum,
    graph_spectrum,
    table_row_partition,
)
from .weightopt import (
    ClassWeighting,
    optimize_bound,
    uniform_weighting,
    weighted_eigenvalue,
)

__version__ = "0.1.0"
