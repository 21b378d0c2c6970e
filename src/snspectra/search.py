"""Exact maximum independent set search on the forbidden-agreement graphs.

Vertices are the permutations of S_n in lexicographic one-line order,
adjacency is agreement on exactly t-1 points, and candidate sets live in
Python-int bitsets.  The branch-and-bound exhausts its tree (no first-found
termination), so the result and witness are deterministic.

Because agreement counts are translation invariant, the graph is
vertex-transitive and any maximum independent set can be translated to one
containing the identity; forcing the identity in is the default symmetry
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import bound_report
from .families import Family, verify
from .perms import all_perms
from .spectrum import agreement_neighbours
from .weightopt import NoGeneratingClassesError, optimize_bound


@lru_cache(maxsize=None)
def graph_bitsets(n: int, t: int = 2) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(vertices in lex order, adjacency bitmasks); bit j of mask i is set
    when vertices i and j are adjacent."""
    nbrs = agreement_neighbours(n, t)
    size = len(nbrs)
    rows = np.zeros((size, size), dtype=bool)
    np.put_along_axis(rows, nbrs, True, axis=1)
    packed = np.packbits(rows, axis=1, bitorder="little")
    adj = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return tuple(all_perms(n)), adj


@dataclass(frozen=True)
class SearchResult:
    n: int
    t: int
    independence_number: int
    witness: tuple[tuple[int, ...], ...]
    nodes: int
    exact: bool
    forced_identity: bool
    upper_bound: int | None = None  # spectral bound, reported when inexact


def _greedy_clique_cover_bound(candidates: int, adj: tuple[int, ...], room: int) -> int:
    """Upper bound on the independent set inside ``candidates``: number of
    cliques in a greedy clique partition (an independent set meets each
    clique at most once).  The caller only asks whether the count is at most
    ``room``, so the count stops as soon as it exceeds ``room``."""
    cliques = 0
    rest = candidates
    while rest and cliques <= room:
        v = (rest & -rest).bit_length() - 1
        common = rest & adj[v]
        rest ^= 1 << v
        while common:
            u = (common & -common).bit_length() - 1
            rest ^= 1 << u
            common &= adj[u]
        cliques += 1
    return cliques


def _spectral_upper_bound(n: int, t: int) -> int:
    """floor of the certified optimal weighted Hoffman bound, or of the plain
    Hoffman bound when the LP optimum fails its certificate.  The weighted
    bound is never the weaker: uniform weights are feasible for its LP.  At
    t = n no class has t-1 fixed points, the graph has no edges and no
    eigenvalue bound applies, so the bound is the vertex count n!."""
    try:
        weighted = optimize_bound(n, t)
    except NoGeneratingClassesError:
        return math.factorial(n)
    if weighted.certified:
        return math.floor(weighted.bound)
    return math.floor(bound_report(n, t).hoffman_value)


def _solve(
    verts: tuple[tuple[int, ...], ...],
    adj: tuple[int, ...],
    t: int,
    *,
    force_identity: bool,
    node_budget: int | None,
) -> SearchResult:
    size = len(verts)
    full = (1 << size) - 1
    n = len(verts[0]) if verts else 0

    best_size = 0
    best_mask = 0
    nodes = 0
    exhausted = True

    def branch(chosen: int, chosen_size: int, pool: int) -> None:
        nonlocal best_size, best_mask, nodes, exhausted
        if node_budget is not None and nodes >= node_budget:
            exhausted = False
            return
        nodes += 1
        if chosen_size > best_size:
            best_size = chosen_size
            best_mask = chosen
        if not pool:
            return
        room = best_size - chosen_size
        if pool.bit_count() <= room:
            return
        if _greedy_clique_cover_bound(pool, adj, room) <= room:
            return
        # branch on the candidate with the most candidate neighbours
        # (ties to the lowest vertex index)
        v, v_deg = -1, -1
        scan = pool
        while scan:
            u = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            d = (adj[u] & pool).bit_count()
            if d > v_deg:
                v, v_deg = u, d
        branch(chosen | (1 << v), chosen_size + 1, pool & ~adj[v] & ~(1 << v))
        branch(chosen, chosen_size, pool & ~(1 << v))

    if force_identity and size:
        branch(1, 1, (full ^ 1) & ~adj[0])
    else:
        branch(0, 0, full)

    witness = tuple(verts[i] for i in range(size) if best_mask >> i & 1)
    upper = None
    if not exhausted and 1 <= t <= n:
        upper = _spectral_upper_bound(n, t)
    return SearchResult(
        n=n,
        t=t,
        independence_number=best_size,
        witness=witness,
        nodes=nodes,
        exact=exhausted,
        forced_identity=force_identity,
        upper_bound=upper,
    )


# Without a node budget the tree is searched to the end only up to n = 6
# (99,591 nodes); from n = 6 on the CLI sets this budget unless told not to.
EXHAUSTIVE_CAP = 6
DEFAULT_NODE_BUDGET = 500_000


def max_independent_set(
    n: int,
    t: int = 2,
    *,
    force_identity: bool = True,
    node_budget: int | None = None,
) -> SearchResult:
    """Exact independence number with a verified witness.

    With a node budget, the search may stop early and report the best set
    found plus a spectral upper bound, flagged ``exact=False``.  A budget
    below one node is refused.
    """
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"search: the node budget must be at least 1 (got {node_budget})")
    verts, adj = graph_bitsets(n, t)
    return _solve(
        verts, adj, t, force_identity=force_identity, node_budget=node_budget
    )


def verify_certificate(result: SearchResult) -> bool:
    """Re-check the witness: distinct members, pairwise independent, and,
    when the search was exhausted, no single vertex extends it.  A search
    cut short by its node budget claims no maximality, so its witness is
    checked for independence only.  Maximality-by-extension does not by
    itself prove the independence number; that comes from the exhausted
    search tree."""
    members = result.witness
    if len(members) != result.independence_number or len(set(members)) != len(members):
        return False
    if not verify(Family(result.n, "witness", frozenset(members)), result.t).ok:
        return False
    if not result.exact:
        return True
    # every vertex is a member (n agreements) or a neighbour of one
    verts = np.array(list(all_perms(result.n)), dtype=np.int16)
    wit = np.array(members, dtype=np.int16).reshape(len(members), result.n)
    counts = (verts[:, None, :] == wit[None, :, :]).sum(axis=2)
    return bool(((counts == result.n) | (counts == result.t - 1)).any(axis=1).all())
