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

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import bound_report
from .perms import agree_count
from .spectrum import agreement_neighbours, permutation_list


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
    return tuple(permutation_list(n)), adj


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


def _greedy_clique_cover_bound(candidates: int, adj: tuple[int, ...]) -> int:
    """Upper bound on the independent set inside ``candidates``: number of
    cliques in a greedy clique partition (an independent set meets each
    clique at most once)."""
    cliques = 0
    rest = candidates
    while rest:
        v = (rest & -rest).bit_length() - 1
        clique_mask = 1 << v
        common = rest & adj[v]
        rest ^= 1 << v
        while common:
            u = (common & -common).bit_length() - 1
            clique_mask |= 1 << u
            rest ^= 1 << u
            common &= adj[u]
        cliques += 1
    return cliques


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
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = False
            return
        if chosen_size > best_size:
            best_size = chosen_size
            best_mask = chosen
        if not pool:
            return
        if chosen_size + pool.bit_count() <= best_size:
            return
        if chosen_size + _greedy_clique_cover_bound(pool, adj) <= best_size:
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
        upper = math.floor(bound_report(n, t).hoffman_value)
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


def max_independent_set(
    n: int,
    t: int = 2,
    *,
    force_identity: bool = True,
    node_budget: int | None = None,
) -> SearchResult:
    """Exact independence number with a verified witness.

    With a node budget, the search may stop early and report the best set
    found plus a spectral upper bound, flagged ``exact=False``.
    """
    verts, adj = graph_bitsets(n, t)
    return _solve(
        verts, adj, t, force_identity=force_identity, node_budget=node_budget
    )


def verify_certificate(result: SearchResult) -> bool:
    """Re-check the witness: pairwise independent, and, when the search was
    exhausted, no single vertex extends it.  A search cut short by its node
    budget claims no maximality, so its witness is checked for independence
    only.  Maximality-by-extension does not by itself prove the independence
    number; that comes from the exhausted search tree."""
    members = result.witness
    if len(members) != result.independence_number:
        return False
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if agree_count(members[i], members[j]) == result.t - 1:
                return False
    if not result.exact:
        return True
    chosen = set(members)
    for v in itertools.permutations(range(1, result.n + 1)):
        if v in chosen:
            continue
        if all(agree_count(v, m) != result.t - 1 for m in members):
            return False  # extension found; witness not even maximal
    return True
