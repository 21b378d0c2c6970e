"""Exact maximum independent set search on the forbidden-agreement graphs.

Vertices are the permutations of S_n in lexicographic one-line order,
adjacency is agreement on exactly t-1 points, and candidate sets live in
Python-int bitsets; the branching choice reads the adjacency as a matrix of
uint64 words.  The branch-and-bound exhausts its tree (no first-found
termination), so the result and witness are deterministic.

Because agreement counts are translation invariant, the graph is
vertex-transitive and any maximum independent set can be translated to one
containing the identity, so every search forces the identity in.

The search runs in mirrored vertex order: bit n!-1-i of a mask stands for
vertex i.  Lex index i and index n!-1-i are s and w0 s, where
w0 = (n, n-1, ..., 1), and left multiplication by w0 keeps every agreement
count, so adjacency mask n!-1-i is mask i with its bits reversed: the
mirrored neighbours of vertex i are ``adj[n!-1-i]``, and no mask is rebuilt.
Stepping on the highest set bit in this order is stepping on the lowest in
lex order, so the tree, its node count and its witness are those of the
bottom-up search.  It is cheaper: one ``bit_length`` finds the top bit with
no negation, a precomputed single-bit mask clears it, and the masks shorten
as their top bits are consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .families import Family, verify
from .lazy import np
from .perms import perm_rows
from .spectrum import agreement_neighbours, generating_classes
from .weightopt import optimize_bound


@lru_cache(maxsize=None)
def graph_bitsets(n: int, t: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """(vertex rows in lex order, adjacency bitmasks, adjacency words); bit j
    of mask i, and of row i of the words, is set when vertices i and j are
    adjacent.  The cached arrays are read-only."""
    nbrs = agreement_neighbours(n, t)
    size = len(nbrs)
    rows = np.zeros((size, size), dtype=bool)
    np.put_along_axis(rows, nbrs, True, axis=1)
    adj, words = _adjacency_bitsets(rows)
    verts = perm_rows(n)
    verts.flags.writeable = False
    return verts, adj, words


def _adjacency_bitsets(rows: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """A boolean adjacency matrix as Python-int bitmasks and as a read-only
    matrix of little-endian uint64 words, each row padded to whole words."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    adj = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    padded = np.zeros((len(rows), -(-len(rows) // 64) * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = padded.view("<u8")
    words.flags.writeable = False
    return adj, words


@dataclass(frozen=True)
class SearchResult:
    n: int
    t: int
    independence_number: int
    witness: tuple[tuple[int, ...], ...]
    nodes: int
    exact: bool
    upper_bound: int | None = None  # spectral bound, reported when inexact


def _greedy_clique_cover_bound(
    candidates: int, adj: tuple[int, ...], bits: tuple[int, ...], room: int
) -> int:
    """Upper bound on the independent set inside ``candidates``: number of
    cliques in a greedy clique partition (an independent set meets each
    clique at most once), each clique grown from the highest candidate left
    by the highest common neighbour; ``bits[v]`` is ``1 << v``.  The caller
    only asks whether the count is at most ``room``, so the count stops as
    soon as it exceeds ``room``."""
    cliques = 0
    rest = candidates
    while rest and cliques <= room:
        v = rest.bit_length() - 1
        rest ^= bits[v]
        common = rest & adj[v]
        while common:
            u = common.bit_length() - 1
            rest ^= bits[u]
            common &= adj[u]
        cliques += 1
    return cliques


def _branch_vertex(pool: int, words: np.ndarray) -> int:
    """The candidate with the most candidate neighbours, ties to the highest
    vertex index: one exact popcount per word of each candidate's row."""
    pool_bytes = np.frombuffer(pool.to_bytes(words.shape[1] * 8, "little"), dtype=np.uint8)
    members = np.unpackbits(pool_bytes, bitorder="little").nonzero()[0]
    rows = words.take(members, axis=0)
    np.bitwise_and(rows, pool_bytes.view("<u8"), out=rows)
    degrees = np.bitwise_count(rows).sum(axis=1, dtype=np.int32)
    # argmax takes the first of equal degrees, so reversed, the highest index
    return int(members[len(members) - 1 - degrees[::-1].argmax()])


def _spectral_upper_bound(n: int, t: int) -> int:
    """floor of the certified optimal weighted Hoffman bound, never weaker
    than the plain Hoffman bound (uniform weights are feasible for its LP);
    an optimum that fails its certificate raises LPError.  At t = n no class
    has t-1 fixed points, the graph has no edges and no eigenvalue bound
    applies, so the bound is the vertex count n!."""
    if not generating_classes(n, t):
        return math.factorial(n)
    return math.floor(optimize_bound(n, t).bound)


def _solve(
    verts: np.ndarray,
    adj: tuple[int, ...],
    words: np.ndarray,
    t: int,
    *,
    node_budget: int | None,
) -> SearchResult:
    """Depth first over an explicit stack of (chosen, chosen size, pool)
    nodes: a branching node pushes its exclude child, then its include
    child, so the include subtree is searched first.  Each node is pruned
    when its pool is empty, by popcount, then by the clique cover.  Bit
    size-1-i stands for vertex i (see the module docstring), so the root,
    which holds the top bit, holds the identity."""
    size = len(verts)
    full = (1 << size) - 1
    bits = tuple(1 << v for v in range(size))
    n = len(verts[0])

    best_size = 0
    best_mask = 0
    nodes = 0
    exhausted = True
    top = bits[-1]
    stack = [(top, 1, (full ^ top) & ~adj[-1])]
    while stack:
        if node_budget is not None and nodes >= node_budget:
            exhausted = False
            break
        chosen, chosen_size, pool = stack.pop()
        nodes += 1
        if chosen_size > best_size:
            best_size = chosen_size
            best_mask = chosen
        if not pool:
            continue
        room = best_size - chosen_size
        if pool.bit_count() <= room:
            continue
        if _greedy_clique_cover_bound(pool, adj, bits, room) <= room:
            continue
        v = _branch_vertex(pool, words)
        rest = pool ^ bits[v]
        stack.append((chosen, chosen_size, rest))
        stack.append((chosen | bits[v], chosen_size + 1, rest & ~adj[v]))

    witness = tuple(
        tuple(map(int, verts[i])) for i in range(size) if best_mask >> (size - 1 - i) & 1
    )
    upper = None if exhausted else _spectral_upper_bound(n, t)
    return SearchResult(
        n=n,
        t=t,
        independence_number=best_size,
        witness=witness,
        nodes=nodes,
        exact=exhausted,
        upper_bound=upper,
    )


# Without a node budget the tree is searched to the end only up to n = 6
# (99,591 nodes at t = 2, 4.3 s fresh on a 2-core machine, 4.1-5.0 s across
# sittings); from n = 6 on the CLI sets this budget unless told not to.
EXHAUSTIVE_CAP = 6
# The t whose unbudgeted tree at n = EXHAUSTIVE_CAP does not finish (still
# running after 45 s on a 2-core machine); fresh, t = 1, 2, 5 and 6 take
# 0.5, 4.3, 3.9 and 0.4 s (medians of three runs in one sitting).
EXHAUSTIVE_CAP_SLOW_T = (3, 4)
DEFAULT_NODE_BUDGET = 500_000


def max_independent_set(n: int, t: int, *, node_budget: int | None = None) -> SearchResult:
    """Exact independence number with a verified witness.

    With a node budget, the search may stop early and report the best set
    found plus a spectral upper bound, flagged ``exact=False``.  A budget
    below one node is refused.
    """
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"search: the node budget must be at least 1 (got {node_budget})")
    verts, adj, words = graph_bitsets(n, t)
    return _solve(verts, adj, words, t, node_budget=node_budget)


def verify_certificate(result: SearchResult) -> bool:
    """Re-check the witness: distinct members, pairwise independent, and,
    when the search was exhausted, no single vertex extends it.  A search
    cut short by its node budget claims no maximality, so its witness is
    checked for independence only.  Maximality-by-extension does not by
    itself prove the independence number; that comes from the exhausted
    search tree."""
    witness = Family(result.n, "witness", result.witness)
    if len(result.witness) != result.independence_number or len(witness) != len(result.witness):
        return False
    if not verify(witness, result.t).ok:
        return False
    if not result.exact:
        return True
    # every vertex is a member (n agreements) or a neighbour of one
    counts = (perm_rows(result.n)[:, None, :] == witness.members[None]).sum(axis=2)
    return bool(((counts == result.n) | (counts == result.t - 1)).any(axis=1).all())
