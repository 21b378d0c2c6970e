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

The tree is mostly long chains of exclude children, each pool its parent's
less the branch vertex v, so such a child reuses its parent's work, as
bit-parallel clique solvers reuse a parent's colouring (San Segundo,
Nikolaev and Batsyn, Comput. Oper. Res. 2015): the cliques of the greedy
cover before the one that held v, and every candidate's count of candidate
neighbours less its adjacency to v.  Both are exact (see ``_solve``), so the
tree is the one a search from scratch at every node visits.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .families import AGREEMENT_BLOCK, Family, agreement_counts, verify
from .lazy import np
from .perms import perm_rows
from .spectrum import agreement_graph, generating_classes


def graph_bitsets(n: int, t: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """(vertex rows in lex order, adjacency bitmasks, adjacency words); bit j
    of mask i, and of row i of the words, is set when vertices i and j are
    adjacent."""
    adj, words = _adjacency_bitsets(agreement_graph(n, t))
    return perm_rows(n), adj, words


def _adjacency_bitsets(rows: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """A boolean adjacency matrix as Python-int bitmasks and as a matrix of
    little-endian uint64 words, each row padded to whole words."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    adj = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    padded = np.zeros((len(rows), -(-len(rows) // 64) * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return adj, padded.view("<u8")


class SearchResult(NamedTuple):
    n: int
    t: int
    independence_number: int
    witness: tuple[tuple[int, ...], ...]
    nodes: int
    exact: bool
    upper_bound: int | None = None  # spectral bound, reported when inexact


def _greedy_clique_cover(
    rest: int,
    cliques: int,
    snapshots: list[int],
    adj: tuple[int, ...],
    bits: tuple[int, ...],
    room: int,
) -> tuple[int, int]:
    """Continue a greedy clique partition of the candidates left in
    ``rest`` after ``cliques`` cliques: each clique is grown from the
    highest candidate left by the highest common neighbour.  The count
    bounds the independent set (which meets each clique at most once), and
    the caller only asks whether it is at most ``room``, so the cover stops
    as soon as the count exceeds ``room``.  ``rest`` at the start of each
    clique is appended to ``snapshots``; returns the final (rest, cliques).
    The tables are 1-based: ``adj[b + 1]`` and ``bits[b + 1] = 1 << b`` for
    bit b, so ``bit_length`` indexes them directly."""
    bit_length = int.bit_length
    append = snapshots.append
    while rest and cliques <= room:
        append(rest)
        v = bit_length(rest)
        rest ^= bits[v]
        common = rest & adj[v]
        while common:
            u = bit_length(common)
            rest ^= bits[u]
            common &= adj[u]
        cliques += 1
    return rest, cliques


def _resume_cover(
    snapshots: list[int], rest: int, cliques: int, bit: int, pool: int
) -> tuple[int, int]:
    """The start (rest, cliques) of the cover of an exclude child's ``pool``,
    its parent's less the branch vertex ``bit``, from the parent's cover
    (``snapshots``, then a final ``rest`` and ``cliques``): the snapshot of
    the clique that held the vertex, or the final state if the parent
    stopped before it, restricted to ``pool``.  ``snapshots`` is cut to
    match."""
    if not rest & bit:
        lo, hi = 0, len(snapshots)  # snapshots[lo] holds the vertex, [hi:] do not
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if snapshots[mid] & bit:
                lo = mid
            else:
                hi = mid
        rest, cliques = snapshots[lo], lo
        del snapshots[lo:]
    return rest & pool, cliques


def _pool_degrees(pool: int, words: np.ndarray) -> np.ndarray:
    """Each candidate's number of candidate neighbours, one exact popcount
    per word of its row, and -1 for every vertex outside ``pool``."""
    pool_bytes = np.frombuffer(pool.to_bytes(words.shape[1] * 8, "little"), dtype=np.uint8)
    members = np.unpackbits(pool_bytes, bitorder="little").nonzero()[0]
    rows = words.take(members, axis=0)
    np.bitwise_and(rows, pool_bytes.view("<u8"), out=rows)
    degrees = np.full(len(words), -1, dtype=np.int32)
    degrees[members] = np.bitwise_count(rows).sum(axis=1, dtype=np.int32)
    return degrees


def _drop_vertex(degrees: np.ndarray, words: np.ndarray, v: int) -> None:
    """Take vertex v out of the pool of ``degrees`` in place: subtract its
    adjacency row, unpacked from its words, and mark v -1.  Vertices
    outside the pool only fall further below 0."""
    row = np.unpackbits(words[v].view(np.uint8), count=len(degrees), bitorder="little")
    np.subtract(degrees, row, out=degrees)
    degrees[v] = -1


def _branch_vertex(degrees: np.ndarray) -> int:
    """The candidate with the most candidate neighbours, ties to the highest
    vertex index: argmax takes the first of equal degrees, so reversed, the
    highest index."""
    return len(degrees) - 1 - int(degrees[::-1].argmax())


def _spectral_upper_bound(n: int, t: int) -> int:
    """floor of the certified optimal weighted Hoffman bound, never weaker
    than the plain Hoffman bound (uniform weights are feasible for its LP);
    an optimum that fails its certificate raises LPError.  At t = n no class
    has t-1 fixed points, the graph has no edges and no eigenvalue bound
    applies, so the bound is the vertex count n!.  The LP module is imported
    here, so that a search that exhausts its tree never loads it."""
    from .weightopt import optimize_bound

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
    """Depth first over an explicit stack of (chosen, chosen size, pool,
    parent) nodes: a branching node pushes its exclude child, then its
    include child, so the include subtree is searched first.  Each node is
    pruned when its pool is empty, by popcount, then by the clique cover.
    Bit size-1-i stands for vertex i (see the module docstring), so the
    root, which holds the top bit, holds the identity.

    Only the last branching node keeps its work, as ``state`` = (serial,
    branch vertex v, cover snapshots, final rest, cliques, degrees); stack
    entries hold ints only.  The child whose ``parent`` is the serial
    starts from that work, and every other node from scratch.  That child
    is the exclude child (so the work is still kept only if the include
    child pruned at once), unless v has no candidate neighbour: then the
    include child's pool is the exclude child's, the include child, popped
    first, resumes instead, and the exclude sibling, which must not see
    the state that child mutates, starts from scratch.  ``search --n 7
    --t 7``, with no edges at all, is one chain of 5,040 such include
    children.  The resuming child's pool is the parent's less v:

    * **Cover.**  A clique without v is grown the same way with v gone: its
      first vertex is the top of its start state, not v, and each
      common-neighbour set only loses v, which is never the next pick.  So
      the cliques before the one that held v are the parent's, and the
      child resumes at that clique's snapshot less v, or at the parent's
      final state if its cover stopped before v.  The cliques do not depend
      on the bound, which only says when a cover stops, so a cover that
      stops later makes the same prune decision: a ``best_size`` raised by
      the include child only lets the resumed cover run further, and a
      resuming include child, whose room is one less than its parent's,
      may start past the point where a cover from scratch would stop.
    * **Degrees.**  A candidate's count of candidate neighbours drops by
      one exactly when it is adjacent to v, and v leaves the pool (-1)."""
    size = len(verts)
    full = (1 << size) - 1
    bits = tuple(1 << v for v in range(size))
    adj1 = (0, *adj)
    bits1 = (0, *bits)
    n = len(verts[0])

    best_size = 0
    best_mask = 0
    nodes = 0
    exhausted = True
    top = bits[-1]
    state = None
    stack = [(top, 1, (full ^ top) & ~adj[-1], 0)]
    while stack:
        if node_budget is not None and nodes >= node_budget:
            exhausted = False
            break
        chosen, chosen_size, pool, parent = stack.pop()
        nodes += 1
        if chosen_size > best_size:
            best_size = chosen_size
            best_mask = chosen
        if not pool:
            continue
        room = best_size - chosen_size
        if pool.bit_count() <= room:
            continue
        if state is not None and state[0] == parent:
            _, v, snapshots, rest, cliques, degrees = state
            rest, cliques = _resume_cover(snapshots, rest, cliques, bits[v], pool)
        else:
            snapshots, rest, cliques, degrees = [], pool, 0, None
        rest, cliques = _greedy_clique_cover(rest, cliques, snapshots, adj1, bits1, room)
        if cliques <= room:
            continue
        if degrees is None:
            degrees = _pool_degrees(pool, words)
        else:
            _drop_vertex(degrees, words, v)
        v = _branch_vertex(degrees)
        state = (nodes, v, snapshots, rest, cliques, degrees)
        pool ^= bits[v]
        include = pool & ~adj[v]
        isolated = include == pool  # v has no candidate neighbour
        stack.append((chosen, chosen_size, pool, 0 if isolated else nodes))
        stack.append((chosen | bits[v], chosen_size + 1, include, nodes if isolated else 0))

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
# (99,591 nodes at t = 2, 2.5 s fresh on a 2-core machine, 2.2-3.0 s across
# runs); from n = 6 on the CLI sets this budget unless told not to.
EXHAUSTIVE_CAP = 6
# The t whose unbudgeted tree at n = EXHAUSTIVE_CAP does not finish (still
# running after 45 s on a 2-core machine); fresh, t = 1, 2, 5 and 6 take
# 0.5, 2.5, 3.7 and 0.3 s (medians of three runs in one sitting).
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
    """Re-check the witness: every member a permutation of 1..n, distinct
    members, pairwise independent, and, when the search was exhausted, no
    single vertex extends it.  A search cut short by its node budget claims
    no maximality, so its witness is checked for independence only.
    Maximality-by-extension does not by itself prove the independence
    number; that comes from the exhausted search tree."""
    points = list(range(1, result.n + 1))
    try:  # before the int8 cast, which truncates 4.5 and raises on 300 or (1, 2)
        if any(sorted(map(operator.index, row)) != points for row in result.witness):
            return False
    except TypeError:
        return False
    witness = Family(result.n, "witness", result.witness)
    if len(result.witness) != result.independence_number or len(witness) != len(result.witness):
        return False
    if not verify(witness, result.t).ok:
        return False
    if not result.exact:
        return True
    # every vertex is a member (n agreements) or a neighbour of one
    verts = perm_rows(result.n)
    for start in range(0, len(verts), AGREEMENT_BLOCK):
        counts = agreement_counts(verts[start : start + AGREEMENT_BLOCK], witness.members)
        if not ((counts == result.n) | (counts == result.t - 1)).any(axis=1).all():
            return False
    return True
