"""Vertex orderings that make every open-or-closed neighborhood consecutive.

A witness is an ordering of the vertices plus a diagonal set D: vertices in
D contribute their closed neighborhood, the rest their open one.  Finding a
witness means finding a row order under which the adjacency matrix, with
diagonal entries set from D, has the consecutive ones property.  The search
backtracks over diagonal bits vertex by vertex, sharing one persistent
PQ-tree across branches, and is complete: every diagonal assignment
corresponds to one leaf of the branch tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph, is_induced_path, neighborhood_k
from .pqtree import BinaryMatrix, Leaf, Node, PNode, PQTree, pq_reduce

MAX_N = 20


@dataclass(frozen=True)
class OrderingWitness:
    """mu[v] is the rank of vertex v; diagonal lists the closed-neighborhood vertices."""

    mu: tuple[int, ...]
    diagonal: frozenset[int]


@dataclass(frozen=True)
class OrderedNeighborhoodBounds:
    min_rank: int
    max_rank: int


def partially_augmented_matrix(g: Graph, diagonal: Iterable[int] = ()) -> BinaryMatrix:
    """Adjacency matrix of g with ones on the chosen diagonal entries."""
    diag = frozenset(diagonal)
    for v in diag:
        if not 0 <= v < g.n:
            raise ValueError(f"diagonal vertex {v} out of range")
    rows = []
    for i in range(g.n):
        row = [1 if j in g.adj[i] else 0 for j in range(g.n)]
        if i in diag:
            row[i] = 1
        rows.append(tuple(row))
    return BinaryMatrix(g.n, g.n, tuple(rows))


def _check_mu(g: Graph, w: OrderingWitness) -> None:
    if len(w.mu) != g.n or sorted(w.mu) != list(range(g.n)):
        raise ValueError("mu must be a bijection from vertices to ranks 0..n-1")
    for v in w.diagonal:
        if not 0 <= v < g.n:
            raise ValueError(f"diagonal vertex {v} out of range")


def verify_witness(g: Graph, w: OrderingWitness) -> bool:
    """True iff every vertex's chosen neighborhood occupies consecutive ranks."""
    _check_mu(g, w)
    for v in range(g.n):
        nb = set(g.adj[v])
        if v in w.diagonal:
            nb.add(v)
        if not nb:
            continue
        ranks = [w.mu[u] for u in nb]
        if max(ranks) - min(ranks) + 1 != len(ranks):
            return False
    return True


def _lex_min_frontier(node: Node) -> tuple[int, ...]:
    if isinstance(node, Leaf):
        return (node.row,)
    parts = [_lex_min_frontier(c) for c in node.children]
    if isinstance(node, PNode):
        out: tuple[int, ...] = ()
        for part in sorted(parts):
            out += part
        return out
    fwd: tuple[int, ...] = ()
    for part in parts:
        fwd += part
    rev: tuple[int, ...] = ()
    for part in reversed(parts):
        rev += part
    return min(fwd, rev)


def find_star_c1p(g: Graph) -> Optional[OrderingWitness]:
    """Search all diagonal assignments for a consecutivity witness.

    Diagonal bits are decided in vertex order; each decision reduces the
    shared PQ-tree by that vertex's column, and a failed reduction prunes
    the whole assignment subtree.  Disconnected inputs are fine.  Among the
    orders the final tree admits, the lexicographically smallest frontier
    is reported, reversed if that places vertex 0 in the upper half.
    """
    if g.n > MAX_N:
        raise ValueError(f"find_star_c1p is limited to n <= {MAX_N}, got n={g.n}")
    if g.n == 0:
        raise ValueError("find_star_c1p needs at least one vertex")
    n = g.n
    if n == 1:
        return OrderingWitness((0,), frozenset())
    bits: list[bool] = []

    # With |N(v)| <= 1 the open column is vacuous, so the closed one can only
    # constrain the tree further: once False fails, True fails too.
    def assign(v: int, tree: PQTree) -> Optional[PQTree]:
        if v == n:
            return tree
        nb = g.adj[v]
        for bit in (False, True) if len(nb) > 1 else (False,):
            column = nb | {v} if bit else nb
            if len(column) in (0, 1, n):
                next_tree: Optional[PQTree] = tree  # vacuously consecutive
            else:
                next_tree = pq_reduce(tree, column)
                if next_tree is None:
                    continue
            bits.append(bit)
            final = assign(v + 1, next_tree)
            if final is not None:
                return final
            bits.pop()
        return None

    try:
        final = assign(0, PQTree.universal(n))
    finally:
        del assign  # break the closure's self-reference: g and the trees die here
    if final is None:
        return None
    order = _lex_min_frontier(final.root)
    if order.index(0) * 2 > n - 1:
        order = tuple(reversed(order))
    mu = [0] * n
    for rank, v in enumerate(order):
        mu[v] = rank
    witness = OrderingWitness(tuple(mu), frozenset(v for v, b in enumerate(bits) if b))
    assert verify_witness(g, witness)
    return witness


def neighborhood_bounds(g: Graph, w: OrderingWitness, v: int) -> OrderedNeighborhoodBounds:
    """Smallest and largest rank among the open neighborhood of v."""
    _check_mu(g, w)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not g.adj[v]:
        raise ValueError(f"vertex {v} is isolated")
    ranks = [w.mu[u] for u in g.adj[v]]
    return OrderedNeighborhoodBounds(min(ranks), max(ranks))


def _monotonic(seq: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:])) or all(
        a >= b for a, b in zip(seq, seq[1:])
    )


def check_order_lemma(g: Graph, w: OrderingWitness, p: Sequence[int]) -> bool:
    """Rank-order conditions an induced path must satisfy under a witness.

    Checks that the alternating vertex sequences from both extremities are
    rank-monotonic, that the rank interval spanned by each sequence lies
    inside the ranks of the path's closed neighborhood, and, for even
    length, that the whole extremity-to-extremity interval does.
    """
    _check_mu(g, w)
    p = tuple(p)
    if not is_induced_path(g, p):
        raise ValueError(f"{p} is not an induced path of the graph")
    length = len(p) - 1
    ranks_of_closed = {w.mu[x] for x in neighborhood_k(g, p, 1)}

    def interval_covered(r1: int, r2: int) -> bool:
        lo, hi = min(r1, r2), max(r1, r2)
        return all(r in ranks_of_closed for r in range(lo, hi + 1))

    seq_u = [w.mu[p[i]] for i in range(0, length + 1, 2)]
    seq_v = [w.mu[p[i]] for i in range(length, -1, -2)]
    half = 2 * (length // 2)
    if not (_monotonic(seq_u) and _monotonic(seq_v)):
        return False
    if not interval_covered(w.mu[p[0]], w.mu[p[half]]):
        return False
    if not interval_covered(w.mu[p[length - half]], w.mu[p[length]]):
        return False
    if length % 2 == 0 and not interval_covered(w.mu[p[0]], w.mu[p[length]]):
        return False
    return True
