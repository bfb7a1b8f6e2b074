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
from typing import Iterable, Optional

from .graphs import Graph, _bits, induced_paths
from .pqtree import BinaryMatrix, Leaf, Node, PNode, PQTree, _is_run, pq_reduce

MAX_N = 20


@dataclass(frozen=True)
class OrderingWitness:
    """mu[v] is the rank of vertex v; diagonal lists the closed-neighborhood vertices."""

    mu: tuple[int, ...]
    diagonal: frozenset[int]


def partially_augmented_matrix(g: Graph, diagonal: Iterable[int] = ()) -> BinaryMatrix:
    """Adjacency matrix of g with ones on the chosen diagonal entries."""
    diag = frozenset(diagonal)
    for v in diag:
        if not 0 <= v < g.n:
            raise ValueError(f"diagonal vertex {v} out of range")
    rows = []
    for i in range(g.n):
        row = [g.adj_masks[i] >> j & 1 for j in range(g.n)]
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


def _rank_rows(g: Graph, w: OrderingWitness) -> list[int]:
    """``rows[r]`` is the rank mask of N(v) for the vertex v of rank r."""
    _check_mu(g, w)
    rows = [0] * g.n
    for v, r in enumerate(w.mu):
        rows[r] = sum(1 << w.mu[u] for u in _bits(g.adj_masks[v]))
    return rows


def verify_witness(g: Graph, w: OrderingWitness) -> bool:
    """True iff every vertex's chosen neighborhood occupies consecutive ranks."""
    rows = _rank_rows(g, w)
    for v in w.diagonal:
        rows[w.mu[v]] |= 1 << w.mu[v]
    return all(map(_is_run, rows))


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

    Diagonal bits are decided in vertex order, the open column before the
    closed one, depth first.  A branch reduces the PQ-tree it inherits by
    its vertex's column when it is taken up, and a failed reduction prunes
    the whole assignment subtree.  Disconnected inputs are fine.  Among the
    orders the final tree admits, the lexicographically smallest frontier
    is reported, reversed if that places vertex 0 in the upper half.  The
    witness is re-verified before it is returned; a failed check raises
    :class:`RuntimeError`.
    """
    if g.n > MAX_N:
        raise ValueError(f"find_star_c1p is limited to n <= {MAX_N}, got n={g.n}")
    if g.n == 0:
        raise ValueError("find_star_c1p needs at least one vertex")
    n = g.n
    # (vertices decided, tree before the last one's column, diagonal, column);
    # the start has decided nothing, so its column is empty
    stack = [(0, PQTree.universal(n), 0, 0)]
    while stack:
        v, tree, diag, column = stack.pop()
        tree = pq_reduce(tree, column)
        if tree is None:
            continue
        if v == n:
            break
        nb = g.adj_masks[v]
        # With |N(v)| <= 1 the open column is vacuous, so the closed one can
        # only constrain the tree further: once open fails, closed fails too.
        if nb & (nb - 1):
            stack.append((v + 1, tree, diag | 1 << v, nb | 1 << v))
        stack.append((v + 1, tree, diag, nb))
    else:
        return None
    order = _lex_min_frontier(tree.root)
    if order.index(0) * 2 > n - 1:
        order = tuple(reversed(order))
    mu = [0] * n
    for rank, v in enumerate(order):
        mu[v] = rank
    witness = OrderingWitness(tuple(mu), frozenset(_bits(diag)))
    if not verify_witness(g, witness):
        raise RuntimeError(f"ordering witness {witness} fails re-verification")
    return witness


def _monotonic(seq: list[int]) -> bool:
    return seq == sorted(seq) or seq == sorted(seq, reverse=True)


def _span(r1: int, r2: int) -> int:
    """Mask of the ranks from min(r1, r2) to max(r1, r2), both included."""
    lo, hi = min(r1, r2), max(r1, r2)
    return (2 << hi) - (1 << lo)


def check_order_lemma(g: Graph, w: OrderingWitness) -> Optional[tuple[int, ...]]:
    """First induced path breaking the rank-order conditions under w, or None.

    For each induced path p, in ``induced_paths`` order: the alternating
    vertex sequences from both extremities must be rank-monotonic, and the
    rank interval spanned by each sequence must lie inside the ranks of
    N[p].  For even length both sequences span the extremity-to-extremity
    interval.
    """
    rows = _rank_rows(g, w)
    closed_of = [rows[r] | 1 << r for r in w.mu]  # rank mask of N[v], by vertex v
    for p in induced_paths(g):
        ranks = [w.mu[x] for x in p]
        closed = 0
        for x in p:
            closed |= closed_of[x]
        length = len(p) - 1
        half = 2 * (length // 2)
        span = _span(ranks[0], ranks[half]) | _span(ranks[length - half], ranks[length])
        if span & ~closed or not (
            _monotonic(ranks[0::2]) and _monotonic(ranks[length::-2])
        ):
            return p
    return None


def check_path_neighborhood(
    g: Graph, w: OrderingWitness
) -> Optional[tuple[tuple[int, ...], int]]:
    """First (p, x) breaking the rank bounds under w, or None.

    p runs over the odd-length induced paths in ``induced_paths`` order and
    x in vertex order over the vertices outside N[p].  With u, v the
    extremities: if x sits beyond both in the order, both neighborhoods end
    before x; if before both, they start after x; if between, the far
    extremity's neighborhood ends before x and the near one's starts after it.
    """
    rows = _rank_rows(g, w)
    closed_of = [rows[r] | 1 << r for r in w.mu]
    lo = [(row & -row).bit_length() - 1 for row in rows]
    hi = [row.bit_length() - 1 for row in rows]
    for p in induced_paths(g):
        if len(p) % 2 != 0:  # odd number of edges = even vertex count
            continue
        closed = 0
        for y in p:
            closed |= closed_of[y]
        ru, rv = w.mu[p[0]], w.mu[p[-1]]
        for x, rx in enumerate(w.mu):
            if closed >> rx & 1:
                continue
            if rx > ru and rx > rv:
                holds = hi[ru] <= rx and hi[rv] <= rx
            elif rx < ru and rx < rv:
                holds = rx <= lo[ru] and rx <= lo[rv]
            elif ru < rx < rv:
                holds = hi[rv] <= rx <= lo[ru]
            else:
                holds = hi[ru] <= rx <= lo[rv]
            if not holds:
                return p, x
    return None
