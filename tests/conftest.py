"""Shared strategies, corpora, and independent brute-force oracles.

The oracles here deliberately avoid the library's own search paths: they
enumerate permutations, subsets, or unpruned path sets so that fast
implementations are checked against slow-but-obvious ones.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations
from typing import Optional

import pytest
from hypothesis import strategies as st

from pathecc.graphs import Graph, bfs_distances
from pathecc.pqtree import BinaryMatrix


# --- hypothesis strategies --------------------------------------------------

def graph_strategy(min_n: int = 1, max_n: int = 7, connected: bool = False):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        bitmap = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = Graph.from_edges(
            n, [e for idx, e in enumerate(pairs) if (bitmap >> idx) & 1]
        )
        if connected:
            comp = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for x in g.neighbors(u):
                    if x not in comp:
                        comp.add(x)
                        frontier.append(x)
            extra = []
            prev = 0
            for v in range(n):
                if v not in comp:
                    extra.append((prev, v))
                prev = v
            if extra:
                g = Graph.from_edges(n, g.edges() + extra)
        return g

    return build()


def matrix_strategy(max_rows: int = 6, max_cols: int = 6):
    @st.composite
    def build(draw):
        r = draw(st.integers(min_value=1, max_value=max_rows))
        c = draw(st.integers(min_value=1, max_value=max_cols))
        bits = tuple(
            tuple(draw(st.integers(0, 1)) for _ in range(c)) for _ in range(r)
        )
        return BinaryMatrix(r, c, bits)

    return build()


# --- brute-force oracles ------------------------------------------------------

def brute_c1p(m: BinaryMatrix):
    """First row permutation making every column's ones contiguous, or None."""
    for perm in permutations(range(m.rows)):
        pos = {row: i for i, row in enumerate(perm)}
        ok = True
        for j in range(m.cols):
            where = sorted(pos[r] for r in range(m.rows) if m.bits[r][j])
            if where and where[-1] - where[0] + 1 != len(where):
                ok = False
                break
        if ok:
            return perm
    return None


def all_simple_paths(g: Graph):
    """Every simple path once, first vertex <= last, lexicographic order."""
    for s in range(g.n):
        stack = [(s,)]
        while stack:
            path = stack.pop()
            if path[0] <= path[-1]:
                yield path
            for x in sorted(g.neighbors(path[-1]), reverse=True):
                if x not in path:
                    stack.append(path + (x,))


def reference_shortest_path(g: Graph, src: int, dst: int, avoid: int = 0):
    """Shortest src-dst path missing the avoid mask, by FIFO BFS on sets.

    Neighbours are visited in sorted order and each vertex keeps its first
    discoverer as parent, which fixes the path returned.
    """
    if (avoid >> src | avoid >> dst) & 1:
        return None
    parent: dict[int, Optional[int]] = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            out = []
            cur: Optional[int] = dst
            while cur is not None:
                out.append(cur)
                cur = parent[cur]
            return tuple(reversed(out))
        for x in sorted(g.neighbors(u)):
            if not avoid >> x & 1 and x not in parent:
                parent[x] = u
                queue.append(x)
    return None


def path_ecc_oracle(g: Graph, path) -> int:
    dist = bfs_distances(g, set(path))
    assert all(d is not None for d in dist)
    return max(dist)  # type: ignore[type-var]


def brute_pe(g: Graph):
    """(value, first witness) by scoring every simple path, no pruning."""
    best = None
    best_path = None
    for path in all_simple_paths(g):
        e = path_ecc_oracle(g, path)
        if best is None or e < best:
            best, best_path = e, path
    return best, best_path


def brute_induced_cycles(g: Graph, min_len: int):
    """All vertex sets of size >= min_len inducing a chordless cycle."""
    out = []
    for size in range(min_len, g.n + 1):
        for vs in combinations(range(g.n), size):
            degs = [sum(1 for u in vs if g.has_edge(v, u)) for v in vs]
            if any(d != 2 for d in degs):
                continue
            # all degree 2: a disjoint union of cycles; connected means one cycle
            seen = {vs[0]}
            frontier = [vs[0]]
            inside = set(vs)
            while frontier:
                u = frontier.pop()
                for x in g.neighbors(u):
                    if x in inside and x not in seen:
                        seen.add(x)
                        frontier.append(x)
            if len(seen) == size:
                out.append(vs)
    return out


def brute_has_kat(g: Graph, k: int) -> bool:
    """k-AT existence via avoidance-BFS over all triples, no path extraction."""
    from pathecc.graphs import neighborhood_k

    def connects(x, y, forb):
        if x in forb or y in forb:
            return False
        seen = {x}
        frontier = [x]
        while frontier:
            u = frontier.pop()
            if u == y:
                return True
            for t in g.neighbors(u):
                if t not in forb and t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return False

    for a, b, c in combinations(range(g.n), 3):
        if (
            connects(a, b, neighborhood_k(g, (c,), k))
            and connects(a, c, neighborhood_k(g, (b,), k))
            and connects(b, c, neighborhood_k(g, (a,), k))
        ):
            return True
    return False


def reference_find_k_at(g: Graph, k: int):
    """First k-AT witness by running is_k_at on every triple in lex order."""
    from pathecc.asteroidal import is_k_at

    for trip in combinations(range(g.n), 3):
        w = is_k_at(g, trip, k)
        if w is not None:
            return w
    return None


def reference_min_k_at_free(g: Graph) -> int:
    """Smallest k >= 1 whose reference triple scan finds nothing."""
    k = 1
    while reference_find_k_at(g, k) is not None:
        k += 1
    return k


def closed_neighborhood(g: Graph, p) -> set[int]:
    """N[p]: the path's vertices and all their neighbors."""
    return set(p).union(*(g.neighbors(y) for y in p))


def reference_order_lemma(g: Graph, w, p) -> bool:
    """The rank-order conditions on one induced path p, from sets of ranks.

    The alternating vertex sequences from both extremities are
    rank-monotonic, and the rank interval each spans, plus for even length
    the extremity-to-extremity one, lies inside the ranks of N[p].
    """
    length = len(p) - 1
    ranks_of_closed = {w.mu[x] for x in closed_neighborhood(g, p)}

    def monotonic(seq):
        pairs = list(zip(seq, seq[1:]))
        return all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)

    def covered(r1, r2):
        return all(r in ranks_of_closed for r in range(min(r1, r2), max(r1, r2) + 1))

    seq_u = [w.mu[p[i]] for i in range(0, length + 1, 2)]
    seq_v = [w.mu[p[i]] for i in range(length, -1, -2)]
    half = 2 * (length // 2)
    return (
        monotonic(seq_u)
        and monotonic(seq_v)
        and covered(w.mu[p[0]], w.mu[p[half]])
        and covered(w.mu[p[length - half]], w.mu[p[length]])
        and (length % 2 == 1 or covered(w.mu[p[0]], w.mu[p[length]]))
    )


def reference_path_neighborhood(g: Graph, w, p, x: int) -> bool:
    """The rank bounds on a vertex x outside N[p], p an odd-length induced path.

    With u, v the extremities: if x sits beyond both in the order, both
    neighborhoods end before x; if before both, they start after x; if
    between, the far extremity's neighborhood ends before x and the near
    one's starts after it.
    """
    ru, rv, rx = w.mu[p[0]], w.mu[p[-1]], w.mu[x]
    u_ranks = [w.mu[y] for y in g.neighbors(p[0])]
    v_ranks = [w.mu[y] for y in g.neighbors(p[-1])]
    if rx > ru and rx > rv:
        return max(u_ranks) <= rx and max(v_ranks) <= rx
    if rx < ru and rx < rv:
        return rx <= min(u_ranks) and rx <= min(v_ranks)
    if ru < rx < rv:
        return max(v_ranks) <= rx <= min(u_ranks)
    return max(u_ranks) <= rx <= min(v_ranks)


def reference_canonical_key(g: Graph) -> tuple[int, ...]:
    """Minimum adjacency bitstring over all vertex orderings.

    The reference for ``families.canonical_key``: the same value from a
    search on adjacency sets with no twin pruning.

    Positions are assigned one at a time; placing a vertex at position p
    fixes its adjacency bits to the p already-placed vertices, and branches
    whose bits already exceed the best known prefix are cut.  The result is
    the true minimum, grouped as one integer per position.
    """
    n = g.n
    if n == 0:
        return ()
    best: Optional[list[int]] = None

    def extend(placed: list[int], used: set[int], prefix: list[int]) -> None:
        nonlocal best
        p = len(placed)
        if p == n:
            if best is None or prefix < best:
                best = prefix.copy()
            return
        scored = []
        for x in range(n):
            if x in used:
                continue
            word = 0
            ax = g.neighbors(x)
            for y in placed:
                word = (word << 1) | (1 if y in ax else 0)
            scored.append((word, x))
        # smallest word first: finds a strong incumbent early
        for word, x in sorted(scored):
            # prune against the incumbent; best may change between siblings
            if best is not None and prefix == best[:p] and word > best[p]:
                continue
            placed.append(x)
            used.add(x)
            prefix.append(word)
            extend(placed, used, prefix)
            prefix.pop()
            used.remove(x)
            placed.pop()

    extend([], set(), [])
    assert best is not None
    return tuple(best)


def relabel(g: Graph, perm) -> Graph:
    """The graph with each vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def seeded_connected_gnp(n: int, seed: int, p: Optional[float] = None) -> Graph:
    """First connected draw of G(n, p) from a seeded generator; p is 3/n by default."""
    import random

    from pathecc.graphs import is_connected

    p = 3 / n if p is None else p
    rng = random.Random(seed)
    while True:
        g = Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        )
        if is_connected(g):
            return g


# --- reference enumerator ------------------------------------------------------

def reference_extend(level, m: int) -> tuple[Graph, ...]:
    """The unpruned level step: every graph one new vertex away, up to iso.

    Each parent, in order, gets every neighborhood of the new vertex m - 1
    in numeric order; the first graph of each isomorphism class (by
    ``families._certificate``) is kept, and the kept graphs are sorted by
    ``families.canonical_key``.
    """
    from pathecc.families import _certificate, canonical_key

    found: dict[tuple[int, ...], Graph] = {}
    for parent in level:
        edges = parent.edges()
        for nbhd in range(1 << (m - 1)):
            g = Graph.from_edges(
                m, edges + [(v, m - 1) for v in range(m - 1) if nbhd >> v & 1]
            )
            found.setdefault(_certificate(g.adj_masks, m), g)
    return tuple(sorted(found.values(), key=canonical_key))


def reference_all_graphs_upto_iso(n: int) -> tuple[Graph, ...]:
    """All graphs on n >= 1 vertices up to iso, by the unpruned level step."""
    level: tuple[Graph, ...] = (Graph.from_edges(1),)
    for m in range(2, n + 1):
        level = reference_extend(level, m)
    return level


# --- shared corpora -----------------------------------------------------------

@pytest.fixture(scope="session")
def connected_upto_5():
    from pathecc.families import enumerate_connected

    return [g for n in range(1, 6) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def connected_upto_6():
    from pathecc.families import enumerate_connected

    return [g for n in range(1, 7) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def connected_upto_7():
    """The 996 connected graphs with n <= 7, built once per session."""
    from pathecc.families import enumerate_connected

    return tuple(g for n in range(1, 8) for g in enumerate_connected(n))
