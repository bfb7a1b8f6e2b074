"""Immutable simple graphs and the search primitives everything else builds on.

Vertices are dense integer indices 0..n-1.  Graphs are frozen after
construction, so values can be shared freely, hashed, and memoized.

Graphs and the package's other value records (PQ-tree nodes, witnesses,
results and reports) derive from :class:`_Record`.  A record lists its
fields in ``__slots__``, so it has no instance ``__dict__``, and its
``__init__`` stores each field once with ``object.__setattr__``; after that
``__setattr__`` and ``__delattr__`` raise :class:`AttributeError`.  Records
compare and hash by their field values, print as ``Name(field=value, ...)``
and pickle by their field values.  The base replaces frozen dataclasses,
whose import and per-class code generation cost most of the package's
start-up.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence


class _Record:
    """Immutable value record over the fields named in the subclass's ``__slots__``.

    Two records are equal iff they have the same type and equal field
    values; a record of another type, a plain tuple included, is never
    equal.  The hash is that of the field-value tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(f for f in cls.__slots__ if f != "__weakref__")

    def _values(self) -> tuple:
        # a list, not an iterator: tuple() over an iterator of unknown length
        # raised the traced peak of a pooled 5000-graph suite run by ~110 KB
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class Graph(_Record):
    """Finite simple undirected graph on vertices 0..n-1.

    ``adj_masks[v]`` is the neighbor set of ``v`` as a bitmask: bit u is
    set iff uv is an edge.  :meth:`from_edges` is the only constructor
    meant for outside callers; it checks index ranges and loops and makes
    the masks symmetric.  Inside the package, graphs are also built
    directly from mask tuples that are symmetric by construction.
    """

    __slots__ = ("n", "adj_masks", "__weakref__")

    def __init__(self, n: int, adj_masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj_masks", adj_masks)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, tuple(masks))

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.adj_masks[v]))

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self.adj_masks[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u, row in enumerate(self.adj_masks) for v in _bits(row >> u << u)
        ]

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj_masks) // 2

    def with_edge(self, u: int, v: int) -> "Graph":
        return Graph.from_edges(self.n, self.edges() + [(u, v)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.num_edges()})"


def _check_vertices(g: Graph, vs: Iterable[int]) -> None:
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")


# Graph.adj_masks is the one adjacency format: BFS layers become a few
# integer operations, which matters once the harness grinds through
# thousands of small graphs.  _sweep is the one reach and distance core:
# N^k[S], components, eccentricities, farthest and nearest vertices are
# read off it.  bfs_distances is the public reference map.  _shortest_path
# keeps its own FIFO BFS: its first-discovery parents, neighbours taken
# lowest bit first, fix which shortest path comes back, and the k-AT and
# dichotomy answers pinned by sha256 in the tests are built from them.

def _sweep(
    masks: Sequence[int], seed: int, allowed: int, limit: int, until: int = 0
) -> tuple[int, int, int]:
    """BFS layers around the seed mask inside the allowed mask (seed within it).

    Stops after ``limit`` layers (-1: no limit), once the last layer meets
    ``until``, once everything allowed is reached, or when nothing new is
    reachable.  Returns the reached mask, the last layer (the seed if no
    layer was added) and its distance from the seed.
    """
    reached = layer = seed
    depth = 0
    while depth != limit and not layer & until and reached != allowed:
        grown = 0
        rest = layer
        while rest:
            low = rest & -rest
            grown |= masks[low.bit_length() - 1]
            rest ^= low
        grown &= allowed & ~reached
        if not grown:
            break
        reached |= grown
        layer = grown
        depth += 1
    return reached, layer, depth


def _grow_mask(g: Graph, seed: int, k: int) -> int:
    """Vertices within distance k of the seed set."""
    return _sweep(g.adj_masks, seed, (1 << g.n) - 1, k)[0]


def _label_components(g: Graph, allowed: int) -> list[int]:
    """row[v]: mask of v's component in G[allowed]; 0 for v outside allowed."""
    masks = g.adj_masks
    row = [0] * g.n
    rest = allowed
    while rest:
        comp = _sweep(masks, rest & -rest, allowed, -1)[0]
        rest &= ~comp
        m = comp
        while m:
            low = m & -m
            row[low.bit_length() - 1] = comp
            m ^= low
    return row


def _mask_of(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _bits(m: int) -> list[int]:
    """The vertices of the mask m in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[Optional[int]]:
    """Distance from every vertex to the nearest source; None marks unreachable."""
    src = list(sources)
    if not src:
        raise ValueError("bfs_distances requires a nonempty source set")
    _check_vertices(g, src)
    dist: list[Optional[int]] = [None] * g.n
    seen = _mask_of(src)
    frontier = _bits(seen)
    d = 0
    while frontier:
        fresh = 0
        for u in frontier:
            dist[u] = d
            fresh |= g.adj_masks[u]
        fresh &= ~seen
        seen |= fresh
        frontier = _bits(fresh)
        d += 1
    return dist


def _shortest_path(
    g: Graph, src: int, dst: int, avoid: int = 0
) -> Optional[tuple[int, ...]]:
    """Shortest src-dst path missing every vertex of the avoid mask, or None.

    FIFO BFS, neighbours lowest bit first, with first-discovery parents,
    so the path returned for given endpoints is always the same.
    """
    if (avoid >> src | avoid >> dst) & 1:
        return None
    masks = g.adj_masks
    parent: dict[int, Optional[int]] = {src: None}
    seen = avoid | 1 << src
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
        fresh = masks[u] & ~seen
        seen |= fresh
        for x in _bits(fresh):
            parent[x] = u
            queue.append(x)
    return None


def neighborhood_k(g: Graph, sources: Iterable[int], k: int) -> frozenset[int]:
    """The set of vertices at distance at most k from the source set."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    src = list(sources)
    _check_vertices(g, src)
    return frozenset(_bits(_grow_mask(g, _mask_of(src), k)))


def is_connected(g: Graph) -> bool:
    if g.n < 1:
        raise ValueError("connectivity is undefined for the empty graph")
    full = (1 << g.n) - 1
    return _sweep(g.adj_masks, 1, full, -1)[0] == full


def is_path(g: Graph, p: Sequence[int]) -> bool:
    """True iff p is a nonempty sequence of distinct vertices with consecutive edges."""
    if len(p) == 0 or len(set(p)) != len(p):
        return False
    if any(not (0 <= v < g.n) for v in p):
        return False
    return all(g.has_edge(p[i], p[i + 1]) for i in range(len(p) - 1))


def is_induced_path(g: Graph, p: Sequence[int]) -> bool:
    """True iff p is a path of g with no edge between non-consecutive entries."""
    _check_vertices(g, p)
    if not is_path(g, p):
        return False
    for i in range(len(p)):
        for j in range(i + 2, len(p)):
            if g.has_edge(p[i], p[j]):
                return False
    return True


def _chordless(
    g: Graph, s: int, allowed: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every induced path from s inside the allowed mask, with its closers.

    Yields ``(path, close)``: ``close`` masks the vertices c that make
    ``path + (c,)`` a chordless cycle through s.  The DFS state is the path
    plus ``blocked = N[path[1:-1]] | path``; past ``(s,)`` a free neighbour
    of the tail extends the path if it misses N(s) and closes it otherwise.
    """
    masks = g.adj_masks
    ring = masks[s]
    yield (s,), 0
    # (path, its extensions, the blocked mask they share): an extension x
    # gives path + (x,) the blocked mask shared | x
    stack = [((s,), ring & allowed, 1 << s)]
    while stack:
        path, ext, shared = stack.pop()
        while ext:
            low = ext & -ext
            ext ^= low
            x = low.bit_length() - 1
            step = path + (x,)
            free = masks[x] & allowed & ~shared
            yield step, free & ring
            if free & ~ring:
                stack.append((step, free & ~ring, shared | low | masks[x]))


def induced_paths(g: Graph) -> Iterator[tuple[int, ...]]:
    """All induced paths of g, one orientation each (first vertex <= last)."""
    full = (1 << g.n) - 1
    for s in range(g.n):
        for p, _ in _chordless(g, s, full):
            if s <= p[-1]:
                yield p


def find_long_induced_cycle(g: Graph, min_len: int) -> Optional[tuple[int, ...]]:
    """Some chordless cycle with at least min_len vertices, or None.

    The cycle starts at its least vertex and runs toward the smaller of
    that vertex's two cycle neighbours: ``found[0] == min(found)`` and
    ``found[1] < found[-1]``.  Exponential in the worst case, which is
    fine for the small-graph corpora this library targets.
    """
    if min_len < 3:
        raise ValueError(f"min_len must be at least 3, got {min_len}")
    full = (1 << g.n) - 1
    for s in range(g.n):
        # only vertices above s, so s is the cycle minimum
        for p, close in _chordless(g, s, full >> s << s):
            if close and len(p) + 1 >= min_len:
                close &= -2 << p[1]  # closers above p[1]: one direction per cycle
                if close:
                    return p + ((close & -close).bit_length() - 1,)
    return None


def parse_edge_list(text: str) -> Graph:
    """Parse the 'n m' header plus m lines of 'u v' (0-based indices)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad edge-list header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad edge-list header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge on line {i}: {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"bad edge on line {i}: {ln!r}") from exc
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
