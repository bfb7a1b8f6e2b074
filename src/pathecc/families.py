"""Named graph families, fixture graphs with their matrices, graph6 I/O,
and exhaustive enumeration of small connected graphs up to isomorphism."""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence

from .graphs import Graph
from .pqtree import BinaryMatrix


def subdivided_claw(k: int) -> Graph:
    """Three legs of k edges each, joined at a center vertex (vertex 0)."""
    if k < 1:
        raise ValueError(f"subdivided claw needs k >= 1, got {k}")
    edges = []
    for leg in range(3):
        prev = 0
        for step in range(k):
            cur = 1 + leg * k + step
            edges.append((prev, cur))
            prev = cur
    return Graph.from_edges(3 * k + 1, edges)


def cycle(length: int) -> Graph:
    if length < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {length}")
    return Graph.from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def clique(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"clique needs at least 1 vertex, got {n}")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def ladder_k4(k: int) -> Graph:
    """Ladder on 2k vertices whose last rung is blown up into a K4.

    Labels follow the drawing this family is transcribed from: rung i joins
    v_i and v_{2k+1-i}, the rails run i..2k-i and i+1..2k+1-i, and the two
    extra diagonals complete the K4 on v_{k-1}, v_k, v_{k+1}, v_{k+2}.
    Vertex v_i maps to index i-1.
    """
    if k < 2:
        raise ValueError(f"ladder_k4 needs k >= 2, got {k}")

    def e(i: int, j: int) -> tuple[int, int]:
        return (i - 1, j - 1)

    edges = [e(i, 2 * k + 1 - i) for i in range(1, k + 1)]
    edges += [e(i, 2 * k - i) for i in range(1, k)]
    edges += [e(i + 1, 2 * k + 1 - i) for i in range(1, k)]
    edges += [e(k - 1, k), e(k + 1, k + 2)]
    return Graph.from_edges(2 * k, edges)


def ladder_k4_diagonal(k: int) -> frozenset[int]:
    """Diagonal choice making the identity order a consecutivity witness."""
    if k < 2:
        raise ValueError(f"ladder_k4 needs k >= 2, got {k}")
    return frozenset((k - 1, k))


def _from_labeled_edges(n: int, labeled: Sequence[tuple[int, int]]) -> Graph:
    return Graph.from_edges(n, [(u - 1, v - 1) for u, v in labeled])


def fig_example_a() -> Graph:
    """Six-vertex fixture whose plain adjacency matrix is consecutive as given."""
    return _from_labeled_edges(6, [(4, 5), (5, 1), (1, 6), (6, 2), (2, 5), (5, 3)])


def fig_example_b() -> Graph:
    """Six-vertex fixture whose all-ones-diagonal matrix is consecutive as given."""
    return _from_labeled_edges(
        6, [(3, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4), (3, 5)]
    )


def fig_example_c() -> Graph:
    """fig_example_a plus the edge v3-v4; needs one augmented diagonal entry."""
    return _from_labeled_edges(
        6, [(4, 5), (5, 1), (1, 6), (6, 2), (2, 5), (5, 3), (3, 4)]
    )


FIG_C_DIAGONAL = frozenset((3,))  # v4

def fig_biconvex() -> Graph:
    """Seven-vertex biconvex fixture carrying the 1-AT {v1, v4, v5}."""
    return _from_labeled_edges(
        7, [(1, 6), (6, 3), (3, 7), (7, 2), (2, 5), (2, 6), (7, 4)]
    )


FIG_BICONVEX_AT = (0, 3, 4)  # v1, v4, v5

# Matrices transcribed from the fixture drawings; tests assert they agree
# with the generators above.
FIG_A_ADJACENCY = BinaryMatrix.from_rows(
    [
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 0],
        [1, 1, 1, 1, 0, 0],
        [1, 1, 0, 0, 0, 0],
    ]
)

FIG_B_AUGMENTED = BinaryMatrix.from_rows(
    [
        [1, 1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 0],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 0, 1, 1, 1],
    ]
)

FIG_C_PARTIAL = BinaryMatrix.from_rows(
    [
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 1, 1, 1, 0],
        [1, 1, 1, 1, 0, 0],
        [1, 1, 0, 0, 0, 0],
    ]
)


def random_gnp(n: int, p: float, seed: int = 0) -> Graph:
    if n < 1:
        raise ValueError(f"random graph needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


# integer parameters of each fixed-arity family, by name, in call order
_FAMILY_BUILDERS = {
    "subdivided_claw": (subdivided_claw, ("k",)),
    "cycle": (cycle, ("length",)),
    "path": (path_graph, ("n",)),
    "clique": (clique, ("n",)),
    "ladder_k4": (ladder_k4, ("k",)),
    "fig_example_a": (fig_example_a, ()),
    "fig_example_b": (fig_example_b, ()),
    "fig_example_c": (fig_example_c, ()),
    "fig_biconvex": (fig_biconvex, ()),
}
FAMILY_NAMES = (*_FAMILY_BUILDERS, "random_gnp")


def _integral(family: str, what: str, x: float) -> int:
    if not float(x).is_integer():
        raise ValueError(f"{family}: {what} must be an integer, got {x!r}")
    return int(x)


def _count(family: str, what: str, x: float) -> int:
    k = _integral(family, what, x)
    if k > _G6_MAX_N:
        raise ValueError(f"{family}: {what} must be at most {_G6_MAX_N}, got {x!r}")
    return k


def generate(name: str, params: Sequence[float] = ()) -> Graph:
    """Build the member of the named family with the given parameters.

    The parameter count must match the family, and count parameters must
    be integral (5.0 is accepted, 5.7 is not) and at most graph6's vertex
    limit, checked before anything is built; anything else raises
    ValueError.
    """
    if name == "random_gnp":
        if len(params) not in (2, 3):
            raise ValueError(
                f"random_gnp takes 2 or 3 parameters (n, p[, seed]), got {len(params)}"
            )
        n = _count(name, "n", params[0])
        seed = _integral(name, "seed", params[2]) if len(params) == 3 else 0
        return random_gnp(n, float(params[1]), seed)
    if name not in _FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}")
    build, names = _FAMILY_BUILDERS[name]
    if len(params) != len(names):
        raise ValueError(
            f"{name} takes {len(names)} parameter(s) ({', '.join(names) or 'none'}), "
            f"got {len(params)}"
        )
    return build(*(_count(name, what, x) for what, x in zip(names, params)))


# --- graph6 ----------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# the largest vertex count of graph6's extended (four-byte) form
_G6_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 input; the message carries the failing byte offset."""


def _g6_encode_number(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= _G6_MAX_N:
        return chr(126) + "".join(
            chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0)
        )
    raise ValueError(f"graph6 encoding supports at most {_G6_MAX_N} vertices, got {n}")


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 line for g (no trailing newline, no optional header)."""
    out = [_g6_encode_number(g.n)]
    # the bits address the pairs (i, j), i < j, in column-major order
    bits = [row >> i & 1 for j, row in enumerate(g.adj_masks) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for pos in range(0, len(bits), 6):
        val = 0
        for b in bits[pos : pos + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (short or extended vertex-count form)."""
    s = line.strip()
    offset = 0
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
        offset = len(_G6_HEADER)
    if not s:
        raise Graph6Error(f"empty graph6 payload at byte {offset}")

    def val(i: int) -> int:
        ch = ord(s[i])
        if not 63 <= ch <= 126:
            raise Graph6Error(f"invalid graph6 byte {s[i]!r} at byte {offset + i}")
        return ch - 63

    if val(0) == 63:  # '~' marks the extended vertex-count forms
        if len(s) >= 2 and val(1) == 63:
            raise Graph6Error(
                f"graph6 very-long form (>{_G6_MAX_N} vertices) unsupported at byte {offset}"
            )
        if len(s) < 4:
            raise Graph6Error(f"truncated graph6 vertex count at byte {offset + len(s)}")
        n = (val(1) << 12) | (val(2) << 6) | val(3)
        body = 4
    else:
        n = val(0)
        body = 1

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(s) - body
    if have < need:
        raise Graph6Error(
            f"truncated graph6 payload at byte {offset + len(s)}: "
            f"need {need} bytes, have {have}"
        )
    if have > need:
        raise Graph6Error(
            f"trailing graph6 bytes at byte {offset + body + need}"
        )
    masks = [0] * n
    # the bits address the pairs (i, j), i < j, in column-major order
    i, j = 0, 1
    for pos in range(need):
        group = val(body + pos)
        for shift in (5, 4, 3, 2, 1, 0):
            if j >= n:
                break
            if (group >> shift) & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(masks))


# --- exhaustive enumeration -------------------------------------------------

def _twin_masks(masks: Sequence[int]) -> list[int]:
    """Bit y of ``twins[x]`` is set iff y != x and N(x) - {y} == N(y) - {x}.

    Swapping two such twins is an automorphism, so a search that has
    already branched on one of them can skip the other.
    """
    n = len(masks)
    twins = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if masks[x] & ~(1 << y) == masks[y] & ~(1 << x):
                twins[x] |= 1 << y
                twins[y] |= 1 << x
    return twins


def _refine(masks: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine an ordered partition (cells as vertex masks) until it is equitable.

    Each splitter W splits every cell by how many neighbors its vertices
    have in W; the parts replace the cell in increasing order of that count
    and become splitters themselves.  Only structure decides what happens,
    so relabelling the graph relabels the result.
    """
    i = 0
    while i < len(splitters):
        w = splitters[i]
        i += 1
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                count = (masks[low.bit_length() - 1] & w).bit_count()
                parts[count] = parts.get(count, 0) | low
                rest ^= low
            if len(parts) == 1:
                out.append(cell)
                continue
            for count in sorted(parts):
                out.append(parts[count])
                splitters.append(parts[count])
        cells = out
    return cells


def canonical_key(g: Graph) -> tuple[int, ...]:
    """A complete isomorphism invariant: equal keys iff isomorphic graphs.

    Individualization-refinement as in McKay & Piperno, "Practical graph
    isomorphism II" (JSC 2014), pruned only by twins: refine to an
    equitable partition, individualize each vertex of the first smallest
    non-singleton cell in turn, and recurse.  A discrete partition labels
    each vertex by its cell's position; the key is the smallest relabelled
    mask tuple over all leaves.
    """
    n = g.n
    if n == 0:
        return ()
    masks = g.adj_masks
    twins = _twin_masks(masks)
    best: Optional[tuple[int, ...]] = None

    def search(cells: list[int]) -> None:
        nonlocal best
        target = 0
        for cell in cells:
            if cell & (cell - 1) and (
                not target or cell.bit_count() < target.bit_count()
            ):
                target = cell
        if not target:
            label = [0] * n
            for pos, cell in enumerate(cells):
                label[cell.bit_length() - 1] = pos
            rows = [0] * n
            for v in range(n):
                row = 0
                rest = masks[v]
                while rest:
                    low = rest & -rest
                    row |= 1 << label[low.bit_length() - 1]
                    rest ^= low
                rows[label[v]] = row
            leaf = tuple(rows)
            if best is None or leaf < best:
                best = leaf
            return
        at = cells.index(target)
        tried = 0
        rest = target
        while rest:
            low = rest & -rest
            rest ^= low
            if twins[low.bit_length() - 1] & tried:
                continue
            tried |= low
            split = cells[:at] + [low, target ^ low] + cells[at + 1 :]
            search(_refine(masks, split, [low]))

    full = (1 << n) - 1
    try:
        search(_refine(masks, [full], [full]))
    finally:
        del search  # the closure refers to itself; free it without the collector
    return best


def _extend(level: Sequence[Graph], m: int) -> tuple[Graph, ...]:
    """The connected graphs on m >= 2 vertices one new vertex away from the
    connected graphs in ``level``, up to isomorphism.

    Each representative of ``level`` is extended, in order, by the nonempty
    neighborhoods S of the new vertex m - 1 in numeric order; the first
    extension of each isomorphism class (by :func:`canonical_key`) is kept,
    in the order the classes are found.  Connected parents suffice: every
    connected graph on m vertices has a non-cut vertex, and deleting it
    leaves a connected graph on m - 1 vertices.  Nonempty S suffice: the
    empty S isolates the new vertex, and any other S joins it to the
    connected parent, so every child is connected.  S is also skipped when
    some x in S has a twin y < x outside S: swapping the twins is an
    automorphism of the parent, so S - x + y gives an isomorphic child that
    comes earlier, and the first extension of every class is twin-packed.
    """
    new = 1 << (m - 1)
    found: dict[tuple[int, ...], Graph] = {}
    for parent in level:
        base = parent.adj_masks
        # (x, its smaller twins) for each x that has some
        lower_twins = [
            (1 << x, t & ((1 << x) - 1))
            for x, t in enumerate(_twin_masks(base))
            if t & ((1 << x) - 1)
        ]
        for nbhd in range(1, new):
            if any(nbhd & bit and lower & ~nbhd for bit, lower in lower_twins):
                continue
            masks = tuple(
                (row | new) if nbhd >> v & 1 else row for v, row in enumerate(base)
            ) + (nbhd,)
            child = Graph(m, masks)
            found.setdefault(canonical_key(child), child)
    return tuple(found.values())


MAX_ENUMERATION_N = 7


def enumerate_connected(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices up to isomorphism, in a fixed order.

    Each level m = 2..n is built by :func:`_extend` from the connected level
    m - 1, starting at K1, and no disconnected graph is built.  That reaches
    every class: a connected graph on m >= 2 vertices has a non-cut vertex
    (a leaf of a spanning tree), and deleting it leaves a connected graph
    on m - 1 vertices, to which the deleted vertex is joined by a nonempty
    neighborhood (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 1998).  Each level is in discovery order: parents in level
    order, then nonempty neighborhoods in numeric order.  Larger corpora
    are meant to be supplied as graph6 files, which are streamed.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(
            f"built-in enumeration covers 1 <= n <= {MAX_ENUMERATION_N}, got {n}"
        )
    level: tuple[Graph, ...] = (Graph(1, (0,)),)
    for m in range(2, n + 1):
        level = _extend(level, m)
    yield from level
