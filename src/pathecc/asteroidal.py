"""Detection of distance-k asteroidal triples and the freeness threshold.

A triple qualifies at level k when each pair is joined by a path that stays
clear of the distance-k neighborhood of the third vertex.  Witnesses carry
those three paths so they can be re-verified independently.

Searching for a triple labels, for a vertex z, the connected components
of C_z - N^k[z] with their vertex bitmasks, where C_z is z's component of
G (after Köhler, "Recognizing graphs without asteroidal triples", JDA
2004).  Each labelling is one sweep of mask BFS steps, built the first
time a triple test reads it, and every triple is decided by three bit
tests.  A search thus costs at most n + 1 labellings plus at most O(n^3)
bit tests, not three BFS runs per triple; paths are built only for the
triple that is reported.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .graphs import (
    Graph,
    _Record,
    _check_vertices,
    _grow_mask,
    _label_components,
    _shortest_path,
    is_connected,
    is_path,
    neighborhood_k,
)


class KatWitness(_Record):
    """Three vertices plus, for each pair, a path avoiding the third's N^k."""

    __slots__ = ("triple", "k", "paths")

    def __init__(
        self,
        triple: tuple[int, int, int],
        k: int,
        # paths join the sorted-triple pairs in order: (a,b), (a,c), (b,c)
        paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]],
    ) -> None:
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "paths", paths)


def is_k_at(g: Graph, triple: Iterable[int], k: int) -> Optional[KatWitness]:
    """Witness that the triple is a k-AT of g, or None.

    For each pair, a BFS runs in the subgraph left after deleting the
    distance-k neighborhood of the third vertex; the three shortest paths
    found become the certificate.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    trip = tuple(sorted(triple))
    if len(trip) != 3 or len(set(trip)) != 3:
        raise ValueError(f"need three distinct vertices, got {trip}")
    _check_vertices(g, trip)
    a, b, c = trip
    paths = []
    for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
        path = _shortest_path(g, x, y, _grow_mask(g, 1 << z, k))
        if path is None:
            return None
        paths.append(path)
    return KatWitness(trip, k, (paths[0], paths[1], paths[2]))


def verify_kat(g: Graph, w: KatWitness) -> bool:
    """Re-check a witness from scratch: path validity and avoidance."""
    a, b, c = w.triple
    if len({a, b, c}) != 3 or w.k < 1:
        return False
    for (x, y, z), path in zip(((a, b, c), (a, c, b), (b, c, a)), w.paths):
        if not is_path(g, path):
            return False
        if path[0] != x or path[-1] != y:
            return False
        if not neighborhood_k(g, (z,), w.k).isdisjoint(path):
            return False
    return True


def _first_k_at_triple(g: Graph, k: int) -> Optional[tuple[int, int, int]]:
    """Lexicographically first k-AT triple a < b < c, found without paths.

    The triple qualifies exactly when b lies in a's component of
    G - N^k[c], c in a's component of G - N^k[b], and c in b's component
    of G - N^k[a].  whole[v] is the mask of C_v, v's component of G, and
    labels[z][v] the mask of v's component in C_z - N^k[z], built the
    first time a test reads it.  A k-AT lies inside one component of G, so
    labelling only C_z loses no triple.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    whole = _label_components(g, (1 << g.n) - 1)
    labels: list[Optional[list[int]]] = [None] * g.n

    def label(z: int) -> list[int]:
        row = labels[z] = _label_components(g, whole[z] & ~_grow_mask(g, 1 << z, k))
        return row

    for a in range(g.n):
        # b > a in a's component of G; no triple spans two components
        later = whole[a] >> (a + 1)
        if not later:
            continue
        row_a = labels[a] or label(a)
        while later:
            low_b = later & -later
            b = a + low_b.bit_length()
            # candidates c > b passing the two tests that involve a and b
            cands = row_a[b] & ~((2 << b) - 1)
            if cands:
                cands &= (labels[b] or label(b))[a]
            while cands:
                low = cands & -cands
                c = low.bit_length() - 1
                if (labels[c] or label(c))[a] >> b & 1:
                    return (a, b, c)
                cands ^= low
            later ^= low_b
    return None


def find_k_at(g: Graph, k: int) -> Optional[KatWitness]:
    """First k-AT witness in lexicographic triple order, or None.

    The triple comes from the component labels; its paths come from
    :func:`is_k_at`, so the witness equals what scanning every triple with
    :func:`is_k_at` would return first.  Should the two disagree on the
    triple, :class:`RuntimeError` is raised.
    """
    trip = _first_k_at_triple(g, k)
    if trip is None:
        return None
    w = is_k_at(g, trip, k)
    if w is None:
        raise RuntimeError(f"component labels disagree with is_k_at on {trip}")
    return w


def min_k_at_free(g: Graph) -> int:
    """Smallest k >= 1 at which g has no k-AT.

    Well-defined because a (k+1)-AT is also a k-AT, and bounded by n since
    distance-n neighborhoods swallow the whole connected graph.  Levels are
    scanned upwards with the component-label test alone; no witness paths
    are built.
    """
    if not is_connected(g):
        raise ValueError("min_k_at_free requires a connected graph")
    k = 1
    while _first_k_at_triple(g, k) is not None:
        k += 1
    return k
