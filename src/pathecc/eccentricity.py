"""Eccentricity of a path and the exact minimum over all paths of a graph.

The exact search is the ground-truth oracle for every structural check in
this package, so it is exhaustive by construction.  It walks simple paths
depth-first in lexicographic order and scores each by multi-source BFS, but
it enters each search state, a (vertex set, last vertex) pair, at most once.
A path's eccentricity depends only on its vertex set, so two prefixes with
the same set and the same last vertex have the same continuations with the
same scores (Held & Karp, "A dynamic programming approach to sequencing
problems", 1962).  The work is thus bounded by n * 2^n states rather than
by the number of simple paths, and most of those states are pruned: a path
that leaves its last vertex enters one component of the unvisited vertices
and never leaves it, so a branch goes on only while the path plus one such
component could still beat the bound, which never cuts off an optimal path.
When the bound asks for eccentricity 0, a path through every vertex, a
branch also ends when the unvisited vertices hold an independent set of
more than half of them, rounded up: a path on m vertices holds at most
ceil(m/2) vertices of any independent set (the S = V - I case of Chvatal's
toughness condition, "Tough graphs and Hamiltonian circuits", 1973).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, _bits, _mask_of, _Record, _sweep, is_connected, is_path

MAX_N = 16


class PeResult(_Record):
    """Minimum achievable path eccentricity together with a path achieving it."""

    __slots__ = ("value", "witness")

    def __init__(self, value: int, witness: tuple[int, ...]) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)


def path_eccentricity(g: Graph, p: Sequence[int]) -> int:
    """Largest distance from any vertex of g to the path p."""
    if not is_path(g, p):
        raise ValueError(f"{tuple(p)} is not a path of the graph")
    full = (1 << g.n) - 1
    reached, _, ecc = _sweep(g.adj_masks, _mask_of(p), full, -1)
    if reached != full:
        raise ValueError("path eccentricity requires a connected graph")
    return ecc


def _check_search_input(g: Graph, what: str) -> None:
    if g.n > MAX_N:
        raise ValueError(f"{what} is limited to n <= {MAX_N}, got n={g.n}")
    if not is_connected(g):
        raise ValueError(f"{what} requires a connected graph")


def _first_best_path(
    g: Graph, limit: int, stop: int
) -> tuple[int, Optional[tuple[int, ...]]]:
    """First path of least eccentricity below limit, by exhaustive search.

    Paths are generated depth-first in lexicographic order, each one scored
    once (reversals are skipped by requiring first <= last vertex).  A path
    whose eccentricity beats the incumbent bound ``limit`` becomes the
    incumbent, and the search ends once the bound is at most ``stop``.

    A branch is abandoned when no component C of the unvisited vertices
    that meets its tail's neighbours has N^(limit-1)[path + C] = V.  This
    is sound: a longer path steps from the tail into one such C and stays
    inside it, as C is cut off from the other unvisited vertices, so its
    vertex set lies within path + C and it cannot beat the bound either.

    When ``limit`` is 1 only a path through every vertex beats it, so a
    branch is also abandoned when a greedy independent set I of the
    unvisited vertices F has 2|I| > |F| + 1.  This is sound: the rest of
    such a path is a path on exactly F, and a path on m vertices holds at
    most ceil(m/2) vertices of an independent set.  The greedy scan takes
    the vertices in one order per call, ascending degree in g with ties
    broken by index, so I, like the component prune, depends only on the
    vertex set.

    A branch is also abandoned when its state (vertex set, last vertex) was
    entered before.  The prunes depend only on the state and ``limit``, so
    the repeat can add nothing a plain exhaustive scan would report, and
    the witness is still the first one in lexicographic order:

    - depth-first order means the earlier entry had a lexicographically
      smaller prefix, so it met every completion the repeat would meet;
    - that prefix's first vertex is no larger, so the ``first <= last``
      rule let it score every path the repeat would score;
    - ``limit`` only decreases, so every prune and incumbent from the
      earlier entry still holds.

    Returns the final bound and its path, or the initial limit and None
    when no path beats it.
    """
    best: Optional[tuple[int, ...]] = None
    path: list[int] = []
    masks = g.adj_masks
    n = g.n
    full = (1 << n) - 1
    entered = bytearray(n << n)  # one flag per (pmask, v) state
    order = sorted(range(n), key=lambda u: (masks[u].bit_count(), u))

    # limit > stop >= 0 while the search runs, so limit - 1 is a real layer
    # bound, never the -1 of an unbounded sweep: limit - 1 layers reach
    # every vertex exactly when the seed's eccentricity beats limit
    def extend(v: int, pmask: int) -> bool:
        nonlocal limit, best
        pmask |= 1 << v
        state = pmask * n + v
        if entered[state]:
            return False
        entered[state] = 1
        path.append(v)
        try:
            if path[0] <= v:
                reached, _, ecc = _sweep(masks, pmask, full, limit - 1)
                if reached == full:
                    limit, best = ecc, tuple(path)
                    if limit <= stop:
                        return True
            free = full & ~pmask
            rest = masks[v] & free
            while rest:
                comp = _sweep(masks, rest & -rest, free, -1)[0]
                if _sweep(masks, pmask | comp, full, limit - 1)[0] == full:
                    break
                rest &= ~comp
            if not rest:
                return False
            if limit == 1:  # the rest of the path must visit all of free
                indep = 0
                for u in order:
                    if free >> u & 1 and not masks[u] & indep:
                        indep |= 1 << u
                if 2 * indep.bit_count() > free.bit_count() + 1:
                    return False
            for y in _bits(masks[v] & free):
                if extend(y, pmask):
                    return True
            return False
        finally:
            path.pop()

    try:
        for s in range(n):
            if extend(s, 0):
                break
    finally:
        del extend  # break the closure's self-reference: the flags die here
    return limit, best


def pe_exact(g: Graph) -> PeResult:
    """Exact path eccentricity by the exhaustive, state-memoized path search.

    The witness is the first path, in lexicographic enumeration order, that
    attains the minimum.
    """
    _check_search_input(g, "pe_exact")
    # n + 1 admits every path (eccentricities are below n); 0 cannot be beaten
    value, witness = _first_best_path(g, g.n + 1, 0)
    if witness is None:
        raise RuntimeError(f"the pe search admitted every path of {g!r} yet returned none")
    return PeResult(value, witness)


def has_path_with_ecc_at_most(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """First path (in enumeration order) with eccentricity <= k, or None.

    Decision form of :func:`pe_exact` with early exit; the two agree on
    whether such a path exists.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _check_search_input(g, "has_path_with_ecc_at_most")
    return _first_best_path(g, k + 1, k)[1]
