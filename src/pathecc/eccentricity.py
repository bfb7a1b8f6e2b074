"""Eccentricity of a path and the exact minimum over all paths of a graph.

The exact search is the ground-truth oracle for every structural check in
this package, so it is exhaustive by construction.  It walks simple paths
depth-first in lexicographic order and scores each by multi-source BFS, but
it enters each search state, a (vertex set, last vertex) pair, at most once.
A path's eccentricity depends only on its vertex set, so two prefixes with
the same set and the same last vertex have the same continuations with the
same scores (Held & Karp, "A dynamic programming approach to sequencing
problems", 1962).  The work is thus bounded by n * 2^n states rather than
by the number of simple paths, and a pruning bound that can never cut off
an optimal path skips most of those states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, _bits, _mask_of, _sweep, is_connected, is_path

MAX_N = 16


@dataclass(frozen=True)
class PeResult:
    """Minimum achievable path eccentricity together with a path achieving it."""

    value: int
    witness: tuple[int, ...]


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
    incumbent, and the search ends once the bound is at most ``stop``.  A
    branch is abandoned when even covering everything still reachable from
    its tail cannot beat the bound, or when its state (vertex set, last
    vertex) was entered before.  The repeat can add nothing a plain
    exhaustive scan would report, so the witness is still the first one in
    lexicographic order:

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
            reach = _sweep(masks, 1 << v, full & ~pmask | 1 << v, -1)[0]
            if _sweep(masks, pmask | reach, full, limit - 1)[0] != full:
                return False
            for y in _bits(masks[v] & ~pmask):
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
    assert witness is not None
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
