"""Eccentricity of a path and the exact minimum over all paths of a graph.

The exact search is the ground-truth oracle for every structural check in
this package, so it is exhaustive by construction: depth-first enumeration
of simple paths, each path scored by multi-source BFS, with a pruning
bound that can never cut off an optimal path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import (
    Graph,
    _ecc_of_mask,
    _mask_of,
    _reach_mask,
    is_connected,
    is_path,
)

DEFAULT_MAX_N = 12


@dataclass(frozen=True)
class PeResult:
    """Minimum achievable path eccentricity together with a path achieving it."""

    value: int
    witness: tuple[int, ...]


def path_eccentricity(g: Graph, p: Sequence[int]) -> int:
    """Largest distance from any vertex of g to the path p."""
    if not is_path(g, p):
        raise ValueError(f"{tuple(p)} is not a path of the graph")
    ecc = _ecc_of_mask(g, _mask_of(p))
    if ecc is None:
        raise ValueError("path eccentricity requires a connected graph")
    return ecc


def _check_search_input(g: Graph, max_n: int, what: str) -> None:
    if g.n > max_n:
        raise ValueError(f"{what} is limited to n <= {max_n}, got n={g.n}")
    if not is_connected(g):
        raise ValueError(f"{what} requires a connected graph")


def pe_exact(g: Graph, max_n: int = DEFAULT_MAX_N) -> PeResult:
    """Exact path eccentricity by exhaustive path enumeration.

    Paths are generated depth-first in lexicographic order, each one scored
    once (reversals are skipped by requiring first <= last vertex).  A
    branch is abandoned only when even covering everything still reachable
    from its tail cannot beat the incumbent, so the reported value and the
    first witness attaining it match a plain exhaustive scan.
    """
    _check_search_input(g, max_n, "pe_exact")
    n = g.n
    masks = g.adj_masks
    best: Optional[int] = None
    best_path: Optional[tuple[int, ...]] = None
    path: list[int] = []

    def extend(v: int, pmask: int) -> bool:
        nonlocal best, best_path
        path.append(v)
        pmask |= 1 << v
        try:
            if path[0] <= v:
                ecc = _ecc_of_mask(g, pmask)
                if best is None or ecc < best:
                    best, best_path = ecc, tuple(path)
                    if best == 0:
                        return True
            reach = _reach_mask(g, v, ~(pmask & ~(1 << v)))
            floor = _ecc_of_mask(g, pmask | reach)
            if best is not None and floor >= best:
                return False
            for y in sorted(g.adj[v]):
                if not pmask & (1 << y):
                    if extend(y, pmask):
                        return True
            return False
        finally:
            path.pop()

    for s in range(n):
        if extend(s, 0):
            break
    assert best is not None and best_path is not None
    return PeResult(best, best_path)


def has_path_with_ecc_at_most(
    g: Graph, k: int, max_n: int = DEFAULT_MAX_N
) -> Optional[tuple[int, ...]]:
    """First path (in enumeration order) with eccentricity <= k, or None.

    Decision form of :func:`pe_exact` with early exit; the two agree on
    whether such a path exists.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _check_search_input(g, max_n, "has_path_with_ecc_at_most")
    n = g.n
    found: Optional[tuple[int, ...]] = None
    path: list[int] = []

    def extend(v: int, pmask: int) -> bool:
        nonlocal found
        path.append(v)
        pmask |= 1 << v
        try:
            if path[0] <= v and _ecc_of_mask(g, pmask) <= k:
                found = tuple(path)
                return True
            reach = _reach_mask(g, v, ~(pmask & ~(1 << v)))
            if _ecc_of_mask(g, pmask | reach) > k:
                return False
            for y in sorted(g.adj[v]):
                if not pmask & (1 << y):
                    if extend(y, pmask):
                        return True
            return False
        finally:
            path.pop()

    for s in range(n):
        if extend(s, 0):
            break
    return found
