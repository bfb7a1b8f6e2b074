"""Constructive dichotomy: a path of eccentricity at most k, or a verified k-AT.

The witness side is decided first: :func:`~pathecc.asteroidal.find_k_at`
either returns a k-AT, which is the answer, or shows that g is k-AT-free.
In the second case a private loop builds the path from a greedy seed by
driving the paper's improvement step, :func:`improve_once`: while some
vertex is farther than k from the path, the step takes the worst one, w,
and either extends the path to absorb w, trims a redundant extremity, or
extracts a k-AT, which a k-AT-free graph does not have.  A step that fails
its own checks would refute the paper's proof step, so it raises
:class:`RuntimeError` naming the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .asteroidal import KatWitness, find_k_at, verify_kat
from .families import emit_graph6
from .graphs import (
    Graph,
    _grow_mask,
    _mask_of,
    _shortest_path,
    _sweep,
    is_connected,
    is_path,
)


@dataclass(frozen=True)
class ImprovedPath:
    path: tuple[int, ...]


@dataclass(frozen=True)
class Shortened:
    path: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    witness: KatWitness


ImproveResult = Union[ImprovedPath, Shortened, Certificate]


@dataclass(frozen=True)
class Dichotomy:
    """Exactly one side is present; both sides re-verify against the graph."""

    path: Optional[tuple[int, ...]] = None
    witness: Optional[KatWitness] = None


TraceSink = Optional[list]


def _trace(sink: TraceSink, step: str, covered: int, path_len: int, w: Optional[int]) -> None:
    if sink is not None:
        sink.append({"step": step, "covered": covered, "path_len": path_len, "w": w})


def _shortcut(walk: Sequence[int]) -> tuple[int, ...]:
    """Loop-erase a walk: on a repeat, splice out the cycle in between."""
    out: list[int] = []
    pos: dict[int, int] = {}
    for x in walk:
        if x in pos:
            for y in out[pos[x] + 1 :]:
                del pos[y]
            del out[pos[x] + 1 :]
        else:
            pos[x] = len(out)
            out.append(x)
    return tuple(out)


def _cover_mask(g: Graph, vs: Sequence[int], k: int) -> int:
    return _grow_mask(g, _mask_of(vs), k)


def _lowest(m: int) -> int:
    """Smallest vertex of a nonempty mask."""
    return (m & -m).bit_length() - 1


def _nearest(g: Graph, src: int, seq: Sequence[int]) -> int:
    """Entry of seq nearest to src, earliest in seq on ties; g is connected."""
    _, layer, _ = _sweep(g.adj_masks, 1 << src, (1 << g.n) - 1, -1, _mask_of(seq))
    return next(t for t in seq if layer >> t & 1)


def _choose_uncovered(g: Graph, k: int, p: Sequence[int]) -> Optional[int]:
    """Farthest vertex from p, smallest index on ties; None if all are within k."""
    full = (1 << g.n) - 1
    reached, far, depth = _sweep(g.adj_masks, _mask_of(p), full, -1)
    if reached != full:
        raise ValueError("improve_once requires a connected graph")
    return _lowest(far) if depth > k else None


def greedy_seed_path(g: Graph) -> tuple[int, ...]:
    """Shortest path between two BFS-farthest vertices (double sweep)."""
    if not is_connected(g):
        raise ValueError("greedy_seed_path requires a connected graph")
    if g.n == 1:
        return (0,)
    full = (1 << g.n) - 1
    s = _lowest(_sweep(g.adj_masks, 1, full, -1)[1])
    t = _lowest(_sweep(g.adj_masks, 1 << s, full, -1)[1])
    return _shortest_path(g, s, t)


def _step_failed(g: Graph, k: int, p: Sequence[int], why: str) -> RuntimeError:
    """The error for a step the paper's proof says cannot happen."""
    return RuntimeError(
        f"improvement step failed ({why}) on graph6 {emit_graph6(g)}, k={k}, path {list(p)}"
    )


def _improving(g: Graph, k: int, p: Sequence[int], w: int, walk: Sequence[int]) -> ImprovedPath:
    """Loop-erase a walk that must be a path through p covering w."""
    cand = _shortcut(walk)
    if not (is_path(g, cand) and set(p) <= set(cand) and _cover_mask(g, cand, k) >> w & 1):
        raise _step_failed(g, k, p, f"no improving path absorbs {w}")
    return ImprovedPath(cand)


def _end_step(
    g: Graph, k: int, p: tuple[int, ...], path_wa: tuple[int, ...], w: int
) -> Union[Shortened, ImprovedPath, int]:
    """Hunt a vertex at distance exactly k off the first extremity's coverage.

    Returns the found vertex, or acts on the two degenerate outcomes: no
    such vertex means the extremity adds no coverage (trim it); all such
    vertices inside N^k of the w-to-path connector enable a reroute that
    absorbs w (extend).
    """
    u = p[0]
    rest = p[1:]
    cov_rest = _cover_mask(g, rest, k)
    _, layer, depth = _sweep(g.adj_masks, 1 << u, (1 << g.n) - 1, k)
    cands = layer & ~cov_rest if depth == k else 0
    if not cands:
        # the extremity's distance-k ball is already covered by the rest
        assert _cover_mask(g, p, k) == cov_rest
        return Shortened(rest)
    off_wa = cands & ~_cover_mask(g, path_wa, k)
    if off_wa:
        return _lowest(off_wa)
    # reroute through the connector: walk w .. y .. y' .. u, then along p
    c = _lowest(cands)
    y = _nearest(g, c, path_wa)
    path_yc = _shortest_path(g, y, c)
    path_cu = _shortest_path(g, c, u)
    on_yc = set(path_yc)
    y2 = next(t for t in reversed(path_cu) if t in on_yc)
    iy = path_wa.index(y)
    jy = path_yc.index(y2)
    jc = path_cu.index(y2)
    walk = path_wa[: iy + 1] + path_yc[1 : jy + 1] + path_cu[jc + 1 :] + p[1:]
    return _improving(g, k, p, w, walk)


def _reroute_far(
    g: Graph,
    k: int,
    p: tuple[int, ...],
    ia: int,
    path_wa: tuple[int, ...],
    path_end: tuple[int, ...],
    path_far: tuple[int, ...],
    far_prime: int,
    w: int,
) -> ImproveResult:
    """Absorb w when far_prime sits within N^k of the opposite end's tail.

    path_end runs far_prime-side-first into p[0]; path_far runs from p[-1]
    out to the other candidate.  The new walk detours p[-1] .. p[0] through
    the two tails and re-enters p next to a, freeing the connector to w.
    """
    x = _nearest(g, far_prime, path_far)
    path_xu = _shortest_path(g, x, far_prime)
    on_end = set(path_end)
    x2 = next(t for t in path_xu if t in on_end)
    ix = path_far.index(x)
    jx = path_xu.index(x2)
    je = path_end.index(x2)
    ext = path_far[: ix + 1] + path_xu[1 : jx + 1] + path_end[je + 1 :]
    walk = p[ia + 1 :] + ext[1:] + p[1 : ia + 1] + tuple(reversed(path_wa))[1:]
    return _improving(g, k, p, w, walk)


def _arrange_witness(k: int, certs: Sequence[tuple[int, ...]]) -> KatWitness:
    """The k-AT joined pairwise by certs: each runs smaller end first, and
    sorting on (first, last) puts them in the sorted-triple pair order."""
    paths = sorted((q if q[0] < q[-1] else q[::-1] for q in certs), key=lambda q: (q[0], q[-1]))
    return KatWitness((paths[0][0], paths[0][-1], paths[2][-1]), k, tuple(paths))


def _step(g: Graph, k: int, p: tuple[int, ...], w: int) -> ImproveResult:
    """The improvement step on path p for the uncovered vertex w."""
    a = _nearest(g, w, sorted(p))
    path_wa = _shortest_path(g, w, a)
    assert set(path_wa) & set(p) == {a}
    u, v = p[0], p[-1]

    # the connector lands on an extremity: prepend or append it outright
    if a == u:
        return ImprovedPath(path_wa + p[1:])
    if a == v:
        return ImprovedPath(p + tuple(reversed(path_wa))[1:])
    ia = p.index(a)

    res_u = _end_step(g, k, p, path_wa, w)
    if not isinstance(res_u, int):
        return res_u
    rev = tuple(reversed(p))
    res_v = _end_step(g, k, rev, path_wa, w)
    if not isinstance(res_v, int):
        return res_v
    u_prime, v_prime = res_u, res_v

    path_u = _shortest_path(g, u_prime, u)  # u' .. u
    path_v = _shortest_path(g, v, v_prime)  # v .. v'

    # joining both candidate tips through p covers w: that is an improvement
    side_mask = _mask_of(path_u) | _mask_of(path_v) | _mask_of(p)
    if _grow_mask(g, side_mask, k) >> w & 1:
        return _improving(g, k, p, w, path_u + p[1:] + path_v[1:])
    if _cover_mask(g, path_v, k) >> u_prime & 1:
        return _reroute_far(g, k, p, ia, path_wa, path_u, path_v, u_prime, w)
    if _cover_mask(g, path_u, k) >> v_prime & 1:
        return _reroute_far(
            g,
            k,
            rev,
            len(p) - 1 - ia,
            path_wa,
            tuple(reversed(path_v)),
            tuple(reversed(path_u)),
            v_prime,
            w,
        )

    cert_uv = _shortcut(path_u + p[1:] + path_v[1:])
    cert_wu = _shortcut(path_wa + tuple(reversed(p[: ia + 1]))[1:] + tuple(reversed(path_u))[1:])
    cert_wv = _shortcut(path_wa + p[ia + 1 :] + path_v[1:])
    witness = _arrange_witness(k, (cert_uv, cert_wu, cert_wv))
    if not verify_kat(g, witness):
        raise _step_failed(g, k, p, "certificate fails verify_kat")
    return Certificate(witness)


def improve_once(g: Graph, k: int, p: Sequence[int]) -> ImproveResult:
    """One round of the paper's improvement step on a path whose eccentricity
    exceeds k: w is the vertex farthest from p, smallest index on ties."""
    p = tuple(p)
    if not is_path(g, p):
        raise ValueError(f"{p} is not a path of the graph")
    w = _choose_uncovered(g, k, p)
    if w is None:
        raise ValueError("improve_once requires a path with eccentricity above k")
    return _step(g, k, p, w)


def _cover(g: Graph, k: int, p: tuple[int, ...], cov: int, trace: TraceSink) -> tuple[int, ...]:
    """Step from path p, whose N^k is cov, until it covers g; g must be k-AT-free.

    Progress is monotone: every step grows the covered set or, at equal
    coverage, shrinks the path, so the loop terminates.  A certificate
    would contradict k-AT-freeness, so it raises :class:`RuntimeError`.
    """
    while (w := _choose_uncovered(g, k, p)) is not None:
        step = _step(g, k, p, w)
        if isinstance(step, ImprovedPath):
            new_cov = _cover_mask(g, step.path, k)
            assert new_cov & cov == cov and new_cov != cov and set(p) <= set(step.path)
            p, cov = step.path, new_cov
            _trace(trace, "improved", cov.bit_count(), len(p), w)
        elif isinstance(step, Shortened):
            assert _cover_mask(g, step.path, k) == cov and len(step.path) < len(p)
            p = step.path
            _trace(trace, "shortened", cov.bit_count(), len(p), w)
        else:
            raise _step_failed(g, k, p, "certificate although find_k_at found no k-AT")
    return p


def find_k_dominating_path_or_witness(
    g: Graph, k: int, trace: TraceSink = None
) -> Dichotomy:
    """A path with eccentricity at most k, or a verified k-AT of g.

    The witness side takes precedence: a path is returned exactly when g
    has no k-AT, so the answer's shape always reflects the obstruction
    (both can exist at once; a graph may admit a k-dominating path and
    still contain a k-AT).  The witness is :func:`find_k_at`'s.  On a
    k-AT-free graph the improvement loop builds the path from the greedy
    seed.

    The optional trace receives one record per step; the kinds are seed,
    witness_priority, improved, shortened and path_done.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not is_connected(g):
        raise ValueError("find_k_dominating_path_or_witness requires a connected graph")
    p = greedy_seed_path(g)
    cov = _cover_mask(g, p, k)
    _trace(trace, "seed", cov.bit_count(), len(p), None)
    witness = find_k_at(g, k)
    if witness is not None:
        _trace(trace, "witness_priority", cov.bit_count(), len(p), None)
        return Dichotomy(witness=witness)
    p = _cover(g, k, p, cov, trace)
    _trace(trace, "path_done", g.n, len(p), None)
    return Dichotomy(path=p)
