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
    full = (1 << g.n) - 1
    s = _lowest(_sweep(g.adj_masks, 1, full, -1)[1])
    t = _lowest(_sweep(g.adj_masks, 1 << s, full, -1)[1])
    return _shortest_path(g, s, t)


def _step_failed(g: Graph, k: int, p: Sequence[int], why: str) -> RuntimeError:
    """The error for a step the paper's proof says cannot happen."""
    return RuntimeError(
        f"improvement step failed ({why}) on graph6 {emit_graph6(g)}, k={k}, path {list(p)}"
    )


def _improving(g: Graph, k: int, p: Sequence[int], w: int, walk: tuple[int, ...]) -> ImprovedPath:
    """Check that the step's walk is a path through p that covers w (see _step)."""
    if not (is_path(g, walk) and set(p) <= set(walk) and _cover_mask(g, walk, k) >> w & 1):
        raise _step_failed(g, k, p, f"no improving path absorbs {w}")
    return ImprovedPath(walk)


def _join(g: Graph, base: tuple[int, ...], pivot: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    """base up to its entry y nearest pivot, a shortest link y .. pivot up to
    its first vertex t on tail, then tail after t; tail starts at pivot.

    Link and tail are both shortest paths through pivot, so t on both sits at
    position len(link) - 1 - d(t, pivot) on the link and d(pivot, t) on the
    tail: the first shared vertex along the link is the last along the tail.
    """
    y = _nearest(g, pivot, base)
    link = _shortest_path(g, y, pivot)
    on_tail = set(tail)
    j = next(i for i, t in enumerate(link) if t in on_tail)
    return base[: base.index(y) + 1] + link[1 : j + 1] + tail[tail.index(link[j]) + 1 :]


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
        if _cover_mask(g, p, k) != cov_rest:
            raise _step_failed(g, k, p, f"trimming {u} loses coverage")
        return Shortened(rest)
    off_wa = cands & ~_cover_mask(g, path_wa, k)
    if off_wa:
        return _lowest(off_wa)
    # reroute through the connector: walk w .. y .. t .. u (see _join), then along p
    c = _lowest(cands)
    return _improving(g, k, p, w, _join(g, path_wa, c, _shortest_path(g, c, u)) + p[1:])


def _arrange_witness(k: int, certs: Sequence[tuple[int, ...]]) -> KatWitness:
    """The k-AT joined pairwise by certs: each runs smaller end first, and
    sorting on (first, last) puts them in the sorted-triple pair order."""
    paths = sorted((q if q[0] < q[-1] else q[::-1] for q in certs), key=lambda q: (q[0], q[-1]))
    return KatWitness((paths[0][0], paths[0][-1], paths[2][-1]), k, tuple(paths))


def _step(g: Graph, k: int, p: tuple[int, ...], w: int) -> ImproveResult:
    """The improvement step on path p for the uncovered vertex w.

    Every walk it builds is already a path.  a is the entry of p nearest w,
    so path_wa meets p only at a, and d(z, a) <= d(z, x) for z on path_wa
    and x on p.  A tip u' has d(u', u) = k and is farther than k from p[1:]
    and from path_wa, so path_u meets p only at u and misses path_wa; so
    does path_v at v.  A z on both would give 2k < d(u', v) + d(v', u) <=
    d(u', z) + d(z, u) + d(v', z) + d(z, v) = 2k, so they are disjoint.
    Hence uv (the joined tips, and a certificate path) and the certificate
    paths w .. a .. u .. u' and w .. a .. v .. v' are paths.  In the end
    reroute (_end_step), c is outside N^k(p[1:]) and within k of path_wa:
    the tail c .. u and the link y .. c lie within k of c, so they miss
    p[1:], and y != a.  A z on the tail has d(z, a) > k - d(c, z) = d(z, u),
    so it is off path_wa, and the link meets path_wa only at y, the entry
    nearest c (see _join).  In the far-tail reroute the link into the tip
    lies within k of it, so it misses p and path_wa as the tip does, and it
    meets the far tail only at y.
    """
    a = _nearest(g, w, sorted(p))
    path_wa = _shortest_path(g, w, a)
    if set(path_wa) & set(p) != {a}:
        raise _step_failed(g, k, p, f"the connector from {w} meets the path off {a}")
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

    uv = path_u + p[1:] + path_v[1:]
    # joined tips.  Never at k = 1: an x on a tip's path within k of w has
    # d(tip, x) >= 1 as d(tip, w) > k, and d(tip, x) <= k - 1 as d(w, p) > k
    if _cover_mask(g, uv, k) >> w & 1:
        return _improving(g, k, p, w, uv)
    # a tip within N^k of the far tail: detour q[-1] .. q[0] through both
    # tails and re-enter q next to a, freeing the connector to w
    for q, iq, tip, end, far in (
        (p, ia, u_prime, path_u, path_v),
        (rev, len(p) - 1 - ia, v_prime, path_v[::-1], path_u[::-1]),
    ):
        if _cover_mask(g, far, k) >> tip & 1:
            walk = q[iq + 1 :] + _join(g, far, tip, end)[1:] + q[1 : iq + 1] + path_wa[::-1][1:]
            return _improving(g, k, q, w, walk)

    cert_wu = path_wa + p[:ia][::-1] + path_u[::-1][1:]
    witness = _arrange_witness(k, (uv, cert_wu, path_wa + p[ia + 1 :] + path_v[1:]))
    if not verify_kat(g, witness):
        raise _step_failed(g, k, p, "certificate fails verify_kat")
    return Certificate(witness)


def improve_once(g: Graph, k: int, p: Sequence[int]) -> ImproveResult:
    """One round of the paper's improvement step on a path whose eccentricity
    exceeds k: w is the vertex farthest from p, smallest index on ties."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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
            if not (new_cov & cov == cov and new_cov != cov and set(p) <= set(step.path)):
                raise _step_failed(g, k, p, "an extension drops a vertex or grows no coverage")
            p, cov = step.path, new_cov
            _trace(trace, "improved", cov.bit_count(), len(p), w)
        elif isinstance(step, Shortened):
            if not (_cover_mask(g, step.path, k) == cov and len(step.path) < len(p)):
                raise _step_failed(g, k, p, "shortening changes the coverage or keeps the length")
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
