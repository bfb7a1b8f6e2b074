"""Corpus-level property checks and the small-graph counterexample hunter.

Every property is a pure predicate over one graph; the runner evaluates the
enabled set over a corpus and assembles a deterministic report.  Set
CPK_THREADS to evaluate graphs in parallel; results are merged in corpus
order either way, so reports are stable.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional

from . import eccentricity, star_c1p
from .asteroidal import find_k_at, min_k_at_free, verify_kat
from .central_path import find_k_dominating_path_or_witness
from .eccentricity import has_path_with_ecc_at_most, pe_exact
from .families import emit_graph6
from .graphs import Graph, find_long_induced_cycle, is_connected
from .star_c1p import (
    OrderingWitness,
    check_order_lemma,
    check_path_neighborhood,
    find_star_c1p,
    verify_witness,
)

@dataclass(frozen=True)
class PropertyResult:
    property_id: str
    checked: int
    skipped: int
    violations: tuple[tuple[str, str], ...]  # (graph6, details)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PropertyReport:
    corpus: str
    results: tuple[PropertyResult, ...]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


@dataclass(frozen=True)
class Counterexample:
    graph6: str
    witness: OrderingWitness
    pe_value: int
    pe_witness: tuple[int, ...]


@dataclass(frozen=True)
class HuntResult:
    searched: int
    with_witness: int
    counterexample: Optional[Counterexample]
    skipped: int  # empty, oversized or disconnected, so never checked

    @property
    def checked(self) -> int:
        return self.searched - self.skipped


class _GraphCase:
    """Lazy per-graph evaluations shared by all properties in one run."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.g)

    @cached_property
    def star(self) -> Optional[OrderingWitness]:
        return find_star_c1p(self.g)

    @cached_property
    def min_k(self) -> int:
        return min_k_at_free(self.g)

    @cached_property
    def pe(self) -> int:
        return pe_exact(self.g).value


class _Outcome(Enum):
    SKIP = "skip"  # pickled by name, so worker processes return this very member


_SKIP = _Outcome.SKIP


def _prop_theorem1(case: _GraphCase):
    if not case.connected or case.g.n > eccentricity.MAX_N:
        return _SKIP
    if case.min_k == 1 and case.pe > 1:
        return f"1-AT-free but pe={case.pe}"
    return None


def _prop_theorem3(case: _GraphCase):
    if not case.connected or case.g.n > eccentricity.MAX_N:
        return _SKIP
    if case.pe > case.min_k:
        return f"pe={case.pe} exceeds min k-AT-free level {case.min_k}"
    return None


def _prop_theorem4(case: _GraphCase):
    if case.g.n > star_c1p.MAX_N:
        return _SKIP
    if case.star is None:
        return None
    kat = find_k_at(case.g, 2)
    if kat is not None:
        return f"ordering witness exists alongside 2-AT {kat.triple}"
    return None


def _prop_corollary(case: _GraphCase):
    if not case.connected or case.g.n > eccentricity.MAX_N:
        return _SKIP
    if case.star is not None and case.pe > 2:
        return f"ordering witness exists but pe={case.pe}"
    return None


def _prop_c5_free(case: _GraphCase):
    if case.g.n > star_c1p.MAX_N:
        return _SKIP
    if case.star is None:
        return None
    cyc = find_long_induced_cycle(case.g, 5)
    if cyc is not None:
        return f"ordering witness exists alongside induced cycle {cyc}"
    return None


def _prop_order_lemma(case: _GraphCase):
    if case.g.n > star_c1p.MAX_N:
        return _SKIP
    if case.star is None:
        return None
    p = check_order_lemma(case.g, case.star)
    return None if p is None else f"order conditions fail on induced path {p}"


def _prop_path_neighborhood(case: _GraphCase):
    if case.g.n > star_c1p.MAX_N:
        return _SKIP
    if case.star is None:
        return None
    bad = check_path_neighborhood(case.g, case.star)
    return None if bad is None else "rank bounds fail for path {} and vertex {}".format(*bad)


def _prop_star_c1p_exists(case: _GraphCase):
    if case.g.n > star_c1p.MAX_N:
        return _SKIP
    if case.star is None:
        return "no ordering witness"
    return None


def _prop_dichotomy(case: _GraphCase):
    if not case.connected or case.g.n > eccentricity.MAX_N:
        return _SKIP
    g = case.g
    for k in (1, 2, 3):
        d = find_k_dominating_path_or_witness(g, k)
        want_path = k >= case.min_k
        if d.path is not None:
            if not want_path:
                return f"k={k}: path returned although a {k}-AT exists"
            if has_path_with_ecc_at_most(g, k) is None:
                return f"k={k}: path returned but decision oracle disagrees"
        else:
            assert d.witness is not None
            if want_path:
                return f"k={k}: witness returned although graph is {k}-AT-free"
            if not verify_kat(g, d.witness):
                return f"k={k}: witness fails re-verification"
    return None


PROPERTIES: dict[str, Callable[[_GraphCase], object]] = {
    "theorem1": _prop_theorem1,
    "theorem3": _prop_theorem3,
    "theorem4": _prop_theorem4,
    "corollary": _prop_corollary,
    "c5_free": _prop_c5_free,
    "order_lemma": _prop_order_lemma,
    "path_neighborhood": _prop_path_neighborhood,
    "star_c1p_exists": _prop_star_c1p_exists,
    "dichotomy": _prop_dichotomy,
}


def _eval_graph(args: tuple[Graph, tuple[str, ...]]) -> list[tuple[str, object]]:
    g, prop_ids = args
    if g.n == 0:  # no property is defined on the empty graph
        return [(pid, _SKIP) for pid in prop_ids]
    case = _GraphCase(g)
    return [(pid, PROPERTIES[pid](case)) for pid in prop_ids]


def _worker_count() -> int:
    """Worker processes from CPK_THREADS: 1 when unset, else a positive integer."""
    raw = os.environ.get("CPK_THREADS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CPK_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_property_suite(
    corpus: Iterable[Graph],
    properties: Iterable[str],
    corpus_name: str = "corpus",
) -> PropertyReport:
    """Evaluate the chosen properties over every graph of the corpus.

    Oversized or otherwise ineligible graphs are skipped and counted, never
    fatal.  The report depends only on corpus order and the enabled set.
    """
    prop_ids = tuple(sorted(set(properties)))
    unknown = [p for p in prop_ids if p not in PROPERTIES]
    if unknown:
        raise ValueError(f"unknown properties: {unknown}")
    start = time.monotonic()
    graphs = list(corpus)
    jobs = [(g, prop_ids) for g in graphs]
    workers = _worker_count()
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_eval_graph, jobs, chunksize=16))
    else:
        rows = [_eval_graph(job) for job in jobs]

    checked = {pid: 0 for pid in prop_ids}
    skipped = {pid: 0 for pid in prop_ids}
    violations: dict[str, list[tuple[str, str]]] = {pid: [] for pid in prop_ids}
    for g, row in zip(graphs, rows):
        for pid, outcome in row:
            if outcome is _SKIP:
                skipped[pid] += 1
            elif outcome is None:
                checked[pid] += 1
            else:
                checked[pid] += 1
                violations[pid].append((emit_graph6(g), str(outcome)))
    results = tuple(
        PropertyResult(pid, checked[pid], skipped[pid], tuple(violations[pid]))
        for pid in prop_ids
    )
    return PropertyReport(corpus_name, results, time.monotonic() - start)


def hunt_conjecture(corpus: Iterable[Graph]) -> HuntResult:
    """Look for a connected graph with an ordering witness yet pe >= 2.

    Each witnessed graph is decided by the early-exit search for a path of
    eccentricity <= 1; only a hit pays for ``pe_exact``, which fills in the
    value and path reported.  The first hit is re-verified on both sides
    before being reported; finding none leaves the conjectured bound
    standing on the graphs that were checked.  Empty, oversized and
    disconnected graphs are counted as skipped.
    """
    searched = 0
    skipped = 0
    with_witness = 0
    cap = min(eccentricity.MAX_N, star_c1p.MAX_N)
    for g in corpus:
        searched += 1
        if not 0 < g.n <= cap or not is_connected(g):
            skipped += 1
            continue
        witness = find_star_c1p(g)
        if witness is None:
            continue
        with_witness += 1
        if has_path_with_ecc_at_most(g, 1) is None:
            result = pe_exact(g)
            assert verify_witness(g, witness) and result.value >= 2
            return HuntResult(
                searched,
                with_witness,
                Counterexample(emit_graph6(g), witness, result.value, result.witness),
                skipped,
            )
    return HuntResult(searched, with_witness, None, skipped)
