"""Corpus-level property checks and the small-graph counterexample hunter.

Every property is a pure check over one graph (a violation message or None);
the runner evaluates the enabled set over a corpus and assembles a
deterministic report.  Set CPK_THREADS to evaluate graphs in parallel;
results are merged in corpus order either way, so reports are stable.

Which graphs a property covers is decided once, in ``_eval_graph``: the pe
properties (theorem1, theorem3, corollary, dichotomy) cover connected graphs
with 0 < n <= eccentricity.MAX_N, the witness properties (all others) cover
graphs with 0 < n <= star_c1p.MAX_N, connected or not, and the hunt covers
the graphs in both domains.  Other graphs count as skipped.  The same
step decides that a witness statement (``_WITNESS_STATEMENTS``) passes an
unwitnessed graph: such a graph counts as checked and the statement is not
called.  Only the star_c1p_exists probe reports it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from . import eccentricity, star_c1p
from .asteroidal import find_k_at, min_k_at_free, verify_kat
from .central_path import find_k_dominating_path_or_witness
from .eccentricity import has_path_with_ecc_at_most, path_eccentricity, pe_exact
from .families import emit_graph6
from .graphs import Graph, find_long_induced_cycle, is_connected, is_path
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

    @property
    def in_pe_domain(self) -> bool:
        return 0 < self.g.n <= eccentricity.MAX_N and self.connected

    @property
    def in_witness_domain(self) -> bool:
        return 0 < self.g.n <= star_c1p.MAX_N


def _prop_theorem1(case: _GraphCase):
    if case.min_k == 1 and case.pe > 1:
        return f"1-AT-free but pe={case.pe}"
    return None


def _prop_theorem3(case: _GraphCase):
    if case.pe > case.min_k:
        return f"pe={case.pe} exceeds min k-AT-free level {case.min_k}"
    return None


def _prop_theorem4(case: _GraphCase):
    kat = find_k_at(case.g, 2)
    if kat is not None:
        return f"ordering witness exists alongside 2-AT {kat.triple}"
    return None


def _prop_corollary(case: _GraphCase):
    if case.pe > 2:
        return f"ordering witness exists but pe={case.pe}"
    return None


def _prop_c5_free(case: _GraphCase):
    cyc = find_long_induced_cycle(case.g, 5)
    if cyc is not None:
        return f"ordering witness exists alongside induced cycle {cyc}"
    return None


def _prop_order_lemma(case: _GraphCase):
    p = check_order_lemma(case.g, case.star)
    return None if p is None else f"order conditions fail on induced path {p}"


def _prop_path_neighborhood(case: _GraphCase):
    bad = check_path_neighborhood(case.g, case.star)
    return None if bad is None else "rank bounds fail for path {} and vertex {}".format(*bad)


def _prop_star_c1p_exists(case: _GraphCase):
    if case.star is None:
        return "no ordering witness"
    return None


def _prop_dichotomy(case: _GraphCase):
    g = case.g
    for k in (1, 2, 3):
        d = find_k_dominating_path_or_witness(g, k)
        want_path = k >= case.min_k
        if d.path is not None:
            if not want_path:
                return f"k={k}: path returned although a {k}-AT exists"
            if not is_path(g, d.path) or path_eccentricity(g, d.path) > k:
                return f"k={k}: path fails re-verification"
            if has_path_with_ecc_at_most(g, k) is None:
                return f"k={k}: path returned but decision oracle disagrees"
        else:
            assert d.witness is not None
            if want_path:
                return f"k={k}: witness returned although graph is {k}-AT-free"
            if not verify_kat(g, d.witness):
                return f"k={k}: witness fails re-verification"
    return None


PROPERTIES: dict[str, Callable[[_GraphCase], Optional[str]]] = {
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


# properties on the exact pe oracle; every other property is on the witness search
_PE_PROPERTIES = frozenset({"theorem1", "theorem3", "corollary", "dichotomy"})
# statements about graphs with an ordering witness, which an unwitnessed graph passes
_WITNESS_STATEMENTS = frozenset({"theorem4", "corollary", "c5_free", "order_lemma", "path_neighborhood"})


def _eval_graph(args: tuple[Graph, tuple[str, ...]]) -> list[tuple[str, bool, Optional[str]]]:
    """(pid, inside, violation) per property; a property runs only inside its domain."""
    g, prop_ids = args
    case = _GraphCase(g)
    rows = []
    for pid in prop_ids:
        inside = case.in_pe_domain if pid in _PE_PROPERTIES else case.in_witness_domain
        runs = inside and (pid not in _WITNESS_STATEMENTS or case.star is not None)
        rows.append((pid, inside, PROPERTIES[pid](case) if runs else None))
    return rows


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


def run_property_suite(corpus: Iterable[Graph], properties: Iterable[str]) -> PropertyReport:
    """Evaluate the chosen properties over every graph of the corpus.

    Graphs outside a property's domain are skipped and counted, never
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
        # imported here: multiprocessing costs every other run its import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_eval_graph, jobs, chunksize=16))
    else:
        rows = [_eval_graph(job) for job in jobs]

    checked = {pid: 0 for pid in prop_ids}
    skipped = {pid: 0 for pid in prop_ids}
    violations: dict[str, list[tuple[str, str]]] = {pid: [] for pid in prop_ids}
    for g, row in zip(graphs, rows):
        for pid, inside, violation in row:
            if not inside:
                skipped[pid] += 1
                continue
            checked[pid] += 1
            if violation is not None:
                violations[pid].append((emit_graph6(g), violation))
    results = tuple(
        PropertyResult(pid, checked[pid], skipped[pid], tuple(violations[pid]))
        for pid in prop_ids
    )
    return PropertyReport(results, time.monotonic() - start)


def hunt_conjecture(corpus: Iterable[Graph]) -> HuntResult:
    """Look for a connected graph with an ordering witness yet pe >= 2.

    Each witnessed graph is decided by the early-exit search for a path of
    eccentricity <= 1; ``pe_exact`` runs only when that search finds no
    path, to fill in the value and path reported.  Such a counterexample is
    re-verified on both sides before being reported, and a failed
    re-verification raises :class:`RuntimeError`; finding none leaves the
    conjectured bound standing on the graphs that were checked.  Graphs
    outside either domain (empty, oversized or disconnected) are counted as
    skipped.
    """
    searched = 0
    skipped = 0
    with_witness = 0
    for g in corpus:
        searched += 1
        case = _GraphCase(g)
        if not (case.in_pe_domain and case.in_witness_domain):
            skipped += 1
            continue
        witness = case.star
        if witness is None:
            continue
        with_witness += 1
        if has_path_with_ecc_at_most(g, 1) is None:
            result = pe_exact(g)
            graph6 = emit_graph6(g)
            if not verify_witness(g, witness):
                raise RuntimeError(f"ordering witness of {graph6} fails re-verification")
            if result.value < 2:
                raise RuntimeError(
                    f"the pe <= 1 search missed {result.witness} of {graph6}, "
                    f"whose eccentricity is {result.value}"
                )
            return HuntResult(
                searched,
                with_witness,
                Counterexample(graph6, witness, result.value, result.witness),
                skipped,
            )
    return HuntResult(searched, with_witness, None, skipped)
