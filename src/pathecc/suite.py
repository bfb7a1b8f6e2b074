"""Corpus-level property checks and the small-graph counterexample hunter.

Every property is a pure check over one graph (a violation message or None);
the runner evaluates the enabled set over a corpus and assembles a
deterministic report.  The runner and the hunt share one stream, ``_rows``,
that takes each graph as it arrives and never holds the corpus.  CPK_THREADS
sets its worker processes; rows keep corpus order, so reports are stable.

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
from collections import Counter, defaultdict, deque
from functools import cached_property, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from . import eccentricity, star_c1p
from .asteroidal import find_k_at, min_k_at_free, verify_kat
from .central_path import find_k_dominating_path_or_witness
from .eccentricity import has_path_with_ecc_at_most, path_eccentricity, pe_exact
from .families import emit_graph6
from .graphs import Graph, _Record, find_long_induced_cycle, is_connected, is_path
from .star_c1p import (
    OrderingWitness,
    check_order_lemma,
    check_path_neighborhood,
    find_star_c1p,
    verify_witness,
)

class PropertyResult(_Record):
    __slots__ = ("property_id", "checked", "skipped", "violations")

    def __init__(
        self,
        property_id: str,
        checked: int,
        skipped: int,
        violations: tuple[tuple[str, str], ...],  # (graph6, details)
    ) -> None:
        object.__setattr__(self, "property_id", property_id)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "skipped", skipped)
        object.__setattr__(self, "violations", violations)

    @property
    def passed(self) -> bool:
        return not self.violations


class PropertyReport(_Record):
    __slots__ = ("results", "wall_time_s")

    def __init__(self, results: tuple[PropertyResult, ...], wall_time_s: float) -> None:
        object.__setattr__(self, "results", results)
        object.__setattr__(self, "wall_time_s", wall_time_s)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


class Counterexample(_Record):
    __slots__ = ("graph6", "witness", "pe_value", "pe_witness")

    def __init__(
        self, graph6: str, witness: OrderingWitness, pe_value: int, pe_witness: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "graph6", graph6)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "pe_value", pe_value)
        object.__setattr__(self, "pe_witness", pe_witness)


class HuntResult(_Record):
    __slots__ = ("searched", "with_witness", "counterexample", "skipped")

    def __init__(
        self,
        searched: int,
        with_witness: int,
        counterexample: Optional[Counterexample],
        skipped: int,  # empty, oversized or disconnected, so never checked
    ) -> None:
        object.__setattr__(self, "searched", searched)
        object.__setattr__(self, "with_witness", with_witness)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "skipped", skipped)

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
        elif want_path:
            return f"k={k}: witness returned although graph is {k}-AT-free"
        elif not verify_kat(g, d.witness):
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


def _eval_graph(prop_ids: tuple[str, ...], g: Graph) -> list[tuple[str, bool, Optional[tuple[str, str]]]]:
    """(pid, inside, (graph6, details) or None) per property, run only inside its domain."""
    case = _GraphCase(g)
    rows = []
    for pid in prop_ids:
        inside = case.in_pe_domain if pid in _PE_PROPERTIES else case.in_witness_domain
        runs = inside and (pid not in _WITNESS_STATEMENTS or case.star is not None)
        details = PROPERTIES[pid](case) if runs else None
        rows.append((pid, inside, None if details is None else (emit_graph6(g), details)))
    return rows


def _worker_count() -> int:
    """Worker processes from CPK_THREADS: 1 when unset, else a positive integer."""
    raw = os.environ.get("CPK_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CPK_THREADS must be a positive integer, got {raw!r}")
    return workers


def _rows(evaluate: Callable, corpus: Iterable[Graph]) -> Iterator:
    """evaluate(g) per graph in corpus order, on CPK_THREADS processes.  A pool holds
    two 16-graph chunks per worker in flight; a dead worker raises BrokenProcessPool."""
    workers = _worker_count()
    if workers == 1:
        yield from map(evaluate, corpus)
        return
    from concurrent.futures import ProcessPoolExecutor  # only CPK_THREADS > 1 pays for it
    graphs = iter(corpus)
    with ProcessPoolExecutor(workers) as pool:
        chunks = iter(lambda: list(islice(graphs, 16)), [])  # ends with the corpus
        futures = (pool.map(evaluate, chunk, chunksize=16) for chunk in chunks)
        window = deque(islice(futures, 2 * workers))
        while window:
            yield from window.popleft()
            window.extend(islice(futures, 1))


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
    checked, skipped, violations = Counter(), Counter(), defaultdict(list)
    for row in _rows(partial(_eval_graph, prop_ids), corpus):
        for pid, inside, violation in row:  # only a graph inside has a violation
            (checked if inside else skipped)[pid] += 1
            if violation is not None:
                violations[pid].append(violation)
    results = tuple(
        PropertyResult(pid, checked[pid], skipped[pid], tuple(violations[pid]))
        for pid in prop_ids
    )
    return PropertyReport(results, time.monotonic() - start)


def _hunt_graph(g: Graph) -> Optional[tuple[bool, Optional[Counterexample]]]:
    """None for a graph outside either domain, else (witnessed, counterexample or None)."""
    case = _GraphCase(g)
    if not (case.in_pe_domain and case.in_witness_domain):
        return None
    if case.star is None or has_path_with_ecc_at_most(g, 1) is not None:
        return case.star is not None, None
    result = pe_exact(g)
    graph6 = emit_graph6(g)
    if not verify_witness(g, case.star):
        raise RuntimeError(f"ordering witness of {graph6} fails re-verification")
    if result.value < 2:
        raise RuntimeError(
            f"the pe <= 1 search missed {result.witness} of {graph6}, "
            f"whose eccentricity is {result.value}"
        )
    return True, Counterexample(graph6, case.star, result.value, result.witness)


def hunt_conjecture(corpus: Iterable[Graph]) -> HuntResult:
    """Look for a connected graph with an ordering witness yet pe >= 2.

    Each witnessed graph is decided by the early-exit search for a path of
    eccentricity <= 1; ``pe_exact`` runs only when that search finds no
    path, to fill in the value and path reported.  Such a counterexample is
    re-verified on both sides before being reported, and a failed
    re-verification raises :class:`RuntimeError`; finding none leaves the
    conjectured bound standing on the graphs that were checked.  Graphs
    outside either domain (empty, oversized or disconnected) are counted as
    skipped.  Like the suite, the hunt checks graphs on CPK_THREADS
    processes, and the first counterexample in corpus order ends it.
    """
    searched = skipped = with_witness = 0
    for searched, row in enumerate(_rows(_hunt_graph, corpus), start=1):
        if row is None:
            skipped += 1
            continue
        witnessed, counterexample = row
        with_witness += witnessed
        if counterexample is not None:
            return HuntResult(searched, with_witness, counterexample, skipped)
    return HuntResult(searched, with_witness, None, skipped)
