import os
import subprocess
import sys
import tracemalloc
from hashlib import sha256
from functools import partial
from pathlib import Path

import pytest

import pathecc.suite
from pathecc.central_path import Dichotomy
from pathecc.families import (
    clique,
    cycle,
    emit_graph6,
    enumerate_connected,
    fig_example_c,
    parse_graph6,
    path_graph,
    subdivided_claw,
)
from pathecc.graphs import Graph
from pathecc.star_c1p import OrderingWitness
from pathecc.suite import (
    PROPERTIES,
    _GraphCase,
    _eval_graph,
    _prop_dichotomy,
    _prop_order_lemma,
    _prop_path_neighborhood,
    _worker_count,
    hunt_conjecture,
    run_property_suite,
)


def test_theorem4_on_5_vertex_corpus():
    report = run_property_suite(enumerate_connected(5), ["theorem4"])
    (res,) = report.results
    assert res.property_id == "theorem4"
    assert res.checked == 21 and res.skipped == 0
    assert res.violations == ()
    assert report.passed


def test_star_c1p_exists_negative_control():
    report = run_property_suite([cycle(5)], ["star_c1p_exists"])
    (res,) = report.results
    assert not res.passed and not report.passed
    assert len(res.violations) == 1
    g6, details = res.violations[0]
    assert details == "no ordering witness"
    assert g6 == "Dhc"  # emit_graph6(cycle(5)) under the ring labeling


def test_violations_replay():
    """A reported violation must reproduce when its graph6 code is rerun alone."""
    from pathecc.families import parse_graph6

    report = run_property_suite([cycle(5), fig_example_c()], ["star_c1p_exists"])
    (res,) = report.results
    assert len(res.violations) == 1
    g6, _ = res.violations[0]
    replay = run_property_suite([parse_graph6(g6)], ["star_c1p_exists"])
    assert replay.results[0].violations[0][0] == g6


def test_empty_corpus_passes():
    report = run_property_suite([], ["theorem3", "corollary"])
    assert report.passed
    assert all(r.checked == 0 and r.skipped == 0 for r in report.results)


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        run_property_suite([], ["not_a_property"])


def test_all_properties_on_tiny_corpus():
    corpus = [g for n in (1, 2, 3, 4) for g in enumerate_connected(n)]
    report = run_property_suite(corpus, PROPERTIES.keys())
    for res in report.results:
        if res.property_id == "star_c1p_exists":
            continue  # not a theorem, just a probe
        assert res.passed, res
    assert [r.property_id for r in report.results] == sorted(PROPERTIES)


def test_report_is_deterministic():
    corpus = list(enumerate_connected(4))
    r1 = run_property_suite(corpus, ["theorem3", "theorem4"])
    r2 = run_property_suite(corpus, ["theorem3", "theorem4"])
    assert r1.results == r2.results


def test_oversized_graphs_are_skipped_not_fatal():
    big = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    report = run_property_suite([big, cycle(4)], ["theorem3"])
    (res,) = report.results
    assert res.checked == 1 and res.skipped == 1
    assert report.passed


def test_graphs_past_both_caps_are_skipped_for_every_property():
    report = run_property_suite([path_graph(21)], PROPERTIES)
    assert len(report.results) == 9
    assert all(r.checked == 0 and r.skipped == 1 for r in report.results)
    assert report.passed


def test_disconnected_graphs_are_skipped_for_pe_properties():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    report = run_property_suite([g], ["theorem3", "theorem4"])
    by_id = {r.property_id: r for r in report.results}
    assert by_id["theorem3"].skipped == 1
    assert by_id["theorem4"].checked == 1  # no connectivity needed there


def test_parallel_run_matches_sequential():
    # a disconnected graph and a 17-vertex path make some properties skip;
    # C5 has no ordering witness, a violation of star_c1p_exists
    corpus = list(enumerate_connected(5))
    corpus += [Graph.from_edges(4, [(0, 1), (2, 3)]), path_graph(17), cycle(5)]
    seq = run_property_suite(corpus, PROPERTIES)
    os.environ["CPK_THREADS"] = "2"
    try:
        par = run_property_suite(corpus, PROPERTIES)
    finally:
        del os.environ["CPK_THREADS"]
    assert seq.results == par.results
    assert any(r.skipped for r in par.results) and not par.passed


def test_serial_run_checks_each_graph_as_it_arrives(monkeypatch):
    yielded = []
    seen = []

    def corpus():
        for n in range(1, 6):
            yielded.append(n)
            yield path_graph(n)

    monkeypatch.delenv("CPK_THREADS", raising=False)
    monkeypatch.setitem(PROPERTIES, "theorem3", lambda case: seen.append(len(yielded)))
    (res,) = run_property_suite(corpus(), ["theorem3"]).results
    assert seen == [1, 2, 3, 4, 5] and res.checked == 5


@pytest.mark.parametrize("threads", [None, "2"])
def test_suite_memory_does_not_grow_with_the_corpus(monkeypatch, threads):
    """The runner holds no copy of the corpus in either worker path, so its
    traced peak over 5000 one-shot graphs stays below half of what one copy
    of them costs.  The serial peak is a few KB.  The pool's is its fixed
    cost plus at most two chunks of 16 graphs per worker, about a sixth of a
    copy here, and the same under any load, since the window is bounded."""
    if threads is None:
        monkeypatch.delenv("CPK_THREADS", raising=False)
    else:
        monkeypatch.setenv("CPK_THREADS", threads)
    p3 = path_graph(3)
    run_property_suite(iter([p3, p3]), ["theorem4"])  # imports the pool outside the trace
    tracemalloc.start()
    try:
        copy = [path_graph(3) for _ in range(5000)]
        one_copy = tracemalloc.get_traced_memory()[0]
        del copy
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        (res,) = run_property_suite((path_graph(3) for _ in range(5000)), ["theorem4"]).results
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.checked == 5000
    assert peak < one_copy / 2, f"traced peak {peak} bytes, one copy {one_copy}"


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_holds_at_most_two_chunks_per_worker(monkeypatch, workers):
    yielded = []

    def corpus():
        for _ in range(500):
            yielded.append(None)
            yield path_graph(3)

    in_flight = []
    monkeypatch.setenv("CPK_THREADS", str(workers))
    rows = pathecc.suite._rows(partial(_eval_graph, ("theorem4",)), corpus())
    for done, row in enumerate(rows):
        in_flight.append(len(yielded) - done)
        assert row == [("theorem4", True, None)]
    assert len(in_flight) == 500 and max(in_flight) == 2 * workers * 16


def test_a_dead_worker_fails_the_run_instead_of_hanging():
    """A worker killed mid-run (a crash, or the OOM killer) raises
    BrokenProcessPool; the run must not wait for the lost chunk forever."""
    src = str(Path(pathecc.suite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, CPK_THREADS="2")
    code = (
        "import multiprocessing, os\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from pathecc.families import path_graph\n"
        "from pathecc.suite import PROPERTIES, run_property_suite\n"
        "multiprocessing.set_start_method('fork')  # the workers inherit the patch below\n"
        "PROPERTIES['theorem4'] = lambda case: os._exit(9) if case.g.n == 4 else None\n"
        "try:\n"
        "    run_property_suite([path_graph(n) for n in range(1, 39)], ['theorem4'])\n"
        "except BrokenProcessPool:\n"
        "    print('broken')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.stdout.strip() == "broken", out.stderr


_POOLED_HUNT = """
import multiprocessing, os, sys
from pathecc import suite
from pathecc.eccentricity import PeResult
from pathecc.families import emit_graph6, enumerate_connected

multiprocessing.set_start_method("fork")  # the workers inherit the patches below
corpus = [g for n in range(1, 7) for g in enumerate_connected(n)]
witnessed = [emit_graph6(g) for g in corpus if suite.find_star_c1p(g) is not None]
# witnessed[70] is graph 75, past the first window of four 16-graph chunks;
# witnessed[90], graph 103, is in a chunk in flight when the hunt stops there
misses = {witnessed[70], witnessed[90]}
search, pe, log = suite.has_path_with_ecc_at_most, suite.pe_exact, sys.argv[1]


def logged_search(g, k):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return None if emit_graph6(g) in misses else search(g, k)


def hunt(threads):
    os.environ["CPK_THREADS"] = threads
    r = suite.hunt_conjecture(iter(corpus))
    return r.searched, r.with_witness, r.skipped, r.counterexample.graph6


suite.has_path_with_ecc_at_most = logged_search
suite.pe_exact = lambda g: PeResult(2, pe(g).witness) if emit_graph6(g) in misses else pe(g)
print(witnessed[70])
print(hunt("1"))
open(log, "w").close()
print(hunt("2"))
with open(log) as fh:
    print(bool({int(pid) for pid in fh} - {os.getpid()}))
suite.verify_witness = lambda g, w: False
try:
    hunt("2")
except RuntimeError as exc:
    print(exc)
"""


def test_the_pooled_hunt_checks_in_workers_and_stops_in_corpus_order(tmp_path):
    """With two workers the per-graph checks run outside the parent, the hunt
    names the same first counterexample as a serial run although a later one
    is in flight, and a failed re-verification in a worker raises, not hangs."""
    src = str(Path(pathecc.suite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _POOLED_HUNT, str(tmp_path / "pids")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.stdout.count("\n") == 5, out.stderr
    graph6, serial, pooled, outside, error = out.stdout.splitlines()
    assert serial == pooled == repr((76, 71, 0, graph6)), out.stderr
    assert outside == "True"
    assert error == f"ordering witness of {graph6} fails re-verification"


# sha256 of repr((report.results, hunt result)) for every property on
# _mixed_corpus(), computed while each property still carried its own guard
MIXED_SHA256 = "7540ce77b4724a699f2fe7bbb4264e7bcf0ab7aaeacc3c6ebbd183fce00c5097"


def _mixed_corpus() -> list[Graph]:
    """Graphs on both sides of each domain: empty, disconnected, past one cap
    or both, with and without an ordering witness."""
    corpus = [g for n in range(1, 6) for g in enumerate_connected(n)]
    corpus += [parse_graph6("?"), parse_graph6("C`"), Graph.from_edges(3, [])]
    corpus += [path_graph(17), path_graph(21), clique(17), cycle(9), subdivided_claw(2)]
    corpus.append(Graph.from_edges(18, [(i, i + 1) for i in range(17) if i != 8]))
    return corpus


@pytest.mark.parametrize("threads", [None, "2"])
def test_mixed_corpus_report_and_hunt_are_pinned(monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("CPK_THREADS", raising=False)
    else:
        monkeypatch.setenv("CPK_THREADS", threads)
    for source in (list, iter):  # a one-shot iterator gives the same report
        report = run_property_suite(source(_mixed_corpus()), PROPERTIES)
        hunt = hunt_conjecture(source(_mixed_corpus()))
        counts = {r.property_id: (r.checked, r.skipped, len(r.violations)) for r in report.results}
        for pid in ("theorem1", "theorem3", "corollary", "dichotomy"):
            assert counts[pid] == (33, 7, 0)
        for pid in ("theorem4", "c5_free", "order_lemma", "path_neighborhood"):
            assert counts[pid] == (38, 2, 0)
        assert counts["star_c1p_exists"] == (38, 2, 3)
        assert (hunt.searched, hunt.with_witness, hunt.skipped) == (40, 30, 7)
        assert sha256(repr((report.results, hunt)).encode()).hexdigest() == MIXED_SHA256


def test_pe_properties_are_registered():
    assert pathecc.suite._PE_PROPERTIES <= PROPERTIES.keys()
    assert pathecc.suite._WITNESS_STATEMENTS <= PROPERTIES.keys() - {"star_c1p_exists"}


def test_witness_statements_pass_an_unwitnessed_graph_uncalled(monkeypatch):
    def called(case):
        raise AssertionError("theorem4 ran on a graph with no ordering witness")

    monkeypatch.setitem(PROPERTIES, "theorem4", called)
    (res,) = run_property_suite([cycle(5)], ["theorem4"]).results
    assert (res.checked, res.skipped, res.violations) == (1, 0, ())


def test_rank_lemma_properties_name_the_first_failure():
    case = _GraphCase(path_graph(5))
    case.star = OrderingWitness((0, 1, 4, 3, 2), frozenset())
    assert _prop_order_lemma(case) == "order conditions fail on induced path (0, 1, 2)"
    case = _GraphCase(path_graph(4))
    case.star = OrderingWitness((0, 1, 3, 2), frozenset())
    assert _prop_path_neighborhood(case) == "rank bounds fail for path (0, 1) and vertex 3"


@pytest.mark.parametrize("path", [(0,), (0, 2)], ids=["too-far", "not-a-path"])
def test_dichotomy_rescores_the_returned_path(monkeypatch, path):
    # P5 has a path of eccentricity <= 1, so the decision oracle alone agrees
    monkeypatch.setattr(
        pathecc.suite, "find_k_dominating_path_or_witness", lambda g, k: Dichotomy(path=path)
    )
    assert _prop_dichotomy(_GraphCase(path_graph(5))) == "k=1: path fails re-verification"


def test_hunt_small_corpora_find_nothing():
    corpus = [g for n in range(1, 6) for g in enumerate_connected(n)]
    result = hunt_conjecture(corpus)
    assert result.counterexample is None
    assert result.searched == len(corpus)
    assert 0 < result.with_witness < len(corpus)


def test_hunt_skips_non_star_graphs():
    result = hunt_conjecture([cycle(5)])
    assert result.searched == 1
    assert result.with_witness == 0
    assert result.counterexample is None


def test_hunt_counts_fig_c():
    result = hunt_conjecture([fig_example_c()])
    assert result.with_witness == 1
    assert result.counterexample is None  # pe is 0 or 1 there


def test_hunt_would_report_and_verify():
    """Feed the hunter a fabricated corpus able to trip it if pe were ever >= 2.

    The 2-subdivided claw has pe 2 but no ordering witness, so the hunter
    must pass over it rather than report it.
    """
    result = hunt_conjecture([subdivided_claw(2)])
    assert result.with_witness == 0
    assert result.counterexample is None


def test_hunt_counts_skipped_graphs():
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    result = hunt_conjecture([fig_example_c(), clique(17), disconnected])
    assert result.searched == 3 and result.skipped == 2 and result.checked == 1
    assert result.with_witness == 1 and result.counterexample is None


def test_hunt_runs_pe_exact_only_on_a_hit(monkeypatch):
    """The pe <= 1 decision screens each witnessed graph; pe_exact only fills
    in a hit.  A stand-in witness on the 2-subdivided claw (pe 2) makes one."""
    calls = []
    real = pathecc.suite.pe_exact
    monkeypatch.setattr(pathecc.suite, "pe_exact", lambda g: calls.append(g) or real(g))
    corpus = [g for n in range(1, 6) for g in enumerate_connected(n)]
    assert hunt_conjecture(corpus).counterexample is None and calls == []

    claw = subdivided_claw(2)
    monkeypatch.setattr(pathecc.suite, "find_star_c1p", lambda g: "stand-in")
    monkeypatch.setattr(pathecc.suite, "verify_witness", lambda g, w: w == "stand-in")
    result = hunt_conjecture([cycle(5), claw])
    assert calls == [claw] and result.with_witness == 2
    ce = result.counterexample
    assert (ce.graph6, ce.witness, ce.pe_value) == (emit_graph6(claw), "stand-in", 2)
    assert ce.pe_witness == real(claw).witness


def test_hunt_raises_when_a_counterexample_fails_re_verification(monkeypatch):
    """A pe <= 1 search that misses, or a witness that does not re-verify,
    raises rather than being reported; ``python -O`` cannot strip the check."""
    g = fig_example_c()  # witnessed, pe <= 1
    monkeypatch.setattr(pathecc.suite, "has_path_with_ecc_at_most", lambda g, k: None)
    with pytest.raises(RuntimeError, match="missed"):
        hunt_conjecture([g])
    monkeypatch.setattr(pathecc.suite, "verify_witness", lambda g, w: False)
    with pytest.raises(RuntimeError, match="ordering witness"):
        hunt_conjecture([g])


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.delenv("CPK_THREADS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("CPK_THREADS", "3")
    assert _worker_count() == 3
    for bad in ("abc", "0", "-2", "1.5", ""):
        monkeypatch.setenv("CPK_THREADS", bad)
        with pytest.raises(ValueError, match="CPK_THREADS"):
            _worker_count()


def test_import_leaves_the_process_pool_unloaded():
    """Only CPK_THREADS > 1 pays for importing multiprocessing."""
    src = str(Path(pathecc.suite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, pathecc, pathecc.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
