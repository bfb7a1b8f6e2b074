import os

import pytest

import pathecc.suite
from pathecc.families import (
    clique,
    cycle,
    emit_graph6,
    enumerate_connected,
    fig_example_c,
    path_graph,
    subdivided_claw,
)
from pathecc.graphs import Graph
from pathecc.star_c1p import OrderingWitness
from pathecc.suite import (
    PROPERTIES,
    _GraphCase,
    _prop_order_lemma,
    _prop_path_neighborhood,
    _worker_count,
    hunt_conjecture,
    run_property_suite,
)


def test_theorem4_on_5_vertex_corpus():
    report = run_property_suite(
        enumerate_connected(5), ["theorem4"], corpus_name="exhaustive:5"
    )
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
    report = run_property_suite(corpus, PROPERTIES.keys(), corpus_name="exhaustive:<=4")
    for res in report.results:
        if res.property_id == "star_c1p_exists":
            continue  # not a theorem, just a probe
        assert res.passed, res
    assert [r.property_id for r in report.results] == sorted(PROPERTIES)


def test_report_is_deterministic():
    corpus = list(enumerate_connected(4))
    r1 = run_property_suite(corpus, ["theorem3", "theorem4"], corpus_name="x")
    r2 = run_property_suite(corpus, ["theorem3", "theorem4"], corpus_name="x")
    assert r1.results == r2.results


def test_oversized_graphs_are_skipped_not_fatal():
    big = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    report = run_property_suite([big, cycle(4)], ["theorem3"])
    (res,) = report.results
    assert res.checked == 1 and res.skipped == 1
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
    seq = run_property_suite(corpus, PROPERTIES, corpus_name="x")
    os.environ["CPK_THREADS"] = "2"
    try:
        par = run_property_suite(corpus, PROPERTIES, corpus_name="x")
    finally:
        del os.environ["CPK_THREADS"]
    assert seq.results == par.results
    assert any(r.skipped for r in par.results) and not par.passed


def test_rank_lemma_properties_name_the_first_failure():
    case = _GraphCase(path_graph(5))
    case.star = OrderingWitness((0, 1, 4, 3, 2), frozenset())
    assert _prop_order_lemma(case) == "order conditions fail on induced path (0, 1, 2)"
    case = _GraphCase(path_graph(4))
    case.star = OrderingWitness((0, 1, 3, 2), frozenset())
    assert _prop_path_neighborhood(case) == "rank bounds fail for path (0, 1) and vertex 3"


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


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.delenv("CPK_THREADS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("CPK_THREADS", "3")
    assert _worker_count() == 3
    for bad in ("abc", "0", "-2", "1.5", ""):
        monkeypatch.setenv("CPK_THREADS", bad)
        with pytest.raises(ValueError, match="CPK_THREADS"):
            _worker_count()
