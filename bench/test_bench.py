"""The benchmark's own checks: every output check rejects a corrupted output,
tracing leaves outputs and module bindings as it found them, and the span
arithmetic matches hand-computed values."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from pathecc import families
from pathecc.graphs import Graph
from pathecc.pqtree import BinaryMatrix, is_c1p_order

BENCH = Path(__file__).resolve().parent


def _suite_stdout(**change) -> str:
    doc = checks.expected_suite(workloads.SUITE_PROPS)
    doc.update(corpus="bench/data/connected7.g6", wall_time_s=1.234)
    for key, value in change.items():
        doc["results"][0][key] = value
    return json.dumps(doc, sort_keys=True) + "\n"


def test_suite_check_accepts_the_frozen_report_and_rejects_a_changed_count():
    assert checks.check_suite(_suite_stdout(), 0, workloads.SUITE_PROPS) == []
    assert checks.check_suite(_suite_stdout(checked=995), 0, workloads.SUITE_PROPS)
    assert checks.check_suite(_suite_stdout(skipped=1), 0, workloads.SUITE_PROPS)
    assert checks.check_suite(_suite_stdout(), 1, workloads.SUITE_PROPS)


def test_hunt_check_rejects_off_by_one_and_silent_exit():
    good = json.dumps(checks.EXPECTED_HUNT, sort_keys=True)
    assert checks.check_hunt(good, 0) == []
    assert checks.check_hunt(good.replace('"with_witness": 411', '"with_witness": 412'), 0)
    # `python -m pathecc.cli` has no __main__ guard: it exits 0 and prints nothing
    assert checks.check_hunt("", 0)


def test_cli_outputs_fail_the_invocation_in_verify():
    inv = run.Invocation(0, record={"rc": 0}, output="")
    assert run.verify("hunt-exhaustive7", 0, inv) == (1, [
        "expected one JSON line on stdout, got 0"
    ])
    inv.output = _suite_stdout(checked=995)
    attempted, failed = run.verify("suite-corpus7", 0, inv)
    assert attempted == 1 and len(failed) == 1


def test_corpus_check_has_the_connected_counts_and_digest():
    data = workloads.CORPUS.read_bytes()
    assert checks.check_corpus(data) == []
    assert checks.check_corpus(data.replace(b"F", b"G", 1))
    assert checks.check_corpus(data + b"@\n")


def test_corpus_matches_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    atlas = [g for g in graph_atlas_g() if len(g) and nx.is_connected(g)]
    text = b"".join(nx.to_graph6_bytes(g, header=False) for g in atlas)
    assert text == workloads.CORPUS.read_bytes()


def _pe_output(g: Graph) -> dict:
    return workloads.run_pe([g], time.perf_counter, [])[0]


def test_pe_check_rejects_a_witness_missing_a_vertex():
    g = families.subdivided_claw(2)
    out = _pe_output(g)
    assert checks.check_pe(g, out) == []
    assert checks.check_pe(g, {**out, "witness": out["witness"][:-1]})
    assert checks.check_pe(g, {**out, "pe": out["pe"] + 1})
    assert checks.check_pe(g, {**out, "miss": out["witness"]})
    assert checks.check_pe(g, {**out, "hit": None})


def _kat_output(g: Graph) -> dict:
    return workloads.run_kat([g], [], time.perf_counter, [])[0]


def test_kat_check_rejects_wrong_level_and_broken_witness():
    g = families.cycle(9)  # min k-AT-free level 3: 1- and 2-ATs, no 3-AT
    out = _kat_output(g)
    assert out["min_k"] == 3
    assert checks.check_kat_graph(g, out) == []
    assert checks.check_kat_graph(g, {**out, "min_k": 2})
    assert checks.check_kat_graph(g, {**out, "min_k": 4})
    sides = [dict(s) for s in out["dichotomy"]]
    w = dict(sides[0]["witness"])
    w["paths"] = [w["paths"][0][:-1]] + w["paths"][1:]
    sides[0]["witness"] = w
    assert checks.check_kat_graph(g, {**out, "dichotomy": sides})


def test_kat_check_rejects_a_bad_ordering_witness():
    g = families.path_graph(5)
    out = _kat_output(g)
    assert isinstance(out["star"], dict)
    assert checks.check_kat_graph(g, out) == []
    star = {"order": [0, 2, 1, 3, 4], "diagonal": []}
    assert checks.check_kat_graph(g, {**out, "star": star})
    assert checks.check_kat_graph(g, {**out, "star": "skipped"})


def test_matrix_check_rejects_a_non_witnessing_permutation():
    rows = workloads.interval_rows(random.Random(3), 12, 5)
    m = BinaryMatrix(12, 12, tuple(tuple(r) for r in rows))
    broken = workloads.break_c1p(random.Random(4), rows)
    mb = BinaryMatrix(12, 12, tuple(tuple(r) for r in broken))
    out = workloads.run_kat([], [m, mb], time.perf_counter, [])
    assert checks.check_matrix(m, out[0], True) == []
    assert checks.check_matrix(mb, out[1], False) == []
    perm = list(out[0]["permutation"])
    bad = next(
        p for i in range(len(perm)) for j in range(i)
        if not is_c1p_order(m, p := perm[:j] + [perm[i]] + perm[j:i] + perm[i + 1:])
    )
    assert checks.check_matrix(m, {"permutation": bad}, True)
    assert checks.check_matrix(mb, {"permutation": perm}, False)
    assert checks.check_matrix(m, {"permutation": None}, True)


def test_tracer_catches_internal_calls_and_uninstalls_cleanly():
    import pathecc.pqtree as pq
    import pathecc.star_c1p as sc

    g = families.ladder_k4(3)
    original = pq.pq_reduce
    plain = sc.find_star_c1p(g)
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert sc.pq_reduce is pq.pq_reduce is not original
        traced = sc.find_star_c1p(g)
        steps_graph = families.cycle(7)
        import pathecc.central_path as cp

        cp.find_k_dominating_path_or_witness(steps_graph, 1)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sc.pq_reduce is pq.pq_reduce is original
    assert spans.leftover_wrappers() == 0
    names = [tracer.names[i] for i in tracer.arrays["name"]]
    assert names[0] == "star_c1p.find_star_c1p"
    assert names.count("pqtree.pq_reduce") >= g.n - 1
    assert tracer.steps["seed"] == 1


def _span_file(rows, names) -> spans.SpanFile:
    """rows: (name index, parent, start, end, flags)."""
    arrays = {key: array(code) for key, code in spans._ARRAY_TYPES}
    for row in rows:
        for (key, _), value in zip(spans._ARRAY_TYPES, row):
            arrays[key].append(value)
    head = {"names": names, "count": len(rows), "steps": {}, "distinct_canonical_keys": 0}
    return spans.SpanFile(head, arrays)


def test_layer_metrics_self_and_busy_time():
    o, r = spans.OUTERMOST, spans.RETURNED
    names = ["star_c1p.find_star_c1p", "pqtree.pq_reduce", "asteroidal.find_k_at",
             "central_path.find_k_dominating_path_or_witness"]
    rows = [
        (0, -1, 0.0, 10.0, o | r),  # search, 10 s
        (1, 0, 1.0, 3.0, o | r),  # two reductions inside it, one failing
        (1, 0, 4.0, 5.0, o),
        (3, -1, 20.0, 30.0, o | r),  # dichotomy with a lurking find_k_at
        (2, 3, 22.0, 28.0, o),
    ]
    m = spans.layer_metrics(_span_file(rows, names), measured_s=40.0)
    assert m["star_c1p.find_star_c1p.busy_s"] == 10.0
    assert m["pqtree.pq_reduce.self_s"] == 3.0
    assert m["pqtree.pq_reduce.fail_ratio"] == 0.5
    assert m["star_c1p.reductions_per_search"] == 2.0
    assert m["star_c1p.find_star_c1p.hit_ratio"] == 1.0
    assert m["star_c1p.self_share"] == pytest.approx(7.0 / 40)
    assert m["central_path.find_k_dominating_path_or_witness.self_s"] == 4.0
    assert m["central_path.find_k_at_share"] == pytest.approx(0.6)
    assert m["asteroidal.find_k_at.self_s"] == 6.0
    assert m["central_path.busy_share"] == pytest.approx(10.0 / 40)
    assert m["families.canonical_key.calls"] == 0


def test_nested_spans_of_one_name_count_busy_time_once():
    names = ["graphs.induced_paths"]
    rows = [(0, -1, 0.0, 4.0, spans.OUTERMOST), (0, 0, 1.0, 2.0, 0)]
    m = spans.layer_metrics(_span_file(rows, names), measured_s=4.0)
    assert m["graphs.induced_paths.busy_s"] == 4.0
    assert m["graphs.busy_share"] == 1.0


def test_percentile_is_nearest_rank_with_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == (90, 10)
    assert run.percentile(values, 100) == (100, 0)
    assert run.percentile([5.0], 50) == (5.0, 0)


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pe-hard12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
