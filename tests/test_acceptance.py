"""Acceptance gate: each test is one criterion and prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The exhaustive corpus is every connected graph up to isomorphism with
n <= 7; drop a graph6 file at tests/data/graph8c.g6 to extend the
structural criteria to n = 8.
"""

from __future__ import annotations

import random
import time
from itertools import product
from pathlib import Path

import pytest

from pathecc import eccentricity
from pathecc.asteroidal import find_k_at, is_k_at, min_k_at_free, verify_kat
from pathecc.central_path import find_k_dominating_path_or_witness
from pathecc.eccentricity import has_path_with_ecc_at_most, pe_exact, path_eccentricity
from pathecc.families import (
    FIG_A_ADJACENCY,
    FIG_B_AUGMENTED,
    FIG_BICONVEX_AT,
    FIG_C_DIAGONAL,
    cycle,
    emit_graph6,
    enumerate_connected,
    fig_biconvex,
    fig_example_c,
    parse_graph6,
    subdivided_claw,
)
from pathecc.graphs import find_long_induced_cycle
from pathecc.pqtree import BinaryMatrix, has_c1p, is_c1p_order
from pathecc.star_c1p import (
    OrderingWitness,
    check_order_lemma,
    check_path_neighborhood,
    find_star_c1p,
    verify_witness,
)
from pathecc.suite import hunt_conjecture

EXTERNAL_N8 = Path(__file__).parent / "data" / "graph8c.g6"


def report(num: int, name: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not violations, f"criterion {num} ({name}): {violations[:5]}"


@pytest.fixture(scope="module")
def corpus_structural(connected_upto_7):
    """n <= 7 corpus, extended to n = 8 when the external file is present."""
    graphs = list(connected_upto_7)
    if EXTERNAL_N8.exists():
        with EXTERNAL_N8.open(encoding="utf-8") as fh:
            graphs.extend(parse_graph6(line) for line in fh if line.strip())
    return graphs


@pytest.fixture(scope="module")
def star_map(corpus_structural):
    return [find_star_c1p(g) for g in corpus_structural]


def test_criterion_1_subdivided_claw_exactness():
    start = time.monotonic()
    violations = []
    for k in (1, 2, 3):
        g = subdivided_claw(k)
        pe = pe_exact(g).value
        level = min_k_at_free(g)
        if pe != k or level != k:
            violations.append((k, pe, level))
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        violations.append(f"too slow: {elapsed:.1f}s")
    report(1, "subdivided-claw exactness", violations)


def test_criterion_2_cycle_family():
    start = time.monotonic()
    violations = []
    for length in range(6, 12):
        g = cycle(length)
        level = min_k_at_free(g)
        pe = pe_exact(g).value
        if level != length // 3 or pe != 0:
            violations.append((length, level, pe))
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        violations.append(f"too slow: {elapsed:.1f}s")
    report(2, "cycle family levels", violations)


def test_criterion_3_theorem4_exhaustive(corpus_structural, star_map):
    start = time.monotonic()
    assert sum(1 for g in corpus_structural if g.n == 7) == 853
    violations = []
    for g, w in zip(corpus_structural, star_map):
        if w is None:
            continue
        kat = find_k_at(g, 2)
        if kat is not None:
            violations.append((emit_graph6(g), kat.triple))
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        violations.append(f"too slow: {elapsed:.1f}s")
    report(3, "ordering witness excludes 2-AT", violations)


def test_criterion_4_corollary_exhaustive(corpus_structural, star_map):
    violations = []
    for g, w in zip(corpus_structural, star_map):
        if w is None or g.n > eccentricity.MAX_N:
            continue
        pe = pe_exact(g).value
        if pe > 2:
            violations.append((emit_graph6(g), pe))
    report(4, "ordering witness bounds pe by 2", violations)


def test_criterion_5_conjecture_hunt(corpus_structural, star_map):
    result = hunt_conjecture(corpus_structural)
    violations = []
    if result.counterexample is not None:
        ce = result.counterexample
        # a genuine hit must replay before we would ever report it
        g = parse_graph6(ce.graph6)
        if not (verify_witness(g, ce.witness) and pe_exact(g).value == ce.pe_value >= 2):
            violations.append(("counterexample fails replay", ce.graph6))
        else:
            violations.append(("conjecture refuted", ce.graph6, ce.pe_value))
    if result.with_witness != sum(1 for w in star_map if w is not None):
        violations.append("hunter skipped part of the corpus")
    report(5, "pe<=1 conjecture hunt", violations)


def test_criterion_6_dichotomy_exhaustive(connected_upto_7):
    start = time.monotonic()
    violations = []
    for g in connected_upto_7:
        level = min_k_at_free(g)
        for k in (1, 2, 3):
            d = find_k_dominating_path_or_witness(g, k)
            if (d.path is None) == (d.witness is None):
                violations.append((emit_graph6(g), k, "not exactly one side"))
                continue
            if d.path is not None:
                if k < level:
                    violations.append((emit_graph6(g), k, "path despite k-AT"))
                elif path_eccentricity(g, d.path) > k:
                    violations.append((emit_graph6(g), k, "path side too eccentric"))
                elif has_path_with_ecc_at_most(g, k) is None:
                    violations.append((emit_graph6(g), k, "decision oracle disagrees"))
            else:
                if k >= level:
                    violations.append((emit_graph6(g), k, "witness despite freeness"))
                elif not (d.witness.k == k and verify_kat(g, d.witness)):
                    violations.append((emit_graph6(g), k, "witness fails verification"))
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        violations.append(f"too slow: {elapsed:.1f}s")
    report(6, "constructive dichotomy matches ground truth", violations)


def test_criterion_7_c1p_oracle_equivalence():
    start = time.monotonic()

    def exhaustive(m: BinaryMatrix) -> bool:
        """Some row order makes every column consecutive: place rows one at a
        time; a column whose ones are started but not finished takes the next
        row.  That rule reads only the placed set, so a set that cannot be
        finished is recorded once and never extended again."""
        cols = [sum(m.bits[r][j] << r for r in range(m.rows)) for j in range(m.cols)]
        full = (1 << m.rows) - 1
        dead = set()

        def extend(placed: int) -> bool:
            if placed == full:
                return True
            if placed in dead:
                return False
            free = full & ~placed
            for c in cols:
                if c & placed and c & ~placed:
                    free &= c
            while free:
                low = free & -free
                free ^= low
                if extend(placed | low):
                    return True
            dead.add(placed)
            return False

        return extend(0)

    violations = []

    def check(m: BinaryMatrix) -> None:
        mine = has_c1p(m)
        if (mine is not None) != exhaustive(m):
            violations.append(("disagreement", m.bits))
        elif mine is not None and not is_c1p_order(m, mine):
            violations.append(("unsound witness", m.bits))

    for bits in product((0, 1), repeat=16):
        check(BinaryMatrix(4, 4, (bits[0:4], bits[4:8], bits[8:12], bits[12:16])))
    rng = random.Random(20240817)
    for _ in range(10000):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        check(
            BinaryMatrix(
                r, c, tuple(tuple(rng.randint(0, 1) for _ in range(c)) for _ in range(r))
            )
        )
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        violations.append(f"too slow: {elapsed:.1f}s")
    report(7, "C1P matches exhaustive row-order search", violations)


def test_criterion_8_figure_fixtures():
    violations = []
    if not (has_c1p(FIG_A_ADJACENCY) and is_c1p_order(FIG_A_ADJACENCY, range(6))):
        violations.append("plain adjacency fixture")
    if not (has_c1p(FIG_B_AUGMENTED) and is_c1p_order(FIG_B_AUGMENTED, range(6))):
        violations.append("augmented fixture")
    if not verify_witness(
        fig_example_c(), OrderingWitness(tuple(range(6)), FIG_C_DIAGONAL)
    ):
        violations.append("partially augmented fixture witness")
    if find_star_c1p(cycle(5)) is not None:
        violations.append("C5 unexpectedly has a witness")
    biconvex = fig_biconvex()
    if is_k_at(biconvex, FIG_BICONVEX_AT, 1) is None:
        violations.append("biconvex fixture lost its triple")
    if pe_exact(biconvex).value != 1:
        violations.append("biconvex fixture pe")
    report(8, "figure fixtures reproduce", violations)


def test_criterion_9_lemma_suites(connected_upto_7, star_map):
    violations = []
    for g, w in zip(connected_upto_7, star_map[: len(connected_upto_7)]):
        if w is None:
            continue
        if find_long_induced_cycle(g, 5) is not None:
            violations.append((emit_graph6(g), "long chordless cycle"))
            continue
        p = check_order_lemma(g, w)
        if p is not None:
            violations.append((emit_graph6(g), "order", p))
        bad = check_path_neighborhood(g, w)
        if bad is not None:
            violations.append((emit_graph6(g), "bounds", *bad))
    report(9, "induced-path rank lemmas", violations)


def test_criterion_10_graph6_roundtrip():
    nx = pytest.importorskip("networkx")
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += list(enumerate_connected(6))[: 100 - len(graphs)]
    assert len(graphs) == 100
    violations = []
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        line = nx.to_graph6_bytes(h, header=False).decode().strip()
        if emit_graph6(parse_graph6(line)) != line:
            violations.append(line)
    report(10, "graph6 parse-emit identity on 100 lines", violations)
