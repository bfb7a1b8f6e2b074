import hashlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_has_kat,
    graph_strategy,
    reference_find_k_at,
    reference_min_k_at_free,
    seeded_connected_gnp,
)
import pathecc.asteroidal as asteroidal
from pathecc.asteroidal import (
    KatWitness,
    find_k_at,
    is_k_at,
    min_k_at_free,
    verify_kat,
)
from pathecc.families import (
    FIG_BICONVEX_AT,
    clique,
    cycle,
    emit_graph6,
    fig_biconvex,
    path_graph,
    subdivided_claw,
)
from pathecc.graphs import Graph, is_connected


def test_is_k_at_c6():
    w = is_k_at(cycle(6), (0, 2, 4), 1)
    assert w is not None
    assert verify_kat(cycle(6), w)
    assert (0, 1, 2) in w.paths  # the arc avoiding N[4] = {3,4,5}


def test_is_k_at_claw_leaves_blocked_by_center():
    assert is_k_at(subdivided_claw(1), (1, 2, 3), 1) is None


def test_is_k_at_two_subdivided_claw_levels():
    g = subdivided_claw(2)
    tips = (2, 4, 6)
    w = is_k_at(g, tips, 1)
    assert w is not None and verify_kat(g, w)
    assert is_k_at(g, tips, 2) is None


def test_is_k_at_validation():
    g = cycle(6)
    with pytest.raises(ValueError):
        is_k_at(g, (0, 2, 4), 0)
    with pytest.raises(ValueError):
        is_k_at(g, (0, 0, 4), 1)
    with pytest.raises(ValueError):
        is_k_at(g, (0, 2, 9), 1)


def test_find_k_at_complete_graphs():
    for n in (3, 5, 7):
        assert find_k_at(clique(n), 1) is None
        assert find_k_at(clique(n), 3) is None


def test_find_k_at_biconvex_figure():
    w = find_k_at(fig_biconvex(), 1)
    assert w is not None
    assert w.triple == FIG_BICONVEX_AT
    assert verify_kat(fig_biconvex(), w)


def test_find_k_at_c9_levels():
    assert find_k_at(cycle(9), 2) is not None
    assert find_k_at(cycle(9), 3) is None


def test_find_k_at_deterministic_first_triple():
    g = cycle(6)
    w = find_k_at(g, 1)
    assert w is not None
    # (0,1,3) etc. fail; (0,2,4) is the lexicographically first k-AT
    assert w.triple == (0, 2, 4)


def test_min_k_at_free_trivial_families():
    assert min_k_at_free(path_graph(6)) == 1
    assert min_k_at_free(clique(5)) == 1
    assert min_k_at_free(path_graph(1)) == 1


@pytest.mark.parametrize(
    "length,expected", [(6, 2), (7, 2), (8, 2), (9, 3), (10, 3), (11, 3)]
)
def test_min_k_at_free_cycles(length, expected):
    assert min_k_at_free(cycle(length)) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_min_k_at_free_subdivided_claws(k):
    assert min_k_at_free(subdivided_claw(k)) == k


def test_min_k_at_free_requires_connected():
    with pytest.raises(ValueError):
        min_k_at_free(Graph.from_edges(4, [(0, 1)]))


def test_isometric_subdivided_claw_keeps_level():
    # pendant on the center preserves all pairwise distances of the claw
    g = subdivided_claw(2)
    h = Graph.from_edges(g.n + 1, g.edges() + [(0, g.n)])
    assert min_k_at_free(h) >= 2


def test_isometric_cycle_keeps_level():
    # C6 with a pendant still contains C6 isometrically, so 1-ATs persist
    g = cycle(6)
    h = Graph.from_edges(7, g.edges() + [(0, 6)])
    assert min_k_at_free(h) >= 2


@given(graph_strategy(max_n=6, connected=True), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_witness_monotone_down_and_reverifies(g, k):
    w = find_k_at(g, k + 1)
    if w is not None:
        lower = is_k_at(g, w.triple, k)
        assert lower is not None
        assert verify_kat(g, lower)


@given(graph_strategy(max_n=6, connected=True), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_find_k_at_matches_bruteforce_existence(g, k):
    assert (find_k_at(g, k) is not None) == brute_has_kat(g, k)


def test_verify_kat_rejects_garbage():
    g = subdivided_claw(2)
    good = is_k_at(g, (2, 4, 6), 1)
    assert good is not None
    bad = KatWitness(good.triple, 2, good.paths)  # claims too strong a level
    assert not verify_kat(g, bad)
    bad2 = KatWitness(good.triple, 1, (good.paths[0], good.paths[1], (4, 0, 6)))
    assert not verify_kat(g, bad2)
    assert not verify_kat(g, KatWitness((2, 2, 6), 1, good.paths))  # repeated vertex
    assert not verify_kat(g, KatWitness(good.triple, 0, good.paths))  # no level 0


def test_verify_kat_rejects_swapped_ends_and_walks():
    g = subdivided_claw(2)
    good = is_k_at(g, (2, 4, 6), 1)
    assert verify_kat(g, good)
    swapped = KatWitness(good.triple, 1, (good.paths[0][::-1],) + good.paths[1:])
    assert not verify_kat(g, swapped)
    walk = (2, 1, 0, 1, 0, 3, 4)  # ends right and avoids N[6], but repeats 1 and 0
    assert not verify_kat(g, KatWitness(good.triple, 1, (walk,) + good.paths[1:]))


@given(graph_strategy(max_n=9), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_find_k_at_matches_reference_scan(g, k):
    # the same triple and the same three paths, not just the same existence
    assert find_k_at(g, k) == reference_find_k_at(g, k)


@given(graph_strategy(max_n=9, connected=True))
@settings(max_examples=100, deadline=None)
def test_min_k_at_free_matches_reference_levels(g):
    assert min_k_at_free(g) == reference_min_k_at_free(g)


@pytest.mark.parametrize("n", range(20, 31))
def test_component_labels_match_reference_on_sparse_gnp(n):
    g = seeded_connected_gnp(n, seed=n)
    for k in (1, 2, 3, 4):
        assert find_k_at(g, k) == reference_find_k_at(g, k)
    assert min_k_at_free(g) == reference_min_k_at_free(g)


@pytest.mark.parametrize("n", range(0, 6))
def test_find_k_at_rejects_level_zero_at_every_size(n):
    with pytest.raises(ValueError):
        find_k_at(path_graph(n) if n else Graph.from_edges(0), 0)


def test_find_k_at_memory_stays_per_component():
    # 600 vertices, 593 of them isolated: labelling every component of
    # G - N^k[z] for every z would store about n^2 wide masks
    claw = subdivided_claw(2)
    g = Graph.from_edges(600, claw.edges())
    tracemalloc.start()
    try:
        w = find_k_at(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and w.triple == (2, 4, 6)
    assert w == find_k_at(claw, 1)
    assert peak < 10 * 2**20


def test_find_k_at_skips_pairs_across_components():
    # b is scanned only inside a's component of G, so isolated vertices
    # cost neither a labelling nor a pair scan
    g = Graph.from_edges(3000, [])
    start = time.perf_counter()
    assert find_k_at(g, 1) is None
    assert time.perf_counter() - start < 1.0


def _count_labellings(monkeypatch) -> list[int]:
    calls = [0]
    inner = asteroidal._label_components

    def counted(g, allowed):
        calls[0] += 1
        return inner(g, allowed)

    monkeypatch.setattr(asteroidal, "_label_components", counted)
    return calls


def test_find_k_at_raises_when_is_k_at_rejects_the_labelled_triple(monkeypatch):
    monkeypatch.setattr(asteroidal, "is_k_at", lambda g, triple, k: None)
    with pytest.raises(RuntimeError, match=r"disagree with is_k_at on \(2, 4, 6\)"):
        find_k_at(subdivided_claw(2), 1)


def test_find_k_at_labels_isolated_vertices_never(monkeypatch):
    calls = _count_labellings(monkeypatch)
    assert find_k_at(Graph.from_edges(3000, []), 1) is None
    assert calls[0] == 1  # the labelling of G itself


def test_find_k_at_labels_only_vertices_a_test_reads(monkeypatch):
    g = Graph.from_edges(600, subdivided_claw(2).edges())
    calls = _count_labellings(monkeypatch)
    w = find_k_at(g, 1)
    assert w is not None and w.triple == (2, 4, 6)
    assert calls[0] <= 8


# sha256 over one line per graph: its graph6, find_k_at for k = 1..4 and,
# when connected, min_k_at_free; witness paths included byte for byte
KAT_ANSWERS_SHA256 = "450bc1660212ad08c1d2aa2ebd83acb6f4902e6a1e092a1a8eb247e7c6309053"


def _interleaved_union() -> Graph:
    """C7, the 2-subdivided claw, a G(20, 3/20) and two isolated vertices,
    renumbered v -> 5v mod 36 so the components interleave."""
    parts = [cycle(7), subdivided_claw(2), seeded_connected_gnp(20, 0)]
    edges, base = [], 0
    for part in parts:
        edges += [(u + base, v + base) for u, v in part.edges()]
        base += part.n
    n = base + 2
    return Graph.from_edges(n, [(5 * u % n, 5 * v % n) for u, v in edges])


def test_k_at_answers_are_pinned(connected_upto_6):
    graphs = list(connected_upto_6)
    graphs += [seeded_connected_gnp(n, s) for n in range(20, 31) for s in range(3)]
    graphs.append(_interleaved_union())
    lines = []
    for g in graphs:
        answers = [find_k_at(g, k) for k in range(1, 5)]
        level = min_k_at_free(g) if is_connected(g) else None
        lines.append(repr((emit_graph6(g), answers, level)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (177, KAT_ANSWERS_SHA256)
