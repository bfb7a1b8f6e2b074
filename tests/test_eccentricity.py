import gc
import hashlib
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_simple_paths,
    brute_pe,
    dp_has_path_with_ecc_at_most,
    dp_pe,
    graph_strategy,
    path_ecc_oracle,
    relabel,
    seeded_connected_gnp,
)
import pathecc.eccentricity as eccentricity
from pathecc.asteroidal import min_k_at_free
from pathecc.eccentricity import (
    PeResult,
    has_path_with_ecc_at_most,
    path_eccentricity,
    pe_exact,
)
from pathecc.families import (
    clique,
    cycle,
    emit_graph6,
    fig_biconvex,
    path_graph,
    subdivided_claw,
)
from pathecc.graphs import Graph, is_connected


def test_path_eccentricity_examples():
    c6 = cycle(6)
    assert path_eccentricity(c6, (0, 1, 2, 3, 4, 5)) == 0  # spans everything
    claw = subdivided_claw(1)
    assert path_eccentricity(claw, (1, 0, 2)) == 1
    two = subdivided_claw(2)
    assert path_eccentricity(two, (2, 1, 0, 3, 4)) == 2


def test_path_eccentricity_rejects_bad_input():
    c6 = cycle(6)
    with pytest.raises(ValueError):
        path_eccentricity(c6, (0, 2))
    with pytest.raises(ValueError):
        path_eccentricity(c6, ())
    with pytest.raises(ValueError):
        path_eccentricity(Graph.from_edges(3, [(0, 1)]), (0, 1))  # disconnected


@pytest.mark.parametrize("length", [3, 5, 6, 9, 11])
def test_pe_cycles_have_hamiltonian_paths(length):
    assert pe_exact(cycle(length)).value == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pe_subdivided_claw_is_k(k):
    res = pe_exact(subdivided_claw(k))
    assert res.value == k
    assert path_eccentricity(subdivided_claw(k), res.witness) == k


def test_pe_biconvex_fixture():
    g = fig_biconvex()
    res = pe_exact(g)
    assert res.value == 1
    # no Hamiltonian path: no simple path spans all 7 vertices
    assert all(len(p) < g.n for p in all_simple_paths(g))


def test_pe_guards():
    with pytest.raises(ValueError):
        pe_exact(Graph.from_edges(2, []))
    with pytest.raises(ValueError):
        pe_exact(path_graph(17))


def test_pe_search_returning_no_path_raises(monkeypatch):
    """Checked by a raise, not an assert, so python -O keeps it."""
    monkeypatch.setattr(eccentricity, "_first_best_path", lambda g, limit, stop: (g.n + 1, None))
    with pytest.raises(RuntimeError, match="returned none"):
        pe_exact(path_graph(3))


def test_pe_witness_is_first_found(connected_upto_5):
    """Pruning must not change which minimum witness is reported."""
    for g in connected_upto_5:
        value, witness = brute_pe(g)
        res = pe_exact(g)
        assert res == PeResult(value, witness)


def test_pe_matches_brute_on_6(connected_upto_6):
    for g in connected_upto_6:
        assert pe_exact(g).value == brute_pe(g)[0]


@given(graph_strategy(max_n=7, connected=True), st.randoms())
@settings(max_examples=80, deadline=None)
def test_pe_lower_bounds_random_paths(g, rng):
    res = pe_exact(g)
    paths = list(all_simple_paths(g))
    for p in rng.sample(paths, min(5, len(paths))):
        assert res.value <= path_ecc_oracle(g, p)


def test_pe_monotone_under_edge_addition():
    rng = random.Random(20240817)
    tried = 0
    while tried < 40:
        n = rng.randint(2, 8)
        g = Graph.from_edges(
            n,
            [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.45
            ],
        )
        if not is_connected(g):
            continue
        non_edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not g.has_edge(i, j)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        assert pe_exact(g.with_edge(u, v)).value <= pe_exact(g).value
        tried += 1


def test_theorem_bound_on_small_corpus(connected_upto_6):
    """pe never exceeds the k-AT-freeness level; equality only at that level
    for the 1-AT-free graphs."""
    for g in connected_upto_6:
        k = min_k_at_free(g)
        pe = pe_exact(g).value
        assert pe <= k
        if k == 1:
            assert pe <= 1


def test_has_path_with_ecc_at_most_agrees(connected_upto_5):
    for g in connected_upto_5:
        value = pe_exact(g).value
        for k in range(0, value + 2):
            found = has_path_with_ecc_at_most(g, k)
            if k >= value:
                assert found is not None
                assert path_ecc_oracle(g, found) <= k
                # the early exit keeps enumeration order: the first such path
                assert found == next(
                    p for p in all_simple_paths(g) if path_ecc_oracle(g, p) <= k
                )
            else:
                assert found is None


def test_has_path_examples():
    assert has_path_with_ecc_at_most(subdivided_claw(2), 1) is None
    assert has_path_with_ecc_at_most(cycle(5), 0) == (0, 1, 2, 3, 4)
    g = clique(6)
    assert has_path_with_ecc_at_most(g, 6) is not None
    with pytest.raises(ValueError):
        has_path_with_ecc_at_most(cycle(4), -1)


# sha256 over the connected graphs with n <= 7 of every pe_exact answer with
# its witness, then has_path_with_ecc_at_most(g, k) for k = 0..pe + 1; it was
# computed with the unmemoized search, so the state memo changes no answer
PE_ANSWERS_SHA256 = "5a2ee7297b98ccb64889b52f34c8226c6a628df164df0f7024c0abbd8c89c2a2"


def test_pe_answers_are_pinned(connected_upto_7):
    lines = []
    for g in connected_upto_7:
        res = pe_exact(g)
        hits = [has_path_with_ecc_at_most(g, k) for k in range(res.value + 2)]
        lines.append(repr((emit_graph6(g), res.value, res.witness, hits)))
    assert len(lines) == 996
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PE_ANSWERS_SHA256


@given(graph_strategy(max_n=7, connected=True))
@settings(max_examples=60, deadline=None)
def test_pe_matches_brute_value_and_first_witness(g):
    assert pe_exact(g) == PeResult(*brute_pe(g))


def dense_bipartite(a: int, b: int, keep: int, seed: int) -> Graph:
    """First connected bipartite graph on parts a and b keeping keep of a * b edges."""
    rng = random.Random(seed)
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    while True:
        g = Graph.from_edges(a + b, rng.sample(pairs, keep))
        if is_connected(g):
            return g


def _past_seven() -> list[Graph]:
    """40 seeded graphs, n = 8..12, whose unvisited vertices split apart."""
    graphs = []
    for n in range(8, 13):
        for s in range(3):
            graphs.append(seeded_connected_gnp(n, seed=10 * n + s, p=0.15))
            graphs.append(seeded_connected_gnp(n, seed=10 * n + s, p=0.3))
        a = n // 3
        graphs.append(dense_bipartite(a, n - a, a * (n - a) * 3 // 4, n))
        graphs.append(dense_bipartite(a, n - a, a * (n - a) * 5 // 6, n + 1))
    return graphs


# sha256 of the same answers as PE_ANSWERS_SHA256 on _past_seven(); computed
# before the pe search pruned per component, so that prune changes no answer
PE_PAST_SEVEN_SHA256 = "c52401459788503149f9809aa2767eb4d0c35d504f9be0e54e6d5329da38232f"


def test_pe_answers_past_n7_are_pinned():
    lines = []
    for g in _past_seven():
        res = pe_exact(g)
        hits = [has_path_with_ecc_at_most(g, k) for k in range(res.value + 2)]
        lines.append(repr((emit_graph6(g), res.value, res.witness, hits)))
    assert len(lines) == 40
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PE_PAST_SEVEN_SHA256


def _expanded_states(monkeypatch, g: Graph, k: int):
    """Answer of has_path_with_ecc_at_most(g, k) and the states it expanded.

    The search calls ``_bits`` once for each state whose branch survives
    the prune, to list the tail's unvisited neighbours.
    """
    calls = []
    real = eccentricity._bits
    monkeypatch.setattr(eccentricity, "_bits", lambda m: calls.append(m) or real(m))
    return has_path_with_ecc_at_most(g, k), len(calls)


def _three_triangles() -> Graph:
    """Three triangles sharing vertex 0: pe 1, and the independent-set bound
    never refutes a path through every vertex there."""
    return Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]
    )


def test_prune_per_component_cuts_expanded_states(monkeypatch):
    assert _expanded_states(monkeypatch, subdivided_claw(2), 1) == (None, 9)
    g = _three_triangles()
    assert pe_exact(g).value == 1
    assert _expanded_states(monkeypatch, g, 0) == (None, 12)


def test_independent_set_bound_cuts_expanded_states(monkeypatch):
    """On 4+8 vertices no path visits every vertex: every start leaves 11
    unvisited vertices, whose greedy independent set holds the 7 or 8 left
    of the larger part, and 2 * 7 > 11 + 1, so every branch ends before
    expanding (2309 states without the bound)."""
    g = dense_bipartite(4, 8, 27, 0)
    assert pe_exact(g).value == 1
    assert _expanded_states(monkeypatch, g, 0) == (None, 0)


def _bound_firing_graphs() -> list[Graph]:
    """Seeded, relabelled graphs with n <= 9 where the independent-set bound
    fires: bipartite graphs whose parts differ by at least 2, and trees."""
    rng = random.Random(20261019)
    graphs = []
    for a, b in [(1, 3), (1, 5), (2, 4), (2, 5), (2, 7), (3, 5), (3, 6)]:
        for _ in range(4):
            keep = rng.randint(a + b - 1, a * b)
            graphs.append(dense_bipartite(a, b, keep, rng.randrange(1 << 30)))
    for n in range(2, 10):
        for _ in range(4):
            graphs.append(Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)]))
    return [relabel(g, rng.sample(range(g.n), g.n)) for g in graphs]


def test_independent_set_bound_changes_no_answer():
    """Differential check against the unpruned oracles where the bound fires:
    the value, the first witness and every decision answer around it."""
    for g in _bound_firing_graphs():
        value, witness = brute_pe(g)
        assert pe_exact(g) == PeResult(value, witness)
        for k in range(value + 2):
            first = next(
                (p for p in all_simple_paths(g) if path_ecc_oracle(g, p) <= k), None
            )
            assert has_path_with_ecc_at_most(g, k) == first


def test_pe_matches_subset_dp_on_7(connected_upto_7):
    for g in connected_upto_7:
        assert pe_exact(g).value == dp_pe(g)


def _ten_to_fourteen() -> list[Graph]:
    """15 seeded graphs, n = 10..14: G(n, 3/n), a random tree and a
    bipartite graph with unequal parts, where the independent-set bound fires."""
    rng = random.Random(1014)
    graphs = []
    for n in range(10, 15):
        a = n // 3
        graphs.append(seeded_connected_gnp(n, seed=n))
        graphs.append(Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)]))
        graphs.append(dense_bipartite(a, n - a, a * (n - a) * 3 // 4, n))
    return graphs


def test_pe_and_its_miss_match_subset_dp_past_seven():
    """The subset DP confirms the hit at pe and, past brute_pe's reach, the
    search's miss at pe - 1."""
    values = []
    for g in _ten_to_fourteen():
        pe = pe_exact(g).value
        assert dp_has_path_with_ecc_at_most(g, pe)
        assert pe == 0 or not dp_has_path_with_ecc_at_most(g, pe - 1)
        values.append(pe)
    assert min(values) == 0 and max(values) >= 2


# n = 14..16: bipartite graphs keeping ~85% of the edges between parts too
# unequal for a Hamiltonian path, where pruning fails, then G(16, 3/16) and
# G(16, 0.3)
PAST_THE_OLD_CAP = {
    "bipartite-5+9": lambda: dense_bipartite(5, 9, 38, 14),
    "bipartite-5+10": lambda: dense_bipartite(5, 10, 42, 15),
    "bipartite-5+11": lambda: dense_bipartite(5, 11, 47, 16),
    "gnp-16-sparse": lambda: seeded_connected_gnp(16, seed=0),
    "gnp-16-0.3": lambda: seeded_connected_gnp(16, seed=16, p=0.3),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_OLD_CAP))
def test_pe_runs_past_the_old_cap(name):
    g = PAST_THE_OLD_CAP[name]()
    assert 12 < g.n <= 16
    start = time.perf_counter()
    res = pe_exact(g)
    hit = has_path_with_ecc_at_most(g, res.value)
    miss = has_path_with_ecc_at_most(g, res.value - 1) if res.value else None
    assert time.perf_counter() - start < 10.0
    assert path_eccentricity(g, res.witness) == res.value
    assert hit is not None and path_eccentricity(g, hit) <= res.value
    assert miss is None


def test_no_graph_outlives_the_search():
    """Reference counting alone frees the graph and the search state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = dense_bipartite(4, 8, 27, 0)
        ref = weakref.ref(g)
        pe = pe_exact(g).value
        assert has_path_with_ecc_at_most(g, pe) is not None
        assert has_path_with_ecc_at_most(g, pe - 1) is None
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
