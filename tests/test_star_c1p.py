import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_neighborhood,
    graph_strategy,
    reference_order_lemma,
    reference_path_neighborhood,
)
import pathecc.star_c1p
from pathecc.asteroidal import find_k_at
from pathecc.families import (
    FIG_C_DIAGONAL,
    cycle,
    clique,
    emit_graph6,
    fig_example_b,
    fig_example_c,
    ladder_k4,
    ladder_k4_diagonal,
    path_graph,
    random_gnp,
    subdivided_claw,
)
from pathecc.graphs import Graph, find_long_induced_cycle, induced_paths
from pathecc.pqtree import has_c1p
from pathecc.star_c1p import (
    OrderingWitness,
    _rank_rows,
    check_order_lemma,
    check_path_neighborhood,
    find_star_c1p,
    partially_augmented_matrix,
    verify_witness,
)

IDENT6 = tuple(range(6))


def test_verify_witness_fig_c_identity():
    assert verify_witness(fig_example_c(), OrderingWitness(IDENT6, FIG_C_DIAGONAL))
    # without the augmented diagonal entry the same order fails
    assert not verify_witness(fig_example_c(), OrderingWitness(IDENT6, frozenset()))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_verify_witness_ladder_identity(k):
    g = ladder_k4(k)
    w = OrderingWitness(tuple(range(2 * k)), ladder_k4_diagonal(k))
    assert verify_witness(g, w)


def test_verify_witness_k2_and_validation():
    k2 = path_graph(2)
    assert verify_witness(k2, OrderingWitness((0, 1), frozenset()))
    with pytest.raises(ValueError):
        verify_witness(k2, OrderingWitness((0, 0), frozenset()))
    with pytest.raises(ValueError):
        verify_witness(k2, OrderingWitness((0, 1), frozenset({5})))


def test_find_star_c1p_c5_has_none():
    assert find_star_c1p(cycle(5)) is None


def test_find_star_c1p_fig_c():
    w = find_star_c1p(fig_example_c())
    assert w is not None
    assert verify_witness(fig_example_c(), w)


def test_find_star_c1p_trivial():
    assert find_star_c1p(Graph.from_edges(1)) == OrderingWitness((0,), frozenset())
    for n in (2, 4, 6):
        w = find_star_c1p(clique(n))
        assert w is not None and verify_witness(clique(n), w)


def test_find_star_c1p_disconnected_ok():
    # in the second graph, isolated vertices 0, 3 and 5 have empty open columns
    for g in (Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(6, [(1, 2), (2, 4), (1, 4)])):
        w = find_star_c1p(g)
        assert w is not None and verify_witness(g, w)


def test_find_star_c1p_raises_when_its_witness_fails_the_recheck(monkeypatch):
    monkeypatch.setattr(pathecc.star_c1p, "verify_witness", lambda g, w: False)
    with pytest.raises(RuntimeError, match="fails re-verification"):
        find_star_c1p(path_graph(4))


def test_find_star_c1p_size_guard():
    with pytest.raises(ValueError):
        find_star_c1p(path_graph(21))


def test_no_graph_outlives_the_search():
    """Reference counting alone frees the graph and its PQ-trees, hit or miss."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build, found in ((fig_example_c, True), (lambda: cycle(5), False)):
            g = build()
            ref = weakref.ref(g)
            assert (find_star_c1p(g) is not None) == found
            del g
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


# sha256 over the connected graphs with n <= 7 of every find_star_c1p answer
# (mu and the sorted diagonal, or None); computed with frozenset leaf sets and
# before vacuous columns were skipped, so neither changes a witness
STAR_ANSWERS_SHA256 = "cfafa1d09d6d2e38391edd437859026145cf3ccf26a940dd07e4b56b49915227"


def _answers_sha256(graphs) -> tuple[int, str]:
    """Graph count and sha256 of one (graph6, answer) repr per graph."""
    lines = []
    for g in graphs:
        w = find_star_c1p(g)
        answer = None if w is None else (w.mu, sorted(w.diagonal))
        lines.append(repr((emit_graph6(g), answer)))
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_star_c1p_answers_are_pinned(connected_upto_7):
    assert _answers_sha256(connected_upto_7) == (996, STAR_ANSWERS_SHA256)


# the same digest over seeded G(n, p) graphs past the exhaustive corpus,
# connected or not: 308 of the 720 have a witness, 54 with a nonempty diagonal
GNP_ANSWERS_SHA256 = "cbd0d06facc8543814b14e8a7d2a24b1ae045760e4f1368fd408d3be3d92f5af"


def test_star_c1p_answers_on_larger_random_graphs_are_pinned():
    graphs = (
        random_gnp(n, p, seed)
        for n in range(8, 17)
        for p in (0.1, 0.15, 0.2, 0.3)
        for seed in range(20)
    )
    assert _answers_sha256(graphs) == (720, GNP_ANSWERS_SHA256)


def test_find_star_c1p_deterministic():
    g = fig_example_b()
    assert find_star_c1p(g) == find_star_c1p(g)


@given(graph_strategy(max_n=6))
@settings(max_examples=120, deadline=None)
def test_plain_or_augmented_c1p_implies_witness(g):
    plain = has_c1p(partially_augmented_matrix(g)) is not None
    augmented = has_c1p(partially_augmented_matrix(g, range(g.n))) is not None
    if plain or augmented:
        assert find_star_c1p(g) is not None


def _bounds(g, w, v):
    """Lowest and highest rank in N(v), read off the rank rows."""
    row = _rank_rows(g, w)[w.mu[v]]
    return (row & -row).bit_length() - 1, row.bit_length() - 1


def test_neighborhood_bounds_examples():
    k2 = path_graph(2)
    assert _bounds(k2, OrderingWitness((0, 1), frozenset()), 0) == (1, 1)

    w = OrderingWitness(IDENT6, FIG_C_DIAGONAL)
    assert _bounds(fig_example_c(), w, 4) == (0, 3)  # v5 sees v1..v4

    star = subdivided_claw(1)
    mu = (3, 0, 1, 2)  # center ordered last
    assert _bounds(star, OrderingWitness(mu, frozenset()), 0) == (0, 2)

    lonely = Graph.from_edges(2, [])
    assert _rank_rows(lonely, OrderingWitness((0, 1), frozenset())) == [0, 0]
    with pytest.raises(ValueError):
        _rank_rows(lonely, OrderingWitness((1, 1), frozenset()))


def test_check_order_lemma_trivial_and_p3():
    assert check_order_lemma(Graph.from_edges(1), OrderingWitness((0,), frozenset())) is None
    # induced u-m-v: the rank interval between the ends sits inside N[path]
    assert check_order_lemma(path_graph(3), OrderingWitness((0, 2, 1), frozenset())) is None
    # ... and fails once a vertex outside N[path] is ranked inside it
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert check_order_lemma(g, OrderingWitness((0, 2, 3, 1), frozenset())) == (0, 1, 2)


def test_check_order_lemma_rejects_bad_witness():
    g = cycle(3)
    for w in (
        OrderingWitness((0, 1, 1), frozenset()),
        OrderingWitness((0, 1), frozenset()),
        OrderingWitness((0, 1, 2), frozenset({3})),
    ):
        with pytest.raises(ValueError):
            check_order_lemma(g, w)
        with pytest.raises(ValueError):
            check_path_neighborhood(g, w)


def test_check_order_lemma_all_induced_paths_of_fig_c():
    g = fig_example_c()
    w = find_star_c1p(g)
    assert w is not None
    assert check_order_lemma(g, w) is None
    assert check_path_neighborhood(g, w) is None


def test_check_order_lemma_detects_violations():
    # ranks (0, 4) of the ends of (0, 1, 2) span rank 2, held by vertex 4
    g = path_graph(5)
    w = OrderingWitness((0, 1, 4, 3, 2), frozenset())
    assert check_order_lemma(g, w) == (0, 1, 2)
    # on P6 only the sequence from the far end, ranks (5, 3, 4), is not monotonic
    w = OrderingWitness((0, 4, 1, 3, 2, 5), frozenset())
    assert check_order_lemma(path_graph(6), w) == (0, 1, 2, 3, 4, 5)
    # vertex 3 is ranked beyond both ends of (0, 1), but N(1) reaches past it
    w = OrderingWitness((0, 1, 3, 2), frozenset())
    assert check_path_neighborhood(path_graph(4), w) == ((0, 1), 3)


@given(graph_strategy(max_n=6))
@settings(max_examples=100, deadline=None)
def test_witnessed_graphs_small_corpus_structure(g):
    """Found witnesses exclude 2-ATs and long chordless cycles."""
    w = find_star_c1p(g)
    if w is None:
        return
    assert verify_witness(g, w)
    assert find_k_at(g, 2) is None
    assert find_long_induced_cycle(g, 5) is None
    assert check_order_lemma(g, w) is None
    assert check_path_neighborhood(g, w) is None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rank_lemma_checks_match_the_per_path_reference(data):
    """Each check reports the first path, or (path, vertex), the reference rejects."""
    g = data.draw(graph_strategy(max_n=8))
    orders = [OrderingWitness(tuple(data.draw(st.permutations(range(g.n)))), frozenset())]
    found = find_star_c1p(g)
    if found is not None:
        orders.append(found)
    paths = list(induced_paths(g))
    for w in orders:
        want_order = next((p for p in paths if not reference_order_lemma(g, w, p)), None)
        assert check_order_lemma(g, w) == want_order
        outside = [
            (p, x)
            for p in paths
            if len(p) % 2 == 0
            for x in range(g.n)
            if x not in closed_neighborhood(g, p)
        ]
        want_bounds = next(
            (px for px in outside if not reference_path_neighborhood(g, w, *px)), None
        )
        assert check_path_neighborhood(g, w) == want_bounds
