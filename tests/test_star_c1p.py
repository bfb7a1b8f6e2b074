import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings

from conftest import graph_strategy
from pathecc.asteroidal import find_k_at
from pathecc.families import (
    FIG_C_DIAGONAL,
    cycle,
    clique,
    emit_graph6,
    enumerate_connected,
    fig_example_b,
    fig_example_c,
    ladder_k4,
    ladder_k4_diagonal,
    path_graph,
    subdivided_claw,
)
from pathecc.graphs import Graph, find_long_induced_cycle, induced_paths
from pathecc.pqtree import has_c1p
from pathecc.star_c1p import (
    OrderingWitness,
    check_order_lemma,
    find_star_c1p,
    neighborhood_bounds,
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
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    w = find_star_c1p(g)
    assert w is not None and verify_witness(g, w)


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


def test_star_c1p_answers_are_pinned():
    lines = []
    for g in (g for n in range(1, 8) for g in enumerate_connected(n)):
        w = find_star_c1p(g)
        answer = None if w is None else (w.mu, sorted(w.diagonal))
        lines.append(repr((emit_graph6(g), answer)))
    assert len(lines) == 996
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STAR_ANSWERS_SHA256


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


def test_neighborhood_bounds_examples():
    k2 = path_graph(2)
    b = neighborhood_bounds(k2, OrderingWitness((0, 1), frozenset()), 0)
    assert (b.min_rank, b.max_rank) == (1, 1)

    w = OrderingWitness(IDENT6, FIG_C_DIAGONAL)
    b5 = neighborhood_bounds(fig_example_c(), w, 4)  # v5 sees v1..v4
    assert (b5.min_rank, b5.max_rank) == (0, 3)

    star = subdivided_claw(1)
    mu = (3, 0, 1, 2)  # center ordered last
    bc = neighborhood_bounds(star, OrderingWitness(mu, frozenset()), 0)
    assert (bc.min_rank, bc.max_rank) == (0, 2)

    lonely = Graph.from_edges(2, [])
    with pytest.raises(ValueError):
        neighborhood_bounds(lonely, OrderingWitness((0, 1), frozenset()), 0)


def test_check_order_lemma_trivial_and_p3():
    g = fig_example_c()
    w = OrderingWitness(IDENT6, FIG_C_DIAGONAL)
    assert check_order_lemma(g, w, (0,))  # single vertex: empty conditions
    # induced u-m-v: the rank interval between the ends sits inside N[path]
    assert check_order_lemma(g, w, (0, 4, 2))


def test_check_order_lemma_rejects_non_induced():
    g = cycle(3)
    w = OrderingWitness((0, 1, 2), frozenset())
    with pytest.raises(ValueError):
        check_order_lemma(g, w, (0, 1, 2))


def test_check_order_lemma_all_induced_paths_of_fig_c():
    g = fig_example_c()
    w = find_star_c1p(g)
    assert w is not None
    for p in induced_paths(g):
        assert check_order_lemma(g, w, p)


def test_check_order_lemma_detects_violations():
    # ranks (0, 4, 2) along the alternating sequence are not monotonic
    g = path_graph(5)
    w = OrderingWitness((0, 1, 4, 3, 2), frozenset())
    assert not check_order_lemma(g, w, (0, 1, 2, 3, 4))


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
    for p in induced_paths(g):
        assert check_order_lemma(g, w, p)
