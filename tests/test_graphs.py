import ast
import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathecc
from conftest import (
    all_simple_paths,
    brute_induced_cycles,
    graph_strategy,
    reference_shortest_path,
)
from pathecc.eccentricity import pe_exact
from pathecc.families import cycle, fig_example_a, fig_example_c, ladder_k4, path_graph
from pathecc.graphs import (
    Graph,
    _mask_of,
    _shortest_path,
    _sweep,
    bfs_distances,
    find_long_induced_cycle,
    format_edge_list,
    induced_paths,
    is_connected,
    is_induced_path,
    is_path,
    neighborhood_k,
    parse_edge_list,
)


def test_from_edges_validates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    g = Graph.from_edges(3, [(0, 1), (1, 0)])
    assert g.num_edges() == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_bfs_distances_line():
    g = path_graph(3)
    assert bfs_distances(g, {0}) == [0, 1, 2]


def test_bfs_distances_all_sources_zero():
    g = cycle(6)
    assert bfs_distances(g, range(6)) == [0] * 6


def test_bfs_distances_fig_a():
    # hand BFS on the fixture: v3 reaches v6 through v5 and v1 (or v2)
    d = bfs_distances(fig_example_a(), {2})
    assert d[5] == 3


def test_bfs_distances_unreachable_marker():
    g = Graph.from_edges(3, [(0, 1)])
    d = bfs_distances(g, {0})
    assert d == [0, 1, None]


def test_bfs_distances_errors():
    g = path_graph(2)
    with pytest.raises(ValueError):
        bfs_distances(g, set())
    with pytest.raises(ValueError):
        bfs_distances(g, {5})


def test_neighborhood_k_basics():
    g = cycle(6)
    assert neighborhood_k(g, {0}, 0) == frozenset({0})
    assert neighborhood_k(g, {0}, 2) == frozenset({4, 5, 0, 1, 2})
    assert neighborhood_k(g, {0}, 6) == frozenset(range(6))
    with pytest.raises(ValueError):
        neighborhood_k(g, {0}, -1)
    with pytest.raises(ValueError):
        neighborhood_k(g, {9}, 1)


@given(graph_strategy(max_n=6), st.integers(0, 6))
def test_neighborhood_k_monotone(g, k):
    vs = {0} if g.n else set()
    assert neighborhood_k(g, vs, k) <= neighborhood_k(g, vs, k + 1)


@given(graph_strategy(max_n=6))
def test_neighborhood_1_is_closed_neighborhood(g):
    s = {0}
    expected = s | set(g.neighbors(0))
    assert neighborhood_k(g, s, 1) == frozenset(expected)


@given(graph_strategy(max_n=6))
@settings(max_examples=60)
def test_bfs_symmetric_for_singletons(g):
    for u in range(g.n):
        du = bfs_distances(g, {u})
        for v in range(g.n):
            assert du[v] == bfs_distances(g, {v})[u]


@given(graph_strategy(max_n=9), st.data())
@settings(max_examples=150)
def test_sweep_matches_reference_distances(g, data):
    nx = pytest.importorskip("networkx")
    full = (1 << g.n) - 1
    vertex = st.integers(0, g.n - 1)
    sources = data.draw(st.sets(vertex, min_size=1))
    seed = _mask_of(sources)
    dist = bfs_distances(g, sources)
    at = [[v for v in range(g.n) if dist[v] == d] for d in range(g.n)]
    top = max(d for d in dist if d is not None)
    for k in range(g.n + 1):
        reached, layer, depth = _sweep(g.adj_masks, seed, full, k)
        assert reached == _mask_of(v for v in range(g.n) if dist[v] is not None and dist[v] <= k)
        assert depth == min(k, top) and layer == _mask_of(at[depth])
    # unbounded: the depth is the largest distance, the last layer its argmax set
    reached, layer, depth = _sweep(g.adj_masks, seed, full, -1)
    assert depth == top and layer == _mask_of(at[top])
    # until: the first layer meeting the targets sits at their least distance
    targets = data.draw(st.sets(vertex, min_size=1))
    near = [dist[t] for t in targets if dist[t] is not None]
    _, layer, depth = _sweep(g.adj_masks, seed, full, -1, _mask_of(targets))
    assert depth == (min(near) if near else top) and layer == _mask_of(at[depth])
    # allowed: reach is the component of G[allowed]
    start = data.draw(vertex)
    allowed = data.draw(st.sets(vertex)) | {start}
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    comp = nx.node_connected_component(h.subgraph(allowed), start)
    assert _sweep(g.adj_masks, 1 << start, _mask_of(allowed), -1)[0] == _mask_of(comp)


def test_is_connected():
    assert is_connected(path_graph(1))
    assert not is_connected(Graph.from_edges(2, []))
    assert is_connected(ladder_k4(3))
    with pytest.raises(ValueError):
        is_connected(Graph.from_edges(0, []))


def test_is_path_and_induced():
    tri = cycle(3)
    assert is_path(tri, (0, 1, 2))
    assert not is_induced_path(tri, (0, 1, 2))  # chord 0-2
    c5 = cycle(5)
    assert is_induced_path(c5, (0, 1, 2, 3))
    assert is_induced_path(tri, (0, 1))
    assert not is_path(tri, ())
    assert not is_path(tri, (0, 0))
    assert not is_induced_path(c5, (0, 2))  # 0 and 2 are not adjacent
    assert not is_induced_path(c5, (0, 1, 0))
    with pytest.raises(ValueError):
        is_induced_path(tri, (0, 9))


def test_induced_paths_enumeration():
    c4 = cycle(4)
    got = set(induced_paths(c4))
    # 4 singletons, 4 edges, 4 induced 3-vertex paths; no induced P4 in C4
    assert all(is_induced_path(c4, p) for p in got)
    assert sum(1 for p in got if len(p) == 1) == 4
    assert sum(1 for p in got if len(p) == 2) == 4
    assert sum(1 for p in got if len(p) == 3) == 4
    assert sum(1 for p in got if len(p) >= 4) == 0
    # one orientation each
    for p in got:
        assert p[0] <= p[-1]
        if len(p) > 1:
            assert tuple(reversed(p)) not in got


@given(graph_strategy(max_n=7))
@settings(max_examples=120, deadline=None)
def test_induced_paths_match_brute_force(g):
    def chordless(p):
        return not any(
            g.has_edge(p[i], p[j])
            for i in range(len(p))
            for j in range(i + 2, len(p))
        )

    want = {p for p in all_simple_paths(g) if chordless(p)}
    got = list(induced_paths(g))
    assert len(got) == len(set(got))
    assert set(got) == want


def test_find_long_induced_cycle_direct():
    c5 = cycle(5)
    found = find_long_induced_cycle(c5, 5)
    assert found is not None and len(found) == 5
    tree = path_graph(6)
    assert find_long_induced_cycle(tree, 3) is None
    assert find_long_induced_cycle(fig_example_c(), 5) is None
    with pytest.raises(ValueError):
        find_long_induced_cycle(c5, 2)


@given(graph_strategy(max_n=7), st.integers(3, 7))
@settings(max_examples=120, deadline=None)
def test_find_long_induced_cycle_matches_brute_force(g, min_len):
    found = find_long_induced_cycle(g, min_len)
    cycles = brute_induced_cycles(g, min_len)
    if found is None:
        assert cycles == []
    else:
        assert len(found) >= min_len
        assert set(found) in [set(c) for c in cycles]
        # consecutive entries adjacent, closing edge included
        for u, v in zip(found, found[1:] + found[:1]):
            assert g.has_edge(u, v)
        assert found[0] == min(found) and found[1] < found[-1]


def test_edge_list_roundtrip():
    g = fig_example_a()
    text = format_edge_list(g)
    assert text.splitlines()[0] == "6 6"
    assert parse_edge_list(text) == g


@pytest.mark.parametrize(
    "text",
    ["", "2", "2 1", "2 1\n0 1\n0 1 extra", "2 x\n0 1", "1 1\n0 0"],
)
def test_edge_list_parse_errors(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_edge_list_rejects_a_three_token_edge_line():
    with pytest.raises(ValueError, match="bad edge on line 3"):
        parse_edge_list("2 2\n0 1\n0 1 extra")


def test_graph_is_collected_after_mask_searches():
    g = cycle(7)
    assert is_connected(g) and pe_exact(g).value == 0  # a Hamiltonian path
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_adjacency_masks_leave_equality_and_hash_alone():
    g, h = cycle(5), cycle(5)
    assert g.adj_masks == (0b10010, 0b00101, 0b01010, 0b10100, 0b01001)
    assert g == h and hash(g) == hash(h)


_edge_lists = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
    )
)


@given(_edge_lists)
def test_accessors_agree_with_the_edge_set(case):
    n, pairs = case
    pairs = [(u, v) for u, v in pairs if u != v]
    g = Graph.from_edges(n, pairs + [(v, u) for u, v in pairs])  # each edge twice
    want = {(min(u, v), max(u, v)) for u, v in pairs}
    assert g.edges() == sorted(want) and g.num_edges() == len(want)
    for u in range(n):
        nbrs = {v for v in range(n) if (min(u, v), max(u, v)) in want}
        assert g.neighbors(u) == frozenset(nbrs) and g.degree(u) == len(nbrs)
        assert all(g.has_edge(u, v) == (v in nbrs) for v in range(n))
        assert g.has_edge(u, -1) is False and g.has_edge(u, n) is False
        assert g.has_edge(-1, u) is False and g.has_edge(n, u) is False
    assert Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)]).edges() == [(0, 1)]
    c4 = cycle(4)
    assert not c4.has_edge(-1, 0) and not c4.has_edge(-2, 1)
    assert c4.has_edge(4, 0) is False and c4.has_edge(0, 4) is False


@given(graph_strategy(max_n=9), st.data())
@settings(max_examples=150)
def test_shortest_path_matches_set_based_reference(g, data):
    avoid = data.draw(st.integers(0, (1 << g.n) - 1))
    for src in range(g.n):
        dist = bfs_distances(g, {src})
        for dst in range(g.n):
            got = _shortest_path(g, src, dst, avoid)
            assert got == reference_shortest_path(g, src, dst, avoid)
            free = _shortest_path(g, src, dst)
            assert free == reference_shortest_path(g, src, dst)
            assert (free is None) == (dist[dst] is None)
            assert free is None or len(free) - 1 == dist[dst]


def test_src_has_no_assert():
    # python -O drops assert statements and reads __debug__ as False, so a
    # check written with either would vanish there; answer checks raise
    sources = sorted(Path(pathecc.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []
