import gc
import hashlib
import random
import time
import weakref

import pytest
from hypothesis import given, settings

from conftest import (
    graph_strategy,
    reference_all_graphs_upto_iso,
    reference_canonical_key,
    reference_extend,
    relabel,
)
import pathecc.families as families
from pathecc.families import (
    FIG_A_ADJACENCY,
    FIG_B_AUGMENTED,
    FIG_BICONVEX_AT,
    FIG_C_DIAGONAL,
    FIG_C_PARTIAL,
    Graph6Error,
    _all_graphs_upto_iso,
    _certificate,
    _extend,
    canonical_key,
    clique,
    cycle,
    emit_graph6,
    enumerate_connected,
    fig_biconvex,
    fig_example_a,
    fig_example_b,
    fig_example_c,
    generate,
    ladder_k4,
    ladder_k4_diagonal,
    parse_graph6,
    path_graph,
    random_gnp,
    subdivided_claw,
)
from pathecc.graphs import Graph, is_connected
from pathecc.star_c1p import partially_augmented_matrix

try:
    import networkx as nx
except ImportError:  # only the tests that compare against networkx need it
    nx = None

needs_networkx = pytest.mark.skipif(nx is None, reason="networkx is not installed")


def test_subdivided_claw_shape():
    g = subdivided_claw(1)
    assert g.n == 4 and g.num_edges() == 3
    assert sorted(g.degree(v) for v in range(4)) == [1, 1, 1, 3]
    g3 = subdivided_claw(3)
    assert g3.n == 10 and g3.num_edges() == 9 and is_connected(g3)
    with pytest.raises(ValueError):
        subdivided_claw(0)


def test_basic_families():
    assert cycle(5).num_edges() == 5
    assert path_graph(4).num_edges() == 3
    assert clique(5).num_edges() == 10
    with pytest.raises(ValueError):
        cycle(2)


def test_ladder_k4():
    for k in (2, 3, 5):
        g = ladder_k4(k)
        assert g.n == 2 * k and g.num_edges() == 3 * k
        assert is_connected(g)
        # the last rung is a K4 on v_{k-1}, v_k, v_{k+1}, v_{k+2}
        block = [k - 2, k - 1, k, k + 1]
        for i in block:
            for j in block:
                if i != j:
                    assert g.has_edge(i, j)
    with pytest.raises(ValueError):
        ladder_k4(1)


def test_fixture_edge_lists_match_drawings():
    assert set(fig_example_a().edges()) == {(0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (3, 4)}
    assert set(fig_example_c().edges()) == set(fig_example_a().edges()) | {(2, 3)}
    assert set(fig_biconvex().edges()) == {
        (0, 5), (2, 5), (2, 6), (1, 6), (1, 4), (1, 5), (3, 6),
    }
    assert fig_example_b().num_edges() == 8


def test_fixture_matrices_consistent_with_graphs():
    assert partially_augmented_matrix(fig_example_a()) == FIG_A_ADJACENCY
    assert partially_augmented_matrix(fig_example_b(), range(6)) == FIG_B_AUGMENTED
    assert partially_augmented_matrix(fig_example_c(), FIG_C_DIAGONAL) == FIG_C_PARTIAL
    assert FIG_BICONVEX_AT == (0, 3, 4)
    assert ladder_k4_diagonal(4) == frozenset({3, 4})


def test_generate_dispatch():
    assert generate("cycle", (5,)).n == 5
    assert generate("fig_example_c").n == 6
    assert generate("random_gnp", (6, 0.5, 3)).n == 6
    with pytest.raises(ValueError):
        generate("nope")
    with pytest.raises(ValueError):
        generate("exhaustive", (4,))


@pytest.mark.parametrize(
    "spec,message",
    [
        (("cycle",), "takes 1 parameter"),
        (("cycle", (5, 6)), "takes 1 parameter"),
        (("fig_example_a", (1,)), "takes 0 parameter"),
        (("random_gnp", (5,)), "takes 2 or 3 parameters"),
        (("random_gnp", (5, 0.5, 1, 2)), "takes 2 or 3 parameters"),
        (("cycle", (5.7,)), "must be an integer"),
        (("random_gnp", (5.5, 0.5)), "must be an integer"),
        (("random_gnp", (5, 0.5, 0.25)), "must be an integer"),
    ],
)
def test_generate_checks_arity_and_integral_counts(spec, message):
    with pytest.raises(ValueError, match=message):
        generate(*spec)


def test_generate_accepts_integral_floats():
    assert generate("cycle", (5.0,)) == cycle(5)
    assert generate("random_gnp", (6.0, 0.5)) == random_gnp(6, 0.5)


def test_random_gnp_is_seeded():
    assert random_gnp(8, 0.4, 7) == random_gnp(8, 0.4, 7)
    assert random_gnp(8, 0.0).num_edges() == 0
    assert random_gnp(8, 1.0).num_edges() == 28


def reference_corpus():
    """100 deterministic small graphs, encoded by networkx (the reference)."""
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += list(enumerate_connected(6))[: 100 - len(graphs)]
    assert len(graphs) == 100
    lines = []
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        lines.append(nx.to_graph6_bytes(h, header=False).decode().strip())
    return graphs, lines


@needs_networkx
def test_graph6_roundtrip_against_reference():
    graphs, lines = reference_corpus()
    for g, line in zip(graphs, lines):
        # parse the reference encoding, re-emit byte-for-byte
        parsed = parse_graph6(line)
        assert parsed == g
        assert emit_graph6(parsed) == line
        # and the reference decoder accepts our encoding unchanged
        back = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()} or sorted(
            map(frozenset, back.edges())
        ) == sorted(map(frozenset, g.edges()))


def test_graph6_singleton_and_k4():
    assert emit_graph6(Graph.from_edges(1)) == "@"
    # complete graph payload: all six upper-triangle bits set
    k4 = emit_graph6(clique(4))
    assert k4 == "C~"
    assert parse_graph6("C~") == clique(4)


def test_graph6_header_and_long_form():
    g = cycle(5)
    assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g
    big = path_graph(70)
    assert parse_graph6(emit_graph6(big)) == big
    assert emit_graph6(big)[0] == "~"


@needs_networkx
def test_graph6_dense_decode():
    # one step per pair, not a column search per set bit
    k400 = clique(400)
    line = emit_graph6(k400)
    start = time.perf_counter()
    assert parse_graph6(line) == k400
    assert time.perf_counter() - start < 1.0
    assert emit_graph6(parse_graph6(line)) == line
    for seed in range(3):
        h = nx.Graph()
        h.add_nodes_from(range(80))
        h.add_edges_from(random_gnp(80, 0.9, seed).edges())
        ref = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ref[0] == "~"  # extended vertex-count form
        parsed = parse_graph6(ref)
        assert parsed.n == 80
        assert {frozenset(e) for e in parsed.edges()} == {frozenset(e) for e in h.edges()}


@pytest.mark.parametrize(
    "line",
    ["", " ", "\x1f", "D", "D???", "C~~", "~~?", "~?"],
)
def test_graph6_malformed(line):
    with pytest.raises(Graph6Error) as err:
        parse_graph6(line)
    assert "byte" in str(err.value)


def test_canonical_key_is_isomorphism_invariant():
    g = fig_biconvex()
    h = relabel(g, [3, 0, 6, 2, 5, 1, 4])
    assert canonical_key(g) == canonical_key(h)
    assert canonical_key(g) != canonical_key(cycle(7))


def test_enumerate_connected_counts():
    for n, want in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)]:
        assert sum(1 for _ in enumerate_connected(n)) == want
    with pytest.raises(ValueError):
        list(enumerate_connected(8))
    with pytest.raises(ValueError):
        list(enumerate_connected(0))


def test_enumerate_connected_yields_nonisomorphic_connected(connected_upto_5):
    keys = set()
    for g in connected_upto_5:
        assert is_connected(g)
        keys.add(canonical_key(g))
    assert len(keys) == len(connected_upto_5)


# sha256 of the n <= 7 corpus as one graph6 line per graph, newline-joined
CORPUS7_SHA256 = "1084b53d68534a267e6605b5c1e64fd99d891599eb8f66804d10bd951ff56917"


def test_enumeration_corpus_is_byte_stable(connected_upto_7):
    lines = "\n".join(emit_graph6(g) for g in connected_upto_7)
    assert hashlib.sha256(lines.encode()).hexdigest() == CORPUS7_SHA256


def test_enumerated_graphs_are_collected_after_use():
    graphs = list(enumerate_connected(5))
    ref = weakref.ref(graphs[0])
    del graphs
    gc.collect()
    assert ref() is None


def _extensions(n):
    """Every graph the enumeration builds on n vertices, in build order."""
    for parent in _all_graphs_upto_iso(n - 1):
        edges = parent.edges()
        for nbhd in range(1 << (n - 1)):
            yield Graph.from_edges(
                n, edges + [(v, n - 1) for v in range(n - 1) if nbhd >> v & 1]
            )


def test_canonical_key_matches_reference_on_every_extension():
    for n in range(2, 7):
        for g in _extensions(n):
            assert canonical_key(g) == reference_canonical_key(g)


@given(graph_strategy(min_n=0, max_n=8))
@settings(max_examples=80, deadline=None)
def test_canonical_key_matches_reference(g):
    assert canonical_key(g) == reference_canonical_key(g)


def _g6(graphs):
    return [emit_graph6(g) for g in graphs]


def test_all_graphs_upto_iso_matches_reference_enumerator():
    for n in range(1, 7):
        assert _g6(_all_graphs_upto_iso(n)) == _g6(reference_all_graphs_upto_iso(n))


def test_enumerate_connected_matches_reference_enumerator():
    for n in range(1, 8):
        want = _g6(g for g in reference_all_graphs_upto_iso(n) if is_connected(g))
        assert _g6(enumerate_connected(n)) == want


def _child(parent, nbhd):
    m = parent.n + 1
    return Graph.from_edges(
        m, parent.edges() + [(v, m - 1) for v in range(m - 1) if nbhd >> v & 1]
    )


def _twin_packed_image(g, nbhd):
    """Swap a member x of nbhd for a smaller twin y outside it while one exists."""
    while True:
        swap = next(
            (
                (1 << x) | (1 << y)
                for x in range(g.n)
                if nbhd >> x & 1
                for y in range(x)
                if not nbhd >> y & 1 and g.neighbors(x) - {y} == g.neighbors(y) - {x}
            ),
            0,
        )
        if not swap:
            return nbhd
        nbhd ^= swap


def _seeded_levels(seed, count):
    """Short lists of seeded random graphs on 1..7 vertices, sparse to dense."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        p = rng.choice((0.15, 0.5, 0.85))
        size = rng.randint(1, 3)
        yield [random_gnp(n, p, seed=rng.randrange(1 << 30)) for _ in range(size)]


def test_twin_rule_skips_only_isomorphic_neighborhoods(monkeypatch):
    tried = []

    def recording(masks, m):
        tried.append(masks[-1])
        return _certificate(masks, m)

    monkeypatch.setattr(families, "_certificate", recording)
    skipped = 0
    for g in (g for level in _seeded_levels(3, 30) for g in level):
        packed = []
        for nbhd in range(1 << g.n):
            image = _twin_packed_image(g, nbhd)
            if image == nbhd:
                packed.append(nbhd)
                continue
            skipped += 1
            assert image < nbhd
            assert _cert(_child(g, nbhd)) == _cert(_child(g, image))
        tried.clear()
        _extend([g], g.n + 1, connected=False)
        assert tried == packed
    assert skipped > 1000


def test_extend_matches_reference_step_and_connected_filter():
    for level in _seeded_levels(5, 40):
        m = level[0].n + 1
        full = _extend(level, m, connected=False)
        assert _g6(full) == _g6(reference_extend(level, m))
        want = _g6(g for g in full if is_connected(g))
        assert _g6(_extend(level, m, connected=True)) == want


def _cert(g):
    return _certificate(g.adj_masks, g.n)


def _nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def test_certificate_of_tiny_graphs():
    assert _certificate((), 0) == () == canonical_key(Graph.from_edges(0))
    assert _certificate((0,), 1) == (0,) == canonical_key(Graph.from_edges(1))


@needs_networkx
def test_certificate_is_invariant_under_seeded_relabellings():
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(1, 9)
        g = random_gnp(n, rng.random(), seed=trial)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert nx.is_isomorphic(_nx(g), _nx(h))
        assert _cert(g) == _cert(h)


@needs_networkx
def test_certificate_separates_like_networkx_on_same_edge_counts():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(600):
        n = rng.randint(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randint(0, len(pairs))
        g, h = (Graph.from_edges(n, rng.sample(pairs, m)) for _ in range(2))
        same = nx.is_isomorphic(_nx(g), _nx(h))
        assert (_cert(g) == _cert(h)) == same
        outcomes.add(same)
    assert outcomes == {True, False}


def _rook_3x3():
    """K3 box K3: cell (r, c) is vertex 3r + c; same row or column is adjacent."""
    cells = [(r, c) for r in range(3) for c in range(3)]
    return Graph.from_edges(
        9,
        [(3 * a + b, 3 * c + d) for i, (a, b) in enumerate(cells)
         for (c, d) in cells[i + 1 :] if a == c or b == d],
    )


def _circulant9(*steps):
    return Graph.from_edges(9, [(i, (i + s) % 9) for i in range(9) for s in steps])


@needs_networkx
def test_certificate_on_symmetric_graphs_of_order_9():
    rng = random.Random(13)
    named = [
        cycle(9),
        clique(9),
        Graph.from_edges(9),
        _rook_3x3(),
        # the same degree sequences as the ones above
        Graph.from_edges(9, cycle(3).edges() + [(3 + u, 3 + v) for u, v in cycle(6).edges()]),
        _circulant9(1, 2),
        _circulant9(1, 3),
    ]
    for g in named:
        perm = list(range(9))
        rng.shuffle(perm)
        assert _cert(g) == _cert(relabel(g, perm))
    for i, g in enumerate(named):
        for h in named[i + 1 :]:
            assert (_cert(g) == _cert(h)) == nx.is_isomorphic(_nx(g), _nx(h))
