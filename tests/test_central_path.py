import hashlib

import pytest
from conftest import seeded_connected_gnp

from pathecc.asteroidal import find_k_at, min_k_at_free, verify_kat
from pathecc.central_path import (
    Certificate,
    Dichotomy,
    ImprovedPath,
    Shortened,
    find_k_dominating_path_or_witness,
    greedy_seed_path,
    improve_once,
)
from pathecc.eccentricity import has_path_with_ecc_at_most, path_eccentricity
from pathecc.families import (
    cycle,
    emit_graph6,
    fig_biconvex,
    parse_graph6,
    path_graph,
    subdivided_claw,
)
from pathecc.graphs import Graph, _shortest_path, is_path


def test_a_dichotomy_holds_exactly_one_side():
    w = find_k_at(subdivided_claw(2), 1)
    with pytest.raises(ValueError, match="exactly one"):
        Dichotomy()
    with pytest.raises(ValueError, match="exactly one"):
        Dichotomy(path=(0,), witness=w)
    assert Dichotomy(witness=w).path is None and Dichotomy(path=(0,)).witness is None


def test_greedy_seed_path():
    assert greedy_seed_path(Graph.from_edges(1)) == (0,)
    assert greedy_seed_path(path_graph(5)) == (4, 3, 2, 1, 0)
    seed = greedy_seed_path(cycle(6))
    assert is_path(cycle(6), seed) and len(seed) == 4  # diameter 3
    with pytest.raises(ValueError):
        greedy_seed_path(Graph.from_edges(2, []))


def test_improve_once_prepends_when_connector_hits_extremity():
    g = subdivided_claw(2)
    step = improve_once(g, 1, (0,))
    assert isinstance(step, ImprovedPath)
    assert step.path == (2, 1, 0)  # deepest uncovered tip walks in


def test_improve_once_absorbs_smallest_farthest_tip():
    # w is the smallest-index distance-2 tip 4, a = 0, connector (4, 3, 0)
    g = subdivided_claw(2)
    assert improve_once(g, 1, (0, 1, 2)) == ImprovedPath((4, 3, 0, 1, 2))
    assert improve_once(g, 1, (2, 1, 0)) == ImprovedPath((2, 1, 0, 3, 4))


def test_improve_once_requires_bad_eccentricity():
    g = subdivided_claw(2)
    with pytest.raises(ValueError):
        improve_once(g, 2, (2, 1, 0, 3, 4))  # ecc == k already
    with pytest.raises(ValueError):
        improve_once(g, 1, (9, 0))


def test_improve_once_requires_connected_graph():
    with pytest.raises(ValueError, match="connected"):
        improve_once(Graph.from_edges(3, [(0, 1)]), 1, (0,))


def test_improve_once_shortens_redundant_extremity():
    # tip 4's distance-1 ball is covered by the rest of the path
    g = subdivided_claw(2)
    step = improve_once(g, 1, (4, 3, 0, 1, 2))
    assert isinstance(step, Shortened)
    assert step.path == (3, 0, 1, 2)


def test_improve_once_emits_leaf_certificate():
    g = subdivided_claw(2)
    p = (0, 1, 2)  # one full leg
    seen = []
    for _ in range(12):
        step = improve_once(g, 1, p)
        seen.append(type(step).__name__)
        if isinstance(step, Certificate):
            assert step.witness.triple == (2, 4, 6)  # the three leaf tips
            assert verify_kat(g, step.witness)
            break
        assert isinstance(step, (ImprovedPath, Shortened))
        p = step.path
    else:
        pytest.fail(f"no certificate reached, steps: {seen}")


def test_dichotomy_c5():
    d = find_k_dominating_path_or_witness(cycle(5), 1)
    assert d.witness is None and d.path is not None
    assert path_eccentricity(cycle(5), d.path) <= 1


def test_dichotomy_two_subdivided_claw():
    g = subdivided_claw(2)
    d1 = find_k_dominating_path_or_witness(g, 1)
    assert d1.path is None and d1.witness is not None
    assert d1.witness.triple == (2, 4, 6)
    assert verify_kat(g, d1.witness)

    d2 = find_k_dominating_path_or_witness(g, 2)
    assert d2.witness is None and d2.path is not None
    assert path_eccentricity(g, d2.path) <= 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dichotomy_tight_on_subdivided_claws(k):
    g = subdivided_claw(k)
    d = find_k_dominating_path_or_witness(g, k)
    assert d.path is not None
    assert path_eccentricity(g, d.path) == k  # the bound is attained


def test_dichotomy_validation():
    with pytest.raises(ValueError):
        find_k_dominating_path_or_witness(cycle(5), 0)
    with pytest.raises(ValueError):
        find_k_dominating_path_or_witness(Graph.from_edges(3, [(0, 1)]), 1)


def test_trace_measures_progress():
    # a path-side run: the loop shortens twice, then improves
    g = parse_graph6("FexA?")
    trace: list = []
    d = find_k_dominating_path_or_witness(g, 1, trace=trace)
    assert [rec["step"] for rec in trace] == [
        "seed", "shortened", "shortened", "improved", "path_done"
    ]
    assert trace[-1]["step"] in ("witness_priority", "path_done")
    measure = None
    for rec in trace:
        if rec["step"] in ("improved", "shortened"):
            cur = (rec["covered"], -rec["path_len"])
            if measure is not None:
                assert cur > measure
            measure = cur
    assert d.path is not None and path_eccentricity(g, d.path) <= 1


def test_dichotomy_matches_ground_truth_small(connected_upto_5):
    for g in connected_upto_5:
        level = min_k_at_free(g)
        for k in (1, 2, 3):
            d = find_k_dominating_path_or_witness(g, k)
            assert (d.path is None) != (d.witness is None)
            if k >= level:
                assert d.path is not None, (g.edges(), k)
                assert path_eccentricity(g, d.path) <= k
                assert has_path_with_ecc_at_most(g, k) is not None
            else:
                assert d.witness is not None, (g.edges(), k)
                assert verify_kat(g, d.witness)
                assert d.witness.k == k
                assert d.witness == find_k_at(g, k)


def test_improve_once_reroutes_through_connector():
    # all distance-1 candidates off extremity 4 sit near the w-connector,
    # so the step must reroute through it instead of shortening
    g = Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5)])
    step = improve_once(g, 1, (4, 0, 3))
    assert step == ImprovedPath((2, 5, 1, 4, 0, 3))


def test_improve_once_reroutes_around_far_candidate():
    # the far-side detour (leave next to a, re-enter through both tips) fires
    g = Graph.from_edges(
        11,
        [(0, 2), (0, 6), (0, 7), (1, 3), (1, 4), (1, 6), (1, 9), (2, 4),
         (2, 10), (3, 5), (3, 9), (3, 10), (4, 8), (5, 7)],
    )
    step = improve_once(g, 1, (3, 1, 6, 0))
    assert step == ImprovedPath((6, 0, 7, 5, 3, 1, 4, 8))
    assert {3, 1, 6, 0} <= set(step.path)


@pytest.mark.parametrize(
    "g6, k, p, out",
    [
        # the smallest corpus input, from the seed 2 .. 3: tip u' near v's tail
        ("FCQb_", 1, (2, 6, 3), (3, 0, 5, 2, 6, 1, 4)),
        # the only known input from the v end: the seed 2 .. 7, read from 7
        ("M?_ROcCB__CC@@_??", 2, (7, 6, 2), (7, 3, 5, 8, 11, 2, 6, 4, 0, 13)),
    ],
)
def test_improve_once_reroutes_around_far_candidate_from_either_end(g6, k, p, out):
    assert improve_once(parse_graph6(g6), k, p) == ImprovedPath(out)


def test_improve_once_joins_both_tips():
    # both tips' tails plus p cover w; the branch cannot fire at k = 1
    step = improve_once(parse_graph6("JqCOGE@G??_"), 2, (1, 0, 2))
    assert step == ImprovedPath((4, 3, 1, 0, 2, 9, 10))


@pytest.mark.parametrize("k", [0, -1])
def test_improve_once_rejects_k_below_one(k):
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        improve_once(parse_graph6("CF"), k, (0, 3, 1))


def test_certificate_in_path_loop_raises():
    """A certificate in the path loop refutes the step: it names the graph."""
    from pathecc.central_path import _cover, _cover_mask

    # the loop trusts its caller that g is 1-AT-free; this claw is not, so
    # from the greedy seed it shortens twice, then certifies (2, 4, 6)
    g = subdivided_claw(2)
    p = greedy_seed_path(g)
    with pytest.raises(RuntimeError, match=r"no k-AT\) on graph6 FkE\?G"):
        _cover(g, 1, p, _cover_mask(g, p, 1), None)


def test_a_step_without_progress_raises(monkeypatch):
    """A step that neither grows the coverage nor shortens the path would
    loop forever; the loop names the graph instead."""
    import pathecc.central_path
    from pathecc.central_path import _cover, _cover_mask

    monkeypatch.setattr(pathecc.central_path, "_step", lambda g, k, p, w: Shortened(p))
    g = subdivided_claw(2)
    p = greedy_seed_path(g)
    with pytest.raises(RuntimeError, match=r"keeps the length\) on graph6 FkE\?G"):
        _cover(g, 1, p, _cover_mask(g, p, 1), None)


def test_proof_mode_steps_are_sound(connected_upto_5):
    # the paper's step alone: improve until covered or a k-AT is read off
    for g in connected_upto_5:
        for k in (1, 2, 3):
            p = greedy_seed_path(g)
            while path_eccentricity(g, p) > k:
                step = improve_once(g, k, p)
                assert isinstance(step, (ImprovedPath, Shortened, Certificate))
                if isinstance(step, Certificate):
                    assert verify_kat(g, step.witness) and step.witness.k == k
                    assert find_k_at(g, k) is not None
                    break
                p = step.path


# sha256 over the connected graphs with n <= 7 and k = 1..3 of every
# dichotomy answer with its trace, then every proof-mode step from the seed
DICHOTOMY_SHA256 = "5410ae884261cf499de1de9f6e9b12c4ca9f24288a8e19007fee4874e035d290"


def test_dichotomy_and_proof_steps_are_pinned(connected_upto_7):
    lines = []
    for g in connected_upto_7:
        for k in (1, 2, 3):
            trace: list = []
            d = find_k_dominating_path_or_witness(g, k, trace=trace)
            lines.append(repr((emit_graph6(g), k, d, trace)))
            p = greedy_seed_path(g)
            while path_eccentricity(g, p) > k:
                step = improve_once(g, k, p)
                lines.append(repr(step))
                if isinstance(step, Certificate):
                    break
                p = step.path
    assert len(lines) == 3041  # 2988 answers and 53 proof steps
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DICHOTOMY_SHA256


# sha256 over the connected graphs with n <= 7 and k = 1..3 of every
# improvement chain seeded with the shortest path s .. t, s <= t
SEEDED_CHAINS_SHA256 = "2280f5cbb0903c3426d5ac616f5b9946b2f927187feea40716b40ef8cac60c35"


def test_seeded_improvement_chains_are_pinned(connected_upto_7):
    lines = []
    for g in connected_upto_7:
        g6 = emit_graph6(g)
        for k in (1, 2, 3):
            for s in range(g.n):
                for t in range(s, g.n):
                    p = _shortest_path(g, s, t)
                    steps = []
                    while path_eccentricity(g, p) > k:
                        steps.append(improve_once(g, k, p))
                        if isinstance(steps[-1], Certificate):
                            break
                        p = steps[-1].path
                    lines.append(repr((g6, k, s, t, steps)))
    assert len(lines) == 79881
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SEEDED_CHAINS_SHA256


@pytest.mark.parametrize("n", [20, 30, 40])
def test_dichotomy_past_the_oracle_cap(n):
    paths = 0
    for seed in range(8):
        g = seeded_connected_gnp(n, seed=seed)
        for k in (1, 2, 3):
            d = find_k_dominating_path_or_witness(g, k)
            if find_k_at(g, k) is None:
                assert d.witness is None and path_eccentricity(g, d.path) <= k
                paths += 1
            else:
                assert d.path is None and verify_kat(g, d.witness)
    assert paths > 0  # the path side runs, not only the witness side


def test_dichotomy_biconvex_fixture_prefers_witness():
    # the fixture has eccentricity-1 paths AND a 1-AT; the witness side wins
    g = fig_biconvex()
    assert min_k_at_free(g) == 2
    d = find_k_dominating_path_or_witness(g, 1)
    assert d.path is None and d.witness is not None
    assert verify_kat(g, d.witness)
    d2 = find_k_dominating_path_or_witness(g, 2)
    assert d2.path is not None
    assert path_eccentricity(g, d2.path) <= 2
