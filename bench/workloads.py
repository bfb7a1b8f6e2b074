"""The benchmark workloads: their seeded inputs and their measured bodies.

Inputs are plain edge lists and 0/1 rows built from ``random.Random``, so a
change to pathecc can never change what a seed generates.  Every invocation
of a library workload draws its own inputs from ``(workload, seed, index)``:
a run then averages over many distinct graphs, which keeps its figures from
hanging on a few lucky or unlucky draws.
"""

from __future__ import annotations

import random
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "data" / "connected7.g6"

# theorem statements only: star_c1p_exists is a census and exits 1 on correct code
SUITE_PROPS = (
    "theorem1",
    "theorem3",
    "theorem4",
    "corollary",
    "c5_free",
    "order_lemma",
    "path_neighborhood",
    "dichotomy",
)

CLI_WORKLOADS = ("hunt-exhaustive7", "suite-corpus7")
LIBRARY_WORKLOADS = ("pe-hard12", "kat-scale30")
WORKLOADS = CLI_WORKLOADS + LIBRARY_WORKLOADS

# pe-hard12: bipartite parts 4 and 8 keep 27 of their 32 possible edges
# (0.85 of them).  The pe search cost grows steeply with the edge count, so
# fixing the count rather than drawing it keeps one seed's total near the next.
PE_BIPARTITE = 12
PE_BIPARTITE_EDGES = 27
PE_GNP = 8
PE_GNP_P = 0.3

# kat-scale30: every n in 20..30 the same number of times, plus two matrices.
KAT_SIZES = tuple(range(20, 31))
KAT_PER_SIZE = 5
KAT_STAR_MAX_N = 20
MATRIX_SIZE = 400
MATRIX_MAX_INTERVAL = 40


def cli_argv(workload: str) -> list[str]:
    if workload == "hunt-exhaustive7":
        return ["hunt", "exhaustive:7"]
    if workload == "suite-corpus7":
        return ["suite", str(CORPUS), "--props", *SUITE_PROPS]
    raise ValueError(f"{workload} is not a CLI workload")


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for x in adj[stack.pop()]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return len(seen) == n


def connected_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if _connected(n, edges):
            return edges


def connected_bipartite(
    rng: random.Random, a: int, b: int, m: int
) -> list[tuple[int, int]]:
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    while True:
        edges = sorted(rng.sample(pairs, m))
        if _connected(a + b, edges):
            return edges


def interval_rows(rng: random.Random, size: int, max_len: int) -> list[list[int]]:
    """A size x size matrix whose columns are intervals of a hidden row order."""
    order = list(range(size))
    rng.shuffle(order)
    rows = [[0] * size for _ in range(size)]
    for j in range(size):
        length = rng.randint(2, max_len)
        start = rng.randrange(size - length + 1)
        for pos in range(start, start + length):
            rows[order[pos]][j] = 1
    return rows


def break_c1p(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """Overwrite three columns with the pairs of a row triangle.

    Each pair must sit side by side in any consecutive order, and three rows
    cannot be pairwise adjacent in a line, so the result has no C1P order.
    """
    size = len(rows)
    out = [row.copy() for row in rows]
    a, b, c = rng.sample(range(size), 3)
    for j, pair in zip(rng.sample(range(size), 3), ((a, b), (b, c), (a, c))):
        for r in range(size):
            out[r][j] = 1 if r in pair else 0
    return out


def pe_inputs(seed: int, index: int) -> list[tuple[int, list[tuple[int, int]]]]:
    rng = rng_for("pe-hard12", seed, index)
    graphs = [
        (12, connected_bipartite(rng, 4, 8, PE_BIPARTITE_EDGES))
        for _ in range(PE_BIPARTITE)
    ]
    graphs += [(12, connected_gnp(rng, 12, PE_GNP_P)) for _ in range(PE_GNP)]
    return graphs


def kat_inputs(seed: int, index: int):
    """Edge lists of G(n, 3/n) for n = 20..30, then a C1P and a non-C1P matrix."""
    rng = rng_for("kat-scale30", seed, index)
    graphs = [
        (n, connected_gnp(rng, n, 3 / n))
        for _ in range(KAT_PER_SIZE)
        for n in KAT_SIZES
    ]
    good = interval_rows(rng, MATRIX_SIZE, MATRIX_MAX_INTERVAL)
    return graphs, [good, break_c1p(rng, good)]


def library_inputs(workload: str, seed: int, index: int):
    """A library workload's inputs as pathecc objects.

    Returns (pe graphs, kat graphs, matrices); pe-hard12 fills only the
    first, kat-scale30 the other two.  The first matrix has the consecutive
    ones property and the second does not.
    """
    from pathecc.graphs import Graph
    from pathecc.pqtree import BinaryMatrix

    pe_edges, kat_edges, matrix_rows = [], [], []
    if workload == "pe-hard12":
        pe_edges = pe_inputs(seed, index)
    elif workload == "kat-scale30":
        kat_edges, matrix_rows = kat_inputs(seed, index)
    else:
        raise ValueError(f"{workload} is not a library workload")
    pe = [Graph.from_edges(n, edges) for n, edges in pe_edges]
    kat = [Graph.from_edges(n, edges) for n, edges in kat_edges]
    matrices = [
        BinaryMatrix(len(rows), len(rows[0]), tuple(tuple(r) for r in rows))
        for rows in matrix_rows
    ]
    return pe, kat, matrices


def _kat_json(w) -> dict | None:
    if w is None:
        return None
    return {"triple": list(w.triple), "k": w.k, "paths": [list(p) for p in w.paths]}


def run_pe(graphs, clock, latencies: list[float]) -> list[dict]:
    """pe, then a hit (early exit at pe) and a miss (full search at pe - 1)."""
    import pathecc.eccentricity as ecc

    out = []
    for g in graphs:
        t = clock()
        res = ecc.pe_exact(g)
        hit = ecc.has_path_with_ecc_at_most(g, res.value)
        miss = ecc.has_path_with_ecc_at_most(g, res.value - 1) if res.value else None
        witness_ecc = ecc.path_eccentricity(g, res.witness)
        latencies.append(clock() - t)
        out.append({
            "pe": res.value,
            "witness": list(res.witness),
            "witness_ecc": witness_ecc,
            "hit": None if hit is None else list(hit),
            "miss": None if miss is None else list(miss),
        })
    return out


def run_library(pe, kat, matrices, clock, latencies: list[float]) -> dict:
    return {"pe": run_pe(pe, clock, latencies), "kat": run_kat(kat, matrices, clock, latencies)}


def run_kat(graphs, matrices, clock, latencies: list[float]) -> list[dict]:
    import pathecc.asteroidal as ast
    import pathecc.central_path as cp
    import pathecc.pqtree as pq
    import pathecc.star_c1p as sc

    out = []
    for g in graphs:
        t = clock()
        min_k = ast.min_k_at_free(g)
        sides = []
        for k in (1, 2, 3):
            d = cp.find_k_dominating_path_or_witness(g, k)
            sides.append({
                "k": k,
                "path": None if d.path is None else list(d.path),
                "witness": _kat_json(d.witness),
            })
        star = "skipped"
        if g.n <= KAT_STAR_MAX_N:
            w = sc.find_star_c1p(g)
            star = None if w is None else {"order": list(w.mu), "diagonal": sorted(w.diagonal)}
        latencies.append(clock() - t)
        out.append({"min_k": min_k, "dichotomy": sides, "star": star})
    for m in matrices:
        t = clock()
        perm = pq.has_c1p(m)
        latencies.append(clock() - t)
        out.append({"permutation": None if perm is None else list(perm)})
    return out
