"""Path-eccentricity toolbox: exact oracles, k-asteroidal-triple detection,
PQ-tree consecutive-ones testing, ordering-witness search, a constructive
dominating-path/triple dichotomy, and exhaustive small-graph harnesses."""

from .asteroidal import KatWitness, find_k_at, is_k_at, min_k_at_free, verify_kat
from .central_path import (
    Certificate,
    Dichotomy,
    ImprovedPath,
    Shortened,
    find_k_dominating_path_or_witness,
    greedy_seed_path,
    improve_once,
)
from .eccentricity import PeResult, has_path_with_ecc_at_most, path_eccentricity, pe_exact
from .families import (
    emit_graph6,
    enumerate_connected,
    generate,
    parse_graph6,
)
from .graphs import (
    Graph,
    bfs_distances,
    find_long_induced_cycle,
    format_edge_list,
    induced_paths,
    is_connected,
    is_induced_path,
    neighborhood_k,
    parse_edge_list,
)
from .pqtree import BinaryMatrix, PQTree, frontier, has_c1p, pq_reduce
from .star_c1p import (
    OrderingWitness,
    check_order_lemma,
    check_path_neighborhood,
    find_star_c1p,
    verify_witness,
)
from .suite import HuntResult, PropertyReport, hunt_conjecture, run_property_suite

__version__ = "0.1.0"
