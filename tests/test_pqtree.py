import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_c1p, matrix_strategy
import pathecc.pqtree
from pathecc.families import FIG_A_ADJACENCY, FIG_B_AUGMENTED, FIG_C_PARTIAL
from pathecc.pqtree import (
    BinaryMatrix,
    Leaf,
    PNode,
    PQTree,
    QNode,
    format_matrix,
    frontier,
    has_c1p,
    is_c1p_order,
    parse_matrix,
    pq_reduce,
)


def all_frontiers(t: PQTree) -> set[tuple[int, ...]]:
    """Every leaf order the tree represents, by brute expansion."""

    def expand(node) -> set[tuple[int, ...]]:
        if isinstance(node, Leaf):
            return {(node.row,)}
        child_sets = [expand(c) for c in node.children]

        def concats(order) -> set[tuple[int, ...]]:
            outs = {()}
            for idx in order:
                outs = {o + tail for o in outs for tail in child_sets[idx]}
            return outs

        if isinstance(node, PNode):
            result = set()
            for order in permutations(range(len(node.children))):
                result |= concats(order)
            return result
        assert isinstance(node, QNode)
        idx = list(range(len(node.children)))
        return concats(idx) | concats(idx[::-1])

    return expand(t.root)


def perms_with_consecutive(rows: int, constraints) -> set[tuple[int, ...]]:
    out = set()
    for perm in permutations(range(rows)):
        pos = {r: i for i, r in enumerate(perm)}
        if all(
            max(pos[r] for r in s) - min(pos[r] for r in s) + 1 == len(s)
            for s in constraints
        ):
            out.add(perm)
    return out


def mask(rows) -> int:
    return sum(1 << r for r in rows)


def test_universal_tree():
    t = PQTree.universal(4)
    assert frontier(t) == (0, 1, 2, 3)
    assert len(all_frontiers(t)) == 24
    t1 = PQTree.universal(1)
    assert frontier(t1) == (0,)
    with pytest.raises(ValueError):
        PQTree.universal(0)


def test_reduce_full_set_keeps_everything():
    t = PQTree.universal(5)
    t2 = pq_reduce(t, 0b11111)
    assert t2 is not None
    assert all_frontiers(t2) == all_frontiers(t)


def test_reduce_two_overlapping_pairs():
    t = PQTree.universal(3)
    t = pq_reduce(t, 0b011)
    assert t is not None
    t = pq_reduce(t, 0b110)
    assert t is not None
    assert all_frontiers(t) == {(0, 1, 2), (2, 1, 0)}


def test_reduce_chain_then_contradiction():
    t = PQTree.universal(4)
    for s in (0b0011, 0b1100, 0b0110):
        t = pq_reduce(t, s)
        assert t is not None
    assert all_frontiers(t) == {(0, 1, 2, 3), (3, 2, 1, 0)}
    assert pq_reduce(t, 0b0101) is None


def test_reduce_errors():
    t = PQTree.universal(3)
    # an empty column is consecutive in every frontier
    assert pq_reduce(t, 0) is t
    with pytest.raises(ValueError, match="negative row mask -3"):
        pq_reduce(t, -3)
    with pytest.raises(ValueError, match=r"unknown rows in constraint: \[3, 7\]"):
        pq_reduce(t, mask({0, 7, 3}))
    with pytest.raises(ValueError, match=r"unknown rows in constraint: \[3\]"):
        pq_reduce(t, 0b1000)


def test_one_row_and_all_row_masks_return_the_tree_itself():
    t = pq_reduce(PQTree.universal(4), 0b0011)
    assert t is not None
    for s in (0b0001, 0b0100, 0b1000, 0b1111):
        assert pq_reduce(t, s) is t


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.sets(st.integers(0, 4), min_size=1), min_size=1, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_reduce_matches_permutation_filter(rows, raw_constraints):
    """After each reduction the frontier set equals the brute-force filter."""
    constraints = [frozenset(x % rows for x in s) for s in raw_constraints]
    t: PQTree | None = PQTree.universal(rows)
    applied: list[frozenset[int]] = []
    for s in constraints:
        applied.append(s)
        expected = perms_with_consecutive(rows, applied)
        t = pq_reduce(t, mask(s))
        if t is None:
            assert expected == set()
            return
        assert all_frontiers(t) == expected


def test_has_c1p_fig_matrices():
    assert has_c1p(FIG_A_ADJACENCY) is not None
    assert has_c1p(FIG_B_AUGMENTED) is not None
    assert has_c1p(FIG_C_PARTIAL) is not None
    # the fixtures are printed in an order that is already consecutive
    assert is_c1p_order(FIG_A_ADJACENCY, range(6))
    assert is_c1p_order(FIG_B_AUGMENTED, range(6))
    assert is_c1p_order(FIG_C_PARTIAL, range(6))


def test_is_c1p_order_rejects_a_non_permutation():
    # rows 0 and 2 share the column, row 1 is in no column
    m = BinaryMatrix.from_rows([[1], [0], [1]])
    assert is_c1p_order(m, [0, 2, 1])
    assert not is_c1p_order(m, [0, 1, 2])
    for perm in ([0, 2], [0, 2, 1, 9], [0, 2, 2], [0, 2, 3], [1, 2, -1]):
        with pytest.raises(ValueError, match=r"permutation of range\(3\)"):
            is_c1p_order(m, perm)


def test_has_c1p_identity_matrix():
    ident = BinaryMatrix.from_rows([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert has_c1p(ident) is not None


def test_has_c1p_ignores_empty_columns():
    m = BinaryMatrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 0], [0, 0, 1]])
    padded = BinaryMatrix.from_rows([[0, *row[:2], 0, row[2], 0] for row in m.bits])
    assert has_c1p(padded) == has_c1p(m) is not None


def test_has_c1p_raises_when_its_order_fails_the_recheck(monkeypatch):
    monkeypatch.setattr(pathecc.pqtree, "_all_blocks", lambda columns, perm: False)
    with pytest.raises(RuntimeError, match="non-witnessing order"):
        has_c1p(BinaryMatrix.from_rows([[1, 0], [1, 1], [0, 1]]))


def test_has_c1p_known_negative():
    # rows cannot be ordered so that all three overlapping pairs plus the
    # disjointness constraint hold; classic non-C1P instance
    m = BinaryMatrix.from_rows(
        [
            [1, 0, 1],
            [1, 1, 0],
            [0, 1, 1],
            [1, 1, 1],
        ]
    )
    assert (has_c1p(m) is None) == (brute_c1p(m) is None)


@given(matrix_strategy(max_rows=6, max_cols=6))
@settings(max_examples=400, deadline=None)
def test_has_c1p_matches_brute_force(m):
    mine = has_c1p(m)
    ref = brute_c1p(m)
    assert (mine is None) == (ref is None)
    if mine is not None:
        assert is_c1p_order(m, mine)


@given(matrix_strategy(max_rows=5, max_cols=5), st.randoms())
@settings(max_examples=150, deadline=None)
def test_column_order_is_irrelevant(m, rng):
    cols = list(range(m.cols))
    rng.shuffle(cols)
    shuffled = BinaryMatrix(
        m.rows, m.cols, tuple(tuple(row[j] for j in cols) for row in m.bits)
    )
    assert (has_c1p(m) is None) == (has_c1p(shuffled) is None)


def test_from_rows_rejects_entries_other_than_0_and_1():
    with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
        BinaryMatrix.from_rows([[0, 2]])


def test_matrix_text_roundtrip():
    text = format_matrix(FIG_C_PARTIAL)
    assert parse_matrix(text) == FIG_C_PARTIAL
    with pytest.raises(ValueError):
        parse_matrix("2 2\n01")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n01\n2x")
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows([[0, 1], [1]])


def _seeded_reductions():
    """Reduced trees of a seeded random stream of reductions, None on failure.

    For each n = 2..12, half the streams draw intervals of a hidden
    permutation (mostly feasible, so the trees grow deep Q-nodes) and half
    draw arbitrary row sets (mostly infeasible).  A failed reduction keeps
    the previous tree, so the stream continues.
    """
    rng = random.Random(20261018)
    out = []
    for n in range(2, 13):
        for stream in range(12):
            hidden = list(range(n))
            rng.shuffle(hidden)
            t = PQTree.universal(n)
            for _ in range(3 * n):
                if stream % 2 == 0:
                    i = rng.randrange(n)
                    j = rng.randrange(i + 1, n + 1)
                    s = hidden[i:j]
                else:
                    s = rng.sample(range(n), rng.randrange(1, n + 1))
                reduced = pq_reduce(t, mask(s))
                out.append(reduced)
                if reduced is not None:
                    t = reduced
    return out


def _sha256_of_lines(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


# sha256 of the stored frontiers of _seeded_reductions, one repr per line
REDUCTIONS_SHA256 = "43b9c9cee44099302f5fc570d4be291739580432dfea620448b4ca208139185d"
# sha256 of the reduced trees themselves, one repr per line, so that a P/Q
# shape change which keeps every frontier still shows
REDUCTION_TREES_SHA256 = "dc536f65c98ec1a4ca1351d4d9c1df3ca866056921456c321c2b348f261f47a7"


def test_reduction_tree_shapes_are_pinned():
    results = _seeded_reductions()
    assert len(results) > 2000
    frontiers = [None if t is None else frontier(t) for t in results]
    assert _sha256_of_lines(frontiers) == REDUCTIONS_SHA256
    assert _sha256_of_lines(results) == REDUCTION_TREES_SHA256


class _Unread:
    """A stand-in child that fails the test when a reduction reads its leaf set."""

    def __init__(self, row: int):
        self.row = row

    @property
    def leaves(self) -> int:
        raise AssertionError(f"the leaf set of row {self.row} was read")


def _nodes(node):
    yield node
    for c in getattr(node, "children", ()):
        yield from _nodes(c)


def test_reduction_reads_no_child_past_the_constraint():
    """Children after the last one that meets the mask are neither read nor copied."""
    n, k = 400, 5
    t = PQTree.universal(n)
    for r in range(n - 1):
        t = pq_reduce(t, 0b11 << r)
    assert isinstance(t.root, QNode) and frontier(t) == tuple(range(n))
    unread = tuple(map(_Unread, range(k, n)))
    wide_q = QNode(t.root.children[:k] + unread, t.root.leaves)
    wide_p = PNode(tuple(Leaf(r, 1 << r) for r in range(k)) + unread, t.root.leaves)
    # below the root a partial Q-node ends its scan once it has covered its
    # share of the mask, here rows 0..4 at its left end
    nested = PNode((wide_q, Leaf(n, 1 << n)), t.root.leaves | 1 << n)
    for root, s in ((wide_q, 0b11100), (wide_p, 0b10110), (nested, 0b11111 | 1 << n)):
        reduced = pq_reduce(PQTree(root), s)
        assert reduced is not None
        kept = [c for c in _nodes(reduced.root) if isinstance(c, _Unread)]
        assert sorted(map(id, kept)) == sorted(map(id, unread))


def _interval_matrix(rng: random.Random, size: int, max_len: int) -> list[list[int]]:
    """Columns are intervals of 1..max_len rows of a hidden row order."""
    order = list(range(size))
    rng.shuffle(order)
    rows = [[0] * size for _ in range(size)]
    for j in range(size):
        length = rng.randint(1, max_len)
        start = rng.randrange(size - length + 1)
        for pos in range(start, start + length):
            rows[order[pos]][j] = 1
    return rows


def _break_c1p(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """Overwrite three columns with the pairs of a row triangle: no C1P order."""
    out = [row.copy() for row in rows]
    a, b, c = rng.sample(range(len(rows)), 3)
    for j, pair in zip(rng.sample(range(len(rows)), 3), ((a, b), (b, c), (a, c))):
        for r in range(len(rows)):
            out[r][j] = 1 if r in pair else 0
    return out


# sha256 of has_c1p on seeded 200 x 200 interval matrices and their broken
# variants, one repr per line; computed with frozenset leaf sets
LARGE_C1P_SHA256 = "b82ca8d2385027f89ff5c573a631f4a5d37f97835655665b3aaa965b2b24eeeb"


def test_large_c1p_permutations_are_pinned():
    rng = random.Random(20261019)
    perms = []
    for max_len in (3, 12, 60, 200):
        rows = _interval_matrix(rng, 200, max_len)
        for r in (rows, _break_c1p(rng, rows)):
            perms.append(has_c1p(BinaryMatrix(200, 200, tuple(map(tuple, r)))))
    assert [p is None for p in perms] == [False, True] * 4
    lines = "\n".join(repr(p) for p in perms)
    assert hashlib.sha256(lines.encode()).hexdigest() == LARGE_C1P_SHA256
