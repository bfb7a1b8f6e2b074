"""Binary matrices, PQ-trees, and consecutive-ones-property testing.

The PQ-tree here is persistent: a reduction returns a new tree and leaves
the input untouched, so backtracking searches can keep whole stacks of
trees and share structure for free.  The reduction applies the
Booth-Lueker templates (L1, P1-P6, Q1-Q3) in one recursive pass that
serves the pertinent root and the partial nodes below it alike, instead
of the amortized bubble-up bookkeeping; at the matrix sizes this library
handles, clarity wins over the linear-time constant.

Each node stores its leaf set as an ``int`` mask, bit r standing for row r,
so a reduction tests a child for empty, full or partial with two bit
operations and a parent's leaf set is the OR of its children's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

from .graphs import _bits


@dataclass(frozen=True)
class BinaryMatrix:
    """A 0/1 matrix stored row-major as nested tuples."""

    rows: int
    cols: int
    bits: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryMatrix":
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        out = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged matrix rows")
            if any(x not in (0, 1) for x in r):
                raise ValueError("matrix entries must be 0 or 1")
            out.append(tuple(int(x) for x in r))
        return cls(len(out), width, tuple(out))


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the 'rows cols' header plus rows of 0/1 characters."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header {lines[0]!r}, expected 'rows cols'")
    try:
        r, c = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) - 1 != r:
        raise ValueError(f"expected {r} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        row = ln.replace(" ", "")
        if len(row) != c or any(ch not in "01" for ch in row):
            raise ValueError(f"bad matrix row on line {i}: {ln!r}")
        rows.append(tuple(int(ch) for ch in row))
    return BinaryMatrix(r, c, tuple(rows))


def format_matrix(m: BinaryMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend("".join(str(x) for x in row) for row in m.bits)
    return "\n".join(lines) + "\n"


# --- tree nodes -----------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    row: int
    leaves: int  # 1 << row, stored so reductions read it for free


@dataclass(frozen=True)
class PNode:
    children: tuple["Node", ...]
    leaves: int


@dataclass(frozen=True)
class QNode:
    children: tuple["Node", ...]
    leaves: int


Node = Union[Leaf, PNode, QNode]


def _union_leaves(children: Sequence[Node]) -> int:
    out = 0
    for c in children:
        out |= c.leaves
    return out


def _p(children: Sequence[Node]) -> Node:
    if len(children) == 1:
        return children[0]
    return PNode(tuple(children), _union_leaves(children))


def _q(children: Sequence[Node]) -> Node:
    if len(children) == 1:
        return children[0]
    if len(children) == 2:
        # a two-child Q allows exactly the same two frontiers as a P
        return PNode(tuple(children), _union_leaves(children))
    return QNode(tuple(children), _union_leaves(children))


@dataclass(frozen=True)
class PQTree:
    """Rooted tree over a fixed leaf set; P children permute, Q children flip."""

    root: Node

    @classmethod
    def universal(cls, rows: int) -> "PQTree":
        if rows < 1:
            raise ValueError("a PQ-tree needs at least one leaf")
        return cls(_p([Leaf(i, 1 << i) for i in range(rows)]))


def frontier(t: PQTree) -> tuple[int, ...]:
    """Left-to-right leaf order of the tree as stored."""
    out: list[int] = []

    def walk(node: Node) -> None:
        if isinstance(node, Leaf):
            out.append(node.row)
        else:
            for c in node.children:
                walk(c)

    walk(t.root)
    return tuple(out)


# --- reduction ------------------------------------------------------------
#
# One template pass serves the pertinent root and every partial node below
# it.  _arrange sorts a partial node's children into empty ones (leaves
# outside s) and full ones (leaves inside s), both kept as they are
# (templates L1, P1, Q1), and partial ones, arranged recursively; then
#   P-node  partial children meet around the bundled full block:
#           mid = partial0 + (P(full),) + reversed(partial1)
#           below the root (at most 1 partial): P(empty) + mid  (P3, P5)
#           at the root (at most 2 partials):  P(empty..., Q(mid))  (P2, P4, P6)
#   Q-node  children read e* [p] f* [p-reversed e*], the bracketed tail only
#           at the root (Q3); below it the scan also runs right to left (Q2)
# Below the root the result is the node's partial child sequence, empty
# leaves at the left end and full leaves at the right end; at the root it
# is the replacement node.  None means s cannot be made consecutive.


def _arrange(node: Node, s: int, root: bool) -> Optional[Union[tuple, Node]]:
    subs: list[tuple[str, object]] = []
    for c in node.children:  # type: ignore[union-attr]
        lv = c.leaves
        if not lv & s:
            subs.append(("e", c))
        elif lv & s == lv:
            subs.append(("f", c))
        else:
            seq = _arrange(c, s, False)
            if seq is None:
                return None
            subs.append(("p", seq))

    if isinstance(node, PNode):
        empty = [n for t, n in subs if t == "e"]
        full = [n for t, n in subs if t == "f"]
        parts = [p for t, p in subs if t == "p"]
        if len(parts) > (2 if root else 1):
            return None
        mid = (
            (parts[0] if parts else ())
            + ((_p(full),) if full else ())
            + (parts[1][::-1] if len(parts) == 2 else ())  # type: ignore[index]
        )
        if root:
            return _p(tuple(empty) + (_q(mid),))
        return ((_p(empty),) if empty else ()) + mid

    for ordered in (subs,) if root else (subs, subs[::-1]):
        out: list[Node] = []
        state = 0  # 0 leading empties, 1 full block, 2 trailing empties
        for tag, payload in ordered:
            if tag == "e" and state == 1 and root:
                state = 2
            if tag == "e" and state != 1:
                out.append(payload)  # type: ignore[arg-type]
            elif tag == "f" and state != 2:
                out.append(payload)  # type: ignore[arg-type]
                state = 1
            elif tag == "p" and state == 0:
                out.extend(payload)  # type: ignore[arg-type]
                state = 1
            elif tag == "p" and state == 1 and root:
                out.extend(reversed(payload))  # type: ignore[call-overload]
                state = 2
            else:
                break
        else:
            return _q(out) if root else tuple(out)
    return None


def _reduce_node(node: Node, s: int) -> Optional[Node]:
    # s is a subset of node.leaves here, so a leaf always equals s
    if node.leaves == s:
        return node
    # descend while one child wholly contains the constraint
    for i, c in enumerate(node.children):  # type: ignore[union-attr]
        if s & c.leaves == s:
            c2 = _reduce_node(c, s)
            if c2 is None:
                return None
            children = node.children[:i] + (c2,) + node.children[i + 1 :]  # type: ignore[union-attr]
            return type(node)(children, node.leaves)  # type: ignore[call-arg]
    return _arrange(node, s, True)  # type: ignore[return-value]


def pq_reduce(t: PQTree, s: int) -> Optional[PQTree]:
    """Constrain the tree so the rows of the mask s are consecutive in every frontier.

    Bit r of s stands for row r.  Returns the reduced tree, or None when no
    frontier of t keeps s consecutive.  A one-row or all-row mask is
    consecutive in every frontier, so t itself comes back.  The input tree
    is never modified.
    """
    leaves = t.root.leaves
    if s <= 0:
        raise ValueError(f"cannot reduce by an empty or negative row mask {s}")
    if s & ~leaves:
        raise ValueError(f"unknown rows in constraint: {_bits(s & ~leaves)}")
    if s & (s - 1) == 0 or s == leaves:
        return t
    root = _reduce_node(t.root, s)
    return None if root is None else PQTree(root)


# --- consecutive ones -----------------------------------------------------

def _columns(m: BinaryMatrix) -> list[int]:
    """Each column's 1-rows as a mask, read in one transpose of the matrix."""
    rows = range(m.rows)
    return [sum(1 << r for r in compress(rows, col)) for col in zip(*m.bits)]


def _is_run(mask: int) -> bool:
    """True iff the set bits of mask are contiguous; 0 counts as a run."""
    # adding its lowest one to a contiguous run of ones clears the whole run
    return mask & (mask + (mask & -mask)) == 0


def _all_blocks(columns: Iterable[int], perm: Sequence[int]) -> bool:
    at = [0] * len(perm)  # at[r] is the position bit of row r
    for i, r in enumerate(perm):
        at[r] = 1 << i
    return all(_is_run(sum(at[r] for r in _bits(ones))) for ones in columns)


def is_c1p_order(m: BinaryMatrix, perm: Sequence[int]) -> bool:
    """True iff placing row perm[i] at position i makes every column's 1s a block.

    Raises ValueError unless perm is a permutation of range(m.rows).
    """
    if sorted(perm) != list(range(m.rows)):
        raise ValueError(f"perm must be a permutation of range({m.rows})")
    return _all_blocks(_columns(m), perm)


def has_c1p(m: BinaryMatrix) -> Optional[tuple[int, ...]]:
    """A row permutation witnessing the consecutive ones property, or None.

    Builds the universal tree and reduces by each nonempty column's 1-set,
    widest columns first so infeasible instances fail fast.
    """
    tree = PQTree.universal(m.rows)
    columns = _columns(m)
    for ones in sorted(columns, key=int.bit_count, reverse=True):
        if not ones:
            continue
        reduced = pq_reduce(tree, ones)
        if reduced is None:
            return None
        tree = reduced
    perm = frontier(tree)
    assert _all_blocks(columns, perm), "PQ-tree produced a non-witnessing order"
    return perm
