"""Binary matrices, PQ-trees, and consecutive-ones-property testing.

The PQ-tree here is persistent: a reduction returns a new tree and leaves
the input untouched, so backtracking searches can keep whole stacks of
trees and share structure for free.  The reduction applies the
Booth-Lueker templates (L1, P1-P6, Q1-Q3) in one recursive pass that
serves the pertinent root and the partial nodes below it alike, instead
of the amortized bubble-up bookkeeping.  Each node's scan stops as soon as
the children that meet the constraint cover it, and the children around
them are carried over as untouched slices, so a reduction reads the
touched children and those before the first of them, not whole nodes.

Each node stores its leaf set as an ``int`` mask, bit r standing for row r,
so a reduction tests a child for empty, full or partial with two bit
operations, and a rebuilt node takes its leaf set from the node it
replaces or from the masks the scan has already seen.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    if r < 1 or c < 1:
        raise ValueError("matrix must have at least one row and one column")
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


def _p(children: Sequence[Node], leaves: int) -> Node:
    if len(children) == 1:
        return children[0]
    return PNode(tuple(children), leaves)


def _q(children: Sequence[Node], leaves: int) -> Node:
    """A Q-node; _reduce hands it one child or at least three, never two."""
    if len(children) == 1:
        return children[0]
    return QNode(tuple(children), leaves)


@dataclass(frozen=True)
class PQTree:
    """Rooted tree over a fixed leaf set; P children permute, Q children flip."""

    root: Node

    @classmethod
    def universal(cls, rows: int) -> "PQTree":
        if rows < 1:
            raise ValueError("a PQ-tree needs at least one leaf")
        return cls(_p([Leaf(i, 1 << i) for i in range(rows)], (1 << rows) - 1))


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
# it.  _reduce scans a node's children only until the ones that meet s
# cover s, so the children before the first of them and after the last are
# empty (leaves outside s) and carried over as untouched slices.  The run
# in between holds empty and full children (leaves inside s), both kept as
# they are (templates L1, P1, Q1), and partial ones, arranged recursively
# on their share of s; then
#   P-node  partial children meet around the bundled full block:
#           mid = partial0 + (P(full),) + reversed(partial1)
#           below the root (at most 1 partial): P(empty) + mid  (P3, P5)
#           at the root (at most 2 partials):  P(empty..., Q(mid))  (P2, P4, P6)
#           with the empty children in their stored order
#   Q-node  the run reads [p] f* [p-reversed], so an empty child in it is a
#           gap; the bracketed tail only at the root (Q3); below it the run
#           must end the node, read left to right or else right to left (Q2)
# Below the root the result is the node's partial child sequence, empty
# leaves at the left end and full leaves at the right end; at the root it
# is the replacement node, over the node's own leaf set.  None means s
# cannot be made consecutive.


def _reduce(node: Node, s: int, root: bool) -> Optional[Union[tuple, Node]]:
    # s is a nonempty proper subset of node.leaves
    kids = node.children  # type: ignore[union-attr]
    i = 0
    while not kids[i].leaves & s:
        i += 1
    c = kids[i]
    if root and c.leaves & s == s:
        # descend while one child wholly contains the constraint
        c2 = c if c.leaves == s else _reduce(c, s, True)
        if c2 is None:
            return None
        return type(node)(kids[:i] + (c2,) + kids[i + 1 :], node.leaves)  # type: ignore[call-arg]
    run: list[tuple[str, object]] = []
    rest, parted, j = s, 0, i  # parted: the partial children's leaves
    while rest:
        c = kids[j]
        j += 1
        lv = c.leaves
        m = lv & rest
        if not m:
            run.append(("e", c))
        elif m == lv:
            run.append(("f", c))
        else:
            seq = _reduce(c, m, False)
            if seq is None:
                return None
            run.append(("p", seq))
            parted |= lv
        rest ^= m

    if isinstance(node, PNode):
        empty = kids[:i] + tuple([n for t, n in run if t == "e"]) + kids[j:]
        full = [n for t, n in run if t == "f"]
        parts = [p for t, p in run if t == "p"]
        if len(parts) > (2 if root else 1):
            return None
        mid = (
            (parts[0] if parts else ())
            + ((_p(full, s & ~parted),) if full else ())
            + (parts[1][::-1] if len(parts) == 2 else ())  # type: ignore[index]
        )
        if root:
            return _p(empty + (_q(mid, s | parted),), node.leaves)
        return ((_p(empty, node.leaves & ~(s | parted)),) if empty else ()) + mid

    ways = []
    if root or j == len(kids):
        ways.append((kids[:i], run, kids[j:]))
    if not root and i == 0:
        ways.append((kids[j:][::-1], run[::-1], ()))
    for lead, seq, tail in ways:
        out = list(lead)
        last = len(seq) - 1
        for k, (tag, payload) in enumerate(seq):
            if tag == "f":
                out.append(payload)  # type: ignore[arg-type]
            elif tag == "p" and k == 0:
                out.extend(payload)  # type: ignore[arg-type]
            elif tag == "p" and k == last and root:
                out.extend(reversed(payload))  # type: ignore[call-overload]
            else:
                break
        else:
            out.extend(tail)
            return _q(out, node.leaves) if root else tuple(out)
    return None


def pq_reduce(t: PQTree, s: int) -> Optional[PQTree]:
    """Constrain the tree so the rows of the mask s are consecutive in every frontier.

    Bit r of s stands for row r.  Returns the reduced tree, or None when no
    frontier of t keeps s consecutive.  An empty, one-row or all-row mask
    is consecutive in every frontier, so t itself comes back.  The input
    tree is never modified.
    """
    leaves = t.root.leaves
    if s < 0:
        raise ValueError(f"cannot reduce by a negative row mask {s}")
    if s & ~leaves:
        raise ValueError(f"unknown rows in constraint: {_bits(s & ~leaves)}")
    if s & (s - 1) == 0 or s == leaves:
        return t
    root = _reduce(t.root, s, True)
    return None if root is None else PQTree(root)


# --- consecutive ones -----------------------------------------------------

_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _columns(m: BinaryMatrix) -> list[int]:
    """Each column's 1-rows as a mask, parsed from one strided slice per column."""
    # the rows last to first as one string of binary digits, so that column
    # j, every m.cols-th digit from digit j on, puts row 0 in its lowest bit
    digits = bytearray()
    for row in reversed(m.bits):
        digits += bytes(row).translate(_DIGITS)
    return [int(digits[j :: m.cols], 2) for j in range(m.cols)]


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

    Builds the universal tree and reduces by each column's 1-set, widest
    columns first so infeasible instances fail fast.  The permutation is
    re-checked against every column before it is returned; a failed check
    raises :class:`RuntimeError`.
    """
    tree = PQTree.universal(m.rows)
    columns = _columns(m)
    for ones in sorted(columns, key=int.bit_count, reverse=True):
        reduced = pq_reduce(tree, ones)
        if reduced is None:
            return None
        tree = reduced
    perm = frontier(tree)
    if not _all_blocks(columns, perm):
        raise RuntimeError("PQ-tree produced a non-witnessing order")
    return perm
