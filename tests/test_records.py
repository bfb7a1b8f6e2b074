"""Value semantics of the package's immutable records.

Every record type is listed with sample field values in its field order,
so the table also pins the field names and their order: positional and
keyword construction must agree, and ``repr`` must list the fields in
order as ``Name(field=value, ...)``.
"""

import copy
import pickle
import weakref

import pytest

from pathecc.asteroidal import KatWitness
from pathecc.central_path import Certificate, Dichotomy, ImprovedPath, Shortened
from pathecc.eccentricity import PeResult
from pathecc.graphs import Graph
from pathecc.pqtree import BinaryMatrix, Leaf, PNode, PQTree, QNode
from pathecc.star_c1p import OrderingWitness
from pathecc.suite import Counterexample, HuntResult, PropertyReport, PropertyResult

LEAVES = (Leaf(0, 1), Leaf(1, 2), Leaf(2, 4))
KAT = KatWitness((0, 2, 4), 1, ((0, 1, 2), (0, 5, 4), (2, 3, 4)))
WITNESS = OrderingWitness((1, 0, 2), frozenset({1}))
RESULT = PropertyResult("theorem1", 3, 1, (("Bw", "1-AT-free but pe=2"),))
COUNTER = Counterexample("Bw", WITNESS, 2, (0,))

# (type, {field: value} in field order)
RECORDS = [
    (Graph, {"n": 3, "adj_masks": (2, 5, 2)}),
    (BinaryMatrix, {"rows": 2, "cols": 3, "bits": ((1, 0, 1), (1, 1, 0))}),
    (Leaf, {"row": 2, "leaves": 4}),
    (PNode, {"children": LEAVES[:2], "leaves": 3}),
    (QNode, {"children": LEAVES, "leaves": 7}),
    (PQTree, {"root": PNode(LEAVES, 7)}),
    (OrderingWitness, {"mu": (1, 0, 2), "diagonal": frozenset({1})}),
    (KatWitness, {"triple": (0, 2, 4), "k": 1, "paths": ((0, 1, 2), (0, 5, 4), (2, 3, 4))}),
    (PeResult, {"value": 1, "witness": (0, 1)}),
    (ImprovedPath, {"path": (0, 1, 2)}),
    (Shortened, {"path": (0, 1)}),
    (Certificate, {"witness": KAT}),
    (Dichotomy, {"path": (0, 1), "witness": None}),
    (Dichotomy, {"path": None, "witness": KAT}),
    (PropertyResult, {"property_id": "theorem1", "checked": 3, "skipped": 1,
                      "violations": (("Bw", "1-AT-free but pe=2"),)}),
    (PropertyReport, {"results": (RESULT,), "wall_time_s": 0.25}),
    (Counterexample, {"graph6": "Bw", "witness": WITNESS, "pe_value": 2, "pe_witness": (0,)}),
    (HuntResult, {"searched": 10, "with_witness": 4, "counterexample": COUNTER, "skipped": 1}),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(RECORDS)]


def test_every_record_type_is_listed():
    assert len({cls for cls, _ in RECORDS}) == 17


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields):
    a = cls(*fields.values())
    b = cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert [getattr(a, f) for f in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_a_record_never_equals_the_tuple_of_its_fields(cls, fields):
    r = cls(**fields)
    values = tuple(fields.values())
    assert r != values and values != r
    assert not r == values


def test_records_of_different_types_with_equal_fields_differ():
    p = (0, 1, 2)
    assert ImprovedPath(p) != Shortened(p)
    assert Shortened(p) != ImprovedPath(p)
    assert PNode(LEAVES, 7) != QNode(LEAVES, 7)
    assert ImprovedPath(p) == ImprovedPath(p)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    r = cls(**fields)
    for f in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(r, f, 0)
        with pytest.raises(AttributeError):
            delattr(r, f)
    assert r == cls(**fields)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_are_slotted(cls, fields):
    assert not hasattr(cls(**fields), "__dict__")


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_pickle_round_trips_to_an_equal_record(cls, fields, protocol):
    r = cls(**fields)
    back = pickle.loads(pickle.dumps(r, protocol))
    assert type(back) is cls and back == r
    assert copy.copy(r) == r and copy.deepcopy(r) == r


@pytest.mark.parametrize("cls, fields", RECORDS[1:], ids=IDS[1:])
def test_repr_keeps_the_dataclass_format(cls, fields):
    body = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


def test_repr_of_nested_records():
    # such reprs appear in RuntimeError messages and in pinned tree digests
    assert repr(WITNESS) == "OrderingWitness(mu=(1, 0, 2), diagonal=frozenset({1}))"
    assert repr(PQTree(QNode(LEAVES, 7))) == (
        "PQTree(root=QNode(children=(Leaf(row=0, leaves=1), Leaf(row=1, leaves=2), "
        "Leaf(row=2, leaves=4)), leaves=7))"
    )
    assert repr(Graph(3, (2, 5, 2))) == "Graph(n=3, m=2)"


def test_graphs_can_be_weakly_referenced():
    g = Graph(3, (2, 5, 2))
    ref = weakref.ref(g)
    assert ref() is g
    del g
    assert ref() is None
