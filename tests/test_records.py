"""Value records: each is a named tuple of its fields, and the validating
ones check their arguments before the tuple is built."""

import pickle

import pytest

from pgq.graph import Graph, SrgCheck, _gq_walked, verify_srg
from pgq.incidence import (
    AxiomCheck,
    ExtractionResult,
    IncidenceStructure,
    extract_gq,
    gen_kneser_6_2,
    gen_shrikhande,
    verify_axioms,
)
from pgq.params import GQParams, SrgParams
from pgq.scan import ScanRange

from oracles import paley_graph
from test_cli import PGQ_FORM_CORPUS

#: The value records of pgq.
RECORD_CLASSES = (
    SrgCheck,
    AxiomCheck, ExtractionResult, IncidenceStructure,
    GQParams, SrgParams, ScanRange,
)

KNESER = gen_kneser_6_2()
GQ22 = extract_gq(KNESER, GQParams(2, 2)).structure

SAMPLES = [
    verify_srg(KNESER),
    SrgCheck(None, "not connected"),
    verify_axioms(GQ22),
    AxiomCheck(False, "iii", "point 0 is collinear with 2 points of line #3, expected exactly 1"),
    extract_gq(KNESER, GQParams(2, 2)),
    extract_gq(gen_shrikhande(), GQParams(3, 1)),
    GQ22,
    ExtractionResult(None),
    GQParams(3, 3),
    GQParams(2, 4),
    SrgParams(15, 6, 1, 3),
    ScanRange(2, 30),
]

GQ22_REPR = (
    "IncidenceStructure(points=15, lines=((0, 9, 14), (0, 10, 13), (0, 11, 12),"
    " (1, 6, 14), (1, 7, 13), (1, 8, 12), (2, 5, 14), (2, 7, 11), (2, 8, 10),"
    " (3, 5, 13), (3, 6, 11), (3, 8, 9), (4, 5, 12), (4, 6, 10), (4, 7, 9)), s=2, t=2)"
)

#: The reprs of SAMPLES, in order.
SAMPLE_REPRS = [
    "SrgCheck(params=SrgParams(v=15, k=6, lam=1, mu=3), failure=None)",
    "SrgCheck(params=None, failure='not connected')",
    "AxiomCheck(ok=True, axiom=None, witness=None)",
    "AxiomCheck(ok=False, axiom='iii',"
    " witness='point 0 is collinear with 2 points of line #3, expected exactly 1')",
    f"ExtractionResult(structure={GQ22_REPR}, witness_vertex=None, witness_claw=None, reason=None)",
    "ExtractionResult(structure=None, witness_vertex=0, witness_claw=3,"
    " reason='pseudo-GQ evidence: claw number 3 > t+1 = 2 at vertex 0')",
    GQ22_REPR,
    "ExtractionResult(structure=None, witness_vertex=None, witness_claw=None, reason=None)",
    "GQParams(s=3, t=3)",
    "GQParams(s=2, t=4)",
    "SrgParams(v=15, k=6, lam=1, mu=3)",
    "ScanRange(t_min=2, t_max=30)",
]


def test_samples_cover_every_record_class():
    assert {type(r) for r in SAMPLES} == set(RECORD_CLASSES)


def test_repr_is_pinned():
    assert [repr(r) for r in SAMPLES] == SAMPLE_REPRS


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_is_a_named_tuple(record):
    cls, values = type(record), tuple(record)
    assert values == tuple(getattr(record, name) for name in cls._fields)
    # The record is the tuple of its fields.
    assert record == values and not record != values
    assert hash(record) == hash(values) == hash(cls(*values))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)


def test_record_equality_is_tuple_equality_across_samples():
    # Records of two classes with equal fields are equal, as tuples are.
    for a in SAMPLES:
        for b in SAMPLES:
            assert (a == b) == (tuple(a) == tuple(b))
    assert GQParams(2, 4) == ScanRange(2, 4)


#: (class, arguments, the ValueError message) for each validating record.
VALUE_ERRORS = [
    (GQParams, (0, 2), "require s >= 1 and t >= 1, got (0, 2)"),
    (GQParams, (2.0, 2), "s must be an integer, got 2.0"),
    (GQParams, (2, True), "t must be an integer, got True"),
    (SrgParams, (15, 6, 1, "3"), "mu must be an integer, got '3'"),
    (SrgParams, (15, 6, 6, 3), "require 0 <= lam <= k-1, got lam=6, k=6"),
    (SrgParams, (15, 6, 1, 0), "require 1 <= mu <= k, got mu=0, k=6"),
    (SrgParams, (6, 6, 1, 3), "require k < v, got k=6, v=6"),
    (ScanRange, (2, 3.0), "t_min and t_max must be integers"),
    (ScanRange, (1, 3), "require 2 <= t_min <= t_max, got [1, 3]"),
    (ScanRange, (3, 2), "require 2 <= t_min <= t_max, got [3, 2]"),
    (IncidenceStructure, (0, [], 1, 1), "point count must be a positive integer, got 0"),
    (IncidenceStructure, (3, [], 0, 1), "require s >= 1 and t >= 1, got (0, 1)"),
    (IncidenceStructure, (3, [(0, 0)], 1, 1), "line #0 repeats a point"),
    (IncidenceStructure, (3, [(0, 3)], 1, 1), "line #0 mentions a point out of range"),
    (IncidenceStructure, (True, [], 1, 1), "point count must be a positive integer, got True"),
    (IncidenceStructure, (3, [(0, 1), (1, 2)], 1.5, 1), "s must be an integer, got 1.5"),
    (IncidenceStructure, (3, [], 1, True), "t must be an integer, got True"),
    (IncidenceStructure, (3, [(0.5, 1), (1, 2)], 1, 1), "line #0 mentions a point that is not an integer"),
    (IncidenceStructure, (3, [(0, 1), (True, 2)], 1, 1), "line #1 mentions a point that is not an integer"),
    (IncidenceStructure, (3, [(0, "1")], 1, 1), "line #0 mentions a point that is not an integer"),
]


@pytest.mark.parametrize("cls,args,message", VALUE_ERRORS, ids=[c.__name__ for c, _, _ in VALUE_ERRORS])
def test_validating_record_raises_its_message(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


#: Strongly regular graphs: the PGQ-form corpus, with lam = 0 and mu = k
#: among the bipartite ones, and two not of PGQ form.
SRG_CORPUS = {
    **{name: g for name, (g, _, _) in PGQ_FORM_CORPUS.items()},
    "c5": Graph(5, [(i, (i + 1) % 5) for i in range(5)]),
    "paley13": paley_graph(13),
}


@pytest.mark.parametrize("g", SRG_CORPUS.values(), ids=SRG_CORPUS.keys())
def test_proved_records_equal_their_validated_rebuild(g):
    # verify_srg and _gq_walked build their records with _make, on proofs
    # that the constructor's checks hold; the constructors accept them.
    q = verify_srg(g).params
    assert type(q) is SrgParams and SrgParams(*q) == q
    p = _gq_walked(g)[0]
    assert p is None or (type(p) is GQParams and GQParams(*p) == p)
