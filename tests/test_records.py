"""Value records: each behaves like a frozen dataclass with its fields."""

import pickle

import pytest

from pgq._record import Record
from pgq.graph import SrgCheck, verify_srg
from pgq.incidence import (
    AxiomCheck,
    ExtractionResult,
    extract_gq,
    gen_kneser_6_2,
    gen_shrikhande,
    verify_axioms,
)
from pgq.params import GQParams, SrgParams
from pgq.scan import ScanRange

from oracles import RECORD_CLASSES, RECORD_TWINS

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


def _values(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


def _twin(record):
    return RECORD_TWINS[type(record)](*_values(record))


def test_samples_cover_every_record_class():
    assert {type(r) for r in SAMPLES} == set(RECORD_CLASSES)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_behaves_like_its_dataclass_twin(record):
    cls, values, twin = type(record), _values(record), _twin(record)
    again, twin_again = cls(*values), _twin(record)
    assert repr(record) == repr(twin)
    assert bool(record) == bool(twin)
    assert (record == again, record != again) == (twin == twin_again, twin != twin_again)
    assert (record == values, record != values) == (twin == values, twin != values)
    assert record != values and not record == values
    assert record != twin and twin != record
    # Equal fields do not make instances of two classes equal.
    other = type("Other", (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    assert (record == other(*values), record != other(*values)) == (False, True)
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(again)
    for obj in (record, twin):
        name = cls.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = None
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj


def test_record_equality_matches_twin_across_samples():
    for a in SAMPLES:
        for b in SAMPLES:
            assert (a == b) == (type(a) is type(b) and _twin(a) == _twin(b))
