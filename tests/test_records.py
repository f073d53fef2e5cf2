"""The plain record types: repr text, field order and immutability.

They are ``typing.NamedTuple`` classes, so building one is cheap at
import time and hashing or comparing one runs in C; what callers see of
them must not change.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from catnerve.euler import EulerResult
from catnerve.fincat import FinCategory, FunctorMap, Mor, ValidationReport, Violation
from catnerve.grothendieck import GrMorphism, GrObject
from catnerve.homotopy import ChainComplexQ, HomologyComparison, HomologyReport, chain_complex

_cat = FinCategory.build("P2", ["0", "1"], [("le", "0", "1")])
_report = HomologyReport((1,), (2, 1), Fraction(1), False)
_y12, _y1 = GrObject(("1", "2"), "y"), GrObject(("1",), "y")

RECORDS = [
    (Mor("f", "x", "y"), ("name", "dom", "cod"), "Mor(name='f', dom='x', cod='y')"),
    (Violation("identity", ("x",), "no identity"), ("rule", "subject", "message"),
     "Violation(rule='identity', subject=('x',), message='no identity')"),
    (ValidationReport(), ("violations", "isomorphism", "details"),
     "ValidationReport(violations=(), isomorphism=None, details=())"),
    (FunctorMap(_cat, _cat, {"0": "0"}, {"le": "le"}),
     ("source", "target", "object_map", "morphism_map"),
     "FunctorMap(source=FinCategory('P2', 2 objects, 3 morphisms), "
     "target=FinCategory('P2', 2 objects, 3 morphisms), object_map={'0': '0'}, morphism_map={'le': 'le'})"),
    (EulerResult(Fraction(1), (Fraction(1),), (Fraction(1),)),
     ("chi", "weighting", "coweighting", "reason"),
     "EulerResult(chi=Fraction(1, 1), weighting=(Fraction(1, 1),), "
     "coweighting=(Fraction(1, 1),), reason='')"),
    (ChainComplexQ((((0,),),), ()), ("levels", "boundaries"),
     "ChainComplexQ(levels=(((0,),),), boundaries=())"),
    (_report, ("betti", "basis_dims", "euler_top", "truncated"),
     "HomologyReport(betti=(1,), basis_dims=(2, 1), euler_top=Fraction(1, 1), truncated=False)"),
    (HomologyComparison(_report, _report, True, 0), ("left", "right", "equal", "compared_through"),
     "HomologyComparison(left=HomologyReport(betti=(1,), basis_dims=(2, 1), euler_top=Fraction(1, 1), "
     "truncated=False), right=HomologyReport(betti=(1,), basis_dims=(2, 1), euler_top=Fraction(1, 1), "
     "truncated=False), equal=True, compared_through=0)"),
    (_y12, ("labels", "obj", "name"), "GrObject(labels=('1', '2'), obj='y', name='y@1,2')"),
    (GrMorphism((0,), "id_y", _y12, _y1), ("phi", "component", "source", "target", "name"),
     "GrMorphism(phi=(0,), component='id_y', source=GrObject(labels=('1', '2'), obj='y', name='y@1,2'), "
     "target=GrObject(labels=('1',), obj='y', name='y@1'), name='id_y|y@1,2=>y@1')"),
]
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
def test_repr_and_field_order(record, fields, text):
    assert repr(record) == text
    assert type(record)._fields == fields
    assert [getattr(record, f) for f in fields] == list(record)


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
def test_immutable(record, fields, text):
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_methods():
    v = Violation("identity", ("x",), "object 'x' has no identity")
    assert ValidationReport().ok
    assert not ValidationReport((v,)).ok
    assert ValidationReport((v,)).messages() == ["identity: object 'x' has no identity"]
    assert ValidationReport(details=("checked 3 pairs",)).details == ("checked 3 pairs",)
    arrow = FinCategory.build("A", ["x", "y"], [("f", "x", "y")])
    cx = ChainComplexQ((((0,), (1,)), ((2,),)), ([{0: -1, 1: 1}],))
    assert cx.basis_dims == (2, 1)
    assert chain_complex(arrow) == cx  # objects x, y; then f, third in arrow.morphisms
    assert [arrow.objects[i] for (i,) in cx.levels[0]] == ["x", "y"]
    assert [arrow.morphisms[i].name for (i,) in cx.levels[1]] == ["f"]
    assert EulerResult(None, None, None).reason == ""


def test_gr_records_name_once_and_round_trip():
    m = GrMorphism((0,), "id_y", _y12, _y1)
    assert _y12.name == "y@1,2" and m.name == "id_y|y@1,2=>y@1"
    assert _y12 == GrObject(("1", "2"), "y") and hash(_y12) == hash(GrObject(("1", "2"), "y"))
    assert _y12 != _y1 and m != GrMorphism((0,), "id_y", _y12, _y12)
    for record in (_y12, m):
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)
