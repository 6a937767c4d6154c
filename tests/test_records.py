"""The value classes behave as the dataclasses they replace.

Every record is compared with its dataclass twin from ``oracle``: the same
class body, with ``__init__``, ``==``, hash, repr and frozen assignment
generated by :mod:`dataclasses` instead.
"""

import dataclasses

import pytest

import oracle
from polysimplex.construct import SolutionDescriptor
from polysimplex.hopf import GroupTable, HopfInstance, cyclic_group, group_algebra
from polysimplex.rings import RATIONAL
from polysimplex.setmaps import FiniteMap, LiftOutcome
from polysimplex.simplicial import ContractionProgram, Step, compile_polygon
from polysimplex.tensor import Tensor, identity_tensor
from polysimplex.verify import VerificationReport


def _cases():
    """(record, twin, every init argument, count of arguments without default)."""
    h = group_algebra(cyclic_group(2))
    lhs, _ = compile_polygon(4)
    step = lhs.steps[0]
    fmap = FiniteMap(2, 1, 1, ((1,), (0,)))
    report = VerificationReport("eq", True, 0, (2, 1, 1), (2, 1, 1))
    return [
        (Tensor, oracle.TensorTwin, (2, 1, 1, {((0,), (1,)): 1, ((1,), (0,)): 0}, RATIONAL), 3),
        (FiniteMap, oracle.FiniteMapTwin, (2, 1, 1, ((1,), (0,))), 4),
        (LiftOutcome, oracle.LiftOutcomeTwin, (fmap, report, False), 2),
        (Step, oracle.StepTwin, (step.tag, step.face, step.inputs, step.outputs), 4),
        (ContractionProgram, oracle.ContractionProgramTwin, (lhs.steps,), 1),
        (GroupTable, oracle.GroupTableTwin, (cyclic_group(3).table,), 1),
        (HopfInstance, oracle.HopfInstanceTwin, (2, h.unit, h.counit, h.product, h.coproduct, h.antipode, "k"), 5),
        (SolutionDescriptor, oracle.SolutionDescriptorTwin, ("polygon", 3, identity_tensor(2, 1), ("id",)), 3),
        (
            VerificationReport,
            oracle.VerificationReportTwin,
            ("eq", False, 1, (2, 1, 1), (2, 1, 1), {"out": [0]}, {"unit": True}),
            5,
        ),
    ]


CASES = _cases()
RECORDS = pytest.mark.parametrize(
    "record, twin, args, required", CASES, ids=[case[0].__name__ for case in CASES]
)


def _hash(obj):
    """The hash, or TypeError for an unhashable record (a report, whose
    ``details`` is a dict, or one holding a report)."""
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def _init_names(twin):
    return [f.name for f in dataclasses.fields(twin) if f.init]


@RECORDS
def test_construction_matches_twin(record, twin, args, required):
    kwargs = dict(zip(_init_names(twin), args))
    for build in (lambda c: c(*args), lambda c: c(**kwargs), lambda c: c(*args[:required])):
        assert vars(build(record)) == vars(build(twin))
    assert record(*args) == record(**kwargs) == record(*args[:1], **dict(list(kwargs.items())[1:]))


@RECORDS
def test_default_factory_is_fresh(record, twin, args, required):
    for f in dataclasses.fields(twin):
        if f.default_factory is not dataclasses.MISSING:
            a, b = record(*args[:required]), record(*args[:required])
            assert getattr(a, f.name) == f.default_factory()
            assert getattr(a, f.name) is not getattr(b, f.name)


@RECORDS
def test_eq_and_hash_match_twin(record, twin, args, required):
    assert record(*args) == record(*args)
    assert (record(*args) == record(*args[:required])) == (twin(*args) == twin(*args[:required]))
    assert record(*args).__eq__(object()) is NotImplemented
    assert _hash(record(*args)) == _hash(twin(*args))
    assert _hash(record(*args[:required])) == _hash(twin(*args[:required]))


def test_report_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(VerificationReport("eq", True, 0, (1, 0, 0), (1, 0, 0)))


@RECORDS
def test_repr_matches_twin(record, twin, args, required):
    assert repr(record(*args)) == repr(twin(*args))
    assert repr(record(*args[:required])) == repr(twin(*args[:required]))


@RECORDS
def test_assignment_matches_twin(record, twin, args, required):
    frozen = twin.__dataclass_params__.frozen
    for name in _init_names(twin):
        for obj in (record(*args), twin(*args)):
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
                with pytest.raises(AttributeError):
                    obj.unknown = None
            else:
                setattr(obj, name, None)
                assert getattr(obj, name) is None


@RECORDS
def test_argument_errors_match_twin(record, twin, args, required):
    name = _init_names(twin)[0]
    for bad in (
        lambda c: c(*args, None),
        lambda c: c(*args[: required - 1]),
        lambda c: c(*args, unknown=None),
        lambda c: c(*args, **{name: args[0]}),
    ):
        for cls in (record, twin):
            with pytest.raises(TypeError):
                bad(cls)


@RECORDS
def test_post_init_is_looked_up_per_call(record, twin, args, required, monkeypatch):
    if not hasattr(record, "__post_init__"):
        return
    calls = []
    original = record.__post_init__

    def traced(self):
        calls.append(type(self))
        original(self)

    monkeypatch.setattr(record, "__post_init__", traced)
    record(*args)
    twin(*args)
    assert calls == [record, twin]


def test_trusted_constructors_fill_the_same_fields():
    entries = {((0,), (1,)): RATIONAL.one, ((1,), (0,)): RATIONAL.one}
    for cls in (Tensor, oracle.TensorTwin):
        t = cls._trusted(2, 1, 1, entries, RATIONAL)
        assert type(t) is cls
        assert vars(t) == vars(Tensor(2, 1, 1, entries))
        assert t == Tensor(2, 1, 1, entries) and repr(t) == repr(Tensor(2, 1, 1, entries))
    table = ((1,), (0,))
    for cls in (FiniteMap, oracle.FiniteMapTwin):
        fmap = cls._trusted(2, 1, 1, table)
        assert type(fmap) is cls
        assert vars(fmap) == vars(cls(2, 1, 1, table))
        assert fmap == cls(2, 1, 1, table) and hash(fmap) == hash(FiniteMap(2, 1, 1, table))
