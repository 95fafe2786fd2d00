"""`Record` against a frozen dataclass built from the same fields.

Every record class of the package gets a twin from
``dataclasses.make_dataclass(..., frozen=True)`` with the same fields,
defaults and ``__post_init__``; a field named in ``_hidden`` becomes
``field(compare=False, repr=False)``.  Seeded instances of the two must
agree on ``==``, ``!=``, ``hash``, ``repr`` and the stored fields, on every
way of calling the constructor, on the errors of a bad call, and on
refusing assignment and deletion.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import pkgutil
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import hodgecalc
from hodgecalc.errors import DimensionMismatch, NotPolarized
from hodgecalc.horizontal import PolarizedHS, phs_weight1, phs_weight2
from hodgecalc.matrices import Mat
from hodgecalc.normpos import NormPositivityModel
from hodgecalc.records import Record
from hodgecalc.schemas import load_fixture

SRC = Path(hodgecalc.__file__).resolve().parent.parent

for _module in pkgutil.iter_modules(hodgecalc.__path__):
    importlib.import_module(f"hodgecalc.{_module.name}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted({c for c in _subclasses(Record) if c.__module__.startswith("hodgecalc.")},
                 key=lambda c: (c.__module__, c.__name__))


class Pair(Record):
    first: object
    second: object = "b"


class Quad(Pair):
    # a base's fields come first; more than one field has a default
    third: object = 3
    fourth: object = (4,)
    _hidden = ("second",)


class OtherPair(Record):
    first: object
    second: object = "b"


CLASSES = RECORDS + [Pair, Quad, OtherPair]


def spec(cls):
    """(fields, defaults, hidden) read off the class itself: annotations in
    order, bases first; a class attribute of a field's name is its default."""
    fields = []
    for klass in reversed(cls.__mro__):
        fields += [f for f in vars(klass).get("__annotations__", ()) if f not in fields]
    defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
    return fields, defaults, cls._hidden


METHODS = (types.FunctionType, property, classmethod, staticmethod)


def twin(cls):
    """The frozen dataclass with the fields and methods of `cls`."""
    fields, defaults, hidden = spec(cls)
    namespace = {k: v for k, v in vars(cls).items() if isinstance(v, METHODS)}
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f, object, dataclasses.field(default=defaults.get(f, dataclasses.MISSING),
                                       compare=f not in hidden, repr=f not in hidden))
         for f in fields],
        frozen=True, namespace=namespace)


def _pool_value(rng):
    return rng.choice([0, 1, True, -3, "", "a", None, Fraction(2, 3), (), (1, "b"),
                       (Fraction(1, 2), None), frozenset({1}), [1, 2], {"k": 1}])


def _valid_phs():
    return [phs_weight1(1), phs_weight1(2), phs_weight2(1, 1), phs_weight2(1, 2)]


def _valid_models():
    return [load_fixture("grassmannian-g24").obj,
            NormPositivityModel(1, 1, 1, Mat.from_json([[1]])),
            NormPositivityModel(1, 1, 1, Mat.from_json([[2]])),
            NormPositivityModel(2, 1, 1, Mat.from_json([[1, 0]]))]


VALID = {PolarizedHS: _valid_phs, NormPositivityModel: _valid_models}


def value_rows(cls, seed, count=12):
    """Seeded rows of field values; a class that checks its fields in
    ``__post_init__`` gets the fields of valid instances."""
    rng = random.Random(seed)
    fields = spec(cls)[0]
    if cls in VALID:
        valid = VALID[cls]()
        return [tuple(getattr(obj, f) for f in fields)
                for obj in (rng.choice(valid) for _ in range(count))]
    rows = [tuple(_pool_value(rng) for _ in fields) for _ in range(count)]
    return rows + rows[:2]       # some rows repeat, so some pairs are equal


def _outcome(fn):
    try:
        return "value", fn()
    except Exception as exc:                # noqa: BLE001  the type is the answer
        return "raises", type(exc)


def _ids(classes):
    return [c.__name__ for c in classes]


def test_every_record_class_is_found():
    names = {c.__name__ for c in RECORDS}
    assert len(RECORDS) >= 28
    assert {"CheckResult", "LmhsReport", "GradedEnd", "PolarizedHS", "SmithForm",
            "ProblemDocument", "WeightFiltration"} <= names


@pytest.mark.parametrize("cls", CLASSES, ids=_ids(CLASSES))
def test_equality_hash_and_repr_match_the_dataclass(cls):
    dc = twin(cls)
    rows = value_rows(cls, seed=len(cls.__name__))
    records = [cls(*row) for row in rows]
    twins = [dc(*row) for row in rows]
    for rec, tw in zip(records, twins):
        assert repr(rec) == repr(tw)
        assert vars(rec) == vars(tw) and list(vars(rec)) == list(vars(tw))
        assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(tw))
        assert rec != tw and not rec == tw and rec != 5
    for (a, ta), (b, tb) in zip(zip(records, twins), zip(records[1:] + records[:1],
                                                          twins[1:] + twins[:1])):
        assert (a == b, a != b) == (ta == tb, ta != tb)
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (records[i] == records[j]) == (twins[i] == twins[j])


@pytest.mark.parametrize("cls", [c for c in CLASSES if c._hidden],
                         ids=_ids(c for c in CLASSES if c._hidden))
def test_a_hidden_field_is_never_compared_or_printed(cls):
    dc = twin(cls)
    fields, _, hidden = spec(cls)
    for row in value_rows(cls, seed=7):
        other = tuple(object() if f in hidden else v for f, v in zip(fields, row))
        a, b, ta, tb = cls(*row), cls(*other), dc(*row), dc(*other)
        assert (a == b, a != b) == (ta == tb, ta != tb) == (True, False)
        assert repr(a) == repr(b) == repr(ta)
        assert _outcome(lambda: hash(a) == hash(b)) == _outcome(lambda: hash(ta) == hash(tb))
        assert all(getattr(b, f) is getattr(tb, f) for f in hidden)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids(CLASSES))
def test_positional_keyword_and_default_forms_match(cls):
    dc = twin(cls)
    fields, defaults, _ = spec(cls)
    required = [f for f in fields if f not in defaults]
    for row in value_rows(cls, seed=11, count=4):
        values = dict(zip(fields, row))
        forms = [((), values)]
        forms += [(row[:k], dict(list(values.items())[k:])) for k in range(len(fields) + 1)]
        forms += [(row[:k], {}) for k in range(len(required), len(fields))]
        for args, kwargs in forms:
            rec, tw = cls(*args, **kwargs), dc(*args, **kwargs)
            assert repr(rec) == repr(tw) and vars(rec) == vars(tw)
            assert list(vars(rec)) == fields
            assert (rec == cls(*row)) == (tw == dc(*row))


def test_records_of_different_classes_are_unequal():
    for a, b in [(Pair, OtherPair), (Pair, Quad), (OtherPair, Quad)]:
        assert (a(1) == b(1), a(1) != b(1)) == (twin(a)(1) == twin(b)(1),
                                                twin(a)(1) != twin(b)(1)) == (False, True)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids(CLASSES))
def test_a_bad_call_raises_type_error_like_the_dataclass(cls):
    dc = twin(cls)
    fields, defaults, _ = spec(cls)
    row = value_rows(cls, seed=13, count=1)[0]
    required = [f for f in fields if f not in defaults]
    calls = [(row + (None,), {}),                              # one field too many
             (row, {"no_such_field": 1}),                      # an unknown keyword
             (row[:-1], {"no_such_field": 1}),                 # ... in place of a field
             (row, {fields[0]: row[0]})]                       # a field given twice
    calls += [(tuple(row[fields.index(g)] for g in required if g != f), {})
              for f in required]                               # each required one missing
    calls += [((), {g: row[fields.index(g)] for g in required if g != f})
              for f in required]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            dc(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids(CLASSES))
def test_assignment_and_deletion_raise_attribute_error(cls):
    dc = twin(cls)
    fields = spec(cls)[0]
    row = value_rows(cls, seed=17, count=1)[0]
    rec, tw = cls(*row), dc(*row)
    for name in fields + ["not_a_field"]:
        for obj in (rec, tw):
            with pytest.raises(AttributeError) as assigned:
                setattr(obj, name, 1)
            with pytest.raises(AttributeError) as deleted:
                delattr(obj, name)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            assert str(deleted.value) == f"cannot delete field {name!r}"
    assert vars(rec) == vars(tw) == dict(zip(fields, row))


def test_post_init_still_refuses_bad_fields():
    phs = phs_weight1(1)
    pieces = dict(phs.pieces)
    pieces.pop(next(iter(pieces)))
    model = load_fixture("grassmannian-g24").obj
    for cls, row, error in [
            (PolarizedHS, (phs.dim, phs.weight, phs.q, pieces), NotPolarized),
            (NormPositivityModel, (model.dim_t + 1, model.rank_e, model.rank_g, model.a),
             DimensionMismatch)]:
        with pytest.raises(error):
            twin(cls)(*row)
        with pytest.raises(error):
            cls(*row)
        with pytest.raises(error):
            cls(**dict(zip(spec(cls)[0], row)))


def test_importing_the_cli_loads_no_dataclasses():
    # the records generate no code, so the CLI has no use for the module
    # and none of the code-reading modules it imports
    probe = ("import sys, hodgecalc.cli; "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
             "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out == "[]\n"
