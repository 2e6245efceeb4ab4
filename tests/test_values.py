"""The value-class contract: construction, equality, hash, repr, immutability, copies.

The twelve public value classes behave as frozen dataclasses did: ``__init__``
takes the fields by position or keyword, ``==`` and ``hash`` compare the
fields of two instances of the same class, ``repr`` is ``Name(field=value, ...)``,
and setting or deleting an attribute raises ``FrozenInstanceError``.
A field holding a numpy array makes ``==`` ambiguous between distinct arrays
and ``hash`` raise ``TypeError``, so those classes are compared on shared
fields only.
"""

from __future__ import annotations

import copy
import pickle
from collections import namedtuple
from dataclasses import FrozenInstanceError
from math import pi

import numpy as np
import pytest

from hardykit import (
    BlochDirection,
    DeterministicStrategy,
    FeasibilityResult,
    FiniteMeasure,
    Observable,
    QuantumState,
    QVector,
    Scenario,
    SchmidtState,
    SearchConfig,
    SearchResult,
    WitnessReport,
    planar_scenario,
    spin_observable,
)
from hardykit.qcore import _trusted

_Q = QVector(0.1, 0.2, 0.3, 0.4)
_REFERENCE = planar_scenario(0.0, pi / 2, 3 * pi / 4, pi / 4)
_Z, _X = spin_observable(BlochDirection(0.0, 0.0)), spin_observable(BlochDirection(pi / 2, 0.0))
_QUTRIT = Observable(3, ((1.0, np.diag([1.0, 0.0, 0.0])), (-1.0, np.diag([0.0, 1.0, 1.0]))))
_SPIN_Z = ((1.0, np.diag([1.0, 0.0])), (-1.0, np.diag([0.0, 1.0])))
_SINGLET = [0.0, 2**-0.5, -(2**-0.5), 0.0]

# A class, its field names, positional arguments, the arguments of an unequal
# instance, its literal repr (None: only the generic format is checked) and the
# defaults of the trailing fields that may be left out.
Spec = namedtuple("Spec", "cls fields args other repr_text defaults", defaults=(None, {}))

SPECS = [
    Spec(QVector, ("q1", "q2", "q3", "q4", "q5", "q6"), (0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.5),
         "QVector(q1=0.1, q2=0.2, q3=0.3, q4=0.4, q5=None, q6=None)", {"q5": None, "q6": None}),
    Spec(FiniteMeasure, ("weights", "a", "b", "c", "d"),
         (np.array([1.0]), [True], [False], [True], [False]),
         (np.array([1.0]), [False], [False], [True], [False])),
    Spec(DeterministicStrategy, ("x1", "x2", "y1_plus", "y2_plus"), (1, -1, True, False),
         (1, 0, True, False), "DeterministicStrategy(x1=1, x2=-1, y1_plus=True, y2_plus=False)"),
    Spec(FeasibilityResult, ("feasible", "witness", "residual"), (True, (0.5, 0.5), 0.0),
         (False, None, 0.25),
         "FeasibilityResult(feasible=True, witness=(0.5, 0.5), residual=0.0)"),
    Spec(BlochDirection, ("theta", "phi"), (1.0, 2.0), (1.0, 2.5),
         "BlochDirection(theta=1.0, phi=2.0)"),
    Spec(QuantumState, ("dims", "kind", "data"), ((2, 2), "pure", _SINGLET),
         ((2, 2), "density", np.eye(4) / 4.0)),
    Spec(Observable, ("dim", "outcomes"), (2, _SPIN_Z), (3, ((1.0, np.eye(3)),))),
    Spec(Scenario, ("x1", "y1", "x2", "y2"), (_Z, _X, _Z, _X), (_QUTRIT, _QUTRIT, _Z, _X)),
    Spec(WitnessReport, ("qvec", "generalized_value", "ch_value", "classification"),
         (_Q, 0.2, 0.2, "NoViolation"), (_Q, 0.2, 0.3, "NoViolation"),
         "WitnessReport(qvec=QVector(q1=0.1, q2=0.2, q3=0.3, q4=0.4, q5=None, q6=None), "
         "generalized_value=0.2, ch_value=0.2, classification='NoViolation')"),
    Spec(SchmidtState, ("angle",), (0.3,), (0.4,), "SchmidtState(angle=0.3)"),
    Spec(SearchConfig, ("restarts", "seed"), (5, 7), (5, 8), "SearchConfig(restarts=5, seed=7)",
         {"restarts": 20, "seed": 0}),
    Spec(SearchResult, ("objective", "value", "angles", "scenario", "planar"),
         ("maximize_upper", 1.2, (0.0, 1.0, 2.0, 3.0), _REFERENCE, True),
         ("minimize_lower", 1.2, (0.0, 1.0, 2.0, 3.0), _REFERENCE, True)),
]


def same(a, b) -> bool:
    """Equal by value: arrays entry by entry, tuples and value classes field by field."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    if hasattr(a, "__dict__") and not isinstance(a, type):
        return type(a) is type(b) and vars(a).keys() == vars(b).keys() and all(
            same(value, vars(b)[name]) for name, value in vars(a).items()
        )
    return a == b


def hashable(args) -> bool:
    try:
        hash(tuple(args))
    except TypeError:
        return False
    return True


def field_values(value, spec: Spec) -> tuple:
    return tuple(getattr(value, name) for name in spec.fields)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.cls.__name__)
class TestValueClass:
    def test_positional_and_keyword_construction(self, spec):
        cls, fields = spec.cls, spec.fields
        value = cls(*spec.args)
        assert same(value, cls(**dict(zip(fields, spec.args))))
        required = spec.args[: len(fields) - len(spec.defaults)]
        for name, default in spec.defaults.items():
            assert getattr(cls(*required), name) == default
        full = field_values(value, spec)
        assert same(value, cls(*full))
        assert same(value, cls(**dict(zip(fields, full))))

    def test_missing_or_unknown_argument(self, spec):
        cls, args = spec.cls, spec.args
        required = len(spec.fields) - len(spec.defaults)
        if required:
            with pytest.raises(TypeError):
                cls(*args[: required - 1])
        with pytest.raises(TypeError):
            cls(*field_values(cls(*args), spec), None)
        with pytest.raises(TypeError):
            cls(*args, unknown=1)
        with pytest.raises(TypeError):
            cls(*args, **{spec.fields[0]: args[0]})

    def test_equality_and_hash_by_fields(self, spec):
        cls = spec.cls
        value = cls(*spec.args)
        twin = copy.copy(value)
        assert twin is not value and twin == value and not twin != value
        assert value != cls(*spec.other)
        assert value != field_values(value, spec)
        if hashable(spec.args):
            assert value == cls(*spec.args)
            assert hash(value) == hash(cls(*spec.args)) == hash(field_values(value, spec))
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_no_equality_across_classes(self, spec):
        value = spec.cls(*spec.args)
        derived = type("Derived", (spec.cls,), {})(*spec.args)
        assert value != derived and derived != value
        assert value != SchmidtState(0.3) or spec.cls is SchmidtState

    def test_repr(self, spec):
        value = spec.cls(*spec.args)
        generic = ", ".join(f"{name}={getattr(value, name)!r}" for name in spec.fields)
        assert repr(value) == f"{spec.cls.__qualname__}({generic})"
        if spec.repr_text is not None:
            assert repr(value) == spec.repr_text

    def test_frozen(self, spec):
        value = spec.cls(*spec.args)
        before = dict(vars(value))
        for name in (spec.fields[0], spec.fields[-1], "unknown"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert vars(value).keys() == before.keys()
        assert all(vars(value)[name] is before[name] for name in before)

    def test_deepcopy_and_pickle_round_trip(self, spec):
        value = spec.cls(*spec.args)
        for duplicate in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(duplicate) is spec.cls
            assert same(duplicate, value)
            assert repr(duplicate) == repr(value)
            with pytest.raises(FrozenInstanceError):
                setattr(duplicate, spec.fields[0], None)


class TestScenarioSides:
    def test_sides_stay_out_of_equality_and_repr(self):
        fields = {name: getattr(_REFERENCE, name) for name in ("x1", "y1", "x2", "y2")}
        other_sides = tuple(side[::-1] for side in _REFERENCE._sides)
        rebuilt = _trusted(Scenario, **fields, _sides=other_sides)
        assert rebuilt == _REFERENCE
        assert repr(rebuilt) == repr(_REFERENCE)
        assert "_sides" not in repr(_REFERENCE)

    def test_sides_survive_copies(self):
        for duplicate in (copy.deepcopy(_REFERENCE), pickle.loads(pickle.dumps(_REFERENCE))):
            assert same(duplicate._sides, _REFERENCE._sides)
            assert duplicate.trichotomic is False

    def test_sides_are_not_an_argument(self):
        with pytest.raises(TypeError):
            Scenario(_Z, _X, _Z, _X, _REFERENCE._sides)
        with pytest.raises(TypeError):
            Scenario(_Z, _X, _Z, _X, _sides=_REFERENCE._sides)
