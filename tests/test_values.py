"""The value-class contract: construction, equality, hash, repr, immutability, copies.

The twelve public value classes behave as frozen dataclasses did: ``__init__``
takes the fields by position or keyword, ``==`` and ``hash`` compare the
fields of two instances of the same class, ``repr`` is ``Name(field=value, ...)``,
and setting or deleting an attribute raises ``FrozenInstanceError``.
``==`` compares fields that hold numpy arrays by shape and entries, so two
separately built instances with equal arrays are equal; ``hash`` of such an
instance raises ``TypeError``.
"""

from __future__ import annotations

import copy
import pickle
from collections import namedtuple
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario, random_state
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
    hardy_observables,
    lhv_feasible,
    observable_from_dict,
    optimize_violation,
    planar_scenario,
    q_vector,
    scenario_from_dict,
    scenario_to_dict,
    spin_observable,
    werner_state,
    witness_report,
)
from hardykit.qcore import _density_tensor, _trusted

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
        assert value == cls(*spec.args) and not value != cls(*spec.args)
        if hashable(spec.args):
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


# Builders of instances whose fields hold arrays of more than one entry, with an
# argument and a different one.
_ARRAY_BUILDERS = {
    "FiniteMeasure": (lambda w: FiniteMeasure(np.array([w, 1.0 - w]), [True, False], [False, True],
                                              [True, True], [False, False]), 0.25, 0.5),
    "QuantumState": (werner_state, 0.5, 0.75),
    "Observable": (lambda theta: spin_observable(BlochDirection(theta, 0.0)), 0.5, 1.0),
    "Scenario": (lambda a: planar_scenario(0.0, pi / 2, a, pi / 4), 1.0, 2.0),
    "SearchResult": (lambda a: SearchResult("maximize_upper", 1.2, (0.0, a), planar_scenario(
        0.0, pi / 2, a, pi / 4), True), 1.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_BUILDERS))
def test_separately_built_arrays_compare_by_entries(name):
    build, arg, other = _ARRAY_BUILDERS[name]
    value = build(arg)
    assert value == build(arg) and not value != build(arg)
    assert value != build(other) and not value == build(other)
    with pytest.raises(TypeError):
        hash(value)


def test_scalar_arguments_of_any_number_type_act_as_floats():
    # One rule for scalars: any real number is read as a float (strings, booleans
    # and None are refused; see the error table).
    for number in (int, np.int64, np.float64, Fraction):
        half, one = number(1) / number(2), number(1)
        schmidt = SchmidtState(number(0))
        assert type(schmidt.angle) is float and repr(schmidt) == "SchmidtState(angle=0.0)"
        assert repr(BlochDirection(one, half)) == "BlochDirection(theta=1.0, phi=0.5)"
        assert werner_state(half) == werner_state(0.5)
        assert planar_scenario(number(0), one, half, number(2)) == planar_scenario(0.0, 1.0, 0.5, 2.0)


def _evaluated(state: QuantumState, scenario: Scenario) -> Scenario:
    q_vector(state, scenario)  # builds a spin scenario's _stack and _sides, and stores no _kept
    return scenario


def _hardy_evaluated(schmidt: SchmidtState) -> Scenario:
    # hardy_observables records (state, marginals, table, q) as _kept; q_vector reads it back.
    return _evaluated(schmidt.state(), hardy_observables(schmidt))


def _read(scenario: Scenario) -> Scenario:
    scenario.x1  # builds all four fields of a spin scenario
    return scenario


def _with_state(schmidt: SchmidtState) -> SchmidtState:
    schmidt.state()  # the _state the SchmidtState built with its value
    return schmidt


def _angles(count: int):
    return st.lists(st.floats(-7.0, 7.0), min_size=count, max_size=count)


_SEEDS = st.integers(0, 2**32 - 1)
# Every value class, built every way the package builds it: validated, trusted,
# spin (before and after the first read of its fields), decoded and evaluated.
_VALUES = st.one_of(
    st.sampled_from(SPECS).map(lambda spec: spec.cls(*spec.args)),
    st.floats(0.0, 1.0).map(werner_state),
    st.floats(0.0, pi / 4).map(lambda angle: SchmidtState(angle).state()),
    st.floats(0.0, pi / 4).map(lambda angle: _with_state(SchmidtState(angle))),
    st.builds(lambda angles, plane: planar_scenario(*angles, plane=plane), _angles(4),
              st.sampled_from(("xy", "xz"))),
    _angles(4).map(lambda angles: _read(planar_scenario(*angles))),
    st.floats(0.0, 1.0).map(
        lambda v: _evaluated(werner_state(v), planar_scenario(0.1, 0.2, 0.3, 0.4))),
    st.floats(0.05, 0.7).map(lambda angle: _hardy_evaluated(SchmidtState(angle))),
    _SEEDS.map(lambda seed: random_scenario(np.random.default_rng(seed), 2, 3, seed % 2 == 1)),
    _SEEDS.map(lambda seed: scenario_from_dict(scenario_to_dict(
        random_scenario(np.random.default_rng(seed), 3, 3, seed % 2 == 1)))),
    st.builds(lambda theta, phi: observable_from_dict({"bloch": {"theta": theta, "phi": phi}}),
              st.floats(0.0, pi), st.floats(0.0, 6.28)),
    st.floats(0.05, 0.7).map(lambda angle: hardy_observables(SchmidtState(angle))),
    st.builds(lambda seed, planar: optimize_violation(
        random_state(np.random.default_rng(seed), 2, 2), "maximize_upper", planar=planar),
        _SEEDS, st.booleans()),
    _SEEDS.map(lambda seed: witness_report(random_state(np.random.default_rng(seed), 2, 2),
                                           random_scenario(np.random.default_rng(seed)))),
    st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4).map(lhv_feasible),
)
_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda value: pickle.loads(pickle.dumps(value))}


def _arrays(entry):
    """Every numpy array that ``entry`` holds, through values, tuples and lists."""
    if isinstance(entry, np.ndarray):
        yield entry
    elif isinstance(entry, (tuple, list)):
        for item in entry:
            yield from _arrays(item)
    elif hasattr(entry, "_fields"):
        yield from _arrays(list(vars(entry).values()))


class TestCopiesKeepInvariants:
    @settings(max_examples=150)
    @given(value=_VALUES, how=st.sampled_from(sorted(_COPIES)))
    def test_copies_are_equal_and_read_only(self, value, how):
        twin = _COPIES[how](value)
        # What is kept travels along; what is built on first read stays unbuilt.
        assert set(vars(twin)) == set(vars(value))
        if "_sides" in vars(twin):  # not a field, so ``==`` does not compare it
            assert [s.tobytes() for s in twin._sides] == [s.tobytes() for s in value._sides]
        arrays = list(_arrays(twin))
        assert all(not array.flags.writeable for array in arrays)
        for array in arrays:
            if array.size:
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = array[(0,) * array.ndim]
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)

    def test_a_copied_scenario_refuses_writes_and_keeps_its_q_vector(self):
        scenario = planar_scenario(0.1, 0.2, 0.3, 0.4)
        state = werner_state(0.5)
        for twin in (copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))):
            with pytest.raises(ValueError):
                twin._sides[0][0, 0, 0] = 5.0
            assert q_vector(state, twin) == q_vector(state, scenario)

    def test_a_copied_state_rebuilds_its_density_as_a_view(self):
        state, scenario = werner_state(0.5), planar_scenario(0.0, pi / 2, 3 * pi / 4, pi / 4)
        q = q_vector(state, scenario)
        twin = copy.deepcopy(state)
        assert q_vector(twin, planar_scenario(0.0, pi / 2, 3 * pi / 4, pi / 4)) == q
        rho4 = _density_tensor(twin)
        assert np.shares_memory(rho4, twin.data) and not rho4.flags.writeable
