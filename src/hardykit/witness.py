"""Nonlocality witnesses: probability extraction, bound expressions, classification.

A scenario fixes four local observables (two per side). From a state it yields
the probability vector (q1..q4, optionally q5, q6), the combination
q1 + q2 + q3 (+ q5 + q6) - q4 whose value must lie in [0, 1] for any local
deterministic model, and the six-term Clauser-Horne combination, which agrees
with it identically.
"""

from __future__ import annotations

from itertools import chain
from math import cos, isfinite, sin
from typing import Sequence

import numpy as np

from ._value import Value
from .errors import DimensionMismatch
from .lhv import QVECTOR_ATOL, QVector, _component
from .qcore import (
    Observable,
    QuantumState,
    _clamp_probability,
    _density_tensor,
    _joint_table,
    _marginal,
    _projective,
    _spin_pair,
    _spin_projectors,
    _trusted,
    observable_from_dict,
    observable_to_dict,
)

DEFAULT_TOLERANCE = 1e-9  # numeric zero for the "vanishing probability" conditions

HARDY_VIOLATION = "HardyViolation"
KUNKRI_VIOLATION = "KunkriViolation"
LOWER_BOUND_VIOLATION = "LowerBoundViolation"
UPPER_BOUND_VIOLATION = "UpperBoundViolation"
NO_VIOLATION = "NoViolation"

_NAMES = ("x1", "y1", "x2", "y2")
_NUMBER = frozenset((int, float))  # the types a JSON number decodes to
_DICHOTOMIC = frozenset((-1.0, 1.0))
_TRICHOTOMIC = frozenset((-1.0, 0.0, 1.0))


class Scenario(Value):
    """Four local observables: x1, y1 on side 1 and x2, y2 on side 2.

    The x-observables carry spectrum {-1, +1} or {-1, 0, +1} (both sides
    alike); the y-observables may have any spectrum containing +1. Each side's
    projectors are stacked once, in ``_side`` order, into the read-only
    ``_sides`` that the joint kernel reads; ``_sides`` is not a field.
    """

    _fields = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: Observable, y1: Observable, x2: Observable, y2: Observable) -> None:
        self.__dict__.update(x1=x1, y1=y1, x2=x2, y2=y2)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.x1.dim != self.y1.dim or self.x2.dim != self.y2.dim:
            raise ValueError("observables on the same side must share a dimension")
        arity1 = self._x_arity(self.x1, "x1")
        arity2 = self._x_arity(self.x2, "x2")
        if arity1 != arity2:
            raise ValueError("x1 and x2 must both be dichotomic or both trichotomic")
        for name, obs in (("y1", self.y1), ("y2", self.y2)):
            if 1.0 not in obs.labels:
                raise ValueError(f"{name} spectrum must contain +1, got {obs.labels}")
        trichotomic = arity1 == 3
        sides = (_side(self.x1, self.y1, trichotomic), _side(self.x2, self.y2, trichotomic))
        object.__setattr__(self, "_sides", sides)

    @staticmethod
    def _x_arity(obs: Observable, name: str) -> int:
        labels = frozenset(obs.labels)
        if labels == _DICHOTOMIC:
            return 2
        if labels == _TRICHOTOMIC:
            return 3
        raise ValueError(f"{name} labels must be exactly {{-1,+1}} or {{-1,0,+1}}, got {obs.labels}")

    @property
    def trichotomic(self) -> bool:
        return len(self._sides[0]) == 4

    @property
    def dims(self) -> tuple[int, int]:
        return (self.x1.dim, self.x2.dim)


class WitnessReport(Value):
    """Bundle of the probability vector, both expression values, and the verdict."""

    _fields = ("qvec", "generalized_value", "ch_value", "classification")

    def __init__(self, qvec: QVector, generalized_value: float, ch_value: float,
                 classification: str) -> None:
        self.__dict__.update(qvec=qvec, generalized_value=generalized_value, ch_value=ch_value,
                             classification=classification)

    def to_dict(self) -> dict:
        return {
            "q": list(self.qvec.components()),
            "generalized": self.generalized_value,
            "ch": self.ch_value,
            "class": self.classification,
        }


def _side(x: Observable, y: Observable, trichotomic: bool) -> np.ndarray:
    """Read-only stacked projectors of one side.

    Rows: x = +1, y = +1, x = -1 and, if trichotomic, x = 0.
    """
    projectors = [x.projector(1.0), y.projector(1.0), x.projector(-1.0)]
    if trichotomic:
        projectors.append(x.projector(0.0))
    stack = np.array(projectors)
    stack.setflags(write=False)
    return stack


def _joint_probabilities(
    state: QuantumState, scenario: Scenario
) -> tuple[np.ndarray, list[list[float]]]:
    """rho4 and every joint probability the witness reads, from one contraction.

    ``table[a][b]`` pairs outcome ``a`` of side 1 with outcome ``b`` of side 2,
    both in ``_side`` order, and is not yet clamped.
    """
    if scenario.dims != state.dims:
        raise DimensionMismatch(
            f"scenario dims {scenario.dims} do not match state dims {state.dims}"
        )
    rho4 = _density_tensor(state)
    return rho4, _joint_table(rho4, *scenario._sides).tolist()


def _q_from_table(table: list[list[float]]) -> QVector:
    """q1..q4, and q5, q6 when the table has the x = 0 outcomes.

    The entries are range-checked together, by their minimum, their maximum
    and their sum (NaN anywhere makes it NaN), and clamped as ``QVector``
    would, so the vector is built without its validation running again. Only
    a failed check reads them one by one, to raise ``QVector``'s error.
    """
    q = [table[0][0], table[1][2], table[2][1], table[1][1]]
    if len(table) == 4:
        q += [table[1][3], table[3][1]]
    if not (-QVECTOR_ATOL <= min(q) and max(q) <= 1.0 + QVECTOR_ATOL and isfinite(sum(q))):
        for index, value in enumerate(q, 1):
            _component(f"q{index}", value)
    q = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in q]
    q5, q6 = q[4:] or (None, None)
    return _trusted(QVector, q1=q[0], q2=q[1], q3=q[2], q4=q[3], q5=q5, q6=q6)


def _ch_from_table(rho4: np.ndarray, table: list[list[float]], scenario: Scenario) -> float:
    p = _clamp_probability
    side1, side2 = scenario._sides
    return (
        p(table[0][0])
        - p(table[1][0])
        - p(table[0][1])
        - p(table[1][1])
        + _marginal(rho4, 1, side1[1])  # y1 = +1
        + _marginal(rho4, 2, side2[1])  # y2 = +1
    )


def q_vector(state: QuantumState, scenario: Scenario) -> QVector:
    """Extract (q1..q4) and, for trichotomic x-observables, (q5, q6)."""
    _, table = _joint_probabilities(state, scenario)
    return _q_from_table(table)


def generalized_expression(q: QVector) -> float:
    """q1 + q2 + q3 - q4, plus q5 + q6 in the trichotomic case."""
    value = q.q1 + q.q2 + q.q3 - q.q4
    if q.trichotomic:
        value += q.q5 + q.q6
    return value


def ch_expression(state: QuantumState, scenario: Scenario) -> float:
    """Clauser-Horne combination of four joint and two single-side probabilities.

    Every term is a +1 outcome. The single-side terms come from partial traces
    of the state, not from the q-vector by no-signalling, so agreement with
    ``generalized_expression`` stays an independent check.
    """
    rho4, table = _joint_probabilities(state, scenario)
    return _ch_from_table(rho4, table, scenario)


def classify(q: QVector, gen_value: float, tol: float = DEFAULT_TOLERANCE) -> str:
    """Name the violation pattern of a probability vector.

    Precedence: the all-zeros pattern with q4 > 0, then the relaxed pattern
    with 0 < q1 < q4, then the plain bound labels, then no violation. Both
    patterns refine the lower-bound violation and need ``gen_value < -tol``
    too, so a pattern label always names a q outside the local polytope. A
    non-finite ``gen_value`` or a ``tol`` that is not finite and positive
    raises ``ValueError``.
    """
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not isfinite(gen_value):
        raise ValueError(f"gen_value must be finite, got {gen_value}")
    if gen_value < -tol:
        extra_zero = (q.q5 < tol and q.q6 < tol) if q.trichotomic else True
        if q.q2 < tol and q.q3 < tol and extra_zero:
            if q.q1 < tol and q.q4 > tol:
                return HARDY_VIOLATION
            if tol < q.q1 < q.q4 - tol:
                return KUNKRI_VIOLATION
        return LOWER_BOUND_VIOLATION
    if gen_value > 1.0 + tol:
        return UPPER_BOUND_VIOLATION
    return NO_VIOLATION


def witness_report(
    state: QuantumState, scenario: Scenario, tol: float = DEFAULT_TOLERANCE
) -> WitnessReport:
    """Evaluate everything the witness has to say about a state and scenario, from one table."""
    rho4, table = _joint_probabilities(state, scenario)
    q = _q_from_table(table)
    gen = generalized_expression(q)
    return WitnessReport(q, gen, _ch_from_table(rho4, table, scenario), classify(q, gen, tol))


def scenario_to_dict(scenario: Scenario) -> dict:
    return {name: observable_to_dict(getattr(scenario, name)) for name in _NAMES}


def scenario_from_dict(payload: dict) -> Scenario:
    """Decode a scenario in one pass; what it refuses, ``observable_from_dict`` decodes again.

    The second decode reads x1, y1, x2, y2 in turn and raises the first fault.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"scenario must be an object, got {payload!r}")
    try:
        read = _screened_observables(payload)
    except (KeyError, TypeError, ValueError, OverflowError):
        read = [observable_from_dict(payload[name]) for name in _NAMES]
    return Scenario(*read)


def _screened_observables(payload: dict) -> list[Observable]:
    """x1, y1, x2, y2 when all four are explicit JSON observables of one int dim and pass the screen.

    All [re, im] pairs go through one ``np.array``, reshaped to the read-only (4, k_max, d, d) stack
    that ``_projective`` screens (zero projectors pad it). Anything else raises.
    """
    entries = [payload[name] for name in _NAMES]
    d, spectra, rows = entries[0]["dim"], [], []
    for entry in entries:
        if not (type(entry) is dict and "bloch" not in entry and type(entry["dim"]) is int
                and entry["dim"] == d >= 1):
            raise ValueError("not four explicit observables of one dimension")
        outcomes = entry["outcomes"]
        if not (type(outcomes) is list and set(map(type, outcomes)) == {dict}):
            raise ValueError("outcomes are not a list of objects")
        labels = [outcome["label"] for outcome in outcomes]
        projectors = [outcome["projector"] for outcome in outcomes]
        if not (set(map(type, labels)) <= _NUMBER and set(map(type, projectors)) == {list}
                and set(map(len, projectors)) == {d * d}):
            raise ValueError("labels or projectors of the wrong type or size")
        labels = [*map(float, labels)]
        if len(set(labels)) != len(labels) or not all(map(isfinite, labels)):
            raise ValueError("labels are not distinct and finite")
        spectra.append(labels)
        rows.append(projectors)
    k = max(map(len, rows))
    padded = chain.from_iterable(row + [[[0.0, 0.0]] * (d * d)] * (k - len(row)) for row in rows)
    pairs = [*chain.from_iterable(padded)]
    flat = [*chain.from_iterable(pairs)]
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, flat)) <= _NUMBER):
        raise ValueError("projector entries are not [re, im] pairs of numbers")
    stack = np.array(flat, dtype=float).view(complex).reshape(4, k, d, d)
    stack.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):
        if not _projective(stack):
            raise ValueError("not projective")
    return [_trusted(Observable, dim=d, outcomes=tuple(zip(labels, block)))
            for labels, block in zip(spectra, stack)]


def planar_scenario(
    x1_angle: float,
    y1_angle: float,
    x2_angle: float,
    y2_angle: float,
    plane: str = "xy",
) -> Scenario:
    """Scenario of four spin observables with directions in a common plane.

    Angles are measured within the plane: from the positive x axis for
    ``plane="xy"``, from the positive z axis for ``plane="xz"``.
    """
    if plane not in ("xy", "xz"):
        raise ValueError(f"plane must be 'xy' or 'xz', got {plane!r}")
    angles = (x1_angle, y1_angle, x2_angle, y2_angle)
    if not all(isfinite(a) for a in angles):
        raise ValueError(f"angles must be finite, got {angles}")
    if plane == "xy":
        units = [(cos(a), sin(a), 0.0) for a in angles]
    else:
        units = [(sin(a), 0.0, cos(a)) for a in angles]
    return _spin_scenario(*units)


def _spin_scenario(
    x1: Sequence[float], y1: Sequence[float], x2: Sequence[float], y2: Sequence[float]
) -> Scenario:
    """Scenario of four qubit spin observables along the given unit 3-vectors.

    All eight projectors are written in one call, with the units in the order
    x1, x2, y1, y2. Flattened to (8, 2, 2), the +1 projectors of x1, x2, y1, y2
    come first and their -1 projectors after, so each side's stack (x = +1,
    y = +1, x = -1) is a strided view of the same array, not a copy.
    """
    plus, minus = projectors = _spin_projectors((x1, x2, y1, y2))
    flat = projectors.reshape(8, 2, 2)
    # Four qubit spin observables always form a valid dichotomic scenario.
    return _trusted(
        Scenario,
        x1=_spin_pair(plus[0], minus[0]),
        y1=_spin_pair(plus[2], minus[2]),
        x2=_spin_pair(plus[1], minus[1]),
        y2=_spin_pair(plus[3], minus[3]),
        _sides=(flat[0:6:2], flat[1:7:2]),
    )
