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

from ._value import Value, _number, _read_only, _trusted
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
    _spin_projectors,
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
_ANGLE_NAMES = ("x1_angle", "y1_angle", "x2_angle", "y2_angle")
_NUMBER = frozenset((int, float))  # the types a JSON number decodes to
_DICHOTOMIC = frozenset((-1.0, 1.0))
_TRICHOTOMIC = frozenset((-1.0, 0.0, 1.0))
_SPIN_SPECTRA = ((1.0, -1.0),) * 4
_SPIN_ROWS = np.array(((0, 2, 1), (4, 6, 5)))  # each side's x = +1, y = +1, x = -1 in a spin stack


class _LazyField:
    """An entry of a scenario kept in a smaller form, built with its siblings on first read.

    x1, y1, x2 and y2 come from ``_stack`` and ``_spectra``; a spin scenario's ``_stack`` and
    ``_sides`` come from its ``_units``. A non-data descriptor, so ``__dict__`` entries shadow it.
    """

    def __init__(self, name: str, source: str) -> None:
        self.name, self.source = name, source

    def __get__(self, scenario, owner=None):
        kept = {} if scenario is None else scenario.__dict__
        if self.source not in kept and "_units" not in kept:
            raise AttributeError(f"'Scenario' object has no attribute {self.name!r}")
        if self.source == "_units":
            stack = _spin_projectors(kept["_units"])
            sides = _read_only(stack.reshape(8, 2, 2).take(_SPIN_ROWS, axis=0))
            kept.setdefault("_stack", stack)  # setdefault keeps the first object stored
            kept.setdefault("_sides", (sides[0], sides[1]))
            return kept[self.name]
        for field, labels, block in zip(_NAMES, kept["_spectra"], scenario._stack):
            observable = _trusted(Observable, dim=block.shape[-1], outcomes=tuple(zip(labels, block)))
            kept.setdefault(field, observable)
        return kept[self.name]


class Scenario(Value):
    """Four local observables: x1, y1 on side 1 and x2, y2 on side 2.

    The x-observables carry spectrum {-1, +1} or {-1, 0, +1} (both sides
    alike); the y-observables may have any spectrum containing +1. Each side's
    projectors are stacked once, in ``_side`` order, into the read-only
    ``_sides`` that the joint kernel reads; ``_sides`` is not a field. A spin
    scenario is a dichotomic qubit pair, so its ``dims`` build no stack.
    """

    _fields = _NAMES
    x1, y1, x2, y2 = (_LazyField(name, "_stack") for name in _NAMES)
    _stack, _sides = _LazyField("_stack", "_units"), _LazyField("_sides", "_units")

    def __init__(self, x1: Observable, y1: Observable, x2: Observable, y2: Observable) -> None:
        fields, pairs = (x1, y1, x2, y2), ((x1, y1), (x2, y2))
        sides = _checked_sides([obs.dim for obs in fields], [obs.labels for obs in fields],
                               [[proj for _, proj in x.outcomes + y.outcomes] for x, y in pairs],
                               [len(x.outcomes) for x, _ in pairs])
        self.__dict__.update(x1=x1, y1=y1, x2=x2, y2=y2, _sides=sides)

    @property
    def trichotomic(self) -> bool:
        return "_units" not in self.__dict__ and len(self._sides[0]) == 4

    @property
    def dims(self) -> tuple[int, int]:
        if "_units" in self.__dict__:
            return (2, 2)
        return (self._sides[0].shape[-1], self._sides[1].shape[-1])


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


def _checked_sides(dims: Sequence[int], spectra: Sequence[tuple], projectors: Sequence,
                   y_starts: Sequence[int]) -> tuple:
    """Both ``_side`` stacks, once the dims and labels of x1, y1, x2, y2 pass the Scenario rules."""
    if dims[0] != dims[1] or dims[2] != dims[3]:
        raise ValueError("observables on the same side must share a dimension")
    for name, labels in (("x1", spectra[0]), ("x2", spectra[2])):
        if frozenset(labels) not in (_DICHOTOMIC, _TRICHOTOMIC):
            raise ValueError(
                f"{name} labels must be exactly {{-1,+1}} or {{-1,0,+1}}, got {labels}")
    if len(spectra[0]) != len(spectra[2]):  # labels are distinct, so two or three of them
        raise ValueError("x1 and x2 must both be dichotomic or both trichotomic")
    for name, labels in (("y1", spectra[1]), ("y2", spectra[3])):
        if 1.0 not in labels:
            raise ValueError(f"{name} spectrum must contain +1, got {labels}")
    return tuple(map(_side, spectra[::2], spectra[1::2], projectors, y_starts))


def _side(x_labels: tuple, y_labels: tuple, projectors: Sequence, y_start: int) -> np.ndarray:
    """Rows x = +1, y = +1, x = -1 (and x = 0) of x's projectors and then y's, from ``y_start``."""
    rows = [x_labels.index(label) for label in (1.0, -1.0, 0.0)[: len(x_labels)]]
    rows.insert(1, y_start + y_labels.index(1.0))
    return _read_only(np.asarray(projectors).take(rows, axis=0))  # faster than np.take


def _joint_probabilities(state: QuantumState, scenario: Scenario, read_q: bool = False,
                         read_ch: bool = False) -> tuple:
    """(marginals, table, q) from one contraction, or from ``_keep``'s record of this state object.

    ``marginals``, CH's clamped y1 = +1 and y2 = +1 probabilities, are None unless ``read_ch``,
    and ``q`` is None unless ``read_q``. ``table[a][b]`` pairs side 1's outcome ``a`` with
    side 2's ``b`` in ``_side`` order, unclamped. Nothing is stored on the scenario.
    """
    kept = scenario.__dict__.get("_kept")
    if kept is not None and kept[0] is state:
        return kept[1:]
    if scenario.dims != state.dims:
        raise DimensionMismatch(f"scenario dims {scenario.dims} do not match state dims {state.dims}")
    rho4, (side1, side2) = _density_tensor(state), scenario._sides
    marginals = (_marginal(rho4, 1, side1[1]), _marginal(rho4, 2, side2[1])) if read_ch else None
    table = _joint_table(rho4, side1, side2).tolist()
    return marginals, table, _q_from_table(table) if read_q else None


def _keep(scenario: Scenario, state: QuantumState, marginals: tuple, table: list) -> QVector:
    """Record ``state``'s marginals and table, summed by a Hardy construction, as ``_kept``; its q."""
    q = _q_from_table(table)
    scenario.__dict__["_kept"] = (state, marginals, table, q)
    return q


def _q_list(table: list[list[float]]) -> list[float]:
    """[q1..q4], and q5, q6 when the table has the x = 0 outcomes, through ``_checked_q``."""
    extra = [table[1][3], table[3][1]] if len(table) == 4 else []
    return _checked_q([table[0][0], table[1][2], table[2][1], table[1][1], *extra])


def _checked_q(q: list[float]) -> list[float]:
    """``q`` clamped as ``QVector`` would hold it, so a vector is built without validation.

    One check of the minimum, maximum and sum (NaN anywhere fails it) covers every entry;
    only a failed check reads them one by one, to raise ``QVector``'s error.
    """
    if not (-QVECTOR_ATOL <= min(q) and max(q) <= 1.0 + QVECTOR_ATOL and isfinite(sum(q))):
        for index, value in enumerate(q, 1):
            _component(f"q{index}", value)
    return [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in q]


def _q_from_table(table: list[list[float]]) -> QVector:
    """``_q_list(table)`` as a ``QVector``."""
    q = _q_list(table)
    q5, q6 = q[4:] or (None, None)
    return _trusted(QVector, q1=q[0], q2=q[1], q3=q[2], q4=q[3], q5=q5, q6=q6)


def _ch_from_table(marginals: tuple[float, float], table: list[list[float]]) -> float:
    p = _clamp_probability
    return (
        p(table[0][0])
        - p(table[1][0])
        - p(table[0][1])
        - p(table[1][1])
        + marginals[0]  # y1 = +1
        + marginals[1]  # y2 = +1
    )


def q_vector(state: QuantumState, scenario: Scenario) -> QVector:
    """Extract (q1..q4) and, for trichotomic x-observables, (q5, q6)."""
    return _joint_probabilities(state, scenario, True)[2]


def _expression(q: Sequence[float]) -> float:
    """q1 + q2 + q3 - q4, plus q5 + q6 when ``q`` holds them, over [q1..q4] or [q1..q6]."""
    value = q[0] + q[1] + q[2] - q[3]
    if len(q) == 6:
        value += q[4] + q[5]
    return value


def generalized_expression(q: QVector) -> float:
    """q1 + q2 + q3 - q4, plus q5 + q6 in the trichotomic case."""
    return _expression(q.components())


def ch_expression(state: QuantumState, scenario: Scenario) -> float:
    """Clauser-Horne combination of four joint and two single-side probabilities.

    Every term is a +1 outcome. The single-side terms come from partial traces
    of the state, not from the q-vector by no-signalling, so agreement with
    ``generalized_expression`` stays an independent check.
    """
    return _ch_from_table(*_joint_probabilities(state, scenario, read_ch=True)[:2])


def classify(q: QVector, *, tol: float = DEFAULT_TOLERANCE) -> str:
    """Name the violation pattern of a probability vector.

    Precedence: the all-zeros pattern with q4 > 0, then the relaxed pattern
    with 0 < q1 < q4, then the plain bound labels, then no violation. Both
    patterns refine the lower-bound violation, so they need
    ``generalized_expression(q) < -tol`` too and always name a q outside the
    local polytope. A ``tol`` that is not finite and positive raises ``ValueError``.
    """
    tol = _number(tol, "tol")
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    gen_value = generalized_expression(q)
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
    marginals, table, q = _joint_probabilities(state, scenario, True, True)
    gen = generalized_expression(q)
    return WitnessReport(q, gen, _ch_from_table(marginals, table), classify(q, tol=tol))


def scenario_to_dict(scenario: Scenario) -> dict:
    return {name: observable_to_dict(getattr(scenario, name)) for name in _NAMES}


def scenario_from_dict(payload: dict) -> Scenario:
    """Decode a scenario in one pass; what it refuses, ``observable_from_dict`` decodes again.

    The second decode reads x1, y1, x2, y2 in turn and raises the first fault.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"scenario must be an object, got {payload!r}")
    try:
        spectra, stack = _screened(payload)
    except (KeyError, TypeError, ValueError, OverflowError):
        return Scenario(*[observable_from_dict(payload[name]) for name in _NAMES])
    _, k, d, _ = stack.shape  # each side's x, then its y from row k
    sides = _checked_sides((d,) * 4, spectra, stack.reshape(2, 2 * k, d, d), (k, k))
    return _trusted(Scenario, _stack=stack, _spectra=spectra, _sides=sides)


def _screened(payload: dict) -> tuple:
    """Labels and zero-padded stack of x1, y1, x2, y2, if explicit, of one int dim and screened."""
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
        labels = (*map(float, labels),)
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
    stack = _read_only(np.array(flat, dtype=float).view(complex).reshape(4, k, d, d))
    if not _projective(stack):
        raise ValueError("not projective")
    return tuple(spectra), stack


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
    angles = tuple(map(_number, (x1_angle, y1_angle, x2_angle, y2_angle), _ANGLE_NAMES))
    if not all(map(isfinite, angles)):
        raise ValueError(f"angles must be finite, got {angles}")
    if plane == "xy":
        return _spin_scenario(*[(cos(a), sin(a), 0.0) for a in angles])
    return _xz_scenario(angles)


def _xz_scenario(angles: Sequence[float]) -> Scenario:
    return _spin_scenario(*[(sin(a), 0.0, cos(a)) for a in angles])  # a from the z axis


def _spin_scenario(
    x1: Sequence[float], y1: Sequence[float], x2: Sequence[float], y2: Sequence[float]
) -> Scenario:
    """Scenario of four qubit spin observables along unit 3-vectors, kept as ``_units``."""
    # Four qubit spin observables always form a valid dichotomic scenario.
    return _trusted(Scenario, _units=(x1, y1, x2, y2), _spectra=_SPIN_SPECTRA)
