"""Local deterministic models: set-measure identities and membership in the local polytope.

A local deterministic model assigns one definite outcome per local observable;
mixing such assignments with nonnegative weights spans exactly the probability
vectors a local theory can produce. The q-vector, ``lhv_feasible`` and the
vertex table use plain floats and integers; numpy is imported only inside
``FiniteMeasure``, ``_mask`` and ``strategy_matrix``.
"""

from __future__ import annotations

import io
import operator
from itertools import product

from ._value import Value, _array, _boolean, _number, _read_only, _shown
from .errors import InvalidQVector, MalformedMeasure

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

FEASIBILITY_TOL = 1e-9
QVECTOR_ATOL = 1e-10
_WEIGHT_SUM_ATOL = 1e-12
_COMPARE_SLACK = 1e-12  # absorbs summation-order roundoff in measure comparisons

_X_OUTCOMES_DICHOTOMIC = (-1, 1)
_X_OUTCOMES_TRICHOTOMIC = (-1, 0, 1)
_Y_EVENTS = (False, True)  # ordered (other, +1)


def _component(name: str, value) -> float:
    """``value`` read by ``_number`` and clamped to [0, 1]; a fault raises ``InvalidQVector``."""
    try:
        number = _number(value, name)
    except ValueError as exc:
        huge = isinstance(exc.__cause__, OverflowError)
        message = f"{name} is too large for a float and lies outside [0, 1]" if huge else str(exc)
        raise InvalidQVector(message) from None
    if not -QVECTOR_ATOL <= number <= 1.0 + QVECTOR_ATOL:
        raise InvalidQVector(f"{name} = {number} lies outside [0, 1] beyond tolerance")
    return min(max(number, 0.0), 1.0)


class QVector(Value):
    """Probability vector of the witness scenario, clamped to [0, 1].

    q5 and q6 are present exactly when the x-observables are trichotomic.
    """

    _fields = ("q1", "q2", "q3", "q4", "q5", "q6")

    def __init__(self, q1: float, q2: float, q3: float, q4: float,
                 q5: float | None = None, q6: float | None = None) -> None:
        if (q5 is None) != (q6 is None):
            raise ValueError("q5 and q6 must be given together")
        q = dict(q1=q1, q2=q2, q3=q3, q4=q4, q5=q5, q6=q6)
        for name in self._fields[: 4 if q5 is None else 6]:
            q[name] = _component(name, q[name])
        self.__dict__.update(q)

    @property
    def trichotomic(self) -> bool:
        return self.q5 is not None

    def components(self) -> tuple[float, ...]:
        if self.trichotomic:
            return (self.q1, self.q2, self.q3, self.q4, self.q5, self.q6)
        return (self.q1, self.q2, self.q3, self.q4)


class FiniteMeasure(Value):
    """Probability weights over finitely many atoms with four marked subsets.

    ``a``, ``b``, ``c``, ``d`` are boolean membership masks over the atoms.
    """

    _fields = ("weights", "a", "b", "c", "d")

    def __init__(self, weights: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 d: np.ndarray) -> None:
        import numpy as np
        weights = _array(weights, float)
        if weights is None or weights.ndim != 1 or weights.size < 1:
            raise MalformedMeasure("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(weights)):
            raise MalformedMeasure("weights must be finite")
        if np.any(weights < 0.0):
            raise MalformedMeasure("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
            raise MalformedMeasure(f"weights sum to {total}, not 1 within {_WEIGHT_SUM_ATOL}")
        masks = {name: _read_only(_mask(mask, weights.shape, f"subset {name}"))
                 for name, mask in zip("abcd", (a, b, c, d))}
        self.__dict__.update(weights=_read_only(weights), **masks)

    def mu(self, mask: np.ndarray) -> float:
        """Measure of the subset given by a boolean mask, which the subsets' rule reads."""
        return float(self.weights[_mask(mask, self.weights.shape, "mask")].sum())


def _mask(mask, shape: tuple, name: str) -> np.ndarray:
    """``mask`` as a new boolean array, if it holds only booleans and has ``shape``."""
    import numpy as np
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool):
        mask = np.array(mask, dtype=object)  # read element by element, not cast to bool
        if not all(map(_boolean, mask.flat)):
            raise MalformedMeasure(f"{name} must hold only booleans")
    if mask.shape != shape:
        raise MalformedMeasure(f"{name} has shape {mask.shape}, expected {shape}")
    return mask.astype(bool)


def set_expression(m: FiniteMeasure) -> float:
    """mu[A&B] + mu[C] - mu[B&C] + mu[D] - mu[A&D] - mu[C&D].

    For any probability measure and any four subsets this combination lies in
    [0, 1]; ``proof_step_inequalities`` checks the two intermediate bounds that
    force it there.
    """
    return (
        m.mu(m.a & m.b)
        + m.mu(m.c)
        - m.mu(m.b & m.c)
        + m.mu(m.d)
        - m.mu(m.a & m.d)
        - m.mu(m.c & m.d)
    )


def proof_step_inequalities(m: FiniteMeasure) -> tuple[bool, bool]:
    """The two intermediate inequalities behind the [0, 1] bound.

    First: mu[A&D] + mu[B&C] <= mu[C|D] + mu[A&B&C&D].
    Second: mu[C|D] <= mu[~A | ~B] + mu[A&D] + mu[B&C].
    Both are theorems; a False entry signals an implementation bug.
    """
    union_cd = m.mu(m.c | m.d)
    lower_lhs = m.mu(m.a & m.d) + m.mu(m.b & m.c)
    lower_rhs = union_cd + m.mu(m.a & m.b & m.c & m.d)
    upper_rhs = m.mu(~m.a | ~m.b) + m.mu(m.a & m.d) + m.mu(m.b & m.c)
    return (
        lower_lhs <= lower_rhs + _COMPARE_SLACK,
        union_cd <= upper_rhs + _COMPARE_SLACK,
    )


class DeterministicStrategy(Value):
    """One definite outcome per local observable; a vertex of the local polytope.

    ``y1_plus``/``y2_plus`` record whether the y-observables yield +1 or any
    other value; finer detail about "other" never enters the witness.
    """

    _fields = ("x1", "x2", "y1_plus", "y2_plus")

    def __init__(self, x1: int, x2: int, y1_plus: bool, y2_plus: bool) -> None:
        for name, outcome in (("x1", x1), ("x2", x2)):
            try:
                index = None if _boolean(outcome) else operator.index(outcome)
                hash(outcome)  # a 0-d integer array passes operator.index, but a value must hash
            except TypeError:  # not a hashable integer, Python's or numpy's
                index = None
            if index not in (-1, 0, 1):
                raise ValueError(f"{name} outcome must be -1, 0, or +1, got {_shown(outcome)}")
        for name, event in (("y1_plus", y1_plus), ("y2_plus", y2_plus)):
            if not _boolean(event):
                raise ValueError(f"{name} must be a boolean, got {_shown(event)}")
        self.__dict__.update(x1=x1, x2=x2, y1_plus=y1_plus, y2_plus=y2_plus)

    def q_components(self, trichotomic: bool = False) -> tuple[int, ...]:
        """Indicator probabilities this assignment induces for the witness."""
        q1 = int(self.x1 == 1 and self.x2 == 1)
        q2 = int(self.y1_plus and self.x2 == -1)
        q3 = int(self.x1 == -1 and self.y2_plus)
        q4 = int(self.y1_plus and self.y2_plus)
        if not trichotomic:
            return (q1, q2, q3, q4)
        q5 = int(self.y1_plus and self.x2 == 0)
        q6 = int(self.x1 == 0 and self.y2_plus)
        return (q1, q2, q3, q4, q5, q6)


def enumerate_strategies(trichotomic: bool = False) -> list[DeterministicStrategy]:
    """All deterministic strategies in canonical order.

    Lexicographic in (x1, x2, y1, y2) with x outcomes ordered (-1, 0, +1) and
    y events ordered (other, +1); 16 strategies dichotomic, 36 trichotomic.
    """
    x_outcomes = _X_OUTCOMES_TRICHOTOMIC if trichotomic else _X_OUTCOMES_DICHOTOMIC
    return [
        DeterministicStrategy(x1, x2, y1, y2)
        for x1, x2, y1, y2 in product(x_outcomes, x_outcomes, _Y_EVENTS, _Y_EVENTS)
    ]


def vertex_expression_value(strategy: DeterministicStrategy) -> int:
    """Witness expression at a vertex, computed in exact integer arithmetic.

    The trichotomic terms vanish automatically for strategies without a zero
    outcome, so one formula covers both arities. Exhaustive enumeration shows
    the value is always 0 or 1, which is what confines every mixture to [0, 1].
    """
    q1, q2, q3, q4, q5, q6 = strategy.q_components(trichotomic=True)
    return q1 + q2 + q3 + q5 + q6 - q4


def strategy_matrix(trichotomic: bool = False) -> np.ndarray:
    """Columns are the indicator q-vectors of the canonical strategy list."""
    import numpy as np
    strategies = enumerate_strategies(trichotomic)
    rows = 6 if trichotomic else 4
    matrix = np.zeros((rows, len(strategies)))
    for j, strategy in enumerate(strategies):
        matrix[:, j] = strategy.q_components(trichotomic)
    return matrix


def vertex_table(trichotomic: bool = False) -> list[tuple[int, int, str, str, int]]:
    """Rows (x1, x2, y1-event, y2-event, expression value) in canonical order."""
    table = []
    for strategy in enumerate_strategies(trichotomic):
        table.append(
            (
                strategy.x1,
                strategy.x2,
                "+1" if strategy.y1_plus else "other",
                "+1" if strategy.y2_plus else "other",
                vertex_expression_value(strategy),
            )
        )
    return table


def vertex_table_csv(trichotomic: bool = False) -> str:
    """CSV rendering of ``vertex_table`` with a header row and LF line endings."""
    out = io.StringIO()
    out.write("x1,x2,y1,y2,value\n")
    for x1, x2, y1, y2, value in vertex_table(trichotomic):
        out.write(f"{x1},{x2},{y1},{y2},{value}\n")
    return out.getvalue()


class FeasibilityResult(Value):
    """Outcome of the local-polytope membership test.

    ``witness`` holds the mixing weights over the canonical strategy list, a
    tuple of floats, when feasible; ``residual`` is the largest facet violation
    either way (0.0 inside the polytope, at most ``FEASIBILITY_TOL`` when feasible).
    """

    _fields = ("feasible", "witness", "residual")

    def __init__(self, feasible: bool, witness: tuple[float, ...] | None, residual: float) -> None:
        self.__dict__.update(feasible=feasible, witness=witness, residual=residual)

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": None if self.witness is None else list(self.witness),
            "residual": self.residual,
        }


def lhv_feasible(q: "QVector | Sequence[float]") -> FeasibilityResult:
    """Decide whether some mixture of deterministic strategies reproduces ``q``.

    With ``Q2 = q2 + q5`` and ``Q3 = q3 + q6`` (``q5 = q6 = 0`` for four
    components), the local polytope is ``0 <= q_i <= 1`` and four facets:
    ``0 <= q1 + Q2 + Q3 - q4 <= 1``, ``q1 + Q2 <= 1`` and ``q1 + Q3 <= 1``.
    ``q`` is feasible when none is violated by more than ``FEASIBILITY_TOL``.
    A sequence of components is checked and clamped as ``QVector`` does.
    """
    if not isinstance(q, QVector):
        values = tuple(q)
        if len(values) not in (4, 6):
            raise InvalidQVector(f"expected 4 or 6 components, got {len(values)}")
        q = QVector(*(_component(f"q{i}", value) for i, value in enumerate(values, 1)))
    components = q.components()
    padded = components + (0.0, 0.0)[: 6 - len(components)]
    q1, q2, q3, q4, q5, q6 = padded
    total = q1 + q2 + q3 + q5 + q6
    residual = max(0.0, q4 - total, total - q4 - 1.0, q1 + q2 + q5 - 1.0, q1 + q3 + q6 - 1.0)
    if residual > FEASIBILITY_TOL:
        return FeasibilityResult(False, None, residual)
    size = 3 if len(components) == 6 else 2  # outcomes per x observable
    return FeasibilityResult(True, _mixing_witness(size, *padded), residual)


def _mixing_witness(
    size: int, q1: float, q2: float, q3: float, q4: float, q5: float, q6: float
) -> tuple[float, ...]:
    """Weights over the canonical strategies that mix to the given q.

    ``both`` sits on (x1 != +1, x2 != +1, both y fire); ``rest = q4 - both`` is
    split greedily over (+1, +1), (+1, != +1) and (!= +1, +1) with both y
    firing; the leftover q1, Q2 and Q3 sit on strategies that fire only that
    event, and the slack on one that fires none. Every weight is nonnegative
    exactly when the four facet inequalities hold, so this construction also
    proves the facet list complete. Each "!= +1" outcome is split between -1
    and 0 as q3 : q6 for x1 and q2 : q5 for x2.
    """
    big2, big3 = q2 + q5, q3 + q6
    both = max(0.0, q1 + big2 + big3 - 1.0)
    rest = q4 - both
    on1 = min(q1, rest)
    on2 = min(big2 - both, rest - on1)
    on3 = rest - on1 - on2
    # Outcome distributions of one x observable, ((outcome index, probability), ...),
    # indices in canonical order (-1 first, +1 last).
    minus, plus = ((0, 1.0),), ((size - 1, 1.0),)
    x1_other, x2_other = _other_than_plus(q3, q6), _other_than_plus(q2, q5)
    weights = [0.0] * (size * size * 4)  # (x1, x2, y1, y2), canonical order
    for mass, x1, x2, y1, y2 in (
        (both, x1_other, x2_other, 1, 1),
        (on1, plus, plus, 1, 1),
        (on2, plus, x2_other, 1, 1),
        (on3, x1_other, plus, 1, 1),
        (q1 - on1, plus, plus, 0, 0),
        (big2 - both - on2, plus, x2_other, 1, 0),
        (big3 - both - on3, x1_other, plus, 0, 1),
        (1.0 - q1 - big2 - big3 + both, minus, plus, 0, 0),
    ):
        for i, p1 in x1:
            for j, p2 in x2:
                weights[4 * (size * i + j) + 2 * y1 + y2] += mass * (p1 * p2)
    # Clip roundoff and the overshoot of a q outside the polytope by at most
    # FEASIBILITY_TOL, then restore the unit sum, as np.maximum(w, 0) / np.sum
    # would. No weight is -0.0: each starts at 0.0 and changes only by +=.
    if min(weights) < 0.0:
        weights = [w if w > 0.0 else 0.0 for w in weights]
    total = _numpy_sum(weights)
    return tuple([w / total for w in weights])


def _numpy_sum(values: list[float]) -> float:
    """``np.sum`` of 8 to 128 floats, bit for bit: eight lanes added pairwise, then the rest.

    The built-in ``sum`` adds in another order, and compensated from Python 3.12.
    """
    n = len(values) - len(values) % 8
    l0, l1, l2, l3, l4, l5, l6, l7 = values[:8]
    for i in range(8, n, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
        l0, l1, l2, l3 = l0 + a0, l1 + a1, l2 + a2, l3 + a3
        l4, l5, l6, l7 = l4 + a4, l5 + a5, l6 + a6, l7 + a7
    total = ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
    for value in values[n:]:
        total += value
    return total


def _other_than_plus(minus_mass: float, zero_mass: float) -> tuple[tuple[int, float], ...]:
    """Distribution over outcomes -1 (index 0) and 0 (index 1), as ``minus_mass : zero_mass``."""
    if zero_mass > 0.0:
        total = minus_mass + zero_mass
        return ((0, minus_mass / total), (1, zero_mass / total))
    return ((0, 1.0),)
