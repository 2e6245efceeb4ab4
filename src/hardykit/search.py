"""Construction and optimization of measurement settings for maximal violations.

The zero-probability construction works in the Schmidt basis, where every
needed observable is a real planar qubit projector parametrized by one angle.
Each of the three vanishing joint probabilities fixes one angle in closed form,
and the remaining free angle is set where the fourth probability peaks, so the
largest q4 is (alpha beta (alpha - beta) / (1 - alpha beta))^2 exactly.

The setting optimizer searches qubit-pair angles on the Clauser-Horne form of
the witness, which depends on the state only through its correlation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, atan, atan2, cos, isfinite, pi, sin, sqrt

import numpy as np
from scipy.optimize import minimize

from .errors import (
    DimensionMismatch,
    MaximallyEntangled,
    NoCrossing,
    NoSolution,
    NotEntangled,
)
from .qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochDirection,
    Observable,
    QuantumState,
    spin_observable,
    werner_state,
)
from .witness import Scenario, generalized_expression, q_vector

OBJECTIVES = ("maximize_upper", "minimize_lower")

# Schmidt angle of the largest constructed q4, (5 sqrt 5 - 11)/2: there
# s = sin(2 theta)/2 solves s^2 - 3s + 1 = 0.
_THETA_STAR = 0.5 * asin(3.0 - sqrt(5.0))
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])


@dataclass(frozen=True)
class SchmidtState:
    """Two-qubit pure state cos(angle)|00> + sin(angle)|11>, angle in [0, pi/4]."""

    angle: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.angle <= pi / 4:
            raise ValueError(f"angle must lie in [0, pi/4], got {self.angle}")

    @property
    def amplitudes(self) -> tuple[float, float]:
        return (cos(self.angle), sin(self.angle))

    def state(self) -> QuantumState:
        big, small = self.amplitudes
        return QuantumState.pure([big, 0.0, 0.0, small], (2, 2))


@dataclass(frozen=True)
class SearchConfig:
    """Restart count, iteration budget, objective tolerance, and seed."""

    restarts: int = 20
    max_iterations: int = 600
    tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Best scenario found, its expression value, and the per-restart trace."""

    objective: str
    value: float
    angles: tuple[float, ...]
    scenario: Scenario
    trace: tuple[float, ...]
    planar: bool

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "value": self.value,
            "angles": list(self.angles),
            "trace": list(self.trace),
        }


def _spin_from_angles(theta: float, phi: float) -> Observable:
    direction = BlochDirection.from_vector(
        (sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta))
    )
    return spin_observable(direction)


def _hardy_angles(alpha: float, beta: float) -> tuple[float, float, float, float]:
    """Planar ket angles (x1, x2, y1, y2) forcing q1 = q2 = q3 = 0 with maximal q4.

    The zero constraints fix one angle each: tan x2 = -(alpha/beta) cot x1,
    tan y1 = (alpha/beta) tan x2 and tan y2 = (alpha/beta) tan x1. Along this
    family, with u = tan^2 x1 and r = alpha/beta, q4 is proportional to
    u / ((u + r^4)(1 + r^2 u)), which peaks at u = r.
    """
    x1 = atan(sqrt(alpha / beta))
    x2 = atan2(-alpha * cos(x1), beta * sin(x1))
    y1 = atan2(alpha * sin(x2), beta * cos(x2))
    y2 = atan2(alpha * sin(x1), beta * cos(x1))
    return (x1, x2, y1, y2)


def hardy_observables(schmidt: SchmidtState, tol: float = 1e-9) -> Scenario:
    """Observables forcing q1 = q2 = q3 = 0 with the largest attainable q4.

    Among the one-parameter family of settings that satisfies the three zero
    constraints, the member with maximal q4 = (alpha beta (alpha - beta) /
    (1 - alpha beta))^2 is returned, so downstream sweeps see the strongest
    violation the state supports. If that q4 is not above ``tol``, the state
    is too close to a product state (``NotEntangled``) or to the maximally
    entangled one (``MaximallyEntangled``). The built settings are verified on
    the state's q-vector, and ``NoSolution`` is raised unless
    max(q1, q2, q3) < tol < q4.
    """
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    alpha, beta = schmidt.amplitudes
    q4_best = (alpha * beta * (alpha - beta) / (1.0 - alpha * beta)) ** 2
    if q4_best <= tol:
        detail = f"the zero constraints allow q4 <= {q4_best:.3g}, not above tol {tol}"
        if schmidt.angle < _THETA_STAR:
            raise NotEntangled(f"too little entanglement: {detail}")
        raise MaximallyEntangled(f"too close to maximal entanglement: {detail}")
    x1, x2, y1, y2 = _hardy_angles(alpha, beta)
    scenario = Scenario(
        x1=_spin_from_angles(2.0 * x1, 0.0),
        y1=_spin_from_angles(2.0 * y1, 0.0),
        x2=_spin_from_angles(2.0 * x2, 0.0),
        y2=_spin_from_angles(2.0 * y2, 0.0),
    )
    q = q_vector(schmidt.state(), scenario)
    if not max(q.q1, q.q2, q.q3) < tol < q.q4:
        raise NoSolution(
            f"constructed q = {q.q1, q.q2, q.q3, q.q4} misses max(q1, q2, q3) < {tol} < q4"
        )
    return scenario


def _scenario_from(params: np.ndarray) -> Scenario:
    """Validated scenario of the search parameters (4 planar or 8 Bloch angles)."""
    if len(params) == 4:
        observables = [_spin_from_angles(t, 0.0) for t in params]
    else:
        observables = [_spin_from_angles(params[2 * k], params[2 * k + 1]) for k in range(4)]
    return Scenario(x1=observables[0], y1=observables[1], x2=observables[2], y2=observables[3])


def _correlation_matrix(state: QuantumState) -> list[list[float]]:
    """Rows of T[a][b] = Tr[rho (sigma_a x sigma_b)] for a two-qubit state."""
    rho = state.density_matrix().reshape(2, 2, 2, 2)
    return np.einsum("ijkl,aki,blj->ab", rho, _PAULIS, _PAULIS).real.tolist()


def _ch_cost(params: np.ndarray, correlations: list[list[float]], sign: float) -> float:
    """sign * (q1 + q2 + q3 - q4) at the settings ``params`` describe.

    For spin observables the expression is the Clauser-Horne form
    1/2 + (x1.T(x2 - y2) - y1.T(x2 + y2))/4 in the unit vectors of the four
    +1 projectors: the single-side Bloch terms cancel, so only the
    correlation matrix T of the state enters. Plain floats, because this runs
    hundreds of times per restart on 3-vectors, where numpy's per-call
    overhead would dominate.
    """
    angles = params.tolist()
    if len(angles) == 4:
        vectors = [(sin(t), 0.0, cos(t)) for t in angles]
    else:
        vectors = [
            (sin(t) * cos(p), sin(t) * sin(p), cos(t))
            for t, p in zip(angles[0::2], angles[1::2])
        ]
    x1, y1, x2, y2 = vectors
    value = 0.0
    for row, a, b in zip(correlations, x1, y1):
        for t, c, d in zip(row, x2, y2):
            value += t * (a * (c - d) - b * (c + d))
    return sign * (0.5 + 0.25 * value)


def optimize_violation(
    state: QuantumState,
    objective: str,
    config: SearchConfig | None = None,
    planar: bool = True,
) -> SearchResult:
    """Derivative-free search over observable angles for extreme expression values.

    Runs Nelder-Mead from ``config.restarts`` seeded random starts. With
    ``planar=True`` the four observables live in the xz plane (one polar
    angle each); otherwise all eight Bloch angles are free. Each step
    evaluates the Clauser-Horne form of q1 + q2 + q3 - q4 from the state's
    correlation matrix, computed once per call; only the winning angles are
    turned into validated observables, and the returned value is their
    q-vector's expression. Deterministic for a fixed seed; restarts are
    merged by (value, restart index).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if state.dims != (2, 2):
        raise DimensionMismatch(f"optimizer handles qubit pairs only, got dims {state.dims}")
    config = config or SearchConfig()
    n_params = 4 if planar else 8
    sign = -1.0 if objective == "maximize_upper" else 1.0
    correlations = _correlation_matrix(state)

    values: list[float] = []
    best_params: list[np.ndarray] = []
    for index in range(config.restarts):
        rng = np.random.default_rng((config.seed, index))
        start = rng.uniform(0.0, 2.0 * pi, size=n_params)
        simplex = np.vstack([start, start + 0.1 * np.eye(n_params)])
        result = minimize(
            _ch_cost,
            start,
            args=(correlations, sign),
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "maxiter": config.max_iterations,
                "maxfev": 4 * config.max_iterations,
                "xatol": 1e-10,
                "fatol": config.tolerance,
            },
        )
        values.append(sign * float(result.fun))
        best_params.append(np.asarray(result.x, dtype=float))

    if objective == "maximize_upper":
        winner = max(range(config.restarts), key=lambda k: (values[k], -k))
    else:
        winner = min(range(config.restarts), key=lambda k: (values[k], k))
    scenario = _scenario_from(best_params[winner])
    value = generalized_expression(q_vector(state, scenario))
    return SearchResult(
        objective=objective,
        value=value,
        angles=tuple(float(t) for t in best_params[winner]),
        scenario=scenario,
        trace=tuple(values),
        planar=planar,
    )


def max_hardy_probability() -> tuple[float, float]:
    """Largest q4 the zero-probability construction reaches over Schmidt states.

    With s = sin(2 theta)/2 the construction gives q4 = s^2 (1 - 2s)/(1 - s)^2,
    which peaks where s^2 - 3s + 1 = 0: at theta* = asin(3 - sqrt 5)/2, with
    q4 = (5 sqrt 5 - 11)/2 (Hardy, PRL 71, 1665 (1993); Goldstein, PRL 72,
    1951 (1994)). Returns theta* and the q4 the construction gives there.
    """
    schmidt = SchmidtState(_THETA_STAR)
    return (_THETA_STAR, q_vector(schmidt.state(), hardy_observables(schmidt)).q4)


def werner_sweep(scenario: Scenario, v_lo: float = 0.0, v_hi: float = 1.0) -> float:
    """Visibility at which the expression crosses the upper bound.

    The state family is v |singlet><singlet| + (1 - v) I/4. The expression is
    affine in v, so its values at v_lo and v_hi give the crossing exactly by
    linear interpolation.
    """
    if not 0.0 <= v_lo < v_hi <= 1.0:
        raise ValueError(f"need 0 <= v_lo < v_hi <= 1, got [{v_lo}, {v_hi}]")
    if scenario.trichotomic:
        raise ValueError("visibility sweep expects a dichotomic scenario")
    if scenario.dims != (2, 2):
        raise DimensionMismatch(f"visibility sweep needs qubit pairs, got dims {scenario.dims}")

    excess_lo, excess_hi = (
        generalized_expression(q_vector(werner_state(v), scenario)) - 1.0 for v in (v_lo, v_hi)
    )
    if excess_hi < 0.0:
        raise NoCrossing(f"expression never exceeds the upper bound on [{v_lo}, {v_hi}]")
    if excess_lo > 0.0:
        raise NoCrossing(f"expression already exceeds the upper bound at v = {v_lo}")
    if excess_lo == excess_hi:
        return float(v_hi)  # on the bound at both ends, so everywhere
    return float(v_lo - excess_lo * (v_hi - v_lo) / (excess_hi - excess_lo))
