"""Construction and optimization of measurement settings for maximal violations.

The zero-probability construction works in the Schmidt basis, where every
needed observable is a real planar qubit projector parametrized by one angle.
The three vanishing joint probabilities become three orthogonality residuals;
Newton iteration solves them for any value of the one remaining free angle,
and a bounded line search picks the family member with the largest fourth
probability.

The setting optimizer searches qubit-pair angles on the Clauser-Horne form of
the witness, which depends on the state only through its correlation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin

import numpy as np
from scipy.optimize import minimize, minimize_scalar

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

_NUMERIC_ZERO = 1e-12
_RESIDUAL_TARGET = 1e-13      # amplitude residual; probabilities land at its square
_FAMILY_MARGIN = 1e-3         # keep the free angle away from the degenerate endpoints
_FAMILY_GRID = 41
_BISECTION_WIDTH = 1e-6
_NEWTON_STARTS = ((0.9, 0.5, 0.5), (2.2, -0.6, 1.2), (-1.1, 1.4, -0.8), (0.4, 2.4, 2.0))
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


def _planar_qubit_observable(ket_angle: float) -> Observable:
    """Dichotomic observable whose +1 eigenvector is (cos a, sin a)."""
    direction = BlochDirection.from_vector(
        (sin(2.0 * ket_angle), 0.0, cos(2.0 * ket_angle))
    )
    return spin_observable(direction)


def _spin_from_angles(theta: float, phi: float) -> Observable:
    direction = BlochDirection.from_vector(
        (sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta))
    )
    return spin_observable(direction)


def _solve_remaining_angles(
    alpha: float, beta: float, x1: float, start: tuple[float, float, float]
) -> tuple[float, float, float] | None:
    """Newton iteration for the three orthogonality residuals at fixed x1.

    Unknowns are the planar angles (x2, y1, y2) of the remaining +1
    eigenvectors; the Jacobian is triangular in that ordering, so each step is
    a forward substitution. Returns None if the residuals fail to reach the
    target.
    """
    c1, s1 = cos(x1), sin(x1)
    x2, y1, y2 = start
    for _ in range(80):
        c2, s2 = cos(x2), sin(x2)
        cy1, sy1 = cos(y1), sin(y1)
        cy2, sy2 = cos(y2), sin(y2)
        r1 = alpha * c1 * c2 + beta * s1 * s2
        r2 = -alpha * cy1 * s2 + beta * sy1 * c2
        r3 = -alpha * s1 * cy2 + beta * c1 * sy2
        if max(abs(r1), abs(r2), abs(r3)) < _RESIDUAL_TARGET:
            return (x2, y1, y2)
        j11 = -alpha * c1 * s2 + beta * s1 * c2
        j21 = -alpha * cy1 * c2 - beta * sy1 * s2
        j22 = alpha * sy1 * s2 + beta * cy1 * c2
        j33 = alpha * s1 * sy2 + beta * c1 * cy2
        if min(abs(j11), abs(j22), abs(j33)) < 1e-14:
            x2 += 0.7  # deterministic nudge off a singular point
            y1 += 0.3
            y2 += 0.3
            continue
        dx2 = r1 / j11
        x2 -= dx2
        y1 -= (r2 - j21 * dx2) / j22
        y2 -= r3 / j33
    return None


def _family_member(
    alpha: float,
    beta: float,
    x1: float,
    warm: tuple[float, float, float] | None,
) -> tuple[float, tuple[float, float, float]] | None:
    """Solve the zero constraints at x1 and report (q4, solved angles)."""
    starts = list(_NEWTON_STARTS) if warm is None else [warm, *_NEWTON_STARTS]
    for start in starts:
        solved = _solve_remaining_angles(alpha, beta, x1, start)
        if solved is not None:
            _, y1, y2 = solved
            amplitude = alpha * cos(y1) * cos(y2) + beta * sin(y1) * sin(y2)
            return (amplitude * amplitude, solved)
    return None


def _best_construction(alpha: float, beta: float) -> tuple[float, float, float, float] | None:
    """Angles (x1, x2, y1, y2) of the family member with maximal q4."""
    lo, hi = _FAMILY_MARGIN, pi / 2 - _FAMILY_MARGIN
    warm: tuple[float, float, float] | None = None
    best_q4, best_x1 = -1.0, None
    for x1 in np.linspace(lo, hi, _FAMILY_GRID):
        member = _family_member(alpha, beta, x1, warm)
        if member is None:
            continue
        q4, warm = member
        if q4 > best_q4:
            best_q4, best_x1 = q4, x1
    if best_x1 is None:
        return None

    cache: dict[str, tuple[float, float, float] | None] = {"warm": warm}

    def negative_q4(x1: float) -> float:
        member = _family_member(alpha, beta, x1, cache["warm"])
        if member is None:
            return 0.0
        q4, cache["warm"] = member
        return -q4

    step = (hi - lo) / (_FAMILY_GRID - 1)
    refined = minimize_scalar(
        negative_q4,
        bounds=(max(lo, best_x1 - step), min(hi, best_x1 + step)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    x1_star = float(refined.x) if -refined.fun >= best_q4 else float(best_x1)
    member = _family_member(alpha, beta, x1_star, cache["warm"])
    if member is None:
        return None
    _, (x2, y1, y2) = member
    return (x1_star, x2, y1, y2)


def hardy_observables(schmidt: SchmidtState, tol: float = 1e-9) -> Scenario:
    """Observables forcing q1 = q2 = q3 = 0 with the largest attainable q4.

    Works for entangled, non-maximally-entangled Schmidt states. Among the
    one-parameter family of settings that satisfies the three zero
    constraints, the member with maximal q4 is returned, so downstream sweeps
    see the strongest violation the state supports.
    """
    theta = schmidt.angle
    if theta <= _NUMERIC_ZERO:
        raise NotEntangled("product state: the zero-probability argument needs entanglement")
    if pi / 4 - theta <= tol:
        raise MaximallyEntangled(
            "maximally entangled state: the zero constraints force q4 = 0"
        )
    alpha, beta = schmidt.amplitudes
    angles = _best_construction(alpha, beta)
    if angles is None:
        raise NoSolution("zero-constraint solver did not reach the residual target")
    x1, x2, y1, y2 = angles
    scenario = Scenario(
        x1=_planar_qubit_observable(x1),
        y1=_planar_qubit_observable(y1),
        x2=_planar_qubit_observable(x2),
        y2=_planar_qubit_observable(y2),
    )
    q = q_vector(schmidt.state(), scenario)
    if max(q.q1, q.q2, q.q3) >= tol:
        raise NoSolution(f"constructed zeros {q.q1, q.q2, q.q3} exceed tol {tol}")
    if q.q4 <= tol:
        raise NoSolution(f"constructed q4 = {q.q4} is not above tol {tol}")
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


def _constructed_q4(theta: float, tol: float = 1e-9) -> float:
    schmidt = SchmidtState(theta)
    scenario = hardy_observables(schmidt, tol)
    return q_vector(schmidt.state(), scenario).q4


def max_hardy_probability(resolution: int) -> tuple[float, float]:
    """Largest q4 the zero-probability construction reaches over Schmidt states.

    Sweeps the Schmidt angle over (0, pi/4) at the given grid resolution,
    running the full construction at every point, then polishes the best grid
    point with a bounded line search. Returns (best angle, best q4).
    """
    if resolution < 100:
        raise ValueError(f"resolution must be at least 100, got {resolution}")
    thetas = np.linspace(0.0, pi / 4, resolution + 2)[1:-1]
    q4s = np.array([_constructed_q4(theta) for theta in thetas])
    best = int(np.argmax(q4s))
    step = thetas[1] - thetas[0]
    lo = max(float(thetas[best]) - step, float(thetas[0]))
    hi = min(float(thetas[best]) + step, float(thetas[-1]))
    refined = minimize_scalar(
        lambda theta: -_constructed_q4(theta),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-9},
    )
    if -refined.fun >= q4s[best]:
        return (float(refined.x), float(-refined.fun))
    return (float(thetas[best]), float(q4s[best]))


def werner_sweep(scenario: Scenario, v_lo: float = 0.0, v_hi: float = 1.0) -> float:
    """Visibility at which the expression crosses the upper bound, by bisection.

    The state family is v |singlet><singlet| + (1 - v) I/4; the expression is
    affine in v, so the crossing is unique once bracketed. The bisection stops
    when the bracket is narrower than 1e-6.
    """
    if not 0.0 <= v_lo < v_hi <= 1.0:
        raise ValueError(f"need 0 <= v_lo < v_hi <= 1, got [{v_lo}, {v_hi}]")
    if scenario.trichotomic:
        raise ValueError("visibility sweep expects a dichotomic scenario")
    if scenario.dims != (2, 2):
        raise DimensionMismatch(f"visibility sweep needs qubit pairs, got dims {scenario.dims}")

    def excess(v: float) -> float:
        return generalized_expression(q_vector(werner_state(v), scenario)) - 1.0

    lo, hi = float(v_lo), float(v_hi)
    if excess(hi) < 0.0:
        raise NoCrossing(f"expression never exceeds the upper bound on [{v_lo}, {v_hi}]")
    if excess(lo) > 0.0:
        raise NoCrossing(f"expression already exceeds the upper bound at v = {v_lo}")
    while hi - lo > _BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
