"""Construction and optimization of measurement settings for maximal violations, in closed form.

The zero-probability construction fixes one planar qubit angle per vanishing
probability in the Schmidt basis. The optimizer reads the extreme values off
the state's correlation matrix (Horodecki, Horodecki and Horodecki, Phys.
Lett. A 200, 340 (1995)).
"""

from __future__ import annotations

from functools import lru_cache
from math import asin, atan, atan2, cos, isfinite, pi, sin, sqrt

import numpy as np

from ._value import Value
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
    QuantumState,
    _density_tensor,
    _joint_table,
    _trusted,
    _werner_density,
)
from .witness import (
    Scenario,
    _q_from_table,
    _spin_scenario,
    generalized_expression,
    planar_scenario,
    q_vector,
)

OBJECTIVES = ("maximize_upper", "minimize_lower")

# Schmidt angle of the largest constructed q4 (see max_hardy_probability).
_THETA_STAR = 0.5 * asin(3.0 - sqrt(5.0))
# That largest q4; no Schmidt angle's construction clears a tol at or above it.
_Q4_MAX = (5.0 * sqrt(5.0) - 11.0) / 2.0
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
# Distinct (v_lo, v_hi) pairs whose Werner end densities werner_sweep keeps.
_WERNER_ENDS_KEPT = 8


class SchmidtState(Value):
    """Two-qubit pure state cos(angle)|00> + sin(angle)|11>, angle in [0, pi/4]."""

    _fields = ("angle",)

    def __init__(self, angle: float) -> None:
        self.__dict__["angle"] = angle
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0.0 <= self.angle <= pi / 4:
            raise ValueError(f"angle must lie in [0, pi/4], got {self.angle}")

    @property
    def amplitudes(self) -> tuple[float, float]:
        return (cos(self.angle), sin(self.angle))

    def state(self) -> QuantumState:
        """The pure ``QuantumState``, the same object on every call.

        It is built on the first call and kept as ``_state``, not a field.
        """
        state = self.__dict__.get("_state")
        if state is None:
            big, small = self.amplitudes
            amplitudes = np.array([big, 0.0, 0.0, small], dtype=complex)
            amplitudes.setflags(write=False)
            # The angle is validated and (cos, sin) has unit norm.
            state = _trusted(QuantumState, dims=(2, 2), kind="pure", data=amplitudes)
            object.__setattr__(self, "_state", state)
        return state


class SearchConfig(Value):
    """Restart count and seed, kept for callers that pass them.

    Both are validated, but the optimum is computed in closed form, so
    neither changes the result.
    """

    _fields = ("restarts", "seed")

    def __init__(self, restarts: int = 20, seed: int = 0) -> None:
        self.__dict__.update(restarts=restarts, seed=seed)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


class SearchResult(Value):
    """Optimal scenario, its expression value, and the angles that describe it."""

    _fields = ("objective", "value", "angles", "scenario", "planar")

    def __init__(self, objective: str, value: float, angles: tuple[float, ...], scenario: Scenario,
                 planar: bool) -> None:
        self.__dict__.update(objective=objective, value=value, angles=angles, scenario=scenario,
                             planar=planar)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "value": self.value,
            "angles": list(self.angles),
        }


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

    That q4 is (alpha beta (alpha - beta) / (1 - alpha beta))^2. If it is not
    above ``tol``, the state is too close to a product state (``NotEntangled``)
    or to the maximally entangled one (``MaximallyEntangled``). The built
    settings are verified on the state's q-vector, and ``NoSolution`` is raised
    unless max(q1, q2, q3) < tol < q4. A ``tol`` that is not positive, or not
    below the largest q4 over all Schmidt states, (5 sqrt 5 - 11)/2, raises
    ``ValueError``.
    """
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if tol >= _Q4_MAX:
        raise ValueError(
            f"tol must lie below (5 sqrt 5 - 11)/2 = {_Q4_MAX:.9g}, the largest q4 "
            f"the construction reaches for any Schmidt state, got {tol}"
        )
    alpha, beta = schmidt.amplitudes
    q4_best = (alpha * beta * (alpha - beta) / (1.0 - alpha * beta)) ** 2
    if q4_best <= tol:
        detail = f"the zero constraints allow q4 <= {q4_best:.3g}, not above tol {tol}"
        if schmidt.angle < _THETA_STAR:
            raise NotEntangled(f"too little entanglement: {detail}")
        raise MaximallyEntangled(f"too close to maximal entanglement: {detail}")
    x1, x2, y1, y2 = _hardy_angles(alpha, beta)
    scenario = planar_scenario(2.0 * x1, 2.0 * y1, 2.0 * x2, 2.0 * y2, plane="xz")
    q = q_vector(schmidt.state(), scenario)
    if not max(q.q1, q.q2, q.q3) < tol < q.q4:
        raise NoSolution(
            f"constructed q = {q.q1, q.q2, q.q3, q.q4} misses max(q1, q2, q3) < {tol} < q4"
        )
    return scenario


def optimize_violation(
    state: QuantumState,
    objective: str,
    config: SearchConfig | None = None,
    planar: bool = True,
) -> SearchResult:
    """Spin settings at which q1 + q2 + q3 - q4 takes its extreme value.

    For spin observables with +1 directions x1, y1, x2, y2 the expression is
    1/2 + (x1.T(x2 - y2) - y1.T(x2 + y2))/4. With T = U diag(t) V^T, sign
    s = +1 to maximize and -1 to minimize, and tan(phi) = t2/t1, the settings
    x1 = s u1, y1 = -s u2, x2 = cos(phi) v1 + sin(phi) v2 and
    y2 = -cos(phi) v1 + sin(phi) v2 reach (1 + s sqrt(t1^2 + t2^2))/2, the
    extreme value over all settings. With ``planar=True`` the directions lie in
    the xz plane, T is restricted to its xz block, and ``angles`` holds each
    direction's angle from the z axis, (sin a, 0, cos a); otherwise ``angles``
    holds a (theta, phi) Bloch pair per direction. Order: x1, y1, x2, y2. The
    returned value is the built scenario's q-vector expression. ``config`` is
    accepted for compatibility and does not change the result.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if state.dims != (2, 2):
        raise DimensionMismatch(f"optimizer handles qubit pairs only, got dims {state.dims}")
    # T[a][b] = Tr[rho (sigma_a x sigma_b)]
    correlations = _joint_table(_density_tensor(state), _PAULIS, _PAULIS)
    if planar:
        correlations = correlations[::2, ::2]
    u, t, vt = np.linalg.svd(correlations)
    sign = 1.0 if objective == "maximize_upper" else -1.0
    phi = atan2(t[1], t[0])
    directions = (
        sign * u[:, 0],
        -sign * u[:, 1],
        cos(phi) * vt[0] + sin(phi) * vt[1],
        -cos(phi) * vt[0] + sin(phi) * vt[1],
    )
    if planar:
        angles = tuple(atan2(x, z) for x, z in directions)
        scenario = planar_scenario(*angles, plane="xz")
    else:
        bloch = [BlochDirection.from_vector(d) for d in directions]
        angles = tuple(a for b in bloch for a in (b.theta, b.phi))
        # The settings are rebuilt from the reported angles, so that they match them exactly.
        scenario = _spin_scenario(*(b.unit_vector() for b in bloch))
    return SearchResult(
        objective=objective,
        value=generalized_expression(q_vector(state, scenario)),
        angles=angles,
        scenario=scenario,
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


@lru_cache(maxsize=_WERNER_ENDS_KEPT)
def _werner_ends(v_lo: float, v_hi: float) -> np.ndarray:
    """The Werner densities at v_lo and v_hi as one read-only (2, 2, 2, 2, 2) stack."""
    visibilities = np.array((v_lo, v_hi), dtype=float).reshape(2, 1, 1)
    densities = _werner_density(visibilities).reshape(2, 2, 2, 2, 2)
    densities.setflags(write=False)
    return densities


def werner_sweep(scenario: Scenario, v_lo: float = 0.0, v_hi: float = 1.0) -> float:
    """Visibility v at which the expression crosses 1 on v |singlet><singlet| + (1 - v) I/4.

    The expression is affine in v, so its values at v_lo and v_hi, both from one
    call of the joint kernel, give the crossing exactly by linear interpolation.
    The two end densities come from ``_werner_ends``, which keeps those of the
    last ``_WERNER_ENDS_KEPT`` pairs of ends, so repeated sweeps build them once.
    """
    if not 0.0 <= v_lo < v_hi <= 1.0:
        raise ValueError(f"need 0 <= v_lo < v_hi <= 1, got [{v_lo}, {v_hi}]")
    if scenario.trichotomic:
        raise ValueError("visibility sweep expects a dichotomic scenario")
    if scenario.dims != (2, 2):
        raise DimensionMismatch(f"visibility sweep needs qubit pairs, got dims {scenario.dims}")

    densities = _werner_ends(float(v_lo), float(v_hi))
    excess_lo, excess_hi = (
        generalized_expression(_q_from_table(table)) - 1.0
        for table in _joint_table(densities, *scenario._sides).tolist()
    )
    if excess_hi < 0.0:
        raise NoCrossing(f"expression never exceeds the upper bound on [{v_lo}, {v_hi}]")
    if excess_lo > 0.0:
        raise NoCrossing(f"expression already exceeds the upper bound at v = {v_lo}")
    if excess_lo == excess_hi:
        return float(v_hi)  # on the bound at both ends, so everywhere
    return float(v_lo - excess_lo * (v_hi - v_lo) / (excess_hi - excess_lo))
