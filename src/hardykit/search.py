"""Construction and optimization of measurement settings for maximal violations, in closed form.

The zero-probability construction fixes one planar qubit angle per vanishing
probability in the Schmidt basis. The optimizer reads the extreme values off
the state's correlation matrix (Horodecki, Horodecki and Horodecki, Phys.
Lett. A 200, 340 (1995)).
"""

from __future__ import annotations

from math import asin, atan, atan2, cos, hypot, isfinite, pi, sin, sqrt, tau

import numpy as np

from ._value import Value, _number, _read_only, _trusted
from .errors import (
    DimensionMismatch,
    MaximallyEntangled,
    NoCrossing,
    NoSolution,
    NotEntangled,
)
from .qcore import (
    QuantumState,
    _bloch_angles,
    _bloch_units,
    _density_tensor,
    _joint_table,
    _spin_floats,
    _werner_density,
)
from .witness import (
    HARDY_VIOLATION,
    Scenario,
    _checked_q,
    _expression,
    _keep,
    _q_list,
    _spin_scenario,
    _xz_scenario,
    classify,
    q_vector,
)

OBJECTIVES = ("maximize_upper", "minimize_lower")

# Schmidt angle of the largest constructed q4 (see max_hardy_probability).
_THETA_STAR = 0.5 * asin(3.0 - sqrt(5.0))
# That largest q4; no Schmidt angle's construction clears a tol at or above it.
_Q4_MAX = (5.0 * sqrt(5.0) - 11.0) / 2.0
# The Werner densities at v = 0 and v = 1, as one read-only (2, 2, 2, 2, 2) stack.
_WERNER_ENDS = _read_only(_werner_density(np.array((0.0, 1.0))[:, None, None]).reshape((2,) * 5))
# Their nonzero entries, all real: 1/4 (v = 0, diagonal), s and -s (v = 1; s = 0.4999999999999999).
_QUARTER, _S, _MINUS_S = (_WERNER_ENDS[e].real.item()
                          for e in ((0, 0, 0, 0, 0), (1, 0, 1, 0, 1), (1, 0, 1, 1, 0)))


class SchmidtState(Value):
    """Two-qubit pure state cos(angle)|00> + sin(angle)|11>, angle in [0, pi/4]."""

    _fields = ("angle",)

    def __init__(self, angle: float) -> None:
        angle = _number(angle, "angle")
        if not 0.0 <= angle <= pi / 4:
            raise ValueError(f"angle must lie in [0, pi/4], got {angle}")
        amplitudes = _read_only(np.array([cos(angle), 0.0, 0.0, sin(angle)], dtype=complex))
        # The angle is validated and (cos, sin) has unit norm.
        state = _trusted(QuantumState, dims=(2, 2), kind="pure", data=amplitudes)
        self.__dict__.update(angle=angle, _state=state)

    @property
    def amplitudes(self) -> tuple[float, float]:
        return (cos(self.angle), sin(self.angle))

    def state(self) -> QuantumState:
        """The pure ``QuantumState``, built with the value and kept as ``_state`` (not a field)."""
        return self._state


class SearchConfig(Value):
    """Restart count and seed: validated, but the closed-form optimum reads neither."""

    _fields = ("restarts", "seed")

    def __init__(self, restarts: int = 20, seed: int = 0) -> None:
        count = _number(restarts, "restarts")
        if not (count >= 1.0 and count.is_integer()):
            raise ValueError(f"restarts must be positive and integral, got {restarts!r}")
        self.__dict__.update(restarts=restarts, seed=seed)


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
    """Bloch angles (x1, y1, x2, y2) in the xz plane forcing q1 = q2 = q3 = 0 with maximal q4.

    Each is twice its ket angle. The zero constraints fix one ket angle each:
    tan x2 = -(alpha/beta) cot x1, tan y1 = (alpha/beta) tan x2 and
    tan y2 = (alpha/beta) tan x1. Along this family, with u = tan^2 x1 and r = alpha/beta,
    q4 is proportional to u / ((u + r^4)(1 + r^2 u)), which peaks at u = r.
    """
    x1 = atan(sqrt(alpha / beta))
    x2 = atan2(-alpha * cos(x1), beta * sin(x1))
    y1 = atan2(alpha * sin(x2), beta * cos(x2))
    y2 = atan2(alpha * sin(x1), beta * cos(x1))
    return (2.0 * x1, 2.0 * y1, 2.0 * x2, 2.0 * y2)


def hardy_observables(schmidt: SchmidtState, tol: float = 1e-9) -> Scenario:
    """Observables forcing q1 = q2 = q3 = 0 with the largest attainable q4.

    That q4 is (alpha beta (alpha - beta) / (1 - alpha beta))^2. If it is not
    above ``tol``, the state is too close to a product state (``NotEntangled``)
    or to the maximally entangled one (``MaximallyEntangled``). The built
    settings are verified on the state's q-vector, and ``NoSolution`` is raised
    unless ``classify`` names it a Hardy violation at the same ``tol``. A ``tol`` that is
    not positive, or not below the closed form (5 sqrt 5 - 11)/2, raises ``ValueError``; theta*'s
    float q4 lies below it, so ``tol = max_hardy_probability()[1]`` raises ``NoSolution`` there.
    """
    tol = _number(tol, "tol")
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
    scenario = _xz_scenario(_hardy_angles(alpha, beta))
    q = _keep(scenario, schmidt.state(), *_schmidt_table(alpha, beta, scenario._units))
    if classify(q, tol=tol) != HARDY_VIOLATION:
        raise NoSolution(
            f"constructed q = {q.q1, q.q2, q.q3, q.q4} is not a {HARDY_VIOLATION} at tol {tol}: "
            f"classify needs q1, q2, q3 < tol < q4 and q1 + q2 + q3 - q4 < -tol"
        )
    return scenario


def _spin_sides(units: tuple) -> tuple:
    """Each side's rows x = +1, y = +1, x = -1 (``_side`` order), 8 ``_spin_floats`` each."""
    f = _spin_floats(units)
    return (f[0:8], f[16:24], f[8:16]), (f[32:40], f[48:56], f[40:48])


def _schmidt_table(alpha: float, beta: float, units: tuple) -> tuple:
    """CH's marginals and the table of alpha|00> + beta|11> on xz-plane spin ``units``: an entry
    adds its real rho * s1 * s2 terms to 0.0 in the kernel's order (TestHardyTableInKernelOrder)."""
    r00, r03, r33 = alpha * alpha, alpha * beta, beta * beta
    s1, s2 = _spin_sides(units)
    table = [[0.0 + r00 * a[0] * b[0] + r03 * a[4] * b[4] + r03 * a[2] * b[2] + r33 * a[6] * b[6]
              for b in s2] for a in s1]
    return tuple(r00 * y[0] + r33 * y[6] for y in (s1[1], s2[1])), table


def optimize_violation(
    state: QuantumState,
    objective: str,
    config: SearchConfig | None = None,
    planar: bool = True,
) -> SearchResult:
    """Spin settings at which q1 + q2 + q3 - q4 takes its extreme value.

    For spin observables with +1 directions x1, y1, x2, y2 the expression is
    1/2 + (x1.T(x2 - y2) - y1.T(x2 + y2))/4. With T = U diag(t) V^T, s = +1 to
    maximize and -1 to minimize, and tan(phi) = t2/t1, the settings x1 = s u1,
    y1 = -s u2, x2 = cos(phi) v1 + sin(phi) v2 and y2 = -cos(phi) v1 + sin(phi) v2
    reach the extreme value (1 + s sqrt(t1^2 + t2^2))/2. ``planar=True`` factors
    T's xz block in closed form (``_xz_factors``) and gives each direction's angle
    a from the z axis, (sin a, 0, cos a), in (-pi, pi]; otherwise numpy's SVD of T
    gives the directions and ``math`` their (theta, phi) Bloch pairs. Order: x1, y1,
    x2, y2. The value is the built scenario's q-vector expression.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if state.dims != (2, 2):
        raise DimensionMismatch(f"optimizer handles qubit pairs only, got dims {state.dims}")
    sign = 1.0 if objective == "maximize_upper" else -1.0
    rho = state.data if state.kind == "density" else _density_tensor(state).reshape(4, 4)
    correlations = _correlations(rho.tolist(), planar)
    if planar:
        p, q, t1, t2 = _xz_factors(correlations)
        phi, half = atan2(t2, t1), 0.0 if sign > 0.0 else pi
        # u1, u2, v1 and v2 lie at pi/2 - p, -p, pi/2 + q and q from the z axis, and
        # x2 and y2 are v1 and -v1 turned by phi toward v2.
        angles = tuple(a - tau if a > pi else a + tau if a <= -pi else a for a in (
            pi / 2 - p + half, pi - half - p, pi / 2 + q - phi, q - pi / 2 + phi))
        scenario = _xz_scenario(angles)
    else:
        u, t, vt = (m.tolist() for m in np.linalg.svd(np.array(correlations)))
        phi = atan2(t[1], t[0])
        c, s = cos(phi), sin(phi)
        v12 = list(zip(vt[0], vt[1]))
        bloch = _bloch_angles(([sign * row[0] for row in u], [-sign * row[1] for row in u],
                               [c * a + s * b for a, b in v12], [-c * a + s * b for a, b in v12]))
        angles = tuple(a for pair in bloch for a in pair)
        # The settings are rebuilt from the reported angles, so that they match them exactly.
        scenario = _spin_scenario(*_bloch_units(bloch))
    # generalized_expression(q_vector(state, scenario)), with no QVector and nothing kept
    table = _joint_table(rho.reshape(2, 2, 2, 2), *scenario._sides).tolist()
    return SearchResult(objective, _expression(_q_list(table)), angles, scenario, planar)


def _correlations(r: list[list[complex]], planar: bool) -> list[list[float]]:
    """T[a][b] = Re Tr[rho (sigma_a x sigma_b)] from rho's rows ``r``; its xz block when planar.

    Each term is exact (a Pauli product is 0, +-1 or +-i), so a sum's order alone sets its bits;
    each adds to 0.0 in the joint kernel's (i, j, k, l) order, which tests/test_search.py checks.
    """
    xx = 0.0 + r[0][3].real + r[1][2].real + r[2][1].real + r[3][0].real
    xz = 0.0 + r[0][2].real - r[1][3].real + r[2][0].real - r[3][1].real
    zx = 0.0 + r[0][1].real + r[1][0].real - r[2][3].real - r[3][2].real
    zz = 0.0 + r[0][0].real - r[1][1].real - r[2][2].real + r[3][3].real
    if planar:
        return [[xx, xz], [zx, zz]]
    return [[xx, 0.0 - r[0][3].imag + r[1][2].imag - r[2][1].imag + r[3][0].imag, xz],
            [0.0 - r[0][3].imag - r[1][2].imag + r[2][1].imag + r[3][0].imag,
             0.0 - r[0][3].real + r[1][2].real + r[2][1].real - r[3][0].real,
             0.0 - r[0][2].imag + r[1][3].imag + r[2][0].imag - r[3][1].imag],
            [zx, 0.0 - r[0][1].imag + r[1][0].imag + r[2][3].imag - r[3][2].imag, zz]]


def _xz_factors(block: list[list[float]]) -> tuple[float, float, float, float]:
    """(p, q, t1, t2), t1 >= |t2|, with block = R(p) diag(t1, t2) R(q), R a rotation.

    The block [[a, b], [c, d]] is e I + h J (J the quarter turn) plus the reflection
    [[f, g], [g, -f]]. ``+ 0.0`` turns -0.0 into 0.0: a zero part takes atan2(0, 0) = 0.
    """
    (a, b), (c, d) = block
    e, f, g, h = [x / 2 + 0.0 for x in (a + d, a - d, c + b, c - b)]
    turn, mirror, big, small = atan2(h, e), atan2(g, f), hypot(e, h), hypot(f, g)
    return ((turn + mirror) / 2, (turn - mirror) / 2, big + small, big - small)


def max_hardy_probability() -> tuple[float, float]:
    """Largest q4 the zero-probability construction reaches over Schmidt states.

    With s = sin(2 theta)/2 the construction gives q4 = s^2 (1 - 2s)/(1 - s)^2,
    which peaks where s^2 - 3s + 1 = 0: at theta* = asin(3 - sqrt 5)/2, with
    q4 = (5 sqrt 5 - 11)/2 (Hardy, PRL 71, 1665 (1993); Goldstein, PRL 72,
    1951 (1994)). Returns theta* and the q4 the construction gives there.
    """
    schmidt = SchmidtState(_THETA_STAR)
    return (_THETA_STAR, q_vector(schmidt.state(), hardy_observables(schmidt)).q4)


def werner_sweep(scenario: Scenario) -> float:
    """Visibility v in [0, 1] where the expression crosses 1 on v |singlet><singlet| + (1 - v) I/4.

    The expression is affine in v, so its two end values (``_werner_excesses``) give v exactly.
    """
    if scenario.trichotomic:
        raise ValueError("visibility sweep expects a dichotomic scenario")
    if scenario.dims != (2, 2):
        raise DimensionMismatch(f"visibility sweep needs qubit pairs, got dims {scenario.dims}")
    excess_lo, excess_hi = _werner_excesses(scenario)
    if excess_hi < 0.0:
        raise NoCrossing("expression never exceeds the upper bound on [0.0, 1.0]")
    if excess_lo > 0.0:
        raise NoCrossing("expression already exceeds the upper bound at v = 0.0")
    if excess_lo == excess_hi:
        return 1.0  # on the bound at both ends, so everywhere
    return 0.0 - excess_lo / (excess_hi - excess_lo)


def _werner_excesses(scenario: Scenario) -> tuple[float, float]:
    """The expression less 1 at v = 0 and v = 1, from ``_werner_q`` or else one kernel call."""
    units = scenario.__dict__.get("_units")
    if units is None:
        ends = map(_q_list, _joint_table(_WERNER_ENDS, *scenario._sides).tolist())
    else:
        ends = map(_checked_q, _werner_q(units))
    return tuple(_expression(q) - 1.0 for q in ends)


def _werner_q(units: tuple) -> tuple[list[float], list[float]]:
    """Unclamped q1..q4 of spin ``units`` at v = 0 and v = 1: each adds its four (real rho * s1)
    * s2 terms to 0.0 in the kernel's (i, j, k, l) order (TestWernerEndsInKernelOrder)."""
    (x1, y1, mx1), (x2, y2, mx2) = _spin_sides(units)
    quarter, s, m = _QUARTER, _S, _MINUS_S  # at 0000, 0101, 1010, 1111 / 0101, 1010 / 0110, 1001
    lo, hi = [], []
    for a, b in ((x1, x2), (y1, mx2), (mx1, y2), (y1, y2)):  # the rows of q1, q2, q3, q4
        lo.append(0.0 + quarter * a[0] * b[0] + quarter * a[0] * b[6] + quarter * a[6] * b[0]
                  + quarter * a[6] * b[6])
        hi.append(0.0 + s * a[0] * b[6] + (m * a[4] * b[2] - m * a[5] * b[3])
                  + (m * a[2] * b[4] - m * a[3] * b[5]) + s * a[6] * b[0])
    return lo, hi
