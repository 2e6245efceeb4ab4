"""States, projective observables, and Born-rule probabilities on small bipartite systems.

Everything is dense complex double precision.
"""

from __future__ import annotations

from contextlib import closing
from itertools import combinations
from math import atan2, cos, hypot, inf, isfinite, isqrt, pi, sin, sqrt, tau
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._value import Value, _array, _number, _read_only, _shown, _trusted
from .errors import DimensionMismatch, UnknownLabel

# Absolute tolerances. Projector checks are looser than state normalization
# because user-supplied matrices may carry rounding from prior eigensolves.
PROJECTOR_ATOL = 1e-10
STATE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PROB_CLAMP_ATOL = 1e-10
_GRAM_ROWS = 3  # outcomes per Gram product, so none is over three times its stack
# A density of at most this side (dims (2, 2)) is first checked in Python floats. A residual
# or an eigenvalue this close to its bound is left to numpy, whose hypot (2 ulps from
# math.hypot on numpy 2.4's AVX-512 loops) and eigvalsh round otherwise: the float check
# passes only what numpy's checks pass.
_FLOAT_CHECKED_SIDE = 4
_FLOAT_RESIDUAL_ATOL = STATE_ATOL * (1.0 - 1e-14)
_FLOAT_PIVOT_SHIFT = EIGENVALUE_FLOOR + 1e-13

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _dimension(value) -> int:
    """A dimension as an int; anything but an integral number raises ``ValueError``."""
    try:
        number = _number(value, "dimension")
        if number.is_integer():
            return int(number)
    except ValueError:
        pass
    raise ValueError(f"dimensions must be integers, got {_shown(value)}")


class BlochDirection(Value):
    """Unit direction on the Bloch sphere, polar angle theta and azimuth phi."""

    _fields = ("theta", "phi")

    def __init__(self, theta: float, phi: float) -> None:
        theta, phi = _number(theta, "theta"), _number(phi, "phi")
        if not 0.0 <= theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
        self.__dict__.update(theta=theta, phi=phi)

    @classmethod
    def from_vector(cls, direction: Sequence[float]) -> "BlochDirection":
        """Build the direction from any nonzero 3-vector (normalized internally)."""
        vec = np.asarray(direction, dtype=float)
        if vec.shape != (3,):
            raise ValueError("direction must be a nonzero 3-vector of finite norm")
        return cls(*_bloch_angles((vec.tolist(),))[0])

    def unit_vector(self) -> np.ndarray:
        return np.array(_bloch_units(((self.theta, self.phi),))[0])


def _bloch_angles(vectors: Iterable[Sequence[float]]) -> list[tuple[float, float]]:
    """(theta, phi) of each 3-vector in ``math``, phi in [0, 2 pi); a zero, inf or NaN norm raises."""
    angles = []
    for x, y, z in vectors:
        norm = sqrt(x * x + y * y + z * z)  # infinite when it overflows
        if not 0.0 < norm < inf:
            raise ValueError("direction must be a nonzero 3-vector of finite norm")
        x, y, z = x / norm, y / norm, z / norm
        phi = atan2(y, x) % tau  # a tiny negative phi wraps to 2 pi
        angles.append((min(max(atan2(hypot(x, y), z), 0.0), pi), 0.0 if phi >= tau else phi))
    return angles


def _bloch_units(angles: Iterable[tuple[float, float]]) -> list[tuple[float, float, float]]:
    """The unit 3-vector at each (theta, phi), in ``math``."""
    return [(sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)) for theta, phi in angles]


class QuantumState(Value):
    """Bipartite state, either a pure amplitude vector or a density operator.

    ``dims`` holds the two subsystem dimensions (each >= 2); ``data`` is the
    amplitude vector (kind ``"pure"``) or the row-major density matrix (kind
    ``"density"``) on the d1*d2-dimensional joint space.
    """

    _fields = ("dims", "kind", "data")

    def __init__(self, dims: tuple[int, int], kind: str, data: np.ndarray) -> None:
        try:
            d1, d2 = map(_dimension, dims)
        except (TypeError, ValueError):
            raise ValueError(f"dims must be a pair of integers, got {_shown(dims)}") from None
        if d1 < 2 or d2 < 2:
            raise ValueError("subsystem dimensions must be at least 2")
        n = d1 * d2
        data = _array(data, complex)
        if data is None:
            raise ValueError("state data must be an array of complex numbers")
        if kind == "pure":
            if data.shape != (n,):
                raise _state_fault(data, f"pure state needs {n} amplitudes, got shape {data.shape}")
            with np.errstate(over="ignore"):
                norm_sq = float(np.sum(np.abs(data) ** 2))
            if not abs(norm_sq - 1.0) <= STATE_ATOL:
                raise _state_fault(
                    data, f"pure state squared norm {norm_sq} is not 1 within {STATE_ATOL}")
        elif kind == "density":
            if data.shape != (n, n):
                raise _state_fault(data, f"density matrix must be {n}x{n}, got shape {data.shape}")
            if n > _FLOAT_CHECKED_SIDE or not _passes_in_floats(data.tolist()):
                _check_density(data)
        else:
            raise _state_fault(data, f"kind must be 'pure' or 'density', got {kind!r}")
        self.__dict__.update(dims=(d1, d2), kind=kind, data=_read_only(data))

    @classmethod
    def pure(cls, amplitudes: Iterable[complex], dims: tuple[int, int]) -> "QuantumState":
        return cls(dims, "pure", list(amplitudes))

    @classmethod
    def density(cls, matrix: np.ndarray, dims: tuple[int, int]) -> "QuantumState":
        return cls(dims, "density", matrix)

    def density_matrix(self) -> np.ndarray:
        """Density operator; pure states are lifted to their rank-1 projector."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


def _passes_in_floats(rows: list[list[complex]]) -> bool:
    """Whether a 4x4 density surely passes ``_check_density``, decided in Python floats.

    Each entry pair must have a - conj(b) = 0, or a ``hypot`` residual within
    ``_FLOAT_RESIDUAL_ATOL``, and then gives its Hermitian part 0.5*a + 0.5*conj(b).
    The trace is summed in numpy's order, so its bits are numpy's. The PSD test is a
    Cholesky of the Hermitian part's lower triangle, the one ``eigvalsh`` reads, less
    ``_FLOAT_PIVOT_SHIFT`` I. Never raises or warns: a NaN fails a comparison, and an
    infinite entry leaves an inf or NaN trace or pivot.
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    lower = []  # the Hermitian part's h00, h10, h11, h20, ..., h33
    for a, b in ((a00, a00), (a10, a01), (a11, a11), (a20, a02), (a21, a12), (a22, a22),
                 (a30, a03), (a31, a13), (a32, a23), (a33, a33)):
        if a != b.conjugate():
            if not hypot(a.real - b.real, a.imag + b.imag) <= _FLOAT_RESIDUAL_ATOL:
                return False
            a = complex(0.5 * a.real + 0.5 * b.real, 0.5 * a.imag - 0.5 * b.imag)
        lower.append(a)
    # The diagonal passed above, so its imaginary parts are tiny and abs() cannot overflow.
    if not abs((a00 + a11) + (a22 + a33) - 1.0) <= STATE_ATOL:
        return False
    h00, h10, h11, h20, h21, h22, h30, h31, h32, h33 = lower
    # Column by column: each pivot must be positive, and its root divides the column below.
    pivot = h00.real - _FLOAT_PIVOT_SHIFT
    if not pivot > 0.0:
        return False
    root = sqrt(pivot)
    h10, h20, h30 = h10 / root, h20 / root, h30 / root
    pivot = h11.real - _FLOAT_PIVOT_SHIFT - (h10.real * h10.real + h10.imag * h10.imag)
    if not pivot > 0.0:
        return False
    root, c10 = sqrt(pivot), h10.conjugate()
    h21, h31 = (h21 - h20 * c10) / root, (h31 - h30 * c10) / root
    pivot = (h22.real - _FLOAT_PIVOT_SHIFT - (h20.real * h20.real + h20.imag * h20.imag)
             - (h21.real * h21.real + h21.imag * h21.imag))
    if not pivot > 0.0:
        return False
    h32 = (h32 - h30 * h20.conjugate() - h31 * h21.conjugate()) / sqrt(pivot)
    pivot = (h33.real - _FLOAT_PIVOT_SHIFT - (h30.real * h30.real + h30.imag * h30.imag)
             - (h31.real * h31.real + h31.imag * h31.imag)
             - (h32.real * h32.real + h32.imag * h32.imag))
    return pivot > 0.0


def _check_density(data: np.ndarray) -> None:
    """Raise the first fault of an n x n density: not Hermitian, trace not 1, or not PSD."""
    adjoint = data.conj().T
    # A non-finite entry leaves an inf or NaN residual, and huge entries overflow to one.
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = np.abs(data - adjoint).max()
        trace = complex(data.trace())
    if not asymmetry <= STATE_ATOL:
        raise _state_fault(data, "density matrix is not Hermitian within tolerance")
    if not abs(trace - 1.0) <= STATE_ATOL:
        raise _state_fault(data, f"density matrix trace {trace} is not 1 within {STATE_ATOL}")
    # data is its own Hermitian part when exact; 0.5 * (data + adjoint) may overflow.
    hermitian_part = data if asymmetry == 0.0 else 0.5 * data + 0.5 * adjoint
    smallest = float(np.linalg.eigvalsh(hermitian_part)[0])
    if smallest < EIGENVALUE_FLOOR:
        raise _state_fault(
            data, f"density matrix has eigenvalue {smallest} below {EIGENVALUE_FLOOR}")


def _state_fault(data: np.ndarray, message: str) -> ValueError:
    """The error for state data that fails a check; a non-finite entry is named before any fault."""
    return ValueError("state data has non-finite entries" if not np.isfinite(data).all() else message)


class Observable(Value):
    """Projective measurement: labeled real outcomes with orthogonal projectors.

    The projectors must be Hermitian idempotents, mutually orthogonal, and sum
    to the identity (all within ``PROJECTOR_ATOL``); labels must be distinct.
    Zero projectors are permitted, so a spectrum may be embedded in a space of
    any dimension.
    """

    _fields = ("dim", "outcomes")

    def __init__(self, dim: int, outcomes: tuple[tuple[float, np.ndarray], ...]) -> None:
        d = _dimension(dim)
        if d < 1:
            raise ValueError("dimension must be positive")
        labels, projectors, fault = [], [], None
        try:  # a fault in reading waits until the outcomes read before it pass their checks
            for i, outcome in enumerate(outcomes):
                try:
                    raw_label, projector = outcome
                except (TypeError, ValueError):
                    raise ValueError(f"outcome {i} must be a (label, projector) pair") from None
                label = _number(raw_label, "outcome label")
                if not isfinite(label):
                    raise ValueError(f"outcome label {label} must be finite")
                proj = _array(projector, complex)
                if proj is None or proj.shape != (d, d):
                    raise ValueError(f"projector for label {label} must be {d}x{d}")
                labels.append(label)
                projectors.append(proj)
        except ValueError as exc:
            fault = exc
        if not labels:  # nothing read, so nothing d x d is made
            raise fault or ValueError("observable needs at least one outcome")
        stack = _read_only(np.array(projectors, dtype=complex))
        with closing(_projective_residuals(stack[None])) as residuals:
            hermitian, passed = next(residuals)[0].max(axis=(1, 2)) <= PROJECTOR_ATOL, []
            for a, label in enumerate(labels):
                if not hermitian[a]:  # where a non-finite entry also lands
                    problem = ("is not Hermitian" if np.isfinite(stack[a]).all()
                               else "has non-finite entries")
                    raise ValueError(f"projector for label {label} {problem}")
                if a % _GRAM_ROWS == 0:  # passed[a][b]: P_a P_b - [a=b] P_a vanishes
                    passed.extend(next(residuals)[0].max(axis=(1, 3)) <= PROJECTOR_ATOL)
                if not passed[a][a]:
                    raise ValueError(f"projector for label {label} is not idempotent")
            if fault is not None:
                raise fault
            if len(set(labels)) != len(labels):
                raise ValueError(f"outcome labels must be distinct, got {labels}")
            for (a, first), (b, second) in combinations(enumerate(labels), 2):
                if not (passed[a][b] and passed[b][a]):
                    raise ValueError(f"projectors for labels {first} and {second} are not orthogonal")
            if not next(residuals).max() <= PROJECTOR_ATOL:
                raise ValueError("projectors do not sum to the identity")
        self.__dict__.update(dim=d, outcomes=tuple(zip(labels, stack)))

    @property
    def labels(self) -> tuple[float, ...]:
        return tuple(label for label, _ in self.outcomes)

    def projector(self, label: float) -> np.ndarray:
        target = _number(label, "label")
        for known, proj in self.outcomes:
            if known == target:
                return proj
        raise UnknownLabel(f"label {label} not in spectrum {self.labels}")


def _projective_residuals(stack: np.ndarray) -> Iterator[np.ndarray]:
    """The residuals of an (n, k, d, d) stack in the rule's order, each made when read.

    |P - P^dagger|; |P_a P_b - [a=b] P_a| at [o, a, :, b, :], one array per ``_GRAM_ROWS``
    outcomes a; |sum_a P_a - I|. Huge or non-finite entries leave inf or NaN, which fail a
    ``<=``. Numpy's error state is held while paused, so read to the end or close it.
    """
    n, k, d, _ = stack.shape
    with np.errstate(over="ignore", invalid="ignore"):
        yield np.abs(stack - stack.conj().swapaxes(2, 3))
        side_by_side = stack.transpose(0, 2, 1, 3).reshape(n, d, k * d)  # [P_0 P_1 ...]
        for a in range(0, k, _GRAM_ROWS):
            rows = stack[:, a:a + _GRAM_ROWS]
            gram = (rows.reshape(n, -1, d) @ side_by_side).reshape(n, -1, d, k, d)
            np.einsum("oaiaj->oaij", gram[:, :, :, a:a + _GRAM_ROWS])[...] -= rows  # a writeable view
            yield np.abs(gram)
        yield np.abs(stack.sum(axis=1) - np.eye(d))


def _projective(stack: np.ndarray) -> bool:
    """Whether each observable of an (n, k, d, d) stack is projective, up to the first failed test."""
    # ``all`` drops the residuals where it stops, and dropping them closes them.
    return all(r.max(initial=0.0) <= PROJECTOR_ATOL for r in _projective_residuals(stack))


def spin_observable(direction: BlochDirection) -> Observable:
    """Dichotomic spin observable along ``direction`` with outcomes +1 and -1."""
    plus, minus = _spin_projectors((direction.unit_vector(),))[0]
    return _trusted(Observable, dim=2, outcomes=((1.0, plus), (-1.0, minus)))


def _spin_projectors(units: Iterable[Sequence[float]]) -> np.ndarray:
    """``_spin_floats`` of n unit 3-vectors as one read-only (n, 2, 2, 2) array: [k, 0] is +1."""
    return _read_only(np.array(_spin_floats(units), dtype=float).view(complex).reshape(-1, 2, 2, 2))


def _spin_floats(units: Iterable[Sequence[float]]) -> list[float]:
    """16 floats per unit n: re and im of p00, p01, p10, p11 of (1 + n.sigma)/2, then (1 - n.sigma)/2.

    ``+ 0.0`` and ``0.0 -`` turn a -0.0 into 0.0, so zero entries print without a sign.
    """
    flat = []
    for nx, ny, nz in units:
        up, down = 0.5 * (1.0 + nz), 0.5 * (1.0 - nz)
        x, y = 0.5 * nx + 0.0, 0.5 * ny + 0.0
        mx, my = 0.0 - x, 0.0 - y
        flat += (up, 0.0, x, my, x, y, down, 0.0, down, 0.0, mx, y, mx, my, up, 0.0)
    return flat


def bloch_vector(projector: np.ndarray) -> np.ndarray:
    """Bloch vector of a qubit projector, the inverse of ``spin_observable``."""
    proj = np.asarray(projector, dtype=complex)
    return np.array([float(np.trace(proj @ pauli).real) for pauli in (PAULI_X, PAULI_Y, PAULI_Z)])


def _clamp_probability(p: float) -> float:
    if -PROB_CLAMP_ATOL <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + PROB_CLAMP_ATOL:
        return 1.0
    return p


def _density_tensor(state: QuantumState) -> np.ndarray:
    """rho as a read-only (d1, d2, d1, d2) array, rho4[i, j, k, l] = <ij|rho|kl>."""
    d1, d2 = state.dims
    if state.kind == "pure":
        psi = state.data.reshape(d1, d2)
        return _read_only(psi[:, :, None, None] * psi.conj())
    return state.data.reshape(d1, d2, d1, d2)  # a view of the read-only data


def _joint_table(rho4: np.ndarray, side1: np.ndarray, side2: np.ndarray) -> np.ndarray:
    """T[..., a, b] = Re Tr[rho (side1[a] x side2[b])] for stacks of operators on each side.

    The one joint kernel. ``rho4`` may carry leading batch axes, one table per
    state. Probabilities are clamped where they are read, not here.
    """
    return np.einsum("...ijkl,aki,blj->...ab", rho4, side1, side2).real


def _marginal(rho4: np.ndarray, side: int, proj: np.ndarray) -> float:
    """Tr[rho_side P], with the other subsystem traced out of rho4."""
    spec = "ijkj,ki->" if side == 1 else "ijil,lj->"
    return _clamp_probability(float(np.einsum(spec, rho4, proj).real))


def joint_probability(
    state: QuantumState,
    obs1: Observable,
    label1: float,
    obs2: Observable,
    label2: float,
) -> float:
    """Probability of observing ``label1`` on side 1 and ``label2`` on side 2."""
    if (obs1.dim, obs2.dim) != state.dims:
        raise DimensionMismatch(
            f"observables act on {(obs1.dim, obs2.dim)}, state has dims {state.dims}"
        )
    table = _joint_table(
        _density_tensor(state), obs1.projector(label1)[None], obs2.projector(label2)[None]
    )
    return _clamp_probability(float(table[0, 0]))


def marginal_probability(
    state: QuantumState, side: int, obs: Observable, label: float
) -> float:
    """Single-side outcome probability, the other subsystem traced out."""
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    if obs.dim != state.dims[side - 1]:
        raise DimensionMismatch(
            f"observable dimension {obs.dim} does not match side {side} of dims {state.dims}"
        )
    return _marginal(_density_tensor(state), side, obs.projector(label))


def singlet() -> QuantumState:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0 / np.sqrt(2.0)
    amps[2] = -1.0 / np.sqrt(2.0)
    return QuantumState.pure(amps, (2, 2))


# The singlet's density matrix, built and validated once; _werner_density mixes it.
_SINGLET_DENSITY = _read_only(singlet().density_matrix())
_WHITE_NOISE = np.eye(4) / 4.0


def _werner_density(v) -> np.ndarray:
    """v |singlet><singlet| + (1 - v) I/4, with v unchecked.

    ``v`` is a visibility, or an array of them shaped (n, 1, 1) for a stack of n densities.
    """
    return v * _SINGLET_DENSITY + (1.0 - v) * _WHITE_NOISE


def maximally_mixed(d1: int, d2: int) -> QuantumState:
    n = d1 * d2
    return QuantumState.density(np.eye(n) / n, (d1, d2))


def werner_state(visibility: float) -> QuantumState:
    """Singlet mixed with white noise: v |psi><psi| + (1 - v) I/4."""
    v = _number(visibility, "visibility")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    # A convex mix of two states is a state.
    return _trusted(QuantumState, dims=(2, 2), kind="density", data=_read_only(_werner_density(v)))


# ---------------------------------------------------------------------------
# JSON wire format. Complex entries are [re, im] pairs; matrices are row-major.

def _pairs_from_complex(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _complex_from_pairs(pairs: Sequence[Sequence[float]], field: str) -> np.ndarray:
    if not isinstance(pairs, list):
        raise ValueError(f"{field} must be a list of [re, im] pairs, got {pairs!r}")
    values = []
    for pair in pairs:
        try:
            re, im = pair
            # complex() itself refuses strings, null and lists, but takes booleans.
            if type(re) is bool or type(im) is bool:
                raise TypeError
            values.append(complex(re, im))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"{field} entries must be [re, im] pairs of numbers, got {pair!r}"
            ) from None
    return np.array(values, dtype=complex)


def _square(flat: np.ndarray) -> np.ndarray:
    """``flat`` as a row-major square matrix if its length is a square; otherwise as it is."""
    side = isqrt(flat.size)
    return flat.reshape(side, side) if side * side == flat.size else flat


def state_to_dict(state: QuantumState) -> dict:
    return {
        "dims": [state.dims[0], state.dims[1]],
        "kind": state.kind,
        "data": _pairs_from_complex(state.data),
    }


def state_from_dict(payload: dict) -> QuantumState:
    """A state from its wire form, read as it is and checked by ``QuantumState``."""
    if not isinstance(payload, dict):
        raise ValueError(f"state must be an object, got {payload!r}")
    dims, kind = payload["dims"], payload["kind"]
    data = _complex_from_pairs(payload["data"], "data")
    return QuantumState(dims, kind, _square(data) if kind == "density" else data)


def observable_to_dict(obs: Observable) -> dict:
    return {
        "dim": obs.dim,
        "outcomes": [
            {"label": label, "projector": _pairs_from_complex(proj)}
            for label, proj in obs.outcomes
        ],
    }


def observable_from_dict(payload: dict) -> Observable:
    """An observable from its wire form: the ``bloch`` shorthand, or outcomes for ``Observable``."""
    if not isinstance(payload, dict):
        raise ValueError(f"observable must be an object, got {payload!r}")
    if "bloch" in payload:
        angles = payload["bloch"]
        if not isinstance(angles, dict):
            raise ValueError(f"bloch must be an object with theta and phi, got {angles!r}")
        theta = _number(angles["theta"], "bloch theta")
        return spin_observable(BlochDirection(theta, _number(angles["phi"], "bloch phi")))
    d, entries = payload["dim"], payload["outcomes"]
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError(f"outcomes must be a list of objects, got {entries!r}")
    return Observable(d, tuple(
        (entry["label"], _square(_complex_from_pairs(entry["projector"], "projector")))
        for entry in entries
    ))
