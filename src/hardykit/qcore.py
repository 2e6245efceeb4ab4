"""States, projective observables, and Born-rule probabilities on small bipartite systems.

Everything is dense complex double precision. Public constructors validate
their input in full; values the package builds itself and knows to be valid
skip that check through ``_trusted``.
"""

from __future__ import annotations

from itertools import combinations
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from ._value import Value
from .errors import DimensionMismatch, UnknownLabel

# Absolute tolerances. Projector checks are looser than state normalization
# because user-supplied matrices may carry rounding from prior eigensolves.
PROJECTOR_ATOL = 1e-10
STATE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PROB_CLAMP_ATOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _number(value, field: str) -> float:
    """A number as a float; a boolean, a string or what ``float`` refuses raises ``ValueError``."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{field} must be a number, got {value!r}")


def _dimension(value) -> int:
    """A dimension as an int; anything but an integral number raises ``ValueError``."""
    try:
        number = _number(value, "dimension")
        if number.is_integer():
            return int(number)
    except ValueError:
        pass
    raise ValueError(f"dimensions must be integers, got {value!r}")


def _trusted(cls, **fields):
    """Instance of a value class built without running its ``__init__`` or validation.

    Only for values that are valid by construction; every field must be
    given in the form ``__post_init__`` would have stored.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class BlochDirection(Value):
    """Unit direction on the Bloch sphere, polar angle theta and azimuth phi."""

    _fields = ("theta", "phi")

    def __init__(self, theta: float, phi: float) -> None:
        self.__dict__.update(theta=theta, phi=phi)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    @classmethod
    def from_vector(cls, direction: Sequence[float]) -> "BlochDirection":
        """Build the direction from any nonzero 3-vector (normalized internally)."""
        vec = np.asarray(direction, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = float(np.linalg.norm(vec))
        if vec.shape != (3,) or not 0.0 < norm < np.inf:
            raise ValueError("direction must be a nonzero 3-vector of finite norm")
        x, y, z = vec / norm
        theta = float(np.arctan2(np.hypot(x, y), z))
        phi = float(np.arctan2(y, x)) % (2.0 * np.pi)
        if phi >= 2.0 * np.pi:
            phi = 0.0
        return cls(min(max(theta, 0.0), float(np.pi)), phi)

    def unit_vector(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )


class QuantumState(Value):
    """Bipartite state, either a pure amplitude vector or a density operator.

    ``dims`` holds the two subsystem dimensions (each >= 2); ``data`` is the
    amplitude vector (kind ``"pure"``) or the row-major density matrix (kind
    ``"density"``) on the d1*d2-dimensional joint space.
    """

    _fields = ("dims", "kind", "data")

    def __init__(self, dims: tuple[int, int], kind: str, data: np.ndarray) -> None:
        self.__dict__.update(dims=dims, kind=kind, data=data)
        self.__post_init__()

    def __post_init__(self) -> None:
        d1, d2 = (_dimension(d) for d in self.dims)
        if d1 < 2 or d2 < 2:
            raise ValueError("subsystem dimensions must be at least 2")
        object.__setattr__(self, "dims", (d1, d2))
        n = d1 * d2
        data = np.array(self.data, dtype=complex)
        if not np.isfinite(data).all():
            raise ValueError("state data has non-finite entries")
        if self.kind == "pure":
            if data.shape != (n,):
                raise ValueError(f"pure state needs {n} amplitudes, got shape {data.shape}")
            with np.errstate(over="ignore"):
                norm_sq = float(np.sum(np.abs(data) ** 2))
            if abs(norm_sq - 1.0) > STATE_ATOL:
                raise ValueError(f"pure state squared norm {norm_sq} is not 1 within {STATE_ATOL}")
        elif self.kind == "density":
            if data.shape != (n, n):
                raise ValueError(f"density matrix must be {n}x{n}, got shape {data.shape}")
            adjoint = data.conj().T
            # Huge entries overflow to inf or NaN here, and fail the tests below.
            with np.errstate(over="ignore", invalid="ignore"):
                asymmetry = np.max(np.abs(data - adjoint))
                trace = complex(np.trace(data))
            if asymmetry > STATE_ATOL:
                raise ValueError("density matrix is not Hermitian within tolerance")
            if not abs(trace - 1.0) <= STATE_ATOL:
                raise ValueError(f"density matrix trace {trace} is not 1 within {STATE_ATOL}")
            hermitian_part = 0.5 * data + 0.5 * adjoint  # 0.5 * (data + adjoint) may overflow
            smallest = float(np.linalg.eigvalsh(hermitian_part)[0])
            if smallest < EIGENVALUE_FLOOR:
                raise ValueError(f"density matrix has eigenvalue {smallest} below {EIGENVALUE_FLOOR}")
        else:
            raise ValueError(f"kind must be 'pure' or 'density', got {self.kind!r}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def pure(cls, amplitudes: Iterable[complex], dims: tuple[int, int]) -> "QuantumState":
        return cls(tuple(dims), "pure", np.asarray(list(amplitudes), dtype=complex))

    @classmethod
    def density(cls, matrix: np.ndarray, dims: tuple[int, int]) -> "QuantumState":
        return cls(tuple(dims), "density", np.asarray(matrix, dtype=complex))

    def density_matrix(self) -> np.ndarray:
        """Density operator; pure states are lifted to their rank-1 projector."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


class Observable(Value):
    """Projective measurement: labeled real outcomes with orthogonal projectors.

    The projectors must be Hermitian idempotents, mutually orthogonal, and sum
    to the identity (all within ``PROJECTOR_ATOL``); labels must be distinct.
    Zero projectors are permitted, so a spectrum may be embedded in a space of
    any dimension.
    """

    _fields = ("dim", "outcomes")

    def __init__(self, dim: int, outcomes: tuple[tuple[float, np.ndarray], ...]) -> None:
        self.__dict__.update(dim=dim, outcomes=outcomes)
        self.__post_init__()

    def __post_init__(self) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow silently
            d, labels, stack = _check_observable(self.dim, self.outcomes)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "outcomes", tuple(zip(labels, stack)))

    @property
    def labels(self) -> tuple[float, ...]:
        return tuple(label for label, _ in self.outcomes)

    def projector(self, label: float) -> np.ndarray:
        target = float(label)
        for known, proj in self.outcomes:
            if known == target:
                return proj
        raise UnknownLabel(f"label {label} not in spectrum {self.labels}")


def _check_observable(dim, outcomes) -> tuple[int, list[float], np.ndarray]:
    """Check one observable outcome by outcome and raise its first fault.

    Returns the dimension, the labels and the projectors as one read-only stack.
    """
    d = _dimension(dim)
    if d < 1:
        raise ValueError("dimension must be positive")
    labels, projectors = [], []
    for index, outcome in enumerate(outcomes):
        try:
            raw_label, projector = outcome
        except (TypeError, ValueError):
            raise ValueError(f"outcome {index} must be a (label, projector) pair") from None
        label = _number(raw_label, "outcome label")
        if not isfinite(label):
            raise ValueError(f"outcome label {label} must be finite")
        try:
            proj = np.asarray(projector, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            proj = None  # ragged, entries that are not numbers, or ints too large for a float
        if proj is None or proj.shape != (d, d):
            raise ValueError(f"projector for label {label} must be {d}x{d}")
        if not np.isfinite(proj).all():
            raise ValueError(f"projector for label {label} has non-finite entries")
        if np.max(np.abs(proj - proj.conj().T)) > PROJECTOR_ATOL:
            raise ValueError(f"projector for label {label} is not Hermitian")
        if np.max(np.abs(proj @ proj - proj)) > PROJECTOR_ATOL:
            raise ValueError(f"projector for label {label} is not idempotent")
        labels.append(label)
        projectors.append(proj)
    if not labels:
        raise ValueError("observable needs at least one outcome")
    if len(set(labels)) != len(labels):
        raise ValueError(f"outcome labels must be distinct, got {labels}")
    for a, b in combinations(range(len(labels)), 2):
        if np.max(np.abs(projectors[a] @ projectors[b])) > PROJECTOR_ATOL:
            raise ValueError(
                f"projectors for labels {labels[a]} and {labels[b]} are not orthogonal"
            )
    if np.max(np.abs(sum(projectors) - np.eye(d))) > PROJECTOR_ATOL:
        raise ValueError("projectors do not sum to the identity")
    stack = np.array(projectors)
    stack.setflags(write=False)
    return d, labels, stack


def _projective(stack: np.ndarray) -> bool:
    """Whether every observable of an (n, k, d, d) stack is projective, one maximum per test."""
    n, k, d, _ = stack.shape
    # Every Gram block P_a P_b of an observable from one (k d) x (k d)
    # product, at [o, a, :, b, :]. Less P_a on the diagonal blocks (through
    # einsum's writeable view of them), all vanish for a projective measurement.
    gram = stack.reshape(n, k * d, d) @ stack.transpose(0, 2, 1, 3).reshape(n, d, k * d)
    gram = gram.reshape(n, k, d, k, d)
    np.einsum("oaiaj->oaij", gram)[...] -= stack
    # A NaN or infinite entry makes the Hermiticity difference NaN or infinite
    # there. NaN from an overflowing product fails a maximum's comparison too;
    # the sequential check then lets NaN pass, as an outcome-by-outcome one does.
    return bool(
        np.abs(stack - stack.conj().swapaxes(2, 3)).max(initial=0.0) <= PROJECTOR_ATOL
        and np.abs(gram).max(initial=0.0) <= PROJECTOR_ATOL
        and np.abs(stack.sum(axis=1) - np.eye(d)).max(initial=0.0) <= PROJECTOR_ATOL
    )


def spin_observable(direction: BlochDirection) -> Observable:
    """Dichotomic spin observable along ``direction`` with outcomes +1 and -1."""
    projectors = _spin_projectors((direction.unit_vector(),))
    return _spin_pair(projectors[0, 0], projectors[1, 0])


def _spin_projectors(units: Iterable[Sequence[float]]) -> np.ndarray:
    """Spin projectors (1 +- n.sigma)/2 of n unit 3-vectors, as one read-only (2, n, 2, 2) array.

    ``[0, k]`` is the +1 projector of unit k and ``[1, k]`` its -1 projector,
    1/2 [[1 +- nz, +-(nx - i ny)], [+-(nx + i ny), 1 -+ nz]]. Every entry is
    written into one flat list of floats (real and imaginary parts in turn)
    that is then viewed as complex. ``+ 0.0`` and ``0.0 -`` turn a -0.0 into
    0.0, so zero entries (such as the imaginary parts of an xz-plane setting)
    print without a sign.
    """
    plus, minus = [], []
    for nx, ny, nz in units:
        up, down = 0.5 * (1.0 + nz), 0.5 * (1.0 - nz)
        x, y = 0.5 * nx + 0.0, 0.5 * ny + 0.0
        mx, my = 0.0 - x, 0.0 - y
        plus += (up, 0.0, x, my, x, y, down, 0.0)
        minus += (down, 0.0, mx, y, mx, my, up, 0.0)
    projectors = np.array(plus + minus).view(complex).reshape(2, -1, 2, 2)
    projectors.setflags(write=False)
    return projectors


def _spin_pair(plus: np.ndarray, minus: np.ndarray) -> Observable:
    """Spin observable with the given +1 and -1 projectors, built without re-validation."""
    return _trusted(Observable, dim=2, outcomes=((1.0, plus), (-1.0, minus)))


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
    """rho as a read-only (d1, d2, d1, d2) array, rho4[i, j, k, l] = <ij|rho|kl>.

    Built on first use and kept on the state as ``_rho4``, which is not a field.
    """
    rho4 = state.__dict__.get("_rho4")
    if rho4 is None:
        d1, d2 = state.dims
        if state.kind == "pure":
            psi = state.data.reshape(d1, d2)
            rho4 = psi[:, :, None, None] * psi.conj()
            rho4.setflags(write=False)
        else:
            rho4 = state.data.reshape(d1, d2, d1, d2)  # a view of the read-only data
        object.__setattr__(state, "_rho4", rho4)
    return rho4


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
_SINGLET_DENSITY = singlet().density_matrix()
_SINGLET_DENSITY.setflags(write=False)
_WHITE_NOISE = np.eye(4) / 4.0


def _werner_density(v) -> np.ndarray:
    """v |singlet><singlet| + (1 - v) I/4, with v unchecked.

    ``v`` is a visibility, or an array of them shaped (n, 1, 1) for a stack of n densities.
    A new array on every call; ``search.werner_sweep`` keeps its end pairs (``_werner_ends``).
    """
    return v * _SINGLET_DENSITY + (1.0 - v) * _WHITE_NOISE


def maximally_mixed(d1: int, d2: int) -> QuantumState:
    n = d1 * d2
    return QuantumState.density(np.eye(n) / n, (d1, d2))


def werner_state(visibility: float) -> QuantumState:
    """Singlet mixed with white noise: v |psi><psi| + (1 - v) I/4."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    mixed = _werner_density(v)
    mixed.setflags(write=False)
    # A convex mix of two states is a state.
    return _trusted(QuantumState, dims=(2, 2), kind="density", data=mixed)


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


def _matrix_from_pairs(pairs, field: str, d: int) -> np.ndarray:
    """A d x d matrix from its d*d row-major [re, im] pairs."""
    flat = _complex_from_pairs(pairs, field)
    if flat.size != d * d:
        raise ValueError(f"{field} must hold {d * d} [re, im] pairs, got {flat.size}")
    return flat.reshape(d, d)


def state_to_dict(state: QuantumState) -> dict:
    return {
        "dims": [state.dims[0], state.dims[1]],
        "kind": state.kind,
        "data": _pairs_from_complex(state.data),
    }


def state_from_dict(payload: dict) -> QuantumState:
    if not isinstance(payload, dict):
        raise ValueError(f"state must be an object, got {payload!r}")
    try:
        d1, d2 = payload["dims"]
        dims = (_dimension(d1), _dimension(d2))
    except (TypeError, ValueError):
        raise ValueError(f"dims must be a pair of integers, got {payload['dims']!r}") from None
    kind = payload["kind"]
    if kind not in ("pure", "density"):
        raise ValueError(f"kind must be 'pure' or 'density', got {kind!r}")
    if kind == "density":
        n = dims[0] * dims[1]
        return QuantumState.density(_matrix_from_pairs(payload["data"], "data", n), dims)
    return QuantumState.pure(_complex_from_pairs(payload["data"], "data"), dims)


def observable_to_dict(obs: Observable) -> dict:
    return {
        "dim": obs.dim,
        "outcomes": [
            {"label": label, "projector": _pairs_from_complex(proj)}
            for label, proj in obs.outcomes
        ],
    }


def observable_from_dict(payload: dict) -> Observable:
    """An observable from its wire form: the ``bloch`` shorthand or explicit outcomes."""
    if not isinstance(payload, dict):
        raise ValueError(f"observable must be an object, got {payload!r}")
    if "bloch" in payload:
        angles = payload["bloch"]
        if not isinstance(angles, dict):
            raise ValueError(f"bloch must be an object with theta and phi, got {angles!r}")
        theta = _number(angles["theta"], "bloch theta")
        return spin_observable(BlochDirection(theta, _number(angles["phi"], "bloch phi")))
    try:
        d = _dimension(payload["dim"])
    except ValueError:
        raise ValueError(f"dim {payload['dim']!r} is not valid: dimensions must be integers") from None
    if d < 1:
        raise ValueError(f"dim must be a positive integer, got {d}")
    entries = payload["outcomes"]
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError(f"outcomes must be a list of objects, got {entries!r}")
    outcomes = tuple(
        (_number(entry["label"], "label"), _matrix_from_pairs(entry["projector"], "projector", d))
        for entry in entries
    )
    return Observable(d, outcomes)
