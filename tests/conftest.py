"""Shared generators for randomized states, measurements, and scenarios."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from hardykit import BlochDirection, Observable, QuantumState, Scenario, spin_observable
from hardykit.qcore import PROJECTOR_ATOL, _complex_from_pairs, _number, _square

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators (first factor acts on subsystem 1).

    The oracle for the package's Born-rule kernel, which never forms it.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def reference_observable(dim, outcomes) -> tuple[int, tuple[tuple[float, np.ndarray], ...]]:
    """Outcome-by-outcome validation of a projective measurement, as ``Observable`` once did it.

    The oracle for ``Observable``'s check: the same checks, tolerances and
    messages, in the same order, with NaN failing each comparison, and every
    ordered pair of distinct projectors tested for orthogonality. Returns the
    dimension and the cleaned outcomes, or raises the first fault found.
    """
    number = float(dim)
    if not number.is_integer():
        raise ValueError(f"dimensions must be integers, got {dim!r}")
    d = int(number)
    if d < 1:
        raise ValueError("dimension must be positive")
    cleaned = []
    for raw_label, projector in outcomes:
        label = float(raw_label)
        if not np.isfinite(label):
            raise ValueError(f"outcome label {label} must be finite")
        proj = np.asarray(projector, dtype=complex)
        if proj.shape != (d, d):
            raise ValueError(f"projector for label {label} must be {d}x{d}")
        if not np.isfinite(proj).all():
            raise ValueError(f"projector for label {label} has non-finite entries")
        if not np.max(np.abs(proj - proj.conj().T)) <= PROJECTOR_ATOL:
            raise ValueError(f"projector for label {label} is not Hermitian")
        if not np.max(np.abs(proj @ proj - proj)) <= PROJECTOR_ATOL:
            raise ValueError(f"projector for label {label} is not idempotent")
        cleaned.append((label, np.array(proj, dtype=complex)))
    if not cleaned:
        raise ValueError("observable needs at least one outcome")
    labels = [label for label, _ in cleaned]
    if len(set(labels)) != len(labels):
        raise ValueError(f"outcome labels must be distinct, got {labels}")
    for i in range(len(cleaned)):
        for j in range(i + 1, len(cleaned)):
            # Both orders: P_b P_a is (P_a P_b)^dagger only for exactly Hermitian projectors.
            cross = cleaned[i][1] @ cleaned[j][1]
            reverse = cleaned[j][1] @ cleaned[i][1]
            if not (np.max(np.abs(cross)) <= PROJECTOR_ATOL
                    and np.max(np.abs(reverse)) <= PROJECTOR_ATOL):
                raise ValueError(
                    f"projectors for labels {labels[i]} and {labels[j]} are not orthogonal"
                )
    total = sum(proj for _, proj in cleaned)
    if not np.max(np.abs(total - np.eye(d))) <= PROJECTOR_ATOL:
        raise ValueError("projectors do not sum to the identity")
    return d, tuple(cleaned)


def _reference_observable_from_dict(payload: dict) -> Observable:
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
    outcomes = tuple(
        (
            entry["label"],
            _square(_complex_from_pairs(entry["projector"], "projector")),
        )
        for entry in entries
    )
    return Observable(d, outcomes)


def reference_scenario_from_dict(payload: dict) -> Scenario:
    """Observable-by-observable decoding of a scenario, as ``scenario_from_dict`` once did it.

    The oracle for the batched decoder: x1, y1, x2 and y2 are each read and
    validated by ``Observable`` before the next is read, and the ``Scenario``
    checks run last. Returns the scenario, or raises the first fault found.
    """
    return Scenario(
        x1=_reference_observable_from_dict(payload["x1"]),
        y1=_reference_observable_from_dict(payload["y1"]),
        x2=_reference_observable_from_dict(payload["x2"]),
        y2=_reference_observable_from_dict(payload["y2"]),
    )


def random_pure_state(rng: np.random.Generator, d1: int, d2: int) -> QuantumState:
    amps = rng.normal(size=d1 * d2) + 1j * rng.normal(size=d1 * d2)
    amps /= np.linalg.norm(amps)
    return QuantumState.pure(amps, (d1, d2))


def random_density_state(rng: np.random.Generator, d1: int, d2: int) -> QuantumState:
    n = d1 * d2
    factor = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = factor @ factor.conj().T
    rho /= np.trace(rho).real
    return QuantumState.density(rho, (d1, d2))


def random_state(rng: np.random.Generator, d1: int, d2: int) -> QuantumState:
    if rng.random() < 0.5:
        return random_pure_state(rng, d1, d2)
    return random_density_state(rng, d1, d2)


def _rank_split(rng: np.random.Generator, dim: int, outcomes: int) -> list[int]:
    # Even split; zero ranks appear only when there are more labels than dimensions.
    ranks = [dim // outcomes + (1 if i < dim % outcomes else 0) for i in range(outcomes)]
    rng.shuffle(ranks)
    return ranks


def random_observable(
    rng: np.random.Generator,
    dim: int,
    labels: tuple[float, ...],
    ranks: list[int] | None = None,
) -> Observable:
    """Random PVM with the given outcome labels, built from a Haar-ish unitary."""
    gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(gaussian)
    if ranks is None:
        ranks = _rank_split(rng, dim, len(labels))
    assert sum(ranks) == dim
    outcomes = []
    start = 0
    for label, rank in zip(labels, ranks):
        columns = unitary[:, start : start + rank]
        outcomes.append((label, columns @ columns.conj().T))
        start += rank
    return Observable(dim, tuple(outcomes))


def random_y_labels(rng: np.random.Generator, dim: int) -> tuple[float, ...]:
    """A spectrum containing +1 plus up to dim-1 other distinct values."""
    count = int(rng.integers(2, dim + 1))
    labels = {1.0}
    while len(labels) < count:
        candidate = round(float(rng.normal() * 3.0), 3)
        if candidate != 1.0:
            labels.add(candidate)
    ordered = [1.0] + sorted(labels - {1.0})
    return tuple(ordered)


def random_scenario(
    rng: np.random.Generator, d1: int = 2, d2: int = 2, trichotomic: bool = False
) -> Scenario:
    x_labels = (-1.0, 0.0, 1.0) if trichotomic else (-1.0, 1.0)
    return Scenario(
        x1=random_observable(rng, d1, x_labels),
        y1=random_observable(rng, d1, random_y_labels(rng, d1)),
        x2=random_observable(rng, d2, x_labels),
        y2=random_observable(rng, d2, random_y_labels(rng, d2)),
    )


def reference_mixing_witness(components) -> np.ndarray:
    """Mixing weights of a feasible q, as ``lhv_feasible`` once built them with numpy.

    The oracle for the plain-float witness: the same greedy weights, clipped by
    ``np.maximum`` and renormalised by ``np.sum``, which the float code must
    reproduce bit for bit.
    """
    size = 3 if len(components) == 6 else 2
    q1, q2, q3, q4, q5, q6 = tuple(components) + (0.0, 0.0)[: 6 - len(components)]

    def other_than_plus(minus_mass, zero_mass):
        if zero_mass > 0.0:
            total = minus_mass + zero_mass
            return {0: minus_mass / total, 1: zero_mass / total}
        return {0: 1.0}

    big2, big3 = q2 + q5, q3 + q6
    both = max(0.0, q1 + big2 + big3 - 1.0)
    rest = q4 - both
    on1 = min(q1, rest)
    on2 = min(big2 - both, rest - on1)
    on3 = rest - on1 - on2
    minus, plus = {0: 1.0}, {size - 1: 1.0}
    x1_other, x2_other = other_than_plus(q3, q6), other_than_plus(q2, q5)
    weights = [0.0] * (size * size * 4)
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
        for i, p1 in x1.items():
            for j, p2 in x2.items():
                weights[4 * (size * i + j) + 2 * y1 + y2] += mass * (p1 * p2)
    clipped = np.maximum(weights, 0.0)
    return clipped / clipped.sum()
