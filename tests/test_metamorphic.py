"""Metamorphic relations: transformed inputs whose results are known from the untransformed ones.

A relation between two runs needs no oracle, and it catches axis and index
slips that a single run cannot show. For the optimizer: a local unitary U x V
maps the correlation matrix T to O1 T O2^T with O1, O2 rotations, and an
exchange of the parties maps T to T^T. Neither changes T's singular values,
so neither changes the extreme values (1 +- sqrt(t1^2 + t2^2))/2. Local
rotations about y turn the xz plane into itself, so they keep the planar
optimum too.
"""

from __future__ import annotations

from math import cos, pi, sin

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from hardykit import QuantumState, maximally_mixed, optimize_violation, singlet, werner_state

OBJECTIVES = st.sampled_from(("maximize_upper", "minimize_lower"))
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
STATES = st.builds(lambda seed: random_state(np.random.default_rng(seed), 2, 2), SEEDS)
ANGLES = st.floats(min_value=-pi, max_value=pi)
SWAP = np.eye(4)[[0, 2, 1, 3]]


def transformed(state: QuantumState, unitary: np.ndarray) -> QuantumState:
    rho = state.density_matrix()
    return QuantumState.density(unitary @ rho @ unitary.conj().T, (2, 2))


def rotation_y(angle: float) -> np.ndarray:
    """exp(-i angle sigma_y / 2): a rotation of the Bloch sphere about y, within the xz plane."""
    c, s = cos(angle / 2), sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def optimum(state: QuantumState, objective: str, planar: bool) -> float:
    return optimize_violation(state, objective, planar=planar).value


@settings(max_examples=60)
@given(state=STATES, objective=OBJECTIVES, alpha=ANGLES, beta=ANGLES)
@example(state=singlet(), objective="maximize_upper", alpha=0.3, beta=-2.0)
@example(state=maximally_mixed(2, 2), objective="minimize_lower", alpha=pi, beta=pi / 2)
def test_local_xz_rotations_keep_the_planar_optimum(state, objective, alpha, beta):
    rotated = transformed(state, np.kron(rotation_y(alpha), rotation_y(beta)))
    assert abs(optimum(rotated, objective, True) - optimum(state, objective, True)) <= 1e-15


@settings(max_examples=60)
@given(state=STATES, objective=OBJECTIVES, seed=SEEDS)
@example(state=werner_state(0.8), objective="maximize_upper", seed=0)
def test_local_unitaries_keep_the_full_bloch_optimum(state, objective, seed):
    rng = np.random.default_rng(seed)
    rotated = transformed(state, np.kron(haar_unitary(rng), haar_unitary(rng)))
    # Each value lies within 1e-15 of its own state's bound, and rounding in
    # U rho U^dagger moves that bound by up to 1e-15: up to 3e-15 apart.
    assert abs(optimum(rotated, objective, False) - optimum(state, objective, False)) <= 3e-15


@settings(max_examples=60)
@given(state=STATES, objective=OBJECTIVES)
@example(state=singlet(), objective="minimize_lower")
@example(state=QuantumState.pure([1.0, 0.0, 0.0, 0.0], (2, 2)), objective="maximize_upper")
def test_exchanging_the_parties_keeps_both_optima(state, objective):
    exchanged = transformed(state, SWAP)
    for planar in (True, False):
        difference = optimum(exchanged, objective, planar) - optimum(state, objective, planar)
        assert abs(difference) <= 1e-15
