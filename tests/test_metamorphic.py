"""Metamorphic relations: transformed inputs whose results are known from the untransformed ones.

A relation between two runs needs no oracle, and it catches axis and index
slips that a single run cannot show. For the optimizer: a local unitary U x V
maps the correlation matrix T to O1 T O2^T with O1, O2 rotations, and an
exchange of the parties maps T to T^T. Neither changes T's singular values,
so neither changes the extreme values (1 +- sqrt(t1^2 + t2^2))/2. Local
rotations about y turn the xz plane into itself, so they keep the planar
optimum too. For the q-vector: exchanging the parties with the scenario
(x2, y2, x1, y1) swaps q2 with q3 and q5 with q6 and keeps the rest, and
q is affine in the state, so a mixture's q is the mixture of the q's.
"""

from __future__ import annotations

from math import cos, pi, sin

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_scenario, random_state
from hardykit import (
    QuantumState,
    Scenario,
    ch_expression,
    generalized_expression,
    maximally_mixed,
    optimize_violation,
    q_vector,
    singlet,
    werner_state,
)

OBJECTIVES = st.sampled_from(("maximize_upper", "minimize_lower"))
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
STATES = st.builds(lambda seed: random_state(np.random.default_rng(seed), 2, 2), SEEDS)
ANGLES = st.floats(min_value=-pi, max_value=pi)
SWAP = np.eye(4)[[0, 2, 1, 3]]
DIMS = st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3)))
Q_FIELDS = ("q1", "q2", "q3", "q4", "q5", "q6")


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


def exchange(d1: int, d2: int) -> np.ndarray:
    """The permutation |i j> -> |j i> from C^d1 x C^d2 to C^d2 x C^d1."""
    return np.eye(d1 * d2)[[i * d2 + j for j in range(d2) for i in range(d1)]]


def witness_values(state: QuantumState, scenario: Scenario) -> dict[str, float | None]:
    q = q_vector(state, scenario)
    return {**{name: getattr(q, name) for name in Q_FIELDS},
            "generalized": generalized_expression(q), "ch": ch_expression(state, scenario)}


def assert_close(got: dict, want: dict, bound: float = 1e-12) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        if value is None:
            assert got[name] is None, name
        else:
            assert abs(got[name] - value) <= bound, (name, got[name], value)


@settings(max_examples=60)
@given(seed=SEEDS, dims=DIMS, trichotomic=st.booleans())
@example(seed=0, dims=(2, 3), trichotomic=True)
def test_exchanging_the_parties_swaps_q2_q3_and_q5_q6(seed, dims, trichotomic):
    rng = np.random.default_rng(seed)
    state, scenario = random_state(rng, *dims), random_scenario(rng, *dims, trichotomic)
    swap = exchange(*dims)
    exchanged = QuantumState.density(swap @ state.density_matrix() @ swap.T, dims[::-1])
    got = witness_values(exchanged, Scenario(scenario.x2, scenario.y2, scenario.x1, scenario.y1))
    want = witness_values(state, scenario)
    want.update(q2=want["q3"], q3=want["q2"], q5=want["q6"], q6=want["q5"])
    assert_close(got, want)


@settings(max_examples=60)
@given(seed=SEEDS, dims=DIMS, trichotomic=st.booleans(), p=st.floats(0.0, 1.0))
@example(seed=1, dims=(2, 2), trichotomic=False, p=0.5)
def test_a_mixture_has_the_mixed_q_vector(seed, dims, trichotomic, p):
    rng = np.random.default_rng(seed)
    rho, sigma = random_state(rng, *dims), random_state(rng, *dims)
    scenario = random_scenario(rng, *dims, trichotomic)
    mixture = QuantumState.density(
        p * rho.density_matrix() + (1.0 - p) * sigma.density_matrix(), dims)
    got = witness_values(mixture, scenario)
    ends = witness_values(rho, scenario), witness_values(sigma, scenario)
    want = {name: None if value is None else p * value + (1.0 - p) * ends[1][name]
            for name, value in ends[0].items()}
    assert_close(got, want)
