"""Metamorphic relations: transformed inputs whose results are known from the untransformed ones.

A relation between two runs needs no oracle, and it catches axis and index
slips that a single run cannot show. For the optimizer: a local unitary U x V
maps the correlation matrix T to O1 T O2^T with O1, O2 rotations, and an
exchange of the parties maps T to T^T. Neither changes T's singular values,
so neither changes the extreme values (1 +- sqrt(t1^2 + t2^2))/2. Local
rotations about y turn the xz plane into itself, so they keep the planar
optimum too. For the q-vector: exchanging the parties with the scenario
(x2, y2, x1, y1) swaps q2 with q3 and q5 with q6 and keeps the rest; q is
affine in the state, so a mixture's q is the mixture of the q's; U x V on the
state with U P U^dagger and V P V^dagger on each side's projectors keeps every
probability; and the witness reads only the y = +1 outcome, so splitting or
relabelling another y outcome keeps q. None of these moves a verdict whose
inputs lie more than 1e-9 from its thresholds.
"""

from __future__ import annotations

from math import cos, pi, sin

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_scenario, random_state
from hardykit import (
    Observable,
    QuantumState,
    Scenario,
    ch_expression,
    classify,
    generalized_expression,
    lhv_feasible,
    maximally_mixed,
    optimize_violation,
    q_vector,
    singlet,
    werner_state,
)
from hardykit.lhv import FEASIBILITY_TOL
from hardykit.witness import DEFAULT_TOLERANCE

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


def haar_unitary(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
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


def exchanged(state: QuantumState, scenario: Scenario) -> tuple:
    """The parties exchanged: SWAP rho SWAP with dims reversed, and scenario (x2, y2, x1, y1)."""
    swap = exchange(*state.dims)
    flipped = QuantumState.density(swap @ state.density_matrix() @ swap.T, state.dims[::-1])
    return flipped, Scenario(scenario.x2, scenario.y2, scenario.x1, scenario.y1)


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
    got = witness_values(*exchanged(state, scenario))
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


def conjugated(obs: Observable, unitary: np.ndarray) -> Observable:
    """``obs`` with each projector P replaced by U P U^dagger."""
    return Observable(obs.dim, tuple((label, unitary @ proj @ unitary.conj().T)
                                     for label, proj in obs.outcomes))


def locally_rotated(rng, state: QuantumState, scenario: Scenario) -> tuple:
    """U x V on the state, U P U^dagger on side 1's projectors and V P V^dagger on side 2's."""
    u, v = (haar_unitary(rng, d) for d in state.dims)
    uv = np.kron(u, v)
    rotated = QuantumState.density(uv @ state.density_matrix() @ uv.conj().T, state.dims)
    x1, y1, x2, y2 = (conjugated(getattr(scenario, name), w)
                      for name, w in (("x1", u), ("y1", u), ("x2", v), ("y2", v)))
    return rotated, Scenario(x1, y1, x2, y2)


def coarse_grained(rng, y: Observable, split: bool) -> Observable:
    """``y`` with one outcome other than +1 given a new label, or split in two.

    A split keeps the label on the rank-1 projector onto one eigenvector of
    eigenvalue 1 and gives the rest, possibly zero, a new label.
    """
    outcomes = list(y.outcomes)
    index = int(rng.choice([i for i, label in enumerate(y.labels) if label != 1.0]))
    label, proj = outcomes[index]
    fresh = max(y.labels) + 1.0
    if split:
        vector = np.linalg.eigh(proj)[1][:, -1:]
        piece = vector @ vector.conj().T
        outcomes[index] = (label, piece)
        outcomes.append((fresh, proj - piece))
    else:
        outcomes[index] = (fresh, proj)
    return Observable(y.dim, tuple(outcomes))


def coarse_grained_scenario(rng, scenario: Scenario, split: bool) -> Scenario:
    """``scenario`` with y1 or y2 coarse-grained."""
    y1, y2 = scenario.y1, scenario.y2
    if rng.random() < 0.5:
        y1 = coarse_grained(rng, y1, split)
    else:
        y2 = coarse_grained(rng, y2, split)
    return Scenario(scenario.x1, y1, scenario.x2, y2)


@settings(max_examples=60)
@given(seed=SEEDS, dims=DIMS, trichotomic=st.booleans())
@example(seed=2, dims=(3, 2), trichotomic=True)
def test_local_unitaries_keep_the_q_vector(seed, dims, trichotomic):
    rng = np.random.default_rng(seed)
    state, scenario = random_state(rng, *dims), random_scenario(rng, *dims, trichotomic)
    assert_close(witness_values(*locally_rotated(rng, state, scenario)),
                 witness_values(state, scenario))


@settings(max_examples=60)
@given(seed=SEEDS, dims=DIMS, trichotomic=st.booleans(), split=st.booleans())
@example(seed=3, dims=(3, 3), trichotomic=False, split=True)
def test_coarse_graining_y_keeps_the_q_vector(seed, dims, trichotomic, split):
    rng = np.random.default_rng(seed)
    state, scenario = random_state(rng, *dims), random_scenario(rng, *dims, trichotomic)
    grained = coarse_grained_scenario(rng, scenario, split)
    assert_close(witness_values(state, grained), witness_values(state, scenario))


def verdicts(state: QuantumState, scenario: Scenario) -> tuple[tuple[str, bool], float]:
    """``classify``'s label and ``lhv_feasible``'s answer, and how far what they compare lies
    from its threshold: the least such distance over every comparison either makes."""
    q = q_vector(state, scenario)
    gen, tol = generalized_expression(q), DEFAULT_TOLERANCE
    values = q.components()
    q1, q2, q3, q4, q5, q6 = values + (0.0, 0.0)[: 6 - len(values)]
    total = q1 + q2 + q3 + q5 + q6
    facet = max(q4 - total, total - q4 - 1.0, q1 + q2 + q5 - 1.0, q1 + q3 + q6 - 1.0)
    margin = min(abs(gen + tol), abs(gen - 1.0 - tol), abs(q1 - q4 + tol),
                 abs(facet - FEASIBILITY_TOL), *(abs(value - tol) for value in values))
    return (classify(q, gen), lhv_feasible(q).feasible), margin


RELATIONS = ("local unitaries", "exchange", "split y", "relabel y")


def related(rng, relation: str, state: QuantumState, scenario: Scenario) -> tuple:
    if relation == "local unitaries":
        return locally_rotated(rng, state, scenario)
    if relation == "exchange":
        return exchanged(state, scenario)
    return state, coarse_grained_scenario(rng, scenario, relation == "split y")


@settings(max_examples=80)
@given(seed=SEEDS, dims=DIMS, trichotomic=st.booleans(), relation=st.sampled_from(RELATIONS),
       objective=st.sampled_from((None, "maximize_upper", "minimize_lower")))
@example(seed=5, dims=(2, 2), trichotomic=False, relation="local unitaries",
         objective="minimize_lower")
@example(seed=6, dims=(2, 2), trichotomic=False, relation="exchange", objective="maximize_upper")
def test_related_inputs_get_the_same_verdicts(seed, dims, trichotomic, relation, objective):
    """Random scenarios rarely violate anything, so a drawn objective takes a random two-qubit
    state with its optimal full-Bloch settings instead, which violate the bound it names
    whenever the state can."""
    rng = np.random.default_rng(seed)
    if objective is None:
        state, scenario = random_state(rng, *dims), random_scenario(rng, *dims, trichotomic)
    else:
        state = random_state(rng, 2, 2)
        scenario = optimize_violation(state, objective, planar=False).scenario
    want, margin = verdicts(state, scenario)
    got, _ = verdicts(*related(rng, relation, state, scenario))
    if margin > 1e-9:
        assert got == want
