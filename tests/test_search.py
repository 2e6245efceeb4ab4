"""Search layer: the zero-probability construction, setting optimization, sweeps."""

from __future__ import annotations

from math import asin, cos, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from hardykit import (
    BlochDirection,
    NoCrossing,
    QuantumState,
    Scenario,
    SchmidtState,
    SearchConfig,
    generalized_expression,
    hardy_observables,
    lhv_feasible,
    max_hardy_probability,
    maximally_mixed,
    optimize_violation,
    planar_scenario,
    q_vector,
    singlet,
    spin_observable,
    werner_state,
    werner_sweep,
)
from hardykit.qcore import PAULI_X, PAULI_Y, PAULI_Z
from hardykit.search import _werner_ends
from test_errors import ErrorRows

# Frozen from the closed-form grid oracle over (theta, free angle): the family
# member with maximal q4 at theta = pi/8, and the global maximum over theta.
Q4_AT_PI_OVER_8 = 0.087610065690070
Q4_GLOBAL_MAX = 0.090169943749474
THETA_AT_GLOBAL_MAX = 0.434692343731

UPPER_TARGET = 0.5 * (1.0 + sqrt(2.0))


def exact_q4(theta: float) -> float:
    """(alpha beta (alpha - beta) / (1 - alpha beta))^2, the largest constructed q4."""
    alpha, beta = cos(theta), sin(theta)
    return (alpha * beta * (alpha - beta) / (1.0 - alpha * beta)) ** 2


def reference_scenario(phi: float = 0.0):
    angles = (0.0, pi / 2, 3 * pi / 4, pi / 4)
    return planar_scenario(*(a + phi for a in angles), plane="xy")


def test_frozen_values_match_closed_forms():
    assert abs(Q4_AT_PI_OVER_8 - exact_q4(pi / 8)) < 1e-12
    assert abs(Q4_GLOBAL_MAX - 0.5 * (5.0 * sqrt(5.0) - 11.0)) < 1e-12
    assert abs(THETA_AT_GLOBAL_MAX - 0.5 * asin(3.0 - sqrt(5.0))) < 1e-12


def exact_qubit_bound(state: QuantumState, planar: bool) -> float:
    """sqrt(t1^2 + t2^2) from the top singular values of the correlation matrix.

    T is built here from Kronecker products, independently of the search
    module; planar searches (xz plane) see only T's xz block.
    """
    rho = state.density_matrix()
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    T = np.array([[np.trace(rho @ np.kron(a, b)).real for b in paulis] for a in paulis])
    if planar:
        T = T[np.ix_((0, 2), (0, 2))]
    t1, t2 = np.linalg.svd(T, compute_uv=False)[:2]
    return sqrt(t1 * t1 + t2 * t2)


class TestSchmidtState:
    def test_amplitudes(self):
        state = SchmidtState(pi / 8)
        big, small = state.amplitudes
        assert big**2 + small**2 == pytest.approx(1.0, abs=1e-15)
        vector = state.state()
        assert vector.dims == (2, 2)

    test_angle_range = ErrorRows()

    def test_state_is_built_once_and_read_only(self):
        schmidt = SchmidtState(pi / 8)
        state = schmidt.state()
        assert schmidt.state() is state
        with pytest.raises(ValueError):
            state.data[0] = 0.0
        # The kept state is not a field: equality and hash ignore it.
        assert schmidt == SchmidtState(pi / 8)
        assert hash(schmidt) == hash(SchmidtState(pi / 8))
        assert np.array_equal(state.data, [cos(pi / 8), 0.0, 0.0, sin(pi / 8)])


class TestHardyObservables:
    def test_construction_at_pi_over_8(self):
        schmidt = SchmidtState(pi / 8)
        scenario = hardy_observables(schmidt, 1e-9)
        q = q_vector(schmidt.state(), scenario)
        assert q.q1 < 1e-9
        assert q.q2 < 1e-9
        assert q.q3 < 1e-9
        assert q.q4 > 0.01
        assert q.q4 == pytest.approx(Q4_AT_PI_OVER_8, abs=1e-12)

    def test_construction_across_angles(self):
        for theta in (0.1, 0.2, pi / 8, 0.55, 0.7):
            schmidt = SchmidtState(theta)
            q = q_vector(schmidt.state(), hardy_observables(schmidt))
            assert max(q.q1, q.q2, q.q3) < 1e-9
            assert q.q4 > 1e-6

    @settings(max_examples=200)
    @given(theta=st.floats(min_value=1e-3, max_value=pi / 4 - 1e-3))
    def test_construction_is_exact(self, theta):
        schmidt = SchmidtState(theta)
        q = q_vector(schmidt.state(), hardy_observables(schmidt))
        assert max(q.q1, q.q2, q.q3) < 1e-15
        assert abs(q.q4 - exact_q4(theta)) < 1e-12

    test_product_state_rejected = ErrorRows()
    test_maximally_entangled_rejected = ErrorRows()
    test_tol_validated = ErrorRows()

    def test_tol_bound_is_named(self):
        theta_star, _ = max_hardy_probability()
        with pytest.raises(ValueError, match=r"5 sqrt 5 - 11"):
            hardy_observables(SchmidtState(theta_star), 0.0902)
        # Just below the bound the best angle still succeeds.
        assert hardy_observables(SchmidtState(theta_star), 0.0901) is not None

    def test_constructed_point_is_lhv_infeasible(self):
        # Closing the loop between modules: the construction's q-vector must
        # be certified nonlocal by the LP.
        for theta in (0.2, pi / 8, 0.6):
            schmidt = SchmidtState(theta)
            q = q_vector(schmidt.state(), hardy_observables(schmidt))
            assert not lhv_feasible(q).feasible


class TestOptimizeViolation:
    def test_singlet_reaches_upper_extreme(self):
        result = optimize_violation(singlet(), "maximize_upper", SearchConfig(restarts=20))
        assert abs(result.value - UPPER_TARGET) < 1e-12

    def test_separable_state_stays_local(self):
        state = QuantumState.pure([1.0, 0.0, 0.0, 0.0], (2, 2))
        upper = optimize_violation(state, "maximize_upper", SearchConfig(restarts=6))
        lower = optimize_violation(state, "minimize_lower", SearchConfig(restarts=6))
        assert -1e-9 <= upper.value <= 1.0 + 1e-9
        assert -1e-9 <= lower.value <= 1.0 + 1e-9

    def test_lower_search_beats_hardy_point(self):
        schmidt = SchmidtState(pi / 8)
        q = q_vector(schmidt.state(), hardy_observables(schmidt))
        result = optimize_violation(
            schmidt.state(), "minimize_lower", SearchConfig(restarts=12)
        )
        assert result.value <= -q.q4 + 1e-6

    def test_deterministic_for_fixed_seed(self):
        # The optimum is exact: restarts and seed are accepted but change nothing.
        state = random_state(np.random.default_rng(7), 2, 2)
        for planar in (True, False):
            results = [
                optimize_violation(state, "maximize_upper", config, planar=planar)
                for config in (SearchConfig(restarts=4, seed=7), SearchConfig(1, 123), None)
            ]
            assert len({(r.value, r.angles) for r in results}) == 1

    def test_reported_value_reproducible_from_scenario(self):
        result = optimize_violation(singlet(), "maximize_upper", SearchConfig(restarts=5))
        re_evaluated = generalized_expression(q_vector(singlet(), result.scenario))
        assert abs(re_evaluated - result.value) < 1e-10

    def test_full_bloch_mode_runs(self):
        result = optimize_violation(
            singlet(), "maximize_upper", SearchConfig(restarts=4), planar=False
        )
        assert len(result.angles) == 8
        assert result.value <= UPPER_TARGET + 1e-9

    test_input_validation = ErrorRows()


class TestCorrelationObjective:
    @settings(max_examples=40)
    @given(
        state=st.builds(
            lambda seed: random_state(np.random.default_rng(seed), 2, 2),
            st.integers(min_value=0, max_value=2**32 - 1),
        )
    )
    @example(state=maximally_mixed(2, 2))
    @example(state=QuantumState.pure([1.0, 0.0, 0.0, 0.0], (2, 2)))
    def test_never_passes_exact_qubit_bound(self, state):
        # The optimizer reaches the bound exactly, and its angles rebuild its settings.
        for planar in (True, False):
            radius = exact_qubit_bound(state, planar)
            for objective, sign in (("maximize_upper", 1.0), ("minimize_lower", -1.0)):
                result = optimize_violation(state, objective, planar=planar)
                assert abs(result.value - 0.5 * (1.0 + sign * radius)) < 1e-12
                if planar:
                    rebuilt = planar_scenario(*result.angles, plane="xz")
                else:
                    pairs = zip(result.angles[0::2], result.angles[1::2])
                    rebuilt = Scenario(*(spin_observable(BlochDirection(*p)) for p in pairs))
                value = generalized_expression(q_vector(state, rebuilt))
                assert abs(value - result.value) < 1e-12


class TestMaxHardyProbability:
    def test_matches_frozen_oracle_value(self):
        theta, q4 = max_hardy_probability()
        assert q4 == pytest.approx(Q4_GLOBAL_MAX, abs=1e-12)
        assert theta == pytest.approx(THETA_AT_GLOBAL_MAX, abs=1e-12)

    def test_small_angle_construction_vanishes(self):
        schmidt = SchmidtState(0.01)
        q = q_vector(schmidt.state(), hardy_observables(schmidt))
        assert q.q4 < 1e-4

    def test_near_maximal_entanglement_construction_vanishes(self):
        # Approaching pi/4 the zeros remain solvable but q4 collapses.
        schmidt = SchmidtState(0.78)
        q = q_vector(schmidt.state(), hardy_observables(schmidt))
        assert max(q.q1, q.q2, q.q3) < 1e-9
        assert 1e-9 < q.q4 < 1e-3


class TestWernerSweep:
    def test_threshold_at_inverse_sqrt_two(self):
        threshold = werner_sweep(reference_scenario(), 0.0, 1.0)
        assert threshold == pytest.approx(1.0 / sqrt(2.0), abs=1e-12)

    @settings(max_examples=50)
    @given(phi=st.floats(min_value=0.0, max_value=2.0 * pi))
    def test_threshold_invariant_under_in_plane_rotation(self, phi):
        # The singlet is rotation invariant, so rotating every setting keeps the crossing.
        threshold = werner_sweep(reference_scenario(phi), 0.0, 1.0)
        assert abs(threshold - 1.0 / sqrt(2.0)) < 1e-12

    def test_equals_interpolation_of_separate_evaluations(self, rng):
        # Both ends come from one batched contraction; each must be exactly
        # what a separate q_vector call on werner_state(v) gives.
        reference = np.array((0.0, pi / 2, 3 * pi / 4, pi / 4))
        crossings = 0
        for i in range(300):
            # Random settings rarely cross, settings near the reference ones mostly do.
            if i % 2:
                angles = reference + rng.uniform(0.0, 2.0 * pi) + rng.normal(scale=0.2, size=4)
            else:
                angles = rng.uniform(-2.0 * pi, 2.0 * pi, size=4)
            scenario = planar_scenario(*angles, plane=("xy", "xz")[i % 4 // 2])
            lo, hi = (0.0, 1.0) if i % 3 else sorted(rng.uniform(0.0, 1.0, size=2))
            excess_lo, excess_hi = (
                generalized_expression(q_vector(werner_state(v), scenario)) - 1.0
                for v in (lo, hi)
            )
            if excess_hi < 0.0 or excess_lo > 0.0:
                with pytest.raises(NoCrossing):
                    werner_sweep(scenario, lo, hi)
                continue
            crossings += 1
            expected = lo - excess_lo * (hi - lo) / (excess_hi - excess_lo)
            assert werner_sweep(scenario, lo, hi) == expected
        assert crossings >= 100

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 1),
            (-0.0, 1.0),
            (np.float64(0.0), np.float64(1.0)),
            (np.array(0.0), np.array(1.0)),
            (np.float64(0.125), np.array(0.875)),
            (0.25, 1),
        ],
    )
    def test_repeated_sweeps_keep_the_crossing(self, lo, hi):
        # The end densities are kept per (float(v_lo), float(v_hi)): whatever
        # form the ends take, and however often a sweep repeats, the crossing
        # is the one that freshly built densities give.
        for phi in (0.0, 0.3, 2.0):
            scenario = reference_scenario(phi)
            excess_lo, excess_hi = (
                generalized_expression(q_vector(werner_state(float(v)), scenario)) - 1.0
                for v in (lo, hi)
            )
            expected = float(lo - excess_lo * (hi - lo) / (excess_hi - excess_lo))
            crossings = [werner_sweep(scenario, lo, hi) for _ in range(3)]
            assert [repr(c) for c in crossings] == [repr(expected)] * 3

    def test_kept_ends_are_read_only(self):
        ends = _werner_ends(0.0, 1.0)
        assert ends.shape == (2, 2, 2, 2, 2)
        assert _werner_ends(0.0, 1.0) is ends
        with pytest.raises(ValueError):
            ends[0, 0, 0, 0, 0] = 1.0
        assert np.array_equal(ends[1].reshape(4, 4), werner_state(1.0).data)

    test_no_crossing_below_half_visibility = ErrorRows()

    def test_endpoint_value_is_singlet_value(self):
        scenario = reference_scenario()
        value = generalized_expression(q_vector(werner_state(1.0), scenario))
        assert value == pytest.approx(UPPER_TARGET, abs=1e-12)

    def test_expression_is_affine_in_visibility(self):
        scenario = reference_scenario()

        def value(v):
            return generalized_expression(q_vector(werner_state(v), scenario))

        mid = value(0.5)
        assert abs(mid - 0.5 * (value(0.2) + value(0.8))) < 1e-10

    test_interval_validation = ErrorRows()
