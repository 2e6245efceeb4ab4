"""Search layer: the zero-probability construction, setting optimization, sweeps."""

from __future__ import annotations

from math import asin, cos, nextafter, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from hardykit import (
    BlochDirection,
    HardykitError,
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
    witness_report,
)
from hardykit import qcore, search, witness
from hardykit.qcore import PAULI_X, PAULI_Y, PAULI_Z
from hardykit.search import _WERNER_ENDS, OBJECTIVES, _xz_factors
from hardykit.witness import _NAMES, HARDY_VIOLATION
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


def kron_correlations(state: QuantumState, planar: bool) -> np.ndarray:
    """T[a][b] = Tr[rho (sigma_a x sigma_b)], from Kronecker products.

    Built independently of the search module; planar searches (xz plane) see only T's xz block.
    """
    rho = state.density_matrix()
    paulis = (PAULI_X, PAULI_Z) if planar else (PAULI_X, PAULI_Y, PAULI_Z)
    return np.array([[np.trace(rho @ np.kron(a, b)).real for b in paulis] for a in paulis])


def exact_qubit_bound(state: QuantumState, planar: bool) -> float:
    """sqrt(t1^2 + t2^2) from the top singular values of the correlation matrix."""
    t1, t2 = np.linalg.svd(kron_correlations(state, planar), compute_uv=False)[:2]
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

    @settings(max_examples=100)
    @given(
        tol=st.floats(min_value=1e-12, max_value=0.08),
        upper=st.booleans(),
        ulps=st.integers(min_value=-4, max_value=4),
    )
    @example(tol=1e-9, upper=False, ulps=0)
    @example(tol=1e-9, upper=True, ulps=0)
    def test_verdict_agrees_with_classify_at_thresholds(self, tol, upper, ulps):
        # A few ulps from where the closed-form q4 crosses tol, the construction
        # either raises or gives settings the report calls a Hardy violation.
        inside, outside = THETA_AT_GLOBAL_MAX, (pi / 4 if upper else 0.0)
        while (middle := 0.5 * (inside + outside)) not in (inside, outside):
            if exact_q4(middle) > tol:
                inside = middle
            else:
                outside = middle
        theta = inside
        for _ in range(abs(ulps)):
            theta = nextafter(theta, pi / 4 if ulps > 0 else 0.0)
        schmidt = SchmidtState(theta)
        try:
            scenario = hardy_observables(schmidt, tol)
        except HardykitError:
            return
        report = witness_report(schmidt.state(), scenario, tol)
        assert report.classification == HARDY_VIOLATION, report

    test_product_state_rejected = ErrorRows()
    test_maximally_entangled_rejected = ErrorRows()
    test_tol_validated = ErrorRows()

    def test_tol_bound_is_named(self):
        theta_star, _ = max_hardy_probability()
        with pytest.raises(ValueError, match=r"5 sqrt 5 - 11"):
            hardy_observables(SchmidtState(theta_star), 0.0902)
        # Just below the bound the best angle still succeeds.
        assert hardy_observables(SchmidtState(theta_star), 0.0901) is not None

    def test_settings_skip_the_angle_reads(self, monkeypatch):
        # The four computed angles go straight to the spin projectors: none is read
        # again as an argument, while tol and the expression value still are.
        schmidt, fields = SchmidtState(0.3), []

        def spy(value, field):
            fields.append(field)
            return float(value)

        for module in (qcore, witness, search):
            monkeypatch.setattr(module, "_number", spy)
        scenario = hardy_observables(schmidt)
        assert "tol" in fields and not set(fields) & set(witness._ANGLE_NAMES)
        monkeypatch.undo()
        # The same bytes as the settings that planar_scenario builds from those angles.
        rebuilt = planar_scenario(*search._hardy_angles(*schmidt.amplitudes), plane="xz")
        assert [side.tobytes() for side in scenario._sides] == [
            side.tobytes() for side in rebuilt._sides]

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
        # Construction against optimizer on 399 Schmidt angles. The construction reaches
        # -q4 with q4 = (alpha beta (alpha - beta) / (1 - alpha beta))^2 <= (5 sqrt 5 - 11)/2
        # (Hardy, PRL 71, 1665 (1993)); the optimum, with T = diag(sin 2 theta, -sin 2 theta, 1),
        # is (1 - sqrt(1 + sin^2 2 theta))/2 (Horodecki, Horodecki and Horodecki, Phys. Lett.
        # A 200, 340 (1995)), and is never above -q4.
        for theta in np.linspace(0.0, pi / 4, 401)[1:-1].tolist():
            schmidt = SchmidtState(theta)
            q4 = q_vector(schmidt.state(), hardy_observables(schmidt)).q4
            value = optimize_violation(schmidt.state(), "minimize_lower").value
            assert abs(q4 - exact_q4(theta)) <= 1e-12, theta
            assert q4 <= (5.0 * sqrt(5.0) - 11.0) / 2.0, theta
            assert abs(value - (1.0 - sqrt(1.0 + sin(2.0 * theta) ** 2)) / 2.0) <= 1e-12, theta
            assert value <= -q4, theta

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


def _projector_bytes(scenario: Scenario) -> list[bytes]:
    sides = [side.tobytes() for side in scenario._sides]
    return sides + [p.tobytes() for name in _NAMES for _, p in getattr(scenario, name).outcomes]


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
    @example(state=singlet())
    @example(state=werner_state(0.8))
    def test_never_passes_exact_qubit_bound(self, state):
        # The optimizer reaches the bound exactly, and its angles rebuild its
        # settings bit for bit: the same projectors and the same value.
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
                assert _projector_bytes(rebuilt) == _projector_bytes(result.scenario)
                assert generalized_expression(q_vector(state, rebuilt)) == result.value


def rotation(angle: float) -> np.ndarray:
    return np.array([[cos(angle), -sin(angle)], [sin(angle), cos(angle)]])


_PRODUCT = QuantumState.pure([1.0, 0.0, 0.0, 0.0], (2, 2))  # |00>: T_xz = diag(0, 1), rank 1


class TestPlanarClosedForm:
    @settings(max_examples=100)
    @given(
        state=st.builds(
            lambda seed: random_state(np.random.default_rng(seed), 2, 2),
            st.integers(min_value=0, max_value=2**32 - 1),
        )
    )
    @example(state=singlet())
    @example(state=werner_state(0.8))
    @example(state=_PRODUCT)
    @example(state=maximally_mixed(2, 2))
    def test_value_is_the_exact_bound(self, state):
        # The planar extremes are (1 +- |T_xz|_F)/2; the oracle's T_xz comes from np.kron.
        radius = exact_qubit_bound(state, planar=True)
        for objective, sign in (("maximize_upper", 1.0), ("minimize_lower", -1.0)):
            value = optimize_violation(state, objective).value
            assert abs(value - 0.5 * (1.0 + sign * radius)) <= 1e-15
        block = kron_correlations(state, planar=True)
        p, q, t1, t2 = _xz_factors(block.tolist())
        assert t1 >= abs(t2)
        rebuilt = rotation(p) @ np.diag([t1, t2]) @ rotation(q)
        assert np.abs(rebuilt - block).max() <= 1e-15 * np.linalg.norm(block)

    @pytest.mark.parametrize("state, objective, angles", [
        (singlet(), "maximize_upper", (0.0, pi / 2, 3 * pi / 4, pi / 4)),
        (singlet(), "minimize_lower", (pi, -pi / 2, 3 * pi / 4, pi / 4)),
        (maximally_mixed(2, 2), "maximize_upper", (pi / 2, pi, pi / 2, -pi / 2)),
        (maximally_mixed(2, 2), "minimize_lower", (-pi / 2, 0.0, pi / 2, -pi / 2)),
        (_PRODUCT, "maximize_upper", (0.0, pi / 2, 0.0, pi)),
        (_PRODUCT, "minimize_lower", (pi, -pi / 2, 0.0, pi)),
    ], ids=["singlet-upper", "singlet-lower", "mixed-upper", "mixed-lower", "product-upper",
            "product-lower"])
    def test_degenerate_blocks_take_one_branch(self, state, objective, angles):
        # T_xz = -I, 0 and diag(0, 1) have many singular vectors; the closed form
        # picks one. The singlet's upper angles are the reference configuration.
        result = optimize_violation(state, objective)
        assert list(map(repr, result.angles)) == list(map(repr, angles))
        sign = 1.0 if objective == "maximize_upper" else -1.0
        assert abs(result.value - 0.5 * (1.0 + sign * exact_qubit_bound(state, True))) <= 1e-15

    @pytest.mark.parametrize("diagonal", [(-1.0, -1.0), (1.0, 1.0), (0.0, 0.0), (-0.0, -0.0)])
    def test_signed_zeros_factor_as_unsigned_ones(self, diagonal):
        # atan2 reads the sign of a zero: atan2(-0.0, -1.0) = -pi but atan2(0.0, -1.0) = pi.
        # Every one of e, f, g and h can come out -0.0 here; each gives the +0.0 factors.
        a, d = diagonal
        unsigned = list(map(repr, _xz_factors([[a + 0.0, 0.0], [0.0, d + 0.0]])))
        for b in (0.0, -0.0):
            for c in (0.0, -0.0):
                factors = _xz_factors([[a, b], [c, d]])
                assert list(map(repr, factors)) == unsigned, (a, b, c, d)

    def test_planar_mode_calls_no_svd_and_reads_no_number(self, monkeypatch):
        state = werner_state(0.8)

        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for module in (qcore, witness, search):
            monkeypatch.setattr(module, "_number", refuse)
        for objective in ("maximize_upper", "minimize_lower"):
            optimize_violation(state, objective)
        with pytest.raises(AssertionError, match="called"):  # the spy is in place
            optimize_violation(state, "maximize_upper", planar=False)


def _seeded_density(rng: np.random.Generator, rank: int, real: bool = False) -> QuantumState:
    factor = rng.normal(size=(4, rank)) + (0.0 if real else 1j) * rng.normal(size=(4, rank))
    rho = factor @ factor.conj().T
    return QuantumState.density(rho / np.trace(rho).real, (2, 2))


def _kernel_order_states() -> list[QuantumState]:
    """Seeded, pure and degenerate states for the kernel-order test.

    The seeded densities have rank 1 to 4; some are real, some Hermitian only within tolerance.
    """
    rng = np.random.default_rng(33)
    mixed_signed_zeros = np.where(np.eye(4) == 1.0, 0.25, complex(-0.0, -0.0))
    return [
        *(_seeded_density(rng, n % 4 + 1, real=n % 3 == 0) for n in range(600)),
        *(random_state(rng, 2, 2) for _ in range(200)),
        *(QuantumState.density(_seeded_density(rng, 4).data + 1e-13 * rng.normal(size=(4, 4)),
                               (2, 2)) for _ in range(50)),
        maximally_mixed(2, 2), QuantumState.density(mixed_signed_zeros, (2, 2)),
        werner_state(0.0), werner_state(0.8), werner_state(1.0), singlet(),
        QuantumState.density(singlet().density_matrix(), (2, 2)), _PRODUCT,
    ]


_KERNEL_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])


class TestCorrelationsInKernelOrder:
    """``search._correlations`` sums T from rho's rows in the joint kernel's own order.

    Each term of an entry is exact, so only the order of the sum sets its bits. The test
    holds the sums to ``_joint_table`` on the Pauli stacks, signed zeros included; a numpy
    whose einsum adds in another order fails here.
    """

    @pytest.mark.parametrize("planar", [True, False], ids=["planar", "full"])
    def test_sums_are_the_kernel_table_bit_for_bit(self, planar):
        paulis = _KERNEL_PAULIS[::2] if planar else _KERNEL_PAULIS
        for index, state in enumerate(_kernel_order_states()):
            rho4 = qcore._density_tensor(state)
            kernel = qcore._joint_table(rho4, paulis, paulis)
            sums = search._correlations(rho4.reshape(4, 4).tolist(), planar)
            assert repr(sums) == repr(kernel.tolist()), index
            if not planar:
                ours, theirs = np.linalg.svd(np.array(sums)), np.linalg.svd(kernel)
                assert [m.tobytes() for m in ours] == [m.tobytes() for m in theirs], index

    def test_one_kernel_call_per_optimization(self, monkeypatch):
        calls = []
        kernel = witness._joint_table

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(witness, "_joint_table", counted)
        monkeypatch.setattr(search, "_joint_table", counted)
        for state in (werner_state(0.8), singlet()):
            for planar in (True, False):
                calls.clear()
                optimize_violation(state, "maximize_upper", planar=planar)
                assert len(calls) == 1, (state, planar)


def _table_angles() -> list[float]:
    """2,000 seeded Schmidt angles, the two edges of the default tol's band, and theta*."""
    seeded = np.random.default_rng(34).uniform(1e-6, pi / 4, 2000).tolist()
    return [*seeded, 3.1622776638678034e-05, 0.7853758027171096, search._THETA_STAR]


class TestHardyTableInKernelOrder:
    """``search._schmidt_table`` sums a Schmidt state's table and CH marginals as the kernel does.

    The construction keeps them in place of a contraction, so they must be the kernel's
    bits: ``_joint_table`` and ``_marginal`` on ``_density_tensor(schmidt.state())``, signed
    zeros included, on the Hardy settings and on seeded xz-plane settings. Recorded under
    numpy 2.4.6; a numpy whose einsum adds in another order fails here.
    """

    def test_sums_are_the_kernel_table_bit_for_bit(self):
        rng = np.random.default_rng(34)
        for theta in _table_angles():
            schmidt = SchmidtState(theta)
            rho4 = qcore._density_tensor(schmidt.state())
            hardy = witness._xz_scenario(search._hardy_angles(*schmidt.amplitudes))
            seeded = witness._xz_scenario(rng.uniform(-pi, pi, 4).tolist())
            for side1, side2 in (hardy._sides, seeded._sides):
                kernel = ((qcore._marginal(rho4, 1, side1[1]), qcore._marginal(rho4, 2, side2[1])),
                          qcore._joint_table(rho4, side1, side2).tolist())
                sums = search._schmidt_table(*schmidt.amplitudes, (side1, side2))
                assert repr(sums) == repr(kernel), theta


def _full_bloch_states() -> list[QuantumState]:
    """The singlet, a Werner state and 20 seeded complex densities of full rank."""
    rng = np.random.default_rng(28)
    states = [singlet(), werner_state(0.8)]
    for _ in range(20):
        factor = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = factor @ factor.conj().T
        states.append(QuantumState.density(rho / np.trace(rho).real, (2, 2)))
    return states


class TestFullBlochEndToEnd:
    """Full-Bloch optima against the np.kron correlation matrix, and their reported angles."""

    @pytest.mark.parametrize("objective, sign", [("maximize_upper", 1.0), ("minimize_lower", -1.0)])
    def test_values_lie_on_the_exact_bound(self, objective, sign):
        for index, state in enumerate(_full_bloch_states()):
            t = np.linalg.svd(kron_correlations(state, planar=False), compute_uv=False)
            bound = (1.0 + sign * sqrt(t[0] ** 2 + t[1] ** 2)) / 2.0
            value = optimize_violation(state, objective, planar=False).value
            assert abs(value - bound) <= 1e-12, (index, value, bound)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_reported_angles_rebuild_the_projectors_byte_for_byte(self, objective):
        for index, state in enumerate(_full_bloch_states()):
            result = optimize_violation(state, objective, planar=False)
            pairs = zip(result.angles[::2], result.angles[1::2])
            for name, pair in zip(_NAMES, pairs):
                rebuilt = spin_observable(BlochDirection(*pair))
                for label in (1.0, -1.0):
                    got = getattr(result.scenario, name).projector(label)
                    assert got.tobytes() == rebuilt.projector(label).tobytes(), (index, name)


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
        threshold = werner_sweep(reference_scenario())
        assert threshold == pytest.approx(1.0 / sqrt(2.0), abs=1e-12)

    @settings(max_examples=50)
    @given(phi=st.floats(min_value=0.0, max_value=2.0 * pi))
    def test_threshold_invariant_under_in_plane_rotation(self, phi):
        # The singlet is rotation invariant, so rotating every setting keeps the crossing.
        threshold = werner_sweep(reference_scenario(phi))
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
            excess_lo, excess_hi = (
                generalized_expression(q_vector(werner_state(v), scenario)) - 1.0
                for v in (0.0, 1.0)
            )
            if excess_hi < 0.0 or excess_lo > 0.0:
                with pytest.raises(NoCrossing):
                    werner_sweep(scenario)
                continue
            crossings += 1
            assert werner_sweep(scenario) == 0.0 - excess_lo / (excess_hi - excess_lo)
        assert crossings >= 100

    @pytest.mark.parametrize("ends, crossing", [
        ((0.5, 1.0), "1.0"),  # excess_hi = 0.0: the bound is reached at v = 1, not missed
        ((1.0, 1.5), "0.0"),  # excess_lo = 0.0: on the bound at v = 0, not already past it
        ((1.0, 1.0), "1.0"),  # on the bound at both ends
    ])
    def test_an_end_exactly_on_the_bound_is_a_crossing(self, monkeypatch, ends, crossing):
        # No scenario tried puts a Werner end exactly on the bound (4,096 built from Pauli and
        # trivial qubit observables), so the kernel's two end tables are set: a guard written
        # with <= or >= would raise NoCrossing here.
        def table(value):  # q1 = min(value, 1) and q2 = the rest, so the expression is value
            q1 = min(value, 1.0)
            return [[q1, 0.0, 0.0], [0.0, 0.0, value - q1], [0.0, 0.0, 0.0]]

        tables = np.array([table(value) for value in ends])
        monkeypatch.setattr(search, "_joint_table", lambda *args: tables)
        assert repr(werner_sweep(reference_scenario())) == crossing

    def test_kept_ends_are_read_only(self):
        assert _WERNER_ENDS.shape == (2, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            _WERNER_ENDS[0, 0, 0, 0, 0] = 1.0
        for v, end in zip((0.0, 1.0), _WERNER_ENDS):
            assert np.array_equal(end.reshape(4, 4), werner_state(v).data)

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
