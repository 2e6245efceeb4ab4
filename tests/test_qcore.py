"""Born-rule layer: spin observables, the einsum kernel against its kron oracle,
probabilities, JSON codecs."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
import warnings
from dataclasses import FrozenInstanceError
from math import atan2, cos, hypot, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    random_density_state,
    random_observable,
    random_pure_state,
    random_scenario,
    random_state,
    reference_observable,
    tensor,
)
from hardykit import (
    BlochDirection,
    DeterministicStrategy,
    FiniteMeasure,
    Observable,
    QuantumState,
    Scenario,
    SchmidtState,
    SearchConfig,
    bloch_vector,
    ch_expression,
    joint_probability,
    marginal_probability,
    maximally_mixed,
    observable_from_dict,
    observable_to_dict,
    planar_scenario,
    q_vector,
    scenario_from_dict,
    singlet,
    spin_observable,
    state_from_dict,
    state_to_dict,
    werner_state,
    witness_report,
)
from hardykit.qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    EIGENVALUE_FLOOR,
    PROJECTOR_ATOL,
    STATE_ATOL,
    _bloch_angles,
    _bloch_units,
    _density_tensor,
    _pairs_from_complex,
    _projective,
    _spin_projectors,
    _trusted,
)
from hardykit import qcore
from hardykit.witness import QVector
from test_errors import GRAM_NAN, ErrorRows


def planar_xy(angle: float) -> Observable:
    """Spin observable along (cos a, sin a, 0)."""
    return spin_observable(BlochDirection.from_vector((cos(angle), np.sin(angle), 0.0)))


def singlet_joint(delta: float, same_outcome: bool) -> float:
    # Independent oracle: for the singlet and planar settings separated by
    # delta, P(equal outcomes) = (1 - cos delta)/4 and P(opposite) = (1 + cos delta)/4.
    if same_outcome:
        return (1.0 - cos(delta)) / 4.0
    return (1.0 + cos(delta)) / 4.0


class TestSpinObservable:
    def test_z_axis_eigenbasis(self):
        obs = spin_observable(BlochDirection(0.0, 0.0))
        assert np.allclose(obs.projector(1.0), np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(obs.projector(-1.0), np.diag([0.0, 1.0]), atol=1e-15)

    def test_x_axis_projector_is_uniform(self):
        obs = spin_observable(BlochDirection(pi / 2, 0.0))
        assert np.allclose(obs.projector(1.0), np.full((2, 2), 0.5), atol=1e-15)

    def test_completeness_for_random_directions(self, rng):
        for _ in range(50):
            direction = BlochDirection(rng.uniform(0, pi), rng.uniform(0, 2 * pi))
            obs = spin_observable(direction)
            total = obs.projector(1.0) + obs.projector(-1.0)
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_bloch_vector_inverts_construction(self, rng):
        for _ in range(20):
            direction = BlochDirection(rng.uniform(0, pi), rng.uniform(0, 2 * pi))
            recovered = bloch_vector(spin_observable(direction).projector(1.0))
            assert np.allclose(recovered, direction.unit_vector(), atol=1e-12)


class TestBlochDirection:
    test_rejects_out_of_range_angles = ErrorRows()

    def test_from_vector_round_trip(self, rng):
        for _ in range(30):
            vec = rng.normal(size=3)
            direction = BlochDirection.from_vector(vec)
            assert np.allclose(direction.unit_vector(), vec / np.linalg.norm(vec), atol=1e-12)

    test_from_vector_rejects_zero = ErrorRows()

    @settings(max_examples=300)
    @given(
        components=st.tuples(*[st.one_of(
            st.sampled_from((0.0, -0.0, 1.0, -1.0)),
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(min_value=-1e-30, max_value=-1e-300),
        )] * 3),
        scale=st.floats(min_value=1e-150, max_value=1e150),
    )
    @example(components=(0.0, 0.0, 1.0), scale=1.0)
    @example(components=(-0.0, 0.0, -1.0), scale=1e150)
    @example(components=(0.0, -0.0, 1e-150), scale=1e-150)
    @example(components=(1.0, -1e-300, 0.3), scale=1.0)  # phi wraps to 2 pi, stored as 0
    @example(components=(-0.0, -1e-20, 1.0), scale=3.0)
    def test_matches_scalar_oracle(self, components, scale):
        vec = np.array(components) * scale
        if not 0.0 < _norm(vec) < np.inf:
            with pytest.raises(ValueError, match="nonzero 3-vector of finite norm"):
                BlochDirection.from_vector(vec)
            return
        direction = BlochDirection.from_vector(vec)
        got = np.array([direction.theta, direction.phi])
        assert _scalar_bloch(vec) == (got.tobytes(), direction.unit_vector().tobytes())
        assert direction.unit_vector().shape == (3,)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), unit=st.booleans())
    def test_batched_rows_match_scalar_oracle(self, seed, rows, unit):
        # The optimizer converts its four directions in one pass; each row comes
        # out as the scalar formulas give it alone.
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(rows, 3))
        if unit:
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        else:
            vectors *= 10.0 ** rng.uniform(-150, 150, size=(rows, 1))
        angles = _bloch_angles(vectors.tolist())
        units = _bloch_units(angles)
        got = [(np.array(a).tobytes(), np.array(u).tobytes()) for a, u in zip(angles, units)]
        assert got == [_scalar_bloch(v) for v in vectors]

    def test_angles_within_two_ulp_of_numpy(self):
        # The math formulas against numpy's ufuncs, which may be vectorized
        # differently: the same angles up to rounding in the last bits.
        rng = np.random.default_rng(28)
        vectors = rng.normal(size=(10_000, 3)) * 10.0 ** rng.uniform(-100, 100, size=(10_000, 1))
        x, y, z = (vectors / np.linalg.norm(vectors, axis=1, keepdims=True)).T
        thetas = np.clip(np.arctan2(np.hypot(x, y), z), 0.0, pi)
        phis = np.arctan2(y, x) % (2.0 * pi)
        phis[phis >= 2.0 * pi] = 0.0
        for got, want in zip(np.array(_bloch_angles(vectors.tolist())).T, (thetas, phis)):
            ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
            assert (np.abs(got - want) <= 2.0 * ulp).all()


def _norm(vec: np.ndarray) -> float:
    x, y, z = vec.tolist()
    return sqrt(x * x + y * y + z * z)


def _scalar_bloch(vec: np.ndarray) -> tuple[bytes, bytes]:
    """The bytes of (theta, phi) and of the unit vector, from the scalar math formulas of one row."""
    norm = _norm(vec)
    x, y, z = (c / norm for c in vec.tolist())
    theta = min(max(atan2(hypot(x, y), z), 0.0), pi)
    phi = atan2(y, x) % (2.0 * pi)
    phi = 0.0 if phi >= 2.0 * pi else phi
    sin_theta = sin(theta)
    unit = np.array([sin_theta * cos(phi), sin_theta * sin(phi), cos(theta)])
    return np.array([theta, phi]).tobytes(), unit.tobytes()


class TestTensor:
    def test_identity_tensor_identity(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4), atol=0)

    def test_diagonal_product(self):
        result = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(result, np.diag([0.0, 1.0, 0.0, 0.0]), atol=0)

    def test_bilinearity_in_first_argument(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        scale = 2.5 - 0.5j
        assert np.allclose(tensor(scale * a, b), scale * tensor(a, b), atol=1e-12)


def _oracle(rho: np.ndarray, proj1: np.ndarray, proj2: np.ndarray) -> float:
    return float(np.trace(rho @ tensor(proj1, proj2)).real)


class TestKernelAgainstKronOracle:
    """The einsum kernel against Tr[rho (P1 x P2)] with the operator formed by kron."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        d1=st.sampled_from((2, 3)),
        d2=st.sampled_from((2, 3)),
        pure=st.booleans(),
        trichotomic=st.booleans(),
    )
    def test_probabilities_match_oracle(self, seed, d1, d2, pure, trichotomic):
        rng = np.random.default_rng(seed)
        state = (random_pure_state if pure else random_density_state)(rng, d1, d2)
        scenario = random_scenario(rng, d1, d2, trichotomic)
        rho = state.density_matrix()
        x1, y1, x2, y2 = scenario.x1, scenario.y1, scenario.x2, scenario.y2

        for obs1 in (x1, y1):
            for obs2 in (x2, y2):
                for a in obs1.labels:
                    for b in obs2.labels:
                        expected = _oracle(rho, obs1.projector(a), obs2.projector(b))
                        got = joint_probability(state, obs1, a, obs2, b)
                        assert abs(got - expected) < 1e-12
        for side, obs in ((1, x1), (1, y1), (2, x2), (2, y2)):
            for label in obs.labels:
                proj = obs.projector(label)
                other = np.eye(state.dims[2 - side])
                pair = (proj, other) if side == 1 else (other, proj)
                expected = _oracle(rho, *pair)
                assert abs(marginal_probability(state, side, obs, label) - expected) < 1e-12

        events = [(x1, 1.0, x2, 1.0), (y1, 1.0, x2, -1.0), (x1, -1.0, y2, 1.0), (y1, 1.0, y2, 1.0)]
        if trichotomic:
            events += [(y1, 1.0, x2, 0.0), (x1, 0.0, y2, 1.0)]
        expected_q = [_oracle(rho, o1.projector(a), o2.projector(b)) for o1, a, o2, b in events]
        assert np.max(np.abs(np.array(q_vector(state, scenario).components()) - expected_q)) < 1e-12

        plus = {name: getattr(scenario, name).projector(1.0) for name in ("x1", "y1", "x2", "y2")}
        expected_ch = (
            _oracle(rho, plus["x1"], plus["x2"])
            - _oracle(rho, plus["y1"], plus["x2"])
            - _oracle(rho, plus["x1"], plus["y2"])
            - _oracle(rho, plus["y1"], plus["y2"])
            + _oracle(rho, plus["y1"], np.eye(d2))
            + _oracle(rho, np.eye(d1), plus["y2"])
        )
        assert abs(ch_expression(state, scenario) - expected_ch) < 1e-12


class TestBuiltValuesPassFullValidation:
    """Values built without re-validation must pass the public constructors' checks."""

    def test_spin_observables(self, rng):
        for _ in range(30):
            obs = spin_observable(BlochDirection(rng.uniform(0, pi), rng.uniform(0, 2 * pi)))
            rebuilt = Observable(obs.dim, obs.outcomes)
            assert rebuilt.labels == (1.0, -1.0)

    @pytest.mark.parametrize("plane", ["xy", "xz"])
    def test_planar_scenarios(self, rng, plane):
        for _ in range(10):
            scenario = planar_scenario(*rng.uniform(-2 * pi, 2 * pi, size=4), plane=plane)
            observables = [
                Observable(obs.dim, obs.outcomes)
                for obs in (scenario.x1, scenario.y1, scenario.x2, scenario.y2)
            ]
            assert not Scenario(*observables).trichotomic

    def test_werner_states(self):
        for v in np.linspace(0.0, 1.0, 11):
            state = werner_state(float(v))
            rebuilt = QuantumState.density(state.data, state.dims)
            assert np.array_equal(rebuilt.data, state.data)

    def test_schmidt_states(self):
        for angle in np.linspace(0.0, pi / 4, 13):
            state = SchmidtState(float(angle)).state()
            rebuilt = QuantumState.pure(state.data, state.dims)
            assert np.array_equal(rebuilt.data, state.data)
            assert not state.data.flags.writeable

    def test_spin_projectors_match_pauli_sums(self, rng):
        axes = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
        randoms = [v / np.linalg.norm(v) for v in rng.normal(size=(30, 3))]
        for unit in axes + randoms:
            direction = BlochDirection.from_vector(unit)
            obs = spin_observable(direction)
            nx, ny, nz = direction.unit_vector()
            pauli = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
            assert np.max(np.abs(obs.projector(1.0) - 0.5 * (np.eye(2) + pauli))) <= 1e-15
            assert np.max(np.abs(obs.projector(-1.0) - 0.5 * (np.eye(2) - pauli))) <= 1e-15
            assert not obs.projector(1.0).flags.writeable
            assert not obs.projector(-1.0).flags.writeable

    def test_batched_writer_matches_pauli_sums(self, rng):
        # Signed zeros in, unsigned zeros out; axes give exact zero entries.
        axes = [(0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (1.0, -0.0, 0.0), (0.0, -1.0, -0.0)]
        units = axes + [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(30, 3))]
        projectors = _spin_projectors(units)
        assert projectors.shape == (len(units), 2, 2, 2)
        assert not projectors.flags.writeable
        for k, (nx, ny, nz) in enumerate(units):
            pauli = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
            assert np.max(np.abs(projectors[k, 0] - 0.5 * (np.eye(2) + pauli))) <= 1e-15
            assert np.max(np.abs(projectors[k, 1] - 0.5 * (np.eye(2) - pauli))) <= 1e-15
        for part in (projectors.real, projectors.imag):
            assert not np.signbit(part[part == 0.0]).any()

    def test_single_vector_is_the_batched_case(self, rng):
        units = [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(10, 3))]
        projectors = _spin_projectors(units)
        for k, unit in enumerate(units):
            alone = _spin_projectors([unit])
            assert alone.tobytes() == projectors[k : k + 1].tobytes()


class TestTrustedInstances:
    """``_trusted`` skips validation but must build the same frozen value."""

    def test_equals_validated_instance(self):
        fields = dict(q1=0.25, q2=0.0, q3=0.5, q4=1.0, q5=None, q6=None)
        assert _trusted(QVector, **fields) == QVector(0.25, 0.0, 0.5, 1.0)
        assert _trusted(BlochDirection, theta=1.0, phi=2.0) == BlochDirection(1.0, 2.0)
        trusted = werner_state(0.3)
        validated = QuantumState.density(trusted.data, (2, 2))
        assert (trusted.dims, trusted.kind) == (validated.dims, validated.kind)
        assert np.array_equal(trusted.data, validated.data)
        # Each class built from loosely typed arguments holds the cleaned fields in its
        # __dict__ (and what it keeps beside them), the form _trusted callers supply.
        z, x = spin_observable(BlochDirection(0.0, 0.0)), spin_observable(BlochDirection(pi / 2, 0.0))
        loose_outcomes = ((1, [[1, 0], [0, 0]]), (np.int64(-1), [[0, 0], [0, 1]]))
        loose_z, masks = Observable(2.0, loose_outcomes), ([1, 0], [0, 1], [1, 1], [1, 0])
        for cls, loose, clean, kept in (
            (BlochDirection, (1, Fraction(1, 2)), (1.0, 0.5), ()),
            (QuantumState, ((2.0, np.int64(2)), "density", (np.eye(4) / 4).tolist()),
             ((2, 2), "density", np.eye(4, dtype=complex) / 4), ()),
            (QuantumState, ([2, 2], "pure", [0, 1, 0, 0]), ((2, 2), "pure", np.eye(4)[1]), ()),
            (Observable, (2.0, loose_outcomes), (2, z.outcomes), ()),
            (Scenario, (loose_z, x, loose_z, x), (z, x, z, x), ("_sides",)),
            (SchmidtState, (0,), (0.0,), ("_state",)),
            (SearchConfig, (np.int64(3), 7.0), (np.int64(3), 7.0), ()),  # kept as given
            (QVector, (0, np.float64(0.25), Fraction(1, 2), 1), (0.0, 0.25, 0.5, 1.0), ()),
            (QVector, (0, 0, 0, 1, 1e-11, -1e-11), (0.0, 0.0, 0.0, 1.0, 1e-11, 0.0), ()),
            (FiniteMeasure, ([0.5, 0.5], [True, False], np.array([False, True]), [True, True],
                             [np.True_, False]),
             (np.array([0.5, 0.5]), *(np.array(m, dtype=bool) for m in masks)), ()),
            (DeterministicStrategy, (np.int64(1), 0, True, np.False_),
             (np.int64(1), 0, True, np.False_), ()),  # kept as given
        ):
            value = cls(*loose)
            assert set(vars(value)) == set(cls._fields) | set(kept), cls
            assert _trusted(cls, **vars(value)) == value == cls(*clean), cls
            assert repr(value) == repr(cls(*clean)), cls

    def test_fields_stay_frozen(self):
        values = [
            (_trusted(QVector, q1=0.1, q2=0.2, q3=0.3, q4=0.4, q5=None, q6=None), "q1"),
            (werner_state(0.3), "kind"),
            (spin_observable(BlochDirection(1.0, 2.0)), "dim"),
            (planar_scenario(0.1, 0.2, 0.3, 0.4), "x1"),
            (planar_scenario(0.1, 0.2, 0.3, 0.4), "_sides"),
        ]
        for value, name in values:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)


class TestKeptDensityTensor:
    """A state's (d1, d2, d1, d2) tensor is read-only."""

    @pytest.mark.parametrize("pure", [True, False])
    def test_tensor_is_kept_and_read_only(self, rng, pure):
        state = random_pure_state(rng, 2, 3) if pure else random_density_state(rng, 3, 2)
        rho4 = _density_tensor(state)
        with pytest.raises(ValueError):
            rho4[0, 0, 0, 0] = 0.0
        d = state.dims[0] * state.dims[1]
        assert np.array_equal(rho4.reshape(d, d), state.density_matrix())
        assert state == QuantumState(state.dims, state.kind, state.data)

    def test_schmidt_state_tensor_is_read_only(self):
        with pytest.raises(ValueError):
            _density_tensor(SchmidtState(pi / 8).state())[0, 0, 0, 0] = 0.0

    @pytest.mark.parametrize("trichotomic", [False, True])
    def test_repeated_evaluation_is_bitwise_equal(self, rng, trichotomic):
        for state in (random_pure_state(rng, 3, 3), random_density_state(rng, 3, 3)):
            scenario = random_scenario(rng, 3, 3, trichotomic=trichotomic)
            first = (q_vector(state, scenario), witness_report(state, scenario))
            second = (q_vector(state, scenario), witness_report(state, scenario))
            assert repr(first) == repr(second)
            assert first[1].qvec.components() == first[0].components()


class TestPlanarDirections:
    def test_xz_projectors_are_exactly_real(self, rng):
        for _ in range(20):
            scenario = planar_scenario(*rng.uniform(-2 * pi, 2 * pi, size=4), plane="xz")
            for obs in (scenario.x1, scenario.y1, scenario.x2, scenario.y2):
                for _, proj in obs.outcomes:
                    assert np.all(proj.imag == 0.0)

    test_non_finite_angle_rejected = ErrorRows()


class TestJointProbability:
    def test_singlet_reference_value(self):
        # Settings separated by 3*pi/4; the closed form is (2 + sqrt 2)/8.
        obs1, obs2 = planar_xy(0.0), planar_xy(3 * pi / 4)
        expected = (2.0 + np.sqrt(2.0)) / 8.0
        value = joint_probability(singlet(), obs1, 1.0, obs2, 1.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(singlet_joint(3 * pi / 4, True), abs=1e-12)

    def test_singlet_matches_analytic_rule_for_random_angles(self, rng):
        state = singlet()
        for _ in range(25):
            a, b = rng.uniform(0, 2 * pi, size=2)
            obs1, obs2 = planar_xy(a), planar_xy(b)
            for out1 in (1.0, -1.0):
                for out2 in (1.0, -1.0):
                    value = joint_probability(state, obs1, out1, obs2, out2)
                    assert value == pytest.approx(
                        singlet_joint(a - b, out1 == out2), abs=1e-12
                    )

    def test_product_state_z_outcomes(self):
        state = QuantumState.pure([1.0, 0.0, 0.0, 0.0], (2, 2))
        z_obs = spin_observable(BlochDirection(0.0, 0.0))
        assert joint_probability(state, z_obs, 1.0, z_obs, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_gives_quarter(self, rng):
        state = maximally_mixed(2, 2)
        for _ in range(10):
            obs1 = spin_observable(BlochDirection(rng.uniform(0, pi), rng.uniform(0, 2 * pi)))
            obs2 = spin_observable(BlochDirection(rng.uniform(0, pi), rng.uniform(0, 2 * pi)))
            for out1 in (1.0, -1.0):
                for out2 in (1.0, -1.0):
                    assert joint_probability(state, obs1, out1, obs2, out2) == pytest.approx(
                        0.25, abs=1e-12
                    )

    def test_total_probability_is_one(self, rng):
        # 100 randomized states over assorted dimensions, pure and mixed.
        for index in range(100):
            d1, d2 = [(2, 2), (2, 3), (3, 3), (3, 4)][index % 4]
            state = random_state(rng, d1, d2)
            obs1 = random_observable(rng, d1, (-1.0, 1.0))
            obs2 = random_observable(rng, d2, (-1.0, 1.0))
            total = sum(
                joint_probability(state, obs1, a, obs2, b)
                for a in obs1.labels
                for b in obs2.labels
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_invariant_under_hermitian_conjugation(self, rng):
        for _ in range(20):
            state = random_state(rng, 2, 2)
            conjugated = QuantumState.density(state.density_matrix().conj().T, (2, 2))
            obs1 = random_observable(rng, 2, (-1.0, 1.0))
            obs2 = random_observable(rng, 2, (-1.0, 1.0))
            original = joint_probability(state, obs1, 1.0, obs2, -1.0)
            flipped = joint_probability(conjugated, obs1, 1.0, obs2, -1.0)
            assert abs(original - flipped) < 1e-12

    def test_roundoff_is_clamped_into_the_unit_interval(self):
        # Within PROB_CLAMP_ATOL of [0, 1] a probability is clamped; farther out it is left
        # for the q-vector's range check to refuse.
        atol = qcore.PROB_CLAMP_ATOL
        for p, clamped in ((-atol, 0.0), (-atol / 2, 0.0), (-0.0, -0.0), (0.3, 0.3),
                           (1.0 + atol / 2, 1.0), (1.0 + atol, 1.0),
                           (-2 * atol, -2 * atol), (1.0 + 2 * atol, 1.0 + 2 * atol)):
            assert repr(qcore._clamp_probability(p)) == repr(clamped), p

    test_dimension_mismatch = ErrorRows()
    test_unknown_label = ErrorRows()


class TestMarginalProbability:
    def test_singlet_marginals_are_half(self, rng):
        state = singlet()
        for side in (1, 2):
            for _ in range(5):
                obs = spin_observable(
                    BlochDirection(rng.uniform(0, pi), rng.uniform(0, 2 * pi))
                )
                assert marginal_probability(state, side, obs, 1.0) == pytest.approx(
                    0.5, abs=1e-12
                )

    def test_product_state_side_one(self):
        state = QuantumState.pure([1.0, 0.0, 0.0, 0.0], (2, 2))
        z_obs = spin_observable(BlochDirection(0.0, 0.0))
        assert marginal_probability(state, 1, z_obs, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_equals_sum_over_other_side(self, rng):
        for _ in range(30):
            state = random_state(rng, 2, 3)
            obs1 = random_observable(rng, 2, (-1.0, 1.0))
            obs2 = random_observable(rng, 3, (-1.0, 0.0, 1.0))
            marginal = marginal_probability(state, 1, obs1, 1.0)
            summed = sum(joint_probability(state, obs1, 1.0, obs2, b) for b in obs2.labels)
            assert abs(marginal - summed) < 1e-10

    def test_no_signaling_across_observable_choices(self, rng):
        # Summing out either of two different complete observables on side 2
        # leaves the side-1 marginal unchanged.
        for _ in range(20):
            state = random_state(rng, 2, 2)
            obs1 = random_observable(rng, 2, (-1.0, 1.0))
            other_a = random_observable(rng, 2, (-1.0, 1.0))
            other_b = random_observable(rng, 2, (-1.0, 1.0))
            sum_a = sum(joint_probability(state, obs1, 1.0, other_a, b) for b in other_a.labels)
            sum_b = sum(joint_probability(state, obs1, 1.0, other_b, b) for b in other_b.labels)
            assert abs(sum_a - sum_b) < 1e-10

    test_side_validation = ErrorRows()


class TestStateValidation:
    test_pure_norm_enforced = ErrorRows()
    test_density_must_be_hermitian = ErrorRows()
    test_density_trace_enforced = ErrorRows()
    test_density_positivity_enforced = ErrorRows()

    def test_small_negative_eigenvalue_tolerated(self):
        matrix = np.diag([0.5 + 5e-11, 0.5, 5e-11, -1e-10 / 2])
        matrix = matrix / np.trace(matrix)
        state = QuantumState.density(matrix, (2, 2))
        assert state.kind == "density"

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from(((2, 2), (2, 3), (3, 3))),
        tiny=st.lists(st.one_of(
            st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -2.5e-323, 2.2250738585072e-308)),
            st.floats(min_value=-2.2e-308, max_value=2.2e-308),
        ), min_size=2, max_size=2 * 81),
    )
    @example(seed=0, dims=(2, 2), tiny=[1.5e-323, -0.0])
    def test_eigenvalue_message_reads_the_hermitian_part(self, seed, dims, tiny):
        # An exactly Hermitian, unit-trace density that is not positive: a random
        # block with a negative eigenvalue, then a positive diagonal, and subnormal
        # or signed-zero entries (each mirrored as its conjugate) everywhere else.
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        m = int(rng.integers(2, n + 1))
        spectrum = np.concatenate(([-rng.uniform(1e-3, 0.5)], rng.uniform(0.0, 1.0, n - 1)))
        spectrum[1:] *= (1.0 - spectrum[0]) / spectrum[1:].sum()
        basis, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        rho = np.zeros((n, n), dtype=complex)
        rho[:m, :m] = (basis * spectrum[:m]) @ basis.conj().T
        rho[m:, m:] = np.diag(spectrum[m:])
        values = iter(tiny * n * n)
        for i in range(n):
            for j in range(i):
                if i >= m or j >= m:
                    rho[i, j] = complex(next(values), next(values))
                rho[j, i] = rho[i, j].conjugate()
            rho[i, i] = complex(rho[i, i].real, next(values) * 0.0)  # +-0.0 imaginary part
        assert np.abs(rho - rho.conj().T).max() == 0.0
        expected = float(np.linalg.eigvalsh(0.5 * rho + 0.5 * rho.conj().T)[0])
        assert expected < EIGENVALUE_FLOOR
        with pytest.raises(ValueError) as raised:
            QuantumState.density(rho, dims)
        # repr round-trips, so equal text is the same float, bit for bit.
        assert str(raised.value) == (
            f"density matrix has eigenvalue {expected!r} below {EIGENVALUE_FLOOR}")

    test_non_finite_pure_amplitude_rejected = ErrorRows()
    test_non_finite_density_entry_rejected = ErrorRows()
    test_minimum_subsystem_dimension = ErrorRows()
    test_non_integral_dimension_rejected = ErrorRows()

    def test_numbers_of_any_type_build_the_same_state(self):
        # Object arrays are read element by element, as lists are: Fractions, ints and
        # numpy scalars are numbers; only booleans and strings are refused.
        expected = QuantumState.pure([0.6, 0.8j, 0.0, 0.0], (2, 2))
        for data in ([Fraction(3, 5), 0.8j, 0, 0],
                     np.array([Fraction(3, 5), 0.8j, 0, 0], dtype=object),
                     [np.float64(0.6), np.complex128(0.8j), np.int64(0), 0.0]):
            state = QuantumState((2, 2), "pure", data)
            assert state == expected
        quarter = np.array([[Fraction(i == j, 4) for j in range(4)] for i in range(4)],
                           dtype=object)
        assert QuantumState.density(quarter, (2, 2)) == maximally_mixed(2, 2)
        measure = FiniteMeasure(np.array([Fraction(1, 2)] * 2, dtype=object),
                                *[np.array([True, False])] * 4)
        assert measure.weights.tolist() == [0.5, 0.5]
        z = Observable(2, ((1, np.array([[1, 0], [0, 0]])), (-1, [[Fraction(0), 0], [0, 1]])))
        assert z == spin_observable(BlochDirection(0.0, 0.0))

    def test_integral_float_dimension_accepted(self):
        assert QuantumState.pure([0.0, 1.0, 0.0, 0.0], (2.0, 2.0)).dims == (2, 2)

    def test_werner_state_is_valid(self):
        for v in (0.0, 0.3, 1.0):
            state = werner_state(v)
            assert np.trace(state.density_matrix()).real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            werner_state(1.2)


def _numpy_density_verdict(data: np.ndarray) -> str | None:
    """The numpy density checks written out as the reference: a message, or None if it passes."""
    def fault(message: str) -> str:
        return "state data has non-finite entries" if not np.isfinite(data).all() else message

    adjoint = data.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = np.abs(data - adjoint).max()
        trace = complex(data.trace())
    if not asymmetry <= STATE_ATOL:
        return fault("density matrix is not Hermitian within tolerance")
    if not abs(trace - 1.0) <= STATE_ATOL:
        return fault(f"density matrix trace {trace} is not 1 within {STATE_ATOL}")
    smallest = float(np.linalg.eigvalsh(
        data if asymmetry == 0.0 else 0.5 * data + 0.5 * adjoint)[0])
    if smallest < EIGENVALUE_FLOOR:
        return fault(f"density matrix has eigenvalue {smallest} below {EIGENVALUE_FLOOR}")
    return None


def _edge_densities(rng, kind: str, count: int):
    """``count`` seeded 4x4 densities of one kind, each at or near the edge of one check."""
    def spectral(spectrum) -> np.ndarray:
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rho = (basis * spectrum) @ basis.conj().T
        return 0.5 * rho + 0.5 * rho.conj().T  # exactly Hermitian

    for _ in range(count):
        spectrum = rng.dirichlet(np.full(4, rng.choice([0.2, 1.0, 5.0])))
        if kind == "floor":  # smallest eigenvalue a hair either side of the floor
            spectrum[0] = EIGENVALUE_FLOOR + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-17, -11)
            spectrum[1:] *= (1.0 - spectrum[0]) / spectrum[1:].sum()
        elif kind == "not-psd" or kind == "near-hermitian" and rng.uniform() < 0.5:
            spectrum[0] = rng.choice([0.0, 1e-18, -1e-3, -0.5])
            spectrum[1:] *= (1.0 - spectrum[0]) / spectrum[1:].sum()
        rho = spectral(spectrum)
        if kind == "near-hermitian":  # every entry off by ~1e-13
            rho += 1e-13 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        elif kind == "residual":  # one pair whose residual is exactly a few ulps from the bound
            rho = np.diag(rho.diagonal().real).astype(complex)
            i, j = rng.choice(4, size=2, replace=False)
            rho[i, j] = STATE_ATOL * (1.0 + int(rng.integers(-64, 65)) * 2.0**-52)
            rho[i, j] *= rng.choice([1.0, -1.0, 1j, -1j])
            if rng.uniform() < 0.5:  # or spread over both entries, with any phase
                rho[i, j] = rho[j, i] = STATE_ATOL * np.exp(2j * np.pi * rng.uniform())
                rho[j, i] *= -1.0
        elif kind == "trace":  # a few ulps from 1 +- STATE_ATOL, where another sum order strays
            k = rng.integers(4)
            rho[k, k] += rng.choice([-1, 1]) * (STATE_ATOL + int(rng.integers(-8, 9)) * 2.0**-52)
        elif kind == "non-finite":  # one entry, or one mirrored pair, NaN, infinite or huge
            i, j = rng.integers(4, size=2)
            value = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1.5e308, 1e200, 1e154])
            rho[i, j] = value if rng.uniform() < 0.5 else complex(0.0, value)
            if rng.uniform() < 0.5:
                rho[j, i] = np.conj(rho[i, j])
        elif kind == "garbage":
            rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho *= 10.0 ** rng.integers(-3, 4)
            if rng.uniform() < 0.5:
                rho = 0.5 * rho + 0.5 * rho.conj().T
                rho /= rho.trace().real
        yield rho


# What each kind reaches, as (float check passed, numpy checks passed); never (True, False).
# The float check steps aside only within its margins, at the floor and the residual bound.
_EDGE_OUTCOMES = {
    "plain": {(True, True)},
    "floor": {(True, True), (False, True), (False, False)},
    "not-psd": {(True, True), (False, False)},
    "near-hermitian": {(True, True), (False, False)},
    "residual": {(True, True), (False, True), (False, False)},
    "trace": {(True, True), (False, False)},
    "non-finite": {(False, False)},
    "garbage": {(False, False)},
}
_EDGE_KINDS = tuple(_EDGE_OUTCOMES)


class TestDensityCheckInFloats:
    """A 4x4 density passes the float check only if numpy's checks pass it too.

    So every verdict and message is the numpy checks' own, at every edge: what the
    float check does not pass, they decide.
    """

    @pytest.mark.parametrize("kind", _EDGE_KINDS)
    def test_same_verdict_and_message_as_the_numpy_checks(self, kind):
        rng = np.random.default_rng(_EDGE_KINDS.index(kind) + 32)
        outcomes = set()
        for rho in _edge_densities(rng, kind, 1000):
            expected = _numpy_density_verdict(rho)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                passed = qcore._passes_in_floats(rho.tolist())  # never raises or warns
                try:
                    QuantumState.density(rho, (2, 2))
                    got = None
                except ValueError as exc:
                    got = str(exc)
            assert got == expected, rho
            outcomes.add((passed, expected is None))
        assert outcomes == _EDGE_OUTCOMES[kind]

    def test_floor_edge_is_left_to_eigvalsh(self):
        # Just above the floor the float check steps aside, and eigvalsh accepts as before.
        deferred = 0
        for rho in _edge_densities(np.random.default_rng(7), "floor", 600):
            if 0.0 <= np.linalg.eigvalsh(rho)[0] - EIGENVALUE_FLOOR < 1e-14:
                assert not qcore._passes_in_floats(rho.tolist())
                QuantumState.density(rho, (2, 2))
                deferred += 1
        assert deferred > 0

    def test_larger_densities_skip_the_float_check(self, monkeypatch):
        monkeypatch.setattr(qcore, "_passes_in_floats", None)  # calling it would fail
        assert random_density_state(np.random.default_rng(1), 2, 3).dims == (2, 3)
        with pytest.raises(TypeError):
            QuantumState.density(np.eye(4) / 4.0, (2, 2))


class TestObservableValidation:
    test_rejects_non_idempotent = ErrorRows()
    test_rejects_non_orthogonal = ErrorRows()
    test_rejects_incomplete = ErrorRows()
    test_rejects_duplicate_labels = ErrorRows()
    test_rejects_non_finite_projector = ErrorRows()
    test_rejects_non_finite_label = ErrorRows()
    test_non_integral_dimension_rejected = ErrorRows()
    test_label_must_be_a_number = ErrorRows()

    def test_zero_projector_is_allowed(self):
        obs = Observable(
            2,
            ((1.0, np.diag([1.0, 0.0])), (0.0, np.zeros((2, 2))), (-1.0, np.diag([0.0, 1.0]))),
        )
        assert obs.labels == (1.0, 0.0, -1.0)


_FAULTS = (
    "nan",
    "inf",
    "non_finite_label",
    "not_hermitian",
    "not_idempotent",
    "not_orthogonal",
    "incomplete",
    "duplicate_label",
    "wrong_shape",
)


def _outcomes_with_faults(rng, d: int, k: int, faults) -> tuple:
    """A random valid measurement's (label, projector) pairs, then each fault injected once."""
    spectrum = rng.choice([-1.0, 0.0, 1.0, 2.5, -3.0], size=k, replace=False)
    valid = random_observable(rng, d, tuple(float(v) for v in spectrum))
    outcomes = [[label, np.array(proj)] for label, proj in valid.outcomes]
    for fault in faults:
        a = int(rng.integers(k))
        b = (a + 1 + int(rng.integers(max(k - 1, 1)))) % k
        i, j = (int(v) for v in rng.integers(d, size=2))
        if fault == "nan":
            outcomes[a][1][i, j] = float("nan")
        elif fault == "inf":
            outcomes[a][1][i, j] = complex(0.0, float("inf"))
        elif fault == "non_finite_label":
            outcomes[a][0] = float("nan")
        elif fault == "not_hermitian":
            outcomes[a][1][0, 1] += 1e-3
        elif fault == "not_idempotent":
            outcomes[a][1] = outcomes[a][1] + 0.01 * np.eye(len(outcomes[a][1]))
        elif fault == "not_orthogonal":
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            u /= np.linalg.norm(u)
            outcomes[a][1] = np.outer(u, u.conj())
        elif fault == "incomplete":
            outcomes[a][1] = np.zeros((d, d), dtype=complex)
        elif fault == "duplicate_label":
            outcomes[a][0] = outcomes[b][0]
        else:
            outcomes[a][1] = np.eye(d + 1, dtype=complex)
    return tuple((label, proj) for label, proj in outcomes)


class TestObservableMatchesOracle:
    """``Observable`` accepts and rejects exactly as the outcome-by-outcome oracle."""

    @settings(max_examples=400)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from((2, 3)),
        k=st.integers(1, 3),
        faults=st.lists(st.sampled_from(_FAULTS), max_size=2),
    )
    def test_same_verdict_and_message(self, seed, d, k, faults):
        rng = np.random.default_rng(seed)
        outcomes = _outcomes_with_faults(rng, d, k, faults)
        try:
            expected = reference_observable(d, outcomes)
        except Exception as exc:  # noqa: BLE001 - any fault the oracle meets first
            with pytest.raises(type(exc)) as info:
                Observable(d, outcomes)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            return
        obs = Observable(d, outcomes)
        assert obs.dim == expected[0]
        assert obs.labels == tuple(label for label, _ in expected[1])
        for (_, got), (_, want) in zip(obs.outcomes, expected[1]):
            assert np.array_equal(got, want)
            assert not got.flags.writeable

    @pytest.mark.parametrize(
        "outcomes, message",
        [
            pytest.param(
                ((1.0, np.array([[1.0, 1e-3], [0.0, 0.0]])), (float("nan"), np.eye(2))),
                "label 1.0 is not Hermitian",
                id="earlier-array-fault-before-later-label",
            ),
            pytest.param(
                ((1.0, 0.5 * np.eye(2)), (-1.0, np.full((2, 2), np.nan))),
                "label 1.0 is not idempotent",
                id="earlier-array-fault-before-later-nan",
            ),
            pytest.param(
                ((1.0, np.full((2, 2), np.inf)), (-1.0, np.eye(3))),
                "label 1.0 has non-finite",
                id="earlier-nan-before-later-shape",
            ),
        ],
    )
    def test_first_fault_in_outcome_order_is_reported(self, outcomes, message):
        with pytest.raises(ValueError, match=message):
            Observable(2, outcomes)

    def test_dimension_is_checked_before_outcomes_are_read(self):
        with pytest.raises(ValueError, match="dimensions must be integers"):
            Observable("x", None)

    def test_infinite_projector_raises_without_warning(self):
        outcomes = ((1.0, np.diag([np.inf, 0.0])), (-1.0, np.diag([0.0, 1.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="label 1.0 has non-finite entries"):
                Observable(2, outcomes)

    def test_generator_outcomes_build_the_tuple_observable(self):
        outcomes = ((1.0, np.diag([1.0, 0.0])), (-1.0, np.diag([0.0, 1.0])))
        from_generator = Observable(2, (outcome for outcome in outcomes))
        from_tuple = Observable(2, outcomes)
        assert from_generator.labels == from_tuple.labels
        for (_, got), (_, want) in zip(from_generator.outcomes, from_tuple.outcomes):
            assert np.array_equal(got, want)

    def test_projectors_are_read_only_copies(self):
        plus, minus = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        obs = Observable(2, ((1.0, plus), (-1.0, minus)))
        plus[0, 0] = 5.0
        assert obs.projector(1.0)[0, 0] == 1.0
        for _, proj in obs.outcomes:
            assert not proj.flags.writeable


@st.composite
def _perturbed_observable(draw) -> tuple[int, tuple]:
    """A random projective observable (d 2 or 3, 1-3 outcomes) whose projectors get up
    to two off-diagonal shifts of size 1e150-1e300, each Hermitian or not, and each
    taken back from a second projector or not, so that the sum can stay the identity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, k = draw(st.sampled_from((2, 3))), draw(st.integers(1, 3))
    labels = tuple(float(v) for v in range(k))
    projectors = [np.array(proj) for _, proj in random_observable(rng, d, labels).outcomes]
    for _ in range(draw(st.integers(0, 2))):
        order = draw(st.permutations(range(k)))
        i, j = draw(st.permutations(range(d)))[:2]
        size, phase = draw(st.floats(1e150, 1e300)), draw(st.floats(0.0, 2 * pi))
        shift = size * complex(cos(phase), sin(phase))
        hermitian, taken_back = draw(st.booleans()), k > 1 and draw(st.booleans())
        for index, sign in zip(order, (1, -1) if taken_back else (1,)):
            projectors[index][i, j] += sign * shift
            if hermitian:
                projectors[index][j, i] += sign * shift.conjugate()
    return d, tuple(zip(labels, projectors))


class TestProjectiveScreen:
    """``_projective`` refuses a non-finite entry without a separate finiteness pass,
    and gives ``Observable``'s verdict."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        k=st.integers(1, 3),
        d=st.sampled_from((2, 3)),
        value=st.sampled_from((float("nan"), float("inf"), float("-inf"))),
        part=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_any_non_finite_entry_fails(self, seed, n, k, d, value, part):
        rng = np.random.default_rng(seed)
        stack = np.zeros((n, k, d, d), dtype=complex)
        for block in stack:
            # Observables with fewer than k outcomes keep zero projectors as padding.
            labels = tuple(float(v) for v in range(int(rng.integers(1, k + 1))))
            for row, (_, projector) in zip(block, random_observable(rng, d, labels).outcomes):
                row[...] = projector
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            assert _projective(stack)
            # Real and imaginary parts in turn, padded rows included.
            stack.view(float).reshape(-1)[int(part * 2 * stack.size)] = value
            assert not _projective(stack)

    @settings(max_examples=200)
    @given(drawn=_perturbed_observable())
    @example(drawn=(2, GRAM_NAN))
    def test_screen_agrees_with_observable(self, drawn):
        """One verdict from the screen and from ``Observable``, also where a Gram product is NaN."""
        d, outcomes = drawn
        stack = np.array([projector for _, projector in outcomes])
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            try:
                Observable(d, outcomes)
            except ValueError:
                accepted = False
            else:
                accepted = True
            assert _projective(stack[None]) == accepted


class TestResidualsMadeWhenRead:
    """``_projective_residuals`` makes each residual when it is read: the screen and
    ``Observable`` stop at the first failed test, the Gram products stay a few stacks
    in size, and numpy's error state is back as it was once a fault is raised."""

    @pytest.fixture
    def reads(self, monkeypatch) -> list:
        """The number of dimensions of each residual read, in order."""
        made, residuals = [], qcore._projective_residuals

        def counted(stack):
            for residual in residuals(stack):
                made.append(residual.ndim)
                yield residual

        monkeypatch.setattr(qcore, "_projective_residuals", counted)
        return made

    @staticmethod
    def _rank_one(d: int) -> list[tuple[float, np.ndarray]]:
        return [(float(i), np.outer(e, e).astype(complex)) for i, e in enumerate(np.eye(d))]

    def test_a_projective_measurement_reads_every_residual(self, reads):
        Observable(2, tuple(self._rank_one(2)))
        assert reads == [4, 5, 3]  # Hermiticity, one Gram product, the sum
        reads.clear()
        Observable(7, tuple(self._rank_one(7)))
        assert reads == [4, 5, 5, 5, 3]  # a Gram product per three outcomes
        reads.clear()
        assert _projective(np.array([[p for _, p in self._rank_one(2)]] * 4))
        assert reads == [4, 5, 3]

    def test_a_fault_stops_the_reading(self, reads):
        outcomes = self._rank_one(7)
        not_hermitian = [(0.0, np.pad([[1.0, 1.0], [0.0, 0.0]], ((0, 5), (0, 5))))] + outcomes[1:]
        with pytest.raises(ValueError, match="^projector for label 0.0 is not Hermitian$"):
            Observable(7, tuple(not_hermitian))
        assert reads == [4]
        reads.clear()
        assert not _projective(np.array([p for _, p in not_hermitian])[None])
        assert reads == [4]
        reads.clear()
        not_idempotent = [(0.0, 2.0 * outcomes[0][1])] + outcomes[1:]
        with pytest.raises(ValueError, match="^projector for label 0.0 is not idempotent$"):
            Observable(7, tuple(not_idempotent))
        assert reads == [4, 5]

    def test_error_state_restored_while_the_fault_is_held(self):
        before = np.geterr()
        with pytest.raises(ValueError, match="is not idempotent") as info:
            Observable(2, ((1.0, np.diag([2.0, 0.0])), (-1.0, np.diag([0.0, 1.0]))))
        assert info.value.__traceback__ is not None
        assert np.geterr() == before
        assert not _projective(np.array([[np.diag([2.0, 0.0]), np.diag([0.0, 1.0])]]))
        assert np.geterr() == before

    def test_memory_stays_a_few_stacks(self):
        """At d = k = 32 one (k d) x (k d) Gram product alone would be 32 stacks."""
        d = 32
        outcomes = tuple(self._rank_one(d))
        tracemalloc.start()
        try:
            Observable(d, outcomes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * d**3 * np.dtype(complex).itemsize


def _measurement(basis: np.ndarray, k: int) -> list[tuple[float, np.ndarray]]:
    """Labels -1, (0,) +1 on projectors onto consecutive columns of ``basis``, split evenly."""
    d, outcomes, start = len(basis), [], 0
    for i, label in enumerate((-1.0, 1.0) if k == 2 else (-1.0, 0.0, 1.0)):
        columns = basis[:, start:start + d // k + (i < d % k)]
        outcomes.append((label, columns @ columns.conj().T))
        start += columns.shape[1]
    return outcomes


def _edge_outcomes(seed: int, d: int, k: int, scale: float) -> list[tuple[float, np.ndarray]]:
    """A random projective measurement, each projector shifted by a complex Gaussian
    matrix whose largest entry is ``scale`` * PROJECTOR_ATOL."""
    rng = np.random.default_rng(seed)
    unitary, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    outcomes = []
    for label, proj in _measurement(unitary, k):
        shift = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        outcomes.append((label, proj + shift * (scale * PROJECTOR_ATOL / np.abs(shift).max())))
    return outcomes


def _wire(d: int, outcomes) -> dict:
    return {"dim": d, "outcomes": [{"label": label, "projector": _pairs_from_complex(proj)}
                                   for label, proj in outcomes]}


class TestOneVerdictAtTheEdge:
    """Projectors within about PROJECTOR_ATOL of a projective measurement get one verdict
    and one message from ``Observable``, its decoder, the screen and the scenario decoder."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from((2, 3)),
        k=st.sampled_from((2, 3)),
        scale=st.floats(0.3, 1.5),
    )
    # Only P_b P_a fails: |P_1 P_0| reaches 1.10 PROJECTOR_ATOL, |P_0 P_1| 0.86.
    @example(seed=2169, d=2, k=2, scale=0.7627219843226404)
    # One product, two roundings: |P_0 P_1| is 1.0000001 PROJECTOR_ATOL from a 2x2 ``@``
    # and 0.99999999 from the batched Gram product.
    @example(seed=57, d=2, k=2, scale=0.5350385368693678)
    def test_one_verdict_and_message(self, seed, d, k, scale):
        outcomes = _edge_outcomes(seed, d, k, scale)
        wire = _wire(d, outcomes)
        exact = _wire(d, _measurement(np.eye(d, dtype=complex), k))
        payload = {"x1": wire, "y1": exact, "x2": exact, "y2": exact}
        messages = []
        for decode in (lambda: Observable(d, tuple(outcomes)), lambda: observable_from_dict(wire),
                       lambda: scenario_from_dict(payload)):
            try:
                decode()
            except ValueError as exc:
                messages.append(str(exc))
            else:
                messages.append(None)
        assert messages[1:] == messages[:1] * 2
        stack = np.array([proj for _, proj in outcomes])
        assert _projective(stack[None]) == (messages[0] is None)


class TestJsonCodecs:
    def test_pure_state_round_trip(self, rng):
        state = random_state(rng, 2, 3)
        recovered = state_from_dict(state_to_dict(state))
        assert recovered.dims == state.dims
        assert recovered.kind == state.kind
        assert np.array_equal(recovered.data, state.data)

    def test_density_state_round_trip(self):
        state = werner_state(0.6)
        recovered = state_from_dict(state_to_dict(state))
        assert np.max(np.abs(recovered.data - state.data)) < 1e-15

    def test_observable_round_trip(self, rng):
        obs = random_observable(rng, 3, (-1.0, 0.0, 1.0))
        recovered = observable_from_dict(observable_to_dict(obs))
        assert recovered.labels == obs.labels
        for label in obs.labels:
            assert np.array_equal(recovered.projector(label), obs.projector(label))

    test_malformed_complex_pair_rejected = ErrorRows()
    test_malformed_dims_rejected = ErrorRows()
    test_malformed_input_raises_one_error_type = ErrorRows()
    test_non_integral_observable_dim_rejected = ErrorRows()

    def test_bloch_shorthand(self):
        obs = observable_from_dict({"bloch": {"theta": pi / 2, "phi": 0.0}})
        direct = spin_observable(BlochDirection(pi / 2, 0.0))
        for label in (1.0, -1.0):
            assert np.allclose(obs.projector(label), direct.projector(label), atol=0)
