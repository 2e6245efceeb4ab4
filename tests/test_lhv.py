"""Local-model layer: measures, strategy enumeration, facet feasibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reference_mixing_witness
from hardykit import (
    DeterministicStrategy,
    FiniteMeasure,
    QVector,
    enumerate_strategies,
    generalized_expression,
    lhv_feasible,
    proof_step_inequalities,
    set_expression,
    strategy_matrix,
    vertex_expression_value,
    vertex_table,
    vertex_table_csv,
)
from hardykit.lhv import FEASIBILITY_TOL
from test_errors import ErrorRows

# The local polytope's facets besides 0 <= q_i <= 1, as a . q <= b over
# (q1, ..., q6); the dichotomic polytope keeps the first four coefficients.
FACETS = (
    ((-1, -1, -1, 1, -1, -1), 0),
    ((1, 1, 1, -1, 1, 1), 1),
    ((1, 1, 0, 0, 1, 0), 1),
    ((1, 0, 1, 0, 0, 1), 1),
)


def affine_rank(points) -> int:
    """Dimension of the affine hull of a set of small integer points."""
    points = np.asarray(points)
    return int(np.linalg.matrix_rank(points[1:] - points[0]))


def measure(weights, a, b, c, d) -> FiniteMeasure:
    return FiniteMeasure(
        np.asarray(weights, dtype=float),
        np.asarray(a, dtype=bool),
        np.asarray(b, dtype=bool),
        np.asarray(c, dtype=bool),
        np.asarray(d, dtype=bool),
    )


class TestSetExpression:
    def test_single_atom_in_all_subsets(self):
        m = measure([1.0], [1], [1], [1], [1])
        # 1 + 1 - 1 + 1 - 1 - 1 = 0
        assert set_expression(m) == pytest.approx(0.0, abs=0)

    def test_single_atom_in_a_and_b_only(self):
        m = measure([1.0], [1], [1], [0], [0])
        assert set_expression(m) == pytest.approx(1.0, abs=0)

    def test_four_uniform_atoms(self):
        # Atoms in A&B, B&C, A&D, C&D respectively; term by term the value is
        # 1/4 + 1/2 - 1/4 + 1/2 - 1/4 - 1/4 = 1/2.
        m = measure(
            [0.25, 0.25, 0.25, 0.25],
            a=[1, 0, 1, 0],
            b=[1, 1, 0, 0],
            c=[0, 1, 0, 1],
            d=[0, 0, 1, 1],
        )
        assert m.mu(m.a & m.b) == pytest.approx(0.25)
        assert m.mu(m.c) == pytest.approx(0.5)
        assert m.mu(m.b & m.c) == pytest.approx(0.25)
        assert m.mu(m.d) == pytest.approx(0.5)
        assert m.mu(m.a & m.d) == pytest.approx(0.25)
        assert m.mu(m.c & m.d) == pytest.approx(0.25)
        assert set_expression(m) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=400)
    @given(data=st.data())
    def test_bounds_on_random_measures(self, data):
        n = data.draw(st.integers(min_value=1, max_value=16))
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        total = sum(raw)
        assume(total > 1e-9)
        weights = np.asarray(raw) / total
        masks = [
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(4)
        ]
        m = measure(weights, *masks)
        value = set_expression(m)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @settings(max_examples=400)
    @given(data=st.data())
    def test_proof_steps_hold_on_random_measures(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        total = sum(raw)
        assume(total > 1e-9)
        weights = np.asarray(raw) / total
        masks = [
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(4)
        ]
        assert proof_step_inequalities(measure(weights, *masks)) == (True, True)

    def test_proof_steps_on_disjoint_subsets(self):
        m = measure(
            [0.25, 0.25, 0.25, 0.25],
            a=[1, 0, 0, 0],
            b=[0, 1, 0, 0],
            c=[0, 0, 1, 0],
            d=[0, 0, 0, 1],
        )
        assert proof_step_inequalities(m) == (True, True)

    test_malformed_measures_rejected = ErrorRows()

    def test_masks_take_python_and_numpy_booleans(self):
        m = FiniteMeasure([0.5, 0.5], [np.True_, False], np.array([False, True]),
                          (True, True), np.array([np.False_, np.False_], dtype=object))
        masks = (m.a, m.b, m.c, m.d)
        assert [mask.tolist() for mask in masks] == [
            [True, False], [False, True], [True, True], [False, False]]
        assert all(mask.dtype == bool and not mask.flags.writeable for mask in masks)
        assert set_expression(m) == 0.5


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_strategies(False)) == 16
        assert len(enumerate_strategies(True)) == 36

    def test_no_duplicates(self):
        for trichotomic in (False, True):
            strategies = enumerate_strategies(trichotomic)
            assert len(set(strategies)) == len(strategies)

    def test_canonical_order_endpoints(self):
        dichotomic = enumerate_strategies(False)
        assert dichotomic[0] == DeterministicStrategy(-1, -1, False, False)
        assert dichotomic[-1] == DeterministicStrategy(1, 1, True, True)
        trichotomic = enumerate_strategies(True)
        assert trichotomic[0] == DeterministicStrategy(-1, -1, False, False)
        assert trichotomic[4] == DeterministicStrategy(-1, 0, False, False)
        assert trichotomic[-1] == DeterministicStrategy(1, 1, True, True)

    test_outcome_validation = ErrorRows()


class TestVertexValues:
    def test_example_vertices(self):
        assert vertex_expression_value(DeterministicStrategy(1, 1, True, True)) == 0
        assert vertex_expression_value(DeterministicStrategy(1, 1, False, False)) == 1

    def test_all_vertices_in_unit_set(self):
        # Exhaustive check, exact integer arithmetic: this is the mechanical
        # proof that every mixture stays inside [0, 1].
        for trichotomic in (False, True):
            for strategy in enumerate_strategies(trichotomic):
                value = vertex_expression_value(strategy)
                assert isinstance(value, int)
                assert value in (0, 1)

    def test_vertex_values_match_generalized_expression(self):
        for trichotomic in (False, True):
            for strategy in enumerate_strategies(trichotomic):
                q = QVector(*strategy.q_components(trichotomic))
                assert vertex_expression_value(strategy) == pytest.approx(
                    generalized_expression(q), abs=0
                )

    def test_table_and_csv(self):
        table = vertex_table(False)
        assert len(table) == 16
        csv = vertex_table_csv(True)
        lines = csv.split("\n")
        assert lines[0] == "x1,x2,y1,y2,value"
        assert len(lines) == 38  # header + 36 rows + trailing newline
        assert "\r" not in csv


class TestFacets:
    @pytest.mark.parametrize("trichotomic", [False, True])
    def test_every_vertex_satisfies_each_facet_and_each_is_tight(self, trichotomic):
        # Exhaustive: in integer arithmetic every vertex, and so every mixture,
        # satisfies each inequality, and each is tight on dim affinely
        # independent vertices, so it is a facet.
        vertices = [s.q_components(trichotomic) for s in enumerate_strategies(trichotomic)]
        dim = len(vertices[0])
        assert affine_rank(vertices) == dim
        for coefficients, bound in FACETS:
            values = [sum(a * v for a, v in zip(coefficients, vertex)) for vertex in vertices]
            assert max(values) <= bound
            tight = [vertex for vertex, value in zip(vertices, values) if value == bound]
            assert affine_rank(tight) == dim - 1

    @settings(max_examples=500)
    @given(
        q=st.one_of(
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
            st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        ),
        snap=st.booleans(),
    )
    def test_verdict_is_certified(self, q, snap):
        if snap:
            q = [round(4.0 * v) / 4.0 for v in q]
        result = lhv_feasible(q)
        violation = max(0.0, *(float(np.dot(a[: len(q)], q)) - b for a, b in FACETS))
        assert result.residual == pytest.approx(violation, abs=1e-15)
        if not result.feasible:
            assert result.residual > FEASIBILITY_TOL
            return
        assert result.residual <= FEASIBILITY_TOL
        assert np.all(np.asarray(result.witness) >= 0.0)
        assert abs(np.sum(result.witness) - 1.0) <= 1e-12
        # A q at most FEASIBILITY_TOL outside still counts as feasible; clipping
        # its witness to nonnegative weights moves it by a few residuals.
        reproduced = strategy_matrix(len(q) == 6) @ result.witness
        assert np.max(np.abs(reproduced - q)) <= 1e-12 + 8.0 * result.residual


@st.composite
def feasible_q(draw) -> list[float]:
    """A q of either arity, mostly inside the local polytope or within ``FEASIBILITY_TOL``.

    A mixture of strategies, each component kept, nudged by roundoff (which
    makes some raw weights negative, so that they are clipped) or replaced by
    0.0 or -0.0.
    """
    columns = strategy_matrix(draw(st.booleans()))
    # A few strategies, so that q often lies on a face of the polytope.
    mass = np.zeros(columns.shape[1])
    weights = st.sampled_from((0.25, 1.0)) | st.floats(0.0, 1.0)
    for index, weight in draw(st.lists(st.tuples(st.integers(0, len(mass) - 1), weights),
                                       min_size=1, max_size=6)):
        mass[index] += weight
    assume(mass.sum() > 0.0)
    edits = st.sampled_from((0.0, 0.0, 1e-16, -1e-16, 3e-11, -3e-11, 5e-10, -5e-10,
                             "0.0", "-0.0"))
    q = []
    for value in columns @ (mass / mass.sum()):
        edit = draw(edits)
        q.append(float(edit) if isinstance(edit, str) else float(value) + edit)
    return q


class TestWitnessMatchesNumpyOracle:
    @settings(max_examples=400)
    @given(q=feasible_q())
    def test_weights_are_bitwise_equal(self, q):
        assume(min(q) >= -1e-10 and max(q) <= 1.0 + 1e-10)
        result = lhv_feasible(q)
        assume(result.feasible)
        assert type(result.witness) is tuple
        expected = reference_mixing_witness(QVector(*q).components())
        assert [w.hex() for w in result.witness] == [float(w).hex() for w in expected]


class TestFeasibility:
    def test_hardy_point_is_infeasible(self):
        result = lhv_feasible((0.0, 0.0, 0.0, 0.05))
        assert not result.feasible
        assert result.witness is None
        assert result.residual > 1e-3

    def test_flat_point_is_feasible_and_uniform_mixture_works(self):
        q = (0.25, 0.25, 0.25, 0.25)
        result = lhv_feasible(q)
        assert result.feasible
        columns = strategy_matrix(False)
        # The returned witness reproduces q ...
        assert np.max(np.abs(columns @ result.witness - np.asarray(q))) < 1e-9
        assert abs(np.sum(result.witness) - 1.0) < 1e-9
        assert np.all(np.asarray(result.witness) >= 0.0)
        # ... and the uniform mixture is itself a valid witness.
        uniform = np.full(16, 1.0 / 16.0)
        assert np.max(np.abs(columns @ uniform - np.asarray(q))) < 1e-15

    def test_zero_vector_is_feasible(self):
        result = lhv_feasible((0.0, 0.0, 0.0, 0.0))
        assert result.feasible
        # Roundoff-scale overshoot is clamped, not rejected.
        assert lhv_feasible((0.0, 0.0, 0.0, -1e-12)).feasible
        # The all-minus strategy with neither y-event firing realizes it alone.
        quiet = DeterministicStrategy(-1, -1, False, False)
        assert quiet.q_components() == (0, 0, 0, 0)

    def test_residual_at_tol_is_feasible(self):
        result = lhv_feasible((0.0, 0.0, 0.0, 1e-9))
        assert result.feasible and result.residual == FEASIBILITY_TOL

    def test_contradictory_corners_are_infeasible(self):
        assert not lhv_feasible((1.0, 1.0, 1.0, 1.0)).feasible
        assert not lhv_feasible((0.0, 0.0, 0.0, 1.0)).feasible
        assert lhv_feasible((1.0, 0.0, 0.0, 0.0)).feasible

    def test_random_mixtures_are_feasible_with_reproducing_witness(self, rng):
        for trichotomic in (False, True):
            columns = strategy_matrix(trichotomic)
            count = columns.shape[1]
            for _ in range(60):
                target = columns @ rng.dirichlet(np.ones(count))
                result = lhv_feasible(target)
                assert result.feasible
                assert np.max(np.abs(columns @ result.witness - target)) < 1e-9
                assert abs(np.sum(result.witness) - 1.0) < 1e-9

    def test_generalized_value_outside_unit_interval_implies_infeasible(self, rng):
        checked = 0
        while checked < 300:
            if checked % 3 == 2:
                components = rng.random(6)
                gen = components[:3].sum() + components[4:].sum() - components[3]
            else:
                components = rng.random(4)
                gen = components[0] + components[1] + components[2] - components[3]
            if -1e-9 <= gen <= 1.0 + 1e-9:
                continue
            assert not lhv_feasible(components).feasible
            checked += 1

    def test_convex_combinations_of_feasible_points(self, rng):
        columns = strategy_matrix(False)
        for _ in range(40):
            first = columns @ rng.dirichlet(np.ones(16))
            second = columns @ rng.dirichlet(np.ones(16))
            weight = rng.random()
            mix = weight * first + (1.0 - weight) * second
            assert lhv_feasible(mix).feasible

    def test_accepts_qvector_instances(self):
        result = lhv_feasible(QVector(0.25, 0.25, 0.25, 0.25))
        assert result.feasible

    test_component_validation = ErrorRows()

    def test_result_serialization(self):
        payload = lhv_feasible((0.0, 0.0, 0.0, 0.05)).to_dict()
        assert payload["feasible"] is False
        assert payload["witness"] is None
        assert payload["residual"] > 0.0
        payload = lhv_feasible((0.25, 0.25, 0.25, 0.25)).to_dict()
        assert payload["feasible"] is True
        assert len(payload["witness"]) == 16
