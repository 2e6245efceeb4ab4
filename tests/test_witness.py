"""Witness layer: q-vector extraction, both expressions, classification rules."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading
import weakref
from functools import partial
from math import cos, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_density_state,
    random_observable,
    random_pure_state,
    random_scenario,
    random_state,
    random_y_labels,
    reference_scenario_from_dict,
)
from hardykit import (
    BlochDirection,
    DimensionMismatch,
    InvalidQVector,
    Observable,
    QVector,
    QuantumState,
    Scenario,
    ch_expression,
    classify,
    generalized_expression,
    hardy_observables,
    lhv_feasible,
    maximally_mixed,
    observable_to_dict,
    optimize_violation,
    planar_scenario,
    q_vector,
    scenario_from_dict,
    scenario_to_dict,
    singlet,
    spin_observable,
    werner_sweep,
    witness_report,
)
from hardykit import qcore, search, witness
from hardykit.cli import main
from hardykit.lhv import QVECTOR_ATOL
from hardykit.qcore import _trusted
from hardykit.search import SchmidtState
from hardykit.witness import _q_from_table
from test_errors import ErrorRows

REFERENCE_ANGLES = (0.0, pi / 2, 3 * pi / 4, pi / 4)  # (x1, y1, x2, y2)
UPPER_TARGET = 0.5 * (1.0 + sqrt(2.0))


def reference_scenario() -> Scenario:
    return planar_scenario(*REFERENCE_ANGLES, plane="xy")


class TestQVectorType:
    def test_components_clamped(self):
        q = QVector(-5e-11, 0.2, 1.0 + 5e-11, 0.3)
        assert q.q1 == 0.0
        assert q.q3 == 1.0

    test_out_of_range_rejected = ErrorRows()
    test_out_of_range_raises_one_error_type = ErrorRows()

    @pytest.mark.parametrize(
        "table",
        [
            [[0.2, 0.0, 0.0], [0.0, 0.3, 0.1], [0.0, 0.4, 0.0]],
            [[-5e-11, 0.0, 0.0], [0.0, 1.0 + 5e-11, 0.1], [0.0, 0.4, 0.0]],
            [[0.2, 0.0, 0.0, 0.0], [0.0, 0.3, 0.1, -4e-11], [0.0, 0.4, 0.0, 0.0],
             [0.0, 0.25, 0.0, 0.0]],
            # The edges of the range check, and a signed zero.
            [[-QVECTOR_ATOL, 0.0, 0.0], [0.0, 1.0 + QVECTOR_ATOL, 0.1], [0.0, 0.4, 0.0]],
            [[-0.0, 0.0, 0.0], [0.0, 0.5, -0.0], [0.0, -0.0, 0.0]],
            [[0.2, 0.0, 0.0, 0.0], [0.0, 0.3, 0.1, -0.0], [0.0, 0.4, 0.0, 0.0],
             [0.0, 1.0 + QVECTOR_ATOL, 0.0, 0.0]],
            # Six entries, only q6 out of range.
            [[0.2, 0.0, 0.0, 0.0], [0.0, 0.3, 0.1, 0.1], [0.0, 0.4, 0.0, 0.0],
             [0.0, 1.0 + 2 * QVECTOR_ATOL, 0.0, 0.0]],
        ],
    )
    def test_table_reading_matches_public_constructor(self, table):
        # q_vector and witness_report check the entries once and skip QVector's
        # own validation; the result, bit for bit, or the error must be what
        # the public constructor gives.
        entries = [table[0][0], table[1][2], table[2][1], table[1][1]]
        if len(table) == 4:
            entries += [table[1][3], table[3][1]]

        def outcome(build, *args):
            try:
                q = build(*args)
            except InvalidQVector as error:
                return str(error)
            return [repr(component) for component in q.components()]

        assert outcome(_q_from_table, table) == outcome(QVector, *entries)

    @pytest.mark.parametrize("row, column", [(0, 0), (1, 2), (2, 1), (1, 1), (1, 3), (3, 1)])
    @pytest.mark.parametrize("bad", [-2e-10, 1.0 + 2e-10, float("nan")])
    def test_table_entry_out_of_range_is_rejected(self, row, column, bad):
        table = [[0.1] * 4 for _ in range(4)]
        table[row][column] = bad
        with pytest.raises(InvalidQVector, match="outside"):
            _q_from_table(table)

    test_q5_q6_must_come_together = ErrorRows()

    def test_trichotomic_flag(self):
        assert not QVector(0.1, 0.1, 0.1, 0.1).trichotomic
        assert QVector(0.1, 0.1, 0.1, 0.1, 0.1, 0.1).trichotomic


class TestScenarioType:
    test_x_labels_must_be_standard = ErrorRows()
    test_x_arities_must_agree = ErrorRows()
    test_y_must_contain_plus_one = ErrorRows()
    test_sides_must_share_a_dimension = ErrorRows()

    def test_json_round_trip(self, rng):
        scenario = random_scenario(rng, 3, 3, trichotomic=True)
        recovered = scenario_from_dict(scenario_to_dict(scenario))
        for name in ("x1", "y1", "x2", "y2"):
            original = getattr(scenario, name)
            parsed = getattr(recovered, name)
            assert parsed.labels == original.labels
            for label in original.labels:
                assert np.array_equal(parsed.projector(label), original.projector(label))


def _fresh_side(x, y, trichotomic: bool) -> np.ndarray:
    """One side's stack, read label by label off its observables: x = +1, y = +1, x = -1 (x = 0)."""
    labels = ((x, 1.0), (y, 1.0), (x, -1.0), (x, 0.0))[: 4 if trichotomic else 3]
    return np.array([obs.projector(label) for obs, label in labels])


class TestStoredSides:
    """Each scenario stacks its side projectors once; the kernel reads only those stacks."""

    @staticmethod
    def assert_sides_are_fresh_stacks(scenario: Scenario) -> None:
        pairs = ((scenario.x1, scenario.y1), (scenario.x2, scenario.y2))
        assert len(scenario._sides) == 2
        for stored, (x, y) in zip(scenario._sides, pairs):
            assert not stored.flags.writeable
            fresh = _fresh_side(x, y, scenario.trichotomic)
            assert stored.shape == fresh.shape
            # Bit for bit, signed zeros included.
            assert stored.tobytes() == fresh.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from((2, 3)),
        trichotomic=st.booleans(),
    )
    def test_validated_scenarios(self, seed, dim, trichotomic):
        scenario = random_scenario(np.random.default_rng(seed), dim, dim, trichotomic)
        assert scenario.trichotomic == trichotomic
        assert len(scenario._sides[0]) == len(scenario._sides[1]) == (4 if trichotomic else 3)
        self.assert_sides_are_fresh_stacks(scenario)

    @given(
        angles=st.lists(
            st.floats(-2.0 * pi, 2.0 * pi, allow_nan=False), min_size=4, max_size=4
        ),
        plane=st.sampled_from(("xy", "xz")),
    )
    def test_planar_scenarios(self, angles, plane):
        scenario = planar_scenario(*angles, plane=plane)
        assert not scenario.trichotomic
        self.assert_sides_are_fresh_stacks(scenario)

    def test_sides_stay_out_of_repr(self):
        assert "_sides" not in repr(reference_scenario())


_NAMES = ("x1", "y1", "x2", "y2")
# Faults met while reading the wire form, in the projector arrays, and in the
# labels (the last three break a Scenario rule).
_DECODER_FAULTS = (
    "missing_key",
    "missing_observable",
    "not_object",
    "dim_zero",
    "label_string",
    "bad_pair",
    "wrong_size",
    "nan",
    "not_hermitian",
    "not_idempotent",
    "not_orthogonal",
    "incomplete",
    "duplicate_label",
    "x_arity",
    "y_without_plus_one",
)


def _wire_scenario(rng, dims, trichotomic: bool, bloch) -> dict:
    """A scenario payload with observables of the given dimensions (x1, y1, x2, y2).

    Flagged qubit observables use the ``bloch`` shorthand (dichotomic x only);
    the others are random measurements with their outcomes in random order.
    """
    payload = {}
    for name, d, shorthand in zip(_NAMES, dims, bloch):
        x = name.startswith("x")
        if shorthand and d == 2 and not (x and trichotomic):
            angles = {"theta": float(rng.uniform(0.0, pi)), "phi": float(rng.uniform(0.0, 2 * pi))}
            payload[name] = {"bloch": angles}
            continue
        if x:
            labels = (-1.0, 0.0, 1.0) if trichotomic else (-1.0, 1.0)
        else:
            labels = random_y_labels(rng, d)
        labels = tuple(float(v) for v in rng.permutation(labels))
        payload[name] = observable_to_dict(random_observable(rng, d, labels))
    return payload


def _inject(rng, payload: dict, fault: str) -> None:
    """Put ``fault`` into a random observable of ``payload``, in place."""
    name = _NAMES[int(rng.integers(4))]
    if fault == "missing_observable":
        payload.pop(name, None)
        return
    if fault == "not_object":
        if name in payload:
            payload[name] = (5, None, "x1", [])[int(rng.integers(4))]
        return
    obs = payload.get(name)
    if not isinstance(obs, dict):
        return
    if "bloch" in obs:
        # Any fault in a shorthand entry is in its angles.
        angles = obs["bloch"]
        choice = int(rng.integers(3))
        if choice == 0:
            angles["theta"] = 4.0
        elif choice == 1:
            angles["phi"] = "0"
        else:
            angles.pop("phi", None)
        return
    if fault == "dim_zero":
        obs["dim"] = 0
        return
    outcomes = obs.get("outcomes")
    if not outcomes:
        return
    a = int(rng.integers(len(outcomes)))
    b = (a + 1) % len(outcomes)
    entry = outcomes[a]
    if "projector" not in entry or "label" not in entry:
        return
    matrix = entry["projector"]
    d = int(round(np.sqrt(len(matrix))))
    if fault == "missing_key":
        choice = int(rng.integers(3))
        if choice == 0:
            del obs["outcomes"]
        elif choice == 1:
            # A second fault may pick the same observable.
            obs.pop("dim", None)
        else:
            del entry["label"]
    elif fault == "label_string":
        entry["label"] = str(entry["label"])
    elif fault == "bad_pair":
        matrix[int(rng.integers(len(matrix)))] = [1.0]
    elif fault == "wrong_size":
        entry["projector"] = matrix[:-1]
    elif fault == "nan":
        matrix[int(rng.integers(len(matrix)))] = [float("nan"), 0.0]
    elif fault == "not_hermitian":
        # Keep the entry's length: an earlier bad_pair may have cut it to one number.
        matrix[1] = [matrix[1][0] + 1e-3, *matrix[1][1:]]
    elif fault == "not_idempotent":
        entry["projector"] = [[1.01 * v for v in pair] for pair in matrix]
    elif fault == "not_orthogonal":
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        u /= np.linalg.norm(u)
        entry["projector"] = [[z.real, z.imag] for z in np.outer(u, u.conj()).reshape(-1)]
    elif fault == "incomplete":
        entry["projector"] = [[0.0, 0.0]] * (d * d)
    elif fault == "duplicate_label":
        entry["label"] = outcomes[b].get("label")
    elif fault == "x_arity":
        entry["label"] = 2.0
    elif fault == "y_without_plus_one":
        for other in outcomes:
            if other.get("label") == 1.0:
                other["label"] = 5.0


_QUBITS = (2, 2, 2, 2)


def _z_basis(one, zero, minus_one):
    """Replace x1 by the z measurement, written with the given numbers for 1, 0 and -1."""
    def edit(payload):
        up = [[one, zero], [zero, zero], [zero, zero], [zero, zero]]
        down = [[zero, zero], [zero, zero], [zero, zero], [one, zero]]
        payload["x1"] = {"dim": 2 * one, "outcomes": [
            {"label": one, "projector": up}, {"label": minus_one, "projector": down},
        ]}
    return edit


def _pair(pair):
    """Put ``pair`` in place of the first entry of x1's first projector."""
    return lambda payload: payload["x1"]["outcomes"][0]["projector"].__setitem__(0, pair)


def _label(label):
    """Set x1's first label to ``label``; None copies its second label."""
    def edit(payload):
        first, second = payload["x1"]["outcomes"][:2]
        first["label"] = second["label"] if label is None else label
    return edit


def _assert_decodes_like_oracle(payload: dict) -> None:
    """scenario_from_dict accepts, builds and rejects exactly as the sequential oracle."""
    try:
        expected = reference_scenario_from_dict(copy.deepcopy(payload))
    except Exception as exc:  # noqa: BLE001 - any fault the oracle meets first
        with pytest.raises(Exception) as info:
            scenario_from_dict(payload)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    scenario = scenario_from_dict(payload)
    for name in _NAMES:
        got, want = getattr(scenario, name), getattr(expected, name)
        assert got.dim == want.dim
        assert got.labels == want.labels
        for (_, mine), (_, theirs) in zip(got.outcomes, want.outcomes):
            assert mine.tobytes() == theirs.tobytes()
            assert not mine.flags.writeable
    for mine, theirs in zip(scenario._sides, expected._sides):
        assert mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable


class TestScenarioDecoderMatchesOracle:
    """The batched decoder against the observable-by-observable one it replaced."""

    @settings(max_examples=400)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sides=st.sampled_from(((2, 2), (3, 3), (2, 3), (3, 2))),
        mixed_side=st.sampled_from((None, None, 0, 1)),
        trichotomic=st.booleans(),
        bloch=st.lists(st.booleans(), min_size=4, max_size=4),
        faults=st.lists(st.sampled_from(_DECODER_FAULTS), max_size=2),
    )
    def test_same_scenario_or_same_error(
        self, seed, sides, mixed_side, trichotomic, bloch, faults
    ):
        rng = np.random.default_rng(seed)
        dims = [sides[0], sides[0], sides[1], sides[1]]
        if mixed_side is not None:
            # y of one side in the other dimension: a Scenario fault, checked last.
            dims[2 * mixed_side + 1] = 5 - dims[2 * mixed_side + 1]
        payload = _wire_scenario(rng, dims, trichotomic, bloch)
        for fault in faults:
            _inject(rng, payload, fault)
        _assert_decodes_like_oracle(payload)

    def test_array_fault_in_x1_comes_before_wire_fault_in_y1(self):
        payload = _wire_scenario(np.random.default_rng(7), (2, 2, 3, 3), True, [False] * 4)
        x1 = payload["x1"]["outcomes"][0]
        x1["projector"] = [[1.01 * re, 1.01 * im] for re, im in x1["projector"]]
        del payload["y1"]["outcomes"]
        with pytest.raises(ValueError, match="is not idempotent"):
            scenario_from_dict(payload)
        _assert_decodes_like_oracle(payload)

    @pytest.mark.parametrize(
        "fault, message",
        [("not_orthogonal", "not orthogonal"), ("wire", "projector entries")],
    )
    def test_fault_in_y2_after_valid_x1_to_x2(self, fault, message):
        rng = np.random.default_rng(11)
        payload = _wire_scenario(rng, (3, 3, 3, 3), False, [False] * 4)
        outcomes = payload["y2"]["outcomes"]
        if fault == "wire":
            outcomes[-1]["projector"][0] = [1.0, 0.0, 0.0]
        else:
            u = np.ones(3) / np.sqrt(3.0)
            outcomes[0]["projector"] = [[v, 0.0] for v in np.outer(u, u).reshape(-1)]
        with pytest.raises(ValueError, match=message):
            scenario_from_dict(payload)
        _assert_decodes_like_oracle(payload)

    def test_bloch_and_mixed_dimensions_decode_like_oracle(self):
        rng = np.random.default_rng(3)
        _assert_decodes_like_oracle(_wire_scenario(rng, (2, 2, 3, 3), False, [True, False] * 2))
        _assert_decodes_like_oracle(_wire_scenario(rng, (2, 2, 2, 2), False, [True] * 4))

    @pytest.mark.parametrize(
        "dims, bloch, edit, message",
        [
            pytest.param(*row[1:], id=row[0])
            for row in (
                ("dim-integral-float", _QUBITS, None, lambda payload: payload["x1"].update(dim=2.0),
                 None),
                ("pair-int-entries", _QUBITS, None, _z_basis(1, 0, -1), None),
                ("pair-negative-zero", _QUBITS, None, _z_basis(1.0, -0.0, -1.0), None),
                ("pair-true", _QUBITS, None, _pair([True, 0.0]), "pairs of numbers"),
                ("pair-numeric-string", _QUBITS, None, _pair(["0.5", 0.0]), "pairs of numbers"),
                ("pair-null", _QUBITS, None, _pair([0.5, None]), "pairs of numbers"),
                ("pair-length-1", _QUBITS, None, _pair([0.5]), "pairs of numbers"),
                ("pair-length-3", _QUBITS, None, _pair([0.5, 0.0, 0.0]), "pairs of numbers"),
                ("pair-two-character-string", _QUBITS, None, _pair("10"), "pairs of numbers"),
                ("pair-two-key-object", _QUBITS, None, _pair({"re": 0.5, "im": 0.0}),
                 "pairs of numbers"),
                ("entry-huge-integer", _QUBITS, None, _pair([10**400, 0]), "pairs of numbers"),
                ("entry-infinity", _QUBITS, None, _pair([float("inf"), 0.0]), "non-finite"),
                ("label-nan", _QUBITS, None, _label(float("nan")), "must be finite"),
                ("label-duplicate", _QUBITS, None, _label(None), "must be distinct"),
                ("sides-2-3", (2, 2, 3, 3), None, None, None),
                ("bloch-beside-explicit", _QUBITS, [False, True, False, False], None, None),
            )
        ],
    )
    def test_edge_row_decodes_like_oracle(self, dims, bloch, edit, message):
        payload = _wire_scenario(np.random.default_rng(13), dims, False, bloch or [False] * 4)
        if edit is not None:
            edit(payload)
        _assert_decodes_like_oracle(payload)
        if message is not None:
            with pytest.raises(ValueError, match=message):
                scenario_from_dict(payload)
            return
        scenario = scenario_from_dict(payload)
        for name in _NAMES:
            for _, projector in getattr(scenario, name).outcomes:
                with pytest.raises(ValueError, match="read-only"):
                    projector[0, 0] = 0.5


class TestOnePassTraffic:
    """Certify's shape, four explicit observables of one dimension, takes the one pass;
    every other payload is decoded again observable by observable, like the oracle."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        """The entries ``observable_from_dict`` decodes, in order."""
        entries, decode = [], witness.observable_from_dict
        monkeypatch.setattr(
            witness, "observable_from_dict", lambda entry: entries.append(entry) or decode(entry)
        )
        return entries

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("x_labels", ((1.0, -1.0), (1.0, 0.0, -1.0)))
    @pytest.mark.parametrize("y_labels", ((1.0, -1.0), (1.0, 0.5, -3.0)))
    def test_certify_shape_takes_the_one_pass(self, decoded, d, x_labels, y_labels):
        rng = np.random.default_rng(17)
        payload = {
            name: observable_to_dict(
                random_observable(rng, d, x_labels if name.startswith("x") else y_labels)
            )
            for name in _NAMES
        }
        _assert_decodes_like_oracle(payload)
        assert decoded == []

    @pytest.mark.parametrize(
        "dims, bloch, edit",
        [
            pytest.param(_QUBITS, [True, False, False, False], None, id="bloch"),
            pytest.param((2, 2, 3, 3), [False] * 4, None, id="mixed-dimensions"),
            pytest.param(_QUBITS, [False] * 4, lambda payload: payload["y2"].update(dim=2.0),
                         id="float-dim"),
        ],
    )
    def test_other_shapes_decode_observable_by_observable(self, decoded, dims, bloch, edit):
        payload = _wire_scenario(np.random.default_rng(19), dims, False, bloch)
        if edit is not None:
            edit(payload)
        _assert_decodes_like_oracle(payload)
        assert decoded == [payload[name] for name in _NAMES]


class TestQVectorExtraction:
    def test_singlet_reference_configuration(self):
        q = q_vector(singlet(), reference_scenario())
        near = (2.0 + sqrt(2.0)) / 8.0
        far = (2.0 - sqrt(2.0)) / 8.0
        assert q.q1 == pytest.approx(near, abs=1e-12)
        assert q.q2 == pytest.approx(near, abs=1e-12)
        assert q.q3 == pytest.approx(near, abs=1e-12)
        assert q.q4 == pytest.approx(far, abs=1e-12)

    def test_singlet_reference_against_analytic_rule(self):
        # Independent oracle: each component from the planar singlet rule
        # P(equal) = (1 - cos d)/4, P(opposite) = (1 + cos d)/4.
        x1, y1, x2, y2 = REFERENCE_ANGLES
        q = q_vector(singlet(), reference_scenario())
        assert q.q1 == pytest.approx((1 - cos(x1 - x2)) / 4, abs=1e-12)
        assert q.q2 == pytest.approx((1 + cos(y1 - x2)) / 4, abs=1e-12)
        assert q.q3 == pytest.approx((1 + cos(x1 - y2)) / 4, abs=1e-12)
        assert q.q4 == pytest.approx((1 - cos(y1 - y2)) / 4, abs=1e-12)

    def test_maximally_mixed_is_flat(self, rng):
        scenario = random_scenario(rng)
        q = q_vector(maximally_mixed(2, 2), scenario)
        for component in q.components():
            assert component == pytest.approx(0.25, abs=1e-12)

    def test_trichotomic_vector_has_six_components(self, rng):
        scenario = random_scenario(rng, 3, 3, trichotomic=True)
        q = q_vector(random_state(rng, 3, 3), scenario)
        assert q.trichotomic
        assert len(q.components()) == 6

    test_dimension_mismatch = ErrorRows()


class TestGeneralizedExpression:
    def test_pure_hardy_pattern(self):
        assert generalized_expression(QVector(0.0, 0.0, 0.0, 0.05)) == pytest.approx(-0.05)

    def test_singlet_closed_form(self):
        near = (2.0 + sqrt(2.0)) / 8.0
        far = (2.0 - sqrt(2.0)) / 8.0
        value = generalized_expression(QVector(near, near, near, far))
        assert value == pytest.approx(UPPER_TARGET, abs=1e-12)

    def test_flat_vector(self):
        assert generalized_expression(QVector(0.25, 0.25, 0.25, 0.25)) == pytest.approx(0.5)

    def test_trichotomic_terms_enter(self):
        value = generalized_expression(QVector(0.1, 0.1, 0.1, 0.2, 0.05, 0.05))
        assert value == pytest.approx(0.2)


class TestChExpression:
    def test_singlet_reference_value(self):
        value = ch_expression(singlet(), reference_scenario())
        assert value == pytest.approx(UPPER_TARGET, abs=1e-12)

    def test_maximally_mixed_is_half(self, rng):
        scenario = random_scenario(rng)
        assert ch_expression(maximally_mixed(2, 2), scenario) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_z_configuration(self):
        z_obs = spin_observable(BlochDirection(0.0, 0.0))
        scenario = Scenario(x1=z_obs, y1=z_obs, x2=z_obs, y2=z_obs)
        state = QuantumState.pure([1.0, 0.0, 0.0, 0.0], (2, 2))
        # 1 - 1 - 1 - 1 + 1 + 1 = 0
        assert ch_expression(state, scenario) == pytest.approx(0.0, abs=1e-12)

    def test_agreement_with_generalized_expression(self, rng):
        # 300 randomized pairs here; the acceptance suite runs 1000.
        for index in range(300):
            trichotomic = index % 3 == 2
            if trichotomic:
                d1, d2 = (2, 3) if index % 2 else (3, 3)
            else:
                d1, d2 = (2, 2) if index % 2 else (2, 3)
            scenario = random_scenario(rng, d1, d2, trichotomic=trichotomic)
            state = random_state(rng, d1, d2)
            gen = generalized_expression(q_vector(state, scenario))
            ch = ch_expression(state, scenario)
            assert abs(gen - ch) < 1e-10

    def test_agreement_with_zero_rank_trichotomic_qubit(self, rng):
        # A qubit x-observable with spectrum {-1, 0, +1} carries one zero
        # projector; the identity must survive this degenerate case.
        scenario = random_scenario(rng, 2, 2, trichotomic=True)
        state = random_state(rng, 2, 2)
        gen = generalized_expression(q_vector(state, scenario))
        assert abs(gen - ch_expression(state, scenario)) < 1e-10


class TestClassify:
    def test_hardy_pattern(self):
        q = QVector(0.0, 0.0, 0.0, 0.09)
        assert classify(q, tol=1e-9) == "HardyViolation"

    def test_kunkri_pattern(self):
        q = QVector(0.01, 0.0, 0.0, 0.05)
        assert classify(q, tol=1e-9) == "KunkriViolation"

    def test_flat_vector_is_local(self):
        q = QVector(0.25, 0.25, 0.25, 0.25)
        assert classify(q, tol=1e-9) == "NoViolation"

    def test_bound_labels(self):
        q = QVector(0.4, 0.4, 0.4, 0.05)
        assert classify(q, tol=1e-9) == "UpperBoundViolation"
        q = QVector(0.0, 0.1, 0.0, 0.3)
        assert classify(q, tol=1e-9) == "LowerBoundViolation"

    @pytest.mark.parametrize(
        "components",
        [(9e-10, 9e-10, 9e-10, 2e-9), (3e-10, 0.0, 0.0, 1.2e-9)],
    )
    def test_pattern_within_tolerance_of_local_is_no_violation(self, components):
        # All zeros hold and q4 > tol, but the expression lies within tol of
        # the local range, where lhv_feasible finds a local model.
        q = QVector(*components)
        gen = generalized_expression(q)
        assert gen >= -1e-9
        assert classify(q, tol=1e-9) == "NoViolation"
        assert lhv_feasible(q).feasible

    @pytest.mark.parametrize("components, label", [
        # The local vertex with expression exactly 1, and expressions inside, at and past 1 + tol.
        ((1.0, 0.0, 0.0, 0.0), "NoViolation"),
        ((1.0, 0.5e-9, 0.0, 0.0), "NoViolation"),
        ((1.0, 1e-9, 0.0, 0.0), "NoViolation"),
        ((1.0, 2e-9, 0.0, 0.0), "UpperBoundViolation"),
    ], ids=["vertex-at-one", "half-tol-above-one", "tol-above-one", "two-tol-above-one"])
    def test_upper_edge(self, components, label):
        assert classify(QVector(*components), tol=1e-9) == label

    @pytest.mark.parametrize("components, label", [
        # One component exactly at tol, where each strict comparison is decided.
        ((0.0, 0.0, 0.0, 1e-9), "NoViolation"),
        ((1e-9, 0.0, 0.0, 0.5), "LowerBoundViolation"),
        ((0.0, 1e-9, 0.0, 0.5), "LowerBoundViolation"),
        ((0.0, 0.0, 1e-9, 0.5), "LowerBoundViolation"),
        ((0.0, 0.0, 0.0, 0.5, 1e-9, 0.0), "LowerBoundViolation"),
        ((0.0, 0.0, 0.0, 0.5, 0.0, 1e-9), "LowerBoundViolation"),
    ], ids=["expression-at-minus-tol", "q1-at-tol", "q2-at-tol", "q3-at-tol", "q5-at-tol",
            "q6-at-tol"])
    def test_component_at_tol(self, components, label):
        assert classify(QVector(*components), tol=1e-9) == label

    @pytest.mark.parametrize("q1, label", [
        # Computed, q4 - tol is q1 although q4 - q1 exceeds tol: q1 < q4 - tol fails.
        (0.5 - 1e-9, "LowerBoundViolation"),
        (0.5 - 0.5e-9, "NoViolation"),
    ], ids=["q4-minus-tol", "half-tol-below-q4"])
    def test_relaxed_pattern_needs_q1_below_q4_minus_tol(self, q1, label):
        q = QVector(q1, 0.0, 0.0, 0.5)
        assert q.q4 - q.q1 <= 1.0000001e-9
        assert classify(q, tol=1e-9) == label

    def test_trichotomic_zeros_must_vanish_for_hardy(self):
        q = QVector(0.0, 0.0, 0.0, 0.09, 0.02, 0.0)
        assert classify(q, tol=1e-9) != "HardyViolation"
        q = QVector(0.0, 0.0, 0.0, 0.09, 0.0, 0.0)
        assert classify(q, tol=1e-9) == "HardyViolation"

    test_tolerance_must_be_positive = ErrorRows()

    @given(q4=st.floats(min_value=1e-6, max_value=1.0))
    def test_hardy_condition_violates_lower_bound(self, q4):
        q = QVector(0.0, 0.0, 0.0, q4)
        gen = generalized_expression(q)
        assert classify(q, tol=1e-9) == "HardyViolation"
        assert gen < 0.0

    @given(
        q4=st.floats(min_value=1e-4, max_value=1.0),
        fraction=st.floats(min_value=0.01, max_value=0.97),
    )
    def test_kunkri_condition_violates_lower_bound(self, q4, fraction):
        q1 = fraction * q4
        if not 1e-9 < q1 < q4 - 1e-9:
            return
        q = QVector(q1, 0.0, 0.0, q4)
        gen = generalized_expression(q)
        assert classify(q, tol=1e-9) == "KunkriViolation"
        assert gen < 0.0

    @settings(max_examples=200)
    @given(data=st.data())
    def test_comfortable_no_violation_is_stable(self, data):
        # A NoViolation verdict at margin > tol must not flip under
        # perturbations smaller than tol / 10.
        tol = 1e-9
        q2 = data.draw(st.floats(min_value=100 * tol, max_value=0.2))
        q3 = data.draw(st.floats(min_value=100 * tol, max_value=0.2))
        q1 = data.draw(st.floats(min_value=0.0, max_value=0.2))
        q4 = data.draw(st.floats(min_value=0.0, max_value=min(q1 + q2 + q3 - 2 * tol, 1.0)))
        q = QVector(q1, q2, q3, q4)
        gen = generalized_expression(q)
        if not 2 * tol < gen < 1.0 - 2 * tol:
            return
        assert classify(q, tol=tol) == "NoViolation"
        deltas = [
            data.draw(st.floats(min_value=-tol / 10, max_value=tol / 10)) for _ in range(4)
        ]
        perturbed = QVector(
            min(max(q.q1 + deltas[0], 0.0), 1.0),
            min(max(q.q2 + deltas[1], 0.0), 1.0),
            min(max(q.q3 + deltas[2], 0.0), 1.0),
            min(max(q.q4 + deltas[3], 0.0), 1.0),
        )
        assert classify(perturbed, tol=tol) == "NoViolation"


class TestWitnessReport:
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from((2, 3)),
        pure=st.booleans(),
        trichotomic=st.booleans(),
    )
    def test_verdict_agrees_with_local_polytope(self, seed, dim, pure, trichotomic):
        # The paper's thesis as a check: a violation is reported exactly when
        # no local model reproduces q.
        rng = np.random.default_rng(seed)
        state = (random_pure_state if pure else random_density_state)(rng, dim, dim)
        scenario = random_scenario(rng, dim, dim, trichotomic)
        report = witness_report(state, scenario)
        violated = report.classification != "NoViolation"
        assert violated == (not lhv_feasible(report.qvec).feasible)

    def test_matches_standalone_functions(self, rng):
        cases = [(singlet(), reference_scenario())]
        for dim in (2, 3):
            for trichotomic in (False, True):
                for _ in range(5):
                    state = random_state(rng, dim, dim)
                    cases.append((state, random_scenario(rng, dim, dim, trichotomic)))
        for state, scenario in cases:
            report = witness_report(state, scenario)
            assert report.qvec == q_vector(state, scenario)
            assert report.ch_value == ch_expression(state, scenario)

    def test_reference_report(self):
        report = witness_report(singlet(), reference_scenario())
        assert report.classification == "UpperBoundViolation"
        assert report.generalized_value == pytest.approx(UPPER_TARGET, abs=1e-9)
        assert report.ch_value == pytest.approx(UPPER_TARGET, abs=1e-9)

    def test_to_dict_schema(self):
        report = witness_report(singlet(), reference_scenario())
        payload = report.to_dict()
        assert sorted(payload) == ["ch", "class", "generalized", "q"]
        assert len(payload["q"]) == 4


def _evaluate(call: str, state: QuantumState, scenario: Scenario) -> str:
    """One public evaluation, as its repr (which tells every bit of a float, -0.0 included)."""
    if call == "q":
        return repr(q_vector(state, scenario))
    if call == "ch":
        return repr(ch_expression(state, scenario))
    return repr(witness_report(state, scenario))


def _fresh(call: str, state: QuantumState, scenario: Scenario) -> str:
    """The same evaluation on a newly built scenario with the same observables: no kept entry."""
    twin = Scenario(scenario.x1, scenario.y1, scenario.x2, scenario.y2)
    assert "_kept" not in vars(twin)
    return _evaluate(call, state, twin)


class TestKeptEvaluation:
    """A scenario keeps (state, marginals, table[, q]) of its last state and reuses it for it.

    A Hardy construction keeps the entry of its Schmidt state, summed in Python, so a report
    on that state contracts no table.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from(((2, 2), (2, 3), (3, 3))),
        pure=st.booleans(),
        trichotomic=st.booleans(),
        calls=st.lists(st.sampled_from(("q", "ch", "report")), min_size=1, max_size=6),
    )
    def test_reused_results_equal_fresh_ones_bitwise(self, seed, dims, pure, trichotomic, calls):
        rng = np.random.default_rng(seed)
        state = (random_pure_state if pure else random_density_state)(rng, *dims)
        scenario = random_scenario(rng, *dims, trichotomic)
        for call in calls:
            assert _evaluate(call, state, scenario) == _fresh(call, state, scenario)
            assert scenario._kept[0] is state
        assert len(scenario._kept) == (3 if set(calls) == {"ch"} else 4)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("trichotomic", [False, True])
    def test_alternating_states_each_get_their_own_values(self, rng, dims, trichotomic):
        scenario = random_scenario(rng, *dims, trichotomic)
        a, b = random_pure_state(rng, *dims), random_density_state(rng, *dims)
        # An equal state that is another object is evaluated anew.
        a_twin = QuantumState(a.dims, a.kind, a.data)
        for state in (a, b, a, a_twin, b, a):
            for call in ("report", "q", "ch"):
                assert _evaluate(call, state, scenario) == _fresh(call, state, scenario)
            assert scenario._kept[0] is state
        assert _evaluate("report", a, scenario) != _evaluate("report", b, scenario)

    def test_results_stay_correct_after_states_are_freed(self, rng):
        scenario = random_scenario(rng, 2, 2)
        previous = None
        for _ in range(10):
            state = random_state(rng, 2, 2)
            ref = weakref.ref(state)
            assert _evaluate("report", state, scenario) == _fresh("report", state, scenario)
            del state
            gc.collect()
            # The kept entry holds the last state alive, so its id is not reused
            # while the entry names it; the state before it is free.
            assert ref() is not None and scenario._kept[0] is ref()
            assert previous is None or previous() is None
            previous = ref

    def test_ch_expression_never_forms_the_q_vector(self, rng, monkeypatch):
        state, scenario = random_state(rng, 3, 3), random_scenario(rng, 3, 3, True)
        expected = ch_expression(state, Scenario(scenario.x1, scenario.y1, scenario.x2, scenario.y2))

        def forbidden(table):
            raise AssertionError("ch_expression formed the q-vector")

        monkeypatch.setattr(witness, "_q_from_table", forbidden)
        assert ch_expression(state, scenario) == expected
        assert ch_expression(state, scenario) == expected
        assert len(scenario._kept) == 3

    def test_nothing_is_kept_when_a_call_raises(self, rng):
        scenario = reference_scenario()
        with pytest.raises(DimensionMismatch):
            q_vector(random_state(rng, 2, 3), scenario)
        assert "_kept" not in vars(scenario)
        # Not a state (eigenvalue -1/2), built unchecked: its q4 is about -0.28.
        bad = _trusted(QuantumState, dims=(2, 2), kind="density",
                       data=3.0 * singlet().density_matrix() - 0.5 * np.eye(4))
        for call in (q_vector, witness_report):
            with pytest.raises(InvalidQVector):
                call(bad, scenario)
            assert "_kept" not in vars(scenario)
        ch = ch_expression(bad, scenario)  # reads no q-vector, so it cannot raise InvalidQVector
        kept = scenario._kept
        assert kept[0] is bad and len(kept) == 3
        with pytest.raises(InvalidQVector):
            q_vector(bad, scenario)
        assert scenario._kept is kept
        with pytest.raises(DimensionMismatch):
            witness_report(random_state(rng, 3, 3), scenario)
        assert scenario._kept is kept and ch_expression(bad, scenario) == ch

    def test_copies_carry_the_entry_harmlessly(self, rng):
        state, scenario = random_state(rng, 2, 3), random_scenario(rng, 2, 3)
        expected = _evaluate("report", state, scenario)
        other = random_state(rng, 2, 3)
        for twin in (copy.copy(scenario), copy.deepcopy(scenario),
                     pickle.loads(pickle.dumps(scenario))):
            assert twin == scenario
            assert _evaluate("report", state, twin) == expected
            assert _evaluate("report", other, twin) == _fresh("report", other, scenario)
        # Pickled together, state and scenario stay paired: the entry is reused and still right.
        state_copy, scenario_copy = pickle.loads(pickle.dumps((state, scenario)))
        assert scenario_copy._kept[0] is state_copy
        assert _evaluate("report", state_copy, scenario_copy) == expected

    def test_threads_sharing_a_scenario_each_get_their_own_values(self, rng):
        scenario = random_scenario(rng, 2, 3, True)
        states = [random_state(rng, 2, 3) for _ in range(6)]
        expected = {(call, i): _fresh(call, state, scenario)
                    for i, state in enumerate(states) for call in ("q", "ch", "report")}
        errors = []

        def work(index):
            for step in range(180):
                i, call = (index + step) % len(states), ("q", "ch", "report")[step % 3]
                if _evaluate(call, states[i], scenario) != expected[call, i]:
                    errors.append((index, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    @staticmethod
    def _count_tables(monkeypatch) -> tuple[list, list]:
        """Calls of ``_density_tensor``, ``_joint_table`` and ``_marginal``, and of
        ``search._schmidt_table``, the construction's table summed in Python."""
        kernel_calls, tables = [], []

        def counted(calls, function):
            def call(*args):
                calls.append(args)
                return function(*args)
            return call

        for name in ("_density_tensor", "_joint_table", "_marginal"):
            monkeypatch.setattr(witness, name, counted(kernel_calls, getattr(witness, name)))
            monkeypatch.setattr(search, name, counted(kernel_calls, getattr(qcore, name)),
                                raising=False)
        monkeypatch.setattr(search, "_schmidt_table", counted(tables, search._schmidt_table))
        return kernel_calls, tables

    def test_construction_and_report_read_one_table(self, monkeypatch):
        kernel_calls, tables = self._count_tables(monkeypatch)
        schmidt = SchmidtState(0.3)
        scenario = hardy_observables(schmidt)
        report = witness_report(schmidt.state(), scenario)
        assert (len(kernel_calls), len(tables)) == (0, 1)
        assert report.qvec is q_vector(schmidt.state(), scenario)
        assert (len(kernel_calls), len(tables)) == (0, 1)
        # The same bits as a fresh scenario's evaluation, which contracts its table.
        assert repr(report) == _fresh("report", schmidt.state(), scenario)
        assert len(kernel_calls) == 4  # the fresh one's tensor, table and two marginals

    @pytest.mark.parametrize("argv, tables", [
        (["hardy", "--theta", "0.3"], 1),
        (["hardy", "--theta", "0.3", "--json"], 1),
        (["sweep", "--family", "schmidt", "--lo", "0.1", "--hi", "0.7", "--steps", "7"], 7),
    ])
    def test_cli_reads_one_table_per_construction(self, monkeypatch, capsys, argv, tables):
        kernel_calls, summed = self._count_tables(monkeypatch)
        assert main(argv) == 0
        assert (len(kernel_calls), len(summed)) == (0, tables)


_ANGLES = st.floats(-2.0 * pi, 2.0 * pi, allow_nan=False)


def _bloch_optimum(seed: int, objective: str) -> Scenario:
    state = random_state(np.random.default_rng(seed), 2, 2)
    return optimize_violation(state, objective, planar=False).scenario


def _hardy(theta: float) -> Scenario:
    return hardy_observables(SchmidtState(theta))


@st.composite
def _spin_scenarios(draw) -> partial:
    """A builder of a planar scenario (either plane), a full-Bloch optimum or a Hardy construction.

    The scenario is built inside the test, so that nothing has read its fields before.
    """
    kind = draw(st.sampled_from(("planar", "bloch", "hardy")))
    if kind == "planar":
        return partial(planar_scenario, *draw(st.lists(_ANGLES, min_size=4, max_size=4)),
                       plane=draw(st.sampled_from(("xy", "xz"))))
    if kind == "bloch":
        return partial(_bloch_optimum, draw(st.integers(0, 2**32 - 1)),
                       draw(st.sampled_from(("maximize_upper", "minimize_lower"))))
    return partial(_hardy, draw(st.floats(0.01, 0.77)))


def _eager(scenario: Scenario) -> dict:
    """The four observables as built eagerly from the (4, 2, 2, 2) projector stack."""
    return {name: _trusted(Observable, dim=2, outcomes=((1.0, px), (-1.0, mx)))
            for name, (px, mx) in zip(_NAMES, scenario._stack)}


def _assert_fields_match_eager(scenario: Scenario, eager: dict) -> None:
    for name in _NAMES:
        built, expected = getattr(scenario, name), eager[name]
        assert built == expected and built.dim == 2
        assert built.labels == expected.labels == (1.0, -1.0)
        for (_, mine), (_, theirs) in zip(built.outcomes, expected.outcomes):
            assert mine.tobytes() == theirs.tobytes() and mine.shape == theirs.shape
            assert mine.flags.writeable == theirs.flags.writeable


class TestSpinFieldsOnFirstRead:
    """A spin scenario keeps one (4, 2, 2, 2) stack and builds x1, y1, x2, y2 when one is first read."""

    @settings(max_examples=60)
    @given(build=_spin_scenarios())
    def test_lazy_fields_equal_an_eager_build(self, build):
        scenario = build()
        assert not set(_NAMES) & set(vars(scenario))
        stack = scenario._stack
        assert stack.shape == (4, 2, 2, 2) and not stack.flags.writeable
        assert scenario._spectra == ((1.0, -1.0),) * 4
        eager = _eager(scenario)
        assert scenario.y2 is scenario.y2  # one read builds all four
        assert set(_NAMES) <= set(vars(scenario))
        _assert_fields_match_eager(scenario, eager)
        for name in _NAMES:
            assert getattr(scenario, name) is getattr(scenario, name)
            assert not any(p.flags.writeable for _, p in getattr(scenario, name).outcomes)
        TestStoredSides.assert_sides_are_fresh_stacks(scenario)

    @settings(max_examples=30)
    @given(build=_spin_scenarios())
    def test_copies_before_and_after_the_first_read(self, build):
        scenario = build()
        methods = (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)))
        # Each copy is compared with the same copy of the eagerly built scenario, flags included.
        eager = _trusted(Scenario, **_eager(scenario), _sides=scenario._sides)
        before = [method(scenario) for method in methods]
        for twin, method in zip(before, methods):
            assert not set(_NAMES) & set(vars(twin))
            _assert_fields_match_eager(twin, vars(method(eager)))
        # Reading a shallow copy builds its own fields, not the original's.
        assert not set(_NAMES) & set(vars(scenario))
        _assert_fields_match_eager(scenario, vars(eager))
        after = [method(scenario) for method in methods]
        for twin in before + after:
            assert twin == scenario and repr(twin) == repr(scenario)
            assert twin.dims == (2, 2) and not twin.trichotomic
        assert all(after[0].__dict__[name] is scenario.__dict__[name] for name in _NAMES)

    @pytest.mark.parametrize("read", [
        lambda s: s == planar_scenario(0.1, 0.2, 0.3, 0.4),
        lambda s: repr(s),
        lambda s: scenario_to_dict(s),
    ], ids=["eq", "repr", "to_dict"])
    def test_field_readers_build_the_fields(self, read):
        scenario = planar_scenario(0.1, 0.2, 0.3, 0.4)
        read(scenario)
        _assert_fields_match_eager(scenario, _eager(planar_scenario(0.1, 0.2, 0.3, 0.4)))

    def test_hash_builds_the_fields_then_refuses_the_arrays(self):
        scenario = planar_scenario(0.1, 0.2, 0.3, 0.4)
        with pytest.raises(TypeError):
            hash(scenario)
        assert set(_NAMES) <= set(vars(scenario))

    def test_other_names_are_missing(self):
        for scenario in (planar_scenario(0.1, 0.2, 0.3, 0.4), reference_scenario(),
                         random_scenario(np.random.default_rng(3))):
            for name in ("x3", "_kept", "__setstate__", "dim"):
                with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
                    getattr(scenario, name)
        with pytest.raises(AttributeError, match="no attribute 'x1'"):
            _trusted(Scenario).x1

    def test_threads_racing_on_the_first_read_get_the_same_objects(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                scenario = planar_scenario(0.1 * round_, 0.2, 0.3, 0.4, plane="xz")
                barrier, seen = threading.Barrier(6), []

                def read(index):
                    barrier.wait(timeout=30)
                    first = _NAMES[index % 4]
                    fields = {first: getattr(scenario, first)}
                    fields.update((name, getattr(scenario, name)) for name in _NAMES)
                    seen.append(fields)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 6
                for name in _NAMES:
                    assert all(fields[name] is scenario.__dict__[name] for fields in seen)
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3))),
        trichotomic=st.booleans(),
    )
    def test_dims_read_the_side_stacks(self, seed, dims, trichotomic):
        validated = random_scenario(np.random.default_rng(seed), *dims, trichotomic)
        decoded = scenario_from_dict(scenario_to_dict(validated))
        spin = planar_scenario(*np.random.default_rng(seed).uniform(-pi, pi, 4))
        for scenario in (validated, decoded, spin):
            assert scenario.dims == (scenario.x1.dim, scenario.x2.dim)
            assert all(type(d) is int for d in scenario.dims)
        assert validated.dims == decoded.dims == dims


def _decoded_payload(seed: int, d: int, trichotomic: bool) -> dict:
    """The wire form of a random scenario of one dimension: the shape decoded in one pass."""
    return scenario_to_dict(random_scenario(np.random.default_rng(seed), d, d, trichotomic))


def _assert_fields_match_oracle(scenario: Scenario, oracle: Scenario) -> None:
    for name in _NAMES:
        built, expected = getattr(scenario, name), getattr(oracle, name)
        assert built == expected and type(built.dim) is int and built.dim == expected.dim
        assert built.labels == expected.labels
        for (_, mine), (_, theirs) in zip(built.outcomes, expected.outcomes, strict=True):
            assert mine.tobytes() == theirs.tobytes() and mine.shape == theirs.shape
            assert not mine.flags.writeable


_DECODED = dict(
    seed=st.integers(0, 2**32 - 1), d=st.sampled_from((2, 3)), trichotomic=st.booleans())


class TestDecodedFieldsOnFirstRead:
    """A scenario decoded in one pass keeps its screened stack and builds its fields when read."""

    @settings(max_examples=60)
    @given(**_DECODED)
    def test_lazy_fields_equal_the_oracle(self, seed, d, trichotomic):
        payload = _decoded_payload(seed, d, trichotomic)
        scenario = scenario_from_dict(payload)
        assert not set(_NAMES) & set(vars(scenario))
        stack, spectra = scenario._stack, scenario._spectra
        assert stack.shape[0] == 4 and stack.shape[2:] == (d, d) and not stack.flags.writeable
        assert all(type(labels) is tuple for labels in spectra)
        oracle = reference_scenario_from_dict(copy.deepcopy(payload))
        for mine, theirs in zip(scenario._sides, oracle._sides):
            assert mine.tobytes() == theirs.tobytes() and not mine.flags.writeable
        assert scenario.y2 is scenario.y2  # one read builds all four
        assert set(_NAMES) <= set(vars(scenario))
        _assert_fields_match_oracle(scenario, oracle)
        for name in _NAMES:
            assert all(np.shares_memory(p, stack) for _, p in getattr(scenario, name).outcomes)
        TestStoredSides.assert_sides_are_fresh_stacks(scenario)
        assert scenario == oracle and repr(scenario) == repr(oracle)
        assert scenario_to_dict(scenario) == scenario_to_dict(oracle)

    @settings(max_examples=30)
    @given(**_DECODED)
    def test_copies_before_and_after_the_first_read(self, seed, d, trichotomic):
        payload = _decoded_payload(seed, d, trichotomic)
        oracle = reference_scenario_from_dict(copy.deepcopy(payload))
        scenario = scenario_from_dict(payload)
        methods = (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)))
        before = [method(scenario) for method in methods]
        for twin in before:
            assert not set(_NAMES) & set(vars(twin))
            assert not twin._stack.flags.writeable and twin._spectra == scenario._spectra
            _assert_fields_match_oracle(twin, oracle)
        # Reading a copy builds its own fields, not the original's.
        assert not set(_NAMES) & set(vars(scenario))
        _assert_fields_match_oracle(scenario, oracle)
        after = [method(scenario) for method in methods]
        for twin in before + after:
            assert twin == scenario == oracle and repr(twin) == repr(scenario)
            assert twin.dims == (d, d) and twin.trichotomic == trichotomic
            assert all(not side.flags.writeable for side in twin._sides)
        assert all(after[0].__dict__[name] is scenario.__dict__[name] for name in _NAMES)

    @pytest.mark.parametrize("read", [
        lambda s: s == s, lambda s: repr(s), lambda s: scenario_to_dict(s),
    ], ids=["eq", "repr", "to_dict"])
    def test_field_readers_build_the_fields(self, read):
        scenario = scenario_from_dict(_decoded_payload(5, 3, True))
        read(scenario)
        assert set(_NAMES) <= set(vars(scenario))

    def test_threads_racing_on_the_first_read_get_the_same_objects(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                payload = _decoded_payload(round_, 2 + round_ % 2, round_ % 3 == 0)
                scenario = scenario_from_dict(payload)
                barrier, seen = threading.Barrier(6), []

                def read(index):
                    barrier.wait(timeout=30)
                    first = _NAMES[index % 4]
                    fields = {first: getattr(scenario, first)}
                    fields.update((name, getattr(scenario, name)) for name in _NAMES)
                    seen.append(fields)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 6
                for name in _NAMES:
                    assert all(fields[name] is scenario.__dict__[name] for fields in seen)
        finally:
            sys.setswitchinterval(interval)


class TestSpinPairCalls:
    """Only a read of the fields builds spin observables; the evaluations read the side stacks."""

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        calls = []

        def counted(cls, **fields):
            if cls is Observable:
                calls.append(1)
            return _trusted(cls, **fields)

        monkeypatch.setattr(qcore, "_trusted", counted)
        monkeypatch.setattr(witness, "_trusted", counted)
        return calls

    @pytest.mark.parametrize("theta, phi", [(0.05, 0.0), (0.3, 1.0), (0.7, 4.0)])
    def test_construct_item_builds_none(self, built, theta, phi):
        schmidt = SchmidtState(theta)
        scenario = hardy_observables(schmidt)
        report = witness_report(schmidt.state(), scenario)
        assert not lhv_feasible(report.qvec).feasible
        rotated = planar_scenario(*(a + phi for a in REFERENCE_ANGLES), plane="xy")
        assert abs(werner_sweep(rotated) - 1.0 / sqrt(2.0)) < 1e-12
        assert built == []

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("objective", ["maximize_upper", "minimize_lower"])
    def test_optimizer_builds_none(self, built, rng, planar, objective):
        for state in (singlet(), random_state(rng, 2, 2)):
            optimize_violation(state, objective, planar=planar)
        assert built == []

    @pytest.mark.parametrize("argv, count", [
        (["hardy", "--theta", "0.3"], 4),
        (["hardy", "--theta", "0.3", "--json"], 4),
        (["sweep", "--family", "schmidt", "--lo", "0.1", "--hi", "0.7", "--steps", "7"], 0),
        (["sweep", "--family", "werner", "--lo", "0", "--hi", "1", "--steps", "7"], 0),
        (["demo", "singlet"], 0),
    ])
    def test_cli_builds_only_what_it_prints(self, built, capsys, argv, count):
        assert main(argv) == 0
        assert len(built) == count
