"""The error contract: what each malformed input to hardykit raises, one row per case.

A library row is (id, entry point, arguments, exception type, message regex):
calling the entry point on the arguments raises exactly that type, with a
message the regex finds, and no warning on the way. A CLI row is (id, argv,
exit code, stderr regex), run through ``cli.main``: stdout stays empty, a
domain error (exit 3) prints one ``Type: message`` line, nothing prints a
traceback and nothing warns. An argv entry that is not a string is written to
a JSON file, and ``fails_cleanly`` passes the file's path in its place; a
``Stdin`` entry goes to stdin instead, and ``-`` takes its place.

Rows are grouped under the test that runs them, named ``Class.test``.
``TestErrorContract`` below runs its own groups, one case per row, under ids
that are unique (checked at import). Every other group belongs to
a test of another file, defined there as ``test_x = ErrorRows()``, so that
each case kept the test id it had as a standalone test. A group whose rows
have the id ``None`` is one test; otherwise each distinct id is one test case,
and rows sharing an id run in the same case.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import warnings
from functools import partial
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardykit import (
    BlochDirection,
    DeterministicStrategy,
    DimensionMismatch,
    FiniteMeasure,
    InvalidQVector,
    MalformedMeasure,
    MaximallyEntangled,
    NoCrossing,
    NoSolution,
    NotEntangled,
    Observable,
    QuantumState,
    QVector,
    Scenario,
    SchmidtState,
    SearchConfig,
    UnknownLabel,
    classify,
    generalized_expression,
    hardy_observables,
    joint_probability,
    lhv_feasible,
    marginal_probability,
    observable_from_dict,
    observable_to_dict,
    optimize_violation,
    planar_scenario,
    q_vector,
    scenario_from_dict,
    scenario_to_dict,
    singlet,
    spin_observable,
    state_from_dict,
    state_to_dict,
    werner_state,
    werner_sweep,
    witness_report,
)
from hardykit.cli import main
from hardykit.qcore import _pairs_from_complex

PLUS, MINUS = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
Z_SPIN = spin_observable(BlochDirection(0.0, 0.0))
QUTRIT = Observable(3, ((1.0, np.diag([1.0, 0.0, 0.0])), (-1.0, np.diag([0.0, 1.0, 1.0]))))
QUTRIT_Y = Observable(3, ((1.0, np.diag([1.0, 0.0, 0.0])), (2.0, np.diag([0.0, 1.0, 1.0]))))
REFERENCE = planar_scenario(0.0, pi / 2, 3 * pi / 4, pi / 4)
HARDY_Q, FLAT_Q = QVector(0.0, 0.0, 0.0, 0.3), QVector(0.4, 0.4, 0.4, 0.05)
NAN, INF = float("nan"), float("inf")


def _observable(*outcomes) -> partial:
    """``Observable(2, outcomes)``, called when the row runs."""
    return partial(Observable, 2, outcomes)


def _state_payload(**changes) -> dict:
    payload = state_to_dict(singlet())
    payload.update(changes)
    return payload


def _observable_payload(**changes) -> dict:
    """The z-spin observable in wire form; ``label`` and ``projector`` edit its first outcome."""
    payload = observable_to_dict(Z_SPIN)
    for key, value in changes.items():
        (payload["outcomes"][0] if key in ("label", "projector") else payload)[key] = value
    return payload


def _without(payload: dict, key: str) -> dict:
    return {name: value for name, value in payload.items() if name != key}


def _state_with_pair(entry) -> dict:
    """The singlet's payload with its first [re, im] pair replaced by ``entry``."""
    return _state_payload(data=[entry] + _SINGLET_DATA[1:])


def _huge_y2_scenario() -> dict:
    """The reference scenario with every entry of y2's first projector 1e200."""
    payload = scenario_to_dict(REFERENCE)
    payload["y2"]["outcomes"][0]["projector"] = [[1e200, 0.0]] * 4
    return payload


# Hermitian and finite, but not idempotent: b * conj(b) overflows to inf + nan j,
# so the Gram maxima of this pair come out NaN.
_B = 1e200 * (1 + 1j)
GRAM_NAN = (
    (1.0, np.array([[0.5, _B], [_B.conjugate(), 0.5]])),
    (-1.0, np.array([[0.5, -_B], [-_B.conjugate(), 0.5]])),
)
_GRAM_NAN_PAYLOAD = {
    "dim": 2,
    "outcomes": [
        {"label": label, "projector": [[z.real, z.imag] for z in proj.reshape(-1).tolist()]}
        for label, proj in GRAM_NAN
    ],
}
_GRAM_NAN_SCENARIO = {**scenario_to_dict(REFERENCE), "y1": _GRAM_NAN_PAYLOAD}


def _measure(weights, a, b, c, d) -> FiniteMeasure:
    arrays = [np.asarray(mask, dtype=bool) for mask in (a, b, c, d)]
    return FiniteMeasure(np.asarray(weights, dtype=float), *arrays)


class Stdin(dict):
    """A JSON payload that ``fails_cleanly`` sends to stdin, passing ``-`` in its place."""


def _density(*entries) -> np.ndarray:
    """I/4 with the given (row, column, value) entries set."""
    matrix = np.eye(4, dtype=complex) / 4.0
    for i, j, value in entries:
        matrix[i, j] = value
    return matrix


def _density_payload(*entries) -> dict:
    """The wire form of ``_density(*entries)``."""
    pairs = [[z.real, z.imag] for z in _density(*entries).reshape(-1).tolist()]
    return {"dims": [2, 2], "kind": "density", "data": pairs}


_SINGLET_DATA = state_to_dict(singlet())["data"]
_REFERENCE_SCENARIO = scenario_to_dict(REFERENCE)
# The reference scenario in the bloch shorthand, as a CLI user writes it.
_BLOCH_SCENARIO = {
    name: {"bloch": {"theta": pi / 2, "phi": phi}}
    for name, phi in zip(("x1", "y1", "x2", "y2"), (0.0, pi / 2, 3 * pi / 4, pi / 4))
}
_PURE = QuantumState.pure
_DENSITY = QuantumState.density
_PRODUCT = {"dims": [2, 2], "kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}

LIBRARY = {
    # Wire sizes, malformed outcomes, huge or infinite input, q components that are not numbers.
    "TestErrorContract.test_library": [
        ("state-density-data-count", state_from_dict,
         ({"dims": [2, 2], "kind": "density", "data": [[0.25, 0.0]] * 5},), ValueError,
         r"^density matrix must be 4x4, got shape \(5,\)$"),
        ("observable-outcome-triple", _observable((1.0, PLUS, 3)), (), ValueError,
         r"^outcome 0 must be a \(label, projector\) pair$"),
        ("observable-outcome-number", _observable(5), (), ValueError,
         r"^outcome 0 must be a \(label, projector\) pair$"),
        ("observable-projector-ragged", _observable((1.0, [[1, 0], [0]]), (-1.0, MINUS)), (),
         ValueError, r"^projector for label 1.0 must be 2x2$"),
        ("observable-projector-int-overflow",
         _observable((1.0, [[10**400, 0], [0, 0]]), (-1.0, MINUS)), (), ValueError,
         r"^projector for label 1.0 must be 2x2$"),
        ("observable-projector-huge",
         _observable((1.0, np.full((2, 2), 1e200)), (-1.0, MINUS)), (), ValueError,
         "label 1.0 is not idempotent"),
        ("scenario-projector-huge", scenario_from_dict, (_huge_y2_scenario(),), ValueError,
         "label 1.0 is not idempotent"),
        ("state-amplitude-huge", _PURE, ([1e200, 0.0, 0.0, 0.0], (2, 2)), ValueError,
         "squared norm inf is not 1"),
        ("bloch-vector-inf", BlochDirection.from_vector, ([INF, 0.0, 1.0],), ValueError,
         "nonzero 3-vector of finite norm"),
        ("bloch-vector-norm-overflow", BlochDirection.from_vector, ((1e200, 1e200, 0.0),),
         ValueError, "nonzero 3-vector of finite norm"),
        ("observable-dim-negative", observable_from_dict, (_observable_payload(dim=-2),),
         ValueError, "^dimension must be positive$"),
        ("observable-dim-zero", observable_from_dict, (_observable_payload(dim=0),),
         ValueError, "^dimension must be positive$"),
        # A huge dim with no d x d projector read allocates nothing of that size.
        ("observable-huge-dim-no-outcomes", Observable, (10**6, ()), ValueError,
         "^observable needs at least one outcome$"),
        ("observable-huge-dim-small-projector", Observable, (10**6, ((1.0, np.eye(2)),)),
         ValueError, "^projector for label 1.0 must be 1000000x1000000$"),
        ("observable-dict-huge-dim-no-outcomes", observable_from_dict,
         ({"dim": 10**6, "outcomes": []},), ValueError, "^observable needs at least one outcome$"),
        ("scenario-huge-dim-no-outcomes", scenario_from_dict,
         ({**_REFERENCE_SCENARIO, "x1": {"dim": 10**6, "outcomes": []}},), ValueError,
         "^observable needs at least one outcome$"),
        ("qvector-string", QVector, ("a", 0, 0, 0), InvalidQVector, "^q1 must be a number"),
        ("lhv-feasible-string", lhv_feasible, (["a", 0, 0, 0],), InvalidQVector,
         "^q1 must be a number"),
        ("lhv-feasible-null-q5", lhv_feasible, ([0, 0, 0, 0, None, 0],), InvalidQVector,
         "^q5 must be a number"),
        # Finite densities whose Hermiticity difference, trace or Hermitian part overflows.
        ("state-density-asymmetry-overflow", _DENSITY, (_density((3, 3, 0.25 + 1e308j)), (2, 2)),
         ValueError, "^density matrix is not Hermitian within tolerance$"),
        ("state-density-trace-overflow", _DENSITY,
         (_density((0, 0, 1e308), (1, 1, 1e308), (2, 2, -1e308), (3, 3, -1e308 + 1)), (2, 2)),
         ValueError, r"^density matrix trace \(nan\+0j\) is not 1 within"),
        ("state-density-hermitian-part-overflow", _DENSITY,
         (_density((0, 1, 1.5e308), (1, 0, 1.5e308)), (2, 2)), ValueError,
         "^density matrix has eigenvalue -1.5e[+]308 below"),
        # A NaN maximum must fail each projector test, as it fails the one-pass screen.
        ("observable-projector-gram-nan", _observable(*GRAM_NAN), (), ValueError,
         r"^projector for label 1.0 is not idempotent$"),
        ("observable-dict-projector-gram-nan", observable_from_dict, (_GRAM_NAN_PAYLOAD,),
         ValueError, r"^projector for label 1.0 is not idempotent$"),
        ("scenario-projector-gram-nan", scenario_from_dict, (_GRAM_NAN_SCENARIO,), ValueError,
         r"^projector for label 1.0 is not idempotent$"),
        # Just inside each entanglement threshold the computed q2 + q3 (~1e-17) outweighs
        # q4 - tol, so classify calls the construction NoViolation and it is refused.
        ("hardy-band-lower", hardy_observables, (SchmidtState(3.1622776638678034e-05),),
         NoSolution, r"^constructed q = .* is not a HardyViolation at tol 1e-09"),
        ("hardy-band-upper", hardy_observables, (SchmidtState(0.7853758027171096),),
         NoSolution, r"^constructed q = .* is not a HardyViolation at tol 1e-09"),
        # A non-finite entry is named before any other fault the state has.
        ("state-density-nan-wrong-shape", _DENSITY, (np.full((3, 3), NAN), (2, 2)), ValueError,
         "^state data has non-finite entries$"),
        ("state-density-inf-diagonal", _DENSITY, (_density((0, 0, INF)), (2, 2)), ValueError,
         "^state data has non-finite entries$"),
        ("state-density-inf-opposite-finite", _DENSITY, (_density((0, 1, INF)), (2, 2)),
         ValueError, "^state data has non-finite entries$"),
        ("state-density-nan-imaginary-part", _DENSITY,
         (_density((0, 1, complex(0.0, NAN)), (1, 0, 0.0)), (2, 2)), ValueError,
         "^state data has non-finite entries$"),
        ("state-nan-unknown-kind", QuantumState, ((2, 2), "mixed", np.full((4, 4), NAN)),
         ValueError, "^state data has non-finite entries$"),
        ("state-pure-norm-nan", _PURE, ([0.6, 0.8, NAN, 0.0], (2, 2)), ValueError,
         "^state data has non-finite entries$"),
        # Scalar arguments: a string, a boolean or None is not a number.
        ("schmidt-angle-string", SchmidtState, ("0.3",), ValueError,
         r"^angle must be a number, got '0\.3'$"),
        ("schmidt-angle-bool", SchmidtState, (True,), ValueError,
         "^angle must be a number, got True$"),
        ("schmidt-angle-none", SchmidtState, (None,), ValueError,
         "^angle must be a number, got None$"),
        ("bloch-theta-string", BlochDirection, ("0", 1), ValueError,
         "^theta must be a number, got '0'$"),
        ("bloch-phi-bool", BlochDirection, (0.0, True), ValueError,
         "^phi must be a number, got True$"),
        ("bloch-theta-none", BlochDirection, (None, 0.0), ValueError,
         "^theta must be a number, got None$"),
        ("werner-visibility-bool", werner_state, (True,), ValueError,
         "^visibility must be a number, got True$"),
        ("werner-visibility-string", werner_state, ("0.5",), ValueError,
         r"^visibility must be a number, got '0\.5'$"),
        ("werner-visibility-none", werner_state, (None,), ValueError,
         "^visibility must be a number, got None$"),
        ("werner-sweep-string-end", werner_sweep, (REFERENCE, "0", 1), ValueError,
         "^v_lo must be a number, got '0'$"),
        ("werner-sweep-bool-end", werner_sweep, (REFERENCE, 0.0, True), ValueError,
         "^v_hi must be a number, got True$"),
        ("werner-sweep-none-end", werner_sweep, (REFERENCE, None, 1.0), ValueError,
         "^v_lo must be a number, got None$"),
        ("planar-angle-bool", planar_scenario, (True, 0.0, 0.0, 0.0), ValueError,
         "^x1_angle must be a number, got True$"),
        ("planar-angle-string", planar_scenario, (0.0, 0.0, "0.3", 0.0), ValueError,
         r"^x2_angle must be a number, got '0\.3'$"),
        ("planar-angle-none", partial(planar_scenario, plane="xz"), (0.0, 0.0, 0.0, None),
         ValueError, "^y2_angle must be a number, got None$"),
        # An outcome label read back from an observable follows the same rule.
        *((f"{name}-label-{kind}", call, args, ValueError,
           f"^label must be a number, got {re.escape(repr(bad))}$")
          for kind, bad in (("string", " -1 "), ("bool", True), ("none", None))
          for name, call, args in (
              ("projector", Z_SPIN.projector, (bad,)),
              ("joint-probability", joint_probability, (singlet(), Z_SPIN, bad, Z_SPIN, 1.0)),
              ("marginal-probability", marginal_probability, (singlet(), 2, Z_SPIN, bad)),
          )),
    ],
    # -- qcore: directions, probabilities, states, observables ------------------------
    "TestBlochDirection.test_rejects_out_of_range_angles": [
        ("-0.1-0.0", BlochDirection, (-0.1, 0.0), ValueError, r"theta must lie in \[0, pi\]"),
        ("3.241592653589793-0.0", BlochDirection, (pi + 0.1, 0.0), ValueError,
         r"theta must lie in \[0, pi\]"),
        ("0.0--0.1", BlochDirection, (0.0, -0.1), ValueError, r"phi must lie in \[0, 2\*pi\)"),
        ("0.0-6.283185307179586", BlochDirection, (0.0, 2 * pi), ValueError,
         r"phi must lie in \[0, 2\*pi\)"),
    ],
    "TestBlochDirection.test_from_vector_rejects_zero": [
        (None, BlochDirection.from_vector, ((0.0, 0.0, 0.0),), ValueError, "nonzero 3-vector"),
    ],
    "TestPlanarDirections.test_non_finite_angle_rejected": [
        (repr(bad), partial(planar_scenario, plane="xz"), (0.0, bad, 0.0, 0.0), ValueError,
         "finite")
        for bad in (NAN, INF)
    ],
    "TestJointProbability.test_dimension_mismatch": [
        (None, joint_probability, (singlet(), QUTRIT, 1.0, Z_SPIN, 1.0), DimensionMismatch,
         r"observables act on \(3, 2\)"),
    ],
    "TestJointProbability.test_unknown_label": [
        (None, joint_probability, (singlet(), Z_SPIN, 2.0, Z_SPIN, 1.0), UnknownLabel,
         "label 2.0 not in spectrum"),
    ],
    "TestMarginalProbability.test_side_validation": [
        (None, marginal_probability, (singlet(), 3, Z_SPIN, 1.0), ValueError,
         "side must be 1 or 2"),
        (None, marginal_probability, (singlet(), 1, QUTRIT, 1.0), DimensionMismatch,
         "observable dimension 3"),
    ],
    "TestStateValidation.test_pure_norm_enforced": [
        (None, _PURE, ([1.0, 1.0, 0.0, 0.0], (2, 2)), ValueError, "squared norm 2.0 is not 1"),
    ],
    "TestStateValidation.test_density_must_be_hermitian": [
        (None, _DENSITY, (_density((0, 1, 0.1)), (2, 2)), ValueError, "not Hermitian"),
    ],
    "TestStateValidation.test_density_trace_enforced": [
        (None, _DENSITY, (np.eye(4) / 2.0, (2, 2)), ValueError, "trace"),
    ],
    "TestStateValidation.test_density_positivity_enforced": [
        (None, _DENSITY, (np.diag([0.6, 0.5, -0.1, 0.0]), (2, 2)), ValueError, "eigenvalue -0.1"),
    ],
    "TestStateValidation.test_non_finite_pure_amplitude_rejected": [
        (str(bad), _PURE, ([bad, 0.0, 0.0, 0.0], (2, 2)), ValueError, "non-finite")
        for bad in (NAN, INF, complex(0.0, -INF))
    ],
    "TestStateValidation.test_non_finite_density_entry_rejected": [
        (str(bad), _DENSITY, (_density((1, 2, bad), (2, 1, bad)), (2, 2)), ValueError,
         "non-finite")
        for bad in (NAN, INF)
    ],
    "TestStateValidation.test_minimum_subsystem_dimension": [
        (None, _PURE, ([1.0, 0.0], (1, 2)), ValueError, "at least 2"),
    ],
    # Numeric strings and booleans were converted by float().
    "TestStateValidation.test_non_integral_dimension_rejected": [
        (f"dims{i}", _PURE, ([0.0, 1.0, 0.0, 0.0], dims), ValueError, "integers")
        for i, dims in enumerate(
            [(2.7, 2), (2, 2.5), (NAN, 2), (INF, 2), (None, 2), (2, None), ("2", 2.0), (2, True)]
        )
    ],
    "TestObservableValidation.test_rejects_non_idempotent": [
        (None, _observable((1.0, 0.5 * np.eye(2)), (-1.0, 0.5 * np.eye(2))), (), ValueError,
         "label 1.0 is not idempotent"),
    ],
    "TestObservableValidation.test_rejects_non_orthogonal": [
        (None, _observable((1.0, PLUS), (-1.0, PLUS)), (), ValueError, "not orthogonal"),
    ],
    "TestObservableValidation.test_rejects_incomplete": [
        (None, _observable((1.0, PLUS)), (), ValueError, "do not sum to the identity"),
    ],
    "TestObservableValidation.test_rejects_duplicate_labels": [
        (None, _observable((1.0, PLUS), (1.0, MINUS)), (), ValueError, "must be distinct"),
    ],
    # A non-finite entry in any one projector is enough.
    "TestObservableValidation.test_rejects_non_finite_projector": [
        row
        for bad in (NAN, INF)
        for row in [
            (str(bad), _observable((1.0, np.full((2, 2), bad)), (-1.0, np.full((2, 2), bad))),
             (), ValueError, "label 1.0 has non-finite"),
            (str(bad), _observable((1.0, PLUS), (-1.0, np.diag([bad, 1.0]))), (), ValueError,
             "label -1.0 has non-finite"),
        ]
    ],
    "TestObservableValidation.test_rejects_non_finite_label": [
        (str(bad), _observable((1.0, PLUS), (bad, MINUS)), (), ValueError,
         f"outcome label {bad} must be finite")
        for bad in (NAN, INF)
    ],
    "TestObservableValidation.test_non_integral_dimension_rejected": [
        (str(dim), partial(Observable, dim, ((1.0, PLUS), (-1.0, MINUS))), (), ValueError,
         "dimensions must be integers")
        for dim in (2.9, 1.5, NAN, None, "2", True)
    ],
    # Numeric strings and booleans were converted by float(); a list raised TypeError.
    "TestObservableValidation.test_label_must_be_a_number": [
        (label_id, _observable((label, PLUS), (-1.0, MINUS)), (), ValueError,
         "outcome label must be a number")
        for label_id, label in (
            ("1", "1"), ("True", True), ("label2", [1.0]), ("None", None), (str(10**400), 10**400)
        )
    ],
    # -- JSON decoders --------------------------------------------------------------------
    "TestJsonCodecs.test_malformed_complex_pair_rejected": [
        (entry_id, state_from_dict, (_state_with_pair(entry),),
         ValueError, r"\[re, im\] pairs")
        for entry_id, entry in (("entry0", [1.0]), ("entry1", [1.0, 0.0, 0.0]), ("1.0", 1.0))
    ],
    "TestJsonCodecs.test_malformed_dims_rejected": [
        (dims_id, state_from_dict, (_state_payload(dims=dims),), ValueError,
         "dims must be a pair")
        for dims_id, dims in (
            ("dims0", [2]), ("dims1", []), ("dims2", [2, 2, 2]), ("4", 4),
            ("dims4", [2.7, 2]), ("dims5", [2, 2.9]),
        )
    ],
    # Truncated to 2, this payload would decode as a valid qubit observable.
    "TestJsonCodecs.test_non_integral_observable_dim_rejected": [
        (None, observable_from_dict, (_observable_payload(dim=2.9),), ValueError, "integers"),
    ],
    # A missing key is a KeyError; every value of the wrong kind, type or range
    # is a ValueError.
    "TestJsonCodecs.test_malformed_input_raises_one_error_type": [
        # Any kind but "density" used to decode as a pure state.
        ("state-kind-unknown", state_from_dict, (_state_payload(kind="garbage"),), ValueError,
         "'pure' or 'density'"),
        ("state-kind-null", state_from_dict, (_state_payload(kind=None),), ValueError, "kind"),
        ("state-data-null-number", state_from_dict,
         (_state_with_pair([None, 0.0]),), ValueError, "data"),
        ("state-data-list-for-number", state_from_dict,
         (_state_with_pair([[1.0], 0.0]),), ValueError, "data"),
        ("state-data-string-for-number", state_from_dict,
         (_state_with_pair(["one", 0.0]),), ValueError, "data"),
        ("state-data-short-pair", state_from_dict,
         (_state_with_pair([1.0]),), ValueError, r"\[re, im\] pairs"),
        ("state-data-null", state_from_dict, (_state_payload(data=None),), ValueError, "data"),
        ("state-data-nan", state_from_dict,
         (_state_with_pair([NAN, 0.0]),), ValueError, "non-finite"),
        ("state-data-count", state_from_dict, (_state_payload(data=_SINGLET_DATA[:3]),),
         ValueError, "amplitudes"),
        ("state-unnormalised", state_from_dict, (_state_payload(data=[[1.0, 0.0]] * 4),),
         ValueError, "norm"),
        ("state-dims-null", state_from_dict, (_state_payload(dims=None),), ValueError, "dims"),
        ("state-dims-string", state_from_dict, (_state_payload(dims=["two", 2]),), ValueError,
         "dims"),
        # Numeric strings and booleans used to be converted by float().
        ("state-dims-numeric-string", state_from_dict, (_state_payload(dims=["2", 2]),),
         ValueError, "dims"),
        ("state-dims-boolean", state_from_dict, (_state_payload(dims=[2, True]),), ValueError,
         "dims"),
        ("state-dims-huge-integer", state_from_dict, (_state_payload(dims=[10**400, 2]),),
         ValueError, "dims"),
        ("state-data-numeric-string", state_from_dict,
         (_state_with_pair(["0", 0.0]),), ValueError, "data"),
        ("state-data-boolean-real", state_from_dict,
         (_state_with_pair([False, 0.0]),), ValueError, "data"),
        ("state-data-boolean-imag", state_from_dict,
         (_state_with_pair([0.0, False]),), ValueError, "data"),
        ("state-data-huge-integer", state_from_dict,
         (_state_with_pair([10**400, 0]),), ValueError, "data"),
        ("state-kind-missing", state_from_dict, (_without(_state_payload(), "kind"),), KeyError,
         "kind"),
        ("state-data-missing", state_from_dict, (_without(_state_payload(), "data"),), KeyError,
         "data"),
        ("observable-label-null", observable_from_dict, (_observable_payload(label=None),),
         ValueError, "label"),
        ("observable-label-list", observable_from_dict,
         (_observable_payload(label=[1.0]),), ValueError, "label"),
        ("observable-label-string", observable_from_dict,
         (_observable_payload(label="plus"),), ValueError, "label"),
        ("observable-label-numeric-string", observable_from_dict,
         (_observable_payload(label="1"),), ValueError, "label"),
        ("observable-label-boolean", observable_from_dict,
         (_observable_payload(label=True),), ValueError, "label"),
        ("observable-dim-numeric-string", observable_from_dict, (_observable_payload(dim="2"),),
         ValueError, "integers, got '2'"),
        ("observable-dim-boolean", observable_from_dict, (_observable_payload(dim=True),),
         ValueError, "integers, got True"),
        ("observable-projector-numeric-string", observable_from_dict,
         (_observable_payload(projector=[["1", 0.0], [0, 0], [0, 0], [0, 0]]),),
         ValueError, "projector"),
        ("observable-projector-boolean", observable_from_dict,
         (_observable_payload(projector=[[True, 0.0], [0, 0], [0, 0], [0, 0]]),),
         ValueError, "projector"),
        ("bloch-theta-numeric-string", observable_from_dict,
         ({"bloch": {"theta": "0", "phi": 0.0}},), ValueError, "bloch theta"),
        ("bloch-phi-boolean", observable_from_dict, ({"bloch": {"theta": 0.0, "phi": False}},),
         ValueError, "bloch phi"),
        ("observable-dim-null", observable_from_dict, (_observable_payload(dim=None),),
         ValueError, "dim"),
        ("observable-dim-string", observable_from_dict, (_observable_payload(dim="two"),),
         ValueError, "dim"),
        ("observable-dim-fraction", observable_from_dict, (_observable_payload(dim=2.9),),
         ValueError, "integers"),
        ("observable-outcomes-null", observable_from_dict, (_observable_payload(outcomes=None),),
         ValueError, "outcomes"),
        ("observable-outcomes-not-objects", observable_from_dict,
         (_observable_payload(outcomes=[1.0, -1.0]),), ValueError, "outcomes"),
        ("observable-projector-null", observable_from_dict,
         (_observable_payload(projector=None),), ValueError, "projector"),
        ("observable-projector-null-number", observable_from_dict,
         (_observable_payload(projector=[[None, 0.0]] * 4),), ValueError, "projector"),
        ("observable-projector-count", observable_from_dict,
         (_observable_payload(projector=[[1.0, 0.0]] * 3),), ValueError,
         r"^projector for label 1.0 must be 2x2$"),
        ("observable-projector-not-idempotent", observable_from_dict,
         (_observable_payload(projector=[[0.5, 0.0], [0, 0], [0, 0], [0.5, 0.0]]),),
         ValueError, "idempotent"),
        ("observable-outcomes-missing", observable_from_dict,
         (_without(_observable_payload(), "outcomes"),), KeyError, "outcomes"),
        ("bloch-theta-null", observable_from_dict, ({"bloch": {"theta": None, "phi": 0.0}},),
         ValueError, "bloch theta"),
        ("bloch-phi-list", observable_from_dict, ({"bloch": {"theta": 0.0, "phi": [0.0]}},),
         ValueError, "bloch phi"),
        ("bloch-theta-string", observable_from_dict, ({"bloch": {"theta": "up", "phi": 0.0}},),
         ValueError, "bloch theta"),
        ("bloch-null", observable_from_dict, ({"bloch": None},), ValueError, "bloch"),
        ("bloch-theta-out-of-range", observable_from_dict,
         ({"bloch": {"theta": 4.0, "phi": 0.0}},), ValueError, "theta"),
        ("bloch-phi-missing", observable_from_dict, ({"bloch": {"theta": 0.0}},), KeyError, "phi"),
        ("scenario-y2-missing", scenario_from_dict, (_without(_REFERENCE_SCENARIO, "y2"),),
         KeyError, "y2"),
        ("scenario-label-null", scenario_from_dict,
         ({**_REFERENCE_SCENARIO, "x1": _observable_payload(label=None)},), ValueError,
         "label"),
        ("scenario-x-labels", scenario_from_dict,
         ({**_REFERENCE_SCENARIO, "x1": _observable_payload(label=0.0)},), ValueError,
         "x1 labels"),
        ("scenario-observable-number", scenario_from_dict,
         ({"x1": 5, "y1": 5, "x2": 5, "y2": 5},), ValueError, "observable must be an object"),
        ("scenario-list", scenario_from_dict, ([1],), ValueError, "scenario must be an object"),
        ("state-list", state_from_dict, ([1],), ValueError, "state must be an object"),
        ("observable-list", observable_from_dict, ([1, 2],), ValueError,
         "observable must be an object"),
    ],
    # -- witness: q-vectors, scenarios, classification ------------------------------------
    "TestQVectorType.test_out_of_range_rejected": [
        (None, QVector, (0.1, 0.2, 0.3, 1.5), InvalidQVector, r"q4 = 1.5 lies outside \[0, 1\]"),
    ],
    # One type from both entry points, and still a ValueError for callers that
    # catch bad values (InvalidQVector subclasses it).
    "TestQVectorType.test_out_of_range_raises_one_error_type": [
        (f"q{i}-{name}", build, (q,), InvalidQVector, message)
        for i, (q, message) in enumerate(
            [
                ((1.5, 0.0, 0.0, 0.0), "q1 = 1.5 lies outside"),
                ((0.1, 0.1, 0.1, 0.1, -0.2, 0.0), "q5 = -0.2 lies outside"),
                # Too large for a float: float() raised OverflowError.
                ((10**400, 0, 0, 0), "q1 is too large for a float"),
            ]
        )
        for name, build in (("QVector", lambda q: QVector(*q)), ("lhv_feasible", lhv_feasible))
    ],
    "TestQVectorType.test_q5_q6_must_come_together": [
        (None, partial(QVector, 0.1, 0.1, 0.1, 0.1, q5=0.1), (), ValueError,
         "q5 and q6 must be given together"),
    ],
    "TestScenarioType.test_x_labels_must_be_standard": [
        (None, Scenario, (QUTRIT_Y, QUTRIT_Y, QUTRIT, QUTRIT_Y), ValueError,
         r"x1 labels must be exactly"),
    ],
    "TestScenarioType.test_x_arities_must_agree": [
        (None, Scenario,
         (QUTRIT, QUTRIT_Y, _observable((-1.0, PLUS), (0.0, MINUS), (1.0, 0 * PLUS))(), Z_SPIN),
         ValueError, "both be dichotomic or both trichotomic"),
    ],
    "TestScenarioType.test_y_must_contain_plus_one": [
        (None, Scenario, (Z_SPIN, _observable((0.0, PLUS), (2.0, MINUS))(), Z_SPIN, Z_SPIN),
         ValueError, r"y1 spectrum must contain \+1"),
    ],
    "TestQVectorExtraction.test_dimension_mismatch": [
        (None, q_vector, (singlet(), Scenario(QUTRIT, QUTRIT_Y, QUTRIT, QUTRIT_Y)),
         DimensionMismatch, r"scenario dims \(3, 3\)"),
    ],
    # Neither the Hardy pattern nor the plain no-violation point may mask a bad argument.
    "TestClassify.test_tolerance_must_be_positive": [
        row
        for tol_id, tol in (("0.0", 0.0), ("nan", NAN), ("inf", INF))
        for row in [
            (tol_id, classify, (HARDY_Q, generalized_expression(HARDY_Q), tol), ValueError,
             "tol must be finite and positive"),
            (tol_id, classify, (FLAT_Q, generalized_expression(FLAT_Q), tol), ValueError,
             "tol must be finite and positive"),
            (tol_id, witness_report, (singlet(), REFERENCE, tol), ValueError,
             "tol must be finite and positive"),
        ]
    ] + [
        (f"gen_value={value}", classify, (q, value, 1e-9), ValueError, "gen_value must be finite")
        for value in (NAN, INF, -INF)
        for q in (HARDY_Q, FLAT_Q)
    ] + [
        # One rule for scalars: a boolean, a string or None is not a number.
        (f"tol={tol!r}", call, (*args, tol), ValueError,
         f"^tol must be a number, got {re.escape(repr(tol))}$")
        for tol in (True, "1e-9", None)
        for call, args in (
            (classify, (HARDY_Q, generalized_expression(HARDY_Q))),
            (classify, (FLAT_Q, generalized_expression(FLAT_Q))),
            (witness_report, (singlet(), REFERENCE)),
            (hardy_observables, (SchmidtState(0.3),)),
        )
    ] + [
        (f"gen_value={value!r}", classify, (q, value, 1e-9), ValueError,
         f"^gen_value must be a number, got {re.escape(repr(value))}$")
        for value in (True, "-0.3", None)
        for q in (HARDY_Q, FLAT_Q)
    ],
    # -- lhv: measures, strategies, feasibility --------------------------------------------
    "TestSetExpression.test_malformed_measures_rejected": [
        (None, _measure, ([0.5, -0.1, 0.6], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]),
         MalformedMeasure, "nonnegative"),
        (None, _measure, ([0.5, 0.4], [1, 0], [0, 1], [0, 0], [0, 0]), MalformedMeasure, "sum to"),
        (None, _measure, ([1.0], [1, 0], [1], [1], [1]), MalformedMeasure, "subset a has shape"),
        (None, _measure, ([NAN, 1.0], [1, 0], [0, 1], [0, 0], [0, 0]), MalformedMeasure, "finite"),
    ],
    "TestEnumeration.test_outcome_validation": [
        (None, DeterministicStrategy, (2, 1, False, False), ValueError,
         "x1 outcome must be -1, 0, or"),
    ],
    "TestFeasibility.test_component_validation": [
        (None, lhv_feasible, ((0.2, 0.2, 0.2, 1.5),), InvalidQVector, "q4 = 1.5 lies outside"),
        (None, lhv_feasible, ((-0.2, 0.2, 0.2, 0.5),), InvalidQVector, "q1 = -0.2 lies outside"),
        (None, lhv_feasible, ((0.2, 0.2, 0.2),), InvalidQVector, "expected 4 or 6 components"),
    ],
    # -- search: Schmidt states, the construction, the optimizer, the Werner crossing ------
    "TestSchmidtState.test_angle_range": [
        (None, SchmidtState, (-0.1,), ValueError, r"angle must lie in \[0, pi/4\]"),
        (None, SchmidtState, (pi / 3,), ValueError, r"angle must lie in \[0, pi/4\]"),
    ],
    "TestHardyObservables.test_product_state_rejected": [
        (None, hardy_observables, (SchmidtState(0.0),), NotEntangled, "too little entanglement"),
        # q4 can reach only ~1e-10 here, below the default tol.
        (None, hardy_observables, (SchmidtState(1e-5),), NotEntangled, "too little entanglement"),
    ],
    "TestHardyObservables.test_maximally_entangled_rejected": [
        (None, hardy_observables, (SchmidtState(pi / 4),), MaximallyEntangled,
         "too close to maximal entanglement"),
        (None, hardy_observables, (SchmidtState(pi / 4 - 1e-5),), MaximallyEntangled,
         "too close to maximal entanglement"),
    ],
    # From (5 sqrt 5 - 11)/2 up, no Schmidt angle can clear tol.
    "TestHardyObservables.test_tol_validated": [
        (str(tol), hardy_observables, (SchmidtState(0.3), tol), ValueError, "tol")
        for tol in (NAN, 0.0, -1.0, INF, (5 * sqrt(5) - 11) / 2, 0.5, 1e300)
    ],
    "TestOptimizeViolation.test_input_validation": [
        (None, optimize_violation, (singlet(), "maximize_everything"), ValueError, "objective"),
        (None, optimize_violation, (QuantumState.pure([1.0] + [0.0] * 8, (3, 3)),
                                    "maximize_upper"), DimensionMismatch, "qubit"),
        (None, partial(SearchConfig, restarts=0), (), ValueError, "restarts must be positive"),
        *((None, partial(SearchConfig, restarts=bad), (), ValueError,
           r"^restarts must be positive and integral, got (nan|2\.5|inf)$")
          for bad in (NAN, 2.5, INF)),
    ],
    "TestWernerSweep.test_no_crossing_below_half_visibility": [
        (None, werner_sweep, (REFERENCE, 0.0, 0.5), NoCrossing, "never exceeds"),
    ],
    "TestWernerSweep.test_interval_validation": [
        (None, werner_sweep, (REFERENCE, 0.9, 0.2), ValueError, "need 0 <= v_lo < v_hi <= 1"),
        (None, werner_sweep, (REFERENCE, 0.0, 1.5), ValueError, "need 0 <= v_lo < v_hi <= 1"),
    ],
}

CLI = {
    # Range checks before any work, and huge input that must not warn.
    "TestErrorContract.test_cli": [
        ("werner-sweep-range", ("sweep", "--family", "werner", "--lo=-1e308", "--hi=1e308",
                                "--steps", "3"),
         3, r"^ValueError: werner sweep needs lo, hi in \[0, 1\]"),
        ("eval-huge-projector", ("eval", "--state", _PRODUCT, "--scenario", _huge_y2_scenario()),
         3, "^ValueError: .* is not idempotent"),
        ("eval-huge-dim-no-outcomes", ("eval", "--state", _PRODUCT, "--scenario",
                                       {**_REFERENCE_SCENARIO, "x1": {"dim": 10**6, "outcomes": []}}),
         3, "^ValueError: observable needs at least one outcome$"),
        ("eval-huge-amplitude",
         ("eval", "--state", {**_PRODUCT, "data": [[1e200, 0]] + _PRODUCT["data"][1:]},
          "--scenario", _BLOCH_SCENARIO),
         3, "^ValueError: pure state squared norm inf"),
        # Rejected by the parser, so no sweep runs and nothing is allocated.
        ("sweep-steps-above-cap", ("sweep", "--family", "werner", "--lo", "0", "--hi", "1",
                                   "--steps", "1000001"),
         2, "argument --steps: must be at most 1000000"),
        ("sweep-steps-far-above-cap", ("sweep", "--family", "schmidt", "--lo", "0.1", "--hi",
                                       "0.5", "--steps", "1000000000000"),
         2, "argument --steps: must be at most 1000000"),
        ("optimize-stdin-density-overflow",
         ("optimize", "--state", Stdin(_density_payload((3, 3, 0.25 + 1e308j))),
          "--objective", "upper"),
         3, "^ValueError: density matrix is not Hermitian within tolerance$"),
        ("eval-projector-gram-nan", ("eval", "--state", _PRODUCT, "--scenario", _GRAM_NAN_SCENARIO),
         3, r"^ValueError: projector for label 1.0 is not idempotent$"),
        ("hardy-band-lower", ("hardy", "--theta", "3.1622776638678034e-05"), 3,
         "^NoSolution: constructed q = .* is not a HardyViolation"),
    ],
    "TestEval.test_unknown_state_kind_is_domain_error": [
        (None, ("eval", "--state", {**_PRODUCT, "kind": "garbage"}, "--scenario", _BLOCH_SCENARIO),
         3, "^ValueError: .*'pure' or 'density'"),
    ],
    "TestEval.test_numeric_string_dimension_is_domain_error": [
        (None, ("eval", "--state", _state_payload(dims=["2", 2]), "--scenario", _BLOCH_SCENARIO),
         3, "^ValueError: dims must be a pair of integers"),
    ],
    "TestEval.test_missing_file_is_domain_error": [
        (None, ("eval", "--state", "/does/not/exist.json", "--scenario", _BLOCH_SCENARIO),
         3, "^FileNotFoundError: "),
    ],
    "TestLhvCheck.test_wrong_count_is_parse_error": [
        (None, ("lhv-check", "--q", "0.1,0.2"), 2, "expected 4 or 6"),
    ],
    "TestLhvCheck.test_out_of_range_is_domain_error": [
        (None, ("lhv-check", "--q", "0,0,0,1.5"), 3, "^InvalidQVector: "),
    ],
    "TestHardy.test_invalid_angles": [
        (None, ("hardy", "--theta", "0"), 3, "^NotEntangled: "),
        (None, ("hardy", "--theta", str(pi / 4)), 3, "^MaximallyEntangled: "),
        (None, ("hardy", "--theta", "0.785398"), 3, "^MaximallyEntangled: "),
    ],
    "TestHardy.test_nan_tol_is_domain_error": [
        (None, ("hardy", "--theta", "0.3", "--tol", "nan"), 3, "^ValueError: "),
    ],
    "TestHardy.test_unreachable_tol_is_bad_value": [
        (None, ("hardy", "--theta", "0.3", "--tol", "1e300"), 3, "^ValueError: .*5 sqrt 5 - 11"),
    ],
    "TestOptimize.test_malformed_state_json_is_domain_error": [
        (name, ("optimize", "--state", {**_PRODUCT, **change}, "--objective", "upper"),
         3, "^ValueError: ")
        for name, change in (
            ("pair", {"data": [[1]] + _PRODUCT["data"][1:]}), ("dims", {"dims": [2]})
        )
    ],
    "TestSweep.test_schmidt_near_maximal_entanglement_is_domain_error": [
        (None, ("sweep", "--family", "schmidt", "--lo", "0.5", "--hi", "0.78539", "--steps", "3"),
         3, "^MaximallyEntangled: "),
    ],
    "TestSweep.test_schmidt_range_checked_before_any_row": [
        (f"{lo}-{hi}", ("sweep", "--family", "schmidt", "--lo", lo, "--hi", hi, "--steps", "4"),
         3, r"^ValueError: schmidt sweep needs 0 < lo <= hi < pi/4")
        for lo, hi in (("0", "0.5"), ("0.2", "0.8"), ("0.6", "0.3"))
    ],
    "TestParsing.test_unknown_command": [
        (None, ("frobnicate",), 2, "invalid choice: 'frobnicate'"),
    ],
    "TestParsing.test_missing_required_argument": [
        (None, ("hardy",), 2, "the following arguments are required: --theta"),
    ],
}
# TestErrorContract's own rows are one case each, so no two may share an id.
for _rows in (LIBRARY["TestErrorContract.test_library"], CLI["TestErrorContract.test_cli"]):
    assert len({row[0] for row in _rows}) == len(_rows), "two rows share an id"


def raises_one_error(call, args, error, message) -> Exception:
    """``call(*args)`` raises exactly ``error``, with a message ``message`` finds, unwarned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            call(*args)
    assert type(info.value) is error, repr(info.value)
    assert re.search(message, str(info.value)), str(info.value)
    return info.value


def fails_cleanly(argv, code, stderr, tmp_path, capsys, monkeypatch) -> None:
    """``main(argv)`` exits with ``code``, no stdout and no traceback, and never warns."""
    args = []
    for index, arg in enumerate(argv):
        if isinstance(arg, Stdin):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(arg)))
            arg = "-"
        elif not isinstance(arg, str):
            path = tmp_path / f"arg{index}.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(args)
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    assert "Traceback" not in err
    assert re.search(stderr, err), err
    if code == 3:
        assert err.count("\n") == 1, err


def _cases(rows: list) -> list:
    """The pytest parameters of a group: one per distinct row id, with that id's rows."""
    ids = list(dict.fromkeys(row[0] for row in rows))
    return [pytest.param([row for row in rows if row[0] == i], id=i) for i in ids]


def _library_check(request, row) -> None:
    raises_one_error(*row[1:])


def _cli_check(request, row) -> None:
    fails_cleanly(*row[1:], *map(request.getfixturevalue, ("tmp_path", "capsys", "monkeypatch")))


class ErrorRows:
    """Assigned to ``test_x`` in ``class TestY``, becomes the test of table group ``TestY.test_x``.

    That test runs the group's rows of ``LIBRARY`` or ``CLI``; see the module docstring.
    """

    def __set_name__(self, owner, name: str) -> None:
        group = f"{owner.__name__}.{name}"
        if group in LIBRARY:
            rows, check = LIBRARY[group], _library_check
        else:
            rows, check = CLI[group], _cli_check
        if all(row[0] is None for row in rows):
            def test(_, request):
                for row in rows:
                    check(request, row)
        else:
            @pytest.mark.parametrize("case", _cases(rows))
            def test(_, request, case):
                for row in case:
                    check(request, row)
        setattr(owner, name, test)


class TestErrorContract:
    test_library = ErrorRows()
    test_cli = ErrorRows()


_AMPLITUDES = singlet().data
# Malformed states and observables, each as the arguments of its constructor and the
# message it raises. The decoders read the same values off the wire form and must raise
# the same error: their only checks of their own are the reading faults.
ONE_ERROR = [
    # The input that once named another fault from each entry point.
    ("found-mixed-nan", QuantumState, ([2, 2], "mixed", np.full((4, 4), NAN)),
     "^state data has non-finite entries$"),
    ("dims-5", QuantumState, (5, "pure", _AMPLITUDES), "^dims must be a pair of integers, got 5$"),
    ("dims-2-2-2", QuantumState, ([2, 2, 2], "pure", _AMPLITUDES),
     r"^dims must be a pair of integers, got \[2, 2, 2\]$"),
    ("dims-1-4", QuantumState, ([1, 4], "pure", _AMPLITUDES),
     "^subsystem dimensions must be at least 2$"),
    ("dims-2.5-2", QuantumState, ([2.5, 2], "pure", _AMPLITUDES),
     r"^dims must be a pair of integers, got \[2.5, 2\]$"),
    ("kind-mixed-finite", QuantumState, ([2, 2], "mixed", _AMPLITUDES),
     "^kind must be 'pure' or 'density', got 'mixed'$"),
    ("kind-mixed-nan", QuantumState, ([2, 2], "mixed", [0.6, 0.8, NAN, 0.0]),
     "^state data has non-finite entries$"),
    ("density-15-pairs", QuantumState, ([2, 2], "density", np.full(15, 0.25)),
     r"^density matrix must be 4x4, got shape \(15,\)$"),
    *((f"dim-{dim_id}", Observable, (dim, ((1.0, PLUS), (-1.0, MINUS))), message)
      for dim_id, dim, message in (("zero", 0, "^dimension must be positive$"),
                                   ("negative", -1, "^dimension must be positive$"),
                                   ("string", "2", "^dimensions must be integers, got '2'$"),
                                   ("boolean", True, "^dimensions must be integers, got True$"),
                                   ("fraction", 2.5, "^dimensions must be integers, got 2.5$"))),
    ("dim-2-3-pairs", Observable, (2, ((1.0, np.array([1.0, 0.0, 0.0])), (-1.0, MINUS))),
     "^projector for label 1.0 must be 2x2$"),
    ("dim-2-9-pairs", Observable, (2, ((1.0, np.diag([1.0, 0.0, 0.0])), (-1.0, MINUS))),
     "^projector for label 1.0 must be 2x2$"),
    ("label-null", Observable, (2, ((None, PLUS), (-1.0, MINUS))),
     "^outcome label must be a number, got None$"),
]


def _wire_form(build, args) -> dict:
    """The wire form of ``build(*args)``, through a JSON round trip as a file gives it."""
    if build is QuantumState:
        dims, kind, data = args
        payload = {"dims": dims, "kind": kind, "data": _pairs_from_complex(data)}
    else:
        dim, outcomes = args
        payload = {"dim": dim, "outcomes": [
            {"label": label, "projector": _pairs_from_complex(projector)}
            for label, projector in outcomes]}
    return json.loads(json.dumps(payload))


class TestOneErrorPerInput:
    @pytest.mark.parametrize("build, args, message",
                             [pytest.param(*row[1:], id=row[0]) for row in ONE_ERROR])
    def test_decoder_raises_the_constructors_error(self, build, args, message):
        decode = state_from_dict if build is QuantumState else observable_from_dict
        built = raises_one_error(build, args, ValueError, message)
        decoded = raises_one_error(decode, (_wire_form(build, args),), ValueError, message)
        assert (type(decoded), str(decoded)) == (type(built), str(built))


# -- CLI fuzz: argv drawn from the parser's grammar, numbers and JSON payloads mutated ----

_ODD_NUMBERS = ("nan", "inf", "-inf", "-0", "1e308", "-1e308", str(10**400), "abc", "", "1,2")
_NUMBERS = st.sampled_from(_ODD_NUMBERS) | st.floats(-2.0, 2.0).map(repr)
# Steps stay at most 200, so that a drawn sweep is cheap.
_STEPS = st.sampled_from(("0", "-1", "2.5", "1e308", "x")) | st.integers(1, 200).map(str)
_JSON_VALUES = st.sampled_from(
    (None, True, "x", "1", 0, -0.0, 2.5, 1e308, -1e308, 10**400, NAN, INF, [], {}, [1], [[1, 0]])
)
_PAYLOADS = (
    _state_payload(),
    state_to_dict(QuantumState.density(np.eye(4) / 4.0, (2, 2))),
    _REFERENCE_SCENARIO,
    _BLOCH_SCENARIO,
)


def _flag(name: str):
    return st.sampled_from(((), (name,)))


@st.composite
def _argv(draw) -> tuple[list[str], bool]:
    """An argv of one subcommand, and whether a JSON payload goes to stdin."""
    command = draw(st.sampled_from(("eval", "lhv-check", "vertices", "hardy", "optimize",
                                    "sweep", "demo", "frobnicate")))
    stdin = draw(st.booleans())
    source = "-" if stdin else draw(st.sampled_from(("{state}", "{scenario}", "/no/such.json")))
    if command == "eval":
        args = ["--state", source, "--scenario", "{scenario}", *draw(_flag("--json"))]
        if draw(st.booleans()):
            args[1], args[3] = "{state}", source
    elif command == "lhv-check":
        q = draw(st.lists(_NUMBERS, min_size=3, max_size=7))
        args = ["--q", ",".join(q), *draw(_flag("--json"))]
    elif command == "vertices":
        args = [*draw(_flag("--trichotomic")), *draw(_flag("--csv"))]
    elif command == "hardy":
        args = ["--theta", draw(_NUMBERS), *draw(_flag("--json"))]
        if draw(st.booleans()):
            args += ["--tol", draw(_NUMBERS)]
    elif command == "optimize":
        objective = draw(st.sampled_from(("upper", "lower", "middle")))
        args = ["--state", source, "--objective", objective, *draw(_flag("--json"))]
        if draw(st.booleans()):
            args += ["--restarts", draw(_STEPS), "--seed", draw(_NUMBERS)]
    elif command == "sweep":
        family = draw(st.sampled_from(("werner", "schmidt", "ghz")))
        lo, hi = draw(_NUMBERS), draw(_NUMBERS)
        args = ["--family", family, f"--lo={lo}", f"--hi={hi}", "--steps", draw(_STEPS)]
    else:
        args = draw(st.sampled_from((["singlet"], ["triplet"], [])))
    # Occasionally one argument is lost.
    if args and draw(st.integers(0, 9)) == 0:
        del args[draw(st.integers(0, len(args) - 1))]
    return [command, *args], stdin


@st.composite
def _payload(draw):
    """One of the reference payloads with up to three leaves replaced or deleted."""
    payload = json.loads(json.dumps(draw(st.sampled_from(_PAYLOADS))))
    for _ in range(draw(st.integers(0, 3))):
        places, stack = [], [payload]
        while stack:
            node = stack.pop()
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                places.append((node, key))
                if isinstance(node[key], (dict, list)):
                    stack.append(node[key])
        if not places:
            break
        node, key = draw(st.sampled_from(places))
        if draw(st.booleans()):
            node[key] = copy.deepcopy(draw(_JSON_VALUES))
        elif isinstance(node, dict):
            del node[key]
    return payload


@pytest.fixture(scope="module")
def payload_files(tmp_path_factory) -> dict:
    directory = tmp_path_factory.mktemp("payloads")
    for name, payload in (("state", _state_payload()), ("scenario", _BLOCH_SCENARIO)):
        (directory / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    return {name: str(directory / f"{name}.json") for name in ("state", "scenario")}


@settings(max_examples=300)
@given(drawn=_argv(), payload=_payload())
def test_cli_fuzz_exits_cleanly(payload_files, drawn, payload):
    argv, stdin = drawn
    argv = [arg.format(**payload_files) if arg.startswith("{") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with (
        pytest.MonkeyPatch.context() as patch,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        patch.setattr("sys.stdin", io.StringIO(json.dumps(payload) if stdin else ""))
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == "", argv
