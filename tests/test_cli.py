"""Command-line front end: outputs, exit codes, determinism, round trips."""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from math import pi, sqrt
from pathlib import Path

import numpy as np
import pytest

import hardykit
from hardykit import (
    Observable,
    QuantumState,
    Scenario,
    observable_to_dict,
    planar_scenario,
    q_vector,
    scenario_from_dict,
    scenario_to_dict,
    singlet,
    state_to_dict,
    werner_state,
)
from hardykit.cli import main
from hardykit.search import SchmidtState
from test_errors import ErrorRows


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's hardykit."""
    src = str(Path(hardykit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    path.write_text(json.dumps(state_to_dict(singlet())), encoding="utf-8")
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    # The reference planar configuration, written with the bloch shorthand.
    payload = {
        "x1": {"bloch": {"theta": pi / 2, "phi": 0.0}},
        "y1": {"bloch": {"theta": pi / 2, "phi": pi / 2}},
        "x2": {"bloch": {"theta": pi / 2, "phi": 3 * pi / 4}},
        "y2": {"bloch": {"theta": pi / 2, "phi": pi / 4}},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestDemo:
    def test_singlet_demo(self, capsys):
        code, out, err = run_cli(capsys, "demo", "singlet")
        assert code == 0
        assert err == ""
        assert "generalized = 1.20710678" in out
        assert "ch = 1.20710678" in out
        assert "classification = UpperBoundViolation" in out


class TestEval:
    def test_human_output(self, capsys, singlet_file, scenario_file):
        code, out, err = run_cli(
            capsys, "eval", "--state", singlet_file, "--scenario", scenario_file
        )
        assert code == 0
        assert "generalized = 1.20710678" in out
        assert "classification = UpperBoundViolation" in out

    def test_json_output(self, capsys, singlet_file, scenario_file):
        code, out, _ = run_cli(
            capsys, "eval", "--state", singlet_file, "--scenario", scenario_file, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["ch", "class", "generalized", "q"]
        assert payload["class"] == "UpperBoundViolation"
        assert payload["generalized"] == pytest.approx(0.5 * (1 + sqrt(2)), abs=1e-9)

    def test_state_from_stdin(self, capsys, monkeypatch, scenario_file):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(state_to_dict(werner_state(0.5))))
        )
        code, out, _ = run_cli(
            capsys, "eval", "--state", "-", "--scenario", scenario_file, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "NoViolation"

    test_unknown_state_kind_is_domain_error = ErrorRows()
    test_numeric_string_dimension_is_domain_error = ErrorRows()
    test_missing_file_is_domain_error = ErrorRows()


def _measurement(rng, d: int, labels: tuple) -> dict:
    """A random projective measurement in wire form; its first outcome takes the spare rank."""
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    ranks = [1] * len(labels)
    ranks[0] += d - len(labels)
    outcomes, start = [], 0
    for label, rank in zip(labels, ranks):
        cols = basis[:, start:start + rank]
        outcomes.append((label, cols @ cols.conj().T))
        start += rank
    return observable_to_dict(Observable(d, tuple(outcomes)))


def _random_density(rng, dims: tuple) -> dict:
    n = dims[0] * dims[1]
    factor = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = factor @ factor.conj().T
    return state_to_dict(QuantumState.density(rho / np.trace(rho).real, dims))


@pytest.fixture
def decoding_files(tmp_path) -> dict:
    """State and scenario files for both decoder paths, each also with one overlap in y2.

    ``scenario`` (x1 in the bloch shorthand, sides of dimension 2 and 3) takes the
    sequential path; ``scenario33`` (four explicit qutrit observables) the one pass.
    """
    rng = np.random.default_rng(5)
    payloads = {"state": _random_density(rng, (2, 3))}
    payloads["scenario"] = {
        "x1": {"bloch": {"theta": 1.0, "phi": 0.5}},
        "y1": _measurement(rng, 2, (1.0, 2.0)),
        "x2": _measurement(rng, 3, (-1.0, 1.0)),
        "y2": _measurement(rng, 3, (1.0, 0.5, -3.0)),
    }
    u = np.ones(3) / np.sqrt(3.0)
    overlap = [[float(v), 0.0] for v in np.outer(u, u).reshape(-1)]
    payloads["state33"] = _random_density(rng, (3, 3))
    payloads["scenario33"] = {
        "x1": _measurement(rng, 3, (-1.0, 0.0, 1.0)),
        "y1": _measurement(rng, 3, (1.0, 2.0)),
        "x2": _measurement(rng, 3, (-1.0, 0.0, 1.0)),
        "y2": _measurement(rng, 3, (1.0, 0.5, -3.0)),
    }
    # The same qutrit scenario with one float dim, which sends it down the sequential path.
    payloads["sequential33"] = copy.deepcopy(payloads["scenario33"])
    payloads["sequential33"]["y1"]["dim"] = 3.0
    for name in ("scenario", "scenario33"):
        bad = payloads[f"bad_{name}"] = copy.deepcopy(payloads[name])
        bad["y2"]["outcomes"][0]["projector"] = overlap  # the only fault
    paths = {}
    for name, payload in payloads.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(payload), encoding="utf-8")
    return paths


def _eval(capsys, state: str, scenario: str, *flags: str) -> tuple[int, str, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, "eval", "--state", state, "--scenario", scenario, *flags)


class TestScenarioDecodingEndToEnd:
    """``eval`` on both decoder paths: a report for valid files, one ValueError line otherwise."""

    @pytest.mark.parametrize("state, scenario", [
        ("state", "scenario"), ("state33", "scenario33"), ("state33", "sequential33"),
    ])
    def test_valid_files_print_a_report(self, capsys, decoding_files, state, scenario):
        code, out, err = _eval(capsys, decoding_files[state], decoding_files[scenario], "--json")
        assert (code, err) == (0, "")
        assert sorted(json.loads(out)) == ["ch", "class", "generalized", "q"]

    def test_one_pass_prints_the_sequential_bytes(self, capsys, decoding_files):
        state = decoding_files["state33"]
        one_pass = _eval(capsys, state, decoding_files["scenario33"], "--json")
        sequential = _eval(capsys, state, decoding_files["sequential33"], "--json")
        assert one_pass == sequential and one_pass[0] == 0

    @pytest.mark.parametrize("state, scenario", [
        ("state", "bad_scenario"), ("state33", "bad_scenario33"),
    ])
    def test_overlapping_projectors_fail_cleanly(self, capsys, decoding_files, state, scenario):
        code, out, err = _eval(capsys, decoding_files[state], decoding_files[scenario])
        assert (code, out) == (3, "")
        assert err.startswith("ValueError: ") and err.count("\n") == 1, err
        assert "not orthogonal" in err and "Warning" not in err


def _qutrit_measurement(basis: np.ndarray, labels: tuple) -> Observable:
    return Observable(3, tuple((label, np.outer(basis[:, i], basis[:, i].conj()))
                               for i, label in enumerate(labels)))


@pytest.fixture
def json_files(tmp_path) -> dict:
    """A valid qutrit pair, and malformed files whose one error is the constructor's."""
    phi = np.eye(3).reshape(9) / np.sqrt(3.0)
    rho = 0.8 * np.outer(phi, phi) + 0.2 * np.eye(9) / 9.0
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3.0) / np.sqrt(3.0)
    scenario = Scenario(
        x1=_qutrit_measurement(np.eye(3), (-1.0, 0.0, 1.0)),
        y1=_qutrit_measurement(fourier, (1.0, 2.0, 3.0)),
        x2=_qutrit_measurement(fourier.conj(), (-1.0, 0.0, 1.0)),
        y2=_qutrit_measurement(np.eye(3), (1.0, 2.0, 3.0)),
    )
    qubits = scenario_to_dict(planar_scenario(0.0, pi / 2, 3 * pi / 4, pi / 4))
    x1 = qubits["x1"]
    first = x1["outcomes"][0]
    payloads = {
        "state": state_to_dict(QuantumState.density(rho, (3, 3))),
        "scenario": scenario_to_dict(scenario),
        "bad_state": {"dims": [3, 3], "kind": "garbage", "data": [[1, 0]] * 9},
        "singlet": state_to_dict(singlet()),
        "qubits": qubits,
        "mixed_nan": {"dims": [2, 2], "kind": "mixed", "data": [[float("nan"), 0.0]] * 16},
        "dims_5": {**state_to_dict(singlet()), "dims": 5},
        "density_15_pairs": {"dims": [2, 2], "kind": "density", "data": [[0.25, 0.0]] * 15},
        "x1_dim_0": {**qubits, "x1": {**x1, "dim": 0}},
        "x1_3_pairs": {**qubits, "x1": {**x1, "outcomes": [
            {**first, "projector": first["projector"][:3]}, *x1["outcomes"][1:]]}},
    }
    paths = {}
    for name, payload in payloads.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(payload), encoding="utf-8")
    return paths


class TestJsonDecodeEndToEnd:
    """``eval`` on a qutrit density and trichotomic scenario, and on malformed files."""

    def test_qutrit_density_prints_a_report(self, capsys, json_files):
        code, out, err = _eval(capsys, json_files["state"], json_files["scenario"], "--json")
        assert (code, err) == (0, "")
        assert sorted(json.loads(out)) == ["ch", "class", "generalized", "q"]

    def test_six_component_json(self, capsys):
        code, out, err = run_cli(capsys, "lhv-check", "--q", "0.1,0.2,0.1,0.3,0.05,0.05", "--json")
        assert (code, err) == (0, "")
        assert "feasible" in json.loads(out)

    def test_unknown_state_kind_exits_3(self, capsys, json_files):
        code, out, err = _eval(capsys, json_files["bad_state"], json_files["scenario"])
        assert (code, out) == (3, "")
        assert err == "ValueError: kind must be 'pure' or 'density', got 'garbage'\n"

    @pytest.mark.parametrize("state, scenario", [
        ("mixed_nan", "qubits"), ("dims_5", "qubits"), ("density_15_pairs", "qubits"),
        ("singlet", "x1_dim_0"), ("singlet", "x1_3_pairs"),
    ])
    def test_malformed_file_fails_cleanly(self, capsys, json_files, state, scenario):
        code, out, err = _eval(capsys, json_files[state], json_files[scenario])
        assert (code, out) == (3, "")
        assert err.startswith("ValueError:") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_non_finite_entries_are_named_first(self, capsys, json_files):
        code, _, err = _eval(capsys, json_files["mixed_nan"], json_files["qubits"])
        assert (code, err) == (3, "ValueError: state data has non-finite entries\n")


_REFERENCE_ANGLES = (0.0, pi / 2, 3 * pi / 4, pi / 4)


def _optimize_singlet(capsys, singlet_file, *flags: str) -> str:
    code, out, err = run_cli(capsys, "optimize", "--state", singlet_file, "--objective", "upper",
                             *flags)
    assert (code, err) == (0, "")
    return out


class TestSingletOptimizerEndToEnd:
    """``optimize`` on the singlet file: the closed form's reference configuration, printed."""

    def test_plain_output_is_the_reference_configuration(self, capsys, singlet_file):
        out = _optimize_singlet(capsys, singlet_file)
        plain = dict(line.split(" = ", 1) for line in out.splitlines())
        assert plain["value"] == format((1.0 + sqrt(2.0)) / 2.0, ".9g"), plain
        assert plain["angles"] == "(" + ", ".join(format(a, ".9g") for a in _REFERENCE_ANGLES) + ")"

    def test_json_agrees_with_plain(self, capsys, singlet_file):
        plain = dict(line.split(" = ", 1) for line in
                     _optimize_singlet(capsys, singlet_file).splitlines())
        result = json.loads(_optimize_singlet(capsys, singlet_file, "--json"))
        assert format(result["value"], ".9g") == plain["value"], result
        assert result["angles"] == list(_REFERENCE_ANGLES), result

    def test_rebuilt_settings_give_the_printed_value(self, capsys, tmp_path, singlet_file):
        result = json.loads(_optimize_singlet(capsys, singlet_file, "--json"))
        rebuilt = scenario_to_dict(planar_scenario(*result["angles"], plane="xz"))
        path = tmp_path / "rebuilt.json"
        path.write_text(json.dumps(rebuilt), encoding="utf-8")
        code, out, err = _eval(capsys, singlet_file, str(path), "--json")
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["generalized"] - result["value"]) <= 1e-12


_THETA_STAR = 0.43469234373109417  # asin(3 - sqrt 5)/2, where the construction's q4 peaks


class TestHardyConstructionEndToEnd:
    """``hardy --json`` prints a construction, and just inside the band edge exits 3."""

    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "hardy", "--theta", "0.3", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert sorted(payload) == ["q", "scenario", "theta"] and payload["theta"] == 0.3, payload

    def test_just_above_the_lower_threshold_is_no_solution(self, capsys):
        # There the construction is not a Hardy violation at tol 1e-9.
        code, out, err = run_cli(capsys, "hardy", "--theta", "3.1622776638678034e-05")
        assert (code, out) == (3, "")
        assert err.startswith("NoSolution:") and err.count("\n") == 1, err


class TestHardyDirectionsEndToEnd:
    """Plain ``hardy`` prints xz-plane directions; ``eval`` of its ``--json`` scenario, its q."""

    def test_plain_directions_are_xz_unit_vectors(self, capsys):
        # Plain output is the one path that reads a constructed scenario's observables.
        code, out, err = run_cli(capsys, "hardy", "--theta", "0.3")
        assert (code, err) == (0, "")
        directions = [line.split(" direction = ") for line in out.splitlines()
                      if " direction = " in line]
        assert [name for name, _ in directions] == ["x1", "y1", "x2", "y2"], out
        for name, text in directions:
            x, y, z = (float(cell) for cell in text.strip("()").split(","))
            # Unit vectors in the xz plane, to the 9 digits printed.
            assert y == 0.0 and abs(x * x + z * z - 1.0) < 1e-8, (name, text)

    @pytest.mark.parametrize("theta", ["0.05", "0.3", repr(_THETA_STAR), "0.7"])
    def test_decoded_scenario_gives_the_same_q(self, capsys, tmp_path, theta):
        # The construction sums its table in Python; eval contracts the decoded
        # scenario's with the kernel. The printed q lists are equal exactly.
        code, out, err = run_cli(capsys, "hardy", "--theta", theta, "--json")
        assert (code, err) == (0, "")
        hardy = json.loads(out)
        state, scenario = tmp_path / "state.json", tmp_path / "scenario.json"
        state.write_text(json.dumps(state_to_dict(SchmidtState(float(theta)).state())),
                         encoding="utf-8")
        scenario.write_text(json.dumps(hardy["scenario"]), encoding="utf-8")
        code, out, err = _eval(capsys, str(state), str(scenario), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["q"] == hardy["q"], (json.loads(out)["q"], hardy["q"])


class TestSchmidtSweepEndToEnd:
    """``sweep --family schmidt``: every row a Hardy construction, and its bytes pinned."""

    def test_rows_are_hardy_constructions(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--family", "schmidt", "--lo", "0.05",
                                 "--hi", "0.75", "--steps", "5")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5, rows
        for row in rows:
            q1, q2, q3, q4, gen, ch = (float(row[key]) for key in
                                       ("q1", "q2", "q3", "q4", "generalized", "ch"))
            # Three zeros, and both expressions equal -q4.
            assert max(q1, q2, q3) < 1e-9, row
            assert abs(gen + q4) <= 1e-9, row
            assert abs(ch - gen) <= 1e-9, row


# sha256 of stdout, recorded under numpy 2.4.6: the construction rows while every construction
# still contracted its table with the kernel, and the demo and Werner rows (pairs evaluated anew,
# not read from a construction's record) while each scenario still kept its last evaluated pair.
# Another numpy may print other digits in --json output.
_PINNED_STDOUT = {
    "demo": (("demo", "singlet"),
             "bb6da829f02ac53e42b677049cfa808c5287ecda76ac45ad95de2e7a08a1ba5d"),
    "werner-sweep": (("sweep", "--family", "werner", "--lo", "0", "--hi", "1", "--steps", "2000"),
                     "457dafa0e0a298ee6c8093f9a8020f52ce915bbce960e7beb49e47fda700702a"),
    "sweep": (("sweep", "--family", "schmidt", "--lo", "0.05", "--hi", "0.7", "--steps", "2000"),
              "0eb71cfabeef63a621386e69f2baf2fc74f456476d052c270a0ad9785c4bc2d0"),
    "hardy-0.05": (("hardy", "--theta", "0.05", "--json"),
                   "8690f9dc806138444b8c073964e69da583ef6364bc610ec91f53633d374f53ab"),
    "hardy-0.3": (("hardy", "--theta", "0.3", "--json"),
                  "8e84aed4b9577ea0e9d164d50b052bc27c357648b3233d8903aa6b7c7d13ba15"),
    "hardy-theta-star": (("hardy", "--theta", repr(_THETA_STAR), "--json"),
                         "8a8926d7e0b051dd0f6dc5cf9e1dc3d420961cc9d77ff2e41fe945e779756727"),
    "hardy-0.7": (("hardy", "--theta", "0.7", "--json"),
                  "874648282ba2550fc4eb49e7023cace2ff09fd8a6a0094bb254f359ed17af17f"),
}


@pytest.mark.parametrize("name", list(_PINNED_STDOUT))
def test_construction_stdout_is_pinned(capsys, name):
    argv, digest = _PINNED_STDOUT[name]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_qutrit_eval_stdout_is_pinned(capsys, json_files):
    # Four explicit qutrit observables take the one-pass decode, and the pair is evaluated anew.
    code, out, err = _eval(capsys, json_files["state"], json_files["scenario"], "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ed08956defc9060180e0f6d9b7d6aca13459e7ace9f3d6af3b50aab24ae1a319")


class TestLhvCheck:
    def test_hardy_point(self, capsys):
        code, out, _ = run_cli(capsys, "lhv-check", "--q", "0,0,0,0.05")
        assert code == 0
        assert "feasible = false" in out

    def test_feasible_point_json(self, capsys):
        code, out, _ = run_cli(capsys, "lhv-check", "--q", "0.25,0.25,0.25,0.25", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert len(payload["witness"]) == 16
        assert payload["residual"] == 0.0

    def test_feasible_point_plain(self, capsys):
        code, out, _ = run_cli(capsys, "lhv-check", "--q", "0.1,0.1,0.1,0.2")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["feasible = true", "residual = 0"]
        assert lines[2].startswith("witness = (") and lines[2].endswith(")")
        weights = [float(w) for w in lines[2][len("witness = ("):-1].split(", ")]
        assert len(weights) == 16 and abs(sum(weights) - 1.0) < 1e-8

    def test_six_components(self, capsys):
        code, out, _ = run_cli(capsys, "lhv-check", "--q", "0.1,0.1,0.1,0.1,0.1,0.1", "--json")
        assert code == 0
        assert len(json.loads(out)["witness"]) == 36

    test_wrong_count_is_parse_error = ErrorRows()
    test_out_of_range_is_domain_error = ErrorRows()

    def test_solver_runtime_error_is_domain_error(self, capsys, monkeypatch):
        def fail(*_args):
            raise RuntimeError("feasibility check failed")

        monkeypatch.setattr("hardykit.cli.lhv_feasible", fail)
        code, out, err = run_cli(capsys, "lhv-check", "--q", "0.25,0.25,0.25,0.25")
        assert code == 3
        assert out == ""
        assert err == "RuntimeError: feasibility check failed\n"


class TestVertices:
    def test_dichotomic_table(self, capsys):
        code, out, _ = run_cli(capsys, "vertices")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 17  # header + 16 rows
        for line in lines[1:]:
            assert line.strip().split()[-1] in ("0", "1")

    def test_trichotomic_csv(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--trichotomic", "--csv")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "x1,x2,y1,y2,value"
        assert len([line for line in lines[1:] if line]) == 36
        assert "\r" not in out


class TestHardy:
    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--theta", "0.3926990816987241")
        assert code == 0
        assert "q = (" in out
        assert "x1 direction" in out

    def test_json_round_trip(self, capsys):
        theta = 0.3926990816987241
        code, out, _ = run_cli(capsys, "hardy", "--theta", str(theta), "--json")
        assert code == 0
        payload = json.loads(out)
        scenario = scenario_from_dict(payload["scenario"])
        q = q_vector(SchmidtState(theta).state(), scenario)
        assert np.max(np.abs(np.asarray(q.components()) - np.asarray(payload["q"]))) < 1e-15

    test_invalid_angles = ErrorRows()
    test_nan_tol_is_domain_error = ErrorRows()
    test_unreachable_tol_is_bad_value = ErrorRows()

    def test_planar_directions_have_exact_zero_y(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--theta", "0.2")
        assert code == 0
        directions = [line for line in out.splitlines() if " direction = " in line]
        assert len(directions) == 4
        for line in directions:
            assert line.split(" = ")[1].split(", ")[1] == "0"


class TestOptimize:
    test_malformed_state_json_is_domain_error = ErrorRows()

    def test_separable_state(self, capsys, tmp_path):
        path = tmp_path / "product.json"
        payload = {"dims": [2, 2], "kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "optimize", "--state", str(path), "--objective", "upper",
            "--restarts", "3", "--seed", "1", "--json",
        )
        assert code == 0
        result = json.loads(out)
        assert sorted(result) == ["angles", "objective", "value"]
        assert result["value"] == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_for_fixed_seed(self, capsys, singlet_file):
        argv = (
            "optimize", "--state", singlet_file, "--objective", "upper",
            "--restarts", "3", "--seed", "11",
        )
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_werner_file_both_objectives_and_eval(self, capsys, tmp_path):
        # A density read from a file reaches both extreme values, (1 +- 0.9 sqrt 2)/2,
        # and eval reads the same file; nothing warns.
        state, scenario = tmp_path / "werner.json", tmp_path / "scenario.json"
        state.write_text(json.dumps(state_to_dict(werner_state(0.9))), encoding="utf-8")
        scenario.write_text(json.dumps(scenario_to_dict(planar_scenario(*_REFERENCE_ANGLES))),
                            encoding="utf-8")
        for argv, value in (
            (("optimize", "--state", str(state), "--objective", "upper", "--json"),
             (1.0 + 0.9 * sqrt(2.0)) / 2.0),
            (("optimize", "--state", str(state), "--objective", "lower", "--json"),
             (1.0 - 0.9 * sqrt(2.0)) / 2.0),
            (("eval", "--state", str(state), "--scenario", str(scenario), "--json"),
             (1.0 + 0.9 * sqrt(2.0)) / 2.0),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, *argv)
            assert (code, err, [str(w.message) for w in caught]) == (0, "", []), argv
            result = json.loads(out)
            assert abs(result.get("value", result.get("generalized")) - value) <= 1e-12, result


class TestSweep:
    def test_werner_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "werner", "--lo", "0", "--hi", "1", "--steps", "5"
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "parameter,q1,q2,q3,q4,q5,q6,generalized,ch"
        rows = [line for line in lines[1:] if line]
        assert len(rows) == 5
        assert rows[-1].startswith("1,")
        assert "1.20710678" in rows[-1]
        assert "\r" not in out

    def test_werner_csv_is_deterministic(self, capsys):
        argv = ("sweep", "--family", "werner", "--lo", "0", "--hi", "1", "--steps", "7")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_schmidt_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "schmidt", "--lo", "0.2", "--hi", "0.6", "--steps", "4"
        )
        assert code == 0
        rows = [line for line in out.split("\n")[1:] if line]
        assert len(rows) == 4
        for row in rows:
            cells = row.split(",")
            assert float(cells[1]) < 1e-9  # q1 vanishes along the construction
            assert float(cells[8]) < 0.0  # lower bound violated

    test_schmidt_near_maximal_entanglement_is_domain_error = ErrorRows()
    test_schmidt_range_checked_before_any_row = ErrorRows()


class TestParsing:
    test_unknown_command = ErrorRows()
    test_missing_required_argument = ErrorRows()

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestFreshProcess:
    def test_module_entry_point_matches_main(self, capsys):
        expected = run_cli(capsys, "demo", "singlet")
        done = run_python("-m", "hardykit.cli", "demo", "singlet")
        assert (done.returncode, done.stdout, done.stderr) == expected
        assert run_python("-m", "hardykit.cli", "frobnicate").returncode == 2

    def test_package_entry_point_matches_main(self, capsys):
        expected = run_cli(capsys, "lhv-check", "--q", "0,0,0,0.05")
        done = run_python("-m", "hardykit", "lhv-check", "--q", "0,0,0,0.05")
        assert (done.returncode, done.stdout, done.stderr) == expected
        assert run_python("-m", "hardykit", "frobnicate").returncode == 2

    def test_import_loads_no_scipy(self):
        done = run_python(
            "-c",
            "import hardykit, sys; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])",
        )
        assert done.returncode == 0
        assert done.stdout == "[]\n"

    def test_optimize_json_has_no_trace(self, singlet_file):
        done = run_python(
            "-m", "hardykit.cli", "optimize", "--state", singlet_file, "--objective", "upper",
            "--json",
        )
        assert done.returncode == 0
        result = json.loads(done.stdout)
        assert "trace" not in result
        assert result["value"] == pytest.approx(0.5 * (1 + sqrt(2)), abs=1e-12)
