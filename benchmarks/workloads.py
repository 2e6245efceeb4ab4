"""The three benchmark workloads: seeded inputs, one item each, and its checks.

Every input is generated from the workload seed as plain arrays or JSON-form
dicts before timing starts; hardykit only ever receives those. Each workload
calls hardykit through the package namespace at call time, so the traced run
can swap in wrappers. ``check`` compares an item's output with the numpy
references in ``reference.py`` and returns None, ``"failed"`` (the operation
raised, or refused or accepted what it should not) or ``"wrong"`` (a returned
number disagrees with the reference).
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import pi, sqrt
from pathlib import Path

import numpy as np

import reference as ref

# Optimizer restarts per item. One restart is the search's unit of work: at
# the CLI default of 20 an item costs ~5 s and a run would hold a handful of
# items; at one restart an item costs ~0.2 s (planar) or ~0.6 s (full Bloch).
RESTARTS = 1
# In-plane angles (x1, y1, x2, y2) of the reference configuration that
# `hardykit demo singlet` evaluates; its Werner crossing is 1/sqrt(2).
REFERENCE_ANGLES = (0.0, pi / 2, 3 * pi / 4, pi / 4)

ZERO_TOL = 1e-9        # construct: q1, q2, q3 below this
Q4_TOL = 1e-9          # construct: q4 against the closed form
CROSSING_TOL = 1e-6    # construct: Werner crossing against 1/sqrt(2)
PROB_TOL = 1e-10       # certify/optimize: probabilities and expression values
LP_TOL = 1e-9          # certify: witness weights and feasibility margin
BOUND_GAP_TOL = 1e-8   # optimize: distance to the exact qubit bound
BOUND_EXCESS_TOL = 1e-9  # optimize: the value may never pass the bound by more

# Schmidt angles stay this far inside (0, pi/4). Nearer the ends the exact q4
# drops below the construction's 1e-9 tolerance (below 1e-9 within ~3e-5 of
# either end) and hardy_observables refuses by design with NoSolution.
THETA_MARGIN = 1e-3

_STREAM_WARMUP, _STREAM_POOL, _STREAM_CLI = 0, 1, 2


def _singlet_density() -> np.ndarray:
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / sqrt(2.0)
    return np.outer(amps, amps.conj())


def _projector_map(observable) -> dict[float, np.ndarray]:
    return {float(label): np.asarray(proj) for label, proj in observable.outcomes}


def _scenario_map(scenario) -> dict[str, dict[float, np.ndarray]]:
    return {k: _projector_map(getattr(scenario, k)) for k in ("x1", "y1", "x2", "y2")}


class Workload:
    """Shared bookkeeping; subclasses define the inputs, the item and its checks."""

    name = ""
    block = 1  # items per throughput block: one full cycle of the input mix

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.seed = seed
        self.stats: dict[str, float] = {}

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed % 2**64, stream])

    def note_max(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, value), value)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.stats[key] = self.stats.get(key, 0.0) + amount


# ---------------------------------------------------------------------------

OptimizeItem = namedtuple("OptimizeItem", "rho planar objective search_seed bound")

# Objectives alternate on every item; every sixth item is full-Bloch, once per
# objective in each cycle. Full-Bloch items (~0.65 s) take a third of the time.
# With a larger full-Bloch share, p50 or p75 would fall in the gap between the
# planar and full-Bloch latency clusters, or on a few full-Bloch order
# statistics, and jump from run to run.
_OPTIMIZE_MIX = tuple(
    (position not in (5, 10), "maximize_upper" if position % 2 == 0 else "minimize_lower")
    for position in range(12)
)


class Optimize(Workload):
    """optimize_violation on singlet-blended random two-qubit density matrices."""

    name = "optimize"
    block = 6  # each half of the mix cycle holds five planar items and one full-Bloch item

    def _density(self, rng) -> np.ndarray:
        rank = int(rng.integers(1, 5))
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        noise = g @ g.conj().T
        noise /= np.trace(noise).real
        weight = rng.uniform(0.6, 1.0)
        rho = weight * _singlet_density() + (1.0 - weight) * noise
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    def _items(self, rng, count: int) -> list[OptimizeItem]:
        items = []
        for i in range(count):
            planar, objective = _OPTIMIZE_MIX[i % len(_OPTIMIZE_MIX)]
            rho = self._density(rng)
            bound = ref.qubit_bound(rho, objective == "maximize_upper", planar)
            items.append(OptimizeItem(rho, planar, objective, int(rng.integers(2**31)), bound))
        return items

    def warmup(self):
        return self._items(self.rng(_STREAM_WARMUP), self.block)

    def pool(self):
        return self._items(self.rng(_STREAM_POOL), 20 * len(_OPTIMIZE_MIX))

    def run(self, item: OptimizeItem):
        hk = self.hk
        state = hk.QuantumState.density(item.rho, (2, 2))
        config = hk.SearchConfig(restarts=RESTARTS, seed=item.search_seed)
        return hk.optimize_violation(state, item.objective, config, planar=item.planar)

    @staticmethod
    def _check_value(rho, projectors, value, bound, upper) -> tuple[str | None, float]:
        """(problem, gap): the value must be reproduced and never pass the bound."""
        q, _ = ref.scenario_probabilities(rho, projectors)
        if abs(ref.expression(q) - value) > PROB_TOL:
            return "wrong", 0.0
        if (value - bound if upper else bound - value) > BOUND_EXCESS_TOL:
            return "wrong", 0.0
        return None, abs(value - bound)

    def check(self, item, out, err):
        if err is not None:
            return "failed"
        problem, gap = self._check_value(
            item.rho, _scenario_map(out.scenario), out.value, item.bound,
            item.objective == "maximize_upper",
        )
        # Falling short of the exact bound is the search stopping early at this
        # restart budget: it is counted here, not failed (see README).
        self.note_max("bound_gap_max", gap)
        self.count("bound_checks")
        if gap > BOUND_GAP_TOL:
            self.count("bound_misses")
        return problem

    def cli_commands(self, workdir: Path):
        item = self._items(self.rng(_STREAM_CLI), 1)[0]
        payload = {"dims": [2, 2], "kind": "density", "data": ref.pairs_from_complex(item.rho)}
        state_path = workdir / "optimize_state.json"
        state_path.write_text(json.dumps(payload))
        self._cli_rho = item.rho
        self._cli_bound = ref.qubit_bound(item.rho, True, True)
        return [[
            "optimize", "--state", str(state_path), "--objective", "upper",
            "--restarts", str(RESTARTS), "--seed", str(item.search_seed), "--json",
        ]]

    def check_cli(self, outputs):
        result = json.loads(outputs[0])
        projectors = {}
        for name, angle in zip(("x1", "y1", "x2", "y2"), result["angles"]):
            plus = ref.spin_projector((np.sin(angle), 0.0, np.cos(angle)))
            projectors[name] = {1.0: plus, -1.0: np.eye(2) - plus}
        problem, gap = self._check_value(self._cli_rho, projectors, result["value"], self._cli_bound, True)
        self.note_max("cli_bound_gap", gap)
        return problem


# ---------------------------------------------------------------------------

ConstructItem = namedtuple("ConstructItem", "theta phi q4")


class Construct(Workload):
    """hardy_observables at a Schmidt angle, verified, plus one Werner bisection."""

    name = "construct"
    block = 16

    def _items(self, rng, count: int) -> list[ConstructItem]:
        # Stratified: one angle in each of `count` equal slices, in random order.
        # A few narrow angle ranges cost 2-3x the median, and i.i.d. draws would
        # vary their share, and so the tail, from seed to seed.
        strata = rng.permutation(count) + rng.uniform(size=count)
        thetas = THETA_MARGIN + strata / count * (pi / 4 - 2 * THETA_MARGIN)
        phis = rng.uniform(0.0, 2.0 * pi, size=count)
        return [ConstructItem(float(t), float(p), ref.hardy_q4(t)) for t, p in zip(thetas, phis)]

    def warmup(self):
        return self._items(self.rng(_STREAM_WARMUP), self.block)

    def pool(self):
        return self._items(self.rng(_STREAM_POOL), 64 * self.block)

    def run(self, item: ConstructItem):
        hk = self.hk
        schmidt = hk.SchmidtState(item.theta)
        scenario = hk.hardy_observables(schmidt)
        report = hk.witness_report(schmidt.state(), scenario)
        verdict = hk.lhv_feasible(report.qvec)
        rotated = hk.planar_scenario(*(a + item.phi for a in REFERENCE_ANGLES), plane="xy")
        return scenario, report, verdict, hk.werner_sweep(rotated)

    def check(self, item, out, err):
        if err is not None:
            return "failed"
        scenario, report, verdict, crossing = out
        psi = ref.schmidt_vector(item.theta)
        q, _ = ref.scenario_probabilities(np.outer(psi, psi.conj()), _scenario_map(scenario))
        zero, q4_err = float(max(q[:3])), abs(float(q[3]) - item.q4)
        self.note_max("hardy_zero_max", zero)
        self.note_max("hardy_q4_err_max", q4_err)
        self.note_max("crossing_err_max", abs(crossing - 1.0 / sqrt(2.0)))
        if zero >= ZERO_TOL or q4_err > Q4_TOL:
            return "wrong"
        # q1 = q2 = q3 = 0 < q4 puts the expression below 0, outside every local model.
        if report.classification != "HardyViolation" or verdict.feasible:
            return "wrong"
        if ref.expression(q) >= -LP_TOL:
            return "wrong"
        if abs(crossing - 1.0 / sqrt(2.0)) > CROSSING_TOL:
            return "wrong"
        return None

    def cli_commands(self, workdir: Path):
        rng = self.rng(_STREAM_CLI)
        lo, hi, steps = rng.uniform(0.02, 0.2), rng.uniform(0.55, 0.75), 12
        self._cli_grid = np.linspace(lo, hi, steps)
        return [["sweep", "--family", "schmidt", "--lo", repr(lo), "--hi", repr(hi),
                 "--steps", str(steps)]]

    def check_cli(self, outputs):
        lines = outputs[0].splitlines()
        if lines[0] != "parameter,q1,q2,q3,q4,q5,q6,generalized,ch":
            return "wrong"
        if len(lines) != len(self._cli_grid) + 1:
            return "wrong"
        for theta, line in zip(self._cli_grid, lines[1:]):
            cells = line.split(",")
            param, q1, q2, q3, q4 = (float(c) for c in cells[:5])
            gen, ch = float(cells[7]), float(cells[8])
            # Cells carry 9 significant digits.
            if abs(param - theta) > 1e-8 or cells[5] or cells[6]:
                return "wrong"
            if max(q1, q2, q3) >= ZERO_TOL or abs(q4 - ref.hardy_q4(theta)) > Q4_TOL:
                return "wrong"
            if abs(gen + q4) > Q4_TOL or abs(ch - gen) > Q4_TOL:
                return "wrong"
        return None


# ---------------------------------------------------------------------------

CertifyItem = namedtuple("CertifyItem", "state scenario kind expected")

# Valid pairs cover dims x state kind x x-arity x y-label count.
_VALID_MIX = [
    (d, kind, x_arity, y_labels)
    for d in (2, 3)
    for kind in ("pure", "density")
    for x_arity in (2, 3)
    for y_labels in (2, 3)
]
# One malformed pair after every six valid ones, cycling through these kinds.
# NaN is placed in turn in the state, in an x projector (read by q1..q6) and in
# a y projector of an outcome other than +1 (read by nothing).
_MALFORMED = (
    "unnormalised_state",
    "non_hermitian_state",
    "non_hermitian_projector",
    "non_orthogonal_projectors",
    "dims_mismatch",
    "nan_in_state",
    "nan_in_x_projector",
    "nan_in_unread_y_projector",
)
_MALFORMED_EVERY = 7


def _observable(rng, dim: int, labels) -> dict:
    """Random projective measurement in wire form; ranks split evenly."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(g)
    ranks = [dim // len(labels) + (1 if i < dim % len(labels) else 0) for i in range(len(labels))]
    rng.shuffle(ranks)
    outcomes, start = [], 0
    for label, rank in zip(labels, ranks):
        cols = unitary[:, start:start + rank]
        outcomes.append({"label": float(label), "projector": ref.pairs_from_complex(cols @ cols.conj().T)})
        start += rank
    return {"dim": dim, "outcomes": outcomes}


def _scenario(rng, dim: int, x_arity: int, y_labels: int) -> dict:
    x_spectrum = (1.0, -1.0) if x_arity == 2 else (1.0, 0.0, -1.0)
    scenario = {}
    for name in ("x1", "y1", "x2", "y2"):
        if name.startswith("x"):
            labels = x_spectrum
        else:
            others = rng.choice([-1.0, 0.0, 0.5, 2.0, -3.0], size=y_labels - 1, replace=False)
            labels = (1.0, *(float(v) for v in others))
        scenario[name] = _observable(rng, dim, labels)
    return scenario


def _state(rng, dim: int, kind: str) -> dict:
    n = dim * dim
    entangled = np.eye(dim).reshape(-1).astype(complex) / sqrt(dim)
    noise = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps = entangled + rng.uniform(0.0, 0.6) * noise / np.linalg.norm(noise)
    amps /= np.linalg.norm(amps)
    if kind == "pure":
        data = amps
    else:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mixed = g @ g.conj().T
        weight = rng.uniform(0.5, 1.0)
        rho = weight * np.outer(amps, amps.conj()) + (1.0 - weight) * mixed / np.trace(mixed).real
        rho = 0.5 * (rho + rho.conj().T)
        data = rho / np.trace(rho).real
    return {"dims": [dim, dim], "kind": kind, "data": ref.pairs_from_complex(data)}


def _corrupt(rng, kind: str, state: dict, scenario: dict) -> None:
    """Turn a valid pair into a malformed one of the given kind, in place."""
    dim = state["dims"][0]
    if kind == "unnormalised_state":
        state["data"] = [[1.01 * re, 1.01 * im] for re, im in state["data"]]
    elif kind == "non_hermitian_state":
        n = dim * dim
        rho = ref.density_from_dict(state)
        rho[0, 1] += 1e-3
        state.update(kind="density", data=ref.pairs_from_complex(rho.reshape(n * n)))
    elif kind == "non_hermitian_projector":
        scenario["x1"]["outcomes"][0]["projector"][1][1] += 1e-3
    elif kind == "non_orthogonal_projectors":
        u, v = rng.normal(size=dim), rng.normal(size=dim)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        scenario["x1"] = {"dim": dim, "outcomes": [
            {"label": 1.0, "projector": ref.pairs_from_complex(np.outer(u, u))},
            {"label": -1.0, "projector": ref.pairs_from_complex(np.eye(dim) - np.outer(v, v))},
        ]}
    elif kind == "dims_mismatch":
        other = 5 - dim
        scenario.clear()
        scenario.update(_scenario(rng, other, 2, 2))
    elif kind == "nan_in_state":
        entry = int(rng.integers(len(state["data"])))
        state["data"][entry] = [float("nan"), 0.0]
    else:
        name = "x1" if kind == "nan_in_x_projector" else "y2"
        outcome = scenario[name]["outcomes"][-1]
        entry = int(rng.integers(len(outcome["projector"])))
        outcome["projector"][entry] = [float("nan"), 0.0]


class Certify(Workload):
    """JSON pairs decoded, evaluated by witness_report and certified by lhv_feasible."""

    name = "certify"
    block = len(_VALID_MIX) * 3 + len(_MALFORMED)
    _vertices = {False: ref.vertex_matrix(False), True: ref.vertex_matrix(True)}

    @staticmethod
    def _valid(state: dict, scenario: dict) -> CertifyItem:
        rho = ref.density_from_dict(state)
        projectors = {k: ref.projectors_from_dict(v) for k, v in scenario.items()}
        return CertifyItem(state, scenario, "valid", ref.scenario_probabilities(rho, projectors))

    def _items(self, rng, count: int) -> list[CertifyItem]:
        items, valid, malformed = [], 0, 0
        for i in range(count):
            dim, kind, x_arity, y_labels = _VALID_MIX[valid % len(_VALID_MIX)]
            state, scenario = _state(rng, dim, kind), _scenario(rng, dim, x_arity, y_labels)
            if i % _MALFORMED_EVERY == _MALFORMED_EVERY - 1:
                bad = _MALFORMED[malformed % len(_MALFORMED)]
                malformed += 1
                _corrupt(rng, bad, state, scenario)
                items.append(CertifyItem(state, scenario, bad, None))
            else:
                valid += 1
                items.append(self._valid(state, scenario))
        return items

    def warmup(self):
        return self._items(self.rng(_STREAM_WARMUP), self.block)

    def pool(self):
        return self._items(self.rng(_STREAM_POOL), 8 * self.block)

    def run(self, item: CertifyItem):
        hk = self.hk
        state = hk.state_from_dict(item.state)
        scenario = hk.scenario_from_dict(item.scenario)
        report = hk.witness_report(state, scenario)
        return report, hk.lhv_feasible(report.qvec)

    def _check_report(self, expected, q, generalized, ch) -> str | None:
        q_ref, ch_ref = expected
        if len(q) != len(q_ref) or np.max(np.abs(np.asarray(q) - q_ref)) > PROB_TOL:
            return "wrong"
        if abs(generalized - ch) > PROB_TOL or abs(ch - ch_ref) > PROB_TOL:
            return "wrong"
        return None

    def _check_verdict(self, q, feasible: bool, witness) -> str | None:
        q = np.asarray(q, dtype=float)
        self.count("lhv_checked")
        if feasible:
            self.count("lhv_feasible")
            vertices = self._vertices[len(q) == 6]
            w = np.asarray(witness, dtype=float)
            if w.shape != (vertices.shape[1],) or w.min() < 0.0 or abs(w.sum() - 1.0) > LP_TOL:
                return "wrong"
            if np.max(np.abs(vertices @ w - q)) > LP_TOL:
                return "wrong"
        value = ref.expression(q)
        if (value < -LP_TOL or value > 1.0 + LP_TOL) and feasible:
            return "wrong"
        return None

    def check(self, item, out, err):
        hk = self.hk
        if item.expected is None:
            self.count("malformed")
            if err is None:
                self.count(f"accepted.{item.kind}")
                return "failed"
            return None if isinstance(err, (ValueError, hk.HardykitError)) else "failed"
        if err is not None:
            return "failed"
        report, verdict = out
        q = report.qvec.components()
        return self._check_report(item.expected, q, report.generalized_value, report.ch_value) or (
            self._check_verdict(q, verdict.feasible, verdict.witness)
        )

    def cli_commands(self, workdir: Path):
        # The heaviest valid pair: 3x3 density, trichotomic x, three y labels.
        rng = self.rng(_STREAM_CLI)
        item = self._valid(_state(rng, 3, "density"), _scenario(rng, 3, 3, 3))
        (workdir / "certify_state.json").write_text(json.dumps(item.state))
        (workdir / "certify_scenario.json").write_text(json.dumps(item.scenario))
        self._cli_item = item
        q_text = ",".join(repr(float(v)) for v in item.expected[0].clip(0.0, 1.0))
        return [
            ["eval", "--state", str(workdir / "certify_state.json"),
             "--scenario", str(workdir / "certify_scenario.json"), "--json"],
            ["lhv-check", "--q", q_text, "--json"],
        ]

    def check_cli(self, outputs):
        report, verdict = (json.loads(text) for text in outputs)
        problem = self._check_report(self._cli_item.expected, report["q"], report["generalized"], report["ch"])
        if problem:
            return problem
        q = self._cli_item.expected[0].clip(0.0, 1.0)
        return self._check_verdict(q, verdict["feasible"], verdict["witness"])


WORKLOADS = {cls.name: cls for cls in (Optimize, Construct, Certify)}
