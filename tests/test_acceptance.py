"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
on a passing run; without ``-s`` they surface only for failures.
"""

from __future__ import annotations

import time
from math import pi, sqrt

import numpy as np

from conftest import random_scenario, random_state
from hardykit import (
    FiniteMeasure,
    classify,
    ch_expression,
    enumerate_strategies,
    generalized_expression,
    hardy_observables,
    lhv_feasible,
    max_hardy_probability,
    planar_scenario,
    proof_step_inequalities,
    q_vector,
    set_expression,
    singlet,
    strategy_matrix,
    vertex_expression_value,
    werner_sweep,
)
from hardykit.search import SchmidtState

UPPER_TARGET = 0.5 * (1.0 + sqrt(2.0))
Q4_GLOBAL_MAX = 0.090169943749474  # frozen from the grid oracle below


def reference_scenario():
    return planar_scenario(0.0, pi / 2, 3 * pi / 4, pi / 4, plane="xy")


class _Criterion:
    def __init__(self, number: int, description: str, limit_seconds: float):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def finish(self, passed: bool) -> None:
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.limit
        status = "PASS" if (passed and in_budget) else "FAIL"
        print(
            f"criterion {self.number} [{status}] {self.description} "
            f"({elapsed:.2f}s / limit {self.limit:g}s)"
        )
        assert passed, f"criterion {self.number} failed: {self.description}"
        assert in_budget, f"criterion {self.number} exceeded {self.limit:g}s ({elapsed:.2f}s)"


def test_criterion_1_singlet_upper_bound_violation():
    check = _Criterion(1, "singlet reference configuration reaches (1+sqrt 2)/2", 1.0)
    state = singlet()
    scenario = reference_scenario()
    gen = generalized_expression(q_vector(state, scenario))
    ch = ch_expression(state, scenario)
    passed = abs(gen - UPPER_TARGET) < 1e-9 and abs(ch - UPPER_TARGET) < 1e-9
    check.finish(passed)


def test_criterion_2_hardy_regime():
    check = _Criterion(2, "theta = pi/8 construction: three zeros, q4 > 0.01, infeasible", 5.0)
    schmidt = SchmidtState(pi / 8)
    scenario = hardy_observables(schmidt, 1e-9)
    q = q_vector(schmidt.state(), scenario)
    verdict = classify(q, generalized_expression(q))
    feasibility = lhv_feasible(q)
    passed = (
        q.q1 < 1e-9
        and q.q2 < 1e-9
        and q.q3 < 1e-9
        and q.q4 > 0.01
        and verdict == "HardyViolation"
        and not feasibility.feasible
    )
    check.finish(passed)


def _grid_oracle_max_q4() -> float:
    """Independent brute-force oracle for the maximal constructed q4.

    Grids the Schmidt angle and the one free setting angle; the other three
    setting angles are resolved from the zero constraints in closed form
    (arctangent identities, no solver shared with the package) and all four
    amplitudes are evaluated explicitly. The three "zero" amplitudes are
    asserted to vanish, so the grid really walks the constraint surface.
    """
    thetas = np.linspace(1e-4, pi / 4 - 1e-4, 1501)
    x1s = np.linspace(1e-4, pi / 2 - 1e-4, 1501)
    theta_grid, x1_grid = np.meshgrid(thetas, x1s, indexing="ij")

    def q4_surface(theta, x1):
        alpha, beta = np.cos(theta), np.sin(theta)
        c1, s1 = np.cos(x1), np.sin(x1)
        x2 = np.arctan2(-alpha * c1, beta * s1)
        c2, s2 = np.cos(x2), np.sin(x2)
        y1 = np.arctan2(alpha * s2, beta * c2)
        y2 = np.arctan2(alpha * s1, beta * c1)
        zero1 = alpha * c1 * c2 + beta * s1 * s2
        zero2 = -alpha * np.cos(y1) * s2 + beta * np.sin(y1) * c2
        zero3 = -alpha * s1 * np.cos(y2) + beta * c1 * np.sin(y2)
        assert float(np.max(np.abs(zero1))) < 1e-12
        assert float(np.max(np.abs(zero2))) < 1e-12
        assert float(np.max(np.abs(zero3))) < 1e-12
        amplitude = alpha * np.cos(y1) * np.cos(y2) + beta * np.sin(y1) * np.sin(y2)
        return amplitude**2

    coarse = q4_surface(theta_grid, x1_grid)
    best = np.unravel_index(np.argmax(coarse), coarse.shape)
    theta_best, x1_best = float(theta_grid[best]), float(x1_grid[best])
    span = 2e-3
    for _ in range(5):
        local_thetas = np.linspace(theta_best - span, theta_best + span, 201)
        local_x1s = np.linspace(x1_best - span, x1_best + span, 201)
        t_grid, x_grid = np.meshgrid(local_thetas, local_x1s, indexing="ij")
        values = q4_surface(t_grid, x_grid)
        best = np.unravel_index(np.argmax(values), values.shape)
        theta_best, x1_best = float(t_grid[best]), float(x_grid[best])
        span /= 30.0
    return float(q4_surface(np.array([theta_best]), np.array([x1_best]))[0])


def test_criterion_3_maximal_hardy_probability():
    check = _Criterion(3, "max_hardy_probability() = (5 sqrt 5 - 11)/2 = 0.09017", 300.0)
    oracle = _grid_oracle_max_q4()
    theta_star, q4_star = max_hardy_probability()
    passed = (
        abs(q4_star - 0.5 * (5.0 * sqrt(5.0) - 11.0)) < 1e-12
        and abs(q4_star - 0.09017) <= 1e-4
        and abs(q4_star - oracle) <= 1e-4
        and abs(oracle - Q4_GLOBAL_MAX) < 1e-6
        and 0.0 < theta_star < pi / 4
    )
    check.finish(passed)


def test_criterion_4_vertex_values_exactly_zero_or_one():
    check = _Criterion(4, "all 16 + 36 vertex expression values lie in {0, 1}", 1.0)
    passed = True
    for trichotomic, expected in ((False, 16), (True, 36)):
        strategies = enumerate_strategies(trichotomic)
        passed &= len(strategies) == expected
        for strategy in strategies:
            value = vertex_expression_value(strategy)
            passed &= isinstance(value, int) and value in (0, 1)
    # Consequence spot-check: mixtures inherit the bounds.
    rng = np.random.default_rng(7)
    columns = strategy_matrix(False)
    for _ in range(50):
        q = columns @ rng.dirichlet(np.ones(16))
        gen = q[0] + q[1] + q[2] - q[3]
        passed &= -1e-12 <= gen <= 1.0 + 1e-12
    check.finish(bool(passed))


def test_criterion_5_set_expression_bounds_on_random_measures():
    check = _Criterion(5, "10000 random measures: value in [0, 1], proof steps hold", 10.0)
    rng = np.random.default_rng(20240817)
    passed = True
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        weights = rng.random(n)
        weights /= weights.sum()
        m = FiniteMeasure(weights, *(rng.random(n) < 0.5 for _ in range(4)))
        value = set_expression(m)
        passed &= -1e-12 <= value <= 1.0 + 1e-12
        passed &= proof_step_inequalities(m) == (True, True)
    check.finish(bool(passed))


def test_criterion_6_ch_identity_over_randomized_pairs():
    check = _Criterion(6, "|generalized - ch| < 1e-10 over 1000 randomized pairs", 30.0)
    rng = np.random.default_rng(424242)
    passed = True
    for index in range(1000):
        trichotomic = index % 3 == 2
        if trichotomic:
            d1, d2 = [(3, 3), (2, 3), (3, 4)][index % 3 - 2]
        else:
            d1, d2 = [(2, 2), (2, 3), (3, 3), (2, 2)][index % 4]
        scenario = random_scenario(rng, d1, d2, trichotomic=trichotomic)
        state = random_state(rng, d1, d2)
        gen = generalized_expression(q_vector(state, scenario))
        ch = ch_expression(state, scenario)
        passed &= abs(gen - ch) < 1e-10
    check.finish(bool(passed))


def test_criterion_7_werner_visibility_threshold():
    check = _Criterion(7, "visibility threshold 0.7071068 within 1e-6", 5.0)
    threshold = werner_sweep(reference_scenario(), 0.0, 1.0)
    check.finish(abs(threshold - 0.7071068) <= 1e-6)


def test_criterion_8_necessity_and_witness_soundness():
    check = _Criterion(8, "1000 out-of-bounds q-vectors infeasible; witnesses reproduce", 30.0)
    rng = np.random.default_rng(99)
    passed = True
    checked = 0
    while checked < 1000:
        if checked % 3 == 2:
            q = rng.random(6)
            gen = q[0] + q[1] + q[2] + q[4] + q[5] - q[3]
        else:
            q = rng.random(4)
            gen = q[0] + q[1] + q[2] - q[3]
        if 0.0 <= gen <= 1.0:
            continue
        passed &= not lhv_feasible(q).feasible
        checked += 1
    # Every feasible verdict must come with a witness that reproduces q.
    for trichotomic in (False, True):
        columns = strategy_matrix(trichotomic)
        count = columns.shape[1]
        for _ in range(100):
            target = columns @ rng.dirichlet(np.ones(count))
            result = lhv_feasible(target)
            passed &= result.feasible
            passed &= float(np.max(np.abs(columns @ result.witness - target))) < 1e-9
            passed &= abs(float(np.sum(result.witness)) - 1.0) < 1e-9
    check.finish(bool(passed))
