"""Independent numpy references for the benchmark's correctness checks.

Nothing in this file imports hardykit. Each check compares the program's
output with a value computed here from the raw generated input, so a bug in
one of the program's layers cannot pass its own gate.
"""

from __future__ import annotations

from itertools import product
from math import cos, sin, sqrt

import numpy as np

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def complex_from_pairs(pairs, shape) -> np.ndarray:
    """Decode the wire format's [re, im] pairs into a complex array."""
    flat = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(shape)


def pairs_from_complex(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def density_from_dict(payload: dict) -> np.ndarray:
    n = int(payload["dims"][0]) * int(payload["dims"][1])
    if payload["kind"] == "pure":
        amps = complex_from_pairs(payload["data"], (n,))
        return np.outer(amps, amps.conj())
    return complex_from_pairs(payload["data"], (n, n))


def projectors_from_dict(payload: dict) -> dict[float, np.ndarray]:
    d = int(payload["dim"])
    return {
        float(entry["label"]): complex_from_pairs(entry["projector"], (d, d))
        for entry in payload["outcomes"]
    }


def born(rho: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> float:
    """Tr(rho (p1 x p2)) by an explicit Kronecker product."""
    return float(np.einsum("ij,ji->", rho, np.kron(p1, p2)).real)


def scenario_probabilities(rho: np.ndarray, scenario: dict[str, dict[float, np.ndarray]]):
    """(q vector, Clauser-Horne value) of a scenario given as label->projector maps."""
    x1, y1, x2, y2 = (scenario[k] for k in ("x1", "y1", "x2", "y2"))
    q = [
        born(rho, x1[1.0], x2[1.0]),
        born(rho, y1[1.0], x2[-1.0]),
        born(rho, x1[-1.0], y2[1.0]),
        born(rho, y1[1.0], y2[1.0]),
    ]
    if 0.0 in x1:
        q += [born(rho, y1[1.0], x2[0.0]), born(rho, x1[0.0], y2[1.0])]
    eye1, eye2 = np.eye(len(x1[1.0])), np.eye(len(x2[1.0]))
    ch = (
        born(rho, x1[1.0], x2[1.0])
        - born(rho, y1[1.0], x2[1.0])
        - born(rho, x1[1.0], y2[1.0])
        - born(rho, y1[1.0], y2[1.0])
        + born(rho, y1[1.0], eye2)
        + born(rho, eye1, y2[1.0])
    )
    return np.array(q), ch


def expression(q: np.ndarray) -> float:
    """q1 + q2 + q3 - q4 (+ q5 + q6)."""
    return float(q[0] + q[1] + q[2] - q[3] + q[4:].sum())


def vertex_matrix(trichotomic: bool) -> np.ndarray:
    """Indicator q-vectors of the deterministic strategies, one column each.

    Canonical order: lexicographic in (x1, x2, y1, y2), x outcomes (-1, 0, +1)
    or (-1, +1), y events (other, +1).
    """
    xs = (-1, 0, 1) if trichotomic else (-1, 1)
    columns = []
    for x1, x2, y1, y2 in product(xs, xs, (False, True), (False, True)):
        column = [x1 == 1 and x2 == 1, y1 and x2 == -1, x1 == -1 and y2, y1 and y2]
        if trichotomic:
            column += [y1 and x2 == 0, x1 == 0 and y2]
        columns.append(column)
    return np.array(columns, dtype=float).T


def spin_projector(direction) -> np.ndarray:
    """+1 projector of the spin observable along a unit 3-vector."""
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    return 0.5 * (np.eye(2) + n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2])


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """T_ij = Tr(rho sigma_i x sigma_j)."""
    return np.array([[born(rho, a, b) for b in PAULI] for a in PAULI])


def qubit_bound(rho: np.ndarray, upper: bool, planar: bool) -> float:
    """Exact extreme of the expression over spin settings (Horodecki criterion).

    The expression equals 1/2 + (E11 - E21 - E12 - E22)/4, so its extremes are
    (1 +- sqrt(t1^2 + t2^2))/2 with t1, t2 the two largest singular values of
    the correlation matrix, restricted to its xz block for xz-planar settings.
    """
    t = correlation_matrix(rho)
    if planar:
        t = t[np.ix_([0, 2], [0, 2])]
    s = np.linalg.svd(t, compute_uv=False)
    radius = sqrt(s[0] ** 2 + s[1] ** 2)
    return 0.5 * (1.0 + radius) if upper else 0.5 * (1.0 - radius)


def schmidt_vector(theta: float) -> np.ndarray:
    return np.array([cos(theta), 0.0, 0.0, sin(theta)], dtype=complex)


def hardy_q4(theta: float) -> float:
    """Largest q4 with q1 = q2 = q3 = 0: (ab(a - b)/(1 - ab))^2."""
    a, b = cos(theta), sin(theta)
    return (a * b * (a - b) / (1.0 - a * b)) ** 2
