"""Host-speed probes: fixed work that shares no code with hardykit.

The measuring host is a shared VM. Its speed drifts by up to 2x in phases of
seconds to tens of seconds, and CPU time drifts with wall time, so neither
clock alone is steady (see README). Every timing metric is therefore taken
next to a probe of fixed work and scaled by ``reference / probe``: a timing
made while the host runs at its reference speed is left as it is, and one
made in a slow or fast phase is scaled back to that speed. The raw timings
are kept in the run's details.

Two probes, one per kind of timing:

- ``loop_probe`` runs in the benchmark process between items: small numpy
  products and eigenvalues plus interpreter work, like hardykit's inner loops.
- ``process_probe`` starts a fresh interpreter that imports a fixed set of
  standard-library modules, like a fresh `import hardykit` without numpy,
  scipy or hardykit. It runs before and after each fresh-process sample.

Neither imports hardykit, so a change to the program cannot move them.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

import harness

# Medians of the probes on the measuring host (Intel Xeon, 2 shared vCPUs), over
# 300 loop probes and 30 process probes. Only their ratio to a probe taken next
# to a timing matters.
LOOP_REFERENCE_S = 0.0134
PROCESS_REFERENCE_S = 0.227

_LOOP_REPS = 250
_PROBE_MATRIX = np.arange(16, dtype=float).reshape(4, 4) / 16.0 + np.eye(4)
PROCESS_PROBE_CODE = (
    "import argparse, asyncio, csv, decimal, difflib, email.mime.multipart, fractions, "
    "http.server, logging.handlers, statistics, tarfile, unittest, xml.dom.minidom, zipfile"
)


def _loop_work() -> float:
    a, total = _PROBE_MATRIX, 0.0
    for _ in range(_LOOP_REPS):
        b = np.kron(a[:2, :2], a[2:, 2:]) @ a
        total += float(np.linalg.eigvalsh(b + b.T)[0]) + sum(k * 0.5 for k in range(20))
    return total


def loop_probe() -> float:
    """Seconds of one pass of the in-process probe."""
    start = perf_counter()
    _loop_work()
    return perf_counter() - start


def process_probe(root: Path) -> float:
    """Wall seconds of one fresh interpreter running the standard-library imports."""
    return harness.run_python(root, ["-c", PROCESS_PROBE_CODE])[0]


def factors(probes: list[float], reference: float) -> list[float]:
    """Scale factor for each interval between consecutive probes: the reference
    over the mean of the probes on either side."""
    return [2.0 * reference / (before + after) for before, after in zip(probes, probes[1:])]
