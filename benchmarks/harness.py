"""Fresh-process timing: interpreter start plus `import hardykit`, and CLI calls.

Every child runs the checkout's own ``src`` with one BLAS/OpenMP thread. A
child counts only if it exits 0 and prints no traceback; CLI output is then
parsed and checked by the workload.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_ENTRY = "import sys; from hardykit.cli import run; sys.argv[0] = 'hardykit'; run()"
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    """A child process exited non-zero or printed a traceback."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    paths = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_python(root: Path, args: list[str]) -> tuple[float, str, str]:
    """Wall time, stdout and stderr of one fresh interpreter."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=root, env=child_env(root),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        raise ChildFailed(f"{args[:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stdout, proc.stderr


def import_seconds(root: Path) -> float:
    """Wall time of one `python -c "import hardykit"`."""
    return run_python(root, ["-c", "import hardykit"])[0]


def cli_sample(
    root: Path, commands: list[list[str]], check, between=lambda: None,
) -> tuple[list[float], str | None]:
    """Wall time of each command, each in a fresh process, and the check's verdict.

    ``between`` runs after each command, outside its timing.
    """
    times, outputs = [], []
    for command in commands:
        start = perf_counter()
        try:
            stdout = run_python(root, ["-c", CLI_ENTRY, *command])[1]
        except ChildFailed:
            stdout = None
        times.append(perf_counter() - start)
        between()
        if stdout is None:
            return times, "wrong"
        outputs.append(stdout)
    return times, checked(check, outputs)


def checked(check, outputs: list[str]) -> str | None:
    """The workload's verdict on CLI outputs; output it cannot parse is wrong."""
    try:
        return check(outputs)
    except (ValueError, KeyError, IndexError):
        return "wrong"


def _outermost_cumulative(stderr: str, package: str) -> float:
    """Seconds spent importing ``package``, from `-X importtime` output.

    Sums the cumulative column of the package's outermost entries, so nested
    submodules are not counted twice. Lines come in post-order (children
    first), with nesting shown by the indentation of the name column.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        entries.append((depth, int(cumulative), name.strip()))
    total, stack = 0, []  # stack of (depth, is_package) for open ancestors
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(flag for _, flag in stack):
            total += cumulative
        stack.append((depth, mine))
    return total * 1e-6


def import_breakdown(root: Path, repeats: int, packages=("hardykit", "scipy", "numpy")) -> dict[str, float]:
    """Median cumulative import seconds per package under `-X importtime`."""
    samples: dict[str, list[float]] = {p: [] for p in packages}
    for _ in range(repeats):
        _, _, stderr = run_python(root, ["-X", "importtime", "-c", "import hardykit"])
        for package in packages:
            samples[package].append(_outermost_cumulative(stderr, package))
    return {p: median(v) for p, v in samples.items()}
