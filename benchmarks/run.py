#!/usr/bin/env python3
"""hardykit benchmark: one seeded workload, timed or traced.

    python3 benchmarks/run.py --workload optimize|construct|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a hardykit checkout; the program is imported from its
``src``. With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run.
The line before it holds the run's details (seed, versions, bases of ratios).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import Counter, namedtuple
from contextlib import contextmanager, redirect_stdout
from itertools import cycle
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter

import harness

# One BLAS/OpenMP thread, set before numpy is first imported.
os.environ.update(harness.THREAD_ENV)

import speed  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# The timed loop runs in this many slices; after each, one fresh-process CLI
# sample, and after every SETUP_EVERY-th one fresh-process `import hardykit`
# before it, each fresh process between two process probes. Spread over the
# run, the samples see the shared machine's fast and slow phases alike.
# setup_s has a bound on drift between sets of runs but none on spread within
# one, so it takes half as many samples, which keeps a run within its time.
SEGMENTS = 6
SETUP_EVERY = 2
# Seconds of item time between two loop probes. The host's speed phases last
# seconds; a probe (~13 ms) every 0.25 s costs ~5% of the loop.
PROBE_EVERY_S = 0.25
# Verdicts from best to worst.
SEVERITY = (None, "failed", "wrong")
IMPORTTIME_REPEATS = 3
MAIN_REPEATS = 3
# p99.9 and p99 are left out: on a shared two-core machine their samples
# beyond are mostly scheduler stalls. p99.9 of certify read 3 to 26 ms over
# five seeds, and p99 of construct 12 to 20 ms over six, while the medians
# held within 10%.
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Fewest timed items per run: p75 needs 40 to have 10 beyond it. Optimize holds
# 45 to 68 items at 16 s; in a slow phase of the host each slice runs on until
# its share is met, so its tail stays at p75 and does not drop to p50.
MIN_TIMED_ITEMS = 42
# Added to failed/attempted so that fail_ratio never reads 0 (a relative bound
# on 0 is undefined).
FAIL_RATIO_FLOOR = 1e-4

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "1",
}
PER_LAYER_UNITS = {
    "qcore.observable_builds_per_item": "count",
    "qcore.observable_build_us": "us",
    "qcore.state_builds_per_item": "count",
    "qcore.state_build_us": "us",
    "qcore.joint_probability_calls_per_item": "count",
    "qcore.joint_probability_us": "us",
    "qcore.marginal_probability_us": "us",
    "qcore.self_share": "1",
    "witness.scenario_build_us": "us",
    "witness.q_vector_calls_per_item": "count",
    "witness.q_vector_self_us": "us",
    "witness.ch_expression_self_us": "us",
    "witness.witness_report_self_us": "us",
    "witness.self_share": "1",
    "lhv.lhv_feasible_us.dichotomic": "us",
    "lhv.lhv_feasible_us.trichotomic": "us",
    "lhv.self_share": "1",
    "lhv.feasible_ratio": "1",
    "search.optimize_violation_ms": "ms",
    "search.evals_per_restart": "count",
    "search.bound_gap_max": "1",
    "search.bound_miss_ratio": "1",
    "search.hardy_observables_ms": "ms",
    "search.werner_sweep_ms": "ms",
    "search.werner_evals_per_sweep": "count",
    "search.self_share": "1",
    "search.hardy_zero_max": "1",
    "search.hardy_q4_err_max": "1",
    "cli.import_hardykit_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_numpy_s": "s",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("optimize", "construct", "certify"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


Loop = namedtuple("Loop", "latencies scaled tally")


def run_items(workload, items, verdicts, seconds=None, tracer=None, min_items=0) -> Loop:
    """Run (key, item) pairs until they end, or ``seconds`` pass and at least
    ``min_items`` ran; time and check each.

    Only the program call is timed; the check runs after it. A loop probe runs
    before the first item, after every PROBE_EVERY_S of item time and after
    the last item; each latency is also scaled by the probes around it.
    ``verdicts`` keeps the worst verdict per input key. Returns the raw and
    scaled latencies and a tally of attempted, failed and wrong operations.
    """
    latencies, interval, tally = [], [], Counter()
    probes, since_probe = [speed.loop_probe()], 0.0
    deadline = None if seconds is None else perf_counter() + seconds
    for key, item in items:
        span = tracer.begin("item") if tracer else None
        start = perf_counter()
        try:
            out, err = workload.run(item), None
        except Exception as exc:  # the check decides whether the refusal was expected
            out, err = None, exc
        elapsed = perf_counter() - start
        if tracer:
            tracer.finish(span)
        latencies.append(elapsed)
        interval.append(len(probes) - 1)
        verdict = workload.check(item, out, err)
        if verdict is not None and err is not None:
            workload.count(f"raised.{type(err).__name__}")
        verdicts[key] = max(verdicts.get(key), verdict, key=SEVERITY.index)
        tally["attempted"] += 1
        tally["failed"] += verdict is not None
        tally["wrong"] += verdict == "wrong"
        since_probe += elapsed
        if since_probe >= PROBE_EVERY_S:
            probes.append(speed.loop_probe())
            since_probe = 0.0
        if deadline is not None and perf_counter() >= deadline and len(latencies) >= min_items:
            break
    if since_probe > 0.0 or len(probes) == 1:
        probes.append(speed.loop_probe())
    scale = speed.factors(probes, speed.LOOP_REFERENCE_S)
    return Loop(latencies, [lat * scale[i] for lat, i in zip(latencies, interval)], tally)


def count_inputs(verdicts, tally) -> None:
    """Add the distinct inputs and those whose worst verdict was a failure."""
    tally["attempted"] += len(verdicts)
    tally["failed"] += sum(v is not None for v in verdicts.values())
    tally["wrong"] += sum(v == "wrong" for v in verdicts.values())


def throughput(latencies, block: int) -> float:
    """Median, over consecutive blocks of ``block`` items, of items per busy second.

    Each block holds the workload's whole input mix.
    A burst from another tenant slows the blocks it lands in, not the median.
    """
    blocks = [latencies[i:i + block] for i in range(0, len(latencies) - block + 1, block)]
    if len(blocks) < 3:
        return len(latencies) / sum(latencies)
    return median(len(b) / sum(b) for b in blocks)


def tail(latencies):
    """(percentile, value, samples beyond): the highest listed percentile with
    at least TAIL_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:  # falls back to the last one when none qualifies
        rank = max(1, ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            break
    return pct, ordered[rank - 1], n - rank


def cli_in_process(hk, commands, check):
    """Seconds of `hardykit.cli.main(argv)` over the commands, stdout captured; and the check."""
    total, outputs = 0.0, []
    for command in commands:
        buffer = io.StringIO()
        start = perf_counter()
        with redirect_stdout(buffer):
            code = hk.cli.main(command)
        total += perf_counter() - start
        outputs.append(buffer.getvalue() if code == 0 else "")
    return total, harness.checked(check, outputs)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hardykit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


@contextmanager
def scratch_dir(workload):
    """A directory inside the checkout for the CLI's input files, removed afterwards."""
    path = ROOT / ".bench_tmp" / f"{workload.name}-{workload.seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def fresh_samples(workload, commands, with_setup: bool):
    """One CLI sample, after one `import hardykit` when ``with_setup``, with a
    process probe before and after each fresh process: ((raw, scaled) setup s
    or None, (raw, scaled) cli s, the CLI verdict). A CLI sample of several
    commands is their sum."""
    probes, setup = [speed.process_probe(ROOT)], None
    if with_setup:
        setup = harness.import_seconds(ROOT)
        probes.append(speed.process_probe(ROOT))
    cli, verdict = harness.cli_sample(
        ROOT, commands, workload.check_cli, between=lambda: probes.append(speed.process_probe(ROOT)),
    )
    scale = speed.factors(probes, speed.PROCESS_REFERENCE_S)
    if with_setup:
        setup, scale = (setup, setup * scale[0]), scale[1:]
    return setup, (sum(cli), sum(t * f for t, f in zip(cli, scale))), verdict


def end_to_end(hk, workload, pool, seconds, tally, details):
    items, verdicts = cycle(enumerate(pool)), {}
    raw, scaled, timed = [], [], Counter()
    setup, cli, cli_failed = [], [], 0
    with scratch_dir(workload) as workdir:
        commands = workload.cli_commands(workdir)
        harness.import_seconds(ROOT)  # fills the bytecode caches; not a sample
        speed.process_probe(ROOT)
        for segment in range(SEGMENTS):
            loop = run_items(
                workload, items, verdicts, seconds / SEGMENTS, min_items=ceil(MIN_TIMED_ITEMS / SEGMENTS),
            )
            raw += loop.latencies
            scaled += loop.scaled
            timed.update(loop.tally)
            setup_pair, cli_pair, verdict = fresh_samples(workload, commands, segment % SETUP_EVERY == 0)
            if setup_pair:
                setup.append(setup_pair)
            cli.append(cli_pair)
            cli_failed += verdict is not None
    inputs = Counter()
    count_inputs(verdicts, inputs)
    tally.update(inputs)
    tally.update(attempted=SEGMENTS, failed=cli_failed, wrong=cli_failed)
    pct, tail_s, beyond = tail(scaled)
    details.update(
        timed_inputs=inputs["attempted"], timed_inputs_failed=inputs["failed"],
        timed_items=timed["attempted"], timed_items_failed=timed["failed"],
        tail_percentile=pct, tail_samples_beyond=beyond,
        raw_items_per_s=throughput(raw, workload.block), raw_item_p50_ms=median(raw) * 1e3,
        setup_samples_s=[s for s, _ in setup], cli_samples_s=[c for c, _ in cli],
        raw_setup_s=median(s for s, _ in setup), raw_cli_s=median(c for c, _ in cli),
        cli_commands=commands,
    )
    return {
        "setup_s": median(s for _, s in setup),
        "items_per_s": throughput(scaled, workload.block),
        "item_p50_ms": median(scaled) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "cli_s": median(c for _, c in cli),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": inputs["failed"] / inputs["attempted"] + FAIL_RATIO_FLOOR,
    }


def per_layer(hk, workload, pool, seconds, tally, details):
    import tracing
    from workloads import RESTARTS

    # Both halves start at the same item, so they time the same inputs.
    verdicts = {}
    untraced = run_items(workload, cycle(enumerate(pool)), verdicts, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(hk)
    try:
        traced = run_items(workload, cycle(enumerate(pool)), verdicts, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    count_inputs(verdicts, tally)
    spans = tracer.summary()
    tracer.save(OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.npz")

    with scratch_dir(workload) as workdir:
        commands = workload.cli_commands(workdir)
        imports = harness.import_breakdown(ROOT, IMPORTTIME_REPEATS)
        main_runs = [cli_in_process(hk, commands, workload.check_cli) for _ in range(MAIN_REPEATS)]
    main_failed = sum(verdict is not None for _, verdict in main_runs)
    tally.update(attempted=MAIN_REPEATS, failed=main_failed, wrong=main_failed)

    lhv_tags = list(spans.tags.values())
    feasible = sum(f for _, f in lhv_tags)
    optimize_calls = spans.calls("search.optimize_violation")
    sweeps = spans.calls("search.werner_sweep")
    stats = workload.stats
    checks = stats.get("bound_checks", 0.0)

    def lhv_us(trichotomic: bool) -> float:
        times = [spans.duration[i] for i, (t, _) in spans.tags.items() if t == trichotomic]
        return float(sum(times) / len(times)) * 1e6 if times else 0.0

    details.update(
        traced_items=spans.items, untraced_items=len(untraced.latencies),
        lhv_calls=len(lhv_tags), lhv_feasible=feasible,
        bound_checks=checks, bound_misses=stats.get("bound_misses", 0.0),
        optimize_calls=optimize_calls, werner_sweeps=sweeps, spans=len(spans.duration),
    )
    return {
        "qcore.observable_builds_per_item": spans.per_item("qcore.Observable.__post_init__"),
        "qcore.observable_build_us": spans.mean("qcore.Observable.__post_init__") * 1e6,
        "qcore.state_builds_per_item": spans.per_item("qcore.QuantumState.__post_init__"),
        "qcore.state_build_us": spans.mean("qcore.QuantumState.__post_init__") * 1e6,
        "qcore.joint_probability_calls_per_item": spans.per_item("qcore.joint_probability"),
        "qcore.joint_probability_us": spans.mean("qcore.joint_probability") * 1e6,
        "qcore.marginal_probability_us": spans.mean("qcore.marginal_probability") * 1e6,
        "qcore.self_share": spans.layer_share("qcore"),
        "witness.scenario_build_us": spans.mean("witness.Scenario.__post_init__") * 1e6,
        "witness.q_vector_calls_per_item": spans.per_item("witness.q_vector"),
        "witness.q_vector_self_us": spans.mean("witness.q_vector", own=True) * 1e6,
        "witness.ch_expression_self_us": spans.mean("witness.ch_expression", own=True) * 1e6,
        "witness.witness_report_self_us": spans.mean("witness.witness_report", own=True) * 1e6,
        "witness.self_share": spans.layer_share("witness"),
        "lhv.lhv_feasible_us.dichotomic": lhv_us(False),
        "lhv.lhv_feasible_us.trichotomic": lhv_us(True),
        "lhv.self_share": spans.layer_share("lhv"),
        "lhv.feasible_ratio": feasible / len(lhv_tags) if lhv_tags else 0.0,
        "search.optimize_violation_ms": spans.mean("search.optimize_violation") * 1e3,
        "search.evals_per_restart": (
            spans.calls_under("witness.q_vector", "search.optimize_violation") / (optimize_calls * RESTARTS)
            if optimize_calls else 0.0
        ),
        "search.bound_gap_max": stats.get("bound_gap_max", 0.0),
        "search.bound_miss_ratio": stats.get("bound_misses", 0.0) / checks if checks else 0.0,
        "search.hardy_observables_ms": spans.mean("search.hardy_observables") * 1e3,
        "search.werner_sweep_ms": spans.mean("search.werner_sweep") * 1e3,
        "search.werner_evals_per_sweep": (
            spans.calls_under("witness.q_vector", "search.werner_sweep") / sweeps if sweeps else 0.0
        ),
        "search.self_share": spans.layer_share("search"),
        "search.hardy_zero_max": stats.get("hardy_zero_max", 0.0),
        "search.hardy_q4_err_max": stats.get("hardy_q4_err_max", 0.0),
        "cli.import_hardykit_s": imports["hardykit"],
        "cli.import_scipy_s": imports["scipy"],
        "cli.import_numpy_s": imports["numpy"],
        "cli.main_ms": median(t for t, _ in main_runs) * 1e3,
        "trace.overhead_ratio": (
            throughput(untraced.scaled, workload.block) / throughput(traced.scaled, workload.block)
        ),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hardykit" / "__init__.py").is_file():
        print(f"error: no hardykit sources under {SRC}; run from a hardykit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import hardykit
    import hardykit.cli
    import workloads

    if Path(hardykit.__file__).resolve().parent != (SRC / "hardykit").resolve():
        print(f"error: imported hardykit from {hardykit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](hardykit, args.seed)
    started = perf_counter()
    warmup, pool = workload.warmup(), workload.pool()
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(), "src_sha256": source_digest(),
        "restarts": workloads.RESTARTS, "pool_items": len(pool),
    }
    # The inputs are long-lived; frozen, they are not rescanned by every full
    # garbage collection the program triggers.
    gc.collect()
    gc.freeze()
    tally, verdicts = Counter(), {}
    run_items(workload, enumerate(warmup), verdicts)
    count_inputs(verdicts, tally)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(hardykit, workload, pool, args.seconds, tally, details)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    details.update(
        stats=workload.stats, wrong=tally["wrong"],
        wall_s=perf_counter() - started,
    )
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
