"""Command-line front end: evaluation, feasibility, enumeration, construction, sweeps.

Machine output goes to stdout (9 significant digits by default, full precision
under --json); diagnostics go to stderr. Exit codes: 0 on success, 2 on
command-line parse errors, 3 on domain errors. Handlers import the numpy-backed
modules they use, so lhv-check and vertices run without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import pi, sqrt

from .errors import HardykitError
from .lhv import lhv_feasible, vertex_table, vertex_table_csv

# In-plane angles (x1, y1, x2, y2) of the reference four-direction configuration.
_REFERENCE_ANGLES = (0.0, pi / 2, 3 * pi / 4, pi / 4)
# Rows a sweep may ask for; each costs tens of microseconds and a CSV line.
MAX_SWEEP_STEPS = 1_000_000


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(_fmt(v) for v in values) + ")"


def _load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _sweep_steps(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_SWEEP_STEPS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SWEEP_STEPS}")
    return value


def _q_components(text: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(piece) for piece in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if len(parts) not in (4, 6):
        raise argparse.ArgumentTypeError("expected 4 or 6 comma-separated probabilities")
    return parts


def _cmd_eval(args) -> int:
    from .qcore import state_from_dict
    from .witness import scenario_from_dict, witness_report
    state = state_from_dict(_load_json(args.state))
    scenario = scenario_from_dict(_load_json(args.scenario))
    report = witness_report(state, scenario)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"q = {_fmt_tuple(report.qvec.components())}")
        print(f"generalized = {_fmt(report.generalized_value)}")
        print(f"ch = {_fmt(report.ch_value)}")
        print(f"classification = {report.classification}")
    return 0


def _cmd_lhv_check(args) -> int:
    result = lhv_feasible(args.q)
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(f"feasible = {'true' if result.feasible else 'false'}")
        print(f"residual = {_fmt(result.residual)}")
        if result.witness is not None:
            print(f"witness = {_fmt_tuple(result.witness)}")
    return 0


def _cmd_vertices(args) -> int:
    if args.csv:
        sys.stdout.write(vertex_table_csv(args.trichotomic))
    else:
        print("x1  x2  y1     y2     value")
        for x1, x2, y1, y2, value in vertex_table(args.trichotomic):
            print(f"{x1:>2}  {x2:>2}  {y1:<5}  {y2:<5}  {value}")
    return 0


def _cmd_hardy(args) -> int:
    from .qcore import bloch_vector
    from .search import SchmidtState, hardy_observables
    from .witness import q_vector, scenario_to_dict
    schmidt = SchmidtState(args.theta)
    scenario = hardy_observables(schmidt, args.tol)
    q = q_vector(schmidt.state(), scenario)
    if args.json:
        payload = {
            "theta": args.theta,
            "scenario": scenario_to_dict(scenario),
            "q": list(q.components()),
        }
        print(json.dumps(payload))
    else:
        print(f"theta = {_fmt(args.theta)}")
        for name in ("x1", "y1", "x2", "y2"):
            direction = bloch_vector(getattr(scenario, name).projector(1.0))
            print(f"{name} direction = {_fmt_tuple(direction)}")
        print(f"q = {_fmt_tuple(q.components())}")
    return 0


def _cmd_optimize(args) -> int:
    from .qcore import state_from_dict
    from .search import SearchConfig, optimize_violation
    state = state_from_dict(_load_json(args.state))
    objective = "maximize_upper" if args.objective == "upper" else "minimize_lower"
    config = SearchConfig(restarts=args.restarts, seed=args.seed)
    result = optimize_violation(state, objective, config)
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(f"objective = {result.objective}")
        print(f"value = {_fmt(result.value)}")
        print(f"angles = {_fmt_tuple(result.angles)}")
    return 0


def _cmd_sweep(args) -> int:
    import numpy as np
    from .qcore import werner_state
    from .search import SchmidtState, hardy_observables
    from .witness import planar_scenario, witness_report
    rows = []
    if args.family == "werner":
        if not (0.0 <= args.lo <= 1.0 and 0.0 <= args.hi <= 1.0):
            raise ValueError(f"werner sweep needs lo, hi in [0, 1], got {args.lo}, {args.hi}")
        scenario = planar_scenario(*_REFERENCE_ANGLES)
        for v in np.linspace(args.lo, args.hi, args.steps):
            rows.append((float(v), witness_report(werner_state(float(v)), scenario)))
    else:
        if not 0.0 < args.lo <= args.hi < pi / 4:
            raise ValueError(
                f"schmidt sweep needs 0 < lo <= hi < pi/4, got lo = {args.lo}, hi = {args.hi}"
            )
        for theta in np.linspace(args.lo, args.hi, args.steps):
            schmidt = SchmidtState(float(theta))
            rows.append((float(theta), witness_report(schmidt.state(), hardy_observables(schmidt))))
    sys.stdout.write("parameter,q1,q2,q3,q4,q5,q6,generalized,ch\n")
    for parameter, report in rows:
        q, gen, ch = report.qvec, report.generalized_value, report.ch_value
        q5 = _fmt(q.q5) if q.trichotomic else ""
        q6 = _fmt(q.q6) if q.trichotomic else ""
        sys.stdout.write(
            f"{_fmt(parameter)},{_fmt(q.q1)},{_fmt(q.q2)},{_fmt(q.q3)},{_fmt(q.q4)},"
            f"{q5},{q6},{_fmt(gen)},{_fmt(ch)}\n"
        )
    return 0


def _cmd_demo(args) -> int:
    from .qcore import singlet
    from .witness import planar_scenario, witness_report
    report = witness_report(singlet(), planar_scenario(*_REFERENCE_ANGLES))
    target = 0.5 * (1.0 + sqrt(2.0))
    print(f"q = {_fmt_tuple(report.qvec.components())}")
    print(f"generalized = {_fmt(report.generalized_value)}")
    print(f"ch = {_fmt(report.ch_value)}")
    print(f"target (1 + sqrt 2)/2 = {_fmt(target)}")
    print(f"|generalized - target| = {_fmt(abs(report.generalized_value - target))}")
    print(f"classification = {report.classification}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardykit",
        description="Nonlocality witness toolkit: evaluation, local-model checks, search.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("eval", help="evaluate a state/scenario pair")
    cmd.add_argument("--state", required=True, help="state JSON file ('-' for stdin)")
    cmd.add_argument("--scenario", required=True, help="scenario JSON file ('-' for stdin)")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(handler=_cmd_eval)

    cmd = commands.add_parser("lhv-check", help="test local-model feasibility of q1,..,q4[,q5,q6]")
    cmd.add_argument("--q", required=True, type=_q_components, metavar="q1,q2,q3,q4[,q5,q6]")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(handler=_cmd_lhv_check)

    cmd = commands.add_parser("vertices", help="enumerate deterministic strategies")
    cmd.add_argument("--trichotomic", action="store_true")
    cmd.add_argument("--csv", action="store_true")
    cmd.set_defaults(handler=_cmd_vertices)

    cmd = commands.add_parser("hardy", help="construct zero-probability observables")
    cmd.add_argument("--theta", required=True, type=float, help="Schmidt angle in (0, pi/4)")
    cmd.add_argument("--tol", type=float, default=1e-9)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(handler=_cmd_hardy)

    cmd = commands.add_parser("optimize", help="spin settings of the extreme expression value")
    cmd.add_argument("--state", required=True, help="state JSON file ('-' for stdin)")
    cmd.add_argument("--objective", required=True, choices=("upper", "lower"))
    cmd.add_argument(
        "--restarts", type=_positive_int, default=20, help="no effect: the optimum is exact"
    )
    cmd.add_argument("--seed", type=int, default=0, help="no effect: the optimum is exact")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(handler=_cmd_optimize)

    cmd = commands.add_parser("sweep", help="CSV sweep over a state family")
    cmd.add_argument("--family", required=True, choices=("werner", "schmidt"))
    cmd.add_argument("--lo", required=True, type=float)
    cmd.add_argument("--hi", required=True, type=float)
    cmd.add_argument("--steps", required=True, type=_sweep_steps)
    cmd.set_defaults(handler=_cmd_sweep)

    cmd = commands.add_parser("demo", help="run the reference configuration end to end")
    cmd.add_argument("case", choices=("singlet",))
    cmd.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (HardykitError, ValueError, KeyError, TypeError, OSError, RuntimeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
