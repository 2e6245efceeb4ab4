"""Bipartite nonlocality toolkit.

Born-rule probabilities for small bipartite systems, the generalized
zero-probability witness and the Clauser-Horne expression, exact local-model
feasibility via the local polytope's facets with an explicit mixing witness,
and the exact extreme values over qubit measurement settings.

``errors`` and ``lhv`` need no numpy and load with the package. ``qcore``,
``witness`` and ``search`` import numpy and load when one of their names is
first read, so ``import hardykit`` and the q-vector commands start without it.
"""

from importlib import import_module

from . import errors, lhv  # noqa: F401  (numpy-free, loaded with the package)

__version__ = "0.1.0"

__all__ = [
    "BlochDirection",
    "DeterministicStrategy",
    "DimensionMismatch",
    "FeasibilityResult",
    "FiniteMeasure",
    "HardykitError",
    "InvalidQVector",
    "MalformedMeasure",
    "MaximallyEntangled",
    "NoCrossing",
    "NoSolution",
    "NotEntangled",
    "Observable",
    "QVector",
    "QuantumState",
    "Scenario",
    "SchmidtState",
    "SearchConfig",
    "SearchResult",
    "UnknownLabel",
    "WitnessReport",
    "bloch_vector",
    "ch_expression",
    "classify",
    "enumerate_strategies",
    "generalized_expression",
    "hardy_observables",
    "joint_probability",
    "lhv_feasible",
    "marginal_probability",
    "max_hardy_probability",
    "maximally_mixed",
    "observable_from_dict",
    "observable_to_dict",
    "optimize_violation",
    "planar_scenario",
    "proof_step_inequalities",
    "q_vector",
    "scenario_from_dict",
    "scenario_to_dict",
    "set_expression",
    "singlet",
    "spin_observable",
    "state_from_dict",
    "state_to_dict",
    "strategy_matrix",
    "vertex_expression_value",
    "vertex_table",
    "vertex_table_csv",
    "werner_state",
    "werner_sweep",
    "witness_report",
]


def __getattr__(name: str):
    """Bind a public name on first use (PEP 562) and cache it in this namespace.

    Modules are tried in import order, so a name loads no module it does not need.
    """
    if name in __all__:
        for home in ("errors", "lhv", "qcore", "witness", "search"):
            module = import_module(f"{__name__}.{home}")
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
