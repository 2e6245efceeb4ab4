"""The package namespace: lazy quantum names, and q-vector commands that start without numpy."""

from __future__ import annotations

import ast
import json
import sys
from math import pi

import pytest

import hardykit
from test_cli import run_python


def modules_at_exit(
    packages: str, body: str, *argv: str, flags: tuple[str, ...] = ()
) -> tuple[int, str, list[str]]:
    """Exit code, stdout and the modules of the space-separated ``packages`` loaded by
    ``body`` in a fresh interpreter with ``flags`` and ``argv``; the module list prints
    at exit, after the output."""
    hook = (
        "import atexit, runpy, sys; atexit.register(lambda: print(sorted(m for m in sys.modules "
        f"if m.partition('.')[0] in {packages.split()!r}))); "
    )
    done = run_python(*flags, "-c", hook + body, *argv)
    out, _, modules = done.stdout.rstrip("\n").rpartition("\n")
    return done.returncode, out, ast.literal_eval(modules) if done.returncode == 0 else done.stderr


def python_m_hardykit(*argv: str) -> tuple:
    return ("runpy.run_module('hardykit', run_name='__main__')", *argv)


class TestNamespace:
    def test_every_public_name_is_its_home_binding(self):
        for name in hardykit.__all__:
            value = getattr(hardykit, name)
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("hardykit."), name
            assert getattr(home, name) is value, name
            # Cached: the next read is a plain lookup in the module's namespace.
            assert vars(hardykit)[name] is value, name

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from hardykit import *", namespace)
        assert {name for name in namespace if name != "__builtins__"} == set(hardykit.__all__)

    def test_dir_lists_all(self):
        assert set(hardykit.__all__) <= set(dir(hardykit))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            hardykit.frobnicate  # noqa: B018
        assert not hasattr(hardykit, "np")

    def test_qvector_keeps_its_old_import_paths(self):
        from hardykit.lhv import QVector
        from hardykit.witness import QVector as witness_qvector

        assert hardykit.QVector is QVector is witness_qvector


class TestStartWithoutNumpy:
    @pytest.mark.parametrize(
        "argv",
        [
            ("lhv-check", "--q", "0.1,0.2,0.1,0.3,0.05,0.05", "--json"),
            ("lhv-check", "--q", "0,0,0,0.05"),
            ("lhv-check", "--q", "0.1,0.1,0.1,0.2"),  # feasible: builds a mixing witness
            ("vertices",),
            ("vertices", "--trichotomic", "--csv"),
        ],
        ids=["lhv-check-json", "lhv-check", "lhv-check-feasible", "vertices",
             "vertices-trichotomic-csv"],
    )
    def test_qvector_command(self, argv):
        code, out, heavy = modules_at_exit("numpy dataclasses inspect", *python_m_hardykit(*argv))
        assert (code, heavy) == (0, []), heavy
        assert out

    def test_import(self):
        assert modules_at_exit("numpy", "import hardykit") == (0, "", [])

    def test_import_without_dataclasses_inspect_or_typing(self):
        # -S leaves out site, whose .pth files may import typing themselves.
        heavy = "numpy dataclasses inspect typing"
        assert modules_at_exit(heavy, "import hardykit", flags=("-S",)) == (0, "", [])
        # The check can see them: dataclasses brings inspect along.
        body = "import hardykit, dataclasses, typing"
        code, _, seen = modules_at_exit(heavy, body, flags=("-S",))
        assert code == 0 and {"dataclasses", "inspect", "typing"} <= set(seen)

    def test_quantum_name_loads_numpy(self):
        # The checks above can see numpy: reading a quantum name loads it.
        code, _, numpy = modules_at_exit("numpy", "import hardykit; hardykit.singlet")
        assert code == 0 and "numpy" in numpy

    def test_eval_loads_no_search(self, tmp_path):
        state, scenario = tmp_path / "state.json", tmp_path / "scenario.json"
        state.write_text(json.dumps(hardykit.state_to_dict(hardykit.singlet())))
        reference = hardykit.planar_scenario(0.0, pi / 2, 3 * pi / 4, pi / 4)
        scenario.write_text(json.dumps(hardykit.scenario_to_dict(reference)))
        argv = ("eval", "--state", str(state), "--scenario", str(scenario))
        code, out, modules = modules_at_exit("hardykit", *python_m_hardykit(*argv))
        assert code == 0 and out.startswith("q = ("), out
        assert "hardykit.witness" in modules and "hardykit.search" not in modules
