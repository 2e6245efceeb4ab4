"""Operator mutation testing of named functions in ``src/hardykit``, with the standard library only.

Each mutant swaps one operator token inside one named function: ``<`` and ``<=``,
``>`` and ``>=``, ``==`` and ``!=``, ``and`` and ``or``, ``+`` and ``-``, ``*`` and
``/`` (their augmented forms too). It is written into a temporary copy of the tree,
never into this checkout, and the tier-1 suite runs on it with ``-x``: the mutated
module's own test file ``tests/test_<module>.py`` first, if there is one, and then
every other test. A mutant is killed when the suite fails (the first failing test id
is shown) and survives when it passes.

    python tests/tools/mutate.py qcore:BlochDirection.__init__ lhv:QVector.__init__

Targets are ``module:qualname``, the module a file in ``src/hardykit``. An operator
that is not one token of its own (on Python before 3.12, one inside an f-string's
replacement field) is printed as skipped. Exit status: 0 when every mutant is
killed, 1 when one survives.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "and": "or",
         "or": "and", "+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=",
         "*=": "/=", "/=": "*="}
_OPERATORS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq, ast.Add, ast.Sub, ast.Mult,
              ast.Div)
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT = 600.0  # seconds; a mutant that loops is killed by it


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    """The function or method ``qualname`` (``Class.method`` or ``function``) in ``tree``."""
    node = tree
    for name in qualname.split("."):
        matches = [child for child in ast.iter_child_nodes(node)
                   if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name]
        if not matches:
            raise SystemExit(f"no {qualname} found")
        node = matches[0]
    return node


def _gaps(function: ast.AST):
    """(end of left operand, start of right operand) around each targeted operator."""
    for node in ast.walk(function):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            yield node.left, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, _OPERATORS):
            yield node.target, node.value
        elif isinstance(node, ast.BoolOp):
            yield from zip(node.values, node.values[1:])
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, _OPERATORS):
                    yield left, right


def sites(source: str, qualname: str) -> tuple[list[tuple[int, int, str]], list[tuple[int, int]]]:
    """(line, column, operator) of each mutable operator token of ``qualname``, in order,
    and the (line, column) after the left operand of each operator with no token of its own."""
    lines = source.splitlines(keepends=True)

    def position(line: int, byte_col: int) -> tuple[int, int]:  # ast columns count UTF-8 bytes
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    tokens = [token for token in tokenize.generate_tokens(io.StringIO(source).readline)
              if token.string in SWAPS]
    found, skipped = set(), set()
    for left, right in _gaps(_function(ast.parse(source), qualname)):
        start = position(left.end_lineno, left.end_col_offset)
        end = position(right.lineno, right.col_offset)
        between = [token for token in tokens if start <= token.start and token.end <= end]
        if len(between) == 1:
            found.add((*between[0].start, between[0].string))
        else:
            skipped.add(start)
    return sorted(found), sorted(skipped)


def mutant(source: str, site: tuple[int, int, str]) -> str:
    """``source`` with the operator at ``site`` swapped."""
    line, column, text = site
    lines = source.splitlines(keepends=True)
    row = lines[line - 1]
    assert row[column:column + len(text)] == text, (site, row)
    lines[line - 1] = row[:column] + SWAPS[text] + row[column + len(text):]
    return "".join(lines)


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _test_files(tree: Path, module: str) -> list[str]:
    """Every test file of ``tree``, ``tests/test_<module>.py`` first.

    The files are named one by one: given ``tests`` as well, pytest would collect
    the directory in its own order, the named file included.
    """
    files = sorted(str(path.relative_to(tree)) for path in (tree / "tests").rglob("test_*.py"))
    return sorted(files, key=lambda name: name != f"tests/test_{module}.py")


def _run(tree: Path, module: str, text: str) -> tuple[bool, str]:
    """Tier-1 on ``tree`` with ``module``'s source set to ``text``: (killed, first failure)."""
    path = tree / "src" / "hardykit" / f"{module}.py"
    original = path.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    # No bytecode is written, so an equal-sized mutant can never load a stale .pyc.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, *TIER1, *_test_files(tree, module)], cwd=tree,
                              env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT:.0f} s"
    finally:
        path.write_text(original, encoding="utf-8")
    failures = [line.split(" - ")[0] for line in done.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    # Without a failed test, the suite stopped earlier: say how, by the last line it printed.
    last = (done.stderr.strip() or done.stdout.strip()).splitlines()[-1:] or [""]
    return done.returncode != 0, failures[0] if failures else f"exit {done.returncode}: {last[0]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="module:qualname")
    args = parser.parse_args(argv)

    started, mutants, survivors = time.monotonic(), 0, 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tree:
        _copy_tree(Path(tree))
        for target in args.targets:
            module, _, qualname = target.partition(":")
            source = (ROOT / "src" / "hardykit" / f"{module}.py").read_text(encoding="utf-8")
            found, skipped = sites(source, qualname)
            for line, column in skipped:
                print(f"skipped  {module}.py:{line}:{column} {qualname}: no operator token",
                      flush=True)
            for line, column, text in found:
                label = f"{module}.py:{line}:{column} {qualname} {text} -> {SWAPS[text]}"
                killed, detail = _run(Path(tree), module, mutant(source, (line, column, text)))
                mutants, survivors = mutants + 1, survivors + (not killed)
                print(f"killed   {label}  by {detail}" if killed else f"SURVIVED {label}",
                      flush=True)
    print(f"{mutants} mutants, {mutants - survivors} killed, {survivors} survived, "
          f"{time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
