"""Spans around hardykit's public functions, recorded from the benchmark's side.

``Tracer.install`` wraps every public function of each layer module and the
validators ``__post_init__`` of ``QuantumState``, ``Observable`` and
``Scenario``. Modules bind names at import (``hardykit.witness`` holds its own
``joint_probability``), so every binding of a wrapped function in the package
is replaced, and restored by ``uninstall``. Spans (name, start, end, parent)
stay in memory; self time is a span's length minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("qcore", "witness", "lhv", "search", "cli")
VALIDATORS = (("qcore", "QuantumState"), ("qcore", "Observable"), ("witness", "Scenario"))
ITEM = "item"


def _lhv_tag(args, result) -> tuple[bool, bool]:
    """(trichotomic, feasible) of an lhv_feasible call."""
    q = args[0]
    trichotomic = getattr(q, "trichotomic", None)
    if trichotomic is None:
        trichotomic = len(q) == 6
    return bool(trichotomic), bool(result.feasible)


TAGGERS = {"lhv.lhv_feasible": _lhv_tag}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tags: dict[int, tuple] = {}
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if tagger is not None:
                self.tags[index] = tagger(args, result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for owner in (package, *modules.values()):
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(owner, attr, wrappers[obj])
        for layer, cls_name in VALIDATORS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and "__post_init__" in vars(cls):
                self._replace(cls, "__post_init__", self._wrap(f"{layer}.{cls_name}.__post_init__", cls.__post_init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name counts, inclusive and self times, and search-ancestor links."""

    def __init__(self, tracer: Tracer):
        names = np.array(tracer.names + [""])
        name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        self.name = names[name_id]
        self.duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=self.duration[has_parent], minlength=len(parent))
        self.self_time = self.duration - children
        self.parent = parent
        self.tags = tracer.tags
        items = self.name == ITEM
        self.items = int(items.sum())
        self.item_time = float(self.duration[items].sum())

    def mask(self, name: str) -> np.ndarray:
        return self.name == name

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def per_item(self, name: str) -> float:
        return self.calls(name) / self.items if self.items else 0.0

    def mean(self, name: str, own: bool = False) -> float:
        """Mean seconds per call of ``name``; self time when ``own``."""
        mask = self.mask(name)
        values = (self.self_time if own else self.duration)[mask]
        return float(values.mean()) if mask.any() else 0.0

    def layer_share(self, layer: str) -> float:
        mask = np.char.startswith(self.name.astype(str), layer + ".")
        return float(self.self_time[mask].sum()) / self.item_time if self.item_time else 0.0

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside a call of ``ancestor``."""
        inside = np.zeros(len(self.name), dtype=bool)
        is_ancestor = self.mask(ancestor)
        for i, p in enumerate(self.parent):
            if p >= 0:
                inside[i] = inside[p] or is_ancestor[p]
        return int((inside & self.mask(name)).sum())
