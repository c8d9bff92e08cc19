"""In-memory span tracer that instruments sjkit from the outside.

`Tracer.install` wraps every function named in the ``__all__`` of each layer
module, the ``validate`` methods of the point classes in ``spaces``,
``ScalarField.__call__`` and the trial functions registered in
``suites.SUITES``.  Names are resolved when the tracer is installed, and each
wrapper replaces the original in every ``sjkit`` namespace that holds it, so
calls between modules are seen as well.  A span is (name, start, end,
parent, operation id); spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("numkit", "groups", "spaces", "decomp", "geometry", "automorphy", "serialize", "suites")
_FIELDS = 5  # name id, start ns, end ns, parent span index, operation id


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.op = -1
        self._undo: list = []

    def __len__(self) -> int:
        return len(self.spans) // _FIELDS

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) // _FIELDS
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx * _FIELDS + 2] = clock()

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, key, value, item: bool = False) -> None:
        self._undo.append((owner, key, owner[key] if item else getattr(owner, key), item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sjkit" or n.startswith("sjkit.")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"sjkit.{layer}")
            if mod is None:
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if layer == "spaces" and "validate" in obj.__dict__:
                        self._set(obj, "validate", self._wrap(f"spaces.{name}.validate", obj.validate))
                    if layer == "geometry" and name == "ScalarField":
                        self._set(obj, "__call__", self._wrap("geometry.ScalarField.__call__", obj.__call__))
            if layer == "suites" and isinstance(getattr(mod, "SUITES", None), dict):
                for suite, entry in list(mod.SUITES.items()):
                    if isinstance(entry, tuple) and entry and callable(entry[0]):
                        wrapped = self._wrap(f"suites.{suite}.trial", entry[0])
                        self._set(mod.SUITES, suite, (wrapped,) + entry[1:], item=True)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original, item = self._undo.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- analysis ----------------------------------------------------------

    def table(self) -> dict:
        """Columns as numpy arrays, plus each span's self time."""
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        name, start, end, parent, op = (rec[:, k].copy() for k in range(_FIELDS))
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "start": start, "end": end, "parent": parent, "op": op,
                "dur": dur, "self": dur - child}

    def ids(self, predicate) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if predicate(n)], dtype=np.int64)

    def write(self, path) -> None:
        """Dump every span as tab-separated text: name, start, end, parent, op."""
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for nid, start, end, parent, op in rec.tolist():
                out.write(f"{self.names[nid]}\t{start}\t{end}\t{parent}\t{op}\n")


def outermost(table: dict, members: np.ndarray) -> np.ndarray:
    """Mask of spans in `members` with no ancestor in `members`."""
    inside = np.isin(table["name"], members)
    parent = table["parent"]
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    covered = np.zeros_like(inside)
    while True:
        nxt = has_parent & (inside[safe] | covered[safe])
        if np.array_equal(nxt, covered):
            return inside & ~covered
        covered = nxt
