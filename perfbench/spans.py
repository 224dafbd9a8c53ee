"""Spans around calls into the package's public functions, recorded from outside.

``Tracer.install`` replaces each listed function, in every ``cubicpaths``
module namespace that binds it, with a wrapper that records a span: name,
start, end and the index of the enclosing span.
Calls the package makes to itself are therefore traced too (for example the
``count_paths`` calls inside ``hamiltonize``).  A generator function gets one
span per resumption.  Spans live in flat arrays in memory and are written out
by ``dump`` after the timed part.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over spans named ``<layer>.*``.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, public function) pairs that get a span per call
TRACED = (
    ("blocks", "solve_block"),
    ("search", "check_conjecture"),
    ("search", "enumerate_tuples"),
    ("hamilton", "hamiltonize"),
    ("hamilton", "tree_sort"),
    ("tuples", "encode"),
    ("tuples", "decode"),
    ("tuples", "validity_issues"),
    ("tuples", "tuple_mu"),
    ("dag", "validate"),
    ("dag", "count_paths"),
    ("dag", "structural_3ec"),
    ("dag", "is_simple"),
    ("dag", "vertex_kinds"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.yields: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(fn):
            self.yields[name] = 0

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.end[idx] = perf_counter()
                        self.start[idx] = t0
                        self._stack.pop()
                    self.yields[name] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function wherever a cubicpaths module binds it."""
        modules = [m for k, m in sys.modules.items() if k == "cubicpaths" or k.startswith("cubicpaths.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"cubicpaths.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and durations."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["incl_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["durations"].append(dur)
        for name, count in self.yields.items():
            out[name]["yields"] = count
        return out

    def dump(self, path: Path, origin: float) -> None:
        """Write every span as CSV (name, parent index, start/end in us)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,parent,start_us,end_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                    f"{(self.start[i] - origin) * 1e6:.3f},{(self.end[i] - origin) * 1e6:.3f}\n"
                )
