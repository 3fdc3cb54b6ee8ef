"""Span tracer for the traced run, installed around twistlab's public functions.

Nothing in src/ changes: install() replaces the public functions of the
six modules (and the public and arithmetic methods of QuadraticSurd, and
sympy.factorint as called from surd) by wrappers, wherever twistlab holds
a reference to them.  Each wrapped call is a span (name, start, end,
parent, entry id).  A span's self time is its duration minus the time its
child spans cover.  Aggregates are updated as spans end; the spans
themselves are kept in memory, up to MAX_SPANS, and written out by dump().
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.util
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "surd", "contfrac", "torus", "dimgroup", "elliptic")
BANDS = ("", "L6", "L60", "L342")
MAX_SPANS = 400_000
COLUMNS = ("name", "start", "end", "parent", "entry")
_SURD_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__floor__"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[list[int]] = []  # per name, per band
        self.cross: list[int] = []  # calls entering the layer from another layer
        self.errors: list[int] = []  # of those, calls that raised
        self.self_ns: list[list[int]] = []  # per name, per band
        self.factorint_bits = 0
        self.band = 0
        self.entry = -1
        self.stack: list[list] = []
        self.cols = {c: array("q") for c in COLUMNS}
        self.dropped = 0

    def begin_entry(self, entry_id: int, band: str | None) -> None:
        """Called before each entry; also drops frames a timeout left behind."""
        self.entry, self.band = entry_id, BANDS.index(band or "")
        self.stack.clear()

    def _id(self, name: str, layer: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append([0] * len(BANDS))
            self.cross.append(0)
            self.errors.append(0)
            self.self_ns.append([0] * len(BANDS))
        return self.ids[name]

    def wrap(self, fn, name: str, layer: str):
        nid = self._id(name, layer)
        tr, stack, clock = self, self.stack, time.perf_counter_ns
        layer_of, cross, errors = self.layer_of, self.cross, self.errors
        self_ns, band_calls = self.self_ns[nid], self.calls[nid]
        c_name, c_start, c_end, c_parent, c_entry = (self.cols[c] for c in COLUMNS)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(c_name)
            if idx < MAX_SPANS:
                c_name.append(nid)
                c_start.append(0)
                c_end.append(0)
                c_parent.append(parent[3] if parent else -1)
                c_entry.append(tr.entry)
            else:
                idx = -1
                tr.dropped += 1
            frame = [clock(), 0, nid, idx]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - frame[0]
                self_ns[tr.band] += dur - frame[1]
                band_calls[tr.band] += 1
                if stack:
                    stack[-1][1] += dur
                if parent is None or layer_of[parent[2]] != layer:
                    cross[nid] += 1
                    errors[nid] += not ok
                if idx >= 0:
                    c_start[idx] = frame[0]
                    c_end[idx] = end

        return functools.wraps(fn)(traced)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import twistlab.cli  # noqa: F401  (imports every layer)

        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

        def wrapper_for(fn, layer):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self.wrap(fn, f"{layer}.{fn.__name__}", layer))
            return wrapped[id(fn)][1]

        mods = {layer: sys.modules[f"twistlab.{layer}"] for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrapper_for(obj, layer)
        cls = mods["surd"].QuadraticSurd
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if inspect.isfunction(fn) and (not attr.startswith("_") or attr in _SURD_DUNDERS):
                w = wrapper_for(fn, "surd")
                setattr(cls, attr, staticmethod(w) if isinstance(raw, staticmethod) else w)
        for name, mod in list(sys.modules.items()):
            if name == "twistlab" or name.startswith("twistlab."):
                for attr, obj in list(vars(mod).items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])
        if "sympy" in sys.modules:
            self._wrap_factorint(sys.modules["sympy"])
        else:  # keep sympy's import lazy, as the program does
            sys.meta_path.insert(0, _SympyHook(self))

    def _wrap_factorint(self, sympy) -> None:
        original = sympy.factorint

        def factorint(n, *args, **kwargs):
            self.factorint_bits = max(self.factorint_bits, int(n).bit_length())
            return original(n, *args, **kwargs)

        factorint.__name__ = "factorint"
        sympy.factorint = self.wrap(factorint, "surd.factorint", "surd")

    # -- results ---------------------------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "layers": self.layer_of, "calls": self.calls,
                "cross": self.cross, "errors": self.errors, "self_ns": self.self_ns,
                "factorint_bits": self.factorint_bits, "dropped": self.dropped,
                "spans": {c: self.cols[c].tolist() for c in COLUMNS}}

    def merge(self, other: dict) -> None:
        """Add another tracer's export (a traced child process) to this one."""
        remap = [self._id(n, l) for n, l in zip(other["names"], other["layers"])]
        for k, nid in enumerate(remap):
            self.cross[nid] += other["cross"][k]
            self.errors[nid] += other["errors"][k]
            for b in range(len(BANDS)):
                self.calls[nid][b] += other["calls"][k][b]
                self.self_ns[nid][b] += other["self_ns"][k][b]
        self.factorint_bits = max(self.factorint_bits, other["factorint_bits"])
        self.dropped += other["dropped"]
        spans, base = other["spans"], len(self.cols["name"])
        room = max(0, MAX_SPANS - base)
        self.dropped += max(0, len(spans["name"]) - room)
        for c in COLUMNS:
            values = spans[c][:room]
            if c == "name":
                values = [remap[v] for v in values]
            elif c == "parent":
                values = [v + base if v >= 0 else -1 for v in values]
            self.cols[c].extend(values)

    def stat(self, name: str, what: str, band: str = "") -> float:
        """Calls or self seconds of one span name, overall or in one band."""
        nid = self.ids.get(name)
        if nid is None:
            return 0
        per_band = self.calls[nid] if what == "calls" else self.self_ns[nid]
        total = per_band[BANDS.index(band)] if band else sum(per_band)
        return total if what == "calls" else total / 1e9

    def layer_totals(self, layer: str) -> tuple[int, float, int]:
        ids = [i for i, l in enumerate(self.layer_of) if l == layer]
        return (sum(self.cross[i] for i in ids),
                sum(sum(self.self_ns[i]) for i in ids) / 1e9,
                sum(self.errors[i] for i in ids))

    def dump(self, path_base: str, entries: list) -> None:
        """<path_base>.json describes the columns and, per entry id, its
        [block, index, verb, band]; <path_base>.bin holds the int64 columns."""
        header = {"columns": COLUMNS, "names": self.names, "layers": self.layer_of,
                  "spans": len(self.cols["name"]), "dropped": self.dropped,
                  "entries": entries, "units": "perf_counter_ns"}
        with open(path_base + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path_base + ".bin", "wb") as fh:
            for c in COLUMNS:
                self.cols[c].tofile(fh)


class _SympyHook(importlib.abc.MetaPathFinder):
    """Wraps sympy.factorint as soon as twistlab first imports sympy."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != "sympy":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec("sympy")
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.tracer._wrap_factorint(module)

        spec.loader.exec_module = exec_and_wrap
        return spec
