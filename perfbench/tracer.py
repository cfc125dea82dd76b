"""In-memory span recorder that instruments coxeterkit from outside.

``Recorder.install()`` rebinds every module attribute that refers to a
layer's public function, and wraps the public methods, properties and
arithmetic operators of the layer classes (``Cyclotomic``, ``Permutation``,
``SignedPermutation``, ``DihedralElement``, ``Matrix`` and the rest).  Nothing
under ``src/`` changes; ``uninstall()`` restores the originals.

A wrapped call is one of two kinds:

* a span, recorded as (id, name, start, end, parent id), for module
  functions, up to ``SPAN_CAP`` spans per name;
* an aggregated call, added as count plus total time under the enclosing
  span, for methods and operators (``chartable A5`` makes about 2.5 M
  element products) and for module functions past the cap.

Self time is exact for both kinds: each call's time minus the time of the
wrapped calls inside it, credited to the layer (module) that defines the
callee.  Work done in private helpers counts to the layer that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cyclotomic", "linalg", "graphs", "classify", "groups", "roots",
    "reps", "specht", "families", "verify", "cli",
)
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__rtruediv__",
)
ELEMENT_TYPES = ("Permutation", "SignedPermutation", "DihedralElement")
SPAN_CAP = 200  # recorded spans per name; later calls are aggregated


class Recorder:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.aggregated: dict[tuple, list] = {}
        self._stack: list[list] = []  # [child time, span id] per active call
        self._recorded: Counter = Counter()
        self._patches: list[tuple] = []
        self._originals: dict[str, object] = {}
        self._t0 = time.perf_counter()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, aggregate: bool, before=None, after=None):
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        spans, recorded, agg = self.spans, self._recorded, self.aggregated

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_id = stack[-1][1] if stack else 0
            as_span = not aggregate and recorded[name] < SPAN_CAP
            if as_span:
                recorded[name] += 1
                span_id = len(spans) + 1
                spans.append(None)  # reserve the id; filled in on return
            else:
                span_id = parent_id
            frame = [0.0, span_id]
            token = before(args) if before else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if as_span:
                    spans[span_id - 1] = (span_id, name, start - self._t0, end - self._t0, parent_id)
                else:
                    slot = agg.get((parent_id, name))
                    if slot is None:
                        agg[(parent_id, name)] = [1, dt]
                    else:
                        slot[0] += 1
                        slot[1] += dt
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _hooks(self, layer: str, owner: str, attr: str):
        """Counters kept at a layer boundary, as (before, after) callables."""
        counts, maxima = self.counts, self.maxima
        key = f"{owner}.{attr}" if owner else attr

        def count(name):
            def after(args, result, token):
                counts[name] += 1
            return after

        if owner in ELEMENT_TYPES and attr == "__mul__":
            return None, count("groups.products")
        if layer == "cyclotomic":
            counter = {"Cyclotomic.__mul__": "cyclotomic.mul_calls", "Cyclotomic.__rmul__": "cyclotomic.mul_calls",
                       "Cyclotomic.inverse": "cyclotomic.inverse_calls",
                       "Cyclotomic.is_zero": "cyclotomic.zero_tests"}.get(key)

            def after(args, result, token):
                if counter:
                    counts[counter] += 1
                c = getattr(result, "conductor", 0)
                if isinstance(c, int) and c > maxima["cyclotomic.max_conductor"]:
                    maxima["cyclotomic.max_conductor"] = c
            return None, after
        if owner == "Matrix" and attr in ("determinant", "leading_principal_minors", "rank",
                                          "inverse", "solve", "nullspace", "field_rank"):
            counter = {"determinant": "linalg.determinants",
                       "leading_principal_minors": "linalg.minor_passes"}.get(attr)

            def after(args, result, token):
                if counter:
                    counts[counter] += 1
                rows = len(args[0].entries)
                if rows > maxima["linalg.max_dim"]:
                    maxima["linalg.max_dim"] = rows
            return None, after
        if key == "realize":
            def before(args):
                return self._originals["realize"].cache_info().misses

            def after(args, result, token):
                if self._originals["realize"].cache_info().misses > token:
                    counts["groups.elements"] += len(result.elements)
            return before, after
        if key == "classify":
            def before(args):
                return counts["linalg.minor_passes"]

            def after(args, result, token):
                counts["classify.minor_passes"] += counts["linalg.minor_passes"] - token
                counts["classify.components"] += len(result.components)
            return before, after
        if key == "root_system":
            def after(args, result, token):
                counts["roots.roots"] += len(result.roots)
            return None, after
        if key == "induce_character":
            return None, count("reps.induce_calls")
        if key == "inner_product":
            return None, count("reps.inner_products")
        return None, None

    def install(self) -> "Recorder":
        for layer in LAYERS:
            importlib.import_module(f"coxeterkit.{layer}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "coxeterkit" or name.startswith("coxeterkit.")}
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules[f"coxeterkit.{layer}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, layer)
                elif callable(value):
                    self._originals[attr] = value
                    before, after = self._hooks(layer, "", attr)
                    wrapper = self._wrap(value, f"{layer}.{attr}", layer, False, before, after)
                    wrapped[id(value)] = (value, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            before, after = self._hooks(layer, cls.__name__, attr)
            if isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(value.fget, name, layer, True, before, after),
                               value.fset, value.fdel, value.__doc__)
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap(value.__func__, name, layer, True, before, after))
            elif inspect.isfunction(value):
                new = self._wrap(value, name, layer, True, before, after)
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        out = {}
        for fn_name, key in (("realize", "groups.realize"), ("specht_module", "specht.modules")):
            fn = self._originals.get(fn_name)
            if fn is not None:
                info = fn.cache_info()
                out[f"{key}_hits"] = info.hits
                out[f"{key}_misses"] = info.misses
        return out

    def snapshot(self) -> dict:
        """Totals so far: self seconds per layer, counters and maxima."""
        return {
            "self_s": dict(self.self_s),
            "counts": {**self.counts, **self.cache_stats()},
            "maxima": dict(self.maxima),
        }

    def trace(self) -> dict:
        """Spans and aggregated calls, for writing out at the end."""
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "aggregated": [[parent, name, n, t] for (parent, name), (n, t) in self.aggregated.items()],
        }


def difference(after: dict, before: dict) -> dict:
    """Work between two snapshots; maxima are taken as of ``after``."""
    return {
        "self_s": {k: v - before["self_s"].get(k, 0.0) for k, v in after["self_s"].items()},
        "counts": {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()},
        "maxima": dict(after["maxima"]),
    }
