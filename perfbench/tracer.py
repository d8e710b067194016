"""Layer-boundary tracing for the affineschur modules, installed from outside.

The layers are the package's modules: cli, verify, quantum, schur, hecke,
weyl, laurent and kernels (whichever kernel module `_backend` made live).
`Tracer.install()` replaces every public function and method of each module
with a wrapper, and rebinds the names other modules imported from it
(`verify`'s `from affineschur.hecke import ...` and so on), so a call through
any of those names passes through the wrapper.

Every wrapped call is counted.  A span opens only when the caller is in a
different layer, or when the callee is one of a few named focus functions
whose own time is reported; it records name, start, end, parent span and
request id.
Self time is a span's duration minus the time its child spans cover, and is
summed online, so the aggregates are exact even when the stored span list is
capped.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("cli", "verify", "quantum", "schur", "hecke", "weyl", "laurent", "kernels")

# operator methods worth a span; hashing, repr and construction are left out
# because they are bookkeeping, not algebra
_DUNDERS = frozenset(
    {"__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
     "__pow__", "__invert__", "__call__", "__eq__"}
)

# the stored span list is capped so a traced sweep with millions of layer
# crossings keeps bounded memory; counts and times are unaffected by the cap
MAX_SPANS = 100_000


def layer_modules() -> dict:
    """Layer name -> live module object."""
    from affineschur._backend import kernels

    mods = {name: importlib.import_module(f"affineschur.{name}") for name in LAYERS[:-1]}
    mods["kernels"] = kernels
    return mods


def _terms_of(out) -> int:
    terms = getattr(out, "_terms", None)
    if isinstance(terms, dict):
        return len(terms)
    if isinstance(out, dict):
        return len(out)
    return 0


class Tracer:
    """Wrappers, counters and spans for one traced run."""

    def __init__(self, focus: frozenset = frozenset(), max_spans: int = MAX_SPANS):
        # names in `focus` open a span on every call, also from their own
        # layer, so their self time is reported separately
        self.focus = focus
        self.max_spans = max_spans
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.terms_out: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._state = [None, 0, -1]
        self._stack: list[list] = []
        self.caches: dict[str, list] = {}
        self.kl_memos: list[dict] = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        calls, selfs, terms = self.calls, self.self_s, self.terms_out
        calls[name] = 0
        selfs[name] = 0.0
        terms[name] = 0
        # state: [layer of the innermost open span, spans opened, request id];
        # stack frames: [span id, time covered by child spans]
        state, stack, spans, cap = self._state, self._stack, self.spans, self.max_spans
        clock = time.perf_counter
        same_layer_spans = name in self.focus

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            caller = state[0]
            if caller is layer and not same_layer_spans:
                return fn(*args, **kwargs)
            state[1] += 1
            frame = [state[1], 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            state[0] = layer
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                state[0] = caller
                dur = t1 - t0
                selfs[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(spans) < cap:
                    spans.append((frame[0], name, t0, t1, parent[0] if parent else 0, state[2]))
            terms[name] += _terms_of(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and methods, everywhere they
        are bound in the package."""
        mods = layer_modules()
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            self.caches[layer] = [
                obj for obj in vars(mod).values()
                if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
            ]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        self._track_kl_memos(mods["hecke"].KLTable)
        for mod in list(mods.values()) + [importlib.import_module("affineschur")]:
            for attr, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            label = f"{layer}.{cls.__name__}.{attr.strip('_')}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, label, layer))
            elif callable(raw):
                wrapped = self._wrap(raw, label, layer)
            else:
                continue
            setattr(cls, attr, wrapped)

    def _track_kl_memos(self, kltable) -> None:
        # memo dicts are kept past their table's life so their final sizes
        # can be read at the end of the run
        init = kltable.__init__
        memos = self.kl_memos

        def tracked_init(table, *args, **kwargs):
            init(table, *args, **kwargs)
            memos.append(table._memo)

        kltable.__init__ = tracked_init

    @property
    def span_total(self) -> int:
        return self._state[1]

    @property
    def request_id(self) -> int:
        return self._state[2]

    @request_id.setter
    def request_id(self, value: int) -> None:
        self._state[2] = value

    # -- results ---------------------------------------------------------------

    def total(self, field: str, prefix: str) -> float:
        """Sum of a counter over every span name equal to prefix or below it."""
        table = getattr(self, field)
        dotted = prefix + "."
        return sum(v for k, v in table.items() if k == prefix or k.startswith(dotted))

    def cache_gauges(self) -> dict[str, float]:
        """lru_cache sizes and hit ratios per layer, read from outside."""
        out = {}
        for layer in ("weyl", "hecke", "schur", "quantum"):
            infos = [fn.cache_info() for fn in self.caches.get(layer, [])]
            hits = sum(i.hits for i in infos)
            misses = sum(i.misses for i in infos)
            out[f"{layer}.cache.size"] = sum(i.currsize for i in infos)
            out[f"{layer}.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["hecke.kl_memo.size"] = sum(len(m) for m in self.kl_memos)
        return out

    def dump_spans(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names, "kept": len(self.spans), "total": self.span_total}) + "\n")
            for sid, name, t0, t1, parent, req in self.spans:
                fh.write(f"{sid} {index[name]} {t0:.9f} {t1:.9f} {parent} {req}\n")
