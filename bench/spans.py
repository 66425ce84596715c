"""Span tracing of the rqclattice package from outside the program.

`Tracer.install()` replaces every public function and public method of the
package's modules (plus, for chosen modules, the arithmetic dunders of their
classes) by a wrapper that records a span.  A function re-imported into another module, such as
`lattice.build_table`, is the same object as `plaquette.build_table`; it gets
one wrapper, named after the module that defines it, and every binding of it
is replaced.  `Tracer.restore()` puts every original object back.

Per span name the tracer keeps the call count, the self time (duration minus
the time covered by child spans) and the outermost inclusive time (nested
calls of the same name are not counted twice).  Named groups of span names get
an outermost inclusive time of their own.  Spans that cross a module boundary
are also kept as records (id, parent id, request, name, start, end), up to a
cap, to be written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time
import types

# Dunders wrapped in the classes of the modules named in `dunder_modules`.
WRAPPED_DUNDERS = frozenset(
    {
        "__init__", "__call__", "__add__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__divmod__",
        "__floordiv__", "__mod__",
    }
)
SPAN_RECORD_CAP = 20_000


def package_modules(package) -> list[types.ModuleType]:
    """The package itself and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _layer(qualified: str) -> str:
    return qualified.split(".", 1)[0]


class Tracer:
    """Wraps a package's public callables and aggregates their spans.

    `refine` maps a span name to `f(name, args, kwargs) -> name`, to split one
    function's spans by an argument (e.g. the backend).  `observe` maps a span
    name to `f(args, kwargs)`, called before the function runs.  `groups` maps
    a group name to a predicate on span names; the group sums the outermost
    inclusive time of the spans it accepts.  The classes of the modules in
    `dunder_modules` (short names) also get their WRAPPED_DUNDERS wrapped.
    """

    def __init__(self, package, refine=None, observe=None, groups=None, dunder_modules=()):
        self.package = package
        self.dunder_modules = frozenset(dunder_modules)
        self.prefix = package.__name__ + "."
        self.refine = dict(refine or {})
        self.observe = dict(observe or {})
        self.groups = dict(groups or {})
        self._group_of: dict[str, tuple[str, ...]] = {}
        self.request = None
        self.stats: dict[str, list] = {}  # name -> [calls, outermost incl s, self s]
        self.group_s: dict[str, float] = dict.fromkeys(self.groups, 0.0)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _span_name(self, obj) -> str:
        module = obj.__module__[len(self.prefix):] if obj.__module__.startswith(self.prefix) else obj.__module__
        return f"{module}.{obj.__qualname__}"

    def _owned(self, obj) -> bool:
        return getattr(obj, "__module__", None) is not None and (
            obj.__module__ == self.package.__name__ or obj.__module__.startswith(self.prefix)
        )

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules(self.package)
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not self._owned(value):
                    continue
                if isinstance(value, type):
                    if value.__module__ == mod.__name__ and not issubclass(value, BaseException):
                        self._wrap_class(value)
                elif callable(value) and not isinstance(value, types.ModuleType):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrapper(value, self._span_name(value))
                    self._patch(mod, attr, wrappers[id(value)])
        return self

    def _wrap_class(self, cls: type):
        dunders = WRAPPED_DUNDERS if cls.__module__[len(self.prefix):] in self.dunder_modules else ()
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in dunders:
                continue
            if isinstance(value, (staticmethod, classmethod)):
                func = value.__func__
                wrapped = type(value)(self._wrapper(func, self._span_name(func)))
            elif isinstance(value, types.FunctionType):
                func = value
                wrapped = self._wrapper(func, self._span_name(func))
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        """Put back every original object, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans --------------------------------------------------------------

    def _wrapper(self, fn, name: str):
        tracer = self
        refine = self.refine.get(name)
        observe = self.observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if refine is None else refine(name, args, kwargs)
            if observe is not None:
                observe(args, kwargs)
            frame = tracer._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        for extra in ("cache_info", "cache_clear"):
            if hasattr(fn, extra):
                setattr(traced, extra, getattr(fn, extra))
        return traced

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
        return local

    def _groups_of(self, name: str) -> tuple[str, ...]:
        groups = self._group_of.get(name)
        if groups is None:
            groups = self._group_of[name] = tuple(g for g, accepts in self.groups.items() if accepts(name))
        return groups

    def _enter(self, name: str):
        local = self._thread_state()
        stack = local.stack
        parent = stack[-1] if stack else None
        depth = local.depth
        depth[name] = depth.get(name, 0) + 1
        for g in self._groups_of(name):
            depth["group:" + g] = depth.get("group:" + g, 0) + 1
        record_id = None
        if parent is None or _layer(parent[0]) != _layer(name):
            with self._lock:
                if len(self.spans) < SPAN_RECORD_CAP:
                    record_id = len(self.spans)
                    self.spans.append(None)
                else:
                    self.spans_dropped += 1
        # name, start, child time, parent frame, record id, nearest recorded id
        frame = [name, 0.0, 0.0, parent, record_id,
                 record_id if record_id is not None else (parent[5] if parent else None)]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child, parent, record_id, _ = frame
        local = self._local
        local.stack.pop()
        duration = end - start
        if parent is not None:
            parent[2] += duration
        depth = local.depth
        depth[name] -= 1
        outermost = depth[name] == 0
        closed_groups = []
        for g in self._groups_of(name):
            depth["group:" + g] -= 1
            if depth["group:" + g] == 0:
                closed_groups.append(g)
        with self._lock:
            agg = self.stats.get(name)
            if agg is None:
                agg = self.stats[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[2] += duration - child
            if outermost:
                agg[1] += duration
            for g in closed_groups:
                self.group_s[g] += duration
            if record_id is not None:
                parent_id = parent[5] if parent is not None else None
                self.spans[record_id] = (record_id, parent_id, self.request, name, start, end)

    # -- readouts -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with `prefix`."""
        return sum(v[2] for k, v in self.stats.items() if k.startswith(prefix))

    def summary(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())},
            "groups_s": dict(self.group_s),
            "spans": [s for s in self.spans if s is not None],
            "spans_dropped": self.spans_dropped,
        }
