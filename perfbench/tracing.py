"""Per-layer tracing of sweepfd from outside the package.

Every public function defined in a layer module is wrapped (private
helpers count toward their caller's layer), and every module
attribute that refers to it is rebound to the wrapper, so a call is
seen at whatever name its caller looks up: `composition` binds `sweep`
by name, `spectral` binds `apply_scheme`/`half_update`/`full_update`
and `oracle` binds `apply_scheme`, while `cli` and `composition` reach
other layers through module attributes.  `Field1D.copy` and
`Field1D.__post_init__` are wrapped on the class.

Spans are kept in memory (up to a cap; the aggregates cover every span)
and written out at exit.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over
its spans.  A layer's inclusive time is the time during which at least
one of its spans is open.  Spans mark layer boundaries only: a call made
from inside the same layer runs unrecorded within the caller's span, so
each span is one "call" into its layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import types
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "sweepfd"
LAYERS = ("grid", "sweep", "coefficients", "composition", "spectral", "oracle", "cli")
MAX_SPANS = 50_000


def _arg_getter(fn, names):
    """Return f(args, kwargs) -> value of the first parameter in names, or None."""
    params = list(inspect.signature(fn).parameters)
    for name in names:
        if name in params:
            index = params.index(name)

            def get(args, kwargs, index=index, name=name):
                return args[index] if len(args) > index else kwargs.get(name)
            return get
    return None


class Tracer:
    """Wraps the layer modules of an imported sweepfd and aggregates spans."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.incl_ns = dict.fromkeys(LAYERS, 0)
        self._depth = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(
            ("composition.steps", "sweep.samples", "grid.copies", "grid.bytes_copied",
             "spectral.thetas", "oracle.samples"), 0)
        self.spans = []
        self.dropped_spans = 0
        self._next_id = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    hook = self._hook(layer, name, obj)
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj, hook))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, entry[1])
        field = modules[f"{PACKAGE}.grid"].Field1D
        for name in ("copy", "__post_init__"):
            original = field.__dict__[name]
            self._patches.append((field, name, original))
            setattr(field, name, self._wrap("grid", f"Field1D.{name}", original,
                                            self._copy_hook if name == "copy" else None))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _hook(self, layer, name, fn):
        counters = self.counters
        if layer == "sweep" and name == "sweep":
            def hook(args, kwargs):
                counters["sweep.samples"] += (args[0] if args else kwargs["f"]).values.size
            return hook
        if layer == "composition" and name == "apply_scheme":
            def hook(args, kwargs):
                counters["composition.steps"] += 1
            return hook
        if layer == "oracle" and name == "exact_evolve":
            def hook(args, kwargs):
                counters["oracle.samples"] += (args[0] if args else kwargs["f"]).n
            return hook
        if layer == "spectral":
            get = _arg_getter(fn, ("theta", "thetas"))
            if get is not None:
                def hook(args, kwargs):
                    value = get(args, kwargs)
                    size = getattr(value, "size", None)     # numpy array or scalar
                    if size is None:
                        size = len(value) if isinstance(value, (list, tuple)) else 1
                    counters["spectral.thetas"] += size
                return hook
        return None

    def _copy_hook(self, args, kwargs):
        self.counters["grid.copies"] += 1
        self.counters["grid.bytes_copied"] += args[0].values.nbytes

    # -- spans -------------------------------------------------------------

    def _enter(self, layer, name):
        stack = self.stack
        span_id = self._next_id
        self._next_id += 1
        frame = [layer, perf_counter_ns(), 0, span_id, stack[-1][3] if stack else None, name]
        stack.append(frame)
        if layer in self._depth:
            self._depth[layer] += 1
        return frame

    def _exit(self, frame):
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        layer = frame[0]
        if layer in self.self_ns:
            self.self_ns[layer] += duration - frame[2]
            self.calls[layer] += 1
            self._depth[layer] -= 1
            if not self._depth[layer]:
                self.incl_ns[layer] += duration
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[3], frame[4], layer, frame[5], frame[1], end))
        else:
            self.dropped_spans += 1

    def _wrap(self, layer, name, fn, hook):
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a call inside its own layer is part of the enclosing span
            if not tracer.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = tracer._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if hook is not None:
                    hook(args, kwargs)
        return wrapper

    @contextmanager
    def span(self, layer, name):
        """Root span for one benchmark op; spans of one op share it as ancestor."""
        if not self.active:
            yield
            return
        frame = self._enter(layer, name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks outputs."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def write_spans(self, path, header):
        """Write the kept spans as JSON lines: one header line, then one span per line."""
        with open(path, "w") as out:
            out.write(json.dumps(dict(header, spans_kept=len(self.spans),
                                      spans_dropped=self.dropped_spans)) + "\n")
            for span_id, parent, layer, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                      "name": name, "start_ns": start, "end_ns": end}) + "\n")
