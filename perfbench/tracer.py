"""Span tracing around the library's layer boundaries, from outside.

The library is not instrumented.  `Tracer.install` replaces every public
function of the traced modules with a wrapper, as a module attribute.  The
library calls these functions through module attributes (`angles.feasible`)
or module globals (a call inside `pairings` to `edge_orbits`), so every call
into a layer opens a span.  Private helpers are not wrapped: their time is
part of the self time of the public function that called them.

Spans are aggregated as they close: per function, the number of calls,
the total span time and the self time (span time minus the time covered by
child spans).
"""

import inspect
import time

LAYERS = ("polytope", "angles", "pairings", "enumeration", "geometry", "cli")


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.observed = {}   # span name -> list of observer results
        self._stack = []     # [span name, start, child seconds]
        self._originals = []
        self.enabled = False

    def install(self, package, observers=None):
        """Wrap the public functions of each layer module of `package`.

        `observers` maps a span name to a function of the call's return
        value; it runs after the span closes, with tracing paused, and its
        results are kept in `self.observed`.
        """
        observers = observers or {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                span = f"{layer}.{name}"
                self._originals.append((module, name, fn))
                setattr(module, name,
                        self._wrap(fn, span, observers.get(span)))

    def uninstall(self):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.observed.clear()

    def _wrap(self, fn, span, observer):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [span, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                self.calls[span] = self.calls.get(span, 0) + 1
                self.self_s[span] = (self.self_s.get(span, 0.0)
                                     + elapsed - frame[2])
            if observer is not None:
                self.enabled = False
                try:
                    self.observed.setdefault(span, []).append(observer(result))
                finally:
                    self.enabled = True
            return result

        return traced
