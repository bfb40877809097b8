"""Span tracer installed from outside the package.

Timing wrappers replace module attributes that callers look up at call
time (``apzf.harness.sample_channel``, ``apzf.scheme.naive_zf``, ...).
Every module namespace under ``apzf`` that binds the original function
object gets the wrapper, so a call through any import path is seen.  A
target the package no longer defines is recorded as absent and reports
zero calls instead of failing.

Each call becomes a span (id, name, start, end, parent id, point).  Self
time is the span's duration minus the time covered by traced child
calls; the tracer's own bookkeeping around a child is charged to the
child's cover, so it does not inflate the parent's self time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id, point)
        self.calls = defaultdict(int)  # (name, group) -> calls
        self.self_ns = defaultdict(int)  # (name, group) -> self time
        self.absent = []
        self._next_id = 0
        self._stack = [[-1, 0]]  # [span id, child cover ns]; root sentinel
        self._point = None
        self._group = None
        self._bindings = []  # (module, attribute, original, wrapper)

    def wrap(self, module, attr, name, on_return=None, point_of=None):
        """Rebind ``module.attr`` everywhere in the package to a timing wrapper.

        ``on_return(args, kwargs, result)`` runs after the span closes and is
        excluded from every span's self time.  ``point_of(args, kwargs)``
        returns ``(point, group)`` for a call that starts a new point, such
        as one (scheme, SNR) evaluation; child spans inherit both.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_in = perf_counter_ns()
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0]
            if point_of is not None:
                saved = tracer._point, tracer._group
                tracer._point, tracer._group = point_of(args, kwargs)
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                key = (name, tracer._group)
                tracer.calls[key] += 1
                tracer.self_ns[key] += end - start - frame[1]
                tracer.spans.append((sid, name, start, end, parent, tracer._point))
                if point_of is not None:
                    tracer._point, tracer._group = saved
            if on_return is not None:
                on_return(args, kwargs, result)
            stack[-1][1] += perf_counter_ns() - t_in
            return result

        wrapper.__wrapped__ = original
        for mod in [m for k, m in sys.modules.items() if k == "apzf" or k.startswith("apzf.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._bindings.append((mod, key, original, wrapper))

    def enable(self):
        for mod, key, _, wrapper in self._bindings:
            setattr(mod, key, wrapper)

    def disable(self):
        for mod, key, original, _ in self._bindings:
            setattr(mod, key, original)

    def stats(self, name, group=None):
        """(calls, self ns) of ``name``, for one group or summed over all."""
        if group is not None:
            return self.calls.get((name, group), 0), self.self_ns.get((name, group), 0)
        calls = sum(v for (n, _), v in self.calls.items() if n == name)
        ns = sum(v for (n, _), v in self.self_ns.items() if n == name)
        return calls, ns

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("id,name,start_ns,end_ns,parent,point\n")
            for sid, name, start, end, parent, point in self.spans:
                f.write(f"{sid},{name},{start},{end},{parent},{'' if point is None else point}\n")
