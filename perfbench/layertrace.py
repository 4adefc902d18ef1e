"""Per-layer timing for a traced benchmark child, applied from outside.

``LayerTracer.install`` replaces public functions of each layer with
timing wrappers by patching module and class attributes; nothing under
``src/`` is edited.  Every wrapped call updates an aggregate (calls,
inclusive time, self time); coarse calls also record one span (name,
start, end, parent), kept in memory and written out when the child
ends.  A call's self time is its duration minus the time of the
wrapped calls nested inside it, so the self times of all layers plus
the root's own time add up to the root span exactly.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

ROOT = "child"


class LayerTracer:
    def __init__(self, t0: float):
        self.t0 = t0
        self.layers: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self.checkpoint_bytes = 0
        # One frame per active wrapped call: [name, time of nested calls].
        self._stack = [[ROOT, 0.0]]

    def _record(self, name, frame, start, end, span):
        total = end - start
        rec = self.layers.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += total
        rec[2] += total - frame[1]
        parent = self._stack[-1]
        parent[1] += total
        if span:
            self.spans.append({"name": name, "start": start - self.t0,
                               "end": end - self.t0, "parent": parent[0]})

    def wrap(self, name: str, fn, span: bool = False):
        """Return ``fn`` timed as layer ``name``.

        ``functools.wraps`` keeps ``__qualname__``, which the checker
        uses to name invariants, so traced and untraced runs report the
        same per-invariant counts."""
        self.layers.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record(name, frame, start, end, span)

        return traced

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._record(name, frame, start, end, True)

    def install(self, api) -> None:
        """Wrap the layers on the benchmark's paths (see README.md)."""
        import repro.compiler.pipeline as pipeline
        import repro.verify.checker as checker
        from repro.runtime.exec import HandlerInterpreter
        from repro.tempest.machine import Machine

        wrap = self.wrap
        # compile_source looks these up in its own module namespace.
        pipeline.parse_program = wrap("lang.parse", pipeline.parse_program,
                                      span=True)
        pipeline.check_program = wrap("lang.typecheck",
                                      pipeline.check_program, span=True)
        pipeline.lower_program = wrap("compiler.lower",
                                      pipeline.lower_program, span=True)
        pipeline.apply_liveness = wrap("compiler.liveness",
                                       pipeline.apply_liveness)
        pipeline.apply_constcont = wrap("compiler.constcont",
                                        pipeline.apply_constcont, span=True)
        HandlerInterpreter.dispatch = wrap("runtime.dispatch",
                                           HandlerInterpreter.dispatch)
        Machine.run = wrap("tempest.machine_run", Machine.run, span=True)
        # The checker's own bindings: a ModelChecker resolves these at
        # construction or call time, after install() has run.
        checker.intern_channel = wrap("verify.model.intern",
                                      checker.intern_channel)
        checker.intern_message = wrap("verify.model.intern",
                                      checker.intern_message)
        checker.fingerprint = wrap("verify.fingerprint", checker.fingerprint)
        write = wrap("verify.checkpoint.write", checker.write_checkpoint,
                     span=True)

        def write_checkpoint(path, *args, **kwargs):
            write(path, *args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(path)

        checker.write_checkpoint = write_checkpoint
        standard = api.standard_invariants
        self.layers.setdefault("verify.invariants", [0, 0.0, 0.0])

        def standard_invariants(*args, **kwargs):
            return [wrap("verify.invariants", inv)
                    for inv in standard(*args, **kwargs)]

        api.standard_invariants = standard_invariants
        api.check = wrap("verify.check", api.check, span=True)
        api.simulate = wrap("sim.simulate", api.simulate, span=True)

    def finish(self) -> dict:
        """Close the root span; return the aggregates and spans."""
        end = perf_counter()
        root = self._stack[0]
        total = end - self.t0
        self.spans.append({"name": ROOT, "start": 0.0, "end": total,
                           "parent": None})
        return {
            "root": {"total_s": total, "self_s": total - root[1]},
            "layers": {name: {"calls": rec[0], "total_s": rec[1],
                              "self_s": rec[2]}
                       for name, rec in self.layers.items()},
            "checkpoint_bytes": self.checkpoint_bytes,
            "spans": self.spans,
        }
