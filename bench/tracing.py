"""Span tracing of dwmd's public functions, installed from outside the package.

Callers inside the package look functions up through module globals (for
example `discrepancy.dwmd` calls `raw_moments` as a global of
`dwmd.discrepancy`). A Tracer therefore replaces every module attribute that
refers to a traced function, in every dwmd module, with a wrapper, and puts
the originals back when it is closed. No file under `src/` is edited.

Two modes:
  timing  one span per call: name, start, end, parent span and op id. Self
          time is a span's duration minus the time its child spans cover.
  memory  per-function allocation peak under tracemalloc: the highest traced
          memory seen during a call, minus the traced memory at its entry.
"""

import time
import tracemalloc
from collections import Counter

# Module -> the public functions traced in it. The names of the per-layer
# metrics are "<module>.<function>.<measure>".
TRACED = {
    "moments": ("validate_samples", "raw_moments", "central_moments"),
    "weighting": ("weight_profile", "robust_dim_means"),
    "discrepancy": (
        "dwmd",
        "dwmd_gradient",
        "cmd_with_gradient",
        "mmd_rbf_with_gradient",
        "median_heuristic_bandwidth",
    ),
    "nettrain": ("forward", "objective_gradient", "train_uda", "evaluate"),
    "harness": ("load_csv", "save_csv", "run_experiment", "write_report"),
    "cli": ("main",),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def dwmd_modules():
    """The package and its six modules, imported."""
    import dwmd
    import dwmd.cli
    import dwmd.harness

    return [dwmd] + [getattr(dwmd, mod) for mod in TRACED]


class Tracer:
    """Context manager that wraps the TRACED functions while it is open."""

    def __init__(self, memory=False):
        self.memory = memory
        self._patches = []
        self._stack = []
        # timing mode
        self.op_id = 0
        self.spans = []  # (op, span, parent, name, start_ns, end_ns)
        self.calls = {}  # op -> Counter(name -> calls)
        self.self_ns = {}  # op -> Counter(name -> self time in ns)
        self._next_span = 0
        # memory mode: name -> largest per-call peak above entry, in bytes
        self.peak_bytes = Counter()
        self.root_peak_bytes = 0

    def begin_op(self, op_id):
        self.op_id = op_id
        self.calls[op_id] = Counter()
        self.self_ns[op_id] = Counter()

    def __enter__(self):
        modules = dwmd_modules()
        by_name = {m.__name__: m for m in modules}
        originals = {}
        for mod, fns in TRACED.items():
            for fn_name in fns:
                fn = getattr(by_name[f"dwmd.{mod}"], fn_name)
                originals[id(fn)] = self._wrap(fn, f"{mod}.{fn_name}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if self.memory:
            tracemalloc.start()
            current, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            self._stack.append([current, current])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        if self.memory:
            base, running = self._stack.pop()
            _, peak = tracemalloc.get_traced_memory()
            self.root_peak_bytes = max(running, peak) - base
            tracemalloc.stop()
        return False

    def _wrap(self, fn, name):
        if self.memory:
            return self._wrap_memory(fn, name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                op = self.op_id
                self.calls[op][name] += 1
                self.self_ns[op][name] += duration - frame[1]
                spans.append((op, span, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def _wrap_memory(self, fn, name):
        stack = self._stack
        peaks = self.peak_bytes

        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                stack.pop()
                frame[1] = max(frame[1], peak)
                peaks[name] = max(peaks[name], frame[1] - frame[0])
                stack[-1][1] = max(stack[-1][1], frame[1])

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path):
        """Write every recorded span as CSV, times in ns from the first span."""
        t0 = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for op, span, parent, name, start, end in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{op},{span},{parent},{name},{start - t0},{end - t0}\n")

