"""Span tracing from outside the program.

`Tracer.install` replaces every public function of the traced `regadapt`
modules with a wrapper that records a span (name, start, end, parent).
The replacement is made in every namespace where a caller looks the
function up: `regadapt.autodiff.conv3d` as `unet` calls it through
`ad.conv3d`, and also `regadapt.volume_io.warp`, which `volume_io` bound
by name with `from .fields import warp`. When an op returns a graph node,
the node's backward closure is wrapped too, so backward work gets its own
span (`<op>.bwd`) under the `autodiff.backward` span of
`DiffTensor.backward`.

Spans stay in memory as parallel lists and are written out once, at the
end. Self time is a span's duration minus the durations of its children;
calls run one after another on one thread, so children never overlap.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

TRACED_MODULES = ("autodiff", "unet", "fields", "losses", "pipeline", "metrics", "volume_io")

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder; spans are indexed by open order.

    A tracer made with on=False records nothing: untraced runs pass one to
    the workloads, whose `span` and `paused` blocks then cost nothing.
    """

    def __init__(self, on=True):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.work = {}    # span index -> work units (flops or bytes) recorded by a hook
        self.values = {}  # span index -> returned scalar, for functions asked to keep it
        self.on = on
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(i)
        self.starts.append(_clock())
        return i

    def _close(self, i):
        self.ends[i] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around a block of benchmark code (a stage of one pair)."""
        if not self.on:
            yield
            return
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        """Run program code without recording (the benchmark's own checks)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def _wrap(self, name, fn, work_hook=None, keep_value=False):
        tracer = self
        bwd_name = name + ".bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            bwd_work = None
            if work_hook is not None:
                tracer.work[i], bwd_work = work_hook(args, kwargs, out)
            if keep_value:
                tracer.values[i] = float(out)
            backward = getattr(out, "_backward", None)
            if backward is not None and not hasattr(backward, "_traced_name"):
                out._backward = tracer._wrap_backward(bwd_name, backward, bwd_work)
            return out

        return wrapper

    def _wrap_backward(self, name, fn, work):
        tracer = self

        def backward(g):
            if not tracer.on:
                return fn(g)
            i = tracer._open(name)
            try:
                fn(g)
            finally:
                tracer._close(i)
            if work is not None:
                tracer.work[i] = work

        backward._traced_name = name
        return backward

    # -- installing --------------------------------------------------------

    def install(self, package="regadapt", work_hooks=None, keep_values=()):
        """Wrap the public functions of TRACED_MODULES and DiffTensor.backward.

        work_hooks maps a span name to fn(args, kwargs, out) returning the
        (forward, backward) work of that call; keep_values names the spans
        whose scalar return value is kept.
        """
        work_hooks = work_hooks or {}
        modules = {m: importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES}
        every = [mod for key, mod in list(sys.modules.items())
                 if mod is not None and (key == package or key.startswith(package + "."))]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self._wrap(name, fn, work_hooks.get(name), name in keep_values)
                for holder in every:
                    for bound, obj in list(vars(holder).items()):
                        if obj is fn:
                            self._restore.append((holder, bound, fn))
                            setattr(holder, bound, wrapped)
        cls = modules["autodiff"].DiffTensor
        original = cls.backward
        self._restore.append((cls, "backward", original))
        cls.backward = self._wrap("autodiff.backward", original)

    def uninstall(self):
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """(self seconds, in-backward flag) per span."""
        n = len(self.names)
        durs = [self.ends[i] - self.starts[i] for i in range(n)]
        selfs = list(durs)
        in_bwd = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                selfs[p] -= durs[i]
            in_bwd[i] = self.names[i].endswith(".bwd") or (p >= 0 and in_bwd[p])
        return selfs, in_bwd

    def check_tree(self, tol=1e-9):
        """Problems with the span tree: open spans, children outside their
        parent, negative self time. Empty when the tree is well formed."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
            return problems
        selfs, _ = self.self_times()
        for i, p in enumerate(self.parents):
            if p >= i:
                problems.append(f"span {i} has parent {p} opened after it")
            elif p >= 0 and (self.starts[i] < self.starts[p] or self.ends[i] > self.ends[p]):
                problems.append(f"span {i} {self.names[i]} outside parent {self.names[p]}")
            if selfs[i] < -tol:
                problems.append(f"span {i} {self.names[i]} has self time {selfs[i]:.3g}")
        return problems

    def write(self, path):
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"i": i, "name": name, "parent": self.parents[i],
                                    "start": self.starts[i], "end": self.ends[i],
                                    "work": self.work.get(i)}) + "\n")


def span_cost(calls=20000):
    """Seconds one traced call adds to an untraced one, measured on a no-op."""

    def noop(x):
        return x

    tr = Tracer()
    wrapped = tr._wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = _clock()
        for i in range(calls):
            noop(i)
        t1 = _clock()
        for i in range(calls):
            wrapped(i)
        t2 = _clock()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls
