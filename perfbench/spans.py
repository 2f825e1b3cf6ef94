"""Host-time spans around the public entry points of each layer.

The program itself carries no host-time instrumentation, so the
benchmark wraps each layer's entry points from the outside: every
binding of a wrapped function (module globals, re-exports in package
``__init__`` modules) and every override of a wrapped method is
replaced, and each call records a span (name, start, end, parent, run
id) in memory.  A span's *self time* is its duration minus the part
covered by its child spans, so the self times of one thread's spans sum
to the wall time of that thread's root span.

A wrapped callable re-entered under a span of the same name (the
cell-list backend calling the pair kernel) records no second span: the
outer span already owns that time.  Raw call counts per wrapped function are kept separately,
which is what the benchmark's own test compares with a cProfile count
of the same run.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import threading
import time
import types
from collections import Counter
from typing import Any, Callable


@dataclasses.dataclass
class Span:
    """One host-time interval; ``parent`` indexes its process's span list."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str = ""
    pid: int = 0
    tid: int = 0
    child_s: float = 0.0
    args: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.raw_calls: Counter[tuple[str, int, str]] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self, run_id: str) -> None:
        """Forget everything (a forked worker starts its own record)."""
        self.run_id = run_id
        self.spans = []
        self.raw_calls = Counter()
        self._local = threading.local()
        # another thread of the parent may have held the lock at the fork
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    def open(self, name: str, **args: Any) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            run_id=self.run_id,
            pid=os.getpid(),
            tid=threading.get_ident(),
            args=args,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span


def _code_key(fn: Callable) -> tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def wrap(
    recorder: Recorder,
    fn: Callable,
    name: str,
    on_result: Callable[[Span, tuple, dict, Any], None] | None = None,
) -> Callable:
    """``fn`` recording a ``name`` span per outermost call."""
    key = _code_key(fn)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        recorder.raw_calls[key] += 1
        if recorder.current_name() == name:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = recorder.close(index)
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result

    return traced


# -- what gets wrapped -------------------------------------------------


def _pairs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.args["pairs"] = int(result.pairs_examined)


def _cache_lines(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.args["lines"] = int(len(args[1]))


def _device_key(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    bound = dict(zip(("device", "config", "n_steps", "faults"), args), **kwargs)
    if bound.get("faults") is None:
        device = bound["device"]
        config = dataclasses.replace(bound["config"], dtype=device.precision)
        span.args["trajectory"] = repr((config, bound["n_steps"], device.force_path))


#: (module, function, span name, result hook): every binding in a
#: ``repro`` module that is this function object gets replaced.
FUNCTIONS = (
    ("repro.md.forces", "compute_forces", "md.forces", _pairs),
    ("repro.md.forces", "compute_pair_forces", "md.forces", _pairs),
    ("repro.md.forces", "compute_forces_27image", "md.forces", _pairs),
    ("repro.md.forces", "compute_forces_reference", "md.forces", _pairs),
    ("repro.md.neighborlist", "compute_forces_neighborlist", "md.forces", _pairs),
    ("repro.md.neighborlist", "build_pairs", "md.pairlist", None),
    ("repro.md.celllist", "build_pairs_cells", "md.pairlist", None),
    ("repro.md.integrators", "velocity_verlet_step", "md.integrate", None),
    ("repro.md.integrators", "leapfrog_step", "md.integrate", None),
    ("repro.vm.compile", "compiled_segment", "vm.compile", None),
    ("repro.vm.compile", "compiled_program", "vm.compile", None),
    ("repro.cluster.forces", "node_force_contribution", "cluster.node_force", None),
    ("repro.harness.fingerprint", "code_fingerprint", "harness.fingerprint", None),
    ("repro.harness.jobs", "execute_job", "harness.execute", None),
)

#: (module, class, methods, span name, result hook): the method is
#: wrapped on the class and on every subclass that overrides it.
METHODS = (
    ("repro.arch.device", "Device", ("run",), "device.run", _device_key),
    ("repro.md.celllist", "CellListForceBackend", ("__call__",), "md.forces", _pairs),
    ("repro.arch.cache", "Cache", ("access",), "arch.cache", _cache_lines),
    ("repro.vm.machine", "Machine", ("run_program",), "vm.run_program", None),
    ("repro.vm.machine", "Machine", ("run_segment",), "vm.run_segment", None),
    ("repro.cluster.machine", "SimulatedCluster", ("run",), "cluster.run", None),
    ("repro.cluster.decomposition", "SlabDecomposition",
     ("owners", "plan", "migration_messages"), "cluster.decompose", None),
    ("repro.faults.session", "FaultSession", None, "faults.session", None),
    ("repro.harness.store", "RunStore", None, "harness.store", None),
)

#: Modules imported before patching, so that every subclass and every
#: re-export exists when the bindings are replaced.
_PRELOAD = (
    "repro.experiments.registry",
    "repro.cluster",
    "repro.harness.api",
    "repro.harness.scheduler",
    "repro.opteron.costmodel",
    "repro.service.app",
)


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def _public_methods(cls: type) -> tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    )


def _plain_functions(modules: list[types.ModuleType]):
    """Module-level functions and methods of module-level classes."""
    for module in modules:
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, types.FunctionType):
                    yield member


def install(recorder: Recorder) -> list[Callable]:
    """Patch every layer entry point; returns the originals wrapped."""
    import importlib

    for module in _PRELOAD:
        importlib.import_module(module)
    repro_modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    functions = list(_plain_functions(repro_modules))
    originals: list[Callable] = []
    for module_name, attr, span_name, hook in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        traced = wrap(recorder, original, span_name, hook)
        for module in repro_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
        # default arguments hold their own reference (``execute=execute_job``)
        for fn in functions:
            if fn.__defaults__ and any(d is original for d in fn.__defaults__):
                fn.__defaults__ = tuple(
                    traced if d is original else d for d in fn.__defaults__
                )
            if fn.__kwdefaults__ and any(
                d is original for d in fn.__kwdefaults__.values()
            ):
                fn.__kwdefaults__ = {
                    k: traced if d is original else d
                    for k, d in fn.__kwdefaults__.items()
                }
        originals.append(original)
    for module_name, cls_name, methods, span_name, hook in METHODS:
        base = getattr(importlib.import_module(module_name), cls_name)
        for cls in _subclasses(base):
            for method in methods or _public_methods(base):
                original = vars(cls).get(method)
                if original is None or not callable(original):
                    continue
                setattr(cls, method, wrap(recorder, original, span_name, hook))
                originals.append(original)
    return originals


# -- summaries ---------------------------------------------------------


def self_seconds(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.self_s
    return out


def counts(spans: list[Span]) -> Counter[str]:
    return Counter(span.name for span in spans)


def chrome_trace(spans: list[Span], process_names: dict[int, str]) -> dict[str, Any]:
    """Spans as a Chrome trace-event document (host clock, µs)."""
    origin = min((span.start for span in spans), default=0.0)
    events: list[dict[str, Any]] = []
    for pid, label in sorted(process_names.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    tids: dict[tuple[int, int], int] = {}
    for index, span in enumerate(spans):
        tid = tids.setdefault((span.pid, span.tid), len(tids) + 1)
        events.append({
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "pid": span.pid,
            "tid": tid,
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"span": index, "parent": span.parent,
                     "run_id": span.run_id, **span.args},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "perfbench", "clock": "host"},
    }


def spans_from_dicts(docs: list[dict[str, Any]]) -> list[Span]:
    """Rebuild spans written by another process; parents stay local."""
    return [Span(**doc) for doc in docs]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of the physics/pricing/harness layers."""
    self_s = self_seconds(spans)
    calls = counts(spans)
    pairs = sum(span.args.get("pairs", 0) for span in spans)
    lines = sum(span.args.get("lines", 0) for span in spans)
    trajectories = {
        span.args["trajectory"] for span in spans if "trajectory" in span.args
    }

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    return {
        "md.forces.calls": calls["md.forces"],
        "md.forces.self_s": self_s.get("md.forces", 0.0),
        "md.forces.pairs_per_s": rate(pairs, self_s.get("md.forces", 0.0)),
        "md.pairlist.self_s": self_s.get("md.pairlist", 0.0),
        "md.integrate.self_s": self_s.get("md.integrate", 0.0),
        "device.run.calls": calls["device.run"],
        "device.run.distinct": len(trajectories),
        "device.pricing.self_s": self_s.get("device.run", 0.0),
        "arch.cache.lines": lines,
        "arch.cache.self_s": self_s.get("arch.cache", 0.0),
        "arch.cache.lines_per_s": rate(lines, self_s.get("arch.cache", 0.0)),
        "vm.run_program.calls": calls["vm.run_program"],
        "vm.run_program.self_s": self_s.get("vm.run_program", 0.0),
        "vm.run_segment.calls": calls["vm.run_segment"],
        "vm.run_segment.self_s": self_s.get("vm.run_segment", 0.0),
        "vm.compile.self_s": self_s.get("vm.compile", 0.0),
        "cluster.run.self_s": self_s.get("cluster.run", 0.0),
        "cluster.node_force.calls": calls["cluster.node_force"],
        "cluster.node_force.self_s": self_s.get("cluster.node_force", 0.0),
        "cluster.decompose.self_s": self_s.get("cluster.decompose", 0.0),
        "faults.session.self_s": self_s.get("faults.session", 0.0),
        "harness.fingerprint.self_s": self_s.get("harness.fingerprint", 0.0),
        "harness.execute.self_s": self_s.get("harness.execute", 0.0),
        "harness.store.self_s": self_s.get("harness.store", 0.0),
    }
