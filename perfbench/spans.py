"""In-memory span recorder wrapped around the program's public entry points.

Tracing lives entirely in the benchmark: :func:`install` replaces each
entry point named in :data:`ENTRY_POINTS` with a wrapper that records a
span (name, start, end, parent id) and, for some, a work count.  Nothing
is wrapped unless the traced run asks for it, so untraced runs measure
the program exactly as shipped.

Parents are tracked with a :class:`contextvars.ContextVar`, so spans nest
correctly both on ordinary call stacks and across the daemon's asyncio
tasks (each task runs in a copy of the context it was created in).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

_current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)


def _matmul_counts(args, kwargs) -> dict:
    """MACs of ``MatmulEngine.matmul(self, a, b)``: M * K * N."""
    a, b = args[1], args[2]
    return {"macs": int(a.shape[0]) * int(a.shape[1]) * int(b.shape[1])}


def _strip_counts(args, kwargs) -> dict:
    """Strips and reduction groups of ``simulate_strips(self, a, b)``."""
    a = args[1]
    return {"strips": int(a.shape[0]), "groups": int(a.shape[0] * a.shape[2])}


# (span name, module, attribute path, extra-count function or None).
# One span name may wrap several bindings of the same function (a name
# imported into another module is a separate binding).
ENTRY_POINTS = (
    ("traces.build_workloads", "repro.harness.runner", "build_workloads", None),
    ("core.simulate_workload", "repro.core.accelerator",
     "AcceleratorSimulator.simulate_workload", None),
    ("core.baseline", "repro.core.baseline",
     "BaselineAccelerator.simulate_workload", None),
    ("core.simulate_strips", "repro.core.tile", "TileSimulator.simulate_strips",
     _strip_counts),
    ("backends.compact_cycle_loop", "repro.backends.numpy_backend",
     "NumpyBackend.compact_cycle_loop", None),
    ("backends.column_timeline", "repro.backends.numpy_backend",
     "NumpyBackend.column_timeline", None),
    ("backends.accumulate_chunks", "repro.backends.numpy_backend",
     "NumpyBackend.accumulate_chunks", None),
    ("nn.matmul", "repro.nn.fpmath", "MatmulEngine.matmul", _matmul_counts),
    ("nn.quantize_tensor", "repro.nn.fpmath", "MatmulEngine.quantize_tensor",
     None),
    ("compression.mean_compression_ratio", "repro.core.accelerator",
     "mean_compression_ratio", None),
    ("memory.phase_traffic", "repro.core.accelerator", "phase_traffic", None),
    ("energy.fpraker_core_energy", "repro.energy.model",
     "EnergyModel.fpraker_core_energy", None),
    ("harness.canonical_key", "repro.harness.runner", "canonical_key", None),
    ("harness.canonical_key", "repro.service.daemon", "canonical_key", None),
    ("service.store.load", "repro.service.store", "ResultStore.load", None),
    ("service.store.store", "repro.service.store", "ResultStore.store", None),
    ("service.wire.encode_result", "repro.service.wire", "encode_result", None),
    ("service.wire.decode_result", "repro.service.wire", "decode_result", None),
    ("service.daemon.resolve", "repro.service.daemon",
     "ServiceDaemon.resolve", None),
    ("service.daemon.resolve_sweep", "repro.service.daemon",
     "ServiceDaemon.resolve_sweep", None),
)


class Recorder:
    """Spans and counts of one process, kept in memory until exit."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, parent, start, end, thread)
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        # Cleared once the timed phase ends, so that checks run after it
        # leave no spans.
        self.enabled = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        return _Span(self, name)

    def wrap(self, name: str, func, counter=None):
        """``func`` with a span (and optional work counts) per call."""
        recorder = self

        def record_counts(args, kwargs):
            recorder._count(name + ".calls", 1)
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    recorder._count(f"{name}.{key}", value)

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await func(*args, **kwargs)
                record_counts(args, kwargs)
                with _Span(recorder, name):
                    return await func(*args, **kwargs)

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            record_counts(args, kwargs)
            with _Span(recorder, name):
                return func(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per-name total self time: duration minus the part of the
        span's interval that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span_id, name, _, start, end, _ in self.spans:
            covered = _union_length(
                [
                    (max(start, c_start), min(end, c_end))
                    for c_start, c_end in children.get(span_id, ())
                ]
            )
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def covered(self, names, since: float, until: float) -> float:
        """Seconds of ``[since, until]`` covered by spans of ``names``."""
        return _union_length(
            [
                (max(start, since), min(end, until))
                for _, name, _, start, end, _ in self.spans
                if name in names
            ]
        )

    def total(self, name: str) -> float:
        """Summed inclusive duration of every span called ``name``."""
        return sum(end - start for _, n, _, start, end, _ in self.spans
                   if n == name)


class _Span:
    __slots__ = ("recorder", "name", "id", "parent", "token", "start")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.parent = _current.get()
        self.id = next(self.recorder._ids)
        self.token = _current.set(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        _current.reset(self.token)
        self.recorder.spans.append(
            (self.id, self.name, self.parent, self.start, end,
             threading.get_ident())
        )


def _union_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def install(recorder: Recorder) -> None:
    """Wrap every entry point of a package the workload has imported.

    Packages a workload never imports stay unwrapped, so their spans are
    absent.  Modules of an imported package are imported here, because
    some load lazily (the kernel backends).  An entry point that no
    longer exists is listed in ``recorder.missing`` instead of failing
    the run.
    """
    for name, module_name, path, counter in ENTRY_POINTS:
        if module_name.rpartition(".")[0] not in sys.modules:
            continue
        module = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        owner = module
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            func = getattr(owner, attr)
        except AttributeError:
            recorder.missing.append(f"{name} ({module_name}.{path})")
            continue
        setattr(owner, attr, recorder.wrap(name, func, counter))
