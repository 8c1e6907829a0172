"""Out-of-program tracing: spans around each layer's public entry points.

The tracer patches the entry points from outside — the program itself
carries no instrumentation — and replaces each name *where its caller looks
it up*: a function imported into several modules (``c_lp_s`` in
``repro.algorithms.qsgd_sgd``, ``F.conv2d`` through the ``functional``
module) is rebound in every ``repro`` module that holds it, and a method is
wrapped on every class of its hierarchy that defines it.

Spans stay in memory as ``(name, start, end, parent, step)`` records, with
``parent`` the index of the enclosing span's record (-1 at the top) and
``step`` the timed step index (negative during set-up).  A span's self time
is its duration minus the durations of its direct children;
:meth:`Tracer.chrome` exports the spans in the Chrome trace-event format
(the Horovod/BlueFog timeline format).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.cluster.backends import TransportBackend
from repro.cluster.transport import Transport
from repro.compression.base import Compressor
from repro.core import primitives
from repro.core.bucket import TensorBucket
from repro.core.engine import Algorithm, BaguaEngine
from repro.core.schedule import ScheduledExecutor
from repro.tensor import functional as F
from repro.tensor.module import Module
from repro.tensor.optim import Optimizer
from repro.tensor.tensor import Tensor

import repro.algorithms  # noqa: F401  (registers every Algorithm subclass)
import repro.compression  # noqa: F401  (registers every Compressor subclass)

#: Module classes whose forward self time is reported under its own metric;
#: every other module's self time counts as generic forward work.
MODULE_METRICS = {
    "Linear": "tensor.linear_s",
    "Embedding": "tensor.embedding_s",
    "MultiHeadAttention": "tensor.attention_s",
}

Counter = Callable[["Tracer", tuple, dict, Any], None]


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    """In-memory span recorder plus per-step counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.step = -1
        #: spans as [name, start, end, parent, step]; a span's id is its index
        #: and ``parent`` is the enclosing span's id (-1 at the top)
        self.spans: list[list] = []
        #: step -> span name -> summed self time (seconds)
        self.self_time: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: step -> counter name -> value
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: span name -> per-layer metric its self time is reported under
        self.metric_of: dict[str, str] = {}
        self._stack: list[list] = []  # open spans as [span id, child time]
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.step])
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {self.spans[frame[0]][0]!r} closed out of order")
        span = self.spans[frame[0]]
        span[2] = end
        duration = end - span[1]
        self.self_time[span[4]][span[0]] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def region(self, name: str, metric: str):
        """Context manager for a benchmark-level span (loader, loss+forward)."""
        self.metric_of[name] = metric
        return _Region(self, name)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.step][name] += value

    def inside(self, prefix: str) -> bool:
        """Whether an enclosing open span's name starts with ``prefix``."""
        return any(self.spans[frame[0]][0].startswith(prefix) for frame in self._stack)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrapper(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str] | None,
        counter: Counter | None,
    ) -> Callable:
        tracer = self

        if name is None:  # counter only, no span

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.enabled:
                    counter(tracer, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.enter(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch_method(
        self,
        base: type,
        attr: str,
        metric: str | None,
        counter: Counter | None = None,
        layer: str | None = None,
    ) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that defines it."""
        for cls in _subclasses(base):
            if attr not in cls.__dict__:
                continue
            original = cls.__dict__[attr]
            name = None
            if metric is not None:
                name = f"{layer or metric.split('.')[0]}.{cls.__name__}.{attr}"
                self.metric_of[name] = metric
            setattr(cls, attr, self._wrapper(original, name, counter))
            self._patches.append((cls, attr, original))

    def patch_function(
        self, fn: Callable, metric: str, counter: Counter | None = None
    ) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        name = f"{metric.split('.')[0]}.{fn.__name__}"
        self.metric_of[name] = metric
        wrapped = self._wrapper(fn, name, counter)
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn))
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{fn.__qualname__} is bound in no repro module")

    def patch_module_call(self) -> None:
        """Wrap ``Module.__call__``; spans are named by the layer class."""
        original = Module.__dict__["__call__"]
        names: dict[type, str] = {}
        metric_of = self.metric_of

        def span_name(args: tuple) -> str:
            cls = type(args[0])
            name = names.get(cls)
            if name is None:
                name = names[cls] = f"tensor.{cls.__name__}.__call__"
                metric_of[name] = MODULE_METRICS.get(cls.__name__, "tensor.forward_s")
            return name

        Module.__call__ = self._wrapper(original, span_name, None)
        self._patches.append((Module, "__call__", original))

    def install(self) -> None:
        """Patch every layer's public entry points (idempotent per tracer)."""
        if self._patches:
            return
        self.patch_module_call()
        self.patch_method(Tensor, "backward", "tensor.backward_s")
        self.patch_function(F.conv2d, "tensor.conv2d_s", _count_call("tensor.conv2d_calls"))
        self.patch_function(F.max_pool2d, "tensor.max_pool2d_s")
        self.patch_function(F.embedding_lookup, "tensor.embedding_s")
        for attr in ("flat_grad", "set_flat_grad", "flat_data", "set_flat_data"):
            self.patch_method(TensorBucket, attr, "core.bucket_flatten_s", _bucket_bytes(attr))
        self.patch_method(BaguaEngine, "step", "core.engine_self_s")
        self.patch_method(ScheduledExecutor, "run_step", "core.comm_update_s")
        self.patch_method(
            Algorithm, "comm_bucket", "algorithms.comm_bucket_s",
            _count_call("algorithms.comm_bucket_calls"),
        )
        self.patch_method(Algorithm, "on_step_end", "algorithms.on_step_end_s")
        collective_calls = _outermost_call("comm.", "comm.collective_calls")
        for fn in (primitives.c_fp_s, primitives.c_lp_s, primitives.d_fp_s, primitives.d_lp_s):
            self.patch_function(fn, "comm.collective_s", collective_calls)
        self.patch_method(TransportBackend, "resolve_pool_refs", None, _count_pool_refs)
        for attr in ("compress", "decompress", "batch_roundtrip"):
            self.patch_method(
                Compressor, attr, f"compression.{attr}_s", _count_compression(attr)
            )
        self.patch_method(Transport, "exchange", "transport.exchange_s")
        self.patch_method(Transport, "exchange_sized", "transport.exchange_s")
        self.patch_method(Transport, "flush", "core.flush_s", layer="transport")
        for attr, metric in (
            ("route_round", "backend.route_round_s"),
            ("flush", "backend.flush_s"),
            ("pool_ref_reduce", "backend.pool_ref_reduce_s"),
            ("allocate_pool", "backend.allocate_pool_s"),
            ("close", "backend.close_s"),
        ):
            self.patch_method(TransportBackend, attr, metric)
        self.patch_method(Optimizer, "step_on_slots", "optim.step_s", _count_optim)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def metric_self_times(self, step: int) -> dict[str, float]:
        """Per-layer metric -> self time summed over step ``step``'s spans."""
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.get(step, {}).items():
            metric = self.metric_of.get(name)
            if metric is None:
                raise KeyError(f"span {name!r} maps to no per-layer metric")
            out[metric] += seconds
        return out

    def self_time_table(self, steps: list[int]) -> list[tuple[str, str, float, float]]:
        """``(span, metric, median self s/step, share of all self time)`` rows."""
        if not steps:
            return []
        names = sorted({n for s in steps for n in self.self_time.get(s, {})})
        medians = {
            n: float(np.median([self.self_time.get(s, {}).get(n, 0.0) for s in steps]))
            for n in names
        }
        means = {
            n: sum(self.self_time.get(s, {}).get(n, 0.0) for s in steps) / len(steps)
            for n in names
        }
        total = sum(means.values()) or 1.0
        rows = [(n, self.metric_of[n], medians[n], means[n] / total) for n in names]
        return sorted(rows, key=lambda row: -row[3])

    def chrome(self) -> dict:
        """The spans as a Chrome trace-event document (``ph: X`` events)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent, "step": step},
            }
            for span_id, (name, start, end, parent, step) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Region:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame: list | None = None

    def __enter__(self) -> None:
        if self.tracer.enabled:
            self.frame = self.tracer.enter(self.name)

    def __exit__(self, *exc_info: object) -> None:
        if self.frame is not None:
            self.tracer.exit(self.frame)
            self.frame = None


# ----------------------------------------------------------------------
# Counters: work done at the same boundaries the spans mark
# ----------------------------------------------------------------------
def _count_call(name: str) -> Counter:
    def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(name)

    return counter


def _outermost_call(prefix: str, name: str) -> Counter:
    """Count a call only when no span of the same layer encloses it."""

    def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        if not tracer.inside(prefix):
            tracer.count(name)

    return counter


def _bucket_bytes(attr: str) -> Counter:
    """Bytes a bucket getter/setter copies (zero for the pool-view fast case)."""

    def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        bucket = args[0]
        if attr == "flat_grad":
            copied = result.nbytes
        elif attr == "flat_data":
            copied = 0 if bucket.buffer is not None else result.nbytes
        else:
            flat = args[1] if len(args) > 1 else kwargs["flat"]
            copied = 0 if (attr == "set_flat_data" and flat is bucket.buffer) else flat.nbytes
        tracer.count("core.bucket_flatten_bytes", copied)

    return counter


def _count_compression(attr: str) -> Counter:
    """Codec calls and elements, counted once per outermost codec call."""

    def counter(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        if tracer.inside("compression."):
            return
        array = result if attr == "decompress" else args[1]
        tracer.count("compression.calls")
        tracer.count("compression.elements", np.asarray(array).size)

    return counter


def _count_pool_refs(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("comm.pool_ref_calls")
    if result is not None:
        tracer.count("comm.pool_ref_hits")


def _count_optim(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    tracer.count("optim.elements", sum(np.asarray(a).size for a in arrays))
