"""Per-layer tracing by patching relayq's module attributes from outside.

Each traced function is replaced, on the module attribute its callers look
up, by a wrapper that records a span {name, start, end, parent, request id}
in memory. Hot leaf functions (called thousands of times per request) are
recorded as counters with summed time instead of one span per call; their
time still counts as child time of the enclosing span. ``Tracer.remove``
puts every original back. tracemalloc runs only inside ``oracle.stationary``:
inside ``psa.solve`` it made a divergent solve ten times slower, so the PSA
footprint is computed from the result instead.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from relayq import cli, compensation, measures, oracle, psa, simulator

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    request: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _solve_attrs(args, kwargs, result):
    return {"compensation.box_states": (result.inner_box + 1) ** 2,
            "compensation.terms_used": result.n_used,
            "compensation.terms_computed": result.series.n_terms}


def _psa_attrs(args, kwargs, result):
    # Pass A holds two level slabs of (cap + 2T + 3)^2 doubles; the result
    # keeps the (N+1)(T+1)^2 coefficient box. Computed, not measured:
    # tracemalloc made a divergent rho = 0.9 solve ten times slower.
    T = result.T_psa
    slabs = 2 * (psa.MAX_OUTER_ITERATIONS + 2 * T + 3) ** 2 * 8
    return {"psa.N_psa": result.N_psa, "psa.T_psa": T,
            f"psa.stop.{result.diagnostics.stop_reason}": 1,
            "psa.dense_bytes": slabs + result.u.nbytes}


def _build_attrs(args, kwargs, result):
    n = (result.T + 1) ** 2
    return {"oracle.states": n, "oracle.dense_bytes": n * n * 8}


def _sim_attrs(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"simulator.slots": config.replications * (config.warmup_slots + config.measure_slots)}


def _emit_attrs(args, kwargs, result):
    return {"cli.emit.bytes": len(result)}


# (module, attribute, span name, attrs from (args, kwargs, result), track memory)
SPANS = (
    (cli, "run", "cli.run", None, False),
    (cli, "emit", "cli.emit", _emit_attrs, False),
    (compensation, "solve", "compensation.solve", _solve_attrs, False),
    (compensation, "compute_series", "compensation.compute_series", None, False),
    (spla, "splu", "compensation.splu", None, False),
    (psa, "solve", "psa.solve", _psa_attrs, False),
    (psa, "compute_coefficients", "psa.compute_coefficients", None, False),
    (psa, "evaluate", "psa.evaluate", None, False),
    (oracle, "build", "oracle.build", _build_attrs, False),
    (oracle, "stationary", "oracle.stationary", None, True),
    (oracle, "gth_stationary", "oracle.gth_stationary", None, False),
    (measures, "gth_stationary", "oracle.gth_stationary", None, False),
    (oracle, "connected_components", "oracle.connected_components", None, False),
    (simulator, "simulate", "simulator.simulate", _sim_attrs, False),
    (measures, "moments_from_transformed", "measures.moments_from_transformed", None, False),
    (measures, "decay_diagnostics", "measures.decay_diagnostics", None, False),
    (measures, "single_server_comparison", "measures.single_server_comparison", None, False),
)
SELF_TIMES = ("compensation.solve", "psa.solve")

# (module, attribute, call-count metric, summed-time metric or None)
COUNTERS = (
    (compensation, "transformed_inflows", "model.transformed_inflows.calls", "model.transformed_inflows.s"),
    (compensation, "delta_root", "compensation.root_calls", None),
    (compensation, "gamma_root", "compensation.root_calls", None),
    (compensation, "kernel_residual", "compensation.kernel_residual.calls", None),
    (oracle, "transformed_transition_distribution", "model.transformed_transition_distribution.calls", None),
    (psa, "lfilter", "psa.lfilter.calls", None),
    (measures, "single_server_mean_queue", "measures.single_server_mean_queue.calls", None),
)

# span attributes summed over a pass, and those taken as the largest single call
ATTR_SUMS = (
    "cli.emit.bytes", "compensation.box_states", "compensation.terms_used",
    "compensation.terms_computed", "psa.N_psa", "psa.T_psa", "psa.stop.epsilon",
    "psa.stop.divergence", "psa.stop.cap", "oracle.states", "simulator.slots",
)
ATTR_MAXES = ("psa.dense_bytes", "oracle.stationary.peak_mb", "oracle.dense_bytes")


class Tracer:
    """Spans and counters of one traced pass; install() patches, remove() restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.busy_s: defaultdict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, attrs_fn, memory in SPANS:
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), name, attrs_fn, memory))
        for module, attr, calls, busy in COUNTERS:
            self._patch(module, attr, self._counter_wrapper(getattr(module, attr), calls, busy))

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _span_wrapper(self, fn, name, attrs_fn, memory):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            memory_here = memory and not tracemalloc.is_tracing()
            if memory_here:
                tracemalloc.start()
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    span.attrs.update(attrs_fn(args, kwargs, result))
                return result
            finally:
                self.end(span)
                if memory_here:
                    span.attrs[f"{name}.peak_mb"] = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
        return wrapper

    def _counter_wrapper(self, fn, calls, busy):
        if busy is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[calls] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            self.calls[calls] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.busy_s[busy] += dt
                if self._stack:
                    self.spans[self._stack[-1]].child_s += dt
        return timed_call

    def records(self) -> list[dict]:
        """Spans as plain dicts, parent given as an index into the list."""
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, **s.attrs}
            for s in self.spans
        ]


def metric_names() -> list[str]:
    """Names of the per-layer metrics that layer_metrics reports."""
    names = [f"{name}.s" for _, _, name, _, _ in SPANS]
    names += [f"{name}.self_s" for name in SELF_TIMES]
    for _, _, calls, busy in COUNTERS:
        names += [calls, busy] if busy else [calls]
    names += [*ATTR_SUMS, *ATTR_MAXES, "simulator.slots_per_s"]
    return list(dict.fromkeys(names))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over one traced pass (peaks are the largest single call)."""
    m = dict.fromkeys(metric_names(), 0.0)
    for s in tracer.spans:
        if s.name == "request":
            continue
        m[f"{s.name}.s"] += s.duration
        if s.name in SELF_TIMES:
            m[f"{s.name}.self_s"] += s.self_s
        for key, value in s.attrs.items():
            m[key] = max(m[key], value) if key in ATTR_MAXES else m[key] + value
    m.update(tracer.calls)
    m.update(tracer.busy_s)
    if m["simulator.simulate.s"] > 0:
        m["simulator.slots_per_s"] = m["simulator.slots"] / m["simulator.simulate.s"]
    return m


def units_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("peak_mb"):
        return "MiB"
    if name.endswith("bytes"):
        return "B"
    return "count"
