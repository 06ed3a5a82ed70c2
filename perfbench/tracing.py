"""The traced run: spans around calls into each layer's public functions.

:class:`Tracer` wraps the public functions and methods listed in
:func:`install` — patching every ``repro`` module that binds a wrapped
function, so a name imported elsewhere is traced too — and records one
span (id, parent, name, start, end, thread, phase, attributes) per call.
Spans stay in memory and are written as JSON lines when the run ends.
The parent is the innermost open span of the same thread or asyncio
task (a context variable); work handed to a pool thread starts a new
root there.

:func:`layer_metrics` turns the window's spans into the per-layer
metrics of ``BENCHMARK.json``.  A span's self time is its duration less
the union of its children's intervals.  Count metrics are divided by
the workload's operations (optimized lanes, requests, cases or
transients), so they compare across runs of different length; a metric
of a layer the workload never calls reads 0.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Oracle names whose per-case time is reported (every registered one).
ORACLES = ("elmore", "ismail_friedman", "kahng_muddu", "mna", "talbot",
           "two_pole")

Attrs = Optional[Callable[..., Dict[str, Any]]]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = \
            contextvars.ContextVar("perfbench_span", default=0)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: id(job) -> perf_counter when the job entered a batcher queue.
        self.enqueued: Dict[int, float] = {}

    # -- spans ----------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any], *, attrs: Attrs = None,
             before: Optional[Callable[..., Any]] = None,
             cpu: bool = False) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(*args, **kwargs)`` runs at entry and its value reaches
        ``attrs(result, state, *args, **kwargs)``, which runs on success
        and returns the span's attributes.  ``cpu`` adds the process CPU
        seconds spent during the call (all threads, BLAS included).
        """
        tracer = self

        def enter(args, kwargs):
            state = before(*args, **kwargs) if before is not None else None
            span_id = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(span_id)
            cpu0 = time.process_time() if cpu else 0.0
            return span_id, parent, token, state, cpu0, time.perf_counter()

        def leave(entry, ok, result, args, kwargs):
            end = time.perf_counter()
            span_id, parent, token, state, cpu0, start = entry
            tracer._current.reset(token)
            data = (attrs(result, state, *args, **kwargs)
                    if ok and attrs is not None else {})
            if cpu:
                data["cpu"] = time.process_time() - cpu0
            tracer.spans.append((span_id, parent, name, start, end,
                                 threading.get_ident(), tracer.phase, data))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                entry = enter(args, kwargs)
                ok, result = False, None
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    leave(entry, ok, result, args, kwargs)
            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            entry = enter(args, kwargs)
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                leave(entry, ok, result, args, kwargs)
        return traced

    # -- patching -------------------------------------------------------
    def _set(self, owner: Any, key: str, value: Any, *,
             item: bool = False) -> None:
        original = owner[key] if item else owner.__dict__[key]
        self._patches.append((owner, key, original, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def patch_function(self, original: Callable[..., Any], name: str,
                       **options: Any) -> None:
        """Replace ``original`` in every ``repro`` module that binds it."""
        wrapper = self.wrap(name, original, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     **options: Any) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **options))

    def patch_item(self, table: Dict[str, Any], key: str, name: str,
                   **options: Any) -> None:
        self._set(table, key, self.wrap(name, table[key], **options),
                  item=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, item = self._patches.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for (span_id, parent, name, start, end, thread, phase,
                 data) in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, "thread": thread,
                     "phase": phase, **data}, allow_nan=False) + "\n")


class _Linalg:
    """``numpy.linalg`` stand-in whose ``solve`` is traced."""

    def __init__(self, linalg: Any, solve: Callable[..., Any]) -> None:
        self._linalg = linalg
        self.solve = solve

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._linalg, name)
        setattr(self, name, value)
        return value


class _Numpy:
    """``numpy`` stand-in for one module, so only its solves are traced."""

    def __init__(self, numpy: Any, solve: Callable[..., Any]) -> None:
        self._numpy = numpy
        self.linalg = _Linalg(numpy.linalg, solve)

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._numpy, name)
        setattr(self, name, value)
        return value


def _optimum_attrs(result: Any, _state: Any, *_a: Any, **_k: Any
                   ) -> Dict[str, Any]:
    return {"optima": 1, "iterations": int(result.iterations),
            "fallbacks": int(result.method.value == "direct")}


def _many_attrs(result: Any, _state: Any, *_a: Any, **_k: Any
                ) -> Dict[str, Any]:
    optima = [o for o in result if hasattr(o, "iterations")]
    return {"lanes": len(result), "optima": len(optima),
            "iterations": sum(int(o.iterations) for o in optima),
            "fallbacks": sum(o.method.value == "direct" for o in optima)}


def _lanes(result: Any, _state: Any, *_a: Any, **_k: Any) -> Dict[str, Any]:
    return {"lanes": len(result)}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (imports the layers first)."""
    import numpy

    # Every module that binds a traced name must be loaded before the
    # patching pass; the server and differential modules are only
    # patched, never called from here.
    import repro.serve.server  # noqa: F401
    import repro.verify.differential  # noqa: F401
    import repro.verify.jobs  # noqa: F401
    from repro.analysis import laplace
    from repro.circuits import mna, transient
    from repro.core import evaluate, kernels, optimize, sweep
    from repro.engine import backends, executor, jobs, store
    from repro.experiments import ring
    from repro.serve import batcher, metrics, protocol, service
    from repro.tech import characterize
    from repro.verify import oracles

    tracer.patch_function(kernels.threshold_delay_v,
                          "core.kernels.threshold_delay_v", attrs=_lanes)
    tracer.patch_function(kernels.critical_inductance_v,
                          "core.kernels.critical_inductance_v",
                          attrs=lambda r, s, *a, **k: {"lanes": len(r)})
    tracer.patch_method(
        evaluate.StageEvaluator, "evaluate_many", "core.evaluate",
        before=lambda self, pairs: self.memo_hits,
        attrs=lambda r, hits0, self, pairs: {
            "pairs": len(pairs), "hits": self.memo_hits - hits0})
    tracer.patch_function(optimize.optimize_repeater,
                          "core.optimize.optimize_repeater",
                          attrs=_optimum_attrs)
    tracer.patch_function(optimize.optimize_repeater_many,
                          "core.optimize.optimize_repeater_many",
                          attrs=_many_attrs)
    tracer.patch_function(sweep.sweep_inductance,
                          "core.sweep.sweep_inductance",
                          attrs=lambda r, s, *a, **k: {
                              "points": len(r.l_values)})
    tracer.patch_method(executor.BatchExecutor, "run",
                        "engine.executor.run",
                        attrs=lambda r, s, *a, **k: {"jobs": len(r)})
    for cls in set(jobs.JOB_TYPES.values()):
        tracer.patch_method(cls, "run", "engine.jobs.run")
    for cls in (store.MemoryStore, store.DiskStore, store.TieredStore):
        tracer.patch_method(cls, "get", "engine.store.get",
                            attrs=lambda r, s, *a, **k: {
                                "hit": r is not None})
        tracer.patch_method(cls, "put", "engine.store.put")
    tracer.patch_method(backends.BackendStats, "dispatch_started",
                        "engine.backends.dispatch_started",
                        attrs=lambda r, s, self, lanes: {"lanes": lanes})
    tracer.patch_method(backends.BackendStats, "dispatch_finished",
                        "engine.backends.dispatch_finished",
                        attrs=lambda r, s, self, wait=None: {"wait": wait})

    def enqueue(self: Any, job: Any, **_kwargs: Any) -> None:
        tracer.enqueued[id(job)] = time.perf_counter()

    def dequeue(jobs_: Any) -> List[float]:
        now = time.perf_counter()
        return [now - tracer.enqueued.pop(id(job), now) for job in jobs_]

    tracer.patch_method(batcher.DynamicBatcher, "submit",
                        "serve.batcher.submit", before=enqueue)
    for kind in list(service.EVALUATORS):
        tracer.patch_item(service.EVALUATORS, kind,
                          f"serve.service.evaluate_{kind}", before=dequeue,
                          attrs=lambda r, waits, jobs_: {
                              "lanes": len(jobs_), "queue_waits": waits})
    tracer.patch_method(metrics.ServerMetrics, "record_batch",
                        "serve.batcher.batch",
                        attrs=lambda r, s, self, kind, size: {"size": size})
    tracer.patch_method(metrics.ServerMetrics, "record_coalesced",
                        "serve.service.coalesced")
    tracer.patch_function(protocol.parse_request,
                          "serve.protocol.parse_request")
    tracer.patch_function(protocol.encode_result,
                          "serve.protocol.encode_result")
    tracer.patch_method(service.ReproService, "submit",
                        "serve.service.submit")

    for oracle in oracles.ORACLES.values():
        cls = type(oracle)
        for attr in ("evaluate", "evaluate_batch"):
            if attr in cls.__dict__:
                tracer.patch_method(
                    cls, attr, f"verify.oracles.{oracle.name}",
                    attrs=lambda r, s, self, cases: {
                        "cases": len(cases) if isinstance(cases, list)
                        else 1})
    tracer.patch_function(laplace.step_response_exact,
                          "analysis.laplace.step_response_exact")

    tracer.patch_method(transient.TransientSolver, "run",
                        "circuits.transient.run", cpu=True,
                        attrs=lambda r, s, *a, **k: {
                            "steps": len(r.time) - 1})
    tracer._set(transient, "np", _Numpy(numpy, tracer.wrap(
        "circuits.transient.linalg_solve", numpy.linalg.solve)))
    tracer.patch_method(mna.MnaStructure, "stamp_nonlinear",
                        "circuits.mna.stamp_nonlinear")
    tracer.patch_function(characterize.calibrate_inverter,
                          "tech.characterize.calibrate_inverter")
    tracer.patch_function(ring.run_ring, "experiments.ring.run_ring")


# ----------------------------------------------------------------------
# Span analysis.
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "data",
                 "self_time", "parent_name")

    def __init__(self, record: Tuple[Any, ...]) -> None:
        (self.id, self.parent, self.name, self.start, self.end, _thread,
         _phase, self.data) = record
        self.self_time = self.end - self.start
        self.parent_name = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: List[Tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def analyse(records: List[Tuple[Any, ...]]) -> Dict[str, List[_Span]]:
    """Spans by name, with self times and parent names filled in."""
    spans = {record[0]: _Span(record) for record in records}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans.values():
        parent = spans.get(span.parent)
        if parent is not None:
            span.parent_name = parent.name
            children[parent.id].append((span.start, span.end))
    by_name: Dict[str, List[_Span]] = defaultdict(list)
    for span in spans.values():
        if span.id in children:
            span.self_time -= _covered(children[span.id], span.start,
                                       span.end)
        by_name[span.name].append(span)
    return by_name


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _sum(spans: List[_Span], key: str) -> float:
    return float(sum(span.data.get(key, 0) for span in spans))


def layer_metrics(tracer: Tracer, ops: int,
                  client_latencies: List[float]) -> Dict[str, float]:
    """Per-layer metrics of the timed window (see the module docstring)."""
    window = analyse([s for s in tracer.spans if s[6] == "window"])
    setup = analyse([s for s in tracer.spans if s[6] == "setup"])

    def spans(name: str) -> List[_Span]:
        return window.get(name, [])

    def self_sum(name: str) -> float:
        return sum(span.self_time for span in spans(name))

    def total_sum(name: str) -> float:
        return sum(span.duration for span in spans(name))

    def outer(name: str) -> List[_Span]:
        return [s for s in spans(name) if s.parent_name != name]

    m: Dict[str, float] = {}
    tdv = "core.kernels.threshold_delay_v"
    lanes = _sum(spans(tdv), "lanes")
    m[f"{tdv}.calls"] = _ratio(len(spans(tdv)), ops)
    m[f"{tdv}.lanes"] = _ratio(lanes, ops)
    m[f"{tdv}.us_per_lane"] = _ratio(self_sum(tdv), lanes, 1e6)
    civ = "core.kernels.critical_inductance_v"
    m[f"{civ}.us_per_lane"] = _ratio(self_sum(civ),
                                     _sum(spans(civ), "lanes"), 1e6)
    m["core.evaluate.memo_hit_ratio"] = _ratio(
        _sum(spans("core.evaluate"), "hits"),
        _sum(spans("core.evaluate"), "pairs"))

    solo, many = ("core.optimize.optimize_repeater",
                  "core.optimize.optimize_repeater_many")
    m[f"{solo}.ms_per_call"] = _ratio(self_sum(solo), len(spans(solo)), 1e3)
    m[f"{many}.ms_per_lane"] = _ratio(self_sum(many),
                                      _sum(spans(many), "lanes"), 1e3)
    both = spans(solo) + spans(many)
    m["core.optimize.newton_iterations"] = _ratio(
        _sum(both, "iterations"), _sum(both, "optima"))
    m["core.optimize.fallbacks"] = _ratio(_sum(both, "fallbacks"), ops)
    sw = "core.sweep.sweep_inductance"
    m[f"{sw}.ms_per_point"] = _ratio(total_sum(sw),
                                     _sum(spans(sw), "points"), 1e3)

    ex = "engine.executor.run"
    m[f"{ex}.self_ms_per_job"] = _ratio(self_sum(ex),
                                        _sum(spans(ex), "jobs"), 1e3)
    for verb in ("get", "put"):
        top = [s for s in spans(f"engine.store.{verb}")
               if not s.parent_name.startswith("engine.store.")]
        m[f"engine.store.{verb}.us_per_call"] = _ratio(
            sum(s.duration for s in top), len(top), 1e6)
        if verb == "get":
            m["engine.store.hit_ratio"] = _ratio(_sum(top, "hit"), len(top))
    waits = [s.data["wait"] for s in spans("engine.backends.dispatch_finished")
             if s.data.get("wait") is not None]
    m["engine.backends.dispatch_wait_ms"] = _ratio(sum(waits), len(waits),
                                                   1e3)
    started = spans("engine.backends.dispatch_started")
    m["engine.backends.lanes_per_dispatch"] = _ratio(_sum(started, "lanes"),
                                                     len(started))

    batches = spans("serve.batcher.batch")
    m["serve.batcher.mean_batch_size"] = _ratio(_sum(batches, "size"),
                                                len(batches))
    queue_waits = [w for name, group in window.items()
                   if name.startswith("serve.service.evaluate_")
                   for s in group for w in s.data.get("queue_waits", ())]
    m["serve.batcher.queue_wait_ms"] = _ratio(sum(queue_waits),
                                              len(queue_waits), 1e3)
    for fn in ("parse_request", "encode_result"):
        name = f"serve.protocol.{fn}"
        m[f"{name}.us_per_call"] = _ratio(self_sum(name), len(spans(name)),
                                          1e6)
    sub = "serve.service.submit"
    submit_ms = _ratio(total_sum(sub), len(spans(sub)), 1e3)
    m[f"{sub}.ms_per_request"] = submit_ms
    m["serve.service.coalesced"] = _ratio(
        len(spans("serve.service.coalesced")), ops)
    m["serve.server.overhead_ms"] = (
        statistics.fmean(client_latencies) * 1e3 - submit_ms
        if spans(sub) and client_latencies else 0.0)

    for oracle in ORACLES:
        name = f"verify.oracles.{oracle}"
        m[f"{name}.ms_per_case"] = _ratio(self_sum(name),
                                          _sum(outer(name), "cases"), 1e3)
    lap = "analysis.laplace.step_response_exact"
    m[f"{lap}.ms_per_call"] = _ratio(self_sum(lap), len(spans(lap)), 1e3)

    tr = "circuits.transient.run"
    steps = _sum(spans(tr), "steps")
    m[f"{tr}.steps"] = _ratio(steps, ops)
    m[f"{tr}.us_per_step"] = _ratio(self_sum(tr), steps, 1e6)
    m[f"{tr}.cpu_per_wall"] = _ratio(_sum(spans(tr), "cpu"), total_sum(tr))
    for name in ("circuits.transient.linalg_solve",
                 "circuits.mna.stamp_nonlinear"):
        m[f"{name}.calls"] = _ratio(len(spans(name)), ops)
        m[f"{name}.us_per_call"] = _ratio(self_sum(name), len(spans(name)),
                                          1e6)
    cal = setup.get("tech.characterize.calibrate_inverter", [])
    m["tech.characterize.calibrate_inverter.s"] = _ratio(
        sum(s.duration for s in cal), len(cal))
    rr = "experiments.ring.run_ring"
    m[f"{rr}.s_per_call"] = _ratio(total_sum(rr), len(spans(rr)))
    return m


def metric_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        ("core.kernels.threshold_delay_v.calls", "count", "lower"),
        ("core.kernels.threshold_delay_v.lanes", "count", "lower"),
        ("core.kernels.threshold_delay_v.us_per_lane", "us", "lower"),
        ("core.kernels.critical_inductance_v.us_per_lane", "us", "lower"),
        ("core.evaluate.memo_hit_ratio", "ratio", "higher"),
        ("core.optimize.optimize_repeater.ms_per_call", "ms", "lower"),
        ("core.optimize.optimize_repeater_many.ms_per_lane", "ms", "lower"),
        ("core.optimize.newton_iterations", "count", "lower"),
        ("core.optimize.fallbacks", "count", "lower"),
        ("core.sweep.sweep_inductance.ms_per_point", "ms", "lower"),
        ("engine.executor.run.self_ms_per_job", "ms", "lower"),
        ("engine.store.get.us_per_call", "us", "lower"),
        ("engine.store.hit_ratio", "ratio", "higher"),
        ("engine.store.put.us_per_call", "us", "lower"),
        ("engine.backends.dispatch_wait_ms", "ms", "lower"),
        ("engine.backends.lanes_per_dispatch", "count", "higher"),
        ("serve.batcher.mean_batch_size", "count", "higher"),
        ("serve.batcher.queue_wait_ms", "ms", "lower"),
        ("serve.protocol.parse_request.us_per_call", "us", "lower"),
        ("serve.protocol.encode_result.us_per_call", "us", "lower"),
        ("serve.service.submit.ms_per_request", "ms", "lower"),
        ("serve.service.coalesced", "count", "higher"),
        ("serve.server.overhead_ms", "ms", "lower"),
    ]
    specs += [(f"verify.oracles.{name}.ms_per_case", "ms", "lower")
              for name in ORACLES]
    specs += [
        ("analysis.laplace.step_response_exact.ms_per_call", "ms", "lower"),
        ("circuits.transient.run.steps", "count", "lower"),
        ("circuits.transient.run.us_per_step", "us", "lower"),
        ("circuits.transient.run.cpu_per_wall", "ratio", "lower"),
        ("circuits.transient.linalg_solve.calls", "count", "lower"),
        ("circuits.transient.linalg_solve.us_per_call", "us", "lower"),
        ("circuits.mna.stamp_nonlinear.calls", "count", "lower"),
        ("circuits.mna.stamp_nonlinear.us_per_call", "us", "lower"),
        ("tech.characterize.calibrate_inverter.s", "s", "lower"),
        ("experiments.ring.run_ring.s_per_call", "s", "lower"),
        ("traced.ops_per_s", "1/s", "higher"),
        ("traced.latency_p50_ms", "ms", "lower"),
    ]
    return specs
