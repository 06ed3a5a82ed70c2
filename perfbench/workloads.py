"""The four benchmark workloads: sweep, serve, verify and ring.

Each workload turns ``--seed`` into its inputs, sets itself up (a step
the harness repeats to time set-up), runs for a fixed wall-clock window
and hands its outputs to :mod:`checks`.  The program only ever sees the
generated inputs; every timing here is taken by the benchmark itself
unless a docstring says otherwise.

Work is done in whole *rounds* of identical shape (same jobs, cases or
transients, with fresh seeded values where a workload needs distinct
keys), so the share of failed operations is a property of the inputs,
never of the run length; ``serve`` runs one closed loop over the window.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro import units
from repro.core.elmore import rc_optimum
from repro.engine.executor import BatchExecutor
from repro.engine.jobs import BatchOptimizeJob, OptimizeJob, SweepJob
from repro.engine.store import DiskStore, MemoryStore, TieredStore
from repro.errors import ReproError
from repro.tech.node import get_node

from checks import optima_of, ring_trace, served

NODES = ("250nm", "100nm")


@dataclass
class Window:
    """What one timed window produced.

    ``ops`` is the workload's unit of work (optimized lanes, requests,
    cases, transients) and ``busy`` the wall time those ops took, so
    the throughput is their ratio.  ``latencies`` holds one sample
    (seconds) per call a user waits on: a manifest job, a request, a
    verification pass, a ring round.
    """

    ops: int = 0
    busy: float = 0.0
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0

    def record_round(self, ops: int, elapsed: float) -> None:
        """Account one round, itself a latency sample, that did ``ops``
        in ``elapsed`` seconds."""
        self.ops += ops
        self.busy += elapsed
        self.latencies.append(elapsed)


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def set_up(self) -> None:
        """Build inputs and warm the program; may be called repeatedly."""

    def tear_down(self) -> None:
        """Release whatever :meth:`set_up` acquired (idempotent)."""

    def run(self, seconds: float) -> Window:
        """Run whole rounds until ``seconds`` of wall time have passed."""
        window = Window()
        start = time.perf_counter()
        while window.rounds == 0 or time.perf_counter() - start < seconds:
            self.round(window)
            window.rounds += 1
        return window

    def round(self, window: Window) -> None:
        raise NotImplementedError

    def outputs(self) -> Dict[str, Any]:
        """Everything :mod:`checks` needs to judge the window."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """Input make-up, for the run report."""
        return {}


# ----------------------------------------------------------------------
# sweep: warm-started chains and lockstep grids through BatchExecutor.
# ----------------------------------------------------------------------
#: Points per warm-started chain (the first is always l = 0).
CHAIN_POINTS = 8
#: Extra seeded lanes per lockstep grid, on top of the chain's points.
GRID_EXTRA = 24
#: Upper end of the inductance range (nH/mm); l_crit at the optimum is
#: 0.04-0.4 nH/mm on both nodes, so the range runs well past it.
L_MAX_NH_PER_MM = 2.5
SWEEP_THRESHOLDS = (0.5, 0.9)


def sweep_manifest(seed: int, round_index: int) -> List[Any]:
    """One round's jobs: per (node, f) a SweepJob chain and a grid.

    The grid contains every chain point (so the two optimizer paths can
    be compared) plus ``GRID_EXTRA`` seeded points.  Each round draws
    fresh values, so no job repeats across rounds.
    """
    rng = np.random.default_rng([seed, round_index])
    jobs: List[Any] = []
    for node_name in NODES:
        node = get_node(node_name)
        line = node.line.with_inductance(0.0)
        for f in SWEEP_THRESHOLDS:
            chain = np.concatenate(
                ([0.0], np.sort(rng.uniform(0.0, L_MAX_NH_PER_MM,
                                            CHAIN_POINTS - 1))))
            extra = rng.uniform(0.0, L_MAX_NH_PER_MM, GRID_EXTRA)
            l_chain = tuple(float(x) * units.NH_PER_MM for x in chain)
            l_grid = l_chain + tuple(float(x) * units.NH_PER_MM
                                     for x in extra)
            jobs.append(SweepJob(line_zero_l=line, driver=node.driver,
                                 l_values=l_chain, f=f))
            jobs.append(BatchOptimizeJob.from_inductance_grid(
                line, node.driver, l_grid, f=f))
    return jobs


def lanes_of(job: Any) -> int:
    """Optimized lanes a sweep-manifest job produces."""
    return len(job.l_values) if isinstance(job, SweepJob) else len(job)


class SweepWorkload(Workload):
    """Seeded manifest of distinct optimizations on the serial backend.

    Every round writes into a fresh tiered store (memory over a disk
    directory under the benchmark's scratch area), so every job misses
    and writes.  A round is one ``BatchExecutor.run`` of the manifest;
    the latency samples are the engine's per-job wall times
    (``JobOutcome.wall_time``), about 150 per run where whole manifest
    runs would give fewer than 25.
    """

    name = "sweep"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.optima: List[Any] = []
        self.store_hits: List[str] = []

    def set_up(self) -> None:
        # Warm numpy/scipy and the optimizer on a job outside the
        # manifest's value set (l is past every drawn value).
        node = get_node("100nm")
        line = node.line.with_inductance(
            1.5 * L_MAX_NH_PER_MM * units.NH_PER_MM)
        with BatchExecutor(backend="serial") as executor:
            executor.run([OptimizeJob(line=line, driver=node.driver),
                          BatchOptimizeJob.from_inductance_grid(
                              node.line, node.driver,
                              [2.0 * L_MAX_NH_PER_MM * units.NH_PER_MM])])

    def round(self, window: Window) -> None:
        jobs = sweep_manifest(self.seed, window.rounds)
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        try:
            start = time.perf_counter()
            store = TieredStore(MemoryStore(), DiskStore(root))
            with BatchExecutor(backend="serial", cache=store) as executor:
                report = executor.run(jobs)
            store.close()
            elapsed = time.perf_counter() - start
        finally:
            shutil.rmtree(root)
        ops = 0
        for outcome in report:
            lanes = lanes_of(outcome.job)
            window.attempted += lanes
            if not outcome.ok:
                window.failed += lanes
                continue
            failed = len(outcome.result.get("errors", ()))
            window.latencies.append(outcome.wall_time)
            window.failed += failed
            ops += lanes - failed
            # Keep the optima only: full results (with traces) would
            # make peak memory grow with the number of rounds.
            self.optima.extend(optima_of(outcome.job, outcome.result))
            if outcome.from_cache:
                self.store_hits.append(outcome.job.kind)
        window.ops += ops
        window.busy += elapsed

    def outputs(self) -> Dict[str, Any]:
        return {"optima": self.optima, "store_hits": self.store_hits}

    def describe(self) -> Dict[str, Any]:
        jobs = sweep_manifest(self.seed, 0)
        return {"jobs_per_round": len(jobs),
                "lanes_per_round": sum(lanes_of(job) for job in jobs),
                "chain_points": CHAIN_POINTS,
                "grid_lanes": CHAIN_POINTS + GRID_EXTRA,
                "l_max_nh_per_mm": L_MAX_NH_PER_MM,
                "thresholds": list(SWEEP_THRESHOLDS), "nodes": list(NODES)}


# ----------------------------------------------------------------------
# serve: a closed loop against an in-process repro-serve.
# ----------------------------------------------------------------------
#: Share of fresh requests per kind (delay / critical / optimize).
SERVE_MIX = (("delay", 0.75), ("critical_inductance", 0.10),
             ("optimize", 0.15))
#: Share of requests that repeat an earlier one.
SERVE_REPEAT = 0.25
#: Of the repeats, the share drawn from the last few requests (likely
#: still in flight, so they coalesce); the rest repeat any earlier one
#: (a store hit).
SERVE_RECENT_REPEAT = 0.5
SERVE_RECENT_WINDOW = 4
#: Every run makes at least this many calls, whatever ``--seconds``.
SERVE_MIN_CALLS = 1000
#: Warm-up calls per set-up (drawn from a separate seeded stream).
SERVE_WARMUP_CALLS = 24
SERVE_L_MAX_NH_PER_MM = 3.0


def _line_dict(line) -> Dict[str, float]:
    return {"r": line.r, "l": line.l, "c": line.c}


def _driver_dict(driver) -> Dict[str, float]:
    return {"r_s": driver.r_s, "c_p": driver.c_p, "c_0": driver.c_0}


def fresh_request(rng: np.random.Generator) -> Dict[str, Any]:
    """One new request document drawn from the seeded mix."""
    draw = rng.random()
    kind = SERVE_MIX[-1][0]
    for name, share in SERVE_MIX:
        if draw < share:
            kind = name
            break
        draw -= share
    node = get_node(NODES[int(rng.integers(len(NODES)))])
    l_value = float(rng.uniform(0.0, SERVE_L_MAX_NH_PER_MM)) * units.NH_PER_MM
    line = node.line.with_inductance(l_value)
    doc: Dict[str, Any] = {"kind": kind, "line": _line_dict(line),
                           "driver": _driver_dict(node.driver)}
    if kind == "optimize":
        doc["f"] = float(rng.choice(SWEEP_THRESHOLDS))
        return doc
    rc_ref = rc_optimum(node.line, node.driver)
    doc["h"] = rc_ref.h_opt * float(rng.uniform(0.5, 1.5))
    doc["k"] = rc_ref.k_opt * float(rng.uniform(0.5, 1.5))
    if kind == "delay":
        doc["f"] = float(rng.uniform(0.2, 0.9))
    return doc


def request_stream(seed: int, stream: int) -> Iterator[Dict[str, Any]]:
    """Endless seeded request sequence; about a quarter are repeats."""
    rng = np.random.default_rng([seed, stream])
    history: List[Dict[str, Any]] = []
    while True:
        if history and rng.random() < SERVE_REPEAT:
            if rng.random() < SERVE_RECENT_REPEAT:
                low = max(0, len(history) - SERVE_RECENT_WINDOW)
            else:
                low = 0
            doc = history[int(rng.integers(low, len(history)))]
        else:
            doc = fresh_request(rng)
        history.append(doc)
        yield doc


class ServeWorkload(Workload):
    """``nproc`` keep-alive clients, one request per call, closed loop.

    The server is a :class:`ServerThread` over a default
    :class:`ReproService` (thread backend) with a memory store; it is
    stopped in :meth:`tear_down`, which the harness calls in a
    ``finally``.
    """

    name = "serve"
    TIMED_STREAM = 0
    WARMUP_STREAM = 1

    def __init__(self, seed: int, scratch: Path, clients: int) -> None:
        super().__init__(seed, scratch)
        self.clients = clients
        self.server = None
        self.calls: List[Any] = []
        self.docs: Dict[str, Dict[str, Any]] = {}

    def set_up(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerThread
        from repro.serve.service import ReproService

        self.tear_down()
        self.server = ServerThread(ReproService(cache=MemoryStore()))
        self.server.start()
        warmup = request_stream(self.seed, self.WARMUP_STREAM)
        with ServeClient.from_url(self.server.url) as client:
            for _ in range(SERVE_WARMUP_CALLS):
                client.evaluate(next(warmup))

    def tear_down(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    def run(self, seconds: float) -> Window:
        from repro.serve.client import ServeClient, ServeClientError

        stream = request_stream(self.seed, self.TIMED_STREAM)
        lock = threading.Lock()
        window = Window()
        calls: List[Tuple[Dict[str, Any], Any, float]] = []
        errors: List[BaseException] = []
        deadline = time.perf_counter() + seconds

        def client_loop() -> None:
            try:
                with ServeClient.from_url(self.server.url) as client:
                    while True:
                        with lock:
                            if (time.perf_counter() >= deadline
                                    and len(calls) >= SERVE_MIN_CALLS):
                                return
                            doc = next(stream)
                        sent = time.perf_counter()
                        try:
                            body: Any = client.evaluate(doc)
                        except ServeClientError as exc:
                            body = exc
                        elapsed = time.perf_counter() - sent
                        with lock:
                            calls.append((doc, body, elapsed))
            except BaseException as exc:  # reported after the join
                errors.append(exc)

        threads = [threading.Thread(target=client_loop,
                                    name=f"perfbench-client-{i}")
                   for i in range(self.clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.busy = time.perf_counter() - start
        if errors:
            raise RuntimeError(f"serve client crashed: {errors[0]!r}") \
                from errors[0]
        for doc, body, elapsed in calls:
            window.attempted += 1
            window.latencies.append(elapsed)
            if isinstance(body, dict) and body.get("ok"):
                window.ops += 1
                call = served(doc, body)
                self.docs.setdefault(call.key, doc)
                self.calls.append(call)
            else:
                window.failed += 1
        window.rounds = 1
        return window

    def outputs(self) -> Dict[str, Any]:
        return {"calls": self.calls, "docs": self.docs}

    def describe(self) -> Dict[str, Any]:
        return {"clients": self.clients, "mix": dict(SERVE_MIX),
                "repeat_share": SERVE_REPEAT,
                "min_calls": SERVE_MIN_CALLS,
                "loop": "closed, one request per call"}


# ----------------------------------------------------------------------
# verify: run_differential over every oracle on a seeded case matrix.
# ----------------------------------------------------------------------
#: Thresholds a case may draw besides the paper's 0.5.  The ledger's
#: kahng_muddu/two_pole (underdamped, f = 0.7) and two_pole/talbot
#: (critical, f = 0.8) bounds fail at the compact sizing, so 0.7 and 0.8
#: are left out (see CHANGES.md).
VERIFY_EXTRA_THRESHOLDS = (0.2, 0.3, 0.35, 0.9)
#: Sizing families of the committed matrix: (label, h factor, k factor)
#: about the RC optimum.  They are not jittered: the kahng_muddu vs
#: two_pole underdamped bound already fails for some 2 % jitters.
VERIFY_SIZINGS = (("rcopt", 1.0, 1.0), ("compact", 0.6, 0.5))


def verify_matrix(seed: int) -> List[Any]:
    """Per node a seeded sizing; per regime f = 0.5 and a seeded f."""
    from repro.verify.cases import REGIME_L_FACTORS, case_for_regime

    rng = np.random.default_rng(seed)
    cases = []
    for node_name in NODES:
        label, h_factor, k_factor = VERIFY_SIZINGS[
            int(rng.integers(len(VERIFY_SIZINGS)))]
        for regime in REGIME_L_FACTORS:
            extra = float(rng.choice(VERIFY_EXTRA_THRESHOLDS))
            for f in (0.5, extra):
                cases.append(case_for_regime(
                    node_name, regime, f, sizing=label,
                    h_factor=h_factor, k_factor=k_factor))
    return cases


class VerifyWorkload(Workload):
    """One ``run_differential`` pass over the seeded matrix per round."""

    name = "verify"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.cases: List[Any] = []
        self.reports: List[Any] = []

    def set_up(self) -> None:
        from repro.verify.oracles import evaluate, get_oracle, oracle_names

        self.cases = verify_matrix(self.seed)
        # Warm every oracle on the first case (imports, scipy paths).
        for name in oracle_names():
            if get_oracle(name).supports(self.cases[0]):
                evaluate(self.cases[0], name)

    def round(self, window: Window) -> None:
        from repro.verify.differential import run_differential
        from repro.verify.oracles import get_oracle, oracle_names

        start = time.perf_counter()
        with BatchExecutor(backend="serial") as executor:
            report = run_differential(self.cases, executor=executor)
        window.record_round(len(self.cases), time.perf_counter() - start)
        supported = sum(1 for case in self.cases for name in oracle_names()
                        if get_oracle(name).supports(case))
        failed = sum(1 for skip in report.skipped
                     if skip.reason.startswith("evaluation failed"))
        window.attempted += supported
        window.failed += failed
        self.reports.append(report)

    def outputs(self) -> Dict[str, Any]:
        return {"cases": self.cases, "reports": self.reports}

    def describe(self) -> Dict[str, Any]:
        cases = verify_matrix(self.seed)
        return {"cases": len(cases),
                "case_ids": [case.case_id for case in cases]}


# ----------------------------------------------------------------------
# ring: the Sec. 3.3 five-stage MOSFET ring oscillator.
# ----------------------------------------------------------------------
#: (node, l in nH/mm): the 100 nm pair straddles the ~2 nH/mm failure
#: onset; the 250 nm pair spans the same inductances without collapse.
RING_POINTS = (("100nm", 1.4), ("100nm", 2.6), ("250nm", 0.5),
               ("250nm", 2.6))
RING_SEGMENTS = 10
RING_PERIOD_BUDGET = 9.0
RING_STEPS_PER_PERIOD = 200


class RingWorkload(Workload):
    """Every round simulates each ring point once, in a seeded order.

    Set-up includes the inverter calibration of both nodes (the
    calibration cache is cleared first, so every repeat pays it).
    """

    name = "ring"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.traces: List[Any] = []
        self.order = [RING_POINTS[i] for i in
                      np.random.default_rng(seed).permutation(
                          len(RING_POINTS))]

    def set_up(self) -> None:
        from repro.experiments.ring import calibrated

        calibrated.cache_clear()
        for node_name in NODES:
            calibrated(node_name)

    def round(self, window: Window) -> None:
        from repro.experiments.ring import run_ring

        ops, elapsed = 0, 0.0
        for node_name, l_nh in self.order:
            window.attempted += 1
            start = time.perf_counter()
            try:
                ring = run_ring(node_name, l_nh, segments=RING_SEGMENTS,
                                period_budget=RING_PERIOD_BUDGET,
                                steps_per_period=RING_STEPS_PER_PERIOD)
            except ReproError:
                window.failed += 1
                continue
            finally:
                elapsed += time.perf_counter() - start
            ops += 1
            self.traces.append(ring_trace(window.rounds, node_name, l_nh,
                                          ring))
        window.record_round(ops, elapsed)

    def outputs(self) -> Dict[str, Any]:
        return {"traces": self.traces}

    def describe(self) -> Dict[str, Any]:
        return {"order": [list(point) for point in self.order],
                "segments": RING_SEGMENTS,
                "period_budget": RING_PERIOD_BUDGET,
                "steps_per_period": RING_STEPS_PER_PERIOD}


def make_workload(name: str, seed: int, scratch: Path,
                  clients: int) -> Workload:
    if name == "sweep":
        return SweepWorkload(seed, scratch)
    if name == "serve":
        return ServeWorkload(seed, scratch, clients)
    if name == "verify":
        return VerifyWorkload(seed, scratch)
    if name == "ring":
        return RingWorkload(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
