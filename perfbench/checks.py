"""Output checks: every workload's results judged apart from the program.

Each ``check_*`` function takes plain outputs and returns a list of
failure messages (empty means the outputs pass).  The references are
computed here: Brent solves of the threshold crossing, exact rational
evaluation of the paper's Eq. 2 moments, solo ``job.run()`` replays,
a re-scoring of the differential report against the tolerance ledger,
and a period measurement of the ring's own waveforms.  Every tolerance
comes from :mod:`repro.verify.tolerances`; the remaining constants are
the paper's Sec. 3.3 property thresholds and a perturbation step.

``selftest.py`` shows each check rejecting a perturbed output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.delay import brent_threshold_delay
from repro.core.params import DriverParams, LineParams, Stage
from repro.verify.tolerances import DEFAULT_LEDGER, unit_tolerance

#: Brent vs the kernel's masked Newton/bisection hybrid on one response.
BRENT_REL = unit_tolerance("kernels.brent_vs_vector.rel")
#: Lockstep-batched optimum vs the solo warm-started chain at one point.
BATCH_VS_SOLO_REL = unit_tolerance("kernels.scalar_vs_vector.rel")
#: A closed-form identity evaluated in floating point (roundoff only).
IDENTITY_REL = unit_tolerance("response.canonical_overshoot.rel")

#: Relative step in h and in k used to probe an optimum's neighbourhood.
#: At 1e-3 the rise of tau/h is ~1e-7 relative, far above Brent's noise.
LOCAL_MIN_STEP = 1e-3

#: Sec. 3.3 ring-oscillator properties.  Above the 100 nm onset the
#: period collapses below COLLAPSE_RATIO x the period below it (the same
#: 0.6 the Fig. 11 onset detector uses); the 250 nm ring stays above
#: IMMUNE_RATIO x; a period below onset lies within PERIOD_RANGE x the
#: naive estimate 2 n tau_optRC; probe voltages stay inside RAIL_RANGE
#: multiples of VDD.
COLLAPSE_RATIO = 0.6
IMMUNE_RATIO = 0.8
PERIOD_RANGE = (1.0, 3.0)
RAIL_RANGE = (-3.0, 4.0)
#: Start-up crossings ignored and full periods needed by the period
#: measurement.
PERIOD_SKIP = 1
PERIOD_MIN_CYCLES = 2

#: Optimizer execution counters: they describe how lanes were pooled,
#: so a batched optimum legitimately differs from a solo one there.
EXECUTION_COUNTERS = ("lanes_evaluated", "batch_calls", "memo_hits")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Optimum:
    """One reported optimum, flattened from a sweep or grid result."""

    source: str            #: "chain" or "grid"
    line: LineParams
    driver: DriverParams
    f: float
    h: float
    k: float
    tau: float
    delay_per_length: float
    l_crit: Optional[float] = None


def optima_of(job: Any, result: Dict[str, Any]) -> List[Optimum]:
    """Flatten a SweepJob or BatchOptimizeJob result into optima."""
    found: List[Optimum] = []
    if job.kind == "sweep":
        for i, l_value in enumerate(result["l_values"]):
            found.append(Optimum(
                "chain", job.line_zero_l.with_inductance(l_value),
                job.driver, job.f, result["h_opt"][i], result["k_opt"][i],
                result["tau"][i], result["delay_per_length"][i],
                result["l_crit"][i]))
        return found
    for line, lane in zip(job.lines, result["results"]):
        if lane is not None:
            found.append(Optimum(
                "grid", line, job.driver, job.f, lane["h_opt"],
                lane["k_opt"], lane["tau"], lane["delay_per_length"]))
    return found


def _brent_tau(line: LineParams, driver: DriverParams, h: float, k: float,
               f: float) -> float:
    stage = Stage(line=line, driver=driver, h=float(h), k=float(k))
    return brent_threshold_delay(stage, f).tau


def discriminant_ratio(line: LineParams, driver: DriverParams, h: float,
                       k: float, l_value: float) -> float:
    """|b1^2 - 4 b2| / b1^2 of Eq. 2 at inductance ``l_value``, exactly.

    The moments are evaluated in rational arithmetic from the float
    inputs (with R_S = r_s/k, C_P = c_p k, C_L = c_0 k), so the only
    rounding left is that of the inputs themselves.
    """
    r, c, l = Fraction(line.r), Fraction(line.c), Fraction(l_value)
    h, k = Fraction(h), Fraction(k)
    r_s = Fraction(driver.r_s) / k
    c_p = Fraction(driver.c_p) * k
    c_l = Fraction(driver.c_0) * k
    b1 = r_s * (c_p + c_l) + r * c * h * h / 2 + r_s * c * h + c_l * r * h
    b2 = (l * c * h * h / 2 + r * r * c * c * h ** 4 / 24
          + r_s * (c_p + c_l) * r * c * h * h / 2
          + (r_s * c * h + c_l * r * h) * r * c * h * h / 6
          + c_l * l * h + r_s * c_p * c_l * r * h)
    return float(abs(b1 * b1 - 4 * b2) / (b1 * b1))


def check_optimum(opt: Optimum) -> List[str]:
    """tau agrees with Brent; tau/h is a local minimum; Eq. 4 holds."""
    where = (f"{opt.source} optimum (l = {opt.line.l:.6g} H/m, "
             f"f = {opt.f:g}, r_s = {opt.driver.r_s:.6g})")
    failures = []
    tau_ref = _brent_tau(opt.line, opt.driver, opt.h, opt.k, opt.f)
    if _rel(opt.tau, tau_ref) > BRENT_REL:
        failures.append(f"{where}: tau {opt.tau!r} vs Brent {tau_ref!r}")
    dpl_ref = tau_ref / opt.h
    for dh, dk in ((1.0 + LOCAL_MIN_STEP, 1.0), (1.0 - LOCAL_MIN_STEP, 1.0),
                   (1.0, 1.0 + LOCAL_MIN_STEP), (1.0, 1.0 - LOCAL_MIN_STEP)):
        h, k = opt.h * dh, opt.k * dk
        dpl = _brent_tau(opt.line, opt.driver, h, k, opt.f) / h
        if dpl < dpl_ref * (1.0 - BRENT_REL):
            failures.append(f"{where}: tau/h falls to {dpl!r} from "
                            f"{dpl_ref!r} at h x {dh:g}, k x {dk:g}")
    if opt.l_crit is not None:
        ratio = discriminant_ratio(opt.line, opt.driver, opt.h, opt.k,
                                   opt.l_crit)
        if ratio > IDENTITY_REL:
            failures.append(f"{where}: b1^2 - 4 b2 = {ratio:.3g} b1^2 "
                            f"at l_crit {opt.l_crit!r}")
    return failures


def check_chain_vs_grid(optima: Iterable[Optimum]) -> List[str]:
    """Warm-started chains and lockstep grids agree on tau/h."""
    chain: Dict[Tuple[Any, float, float], float] = {}
    grid: List[Optimum] = []
    for opt in optima:
        if opt.source == "chain":
            chain[(opt.driver, opt.f, opt.line.l)] = opt.delay_per_length
        else:
            grid.append(opt)
    failures = []
    shared = 0
    for opt in grid:
        ref = chain.get((opt.driver, opt.f, opt.line.l))
        if ref is None:
            continue
        shared += 1
        if _rel(opt.delay_per_length, ref) > BATCH_VS_SOLO_REL:
            failures.append(
                f"grid tau/h {opt.delay_per_length!r} vs chain {ref!r} at "
                f"l = {opt.line.l:.6g} H/m, f = {opt.f:g}")
    if shared < len(chain):
        failures.append(f"only {shared} of {len(chain)} chain points have "
                        f"a grid partner")
    return failures


def check_sweep(optima: Sequence[Optimum],
                store_hits: Sequence[str]) -> List[str]:
    """Every optimum checked; ``store_hits`` names jobs the store served."""
    failures = [f"{kind} job was served from the store; every job must "
                f"miss a fresh store" for kind in store_hits]
    if not optima:
        failures.append("no optimum to check")
    for opt in optima:
        failures.extend(check_optimum(opt))
    failures.extend(check_chain_vs_grid(optima))
    return failures


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def plain(value: Any) -> Any:
    """JSON round trip (numpy scalars become Python numbers)."""
    return json.loads(json.dumps(value, default=lambda x: x.item(),
                                 allow_nan=False))


def request_key(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True)


def without_counters(result: Dict[str, Any]) -> Dict[str, Any]:
    trace = result.get("trace")
    if not isinstance(trace, dict):
        return result
    trace = {key: value for key, value in trace.items()
             if key not in EXECUTION_COUNTERS}
    return {**result, "trace": trace}


def result_digest(result: Dict[str, Any]) -> str:
    """SHA-256 of a result's canonical JSON, less execution counters."""
    text = json.dumps(without_counters(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Served:
    """What the checks keep of one answered call (bodies are dropped)."""

    key: str                   #: the request's canonical text
    kind: str                  #: the kind the body answered
    digest: str                #: :func:`result_digest` of the body
    tau: Optional[float]       #: the served delay, for delay requests


def served(doc: Dict[str, Any], body: Dict[str, Any]) -> Served:
    result = body["result"]
    return Served(request_key(doc), body.get("kind"), result_digest(result),
                  result["tau"] if doc["kind"] == "delay" else None)


def solo_results(docs: Iterable[Dict[str, Any]]
                 ) -> Dict[str, Dict[str, Any]]:
    """Solo ``job.run()`` of every distinct request, keyed by its text."""
    from repro.serve.protocol import REQUEST_JOB_TYPES

    solo: Dict[str, Dict[str, Any]] = {}
    for doc in docs:
        key = request_key(doc)
        if key not in solo:
            job = REQUEST_JOB_TYPES[doc["kind"]].from_dict(doc)
            solo[key] = plain(job.run())
    return solo


def check_serve(calls: Sequence[Served], docs: Dict[str, Dict[str, Any]],
                solo: Dict[str, Dict[str, Any]]) -> List[str]:
    """Bodies equal solo runs bitwise (less counters); delays match Brent.

    ``docs`` maps each request key to its document and ``solo`` to its
    solo result (:func:`solo_results`).
    """
    failures: List[str] = []
    digests = {key: result_digest(result) for key, result in solo.items()}
    brent: Dict[str, float] = {}
    for call in calls:
        doc = docs[call.key]
        if call.kind != doc["kind"]:
            failures.append(f"{doc['kind']} request answered as "
                            f"{call.kind!r}")
            continue
        if call.digest != digests[call.key]:
            failures.append(f"{doc['kind']} body differs from the solo run "
                            f"of {call.key}")
        if call.tau is not None:
            if call.key not in brent:
                brent[call.key] = _brent_tau(
                    LineParams(**doc["line"]), DriverParams(**doc["driver"]),
                    doc["h"], doc["k"], doc["f"])
            if _rel(call.tau, brent[call.key]) > BRENT_REL:
                failures.append(f"delay tau {call.tau!r} vs Brent "
                                f"{brent[call.key]!r}")
    if not calls:
        failures.append("no answered call to check")
    return failures


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def check_verify(cases: Sequence[Any], reports: Sequence[Any]) -> List[str]:
    """Zero violations, re-scored here against the ledger; full coverage."""
    failures: List[str] = []
    for index, report in enumerate(reports):
        if not report.passed:
            failures.append(f"pass {index}: report has "
                            f"{len(report.violations)} violations")
        scored = set()
        for check in report.checks:
            rule = DEFAULT_LEDGER.bound_for(check.subject, check.reference,
                                            check.regime, check.f)
            rel = _rel(check.tau_subject, check.tau_reference)
            if rule is None or rel > rule.rel_tol:
                failures.append(
                    f"pass {index}: {check.case_id} {check.subject} vs "
                    f"{check.reference}: error {rel:.3g} over bound "
                    f"{rule.rel_tol if rule else None}")
            scored.add(check.case_id)
        missing = [case.case_id for case in cases
                   if case.case_id not in scored]
        if missing:
            failures.append(f"pass {index}: no scored check for {missing}")
    if not reports:
        failures.append("no verification pass to check")
    return failures


# ----------------------------------------------------------------------
# ring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RingTrace:
    """Probe waveforms of one ring run, as the checks need them."""

    round: int
    node: str
    l_nh_per_mm: float
    vdd: float
    expected_period: float
    time: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray


def ring_period(time: np.ndarray, values: np.ndarray,
                level: float) -> Optional[float]:
    """Median spacing of rising ``level`` crossings, or None if too few.

    Crossing times are interpolated linearly between samples; the first
    ``PERIOD_SKIP`` crossings (start-up) are dropped.
    """
    below = values[:-1] < level
    above = values[1:] >= level
    idx = np.nonzero(below & above)[0]
    t0, t1 = time[idx], time[idx + 1]
    v0, v1 = values[idx], values[idx + 1]
    crossings = t0 + (level - v0) * (t1 - t0) / (v1 - v0)
    usable = crossings[PERIOD_SKIP:]
    if usable.size < PERIOD_MIN_CYCLES + 1:
        return None
    return float(np.median(np.diff(usable)))


def check_ring(traces: Sequence[RingTrace]) -> List[str]:
    """The paper's Sec. 3.3 properties, per round."""
    failures: List[str] = []
    rounds: Dict[int, Dict[Tuple[str, float], RingTrace]] = {}
    for trace in traces:
        rounds.setdefault(trace.round, {})[(trace.node,
                                            trace.l_nh_per_mm)] = trace
        low, high = RAIL_RANGE
        for name, wave in (("input", trace.v_in), ("output", trace.v_out)):
            if wave.min() <= low * trace.vdd or wave.max() >= high * trace.vdd:
                failures.append(
                    f"{trace.node} l={trace.l_nh_per_mm}: {name} swings "
                    f"{wave.min():.3g}..{wave.max():.3g} V, outside "
                    f"{RAIL_RANGE} x VDD")
    for index, points in sorted(rounds.items()):
        periods = {key: ring_period(t.time, t.v_out, 0.5 * t.vdd)
                   for key, t in points.items()}
        by_node: Dict[str, List[Tuple[float, Optional[float]]]] = {}
        for (node, l_nh), period in sorted(periods.items()):
            by_node.setdefault(node, []).append((l_nh, period))
        for node, series in by_node.items():
            if len(series) != 2:
                failures.append(f"round {index}: {node} has {len(series)} "
                                f"runs, expected a low-l and a high-l run")
                continue
            (l_low, p_low), (l_high, p_high) = series
            if p_low is None:
                failures.append(f"round {index}: {node} l={l_low} does not "
                                f"oscillate")
                continue
            below = [(l_low, p_low)]
            if node == "100nm":
                if p_high is not None and p_high >= COLLAPSE_RATIO * p_low:
                    failures.append(
                        f"round {index}: 100nm period {p_high:.4g} s at "
                        f"l={l_high} did not collapse below "
                        f"{COLLAPSE_RATIO} x {p_low:.4g} s")
            else:
                if p_high is None or p_high <= IMMUNE_RATIO * p_low:
                    failures.append(
                        f"round {index}: {node} period {p_high} s at "
                        f"l={l_high} fell below {IMMUNE_RATIO} x "
                        f"{p_low:.4g} s")
                else:
                    below.append((l_high, p_high))
            for l_nh, period in below:
                expected = points[(node, l_nh)].expected_period
                ratio = period / expected
                if not PERIOD_RANGE[0] <= ratio <= PERIOD_RANGE[1]:
                    failures.append(
                        f"round {index}: {node} l={l_nh} period is "
                        f"{ratio:.3g} x expected_period, outside "
                        f"{PERIOD_RANGE}")
    if not rounds:
        failures.append("no ring round to check")
    return failures


def ring_trace(round_index: int, node: str, l_nh: float, ring: Any
               ) -> RingTrace:
    """Extract what :func:`check_ring` needs from a ``RingRun``."""
    from repro.experiments.ring import expected_period
    from repro.tech.node import get_node

    return RingTrace(round=round_index, node=node, l_nh_per_mm=l_nh,
                     vdd=ring.oscillator.vdd,
                     expected_period=expected_period(get_node(node)),
                     time=np.asarray(ring.input_waveform.time),
                     v_in=np.asarray(ring.input_waveform.values),
                     v_out=np.asarray(ring.output_waveform.values))
