"""Self-tests of the output checks: each passes on a real output and
rejects a perturbed one.

Run from the root of a source checkout (a few seconds)::

    python3 perfbench/selftest.py

Exits 0 when every check accepts its unperturbed output and rejects
every perturbation, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from repro import units  # noqa: E402
from repro.engine.executor import BatchExecutor  # noqa: E402
from repro.engine.jobs import BatchOptimizeJob, SweepJob  # noqa: E402
from repro.engine.store import MemoryStore  # noqa: E402
from repro.tech.node import get_node  # noqa: E402

Case = Tuple[str, Callable[[], List[str]]]


def _edited(outcome: Any, edit: Callable[[Dict[str, Any]], None]
            ) -> List[checks.Optimum]:
    result = copy.deepcopy(outcome.result)
    edit(result)
    return checks.optima_of(outcome.job, result)


def sweep_cases() -> List[Case]:
    node = get_node("100nm")
    line = node.line.with_inductance(0.0)
    l_values = tuple(x * units.NH_PER_MM for x in (0.0, 0.6, 1.8))
    jobs = [SweepJob(line_zero_l=line, driver=node.driver,
                     l_values=l_values, f=0.5),
            BatchOptimizeJob.from_inductance_grid(
                line, node.driver, l_values + (1.1 * units.NH_PER_MM,),
                f=0.5)]
    with BatchExecutor(backend="serial", cache=MemoryStore()) as executor:
        chain, grid = executor.run(jobs).outcomes

    def moved_optimum(result: Dict[str, Any]) -> None:
        # A consistent but non-optimal point: h off by 1 %, tau re-solved.
        h = result["h_opt"][1] * 1.01
        tau = checks._brent_tau(line.with_inductance(l_values[1]),
                                node.driver, h, result["k_opt"][1], 0.5)
        result["h_opt"][1], result["tau"][1] = h, tau
        result["delay_per_length"][1] = tau / h

    def scale(key: str, index: int, factor: float):
        def edit(result: Dict[str, Any]) -> None:
            result[key][index] *= factor
        return edit

    def grid_edit(result: Dict[str, Any]) -> None:
        result["results"][2]["delay_per_length"] *= 1.0 + 1e-6

    chain_optima = checks.optima_of(chain.job, chain.result)
    grid_optima = checks.optima_of(grid.job, grid.result)

    def run(chain_: Any = chain_optima, grid_: Any = grid_optima,
            store_hits: Tuple[str, ...] = ()) -> List[str]:
        return checks.check_sweep(chain_ + grid_, store_hits)

    return [
        ("sweep: unperturbed", run),
        ("sweep: tau off Brent",
         lambda: run(_edited(chain, scale("tau", 2, 1 + 1e-6)))),
        ("sweep: not a local minimum",
         lambda: run(_edited(chain, moved_optimum))),
        ("sweep: l_crit off Eq. 4",
         lambda: run(_edited(chain, scale("l_crit", 1, 1 + 1e-6)))),
        ("sweep: grid disagrees with chain",
         lambda: run(grid_=_edited(grid, grid_edit))),
        ("sweep: served from the store",
         lambda: run(store_hits=("sweep",))),
    ]


def serve_cases() -> List[Case]:
    node = get_node("250nm")
    line = node.line.with_inductance(1.2 * units.NH_PER_MM)
    base = {"line": {"r": line.r, "l": line.l, "c": line.c},
            "driver": {"r_s": node.driver.r_s, "c_p": node.driver.c_p,
                       "c_0": node.driver.c_0}}
    docs = [{"kind": "delay", **base, "h": 8e-3, "k": 300.0, "f": 0.5},
            {"kind": "critical_inductance", **base, "h": 8e-3, "k": 300.0},
            {"kind": "optimize", **base, "f": 0.9}]
    solo = checks.solo_results(docs)
    by_key = {checks.request_key(doc): doc for doc in docs}
    bodies = []
    for doc in docs:
        result = copy.deepcopy(solo[checks.request_key(doc)])
        if doc["kind"] == "optimize":
            # Batched lanes legitimately differ in execution counters.
            result["trace"]["batch_calls"] += 3
        bodies.append({"ok": True, "kind": doc["kind"], "result": result,
                       "cache": "miss", "batch_size": 2})

    def check(changed: List[Dict[str, Any]] = bodies,
              solo_: Dict[str, Dict[str, Any]] = solo) -> List[str]:
        calls = [checks.served(doc, body)
                 for doc, body in zip(docs, changed)]
        return checks.check_serve(calls, by_key, solo_)

    def perturbed(index: int, edit: Callable[[Dict[str, Any]], None]
                  ) -> List[Dict[str, Any]]:
        changed = copy.deepcopy(bodies)
        edit(changed[index])
        return changed

    def ulp(key: str):
        def edit(body: Dict[str, Any]) -> None:
            body["result"][key] = math.nextafter(body["result"][key],
                                                 math.inf)
        return edit

    def both_off_brent() -> List[str]:
        # Body and solo agree bitwise, but both are off the crossing.
        key = checks.request_key(docs[0])
        solo_off = copy.deepcopy(solo)
        solo_off[key]["tau"] *= 1.0 + 1e-6
        changed = copy.deepcopy(bodies)
        changed[0]["result"]["tau"] = solo_off[key]["tau"]
        return check(changed, solo_off)

    def wrong_kind(body: Dict[str, Any]) -> None:
        body["kind"] = "delay"

    return [
        ("serve: unperturbed", check),
        ("serve: delay body 1 ulp off",
         lambda: check(perturbed(0, ulp("tau")))),
        ("serve: l_crit body 1 ulp off",
         lambda: check(perturbed(1, ulp("l_crit")))),
        ("serve: optimum 1 ulp off",
         lambda: check(perturbed(2, ulp("h_opt")))),
        ("serve: delay off Brent", both_off_brent),
        ("serve: wrong kind answered",
         lambda: check(perturbed(1, wrong_kind))),
    ]


def verify_cases() -> List[Case]:
    from repro.verify.cases import case_for_regime
    from repro.verify.differential import run_differential

    cases = [case_for_regime("100nm", regime, 0.5)
             for regime in ("overdamped", "underdamped")]
    report = run_differential(
        cases, oracles=["elmore", "ismail_friedman", "kahng_muddu",
                        "two_pole"])

    def inflated() -> List[str]:
        check = report.checks[0]
        rule = checks.DEFAULT_LEDGER.bound_for(
            check.subject, check.reference, check.regime, check.f)
        bad = dataclasses.replace(
            check, tau_subject=check.tau_reference * (1 + 2 * rule.rel_tol))
        changed = copy.copy(report)
        changed.checks = [bad] + report.checks[1:]
        return checks.check_verify(cases, [changed])

    def uncovered() -> List[str]:
        changed = copy.copy(report)
        changed.checks = [c for c in report.checks
                          if c.case_id != cases[1].case_id]
        return checks.check_verify(cases, [changed])

    return [
        ("verify: unperturbed", lambda: checks.check_verify(cases,
                                                            [report])),
        ("verify: tau outside its ledger bound", inflated),
        ("verify: a case left unscored", uncovered),
    ]


def ring_cases() -> List[Case]:
    vdd, expected = 1.2, 1e-9

    def trace(node: str, l_nh: float, period: float,
              spike: float = 0.0) -> checks.RingTrace:
        time = np.linspace(0.0, 12 * period, 4801)
        wave = 0.5 * vdd * (1.0 + np.sin(2 * np.pi * time / period))
        wave[-1] += spike
        return checks.RingTrace(round=0, node=node, l_nh_per_mm=l_nh,
                                vdd=vdd, expected_period=expected,
                                time=time, v_in=wave, v_out=wave)

    def traces(p100_high: float = 0.9e-9, p250_high: float = 1.6e-9,
               p100_low: float = 2.0e-9, spike: float = 0.0
               ) -> List[checks.RingTrace]:
        return [trace("100nm", 1.4, p100_low),
                trace("100nm", 2.6, p100_high, spike),
                trace("250nm", 0.5, 1.2e-9), trace("250nm", 2.6, p250_high)]

    return [
        ("ring: unperturbed", lambda: checks.check_ring(traces())),
        ("ring: 100nm period does not collapse",
         lambda: checks.check_ring(traces(p100_high=1.9e-9))),
        ("ring: 250nm period collapses",
         lambda: checks.check_ring(traces(p250_high=0.6e-9))),
        ("ring: probe leaves the rails",
         lambda: checks.check_ring(traces(spike=5 * vdd))),
        ("ring: period far from expected_period",
         lambda: checks.check_ring(traces(p100_low=3.5e-9,
                                          p100_high=1.5e-9))),
        ("ring: a run is missing",
         lambda: checks.check_ring(traces()[:3])),
    ]


def main() -> int:
    wrong = 0
    for name, case in (sweep_cases() + serve_cases() + verify_cases()
                       + ring_cases()):
        failures = case()
        expect_pass = name.endswith("unperturbed")
        ok = not failures if expect_pass else bool(failures)
        wrong += not ok
        verdict = ("passes" if not failures
                   else f"rejects: {failures[0][:100]}")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    print(f"{wrong} self-test(s) failed" if wrong else "all self-tests ok")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
