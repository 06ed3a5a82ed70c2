"""Seeded end-to-end benchmark of the repro optimizer, serve, verify and
ring-oscillator paths.

Run one workload from the root of a source checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout (nothing is
installed or built).  The run sets up the workload several times (timing
each), measures it for ``--seconds``, checks its outputs against
computations made apart from the program (``checks.py``) and prints, as
its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the layer boundaries are wrapped
in spans (``tracing.py``), the spans go to
``.perfbench/trace-<workload>-<seed>.jsonl`` and the metrics are the
per-layer ones.  The line before it carries the report: environment
block, input make-up, set-up repeats and the first check failures.

The run fails (exit 1, no result line) if a thread, child process or
temporary directory it started outlives it, and exits 2 when the
checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 (the clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("sweep", "serve", "verify", "ring")
#: Workload set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Seconds a run waits for its own threads to end after tear-down.
THREAD_JOIN_TIMEOUT = 10.0
#: Failure messages copied into the report (the count is always given).
REPORTED_FAILURES = 10
#: Environment variables that size BLAS/OpenMP thread pools; the
#: benchmark reports them and never sets them.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_path() -> Path:
    """``src/`` of this checkout; exits 2 when there is no program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {src / 'repro'} is "
              f"missing (run from the root of a source checkout)",
              file=sys.stderr)
        raise SystemExit(2)
    return src


# ----------------------------------------------------------------------
# Environment block.
# ----------------------------------------------------------------------
def _git_sha() -> str:
    """Commit of the checkout read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> Dict[str, Any]:
    """BLAS library numpy loaded, and its thread count if it says."""
    import ctypes

    import numpy

    info: Dict[str, Any] = {"library": None, "threads": None}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas(),
            "thread_variables": {name: os.environ.get(name)
                                 for name in THREAD_VARIABLES},
            "git_sha": _git_sha(), "platform": platform.platform()}


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile (``q`` in 1..99), interpolated between
    order statistics."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(window: Any, setup_s: float) -> Dict[str, Dict[str, Any]]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "ops_per_s": {"value": window.ops / window.busy, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(window.latencies)
                           * 1e3, "unit": "ms"},
        # p95, not p99: a run has ~150-190 ``sweep`` jobs, so its p99
        # would have one or two samples beyond it and one slow spell of
        # a shared host would set it (135-225 ms across ten seeds).
        "latency_p95_ms": {"value": percentile(window.latencies, 95)
                           * 1e3, "unit": "ms"},
    }


def per_layer(tracer: Any, window: Any) -> Dict[str, Dict[str, Any]]:
    import tracing

    values = tracing.layer_metrics(tracer, window.ops, window.latencies)
    values["traced.ops_per_s"] = window.ops / window.busy
    values["traced.latency_p50_ms"] = statistics.median(
        window.latencies) * 1e3
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in tracing.metric_specs()}


# ----------------------------------------------------------------------
# Checks and clean exit.
# ----------------------------------------------------------------------
def check_outputs(workload: Any) -> List[str]:
    import checks

    out = workload.outputs()
    if workload.name == "sweep":
        return checks.check_sweep(out["optima"], out["store_hits"])
    if workload.name == "serve":
        solo = checks.solo_results(out["docs"].values())
        return checks.check_serve(out["calls"], out["docs"], solo)
    if workload.name == "verify":
        return checks.check_verify(out["cases"], out["reports"])
    return checks.check_ring(out["traces"])


def leftovers(scratch: Path) -> List[str]:
    """Threads, child processes and temporary directories still alive."""
    found = []
    main = threading.main_thread()
    for thread in threading.enumerate():
        if thread is not main:
            thread.join(THREAD_JOIN_TIMEOUT)
    found += [f"thread {t.name} (daemon={t.daemon})"
              for t in threading.enumerate() if t is not main]
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
        if pid == 0:
            found.append("a child process is still running")
    except ChildProcessError:
        pass
    if scratch.exists():
        found.append(f"temporary directory {scratch}")
    return found


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its server and removes its scratch
    # directory: SIGTERM unwinds through the ``finally`` blocks below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(program_path()))

    import repro  # noqa: F401 (part of the timed set-up)

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    env = environment()
    import_s = time.perf_counter() - PROCESS_START

    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"tmp-{os.getpid()}"
    scratch.mkdir()
    workload = workloads.make_workload(args.workload, args.seed, scratch,
                                       os.cpu_count() or 1)
    setups: List[float] = []
    try:
        try:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload.set_up()
                setups.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.phase = "window"
            window = workload.run(args.seconds)
            if tracer is not None:
                tracer.phase = "check"
        finally:
            workload.tear_down()
        failures = check_outputs(workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    trace_file = None
    if tracer is not None:
        trace_file = SCRATCH / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(trace_file)
    stray = leftovers(scratch)
    if stray:
        print(f"perfbench: the run left behind: {'; '.join(stray)}",
              file=sys.stderr)
        return 1

    setup_s = import_s + statistics.median(setups)
    metrics = (per_layer(tracer, window) if tracer is not None
               else end_to_end(window, setup_s))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": env, "inputs": workload.describe(),
              "rounds": window.rounds, "ops": window.ops,
              "busy_s": window.busy,
              "latency_samples": len(window.latencies),
              "import_s": import_s, "setup_runs_s": setups,
              "setup_s": setup_s,
              "check_failures": len(failures),
              "first_failures": failures[:REPORTED_FAILURES],
              "trace_file": str(trace_file) if trace_file else None}
    print(json.dumps({"report": report}, allow_nan=False))
    print(json.dumps({"correct": not failures,
                      "attempted": window.attempted,
                      "failed": window.failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
