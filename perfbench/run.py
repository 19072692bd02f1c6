"""Benchmark of the halfdensity pipeline: one workload per run, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py): sweep, planted, montecarlo.  Each runs in this
one process on one thread.  With --trace 0 the run measures whole passes of
items, ending at the pass boundary nearest to --seconds once at least
MIN_ITEMS items are done, and reports the end-to-end metrics.  With --trace 1
it runs the fewest whole passes that hold TRACE_ITEMS items, with a span
around every call into the program, so its counts repeat exactly for a seed,
and reports the per-layer metrics; it writes its spans to perfbench/out/.
Tracing overhead is the traced run's trace.items_per_s against the untraced
raw_items_per_s (both unscaled).

On a shared host the speed of a core drifts, so an untraced run times
calibration kernels that call nothing in the program (refspeed.py) before
every item and after every set-up, and scales each end-to-end time to the
reference speed of those kernels.  A change to the program moves these
times; a change in the machine's speed mostly does not.  The unscaled
figures are printed as "raw_" lines.

Every item passes a correctness gate: certificates replay, a trivial verdict
agrees with the abelianization guard, Monte Carlo estimates clear their
bounds, and at the default seed each item's verdict digest or success count
equals the one in reference.json.  Lines of "name value unit" are printed
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from refspeed import Calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
MIN_ITEMS = 100
SETUP_REPEATS = 5
TRACE_ITEMS = 64
#: The calibration kernels that match each workload's work (refspeed.py).
CAL_KERNELS = {"sweep": ("interp", "array"), "planted": ("interp",), "montecarlo": ("array",)}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROGRAM_MODULES = ("halfdensity", "workloads", "planted")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _take_program_modules() -> dict:
    """Remove the program's and the workloads' modules from sys.modules; returns them."""
    names = [n for n in sys.modules if n.partition(".")[0] in PROGRAM_MODULES]
    return {name: sys.modules.pop(name) for name in names}


def load_workloads(cal: Calibration | None = None) -> list:
    """Import the program from ROOT/src and the workloads SETUP_REPEATS times.

    Each import starts from fresh modules, so each repeats the whole work.
    Afterwards the modules of the first import in this process are the ones
    loaded, so a caller that patched them keeps its patch.  Returns the
    (start, end) of each import.
    """
    src = ROOT / "src"
    if not (src / "halfdensity" / "__init__.py").is_file():
        raise BenchError(f"no halfdensity sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    kept = _take_program_modules()
    spans = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        importlib.import_module("workloads")
        spans.append((start, perf_counter()))
        if cal is not None:
            cal.measure()
        fresh = _take_program_modules()
        kept = kept or fresh
    sys.modules.update(kept)
    import halfdensity

    if Path(halfdensity.__file__).resolve().parent != src / "halfdensity":
        raise BenchError(f"imported halfdensity from {halfdensity.__file__}, not {src}")
    return spans


def git_commit() -> str | None:
    """The commit checked out at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(loadavg_start) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "loadavg_start": list(loadavg_start),
        "loadavg_end": list(os.getloadavg()),
    }


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload]


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        max_items: int | None = None, reference=None) -> dict:
    """Set up and measure one workload; returns counts, metrics and spans.

    max_items stops the run early (smoke tests).  reference is the list of
    expected fingerprints by input id; None applies only the intrinsic checks.
    """
    cal = Calibration(CAL_KERNELS[workload])
    cal.measure()
    import_spans = load_workloads(cal)
    import workloads

    cls = workloads.WORKLOADS[workload]
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        wl = None  # free the previous set-up first, so peak RSS holds one
        start = perf_counter()
        wl = cls(seed)
        setup_spans.append((start, perf_counter()))
        cal.measure()

    tracer = workloads.Tracer(trace)
    spans = []
    failed = 0
    item = 0
    start = perf_counter()
    while True:
        for _ in range(wl.pass_size):
            if not trace:
                cal.measure()
            t0 = perf_counter()
            result = wl.run(item, tracer)
            spans.append((t0, perf_counter()))
            ok = result.ok
            ref_id = wl.input_id(item)
            if reference is not None and ref_id < len(reference):
                ok = ok and reference[ref_id] == result.fingerprint
            if not ok:
                failed += 1
                print(f"item {item}: failed the correctness gate", file=sys.stderr)
            item += 1
            if item == max_items:
                break
        if item == max_items:
            break
        if trace:
            if item >= TRACE_ITEMS:
                break
        # Stop at the pass boundary nearest to `seconds`, once MIN_ITEMS are done.
        elif (perf_counter() - start) * (1 + 0.5 * wl.pass_size / item) >= seconds \
                and item >= MIN_ITEMS:
            break

    if trace:
        metrics, raw = workloads.layer_metrics(tracer), {}
    else:
        cal.measure()
        metrics = latency_metrics(import_spans, setup_spans, spans, cal)
        raw = latency_metrics(import_spans, setup_spans, spans)
        for kernel in cal.kernels:
            raw[f"cal_{kernel}_ms"] = (1000 * cal.median_s(kernel), "ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {"attempted": item, "failed": failed, "metrics": metrics, "raw": raw,
            "spans": tracer.spans}


def latency_metrics(import_spans, setup_spans, item_spans, cal=None) -> dict:
    """End-to-end times from (start, end) spans, scaled by cal unless it is None."""
    def durations(spans):
        return [(e - s) * (cal.scale(s, e) if cal else 1) for s, e in spans]

    latencies = durations(item_spans)
    # One set-up is one import of the program plus one workload set-up.
    setups = [i + w for i, w in zip(durations(import_spans), durations(setup_spans))]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "item_p90_ms": (
            1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
    }


def write_trace(workload: str, seed: int, env: dict, result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    spans = [{"name": n, "item": i, "start": s, "end": e} for n, i, s, e in result["spans"]]
    path.write_text(json.dumps({"env": env, "spans": spans,
                                "metrics": result["metrics"]}) + "\n")
    return path


def main(argv=None, max_items: int | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "planted", "montecarlo"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    loadavg_start = os.getloadavg()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     max_items=max_items, reference=load_reference(args.workload, args.seed))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    env = environment(loadavg_start)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"trace {write_trace(args.workload, args.seed, env, result)}")
    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in result["raw"].items():
        print(f"raw_{name} {value} {unit}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value} {unit}")
    print(f"failed_fraction {failed / attempted} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
