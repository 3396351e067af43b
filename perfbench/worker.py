"""One benchmark process: set up one workload, run it, print one JSON line.

Started by run.py, one process per workload run, never by hand. The clock
for ``setup_s`` starts before numpy and agvm are imported, and BLAS is
pinned to one thread before numpy loads.

    --setup-only   time the set-up alone and exit
    --trace 0      run units until --seconds pass, cycling through the
                   distinct inputs and repeating the first one, so every
                   input's output is compared with a same-input rerun
    --trace 1      run the first input untraced, then traced, and report
                   per-layer metrics and the tracing overhead

Every reported time is in reference seconds: the measured wall time times
CALIBRATION_ROUND_S over the time one round of ``calibrate`` took just
before and after it in the same process. On a shared 2-core VM, other
tenants slowed the machine by up to a third for minutes at a time; the
calibration loop slows with it, so the ratio cancels most of that drift
while staying blind to the program (it never calls agvm).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports agvm)


def _parse(argv):
    p = argparse.ArgumentParser(description="one agvm benchmark process")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def machine() -> dict:
    """What this process ran on: numpy, its BLAS and the thread settings."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "agvm": getattr(workloads.agvm, "__version__", "unknown"),
    }


CALIBRATION_ROUND_S = 0.88e-3   # median round of calibrate() on a 2-core Xeon VM, OpenBLAS
CALIBRATION_SHARE = 0.04        # calibrate for this share of a unit's time, each side
CALIBRATION_MIN_S = 0.025


def calibrate(seconds: float) -> float:
    """Wall time per round of a fixed numpy loop run for about ``seconds``.

    A round is five ops on [2048, 32] float64 arrays, like agvm's tape
    operations at large batch. Arrays of this size tracked the machine's
    slow phases better than [256, 32] ones on every workload, small-batch
    ones included.
    """
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2048, 32))
    w = rng.normal(size=(32, 32))
    b = rng.normal(size=32)
    rounds = max(1, int(max(seconds, CALIBRATION_MIN_S) / CALIBRATION_ROUND_S))
    start = time.perf_counter()
    for _ in range(rounds):
        h = x @ w
        h = h + b
        h = np.where(h > 0, h, 0.0)
        h.T @ x
        np.dot(h.ravel(), h.ravel())
    return (time.perf_counter() - start) / rounds


def reference_seconds(seconds: float, round_s: float) -> float:
    return seconds * CALIBRATION_ROUND_S / round_s


def _attempt(wl, seed, out_dir, digests, tracer=None, last_s=0.0):
    """Run one unit between two calibrations; returns (Unit or None, problems).

    ``last_s``, the previous unit's wall time, sets how long to calibrate.
    """
    share = CALIBRATION_SHARE * last_s
    try:
        before = calibrate(share)
        if tracer is None:
            unit = wl.run(seed, out_dir)
        else:
            with tracing.installed(tracer):
                unit = wl.run(seed, out_dir)
        round_s = (before + calibrate(share)) / 2
    except Exception:
        traceback.print_exc()
        return None, ["raised an exception"]
    unit.reference_seconds = reference_seconds(unit.seconds, round_s)
    problems = list(unit.problems) + wl.expected_problems(seed, unit.value)
    silent = [] if tracer is None else tracing.silent_spans(tracer, wl.spans)
    if silent:
        problems.append(f"traced spans recorded no call: {', '.join(silent)}")
    first = digests.setdefault(seed, unit.digest)
    if first != unit.digest:
        problems.append(f"outputs differ from an earlier run on input seed {seed}")
    for problem in problems:
        print(f"{wl.name} seed {seed}: {problem}", file=sys.stderr)
    return unit, problems


def timed_run(wl, seeds, seconds, out_dir) -> dict:
    start = time.perf_counter()
    units, failed, attempted, values = [], 0, 0, {}
    digests = {}
    last_s = 0.0
    while attempted <= len(seeds) or time.perf_counter() - start < seconds:
        seed = seeds[attempted % len(seeds)]
        unit, problems = _attempt(wl, seed, out_dir, digests, last_s=last_s)
        attempted += 1
        failed += bool(problems)
        if unit is not None:
            units.append(unit)
            values.setdefault(seed, unit.value)
            last_s = unit.seconds
    if not units:
        return {"attempted": attempted, "failed": failed, "correct": False, "metrics": {}}
    run_problems = wl.run_problems(list(values.values()))
    for problem in run_problems:
        print(f"{wl.name}: {problem}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not run_problems,
        "unit_seconds": [u.reference_seconds for u in units],
        "wall_run_s": statistics.median(u.seconds for u in units),
        "metrics": {
            "run_s": statistics.median(u.reference_seconds for u in units),
            "samples_per_s": statistics.median(u.samples / u.reference_seconds for u in units),
            "result_value": statistics.median(values.values()),
        },
    }


def traced_run(wl, seeds, seconds, out_dir) -> dict:
    start = time.perf_counter()
    seed = seeds[0]
    digests = {}
    plain, traced, layers = [], [], []
    attempted = failed = 0
    last = None
    last_s = 0.0
    while len(plain) < 2 or time.perf_counter() - start < 0.4 * seconds:
        unit, problems = _attempt(wl, seed, out_dir, digests, last_s=last_s)
        attempted += 1
        failed += bool(problems)
        if unit is None:
            break
        plain.append(unit)
        last_s = unit.seconds
    while plain and (len(traced) < 2 or time.perf_counter() - start < seconds):
        last = tracing.Tracer()
        unit, problems = _attempt(wl, seed, out_dir, digests, tracer=last, last_s=last_s)
        attempted += 1
        failed += bool(problems)
        if unit is None:
            break
        traced.append(unit)
        last_s = unit.seconds
        layers.append(last.metrics(unit.iterations))
    correct = failed == 0 and len(traced) >= 2
    for name in tracing.COUNT_METRICS:
        seen = {layer[name] for layer in layers}
        if len(seen) > 1:
            print(f"{wl.name}: count {name} differs between traced runs: {sorted(seen)}",
                  file=sys.stderr)
            correct = False
    if not layers:
        return {"attempted": attempted, "failed": failed, "correct": False, "metrics": {}}
    last.write(os.path.join(out_dir, f"spans-{wl.name}.csv"))
    metrics = {name: statistics.fmean(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.run_s"] = statistics.median(u.reference_seconds for u in traced)
    metrics["trace.untraced_run_s"] = statistics.median(u.reference_seconds for u in plain)
    metrics["trace.overhead_ratio"] = metrics["trace.run_s"] / metrics["trace.untraced_run_s"]
    return {"attempted": attempted, "failed": failed, "correct": correct, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if os.path.dirname(os.path.abspath(workloads.agvm.__file__)) != os.path.join(SRC, "agvm"):
        print(f"error: agvm was imported from {workloads.agvm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.smoke)
    seeds = wl.input_seeds(args.seed)
    wl.build(seeds[0])
    wall_setup_s = time.perf_counter() - _START
    setup_s = reference_seconds(wall_setup_s, calibrate(CALIBRATION_MIN_S))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    run = traced_run if args.trace else timed_run
    result = run(wl, seeds, args.seconds, out_dir)
    result["setup_s"] = setup_s
    result["wall_setup_s"] = wall_setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
