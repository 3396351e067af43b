"""agvm benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train-b256-sgd --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the repository root; agvm is imported from ./src. Each workload
runs in its own process with BLAS pinned to one thread (worker.py). With
--trace 0 the run first times agvm's set-up in fresh processes, then runs
the workload for --seconds and reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced run instead (see
tracing.py). The lines before the last describe the run and its machine;
the last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Outputs that fail a check count as failed units; one check is
that each unit's headline output matches its value in expected.json
(see workloads.py), so result_value cannot drift in either direction.

Timings are taken on a shared virtual machine, where other tenants' load
cannot be ruled out from inside. Each time is therefore scaled by a
machine-speed calibration timed next to it in the same process (see
worker.py); the unscaled wall-clock medians are printed too. The 1-minute
load average is recorded at the start and end of each run, and a run that
starts under other load is flagged.

Self-check of the benchmark itself: python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing  # imports neither numpy nor agvm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("train-b256-sgd", "train-b2048-adamw", "ablate-b256", "oracle")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("samples_per_s", "samples/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("result_value", "value"),
)

# What result_value is on each workload: the median over the run's distinct
# inputs of the workload's headline output.
RESULT_NAMES = {
    "train-b256-sgd": ("final_loss", "loss"),
    "train-b2048-adamw": ("final_loss", "loss"),
    "ablate-b256": ("mean_arm_final_loss", "loss"),
    "oracle": ("oracle_max_rel_err", "ratio"),
}

SETUP_PROBES = 6        # fresh set-up-only processes per run, besides the worker's own
DEADLINE_S = 170.0      # every run ends well inside 180 s
LOADED = 0.25           # flag a run whose load beyond one busy core, per core, exceeds this


class BenchError(RuntimeError):
    """The benchmark could not run or read the program."""


def _loadavg() -> float:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return float("nan")


def _child(args: list, deadline: float) -> dict:
    """Run worker.py with ``args``; return the JSON on its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("no time left before the deadline")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker {' '.join(args)} printed no result") from exc


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool,
                 deadline: float) -> dict:
    """One workload run: set-up probes (untraced only), then the worker."""
    base = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load_start = _loadavg()
    probes = []
    if not trace:
        _child(base + ["--setup-only"], deadline)     # untimed: fills the bytecode cache
        probes = [_child(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    out = _child(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    load_end = _loadavg()
    machine = dict(out.get("machine", {}), cores=cores, cpu_count=os.cpu_count(),
                   python=platform.python_version(), platform=platform.platform(),
                   loadavg_start=load_start, loadavg_end=load_end,
                   loaded=(load_start - 1.0) / cores > LOADED)
    metrics = dict(out["metrics"])
    if not trace and metrics:
        probes.append(out)
        setups = [p["setup_s"] for p in probes]
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = out["peak_rss_mb"]
        metrics["ok_frac"] = 1.0 - out["failed"] / out["attempted"]
    return {"name": name, "correct": bool(out["correct"]), "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics, "machine": machine,
            "unit_seconds": out.get("unit_seconds", []),
            "wall_run_s": out.get("wall_run_s"), "setups": [p["setup_s"] for p in probes],
            "wall_setups": [p["wall_setup_s"] for p in probes]}


def _units(trace: int) -> dict:
    if trace:
        return dict(tracing.PER_LAYER)
    return dict(END_TO_END)


def report(res: dict, trace: int):
    """Print one workload's metrics by name and unit, then its machine."""
    units = _units(trace)
    print(f"workload {res['name']}: {res['attempted']} units attempted, "
          f"{res['failed']} failed, correct={res['correct']}")
    if res["machine"]["loaded"]:
        print(f"  warning: load average {res['machine']['loadavg_start']} at start on "
              f"{res['machine']['cores']} cores; other work was running")
    for metric, unit in units.items():
        if metric in res["metrics"]:
            print(f"  {metric:32s} {res['metrics'][metric]:.6g} {unit}")
    if not trace and res["metrics"]:
        m = res["metrics"]
        times = sorted(res["unit_seconds"])
        print(f"  run_s over {len(times)} units: min {times[0]:.4f}  max {times[-1]:.4f} s; "
              f"setup_s over {len(res['setups'])} processes: "
              f"min {min(res['setups']):.4f}  max {max(res['setups']):.4f} s")
        print(f"  unscaled wall time: run_s {res['wall_run_s']:.4f} s, "
              f"setup_s {statistics.median(res['wall_setups']):.4f} s (medians)")
        print(f"  {'failed_frac':32s} {1.0 - m['ok_frac']:.6g} ratio")
        label, unit = RESULT_NAMES[res["name"]]
        print(f"  {label:32s} {m['result_value']:.6g} {unit} (result_value)")
    print(f"  machine {json.dumps(res['machine'], sort_keys=True)}")


def _parse(argv):
    p = argparse.ArgumentParser(description="agvm benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="shortened workloads, for the benchmark's own self-check")
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in [1, 60]")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "agvm", "__init__.py")):
        print(f"error: no agvm sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(name, args.seed, args.seconds, args.trace,
                                        args.smoke, deadline))
            report(results[-1], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if any(not r["metrics"] for r in results):
        print("error: no unit completed", file=sys.stderr)
        return 1
    units = _units(args.trace)
    prefix = len(results) > 1
    metrics = {(f"{r['name']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
               for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
