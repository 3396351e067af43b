"""Fast self-check of the benchmark itself, in well under a minute.

    python3 perfbench/selfcheck.py

It checks that
- BENCHMARK.json lists exactly the workloads and metrics the code reports;
- a shortened run of every workload, untraced and traced, passes its output
  checks and prints every metric of its kind, the end-to-end ones non-zero;
- the exact counts repeat across two traced runs, and on train-b256-sgd
  match the seed model: 52 tape ops and 4 head evaluations per forward;
- the output checks reject failing outputs, an output that differs from its
  committed expected value in either direction, and a rerun whose outputs
  differ from the first run on the same input;
- expected.json covers every pool seed;
- a traced name that is gone, or a required span that records no call,
  fails the traced run;
- run.py exits non-zero without printing a result where there are no agvm
  sources.
Exits 0 when all hold, 1 otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402  (pins BLAS threads, imports agvm)
import workloads  # noqa: E402

FAILURES = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None), proc


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
          "every workload's why is one line of at most 200 characters")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
          "BENCHMARK.json per_layer matches tracing.PER_LAYER")


def check_output_checks():
    check(workloads.train_problems({"status": "ok", "final_loss": 0.02}) == [],
          "train check passes a finished run")
    check(workloads.train_problems({"status": "NaN", "final_loss": 0.02}) != [],
          "train check rejects status NaN")
    check(workloads.train_problems({"status": "ok", "final_loss": math.inf}) != [],
          "train check rejects a non-finite final_loss")
    arms = {f"arm{i}": {"status": "ok", "phi_gap": 0.5} for i in range(6)}
    check(workloads.ablate_problems(arms) == [], "ablate check passes six finite arms")
    check(workloads.ablate_problems(dict(list(arms.items())[:5])) != [],
          "ablate check rejects a missing arm")
    check(workloads.ablate_problems(dict(arms, arm0={"status": "ok", "phi_gap": math.nan})) != [],
          "ablate check rejects a non-finite phi_gap")
    check(workloads.oracle_problems({"max_rel_err": 0.1}, 5) == [], "oracle check passes 0.1")
    check(workloads.oracle_problems({"max_rel_err": 0.17}, 5) == [],
          "oracle check passes 0.17 on a seed other than 0")
    check(workloads.oracle_problems({"max_rel_err": 0.17}, 0) != [],
          "oracle check rejects 0.17 on seed 0 (acceptance criterion 3)")
    check(workloads.oracle_problems({"max_rel_err": 0.25}, 5) != [], "oracle check rejects 0.25")
    check(workloads.oracle_problems({"max_rel_err": math.nan}, 5) != [],
          "oracle check rejects NaN")
    check(workloads.Oracle.run_problems([0.12, 0.13, 0.1]) != [],
          "oracle run check rejects a median above 0.11")
    check(workloads.make("oracle").input_seeds(7)[0] == 0, "every oracle run checks seed 0")

    wl = workloads.Workload("train-b256-sgd", "test", pool=2, distinct=1)
    wl.expected = {"0": 0.5}
    check(wl.expected_problems(0, 0.5) == [], "expected-output check passes an equal output")
    check(wl.expected_problems(0, 0.5 * (1 + 1e-3)) != []
          and wl.expected_problems(0, 0.5 * (1 - 1e-3)) != [],
          "expected-output check rejects a changed output in either direction")
    check(wl.expected_problems(1, 0.5) != [], "expected-output check rejects an unknown seed")

    class Flaky:
        name = "flaky"
        calls = 0

        def run(self, seed, out_dir):
            Flaky.calls += 1
            return workloads.Unit(1.0, 1, 1, 0.0, f"digest{Flaky.calls}")

        @staticmethod
        def expected_problems(seed, value):
            return []

    digests = {}
    _, first = worker._attempt(Flaky(), 0, ROOT, digests)
    _, second = worker._attempt(Flaky(), 0, ROOT, digests)
    check(first == [] and second != [], "a same-input rerun with other outputs fails")


def check_expected_file():
    expected = workloads.load_expected()
    for smoke in (False, True):
        for name in run.WORKLOADS:
            wl = workloads.make(name, smoke)
            check(sorted(expected.get(wl.key, {}), key=int) == [str(s) for s in range(wl.pool)],
                  f"expected.json holds every pool seed of {wl.key}")


def check_missing_trace_target():
    from agvm import harness
    real = tracing._targets
    gone = real() + [(harness, "no_such_function", "harness", None, None)]
    tracing._targets = lambda: gone
    try:
        try:
            with tracing.installed(tracing.Tracer()):
                pass
            raised = False
        except tracing.MissingTarget:
            raised = True
        wrapped = hasattr(harness.run_experiment, "__wrapped__")
        wl = workloads.make("oracle", smoke=True)
        unit, problems = worker._attempt(wl, 0, ROOT, {}, tracer=tracing.Tracer())
    finally:
        tracing._targets = real
    check(raised and not wrapped, "a missing traced name raises before anything is wrapped")
    check(unit is None and problems != [], "a traced unit with a missing traced name fails")
    wl.spans = wl.spans + ("tensor.relu",)
    unit, problems = worker._attempt(wl, 0, ROOT, {}, tracer=tracing.Tracer())
    check(any("tensor.relu" in p for p in problems),
          "a traced unit whose required span records no call fails")


def check_workloads():
    for name in run.WORKLOADS:
        code, res, proc = bench(name, 0)
        check(code == 0 and res["correct"] and res["failed"] == 0,
              f"{name}: shortened run passes its output checks")
        if res is None:
            print(proc.stderr[-2000:])
            continue
        got = res["metrics"]
        check(sorted(got) == sorted(n for n, _ in run.END_TO_END)
              and all(v["value"] > 0 for v in got.values()),
              f"{name}: every end-to-end metric reported, none zero")
        counts = []
        for _ in range(2):
            code, res, proc = bench(name, 1)
            check(code == 0 and res["correct"], f"{name}: traced run passes its checks")
            if res is None:
                print(proc.stderr[-2000:])
                continue
            check(sorted(res["metrics"]) == sorted(n for n, _ in tracing.PER_LAYER),
                  f"{name}: every per-layer metric reported")
            counts.append({k: res["metrics"][k]["value"] for k in tracing.COUNT_METRICS})
        check(len(counts) == 2 and counts[0] == counts[1],
              f"{name}: exact counts repeat across traced runs")
        if name == "train-b256-sgd" and counts:
            check(counts[0]["tensor.ops_per_forward"] == 52
                  and counts[0]["models.head_evals_per_forward"] == 4,
                  f"{name}: 52 ops and 4 head evaluations per forward")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, _, proc = bench("oracle", 0, cwd=bare)
    check(code != 0 and not proc.stdout.strip(),
          "without agvm sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_spec()
    check_output_checks()
    check_expected_file()
    check_missing_trace_target()
    check_bare_directory()
    check_workloads()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
