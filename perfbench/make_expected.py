"""Write expected.json: the headline output of every pool seed of every workload.

    python3 perfbench/make_expected.py

Run from the repository root, and only when a change to agvm deliberately
changes its numerics: the benchmark fails every unit whose headline output
(final loss, mean arm loss or max_rel_err) differs from the value written
here by more than workloads.TOLERANCE. Covers the full and the shortened
(self-check) sizes; takes about four minutes on a 2-core VM.
"""

import json
import os
import sys

import worker  # noqa: F401  (pins BLAS threads, puts ./src on the path)
import workloads


def main() -> int:
    out_dir = os.path.join(worker.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    expected = {}
    for smoke in (False, True):
        for name in workloads.NAMES:
            wl = workloads.make(name, smoke)
            values = {}
            for seed in range(wl.pool):
                values[str(seed)] = wl.run(seed, out_dir).value
            expected[wl.key] = values
            print(f"{wl.key}: {len(values)} seeds", file=sys.stderr, flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
