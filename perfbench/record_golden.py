"""Record golden.json: the stdout SHA-256 and exit status of every workload
at each program seed 0..GOLDEN_SEEDS-1, at the workload's trial count.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are known to be right; a
change to the program that is meant to keep its outputs must leave this
file unchanged.
"""

import json
import os
import sys

import run


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    table = {}
    for name, wl in run.WORKLOADS.items():
        run.prepare(name)
        seeds = {}
        for seed in range(run.GOLDEN_SEEDS):
            sample = run.spawn(["run", *wl.argv(seed)])
            seeds[str(seed)] = {"sha256": sample.sha256, "exit": sample.code}
            print(name, seed, sample.code, sample.sha256, file=sys.stderr)
        table[name] = {"trials": wl.trials, "seeds": seeds}
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
