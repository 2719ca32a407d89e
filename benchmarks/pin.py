"""Rewrite one workload's entries in pinned.json: the sha256 of every output
file, per seed.

    python3 benchmarks/pin.py WORKLOAD FIRST_SEED LAST_SEED

Run from the repository root, only when an output format or input generator
change is intended. A seed is pinned only if its outputs pass every property
check in workloads.py; run.py then requires the same bytes at that seed.
"""

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    workload, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    pinned = json.loads(run.PINNED.read_text(encoding="utf-8")) if run.PINNED.exists() else {}
    hashes: dict[str, dict[str, str]] = {}
    for seed in range(first, last + 1):
        work = root / ".bench_work" / f"pin-{workload}-seed{seed}"
        try:
            bench = run.Bench(workload, seed, root, work, run.split_cpus(), None)
            bench.pinned = {}
            inv = bench.invoke(bench.inputs.argv)
            bench.check_reference(inv)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        problems = inv.problems + bench.problems
        if problems:
            print(f"{workload} seed {seed}: not pinned: {problems}", file=sys.stderr)
            return 1
        hashes[str(seed)] = inv.hashes
        print(f"{workload} seed {seed}: {inv.hashes}")
    pinned[workload] = hashes
    run.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
