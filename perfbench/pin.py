#!/usr/bin/env python3
"""Write perfbench/pins.json: the SHA-256 of each pinned op's output at this commit.

    python3 perfbench/pin.py

Run it from the root of the repository. A pin records today's draw layout;
criterion 3's frozen seeds are valid only for that layout, so rewrite the
pins only in a change that means to alter the outputs, and say so.
"""

import json
import os
import sys

import run

sys.path.insert(0, run.SRC)
import bench  # noqa: E402

# Workload seed and op count pinned per workload: all 475 catalog ops, and
# for the others the ops a seed-0 run reaches and more.
PINNED = {
    "verify_catalog": 475,
    "verify_negative": 200,
    "gof_null": 100,
    "cf_exact": 420,
}


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    digests = {}
    for name, count in PINNED.items():
        ops = bench.WORKLOADS[name].ops(0, run.OUT)
        result = bench.run_ops(ops, 0.0, 0, count, None)
        if result["failures"] or len(result["digests"]) != count:
            print(f"{name}: not pinned, {result['failures'][:5]}", file=sys.stderr)
            return 1
        digests[name] = result["digests"]
        print(f"{name}: {count} ops pinned in {result['wall_s']:.1f} s")
    with open(bench.PINS_PATH, "w") as handle:
        json.dump({"platform": bench.platform_key(), "digests": digests}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
