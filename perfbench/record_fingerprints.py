"""Record each workload's simulated fingerprint for the given seeds.

    python3 perfbench/record_fingerprints.py 0

Run from the root of a checkout.  A cell's fingerprint is its placement and
measurement swap-ins and write-backs, its three link ratios, and its node
and page counts.  A later change that means to keep the simulation as it is
must reproduce these exactly; one that means to change placement records
them again and says so.
"""
from __future__ import annotations

import json
import sys
import time

from run import HERE, BenchError, Runner, check_out_dir
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0]
    out = HERE / "out"
    check_out_dir(out)
    path = HERE / "fingerprints.json"
    table = json.loads(path.read_text())
    for name in WORKLOADS:
        for seed in seeds:
            runner = Runner(time.monotonic() + 3600)
            tag = f"{name}-seed{seed}-record"
            spec = {"workload": name, "seed": seed, "budget_s": 0,
                    "csv": str(out / f"{tag}.csv"), "expected": None}
            res = runner.sweep(spec, out / f"{tag}.json")
            if res["failed"]:
                raise BenchError(f"{name} seed {seed}: {res['notes']}")
            table.setdefault(name, {})[str(seed)] = res["fingerprint"]
            print(f"{name} seed {seed}: {len(res['fingerprint'])} cells", flush=True)
    path.write_text(dump(table))
    return 0


def dump(table: dict) -> str:
    """JSON with one cell per line, so that a diff shows which cells moved."""
    workloads = []
    for name, seeds in sorted(table.items()):
        entries = []
        for seed, cells in sorted(seeds.items(), key=lambda kv: int(kv[0])):
            rows = ",\n".join("   " + json.dumps(cell) for cell in cells)
            entries.append(f"  {json.dumps(seed)}: [\n{rows}\n  ]")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(entries) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
