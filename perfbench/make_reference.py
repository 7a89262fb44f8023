"""Write the stored reference outputs for one seed.

    python3 perfbench/make_reference.py --seed 7

runs every request of each workload's stream once, untraced, and writes
``perfbench/reference/seed<N>.json``, which the correctness gate compares
later runs of that seed against. Run it only when outputs are meant to
change, and say so in the change that updates the file.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args()
    if not run.use_checkout():
        return 2
    import gate
    import workloads

    stored = {}
    for name in run.WORKLOADS:
        workload = workloads.build(name, run.WORK / name, min(2, run.nproc()))
        workload.setup(args.seed, None)
        try:
            outcomes = [workload.request(i) for i in range(workload.stream_length())]
        finally:
            workload.close()
        problems = [p for o in outcomes for p in o.problems]
        if problems:
            print(f"{name}: {len(problems)} problem(s), first: {problems[0]}", file=sys.stderr)
            return 1
        records = [o.record for o in outcomes]
        stored[name] = records if name != "study" else records[0]
        print(f"{name}: {len(records)} request(s)", flush=True)
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    path = gate.REFERENCE_DIR / f"seed{args.seed}.json"
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
