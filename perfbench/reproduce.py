"""The default-size pipeline and the reproduction signal it carries.

    python3 perfbench/reproduce.py [--record FILE]

runs `simexplain pipeline --seed 7 --jobs 2` at default sizes (64 images,
about 80 s on one 2-core machine), checks that `report.json` is
byte-identical to the one this benchmark was built against, and prints
the figures the `study` workload tracks at reduced size: the full-ranking
top-1, its gap to confidence-only ranking, and the full-ranking removal
delta. The study workload runs the same commands on a smaller dataset so
that it fits a benchmark run; this script is the default-size check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import run

SEED = 7
REPORT_SHA256 = "8001fe81059b90ffdd1f87d03052a10546ed4d8734be02d0d6f182123f29187c"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", default=None,
                        help="merge the result into this trajectory file under 'reproduction'")
    args = parser.parse_args()
    if not run.use_checkout():
        return 2
    from simexplain import cli

    jobs = min(2, run.nproc())
    out = run.WORK / "reproduce"
    shutil.rmtree(out, ignore_errors=True)
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["pipeline", "--seed", str(SEED), "--jobs", str(jobs), "--out", str(out)])
    wall = perf_counter() - start
    if rc != 0:
        print(f"pipeline exited {rc}", file=sys.stderr)
        return 1
    report_bytes = (out / "report.json").read_bytes()
    report = json.loads(report_bytes)
    top1 = report["attribute"]["top1"]
    result = {
        "command": f"simexplain pipeline --seed {SEED} --jobs {jobs}",
        "pipeline_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
        "report_matches_reference": hashlib.sha256(report_bytes).hexdigest() == REPORT_SHA256,
        "top1_full_pct": top1["full"],
        "top1_confidence_only_pct": top1["confidence_only"],
        "top1_gap_pct": top1["full"] - top1["confidence_only"],
        "removal_delta_full": report["attribute"]["removal"]["full"]["delta"],
        "removal_delta_confidence_only": report["attribute"]["removal"]["confidence_only"]["delta"],
        "phi": report["attribute"]["phi"],
        "env": run.environment(SEED, jobs, "reproduce", 0, 0),
    }
    shutil.rmtree(out, ignore_errors=True)
    for key, value in result.items():
        print(f"{key}: {value}")
    if args.record:
        path = Path(args.record)
        tree = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        tree["reproduction"] = result
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if result["report_matches_reference"] else 1


if __name__ == "__main__":
    sys.exit(main())
