"""simexplain benchmark: closed-loop workloads, end-to-end and per-layer metrics.

One workload, as BENCHMARK.json names it:

    python3 perfbench/run.py --workload explain-fixed --seed 7 --seconds 15 --trace 0

prints every end-to-end metric by name and unit, then one JSON line with
`correct`, `attempted`, `failed` and `metrics`. `--trace 1` runs the same
workload with spans recorded from outside the library and reports the
per-layer metrics instead. Without `--workload` every workload runs
untraced and then traced for the seed, the tracing overhead is printed,
and `--record FILE` writes the results as a trajectory point. The exit
code is non-zero when the correctness gate fails.

Run it from anywhere; it benchmarks the library under ``src/`` next to
this directory and writes scratch files only under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Set before numpy loads, for the benchmark and the stub scorer it spawns.
# One BLAS/OpenMP thread each, so no run starts more threads than there are
# cores. No huge-page advice, so peak RSS does not depend on how many huge
# pages the host has free. The allocator is left as users get it; see the
# README for how glibc's heap layout moves peak RSS on explain-external.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED_ENV)

_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 15
SETUP_REPS = 3
WORKLOADS = ("explain-fixed", "explain-dual", "explain-external", "study")

# The bounded end-to-end metrics, name -> (unit, better), and the per-layer
# metrics of the JSON line come from BENCHMARK.json. The two bounded times
# are CPU seconds: steal time on a shared host stretches wall time but not
# CPU time, so over ten seeds wall-clock latency spread by up to 21% on
# explain-external, where it stretches the pipe handoffs, and wall set-up
# time drifted 23% between two batches of the same code.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])
# Figures every run prints and the trajectory records, without a bound.
UNBOUNDED = {
    "setup_wall_s": ("s", "lower"),
    "request_p50_s": ("s", "lower"),
    "request_tail_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "insertion_auc": ("pct", "higher"),
    "deletion_auc": ("pct", "lower"),
    "failed_frac": ("ratio", "lower"),
    "pipeline_s": ("s", "lower"),
    "discover_s": ("s", "lower"),
    "top1_full_pct": ("pct", "higher"),
    "top1_gap_pct": ("pct", "higher"),
    "removal_delta_full": ("x100", "higher"),
}
OVERHEAD = (*END_TO_END, "setup_wall_s", "request_p50_s", "request_tail_s", "requests_per_s")
STUDY_ONLY = ("pipeline_s", "discover_s", "top1_full_pct", "top1_gap_pct", "removal_delta_full")


def boot_seconds() -> float:
    """Wall seconds from process creation to now (Linux), else since this
    module started executing."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(uptime - started, perf_counter() - _START)
    except (OSError, ValueError, IndexError):
        return perf_counter() - _START


def environment(seed: int, jobs: int, workload: str | None, seconds: int, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "nproc": nproc(),
        "jobs": jobs,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    }


def use_checkout() -> bool:
    """Import simexplain from ``src/`` of this checkout, and make child
    processes do the same; False, with a message, when it is not there."""
    if not (SRC / "simexplain" / "__init__.py").is_file():
        print(f"error: no simexplain sources under {SRC}; run from a full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import simexplain

    if Path(simexplain.__file__).resolve().parent != SRC / "simexplain":
        print(f"error: imported simexplain from {simexplain.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten samples beyond it; with fewer
    than 20 samples that is no tail at all, so the maximum is used."""
    if n < 20:
        return 100
    return math.floor(100 * (n - 10) / n)


def stratified(outcomes, q: float, field: str = "seconds") -> float:
    """Mean over latency strata (methods) of each stratum's q-quantile.

    Request costs differ by up to 4x between methods, so a pooled quantile
    of a few dozen requests falls on the gap between two methods and jumps
    between runs; a per-method quantile does not.
    """
    import numpy as np

    strata: dict[str, list[float]] = {}
    for o in outcomes:
        strata.setdefault(o.label, []).append(getattr(o, field))
    return float(np.mean([np.quantile(v, q) for v in strata.values()]))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import gate
    import workloads
    from tracing import Patches, Tracer

    boot, boot_cpu = boot_seconds(), sum(os.times()[:2])
    jobs = min(2, nproc())
    env = environment(seed, jobs, name, seconds, int(trace))
    workdir = WORK / name
    tracer = Tracer() if trace else None
    patches = Patches(tracer).install() if trace else None
    workload = workloads.build(name, workdir, jobs)

    def send(index: int, request_id):
        if tracer is None:
            return workload.request(index)
        tracer.request = request_id
        return tracer.call("client.request", workload.request, (index,))

    try:
        setups, setups_cpu = [], []
        reps = SETUP_REPS if name != "study" else 1
        for k in range(reps):
            if tracer is not None:
                tracer.request = ("setup", k)
            start, start_cpu = perf_counter(), workloads.cpu_seconds()
            workload.setup(seed, tracer)
            setups.append(perf_counter() - start)
            setups_cpu.append(workloads.cpu_seconds() - start_cpu)
        warm = send(0, "warmup")
        outcomes = []
        start = perf_counter()
        while len(outcomes) % workload.round_len or perf_counter() - start < seconds:
            outcomes.append(send(len(outcomes), len(outcomes)))
        elapsed = perf_counter() - start
    finally:
        workload.close()
        if patches is not None:
            patches.undo()

    reference = (gate.load_reference(seed) or {}).get(name)
    for o in [warm, *outcomes]:
        if reference is not None and o.ok:
            o.problems += workload.reference_problems(o, reference)
    everything = [warm, *outcomes]
    failed = [o for o in everything if not o.ok]
    good = [o for o in outcomes if o.ok] or outcomes

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "explain-external":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pct = tail_percentile(len(good))
    strata = len({o.label for o in good})
    child = " with the stub scorer" if name == "explain-external" else ""
    figures = {  # name -> (value, note)
        "setup_s": (boot_cpu + statistics.median(setups_cpu) + warm.cpu,
                    f"CPU seconds{child}: boot+imports {boot_cpu:.3f}, median of {reps} set-up(s) "
                    f"{statistics.median(setups_cpu):.3f}, warm-up request {warm.cpu:.3f}"),
        "request_cpu_s": (stratified(good, 0.5, "cpu"),
                          f"CPU seconds per request{child}, p50, n={len(good)}, mean over {strata} method strata"),
        "peak_rss_mb": (peak_kb / 1024, f"max RSS of this process{child}"),
        "setup_wall_s": (boot + statistics.median(setups) + warm.seconds,
                         f"wall: boot+imports {boot:.3f} s, median set-up {statistics.median(setups):.3f} s, "
                         f"warm-up request {warm.seconds:.3f} s"),
        "request_p50_s": (stratified(good, 0.5), f"wall, p50, n={len(good)}, mean over method strata"),
        "request_tail_s": (stratified(good, pct / 100), f"wall, p{pct}, n={len(good)}, mean over method strata"),
        "requests_per_s": (len(outcomes) / elapsed, f"{len(outcomes)} requests in {elapsed:.3f} s"),
        "insertion_auc": (statistics.fmean(o.values.get("insertion_auc", math.nan) for o in good),
                          "mean x100 over the measured requests"),
        "deletion_auc": (statistics.fmean(o.values.get("deletion_auc", math.nan) for o in good),
                         "mean x100 over the measured requests"),
        "failed_frac": (len(failed) / len(everything),
                        f"{len(failed)} of {len(everything)} requests failed, the warm-up included"),
    }
    if name == "study":
        for key in STUDY_ONLY:
            figures[key] = (statistics.median(o.values.get(key, math.nan) for o in good),
                            f"median over {len(good)} sessions")

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  closed loop, one client")
    print("env: " + json.dumps(env, sort_keys=True))
    for key, (value, note) in figures.items():
        unit, better = END_TO_END.get(key) or UNBOUNDED[key]
        bound = "" if key in END_TO_END else "; not bounded"
        print(f"{key:<20} {value:14.6f} {unit:<5} ({better} is better; {note}{bound})")
    for label in sorted({o.label for o in good}):
        times = [o.seconds for o in good if o.label == label]
        cpu = [o.cpu for o in good if o.label == label]
        print(f"  {label:<26} n={len(times):<4} wall p50 {statistics.median(times):.4f} s  "
              f"max {max(times):.4f} s  cpu p50 {statistics.median(cpu):.4f} s")
    for o in failed[:10]:
        print(f"FAILED request {o.index} ({o.label}): {'; '.join(o.problems)[:500]}")
    print("end_to_end: " + json.dumps({k: v for k, (v, _) in figures.items()}, sort_keys=True))
    if reference is None:
        print(f"gate: structural checks only (no stored reference for seed {seed})")
    else:
        print(f"gate: structural checks and the stored reference for seed {seed}")

    if trace:
        import layers

        measured = {o.index for o in outcomes}
        table = layers.summarize(tracer.spans, measured, workload.layer_context(good))
        table["trace.request_p50_s"] = (figures["request_p50_s"][0], "s")
        for key, (value, unit) in table.items():
            print(f"  {key:<44} {value:14.6f} {unit}")
        print("per_layer: " + json.dumps({k: v for k, (v, _) in table.items()}, sort_keys=True))
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"{name}-seed{seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {k: {"value": table[k][0], "unit": table[k][1]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": figures[k][0], "unit": unit} for k, (unit, _) in END_TO_END.items()}

    result = {"correct": not failed, "attempted": len(everything), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failed else 1


def run_suite(seed: int, seconds: int, record: str | None) -> int:
    """Every workload untraced, then traced; prints the tracing overhead."""
    results = {}
    status = 0
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                status = 1
            tagged = {x.split(": ", 1)[0]: x.split(": ", 1)[1] for x in lines
                      if x.startswith(("env: ", "end_to_end: ", "per_layer: "))}
            try:
                parsed = {key: json.loads(text) for key, text in tagged.items()}
                parsed.update(json.loads(lines[-1]))
            except (IndexError, json.JSONDecodeError):
                status = 1
                continue
            if "end_to_end" not in parsed:
                status = 1
                continue
            results[name]["traced" if trace else "untraced"] = parsed
        runs = results[name]
        if "untraced" in runs and "traced" in runs:
            print(f"tracing overhead on {name} (traced minus untraced):")
            for key in OVERHEAD:
                a, b = runs["untraced"]["end_to_end"][key], runs["traced"]["end_to_end"][key]
                share = f"{(b - a) / a:+.1%}" if a else "n/a"
                print(f"  {key:<20} {a:12.6f} -> {b:12.6f}  ({share})")
            runs["tracing_overhead"] = {k: runs["traced"]["end_to_end"][k] - runs["untraced"]["end_to_end"][k]
                                        for k in OVERHEAD}
    if record:
        path = Path(record)
        tree = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        tree.update(seed=seed, seconds=seconds, workloads=results)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload; without it every workload runs untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="suite mode: write the results to this JSON file")
    args = parser.parse_args(argv)

    if not use_checkout():
        return 2
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.record)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
