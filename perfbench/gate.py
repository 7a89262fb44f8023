"""Correctness gate behind `failed`.

Every seed gets structural checks: maps finite, in [0, 1] and of the
method's shape; AUCs in [0, 1]; report figures finite and in range. The
default seed is also compared with the reference outputs stored in
``reference/seed<N>.json``:

* saliency maps, through a 4x4 average-pooled summary plus the mean and
  the mean square, to within ``MAP_TOL`` absolute;
* insertion and deletion AUCs (fractions in [0, 1]) to within ``AUC_TOL``
  absolute, which leaves room for last-bit differences in pixel order
  between CPUs and none for a changed map;
* `report.json` and the `discover` payload value by value: integers,
  strings and therefore counts and top-1 picks exactly, floats to within
  ``REL_TOL`` relative (``ABS_TOL`` near zero).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MAP_TOL = 1e-6
AUC_TOL = 5e-4
REL_TOL = 1e-6
ABS_TOL = 1e-9
POOL = 4

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def map_summary(data: np.ndarray) -> list[float]:
    """POOL x POOL block means, then the mean and the mean square."""
    grid = np.asarray(data, dtype=np.float64)
    rows = np.array_split(np.arange(grid.shape[0]), POOL)
    cols = np.array_split(np.arange(grid.shape[1]), POOL)
    pooled = [float(grid[np.ix_(r, c)].mean()) for r in rows for c in cols]
    return pooled + [float(grid.mean()), float((grid * grid).mean())]


def check_map(data: np.ndarray, shape: tuple[int, int]) -> list[str]:
    grid = np.asarray(data)
    if grid.shape != tuple(shape):
        return [f"map shape {grid.shape}, expected {tuple(shape)}"]
    if not np.all(np.isfinite(grid)):
        return ["map has non-finite values"]
    if grid.min() < 0.0 or grid.max() > 1.0:
        return [f"map values span [{grid.min()}, {grid.max()}], outside [0, 1]"]
    return []


def check_auc(value: float) -> list[str]:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        return [f"AUC {value} outside [0, 1]"]
    return []


def _numbers(tree, path="") -> list[tuple[str, float]]:
    if isinstance(tree, dict):
        return [x for k, v in tree.items() for x in _numbers(v, f"{path}.{k}")]
    if isinstance(tree, list):
        return [x for k, v in enumerate(tree) for x in _numbers(v, f"{path}[{k}]")]
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return [(path, float(tree))]
    return []


def check_report(report: dict) -> list[str]:
    """Structure and ranges of a pipeline `report.json`."""
    problems = [f"report{p} is not finite" for p, v in _numbers(report) if not math.isfinite(v)]
    try:
        attr = report["attribute"]
        pct = [("map", attr["map"])] + [(f"top1.{k}", v) for k, v in attr["top1"].items()]
        for method, row in report["saliency"].items():
            pct += [(f"{method}.{k}", row[k]) for k in ("insertion_auc", "deletion_auc")]
        for k, v in attr["removal"].items():
            if v["n_used"] + v["n_skipped"] != report["counts"]["test_pairs"]:
                problems.append(f"removal.{k} accounts for {v['n_used'] + v['n_skipped']} pairs, "
                                f"not {report['counts']['test_pairs']}")
        phi = attr["phi"]
        test_pairs = report["counts"]["test_pairs"]
    except (KeyError, TypeError) as exc:
        return problems + [f"report lacks {exc}"]
    problems += [f"report {k} = {v} outside [0, 100]" for k, v in pct if not 0.0 <= v <= 100.0]
    if len(phi) != 3 or min(phi) < 0.0:
        problems.append(f"report phi {phi} is not three nonnegative weights")
    if test_pairs < 1:
        problems.append("report evaluated no test pairs")
    return problems


def check_discover(payload: dict) -> list[str]:
    try:
        k = payload["n_clusters"]
        clusters = [p["cluster"] for p in payload["patches"]]
        removal = payload["removal"]
    except (KeyError, TypeError) as exc:
        return [f"discover payload lacks {exc}"]
    problems = [f"patch cluster {c} outside [0, {k})" for c in clusters if not 0 <= c < k]
    if not clusters:
        problems.append("discover harvested no patches")
    problems += [f"discover removal.{name} is not finite" for name, v in removal.items()
                 if not math.isfinite(v["delta"])]
    return problems


def compare_values(got, want, path: str = "") -> list[str]:
    """Exact for ints, strings and structure; REL_TOL for floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [x for k in want for x in compare_values(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [x for k, (g, w) in enumerate(zip(got, want)) for x in compare_values(g, w, f"{path}[{k}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


def compare_request(got: dict, want: dict) -> list[str]:
    problems = [f"request is {got[k]!r}, reference {want[k]!r}"
                for k in ("pair", "method", "mode") if got[k] != want[k]]
    if problems:
        return problems
    diff = float(np.max(np.abs(np.subtract(got["map"], want["map"]))))
    if diff > MAP_TOL:
        problems.append(f"{got['pair']} {got['method']}: map summary differs by {diff:.3g}")
    for key in ("insertion_auc", "deletion_auc"):
        if abs(got[key] - want[key]) > AUC_TOL:
            problems.append(f"{got['pair']} {got['method']}: {key} {got[key]:.6f}, reference {want[key]:.6f}")
    return problems


def compare_session(got: dict, want: dict) -> list[str]:
    return (compare_values(got["report"], want["report"], "report")
            + compare_values(got["discover"], want["discover"], "discover"))


def load_reference(seed: int) -> dict | None:
    path = REFERENCE_DIR / f"seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
