#!/usr/bin/env python
"""Label DS operating points and compare the labels of two checkouts.

Each run is ``generate_dataset(case, rows, seed, jobs=1)`` on a bundled
feeder, as the acceptance gates and perfbench's ds-labelling workload call
it.  Each run prints one JSON line with its case, seed and row count, the
wall time of the call, the labels as a string of 0/1 and the PCC flows in MW
and MVAr (null on infeasible rows):

    python scripts/label_parity.py --runs ds1:42:20000 ds2:42:100000 ds3:43:100000 > a.jsonl
    python scripts/label_parity.py --perfbench-seeds 1611-1615 --ops 4 > a.jsonl
    python scripts/label_parity.py --diff a.jsonl b.jsonl

--perfbench-seeds labels what the ds-labelling workload labels in its first
--ops operations of each seed.  gridveil is imported from this checkout's
src/.  --diff reads two such outputs and prints, per run, the rows whose
label changed, the largest PCC-flow difference over the rows feasible in
both and the two wall times; it exits 1 when a label changed or a run is in
one output only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gridveil import netmodel, sampling  # noqa: E402
from workloads import FEEDERS, LABEL_ROWS, derived_seed  # noqa: E402


def seed_list(text: str) -> list[int]:
    """'1611-1615' or '5' -> seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_spec(text: str) -> tuple[str, int, int]:
    """'ds2:42:100000' -> (case, seed, rows)."""
    case, seed, rows = text.split(":")
    return case, int(seed), int(rows)


def flows(a: np.ndarray) -> list:
    return [[None if np.isnan(v) else float(v) for v in row] for row in a]


def label_run(case: str, seed: int, rows: int) -> dict:
    net = netmodel.bundled_case(case)
    t0 = time.perf_counter()
    ds = sampling.generate_dataset(net, rows, seed=seed, jobs=1)
    seconds = time.perf_counter() - t0
    return {
        "case": case,
        "seed": seed,
        "rows": rows,
        "seconds": round(seconds, 3),
        "label": "".join(map(str, ds.label)),
        "p_pcc": flows(ds.p_pcc),
        "q_pcc": flows(ds.q_pcc),
    }


def read_run(path: str) -> dict:
    """(case, seed, rows) -> record of one output of this script."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["case"], r["seed"], r["rows"]): r for r in records}


def flow_diff(a: list, b: list, both: np.ndarray) -> float:
    """Largest |a - b| over the rows feasible in both runs."""
    if not both.any():
        return 0.0
    a = np.array([a[i] for i in np.flatnonzero(both)], dtype=float)
    b = np.array([b[i] for i in np.flatnonzero(both)], dtype=float)
    return float(np.max(np.abs(a - b)))


def diff_runs(path_a: str, path_b: str) -> int:
    """Print the changes between two outputs; 1 if a label changed."""
    run_a, run_b = read_run(path_a), read_run(path_b)
    changed = 0
    for key in sorted(run_a.keys() ^ run_b.keys()):
        print(f"{key}: in {path_a if key in run_a else path_b} only")
        changed += 1
    worst = 0.0
    for key in sorted(run_a.keys() & run_b.keys()):
        a, b = run_a[key], run_b[key]
        la = np.frombuffer(a["label"].encode(), dtype=np.uint8)
        lb = np.frombuffer(b["label"].encode(), dtype=np.uint8)
        moved = np.flatnonzero(la != lb)
        both = (la == ord("0")) & (lb == ord("0"))
        gap = max(flow_diff(a[f], b[f], both) for f in ("p_pcc", "q_pcc"))
        worst = max(worst, gap)
        print(
            f"{key[0]} seed {key[1]} rows {key[2]}: {moved.size} label changes, "
            f"largest PCC-flow difference {gap:.3g}, {a['seconds']:.2f} s -> {b['seconds']:.2f} s"
        )
        if moved.size:
            print(f"  changed rows: {moved[:20].tolist()}{' ...' if moved.size > 20 else ''}")
            changed += 1
    print(f"{len(run_a.keys() & run_b.keys())} runs in both outputs, {changed} changed")
    print(f"largest PCC-flow difference over all runs: {worst:.3g}")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--runs", nargs="+", type=run_spec, help="case:seed:rows, e.g. ds2:42:100000")
    src.add_argument("--perfbench-seeds", type=seed_list, help="e.g. 1611-1615 or 5")
    src.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two outputs")
    ap.add_argument("--ops", type=int, default=4, help="operations per seed with --perfbench-seeds")
    args = ap.parse_args(argv)
    if args.diff:
        return diff_runs(*args.diff)
    runs = args.runs or [
        (name, derived_seed(seed, k, i), LABEL_ROWS)
        for seed in args.perfbench_seeds
        for k in range(args.ops)
        for i, name in enumerate(FEEDERS)
    ]
    for run in runs:
        print(json.dumps(label_run(*run)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
