#!/usr/bin/env python
"""Print the outcome of every OPF solve of a series of paired trials.

Each trial is one tso-dispatch operation of perfbench (``Dispatch.op``): the
standard AC-OPF on the integrated network with its DG charts, the
privacy-preserving OPF against the bundles, and the verification re-solve.
Each trial prints one JSON line with the status, iteration count and
objective of the three solves, and the verification's ``feasible_true`` and
``pcc_flow_error``, so runs of two checkouts can be compared:

    python scripts/solver_parity.py --perfbench-seeds 601-610 --trials 5 > a.jsonl
    python scripts/solver_parity.py --bundles b1.json b2.json b3.json --seed 5 --trials 10
    python scripts/solver_parity.py --diff a.jsonl b.jsonl

--perfbench-seeds rebuilds the bundles of the tso-dispatch workload for each
seed.  --bundles takes exported bundles for ds1-ds3 with the bundled cases
instead.  Either way, trial k draws the costs the workload draws for
operation k of the seed.  gridveil is imported from this checkout's src/.
--diff reads two such outputs and prints every status or iteration change of
a solve, then, per solve kind, the largest relative difference of the
objective and of the verification's pcc_flow_error; it exits 1 when a status
or an iteration count changed, or a trial is in one run only.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gridveil import netmodel, surrogate  # noqa: E402
from workloads import FEEDERS, Dispatch  # noqa: E402


def seed_list(text: str) -> list[int]:
    """'601-610' or '508' -> seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def solve_record(status: str, iterations: int, objective: float) -> dict:
    return {"status": status, "iterations": int(iterations), "objective": float(objective)}


def trial_record(trial) -> dict:
    """Status, iterations and objective of the three solves of one trial,
    with the verification's verdict and coupling-flow error."""
    out = {
        "std": solve_record(trial.std.status, trial.std.iterations, trial.std.objective),
        "pp": solve_record(trial.pp.status, trial.pp.iterations, trial.pp.objective),
        "verify": None,
    }
    rep = trial.report
    if rep is not None:
        status = rep.message or "optimal"
        out["verify"] = {
            **solve_record(status, rep.iterations, rep.verified_cost),
            "feasible_true": bool(rep.feasible_true),
            "pcc_flow_error": float(rep.pcc_flow_error),
        }
    return out


def bundle_state(paths: list[str], seed: int) -> dict:
    """The tso-dispatch state with exported bundles in place of trained ones."""
    ts = netmodel.bundled_case("ts30")
    integrated = netmodel.build_integrated(ts, [netmodel.bundled_case(n) for n in FEEDERS])
    return dict(
        seed=seed,
        ts=ts,
        integrated=integrated,
        bundles={b.ds_id: b for b in map(surrogate.import_bundle, paths)},
        charts=integrated.all_dg_charts(),
    )


def trial_states(dispatch: Dispatch, args):
    """One tso-dispatch state per seed, set up as its trials are reached."""
    if args.bundles:
        yield bundle_state(args.bundles, args.seed)
        return
    for seed in args.perfbench_seeds:
        with tempfile.TemporaryDirectory() as workdir:
            state = dispatch.setup(seed, workdir)
        yield state


def read_run(path: str) -> dict:
    """(seed, trial) -> record of one output of this script."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["seed"], r["trial"]): r for r in records}


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def diff_runs(path_a: str, path_b: str) -> int:
    """Print the changes between two runs; 1 if a status or iteration count changed."""
    run_a, run_b = read_run(path_a), read_run(path_b)
    changed = 0
    for key in sorted(run_a.keys() ^ run_b.keys()):
        print(f"seed {key[0]} trial {key[1]}: in {path_a if key in run_a else path_b} only")
        changed += 1
    worst = {kind: 0.0 for kind in ("std", "pp", "verify", "pcc_flow_error")}
    for key in sorted(run_a.keys() & run_b.keys()):
        for kind in ("std", "pp", "verify"):
            a, b = run_a[key][kind], run_b[key][kind]
            if a is None or b is None:
                if a != b:
                    print(f"seed {key[0]} trial {key[1]} {kind}: {a} -> {b}")
                    changed += 1
                continue
            for field in ("status", "iterations"):
                if a[field] != b[field]:
                    print(f"seed {key[0]} trial {key[1]} {kind}: {field} {a[field]} -> {b[field]}")
                    changed += 1
            worst[kind] = max(worst[kind], rel_diff(a["objective"], b["objective"]))
            if kind == "verify":
                err = rel_diff(a["pcc_flow_error"], b["pcc_flow_error"])
                worst["pcc_flow_error"] = max(worst["pcc_flow_error"], err)
    print(f"{len(run_a.keys() & run_b.keys())} trials in both runs, {changed} changes")
    for kind, value in worst.items():
        what = kind if kind == "pcc_flow_error" else f"{kind} objective"
        print(f"largest relative difference of the {what}: {value:.3g}")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--perfbench-seeds", type=seed_list, help="e.g. 601-610 or 508")
    src.add_argument("--bundles", nargs="+", help="exported bundle files")
    src.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two outputs")
    ap.add_argument("--seed", type=int, default=0, help="cost seed with --bundles")
    ap.add_argument("--trials", type=int, default=5, help="trials per seed")
    args = ap.parse_args(argv)
    if args.diff:
        return diff_runs(*args.diff)
    dispatch = Dispatch()
    for state in trial_states(dispatch, args):
        for k in range(args.trials):
            record = trial_record(dispatch.op(state, k))
            print(json.dumps({"seed": state["seed"], "trial": k, **record}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
