#!/usr/bin/env python
"""Train DS offers and compare their facets and bundles across two checkouts.

Each offer prints one JSON line with the SHA-256 of the trained W's bytes, of
b's bytes and of the exported bundle file, the validation loss, and the wall
time of training the offer and writing its bundle:

    python scripts/offer_parity.py --perfbench-seeds 1811-1820 > a.jsonl
    python scripts/offer_parity.py --gates ds1:42:20000 ds2:42:100000 ds3:43:100000 > a.jsonl
    python scripts/offer_parity.py --diff a.jsonl b.jsonl

--perfbench-seeds trains, for each seed, the offer of perfbench's ds-offer
operations 0 .. --ops - 1 and the three offers that tso-dispatch builds in
its set-up.  --gates labels ``generate_dataset(case, rows, seed)``, splits it
as the acceptance gates do and trains it with the gate's settings: c03's for
ds1 (20 facets, 4 restarts), c04's for ds2 and ds3 (1000 facets).  gridveil
is imported from this checkout's src/.  --diff reads two such outputs and
prints every offer whose hashes or validation loss differ, with both wall
times; it exits 1 on any difference or on an offer in one output only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gridveil import netmodel, sampling, surrogate  # noqa: E402
from workloads import (  # noqa: E402
    BUNDLE_PLAN,
    DG_COST,
    FEEDERS,
    OFFER_CASE,
    OFFER_EPOCHS,
    OFFER_FACETS,
    OFFER_ROWS,
    SPLIT_SEED,
    build_offer,
    derived_seed,
)

# case -> (n_h, w_10, TrainConfig) of the acceptance gates' trained models
GATE_TRAINING = {
    "ds1": (20, 1.0, surrogate.TrainConfig(lr=3e-3, seed=3, restarts=4)),
    "ds2": (1000, 2.0, surrogate.TrainConfig(lr=3e-3, seed=3)),
    "ds3": (
        1000,
        2.0,
        surrogate.TrainConfig(lr=1e-2, lr_min=1e-4, epochs=800, patience=10**9, seed=3),
    ),
}
COMPARED = ("w_sha256", "b_sha256", "bundle_sha256", "val_loss")


def seed_list(text: str) -> list[int]:
    """'1811-1820' or '5' -> seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def gate_spec(text: str) -> tuple[str, int, int]:
    """'ds2:42:100000' -> (case, seed, rows)."""
    case, seed, rows = text.split(":")
    if case not in GATE_TRAINING:
        raise argparse.ArgumentTypeError(f"no gate trains {case}")
    return case, int(seed), int(rows)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def offer_record(fr: surrogate.PolytopeModel, path: str, seconds: float) -> dict:
    return {
        "w_sha256": sha256(np.ascontiguousarray(fr.w).tobytes()),
        "b_sha256": sha256(np.ascontiguousarray(fr.b).tobytes()),
        "bundle_sha256": sha256(Path(path).read_bytes()),
        "val_loss": float(fr.meta["val_loss"]),
        "seconds": round(seconds, 3),
    }


def timed_offer(case, data, n_h: int, cfg: dict, seed: int, path: str) -> dict:
    """perfbench's build_offer, with its wall time."""
    t0 = time.perf_counter()
    offer = build_offer(case, data, n_h, cfg, seed, path)
    return offer_record(offer["built"].fr, path, time.perf_counter() - t0)


def perfbench_offers(seed: int, ops: int, workdir: str):
    """The ds-offer operations' offers, then tso-dispatch's set-up offers."""
    case = netmodel.bundled_case(OFFER_CASE)
    data = sampling.generate_dataset(case, OFFER_ROWS, seed=derived_seed(seed), jobs=1)
    cfg = dict(lr=1e-2, lr_min=1e-4, epochs=OFFER_EPOCHS)
    path = os.path.join(workdir, "bundle.json")
    for k in range(ops):
        record = timed_offer(case, data, OFFER_FACETS, cfg, derived_seed(seed, k), path)
        yield {"offer": "ds-offer", "case": OFFER_CASE, "seed": seed, "op": k, **record}
    for i, name in enumerate(FEEDERS):
        case, plan = netmodel.bundled_case(name), BUNDLE_PLAN[name]
        data = sampling.generate_dataset(
            case, plan["rows"], seed=derived_seed(seed, 1 << 20, i), jobs=1
        )
        path = os.path.join(workdir, f"{name}-bundle.json")
        record = timed_offer(case, data, plan["n_h"], plan["cfg"], 3, path)
        yield {"offer": "tso-dispatch", "case": name, "seed": seed, **record}


def gate_offer(name: str, seed: int, rows: int, workdir: str) -> dict:
    """One gate's training set, trained as the gate trains it, with a bundle."""
    case = netmodel.bundled_case(name)
    data = sampling.generate_dataset(case, rows, seed=seed, jobs=1)
    train, _ = sampling.split_dataset(data, 0.2, seed=SPLIT_SEED)
    n_h, w_10, hyper = GATE_TRAINING[name]
    t0 = time.perf_counter()
    fr = surrogate.train_fr(train, n_h=n_h, w_10=w_10, w_01=1.0, hyper=hyper)
    pcc = surrogate.fit_pcc(train, case.base_mva)
    bundle = surrogate.offer_bundle(case, fr, pcc, [DG_COST] * case.n_gen)
    path = os.path.join(workdir, f"{name}-gate-bundle.json")
    surrogate.export_bundle(bundle, path)
    return {"offer": "gate", "case": name, "seed": seed, "rows": rows,
            **offer_record(fr, path, time.perf_counter() - t0)}


def offer_id(record: dict) -> tuple:
    return (record["offer"], record["case"], record["seed"], record.get("op", record.get("rows")))


def read_run(path: str) -> dict:
    """offer id -> record of one output of this script."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {offer_id(r): r for r in records}


def diff_runs(path_a: str, path_b: str) -> int:
    """Print the offers that differ between two outputs; 1 if any does."""
    run_a, run_b = read_run(path_a), read_run(path_b)
    changed = 0
    for key in sorted(run_a.keys() ^ run_b.keys()):
        print(f"{key}: in {path_a if key in run_a else path_b} only")
        changed += 1
    for key in sorted(run_a.keys() & run_b.keys()):
        a, b = run_a[key], run_b[key]
        moved = [name for name in COMPARED if a[name] != b[name]]
        print(
            f"{' '.join(str(part) for part in key if part is not None)}: {', '.join(moved) + ' differ' if moved else 'identical'}, "
            f"{a['seconds']:.3f} s -> {b['seconds']:.3f} s"
        )
        if "val_loss" in moved:
            print(f"  val_loss {a['val_loss']!r} -> {b['val_loss']!r}")
        changed += bool(moved)
    print(f"{len(run_a.keys() & run_b.keys())} offers in both outputs, {changed} changed")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--perfbench-seeds", type=seed_list, default=[], help="e.g. 1811-1820 or 5")
    ap.add_argument("--ops", type=int, default=1, help="ds-offer operations per seed")
    ap.add_argument("--gates", nargs="+", type=gate_spec, default=[],
                    help="case:seed:rows, e.g. ds2:42:100000")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two outputs")
    args = ap.parse_args(argv)
    if args.diff:
        return diff_runs(*args.diff)
    if not (args.perfbench_seeds or args.gates):
        ap.error("give --perfbench-seeds, --gates or --diff")
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.perfbench_seeds:
            for record in perfbench_offers(seed, args.ops, workdir):
                print(json.dumps(record), flush=True)
        for gate in args.gates:
            print(json.dumps(gate_offer(*gate, workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
