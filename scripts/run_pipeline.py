#!/usr/bin/env python
"""Run the disclosure pipeline end to end through the command line interface.

For each distribution case: sample operating points, train the feasibility
polytope, fit the coupling-flow regressions and assemble the bundle.  Then
solve the coupled transmission problem against the three bundles, verify the
dispatch on the integrated network, and finish with the paired-cost
benchmark.  The default scale is a smoke run of a few minutes on one core;
--full switches to the report-grade sizes (roughly half an hour).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from gridveil.cli import run

# per-DS sampling and training knobs; seeds are fixed so artifacts reproduce
QUICK = {
    1: dict(n=2_000, n_h=12, lr=3e-3, epochs=150, restarts=2, lr_min=0.0, patience=25),
    2: dict(n=6_000, n_h=60, lr=1e-2, epochs=150, restarts=1, lr_min=1e-4, patience=10**9),
    3: dict(n=6_000, n_h=60, lr=1e-2, epochs=150, restarts=1, lr_min=1e-4, patience=10**9),
}
FULL = {
    1: dict(n=20_000, n_h=20, lr=3e-3, epochs=500, restarts=4, lr_min=0.0, patience=25),
    2: dict(n=100_000, n_h=1000, lr=3e-3, epochs=500, restarts=1, lr_min=0.0, patience=25),
    3: dict(n=100_000, n_h=1000, lr=1e-2, epochs=800, restarts=1, lr_min=1e-4, patience=10**9),
}
SAMPLE_SEED = {1: 42, 2: 42, 3: 43}


def sh(*argv: str) -> None:
    print(f"$ gridveil {' '.join(argv)}", flush=True)
    code = run(list(argv))
    if code != 0:
        sys.exit(f"pipeline step failed (exit {code})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="pipeline_out", help="artifact directory")
    ap.add_argument("--full", action="store_true", help="report-grade sizes")
    ap.add_argument("--trials", type=int, default=None, help="benchmark trials")
    ap.add_argument("--skip-bench", action="store_true")
    args = ap.parse_args()

    plans = FULL if args.full else QUICK
    trials = args.trials if args.trials is not None else (100 if args.full else 10)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()

    bundle_args = []
    for k, plan in plans.items():
        case = f"ds{k}"
        csv = out / f"{case}_samples.csv"
        fr = out / f"{case}_fr.json"
        pq = out / f"{case}_pq.json"
        bundle = out / f"{case}_bundle.json"
        sh("sample", "--case", case, "--n", str(plan["n"]),
           "--seed", str(SAMPLE_SEED[k]), "--out", str(csv))
        sh("train-fr", "--data", str(csv), "--n-hidden", str(plan["n_h"]),
           "--w10", "2", "--seed", "3", "--lr", str(plan["lr"]),
           "--lr-min", str(plan["lr_min"]), "--epochs", str(plan["epochs"]),
           "--patience", str(plan["patience"]), "--restarts", str(plan["restarts"]),
           "--split-seed", "7", "--out", str(fr))
        sh("train-pq", "--case", case, "--data", str(csv),
           "--split-seed", "7", "--out", str(pq))
        sh("bundle", "--case", case, "--fr", str(fr), "--pq", str(pq),
           "--dg-cost", "0.02,20", "--out", str(bundle))
        bundle_args += ["--bundle", str(bundle)]

    solution = out / "pp_solution.json"
    sh("solve", "--case", "ts30", "--mode", "pp", *bundle_args, "--out", str(solution))

    attach_args = []
    for k in plans:
        attach_args += ["--attach", f"ds{k}"]
    verdict = out / "verification.json"
    sh("verify", "--ts", "ts30", *attach_args, *bundle_args,
       "--solution", str(solution), "--out", str(verdict))

    if not args.skip_bench:
        report = out / "bench_report.json"
        sh("bench", "--ts", "ts30", *attach_args, *bundle_args,
           "--trials", str(trials), "--seed", "1",
           "--out", str(report), "--hist", str(out / "bench_hist.csv"))
        sh("report", "--in", str(report))

    check = json.loads(verdict.read_text())
    print(f"\ndispatch verified feasible: {check['feasible_true']}, "
          f"verified cost {check['verified_cost']:.2f} (raw {check['raw_cost']:.2f}), "
          f"max coupling-flow error {check['pcc_flow_error']:.3f} MW")
    print(f"artifacts in {out}/ ({time.perf_counter() - t_start:.0f}s total)")


if __name__ == "__main__":
    main()
