#!/usr/bin/env python
"""Per-iteration time of the interior-point solver's parts on one tso-dispatch trial.

Runs operation --trial of the perfbench tso-dispatch workload at --seed (the
standard AC-OPF on the integrated network with its DG charts, the
privacy-preserving OPF and the verification re-solve) with one BLAS
thread, --reps times as it is and once more recording the arguments
of every call of the problem callbacks (objective, equalities,
inequalities, lag_hess: values on their patterns) and of every
``KktBlocks.form`` (the H, Jg and Jh values, the row weights and the
bounds' diagonal) and ``KktBlocks.solve``.  Each recorded call is then
repeated --reps times and its fastest repetition kept.  One JSON line per
solve gives its status, iterations, Newton system size and, in ms, the
median over its calls of each callback, their sum (callbacks_ms: one call
of each is made per iteration), the median of form and of solve (every
solve call, regularization attempts included), the fastest solve_time
per iteration of the unrecorded runs (iter_ms), and what that leaves for
the solver's own loop (other_ms = iter_ms - callbacks_ms - form_ms -
solve_ms):

    python scripts/newton_split.py --seed 5 --trial 0 --reps 15

The solver is wrapped from here; nothing in the package changes.  gridveil
is imported from this checkout's src/.
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gridveil import acopf, ppopf  # noqa: E402
from workloads import Dispatch  # noqa: E402

CALLBACKS = ("objective", "equalities", "inequalities", "lag_hess")
KINDS = ("std", "pp", "verify")  # the order of a trial's solves
SOLVE_NLP, FORM, SOLVE = acopf.solve_nlp, acopf.KktBlocks.form, acopf.KktBlocks.solve


def best_ms(fn, args, reps: int) -> float:
    """Fastest of reps calls of fn(*args), in ms; a singular system counts too."""
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        try:
            fn(*args)
        except np.linalg.LinAlgError:
            pass
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def copied(args) -> list:
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


class Split:
    """Stands in for solve_nlp: solves as usual, then replays what it recorded."""

    def __init__(self, reps: int, timed: list):
        self.reps = reps
        self.timed = timed  # per unrecorded run of the operation, its solves
        self.rows = []
        self.systems = []  # per form: (blocks, form args, [solve args])

    def form(self, blocks, *args):
        self.systems.append((blocks, copied(args), []))
        return FORM(blocks, *args)

    def solve(self, blocks, *args):
        self.systems[-1][2].append(copied(args))
        return SOLVE(blocks, *args)

    def __call__(self, problem, opts=None):
        calls = {name: [] for name in CALLBACKS}

        def recording(name, fn):
            def call(*args):
                calls[name].append(copied(args))
                return fn(*args)

            return call

        wrapped = {n: recording(n, getattr(problem, n)) for n in CALLBACKS if getattr(problem, n)}
        sol = SOLVE_NLP(dataclasses.replace(problem, **wrapped), opts)
        row = {
            "kind": KINDS[len(self.rows)] if len(self.rows) < len(KINDS) else len(self.rows),
            "status": sol.status,
            "iterations": sol.iterations,
        }
        if self.systems:
            blocks = self.systems[0][0]
            row["kkt_rows"] = sum(len(a) for a in blocks.mats)
            row["blocks"] = len(blocks.mats)
        for name in CALLBACKS:
            if calls[name]:
                fn = getattr(problem, name)
                times = [best_ms(fn, args, self.reps) for args in calls[name]]
                row[f"{name}_ms"] = statistics.median(times)
        row["callbacks_ms"] = sum(row.get(f"{name}_ms", 0.0) for name in CALLBACKS)
        forms, solves = [], []
        for blocks, args, solve_args in self.systems:
            forms.append(best_ms(FORM, (blocks, *args), self.reps))
            solves += [best_ms(SOLVE, (blocks, *a), self.reps) for a in solve_args]
        row["form_ms"] = statistics.median(forms) if forms else 0.0
        row["solve_ms"] = statistics.median(solves) if solves else 0.0
        plain = [run[len(self.rows)] for run in self.timed]
        if sol.iterations:
            row["iter_ms"] = 1e3 * min(p.solve_time for p in plain) / sol.iterations
            parts = row["callbacks_ms"] + row["form_ms"] + row["solve_ms"]
            row["other_ms"] = row["iter_ms"] - parts
        self.rows.append({k: round(v, 4) if isinstance(v, float) else v for k, v in row.items()})
        self.systems = []
        return sol


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5, help="perfbench tso-dispatch seed")
    ap.add_argument("--trial", type=int, default=0, help="operation of that seed")
    ap.add_argument("--reps", type=int, default=15, help="repetitions of each recorded call")
    args = ap.parse_args(argv)
    dispatch = Dispatch()
    with tempfile.TemporaryDirectory() as workdir:
        state = dispatch.setup(args.seed, workdir)
    timed = []

    def plain(problem, opts=None):
        timed[-1].append(SOLVE_NLP(problem, opts))
        return timed[-1][-1]

    acopf.solve_nlp = ppopf.solve_nlp = plain
    try:
        for _ in range(args.reps):
            timed.append([])
            dispatch.op(state, args.trial)
    finally:
        acopf.solve_nlp = ppopf.solve_nlp = SOLVE_NLP
    split = Split(args.reps, timed)
    acopf.solve_nlp = ppopf.solve_nlp = split
    # plain functions, so that the blocks bind as the first argument
    acopf.KktBlocks.form = lambda blocks, *a: split.form(blocks, *a)
    acopf.KktBlocks.solve = lambda blocks, *a: split.solve(blocks, *a)
    try:
        dispatch.op(state, args.trial)
    finally:
        acopf.solve_nlp = ppopf.solve_nlp = SOLVE_NLP
        acopf.KktBlocks.form, acopf.KktBlocks.solve = FORM, SOLVE
    for row in split.rows:
        print(json.dumps({"seed": args.seed, "trial": args.trial, **row}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
