"""Paired benchmark: standard AC-OPF vs the surrogate-coupled formulation.

Each trial draws one random cost set, applies it to both formulations,
solves both, verifies the surrogate dispatch against the full network, and
records objectives, timings and feasibility.  Gap statistics use the
verified cost, the defensible ground-truth number for the dispatch the
surrogate method actually produced.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .acopf import NlpOptions, solve_standard
from .netmodel import CostPoly, NetworkCase
from .ppopf import assemble_pp, solve_pp, verify_dispatch
from .sampling import pool_map, resolve_jobs, write_json
from .surrogate import SurrogateBundle

# the ranges straddle typical thermal-unit marginal costs so the cheap side
# flips between TS units and DGs across trials
COST_A_RANGE = (0.01, 0.05)  # $/MW^2 h
COST_B_RANGE = (5.0, 50.0)  # $/MWh


def random_costs(case: NetworkCase, n_trials: int, seed: int) -> list[list[CostPoly]]:
    """One quadratic cost set per trial covering every generator of the case.

    Per-trial RNG streams come from splitting the master seed, so draws are
    stable under any parallel execution order.
    """
    ng = case.n_gen
    out = []
    for child in np.random.SeedSequence(seed).spawn(n_trials):
        rng = np.random.default_rng(child)
        a = rng.uniform(*COST_A_RANGE, ng)
        b = rng.uniform(*COST_B_RANGE, ng)
        out.append([CostPoly(float(ai), float(bi), 0.0) for ai, bi in zip(a, b)])
    return out


@dataclass
class TrialRecord:
    trial_id: int
    std_objective: float
    pp_raw_objective: float
    pp_verified_objective: float
    std_time: float
    pp_time: float
    feasible_true: bool
    statuses: dict
    gap_pct: float  # nan unless both sides optimal and the dispatch verified
    pcc_flow_error: float = float("nan")


@dataclass
class BenchReport:
    trials: list[TrialRecord]
    summary: dict
    meta: dict = field(default_factory=dict)


def _with_costs(case: NetworkCase, costs: list[CostPoly]) -> NetworkCase:
    gens = [replace(g, cost=c) for g, c in zip(case.generators, costs)]
    return replace(case, generators=gens)


def _run_trial(
    trial_id: int,
    costs: list[CostPoly],
    integrated: NetworkCase,
    ts_case: NetworkCase,
    bundles: dict[int, SurrogateBundle],
    charts_std: list,
    opts: NlpOptions | None,
) -> TrialRecord:
    dg_map = integrated.meta["dg_map"]
    n_ts_gen = integrated.meta["n_ts_gen"]
    integ_t = _with_costs(integrated, costs)
    ts_t = _with_costs(ts_case, costs[:n_ts_gen])
    bundles_t = {
        ds: replace(bundles[ds], costs=[costs[g] for g in dg_map[ds]]) for ds in bundles
    }

    statuses: dict = {}
    std_obj = pp_raw = pp_ver = gap = flow_err = float("nan")
    std_time = pp_time = float("nan")
    feasible = False
    try:
        std = solve_standard(integ_t, opts, charts=charts_std)
        statuses["std"] = std.status
        std_time = std.solve_time
        if std.optimal:
            std_obj = float(std.objective)

        pp = solve_pp(assemble_pp(ts_t, bundles_t), opts)
        statuses["pp"] = pp.status
        pp_time = pp.solve_time
        if pp.optimal:
            pp_raw = float(pp.objective)
            ver = verify_dispatch(integ_t, pp, bundles_t, opts)
            statuses["verify"] = "feasible" if ver.feasible_true else f"infeasible: {ver.message}"
            feasible = ver.feasible_true
            pp_ver = ver.verified_cost
            flow_err = ver.pcc_flow_error
            if std.optimal and np.isfinite(pp_ver):
                gap = (pp_ver - std_obj) / std_obj * 100.0
    except np.linalg.LinAlgError as exc:  # a numerical failure is data; a bug propagates
        statuses["error"] = f"{type(exc).__name__}: {exc}"

    return TrialRecord(
        trial_id=trial_id,
        std_objective=std_obj,
        pp_raw_objective=pp_raw,
        pp_verified_objective=pp_ver,
        std_time=std_time,
        pp_time=pp_time,
        feasible_true=feasible,
        statuses=statuses,
        gap_pct=gap,
        pcc_flow_error=flow_err,
    )


def _bench_worker(shared: dict, arg):
    trial_id, costs = arg
    return _run_trial(trial_id, costs, **shared)


def run_benchmark(
    integrated_case: NetworkCase,
    ts_case: NetworkCase,
    bundles: dict[int, SurrogateBundle],
    n_trials: int,
    seed: int,
    opts: NlpOptions | None = None,
    jobs: int | None = None,
) -> BenchReport:
    """Paired cost trials over the integrated network and its surrogate twin.

    The integrated case must carry the merge metadata (dg ownership), so the
    same drawn costs land on the same physical units on both sides.  Reported
    times are solver wall clock only, excluding assembly.
    """
    if "dg_map" not in integrated_case.meta:
        raise ValueError("integrated case lacks merge metadata")
    cost_sets = random_costs(integrated_case, n_trials, seed)
    charts_std = integrated_case.all_dg_charts()

    trials = pool_map(
        _bench_worker,
        list(enumerate(cost_sets)),
        resolve_jobs(jobs),
        chunksize=1,
        integrated=integrated_case,
        ts_case=ts_case,
        bundles=bundles,
        charts_std=charts_std,
        opts=opts,
    )
    trials.sort(key=lambda t: t.trial_id)

    meta = {
        "n_trials": n_trials,
        "seed": seed,
        "integrated_case": integrated_case.name,
        "ts_case": ts_case.name,
        "cost_ranges": [list(COST_A_RANGE), list(COST_B_RANGE)],
    }
    return BenchReport(trials=trials, summary=summarize(trials), meta=meta)


def summarize(report) -> dict:
    """Gap/feasibility/time statistics, recomputable from the trials exactly."""
    trials = report.trials if isinstance(report, BenchReport) else list(report)
    if not trials:
        raise ValueError("no trials to summarize")
    gaps = np.array([t.gap_pct for t in trials])
    ok = np.isfinite(gaps)
    deltas = np.array(
        [t.pp_time - t.std_time for t in trials if np.isfinite(t.pp_time - t.std_time)]
    )
    n = len(trials)
    summary = {
        "n_trials": n,
        "n_completed": int(ok.sum()),
        "feasibility_ratio_pct": 100.0 * sum(t.feasible_true for t in trials) / n,
        "mean_gap_pct": float(np.mean(gaps[ok])) if ok.any() else float("nan"),
        "max_gap_pct": float(np.max(gaps[ok])) if ok.any() else float("nan"),
        "p50_gap_pct": float(np.percentile(gaps[ok], 50)) if ok.any() else float("nan"),
        "p90_gap_pct": float(np.percentile(gaps[ok], 90)) if ok.any() else float("nan"),
        "count_gap_over_2pct": int(np.sum(gaps[ok] > 2.0)) if ok.any() else 0,
        "mean_time_delta_s": float(np.mean(deltas)) if len(deltas) else float("nan"),
        "max_time_delta_s": float(np.max(deltas)) if len(deltas) else float("nan"),
    }
    return summary


def emit_histogram(report: BenchReport, bins: int, path) -> None:
    """CSV histogram of verified cost gaps and solve-time deltas.

    Pure function of the report: re-emission writes identical bytes.
    """
    gaps = np.array([t.gap_pct for t in report.trials])
    gaps = gaps[np.isfinite(gaps)]
    deltas = np.array([t.pp_time - t.std_time for t in report.trials])
    deltas = deltas[np.isfinite(deltas)]
    lines = ["metric,bin_lo,bin_hi,count"]
    for metric, data in (("gap_pct", gaps), ("time_delta_s", deltas)):
        if len(data) == 0:
            continue
        counts, edges = np.histogram(data, bins=bins)
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            lines.append(f"{metric},{lo:.17g},{hi:.17g},{int(c)}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def report_to_json(report: BenchReport, path, command: str | None = None) -> None:
    d = {
        "meta": {**report.meta, **({"command": command} if command else {})},
        "summary": report.summary,
        "trials": [asdict(t) for t in report.trials],
    }
    write_json(path, d)


def report_from_json(path) -> BenchReport:
    with open(path) as fh:
        d = json.load(fh)
    trials = [TrialRecord(**t) for t in d["trials"]]
    return BenchReport(trials=trials, summary=d["summary"], meta=d.get("meta", {}))
