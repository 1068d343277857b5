"""The benchmark's three workloads, one per side of the CLI pipeline.

Every workload has the same shape.  ``setup(seed, workdir)`` builds what
the timed region needs; ``op(state, k)`` performs operation ``k``, with
inputs derived from the seed and k only; ``check(state, out)`` runs the
independent checks of ``checks.py`` on that operation's output, outside the
timed region; ``record(state, out)`` keeps the few figures the reports need,
so outputs do not pile up in memory.  The program is reached only through
public functions that the ``gridveil`` command line uses, called through
their modules so that the traced run sees the calls.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
from gridveil import acopf, bench, netmodel, ppopf, sampling, surrogate

FEEDERS = ("ds1", "ds2", "ds3")

# ds-labelling: rows per feeder per round; rows re-solved independently per op
LABEL_ROWS = 500
LABEL_RESOLVE = 8

# ds-offer: the meshed feeder, labelled once in set-up, then trained each op
OFFER_CASE = "ds2"
OFFER_ROWS = 3000
OFFER_FACETS = 1000
OFFER_EPOCHS = 40
OFFER_CHECK_POINTS = 1000

# tso-dispatch: rows, facets and epochs of the bundles built in set-up
BUNDLE_PLAN = {
    "ds1": dict(rows=800, n_h=12, cfg=dict(lr=3e-3, epochs=100)),
    "ds2": dict(rows=1200, n_h=1000, cfg=dict(lr=1e-2, lr_min=1e-4, epochs=40)),
    "ds3": dict(rows=1200, n_h=1000, cfg=dict(lr=1e-2, lr_min=1e-4, epochs=40)),
}
DG_COST = netmodel.CostPoly(0.02, 20.0)
SPLIT_SEED = 7


def derived_seed(seed: int, *parts: int) -> int:
    """One integer seed per (run seed, operation, ...) tuple."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def build_offer(case, data, n_h: int, cfg: dict, seed: int, path) -> dict:
    """train-fr, train-pq and bundle on one labelled dataset, then re-import."""
    ds_id = next(iter(case.pcc_map))
    train, test = sampling.split_dataset(data, 0.2, seed=SPLIT_SEED)
    hyper = surrogate.TrainConfig(patience=10**9, seed=seed, **cfg)
    fr = surrogate.train_fr(train, n_h=n_h, w_10=2.0, w_01=1.0, hyper=hyper)
    metrics = surrogate.classification_metrics(fr, test)
    feas_tr, feas_te = train.label == 0, test.label == 0
    base = case.base_mva
    pcc, rmse = [], []
    for u in range(data.n_pcc):
        pair = {}
        for key, tr_raw, te_raw in (("p", train.p_pcc, test.p_pcc), ("q", train.q_pcc, test.q_pcc)):
            target = "active" if key == "p" else "reactive"
            model = surrogate.fit_quadratic(
                train.x[feas_tr], -tr_raw[feas_tr, u] / base, label=target, pcc_index=u
            )
            rmse.append(
                surrogate.regression_metrics(model, test.x[feas_te], -te_raw[feas_te, u] / base)[0]
            )
            pair[key] = model
        pcc.append(pair)
    space = sampling.sample_space(case)
    built = surrogate.SurrogateBundle(
        ds_id=ds_id,
        n_pcc=space.n_pcc,
        n_dg=case.n_gen,
        x_min=space.x_min,
        x_max=space.x_max,
        fr=fr,
        pcc=pcc,
        charts=list(case.charts_for(ds_id)) if case.dg_charts else [],
        costs=[DG_COST] * case.n_gen,
    )
    surrogate.export_bundle(built, path)
    imported = surrogate.import_bundle(path)
    return dict(
        built=built, imported=imported, train=train, test=test, metrics=metrics,
        rmse=max(rmse), path=path,
    )


def offer_record(o: dict) -> dict:
    """Quality and size of one offer; dead facets are counted from W x + b."""
    fr = o["built"].fr
    used = np.unique(np.argmax(o["train"].x @ fr.w.T + fr.b, axis=1))
    return {
        "surrogate.dead_facets": fr.n_h - len(used),
        "surrogate.bundle_bytes": os.path.getsize(o["path"]),
        "surrogate.accuracy": o["metrics"].accuracy,
        "surrogate.specificity": o["metrics"].specificity,
        "surrogate.pcc_rmse_max": o["rmse"],
    }


def worst_offer(records: list[dict]) -> dict:
    """Worst quality and largest size over the offers built."""
    out = {}
    for key in ("surrogate.dead_facets", "surrogate.bundle_bytes", "surrogate.pcc_rmse_max"):
        out[key] = max(r[key] for r in records)
    for key in ("surrogate.accuracy", "surrogate.specificity"):
        out[key] = min(r[key] for r in records)
    return out


class Workload:
    """Set-up, one operation, its checks, and the small record kept of it."""

    name = ""
    reference = ""  # the reference.py kernel shaped like this workload

    def failed(self, out) -> bool:
        """True when an operation finished without a usable result."""
        return False

    def facts(self, state, records: list[dict]) -> dict:
        """Quality figures for the per-layer report."""
        return {}


# ---------------------------------------------------------------- labelling


class Labelling(Workload):
    """`gridveil sample` on ds1, ds2 and ds3: one op labels and writes all three."""

    name = "ds-labelling"
    reference = "flow"

    def setup(self, seed: int, workdir: str):
        cases = {name: netmodel.bundled_case(name) for name in FEEDERS}
        for case in cases.values():
            case.ybus  # noqa: B018 -- the admittance is part of loading a case
        return dict(seed=seed, workdir=workdir, cases=cases)

    def op(self, state, k: int):
        out = []
        for i, name in enumerate(FEEDERS):
            case = state["cases"][name]
            data = sampling.generate_dataset(
                case, LABEL_ROWS, seed=derived_seed(state["seed"], k, i), jobs=1
            )
            path = os.path.join(state["workdir"], f"{name}.csv")
            sampling.write_csv(path, data)
            out.append((name, data, path))
        return out

    def check(self, state, out):
        oracles = state.setdefault("oracles", {})
        problems = []
        for name, data, path in out:
            case = state["cases"][name]
            oracle = oracles.setdefault(name, checks.DsOracle(case))
            reread = sampling.read_csv(path)
            problems += checks.check_dataset(case, data, reread, oracle, LABEL_RESOLVE)
        return problems

    def record(self, state, out):
        return {"rows": sum(data.n for _, data, _ in out)}

    def summary(self, records, op_s):
        return {"label_rows_per_s": sum(r["rows"] for r in records) / sum(op_s)}


# ---------------------------------------------------------------- offer


class Offer(Workload):
    """`train-fr`, `train-pq` and `bundle` on one labelled CSV made in set-up."""

    name = "ds-offer"
    reference = "train"

    def setup(self, seed: int, workdir: str):
        case = netmodel.bundled_case(OFFER_CASE)
        data = sampling.generate_dataset(case, OFFER_ROWS, seed=derived_seed(seed), jobs=1)
        csv = os.path.join(workdir, f"{OFFER_CASE}.csv")
        sampling.write_csv(csv, data)
        return dict(seed=seed, workdir=workdir, case=case, csv=csv)

    def op(self, state, k: int):
        data = sampling.read_csv(state["csv"])
        cfg = dict(lr=1e-2, lr_min=1e-4, epochs=OFFER_EPOCHS)
        path = os.path.join(state["workdir"], "bundle.json")
        return build_offer(
            state["case"], data, OFFER_FACETS, cfg, derived_seed(state["seed"], k), path
        )

    def check(self, state, o):
        rng = state.setdefault("rng", np.random.default_rng(derived_seed(state["seed"], 1 << 20)))
        return checks.check_offer(
            state["case"], o["path"], o["built"], o["imported"], o["train"], o["test"],
            o["metrics"], OFFER_CHECK_POINTS, rng,
        )

    def record(self, state, o):
        return offer_record(o)

    def facts(self, state, records):
        return worst_offer(records)

    def summary(self, records, op_s):
        return {"offer_build_s": statistics.median(op_s)}


# ---------------------------------------------------------------- dispatch


@dataclass
class Trial:
    std: object
    pp: object
    report: object
    bundles: dict
    std_s: float
    dispatch_s: float
    verify_s: float
    total_s: float


class Dispatch(Workload):
    """Paired trials: standard AC-OPF, PP OPF against the bundles, verification."""

    name = "tso-dispatch"
    reference = "kkt"

    def setup(self, seed: int, workdir: str):
        ts = netmodel.bundled_case("ts30")
        feeders = [netmodel.bundled_case(name) for name in FEEDERS]
        integrated = netmodel.build_integrated(ts, feeders)
        integrated.ybus  # noqa: B018 -- shared by every trial's standard solve
        offers = []
        for i, case in enumerate(feeders):
            plan = BUNDLE_PLAN[case.name]
            data = sampling.generate_dataset(
                case, plan["rows"], seed=derived_seed(seed, 1 << 20, i), jobs=1
            )
            path = os.path.join(workdir, f"{case.name}-bundle.json")
            offers.append(build_offer(case, data, plan["n_h"], plan["cfg"], 3, path))
        dg_map = integrated.meta["dg_map"]
        return dict(
            seed=seed,
            ts=ts,
            integrated=integrated,
            offers=[offer_record(o) for o in offers],
            bundles={o["imported"].ds_id: o["imported"] for o in offers},
            charts=[c for ds in sorted(dg_map) for c in integrated.charts_for(ds, dg_map[ds])],
        )

    def op(self, state, k: int) -> Trial:
        start = time.perf_counter()
        integrated, ts = state["integrated"], state["ts"]
        dg_map = integrated.meta["dg_map"]
        costs = bench.random_costs(integrated, 1, seed=derived_seed(state["seed"], k))[0]
        gens = [replace(g, cost=c) for g, c in zip(integrated.generators, costs)]
        integ_t = replace(integrated, generators=gens)
        ts_t = replace(ts, generators=gens[: integrated.meta["n_ts_gen"]])
        bundles_t = {
            ds: replace(b, costs=[costs[g] for g in dg_map[ds]]) for ds, b in state["bundles"].items()
        }
        t0 = time.perf_counter()
        std = acopf.solve_standard(integ_t, charts=state["charts"])
        t1 = time.perf_counter()
        pp = ppopf.solve_pp(ppopf.assemble_pp(ts_t, bundles_t, charts_enforced=True))
        t2 = time.perf_counter()
        report = ppopf.verify_dispatch(integ_t, pp, bundles_t) if pp.optimal else None
        t3 = time.perf_counter()
        return Trial(std, pp, report, bundles_t, t1 - t0, t2 - t1, t3 - t2, t3 - start)

    def failed(self, trial: Trial) -> bool:
        """A solve that did not reach optimality is a failed operation."""
        return not (trial.std.optimal and trial.pp.optimal)

    def check(self, state, t: Trial):
        if "ybus" not in state:
            state["ybus"] = checks.stamp_ybus(state["integrated"])[0]
        return checks.check_trial(state["integrated"], state["ybus"], t.bundles, t.std, t.pp, t.report)

    def record(self, state, t: Trial):
        ts = state["ts"]
        theta = {b.id: t.pp.theta[i] for i, b in enumerate(ts.buses)}
        spread = 0.0
        for couplings in ts.pcc_map.values():
            angles = [theta[ts_bus] for _, ts_bus in couplings]
            spread = max(spread, math.degrees(max(angles) - min(angles)))
        # failed() keeps out trials without an optimal PP solve, so every
        # recorded trial was verified
        return {
            "std_s": t.std_s,
            "dispatch_s": t.dispatch_s,
            "verify_s": t.verify_s,
            "total_s": t.total_s,
            "verify_solve_s": t.report.solve_time,
            "flow_error_mw": t.report.pcc_flow_error,
            "gap_pct": 100.0 * (t.report.verified_cost - t.std.objective) / t.std.objective,
            "angle_spread_deg": spread,
        }

    def facts(self, state, records):
        facts = worst_offer(state["offers"])
        facts.update(
            {
                "ppopf.pcc_flow_error_mw": max(r["flow_error_mw"] for r in records),
                "ppopf.pcc_angle_spread_deg": max(r["angle_spread_deg"] for r in records),
                "bench.gap_pct_mean": statistics.fmean(r["gap_pct"] for r in records),
                "verify_solve_ms": 1e3 * statistics.fmean(r["verify_solve_s"] for r in records),
                "bench.trial_ms": 1e3 * statistics.fmean(r["total_s"] for r in records),
            }
        )
        return facts

    def summary(self, records, op_s):
        return {
            "std_opf_ms": 1e3 * statistics.median(r["std_s"] for r in records),
            "dispatch_ms": 1e3 * statistics.median(r["dispatch_s"] for r in records),
            "verify_ms": 1e3 * statistics.median(r["verify_s"] for r in records),
            "paired_trials_per_s": len(records) / sum(op_s),
        }


WORKLOADS = {w.name: w for w in (Labelling(), Offer(), Dispatch())}
