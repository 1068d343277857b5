"""Which gridveil functions the traced run wraps, and the per-layer metrics.

Each metric is prefixed by the module it measures.  Timings are means over
every traced call of the function in the run (set-up included), so a
function a workload never calls reads 0.  Quality figures (accuracy, flow
error, ...) come from the workload's own outputs; ``<module>.self_ms`` is
the module's self time per traced operation, and ``trace.*`` compares the
traced half of the run with the untraced half.
"""

from __future__ import annotations

import importlib
import statistics

from spans import END, NAME, PARENT, START, TAG, Tracer

OP_SPAN = "perfbench.op"
MODULES = ("netmodel", "powerflow", "sampling", "surrogate", "acopf", "ppopf", "bench")


def _tag_case(tracer, idx, args, kwargs, result):
    return args[0].name


def _count_newton(tracer, idx, args, kwargs, result):
    tracer.counts["powerflow.newton_iters"] += result.iterations
    tracer.counts["powerflow.converged"] += int(result.converged)


def _count_rows(tracer, idx, args, kwargs, result):
    tracer.counts["sampling.rows"] += result.n
    tracer.counts["sampling.feasible"] += int((result.label == 0).sum())


def _count_epochs(tracer, idx, args, kwargs, result):
    tracer.counts["surrogate.epochs_run"] += int(result.meta.get("epochs_run", 0))


def _nlp_iterations(tracer, idx, args, kwargs, result):
    parent = tracer.spans[idx][PARENT]
    caller = tracer.names[tracer.spans[parent][NAME]] if parent >= 0 else ""
    prefix = {"acopf.solve_standard": "acopf.std", "ppopf.solve_pp": "ppopf.pp"}.get(caller)
    if prefix and f"{prefix}_nx" not in tracer.counts:
        problem = args[0]
        tracer.counts[f"{prefix}_nx"] = problem.n
        tracer.counts[f"{prefix}_eq_rows"] = len(problem.eq(problem.x0)[0])
        tracer.counts[f"{prefix}_ineq_rows"] = len(problem.ineq(problem.x0)[0])
    return result.iterations


TARGETS = [
    ("netmodel", "bundled_case", None),
    ("netmodel", "build_integrated", None),
    ("netmodel", "build_admittance", None),
    ("netmodel", "branch_admittances", None),
    ("powerflow", "ds_response", _tag_case),
    ("powerflow", "newton_pf", _count_newton),
    ("powerflow", "check_limits", None),
    ("powerflow", "line_flows", None),
    ("sampling", "generate_dataset", _count_rows),
    ("sampling", "lhs", None),
    ("sampling", "chart_mask", None),
    ("sampling", "split_dataset", None),
    ("sampling", "write_csv", None),
    ("sampling", "read_csv", None),
    ("surrogate", "train_fr", _count_epochs),
    ("surrogate", "loss_and_grad", None),
    ("surrogate", "classification_metrics", None),
    ("surrogate", "fit_quadratic", None),
    ("surrogate", "regression_metrics", None),
    ("surrogate", "export_bundle", None),
    ("surrogate", "import_bundle", None),
    ("acopf", "assemble_standard", None),
    ("acopf", "assemble_polygon_extension", None),
    ("acopf", "solve_standard", None),
    ("acopf", "solve_nlp", _nlp_iterations),
    ("ppopf", "assemble_pp", None),
    ("ppopf", "solve_pp", None),
    ("ppopf", "verify_dispatch", None),
    ("bench", "random_costs", None),
]

# (name, unit, better); BENCHMARK.json's per_layer list is exactly this
PER_LAYER = [
    ("netmodel.bundled_case_ms", "ms", "lower"),
    ("netmodel.build_integrated_ms", "ms", "lower"),
    ("netmodel.ybus_ms", "ms", "lower"),
    ("netmodel.branch_admittances_us", "us", "lower"),
    ("powerflow.ds_response_us.ds1", "us", "lower"),
    ("powerflow.ds_response_us.ds2", "us", "lower"),
    ("powerflow.ds_response_us.ds3", "us", "lower"),
    ("powerflow.newton_pf_us", "us", "lower"),
    ("powerflow.newton_iters", "iter", "lower"),
    ("powerflow.check_limits_us", "us", "lower"),
    ("powerflow.converged_share", "ratio", "higher"),
    ("sampling.lhs_ms", "ms", "lower"),
    ("sampling.chart_mask_ms", "ms", "lower"),
    ("sampling.flow_share", "ratio", "lower"),
    ("sampling.feasible_share", "ratio", "higher"),
    ("sampling.write_csv_ms", "ms", "lower"),
    ("sampling.read_csv_ms", "ms", "lower"),
    ("surrogate.train_fr_s", "s", "lower"),
    ("surrogate.epoch_ms", "ms", "lower"),
    ("surrogate.loss_and_grad_us", "us", "lower"),
    ("surrogate.batches", "count", "lower"),
    ("surrogate.epochs_run", "count", "lower"),
    ("surrogate.fit_quadratic_ms", "ms", "lower"),
    ("surrogate.export_bundle_ms", "ms", "lower"),
    ("surrogate.import_bundle_ms", "ms", "lower"),
    ("surrogate.dead_facets", "count", "lower"),
    ("surrogate.bundle_bytes", "B", "lower"),
    ("surrogate.accuracy", "ratio", "higher"),
    ("surrogate.specificity", "ratio", "higher"),
    ("surrogate.pcc_rmse_max", "pu", "lower"),
    ("acopf.assemble_standard_ms", "ms", "lower"),
    ("acopf.std_iters", "iter", "lower"),
    ("acopf.std_ms_per_iter", "ms", "lower"),
    ("acopf.std_nx", "count", "lower"),
    ("acopf.std_eq_rows", "count", "lower"),
    ("acopf.std_ineq_rows", "count", "lower"),
    ("ppopf.assemble_pp_ms", "ms", "lower"),
    ("ppopf.solve_pp_ms", "ms", "lower"),
    ("ppopf.pp_iters", "iter", "lower"),
    ("ppopf.pp_ms_per_iter", "ms", "lower"),
    ("ppopf.pp_ineq_rows", "count", "lower"),
    ("ppopf.verify_solve_ms", "ms", "lower"),
    ("ppopf.verify_overhead_ms", "ms", "lower"),
    ("ppopf.pcc_flow_error_mw", "MW", "lower"),
    ("ppopf.pcc_angle_spread_deg", "deg", "lower"),
    ("bench.gap_pct_mean", "%", "lower"),
    ("bench.random_costs_ms", "ms", "lower"),
    ("bench.trial_ms", "ms", "lower"),
] + [(f"{m}.self_ms", "ms", "lower") for m in MODULES + ("perfbench",)] + [
    ("trace.untraced_op_ms", "ms", "lower"),
    ("trace.traced_op_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def install(tracer: Tracer) -> None:
    for module, attr, hook in TARGETS:
        tracer.wrap(importlib.import_module(f"gridveil.{module}"), attr, hook)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _solve_stats(tracer: Tracer, caller: str):
    """(mean iterations, ms per iteration) of solve_nlp called by ``caller``."""
    spans = tracer.select("acopf.solve_nlp", parent=caller)
    iters = [s[TAG] for s in spans]
    secs = sum(s[END] - s[START] for s in spans)
    total = sum(iters)
    return _mean(iters), (1e3 * secs / total if total else 0.0)


def per_layer(tracer: Tracer, facts: dict, untraced_s: list, traced_s: list) -> dict:
    """Every PER_LAYER metric from the spans, counters and workload facts."""

    def ms(name, **kw):
        return 1e3 * _mean(tracer.durations(name, **kw))

    def us(name, **kw):
        return 1e6 * _mean(tracer.durations(name, **kw))

    c = tracer.counts
    n_newton = len(tracer.durations("powerflow.newton_pf"))
    rows = c["sampling.rows"]
    trains = tracer.durations("surrogate.train_fr")
    epochs = c["surrogate.epochs_run"]
    batch_calls = len(tracer.durations("surrogate.loss_and_grad", parent="surrogate.train_fr"))
    std_iters, std_ms_iter = _solve_stats(tracer, "acopf.solve_standard")
    pp_iters, pp_ms_iter = _solve_stats(tracer, "ppopf.solve_pp")
    verify_solve = facts.get("verify_solve_ms", 0.0)
    self_s, n_ops = tracer.self_time_by_module(OP_SPAN)

    out = {
        "netmodel.bundled_case_ms": ms("netmodel.bundled_case"),
        "netmodel.build_integrated_ms": ms("netmodel.build_integrated"),
        "netmodel.ybus_ms": ms("netmodel.build_admittance"),
        "netmodel.branch_admittances_us": us("netmodel.branch_admittances"),
        "powerflow.newton_pf_us": us("powerflow.newton_pf"),
        "powerflow.newton_iters": c["powerflow.newton_iters"] / n_newton if n_newton else 0.0,
        "powerflow.check_limits_us": us("powerflow.check_limits"),
        "powerflow.converged_share": c["powerflow.converged"] / n_newton if n_newton else 0.0,
        "sampling.lhs_ms": ms("sampling.lhs"),
        "sampling.chart_mask_ms": ms("sampling.chart_mask"),
        "sampling.flow_share": (
            len(tracer.durations("powerflow.ds_response", parent="sampling.generate_dataset")) / rows
            if rows
            else 0.0
        ),
        "sampling.feasible_share": c["sampling.feasible"] / rows if rows else 0.0,
        "sampling.write_csv_ms": ms("sampling.write_csv"),
        "sampling.read_csv_ms": ms("sampling.read_csv"),
        "surrogate.train_fr_s": _mean(trains),
        "surrogate.epoch_ms": 1e3 * sum(trains) / epochs if epochs else 0.0,
        "surrogate.loss_and_grad_us": us("surrogate.loss_and_grad"),
        "surrogate.batches": (batch_calls - epochs) / len(trains) if trains else 0.0,
        "surrogate.epochs_run": epochs / len(trains) if trains else 0.0,
        "surrogate.fit_quadratic_ms": ms("surrogate.fit_quadratic"),
        "surrogate.export_bundle_ms": ms("surrogate.export_bundle"),
        "surrogate.import_bundle_ms": ms("surrogate.import_bundle"),
        "acopf.assemble_standard_ms": ms("acopf.assemble_standard"),
        "acopf.std_iters": std_iters,
        "acopf.std_ms_per_iter": std_ms_iter,
        "acopf.std_nx": c["acopf.std_nx"],
        "acopf.std_eq_rows": c["acopf.std_eq_rows"],
        "acopf.std_ineq_rows": c["acopf.std_ineq_rows"],
        "ppopf.assemble_pp_ms": ms("ppopf.assemble_pp"),
        "ppopf.solve_pp_ms": ms("ppopf.solve_pp"),
        "ppopf.pp_iters": pp_iters,
        "ppopf.pp_ms_per_iter": pp_ms_iter,
        "ppopf.pp_ineq_rows": c["ppopf.pp_ineq_rows"],
        "ppopf.verify_solve_ms": verify_solve,
        "ppopf.verify_overhead_ms": (
            ms("ppopf.verify_dispatch") - verify_solve if verify_solve else 0.0
        ),
        "bench.random_costs_ms": ms("bench.random_costs"),
        "trace.untraced_op_ms": 1e3 * statistics.median(untraced_s) if untraced_s else 0.0,
        "trace.traced_op_ms": 1e3 * statistics.median(traced_s) if traced_s else 0.0,
    }
    for case in ("ds1", "ds2", "ds3"):
        out[f"powerflow.ds_response_us.{case}"] = us("powerflow.ds_response", tag=case)
    for module in MODULES + ("perfbench",):
        out[f"{module}.self_ms"] = 1e3 * self_s.get(module, 0.0) / n_ops if n_ops else 0.0
    if untraced_s and traced_s:
        ratio = statistics.median(traced_s) / statistics.median(untraced_s)
        out["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    else:
        out["trace.overhead_pct"] = 0.0
    for key in (
        "surrogate.dead_facets",
        "surrogate.bundle_bytes",
        "surrogate.accuracy",
        "surrogate.specificity",
        "surrogate.pcc_rmse_max",
        "ppopf.pcc_flow_error_mw",
        "ppopf.pcc_angle_spread_deg",
        "bench.gap_pct_mean",
        "bench.trial_ms",
    ):
        out[key] = facts.get(key, 0.0)
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
