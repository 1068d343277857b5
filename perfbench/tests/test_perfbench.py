"""The benchmark's own tests: each check fails when it should, spans nest.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Inputs are kept small; the dispatch fixture builds narrow bundles so one
paired trial takes about a second.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import workloads
from gridveil import netmodel, powerflow, sampling
from spans import END, NAME, PARENT, START, Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# ---------------------------------------------------------------- labelling


@pytest.fixture(scope="module")
def labelled(tmp_path_factory):
    """(case, dataset, re-read dataset, oracle) for ds1 and ds3."""
    out = {}
    for name in ("ds1", "ds3"):
        case = netmodel.bundled_case(name)
        data = sampling.generate_dataset(case, 120, seed=11, jobs=1)
        path = tmp_path_factory.mktemp(name) / "rows.csv"
        sampling.write_csv(path, data)
        out[name] = (case, data, sampling.read_csv(path), checks.DsOracle(case))
    return out


def _copy(data):
    return dataclasses.replace(
        data, x=data.x.copy(), label=data.label.copy(),
        p_pcc=data.p_pcc.copy(), q_pcc=data.q_pcc.copy(),
    )


def test_labelling_checks_pass_on_program_output(labelled):
    for case, data, reread, oracle in labelled.values():
        assert checks.check_dataset(case, data, reread, oracle, 20) == []


def test_flipped_feasible_label_is_caught(labelled):
    case, data, reread, oracle = labelled["ds1"]
    bad = _copy(data)
    i = int(np.flatnonzero(bad.label == 0)[0])
    bad.label[i] = 1
    problems = checks.check_dataset(case, bad, bad, oracle, len(bad.x))
    assert any(f"row {i} labelled 1" in p for p in problems)


def test_row_outside_chart_labelled_feasible_is_caught(labelled):
    case, data, _, oracle = labelled["ds3"]
    bad = _copy(data)
    outside = ~sampling.chart_mask(sampling.sample_space(case), bad.x)
    i = int(np.flatnonzero(outside)[0])
    bad.label[i] = 0
    bad.p_pcc[i] = bad.q_pcc[i] = 0.0
    problems = checks.check_dataset(case, bad, bad, oracle, 0)
    assert any("outside its DG chart" in p for p in problems)


def test_unstratified_column_is_caught(labelled):
    case, data, _, oracle = labelled["ds1"]
    bad = _copy(data)
    bad.x[1, 0] = bad.x[0, 0]
    assert any("stratum" in p for p in checks.check_dataset(case, bad, bad, oracle, 0))


def test_negative_losses_and_wrong_flow_are_caught(labelled):
    case, data, _, oracle = labelled["ds1"]
    bad = _copy(data)
    i = int(np.flatnonzero(bad.label == 0)[0])
    bad.p_pcc[i] += 5.0  # exports more than the DGs make
    problems = checks.check_dataset(case, bad, bad, oracle, len(bad.x))
    assert any("negative active losses" in p for p in problems)
    assert any(f"row {i} PCC flow off" in p for p in problems)


def test_csv_round_trip_difference_is_caught(labelled):
    case, data, reread, oracle = labelled["ds1"]
    bad = _copy(reread)
    bad.x[3, 1] = np.nextafter(bad.x[3, 1], np.inf)
    assert any("read_csv" in p for p in checks.check_dataset(case, data, bad, oracle, 0))


def test_independent_flow_matches_the_program():
    case = netmodel.bundled_case("ds2")
    x = np.array([1.0, 1.0] + [1.0] * 5 + [0.5] * 5)
    resp = powerflow.ds_response(case, x[:2], x[2:7], x[7:])
    ok, margin, p, q = checks.DsOracle(case).response(x)
    assert ok and resp.converged
    assert np.max(np.abs(p - resp.p_pcc)) < 1e-8
    assert np.max(np.abs(q - resp.q_pcc)) < 1e-8


# ---------------------------------------------------------------- offer


@pytest.fixture(scope="module")
def offer(tmp_path_factory):
    case = netmodel.bundled_case("ds1")
    data = sampling.generate_dataset(case, 400, seed=5, jobs=1)
    path = tmp_path_factory.mktemp("offer") / "bundle.json"
    o = workloads.build_offer(case, data, 8, dict(lr=3e-3, epochs=60), 3, path)
    return case, o


def _check_offer(case, o, path=None, **over):
    args = dict(o, **over)
    return checks.check_offer(
        case, path or args["path"], args["built"], args["imported"], args["train"],
        args["test"], args["metrics"], 500, np.random.default_rng(0),
    )


def test_offer_checks_pass_on_program_output(offer):
    case, o = offer
    assert _check_offer(case, o) == []


def test_changed_bundle_number_is_caught(offer, tmp_path):
    case, o = offer
    doc = json.loads(Path(o["path"]).read_text())
    doc["fr"]["W"][0][0] += 0.5
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    from gridveil import surrogate

    problems = _check_offer(case, o, path=path, imported=surrogate.import_bundle(path))
    assert any("does not reproduce" in p for p in problems)


def test_forward_pass_disagreement_is_caught(offer):
    case, o = offer
    imported = o["imported"]
    fr = dataclasses.replace(imported.fr, b=imported.fr.b + 1.0)
    problems = _check_offer(case, o, imported=dataclasses.replace(imported, fr=fr))
    assert any("forward pass disagrees" in p for p in problems)


def test_perturbed_quadratic_fails_normal_equations(offer):
    case, o = offer
    built = o["built"]
    p = built.pcc[0]["p"]
    moved = dataclasses.replace(p, c_quad=p.c_quad + 1e-4 * (1 + abs(p.c_quad)))
    pcc = [dict(built.pcc[0], p=moved)] + built.pcc[1:]
    problems = _check_offer(case, o, built=dataclasses.replace(built, pcc=pcc))
    assert any("normal equations" in p for p in problems)


def test_bundle_carrying_an_impedance_is_caught(offer, tmp_path):
    case, o = offer
    doc = json.loads(Path(o["path"]).read_text())
    doc["fr"]["b"][0] = case.branches[0].x
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(doc))
    assert any("shares" in p for p in _check_offer(case, o, path=path))


def test_classifier_no_better_than_majority_is_caught(offer):
    case, o = offer
    m = dataclasses.replace(o["metrics"], accuracy=0.5)
    assert any("majority" in p for p in _check_offer(case, o, metrics=m))


# ---------------------------------------------------------------- dispatch


@pytest.fixture(scope="module")
def trial(tmp_path_factory):
    plan = {
        "ds1": dict(rows=500, n_h=8, cfg=dict(lr=3e-3, epochs=60)),
        "ds2": dict(rows=600, n_h=30, cfg=dict(lr=1e-2, epochs=40)),
        "ds3": dict(rows=600, n_h=30, cfg=dict(lr=1e-2, epochs=40)),
    }
    saved = workloads.BUNDLE_PLAN
    workloads.BUNDLE_PLAN = plan
    try:
        wl = workloads.Dispatch()
        state = wl.setup(4, str(tmp_path_factory.mktemp("dispatch")))
    finally:
        workloads.BUNDLE_PLAN = saved
    y, _, _ = checks.stamp_ybus(state["integrated"])
    return state, y, wl.op(state, 0)


def _check_trial(state, y, t, **over):
    t = dataclasses.replace(t, **over)
    return checks.check_trial(state["integrated"], y, t.bundles, t.std, t.pp, t.report)


def test_trial_checks_pass_on_program_output(trial):
    state, y, t = trial
    assert _check_trial(state, y, t) == []


def test_dg_moved_off_its_facets_is_caught(trial):
    state, y, t = trial
    x_ds = {ds: xj.copy() for ds, xj in t.pp.x_ds.items()}
    b = t.bundles[2]
    x_ds[2][b.n_pcc] = b.x_max[b.n_pcc] + 10.0
    pp = dataclasses.replace(t.pp, x_ds=x_ds)
    assert any("violates a facet" in p for p in _check_trial(state, y, t, pp=pp))


def test_dg_moved_outside_its_chart_is_caught(trial):
    state, y, t = trial
    x_ds = {ds: xj.copy() for ds, xj in t.pp.x_ds.items()}
    b = t.bundles[3]
    x_ds[3][b.n_pcc] = -1.0  # negative DG output lies outside every ds3 chart
    pp = dataclasses.replace(t.pp, x_ds=x_ds)
    assert any("outside its chart" in p for p in _check_trial(state, y, t, pp=pp))


def test_dropped_verification_is_caught(trial):
    state, y, t = trial
    assert _check_trial(state, y, t, report=None) == ["dispatch was not verified"]


def test_infeasible_verdict_and_cheap_cost_are_caught(trial):
    state, y, t = trial
    report = dataclasses.replace(
        t.report, feasible_true=False, verified_cost=t.std.objective * 0.99
    )
    problems = _check_trial(state, y, t, report=report)
    assert any("verified infeasible" in p for p in problems)
    assert any("below the standard optimum" in p for p in problems)


def test_unbalanced_standard_solution_is_caught(trial):
    state, y, t = trial
    std = dataclasses.replace(t.std, p_g=t.std.p_g + np.eye(len(t.std.p_g))[0])
    assert any("bus balance" in p for p in _check_trial(state, y, t, std=std))


def test_non_optimal_solve_is_reported(trial):
    state, y, t = trial
    std = dataclasses.replace(t.std, status="iteration_limit")
    assert _check_trial(state, y, t, std=std)[0].startswith("standard OPF iteration_limit")


# ---------------------------------------------------------------- tracing


def test_spans_nest_and_wrappers_come_off():
    case = netmodel.bundled_case("ds1")
    original = powerflow.newton_pf
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("perfbench.op"):
            powerflow.ds_response(case, np.array([1.0]), np.array([0.5]), np.array([0.2]))
    finally:
        tracer.unwrap_all()
    assert powerflow.newton_pf is original

    names = [tracer.names[s[NAME]] for s in tracer.spans]
    assert names[:2] == ["perfbench.op", "powerflow.ds_response"]
    parent_of = {
        tracer.names[s[NAME]]: tracer.names[tracer.spans[s[PARENT]][NAME]]
        for s in tracer.spans
        if s[PARENT] >= 0
    }
    assert parent_of["powerflow.ds_response"] == "perfbench.op"
    assert parent_of["powerflow.newton_pf"] == "powerflow.ds_response"
    assert parent_of["powerflow.check_limits"] == "powerflow.ds_response"
    assert parent_of["powerflow.line_flows"] == "powerflow.check_limits"
    for s in tracer.spans:
        assert s[START] <= s[END]
        if s[PARENT] >= 0:
            p = tracer.spans[s[PARENT]]
            assert p[START] <= s[START] and s[END] <= p[END]
    assert tracer.counts["powerflow.converged"] == 1
    self_s, n_ops = tracer.self_time_by_module("perfbench.op")
    total = tracer.spans[0][END] - tracer.spans[0][START]
    assert n_ops == 1 and abs(sum(self_s.values()) - total) < 1e-9


def test_absent_name_is_reported_not_fatal():
    tracer = Tracer()
    assert tracer.wrap(powerflow, "no_such_function") is False
    assert tracer.absent == ["powerflow.no_such_function"]
    metrics = layers.per_layer(tracer, {}, [], [])
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}


# ---------------------------------------------------------------- the command


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ds-labelling", "--seed", "3", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    if trace == "0":  # end-to-end times are scaled by the run's speed factor
        saved = json.loads((BENCH / "out" / "ds-labelling-seed3-trace0.json").read_text())
        op_ms = 1e3 * np.median(saved["op_s"]) * saved["speed_factor"]
        assert result["metrics"]["op_ms"]["value"] == pytest.approx(op_ms, rel=1e-12)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
