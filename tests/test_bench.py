import json
from dataclasses import asdict

import numpy as np
import pytest

from gridveil.bench import (
    COST_A_RANGE,
    COST_B_RANGE,
    BenchReport,
    TrialRecord,
    emit_histogram,
    random_costs,
    report_from_json,
    report_to_json,
    run_benchmark,
    summarize,
)


@pytest.fixture(scope="module")
def report2(integrated, ts30, quick_bundles):
    return run_benchmark(integrated, ts30, quick_bundles, n_trials=2, seed=77, jobs=1)


def stable_fields(trial):
    d = asdict(trial)
    d.pop("std_time")
    d.pop("pp_time")
    return d


# ------------------------------------------------------------- random_costs


def test_random_costs_shape_and_ranges(integrated):
    sets = random_costs(integrated, 5, seed=1)
    assert len(sets) == 5
    for costs in sets:
        assert len(costs) == integrated.n_gen == 16
        for c in costs:
            assert COST_A_RANGE[0] <= c.a <= COST_A_RANGE[1]
            assert COST_B_RANGE[0] <= c.b <= COST_B_RANGE[1]
            assert c.c == 0.0


def test_random_costs_seeding(integrated):
    a = random_costs(integrated, 3, seed=9)
    b = random_costs(integrated, 3, seed=9)
    c = random_costs(integrated, 3, seed=10)
    assert a == b
    assert a != c
    # prefix stability: more trials never reshuffle earlier draws
    assert random_costs(integrated, 5, seed=9)[:3] == a


# ------------------------------------------------------------ run_benchmark


def test_benchmark_requires_merge_metadata(ts30, quick_bundles):
    with pytest.raises(ValueError, match="merge metadata"):
        run_benchmark(ts30, ts30, quick_bundles, n_trials=1, seed=0)


def test_benchmark_propagates_programming_errors(integrated, ts30, quick_bundles):
    with pytest.raises(AttributeError):
        run_benchmark(integrated, ts30, quick_bundles, n_trials=1, seed=1, opts="not-options")


def test_trials_complete_and_ordered(report2):
    assert [t.trial_id for t in report2.trials] == [0, 1]
    for t in report2.trials:
        assert t.statuses["std"] == "optimal"
        assert t.statuses["pp"] == "optimal"
        assert t.feasible_true
        assert np.isfinite(t.gap_pct)
        assert t.std_time > 0 and t.pp_time > 0
        assert t.pcc_flow_error < 1.0


def test_verified_cost_never_beats_standard(report2):
    # the re-solve optimizes with DGs pinned, a subset of the standard's room
    for t in report2.trials:
        floor = t.std_objective * (1 - 1e-6) - 1e-6
        assert t.pp_verified_objective >= floor


def test_benchmark_determinism(integrated, ts30, quick_bundles, report2):
    again = run_benchmark(integrated, ts30, quick_bundles, n_trials=2, seed=77, jobs=1)
    assert [stable_fields(t) for t in again.trials] == [
        stable_fields(t) for t in report2.trials
    ]


def test_benchmark_worker_count_invariance(integrated, ts30, quick_bundles, report2):
    two = run_benchmark(integrated, ts30, quick_bundles, n_trials=2, seed=77, jobs=2)
    assert [stable_fields(t) for t in two.trials] == [
        stable_fields(t) for t in report2.trials
    ]


def test_meta_records_the_run(report2):
    assert report2.meta["n_trials"] == 2
    assert report2.meta["seed"] == 77
    assert report2.meta["integrated_case"] == "ts30+ds1+ds2+ds3"


# ---------------------------------------------------------------- summarize


def test_summary_recomputes_exactly(report2):
    assert summarize(report2) == report2.summary
    assert summarize(report2.trials) == report2.summary
    assert report2.summary["n_trials"] == 2
    assert report2.summary["n_completed"] == 2
    assert report2.summary["feasibility_ratio_pct"] == 100.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError, match="no trials"):
        summarize([])


def fake_trial(trial_id, gap, feasible=True, error=None):
    ok = error is None
    return TrialRecord(
        trial_id=trial_id,
        std_objective=100.0 if ok else float("nan"),
        pp_raw_objective=100.0 + gap if ok else float("nan"),
        pp_verified_objective=100.0 + gap if ok else float("nan"),
        std_time=1.0 if ok else float("nan"),
        pp_time=0.5 if ok else float("nan"),
        feasible_true=feasible and ok,
        statuses={"std": "optimal", "pp": "optimal"} if ok else {"error": error},
        gap_pct=gap if ok else float("nan"),
    )


def test_summary_with_failed_trials():
    trials = [
        fake_trial(0, 1.0),
        fake_trial(1, 3.0),
        fake_trial(2, 0.0, error="RuntimeError: solver blew up"),
    ]
    s = summarize(trials)
    assert s["n_trials"] == 3
    assert s["n_completed"] == 2  # the failed trial carries no gap
    assert s["feasibility_ratio_pct"] == pytest.approx(200.0 / 3)
    assert s["mean_gap_pct"] == pytest.approx(2.0)
    assert s["max_gap_pct"] == 3.0
    assert s["count_gap_over_2pct"] == 1
    assert s["mean_time_delta_s"] == pytest.approx(-0.5)


# ------------------------------------------------------- histogram and json


def test_histogram_idempotent_and_complete(report2, tmp_path):
    p1, p2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    emit_histogram(report2, bins=4, path=p1)
    emit_histogram(report2, bins=4, path=p2)
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().splitlines()
    assert lines[0] == "metric,bin_lo,bin_hi,count"
    counts = {}
    for line in lines[1:]:
        metric, lo, hi, count = line.split(",")
        float(lo), float(hi)
        counts[metric] = counts.get(metric, 0) + int(count)
    assert counts == {"gap_pct": 2, "time_delta_s": 2}


def test_histogram_skips_unfinished_metrics(tmp_path):
    report = BenchReport(
        trials=[fake_trial(0, 0.0, error="boom")], summary={}, meta={}
    )
    path = tmp_path / "h.csv"
    emit_histogram(report, bins=3, path=path)
    assert path.read_text() == "metric,bin_lo,bin_hi,count\n"


def test_report_json_round_trip(report2, tmp_path):
    path = tmp_path / "r.json"
    report_to_json(report2, path, command="gridveil bench --seed 77")
    back = report_from_json(path)
    assert back.summary == report2.summary
    assert back.meta["command"] == "gridveil bench --seed 77"
    assert back.meta["seed"] == 77
    key = lambda t: json.dumps(asdict(t), sort_keys=True)
    assert [key(t) for t in back.trials] == [key(t) for t in report2.trials]
