"""Release gates for the whole pipeline, one test per numbered criterion.

These run the production path at working scale: full-size training sets,
disclosure-grade classifiers, the 100-trial cost benchmark.  Expensive
artifacts are session fixtures shared across gates, and their build times
land in WALL so the gates with a runtime budget can assert it.  Every test
finishes with a single PASS line carrying the measured figures (visible
under pytest -s or on failure).
"""

import json
import time

import numpy as np
import pytest

from gridveil.acopf import assemble_standard, solve_nlp
from gridveil.bench import run_benchmark
from gridveil.netmodel import CostPoly
from gridveil.powerflow import newton_pf
from gridveil.sampling import generate_dataset, lhs, sample_space, split_dataset
from gridveil.surrogate import (
    BundleSchemaError,
    PolytopeModel,
    TrainConfig,
    classification_metrics,
    export_bundle,
    fit_quadratic,
    loss_and_grad,
    offer_bundle,
    pcc_targets,
    regression_metrics,
    train_fr,
    validate_bundle_dict,
)

from oracles import (
    bfs_powerflow,
    brute_force_opf_3bus,
    dense_derivatives,
    dense_opf_derivatives,
    fd_jacobian,
    kkt_report,
    nn_forward,
    rel_err,
)

WALL: dict[str, float] = {}


def _timed(key, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    WALL[key] = time.perf_counter() - t0
    return out


# ------------------------------------------------------------ shared artifacts


@pytest.fixture(scope="session")
def ds1_split(ds1):
    data = _timed("ds1_sample", generate_dataset, ds1, 20_000, seed=42, jobs=1)
    return split_dataset(data, 0.2, seed=7)


@pytest.fixture(scope="session")
def ds2_split(ds2):
    data = _timed("ds2_sample", generate_dataset, ds2, 100_000, seed=42, jobs=1)
    return split_dataset(data, 0.2, seed=7)


@pytest.fixture(scope="session")
def ds3_split(ds3):
    data = _timed("ds3_sample", generate_dataset, ds3, 100_000, seed=43, jobs=1)
    return split_dataset(data, 0.2, seed=7)


@pytest.fixture(scope="session")
def ds1_model(ds1_split):
    train, _ = ds1_split
    cfg = TrainConfig(lr=3e-3, seed=3, restarts=4)
    return _timed("ds1_train", train_fr, train, n_h=20, w_10=1.0, w_01=1.0, hyper=cfg)


@pytest.fixture(scope="session")
def ds2_model(ds2_split):
    train, _ = ds2_split
    cfg = TrainConfig(lr=3e-3, seed=3)
    return _timed("ds2_train", train_fr, train, n_h=1000, w_10=2.0, w_01=1.0, hyper=cfg)


@pytest.fixture(scope="session")
def ds3_model(ds3_split):
    train, _ = ds3_split
    cfg = TrainConfig(lr=1e-2, lr_min=1e-4, epochs=800, patience=10**9, seed=3)
    return _timed("ds3_train", train_fr, train, n_h=1000, w_10=2.0, w_01=1.0, hyper=cfg)


@pytest.fixture(scope="session")
def pcc_regressors(ds1, ds2, ds3, ds1_split, ds2_split, ds3_split):
    """{ds_id: (pcc entry list, {model key: test rmse})}, fit times in WALL."""
    cases = {1: ds1, 2: ds2, 3: ds3}
    splits = {1: ds1_split, 2: ds2_split, 3: ds3_split}
    out = {}
    for k, case in cases.items():
        train, test = splits[k]
        ftr, fte = train.label == 0, test.label == 0
        tr_targets = dict(zip("pq", pcc_targets(train, case.base_mva)))
        te_targets = dict(zip("pq", pcc_targets(test, case.base_mva)))
        entries, rmses = [], {}
        for u in range(train.n_pcc):
            entry = {}
            for comp, name in (("p", "active"), ("q", "reactive")):
                model = _timed(
                    f"fit_ds{k}_{comp}{u + 1}",
                    fit_quadratic,
                    train.x[ftr],
                    tr_targets[comp][ftr, u],
                    label=name,
                    pcc_index=u,
                )
                entry[comp] = model
                rmses[f"ds{k} pcc{u + 1} {comp}"] = regression_metrics(
                    model, test.x[fte], te_targets[comp][fte, u]
                )[0]
            entries.append(entry)
        out[k] = (entries, rmses)
    return out


@pytest.fixture(scope="session")
def bench_bundles(ds1, ds2, ds3, ds1_split, ds2_model, ds3_model, pcc_regressors):
    # the DS1 market bundle is retrained with the safety weighting the other
    # two use; the criterion-3 model keeps the plain weighting it is graded on
    train1, _ = ds1_split
    fr1 = train_fr(
        train1, n_h=20, w_10=2.0, w_01=1.0, hyper=TrainConfig(lr=3e-3, seed=3, restarts=4)
    )
    cases = {1: ds1, 2: ds2, 3: ds3}
    models = {1: fr1, 2: ds2_model, 3: ds3_model}
    cost = CostPoly(0.02, 20.0)
    return {
        k: offer_bundle(case, models[k], pcc_regressors[k][0], [cost] * case.n_gen)
        for k, case in cases.items()
    }


@pytest.fixture(scope="session")
def bench_report(integrated, ts30, bench_bundles):
    return _timed(
        "bench", run_benchmark, integrated, ts30, bench_bundles, n_trials=100, seed=1, jobs=1
    )


# ---------------------------------------------------------------------- gates


def test_c01_newton_matches_sweep_on_radial_33bus(ieee33):
    t0 = time.perf_counter()
    res = newton_pf(ieee33, tol=1e-12)
    wall = time.perf_counter() - t0
    assert res.converged
    dev = float(np.max(np.abs(res.v - bfs_powerflow(ieee33, v_root=1.0))))
    assert dev < 1e-8
    assert wall < 1.0
    print(f"PASS 1: newton vs sweep, max |dv| {dev:.2e} p.u., {wall:.3f}s")


def test_c02_toy_opf_matches_grid_oracle(toy3):
    t0 = time.perf_counter()
    cost, _, _ = brute_force_opf_3bus(toy3, step=1e-3)
    problem = assemble_standard(toy3)
    sol = solve_nlp(problem)
    wall = time.perf_counter() - t0
    assert sol.optimal
    gap = abs(sol.objective - cost) / cost
    assert gap < 1e-3
    rep = kkt_report(problem, sol)
    assert rep.ok(1e-6)
    assert wall < 10.0
    print(
        f"PASS 2: objective {sol.objective:.4f} vs grid {cost:.4f} "
        f"(rel {gap:.1e}), kkt max {max(rep.stationarity, rep.primal_eq):.1e}, {wall:.1f}s"
    )


def test_c03_classifier_quality_ds1(ds1_model, ds1_split):
    _, test = ds1_split
    m = classification_metrics(ds1_model, test)
    wall = WALL["ds1_sample"] + WALL["ds1_train"]
    assert m.accuracy >= 0.990
    assert m.specificity >= 0.995
    assert wall < 300.0
    print(
        f"PASS 3: ds1 accuracy {m.accuracy:.4f}, specificity {m.specificity:.4f} "
        f"on {m.n} test rows, {wall:.0f}s"
    )


def test_c04_classifier_quality_ds2_ds3(ds2_model, ds3_model, ds2_split, ds3_split):
    lines = []
    for name, model, (_, test) in (
        ("ds2", ds2_model, ds2_split),
        ("ds3", ds3_model, ds3_split),
    ):
        m = classification_metrics(model, test)
        assert m.specificity >= 0.94, name
        assert m.accuracy >= 0.90, name
        lines.append(f"{name} acc {m.accuracy:.4f} spec {m.specificity:.4f}")
    wall = sum(WALL[k] for k in ("ds2_sample", "ds2_train", "ds3_sample", "ds3_train"))
    assert wall < 1800.0
    print(f"PASS 4: {'; '.join(lines)}, {wall:.0f}s")


def test_c05_pcc_regression_quality(pcc_regressors):
    rmses = {}
    for _, (_, table) in pcc_regressors.items():
        rmses.update(table)
    assert len(rmses) == 10
    for key, rmse in rmses.items():
        assert rmse <= 1.5e-3, key
    fit_walls = [w for k, w in WALL.items() if k.startswith("fit_ds")]
    assert max(fit_walls) < 60.0
    worst = max(rmses, key=rmses.get)
    print(
        f"PASS 5: {len(rmses)} quadratic models, worst test rmse "
        f"{rmses[worst]:.2e} p.u. ({worst}), slowest fit {max(fit_walls):.1f}s"
    )


def test_c06_benchmark_feasibility_and_cost_gap(bench_report):
    s = bench_report.summary
    assert s["n_trials"] == 100
    assert s["feasibility_ratio_pct"] == 100.0
    assert s["mean_gap_pct"] <= 2.0
    assert WALL["bench"] < 7200.0
    # time delta is hardware-bound: reported, not asserted
    print(
        f"PASS 6: feasibility {s['feasibility_ratio_pct']:.1f}%, mean gap "
        f"{s['mean_gap_pct']:.3f}% (max {s['max_gap_pct']:.3f}%, "
        f"{s['n_completed']} verified), mean time delta "
        f"{s['mean_time_delta_s']:+.3f}s, {WALL['bench']:.0f}s total"
    )


def test_c07_polytope_equals_network_on_random_points(
    ds1, ds2, ds3, ds1_model, ds2_model, ds3_model
):
    rng = np.random.default_rng(2026)
    total = 0
    for case, model in ((ds1, ds1_model), (ds2, ds2_model), (ds3, ds3_model)):
        space = sample_space(case)
        span = space.x_max - space.x_min
        # chunked: the 1000-facet models would otherwise burn 800 MB per product
        for _ in range(5):
            pts = rng.uniform(
                space.x_min - 0.1 * span, space.x_max + 0.1 * span, (20_000, space.n_x)
            )
            f, y = nn_forward(model, pts)
            by_network = y > 0.5
            by_facets = np.any(pts @ model.a_fr.T - model.b_fr > 0.0, axis=1)
            disagree = (by_network != by_facets) & (np.abs(f) > 1e-9)
            assert int(disagree.sum()) == 0
            total += len(pts)
    print(f"PASS 7: facet route == forward pass on {total} points, 0 off-band disagreements")


def test_c08_gradient_audits(toy3, ts30, integrated):
    rng = np.random.default_rng(8)
    model = PolytopeModel(rng.normal(size=(8, 5)), rng.normal(size=8))
    theta0 = np.concatenate([model.w.ravel(), model.b])

    def loss_at(theta, x, y):
        m = PolytopeModel(theta[:40].reshape(8, 5), theta[40:])
        return np.array([loss_and_grad(m, x, y, 2.0, 1.0)[0]])

    def worst_bce_err(draws, rows):
        worst, checked = 0.0, 0
        while checked < 50:
            x = draws.uniform(-2.0, 2.0, (rows, 5))
            o = np.sort(x @ model.w.T + model.b, axis=1)
            # ties break the max derivative, the clamp breaks it beyond +-30
            if np.any(o[:, -1] - o[:, -2] < 1e-4) or np.any(np.abs(o[:, -1]) > 25.0):
                continue
            y = draws.integers(0, 2, rows).astype(float)
            _, grad = loss_and_grad(model, x, y, 2.0, 1.0)
            analytic = np.concatenate([grad[:, :5].ravel(), grad[:, 5]])
            fd = fd_jacobian(lambda t: loss_at(t, x, y), theta0, h=1e-6)[0]
            worst = max(worst, rel_err(fd, analytic))
            checked += 1
        return worst

    # one-point batches go to BLAS's matrix-vector kernel, whose last-bit
    # rounding the finite difference reads, two-row batches to its matrix
    # kernel; the latter's own draws leave the Jacobian audit's points as they were
    worst_bce = worst_bce_err(rng, 1)
    worst_pair = worst_bce_err(np.random.default_rng(80), 2)
    assert max(worst_bce, worst_pair) < 1e-5

    # the finite difference reads rounding, eps |g| / h, so the analytic
    # Jacobians are also held to the dense oracle, which a reordered sum
    # cannot move
    worst_jac = 0.0
    worst_oracle = 0.0
    for case in (toy3, ts30, integrated):
        problem = assemble_standard(case)
        lb, ub = problem.lb, problem.ub
        span = ub - lb
        lo = np.where(np.isfinite(span), lb + 0.05 * span, lb)
        hi = np.where(np.isfinite(span), ub - 0.05 * span, ub)
        for _ in range(20):
            x = lo + rng.uniform(size=problem.n) * (hi - lo)
            g, jg, h, jh = dense_derivatives(problem, x)
            worst_jac = max(
                worst_jac, rel_err(fd_jacobian(lambda z: problem.eq(z)[0], x, h=1e-6), jg)
            )
            if len(h):
                worst_jac = max(
                    worst_jac,
                    rel_err(fd_jacobian(lambda z: problem.ineq(z)[0], x, h=1e-6), jh),
                )
            want = dense_opf_derivatives(case, x, 1.0, np.zeros(len(g)), np.zeros(len(h)))
            for got, ref in ((jg, want[0]), (jh, want[1])):
                if len(got):
                    diff = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                    worst_oracle = max(worst_oracle, diff)
    assert worst_jac < 1e-5
    assert worst_oracle <= 1e-12
    print(
        f"PASS 8: bce grad rel err {worst_bce:.1e} at 50 points, "
        f"{worst_pair:.1e} at 50 two-row batches, "
        f"constraint jacobian rel err {worst_jac:.1e} at 20 points x 3 cases "
        f"(analytic vs dense oracle {worst_oracle:.1e})"
    )


def test_c09_lhs_one_sample_per_stratum():
    rng = np.random.default_rng(9)
    combos = 0
    for n in (4, 100, 1000):
        for d in (1, 3, 12):
            lo = rng.uniform(-5.0, 0.0, d)
            hi = lo + rng.uniform(0.5, 4.0, d)
            x = lhs(n, lo, hi, rng)
            assert x.shape == (n, d)
            assert np.all(x >= lo) and np.all(x <= hi)
            for j in range(d):
                strata = np.floor((x[:, j] - lo[j]) / (hi[j] - lo[j]) * n).astype(int)
                assert np.array_equal(np.sort(strata), np.arange(n)), (n, d, j)
            combos += 1
    print(f"PASS 9: exact stratification for {combos} (n, d) combinations")


def _walk(node, keys, numbers):
    if isinstance(node, dict):
        for k, v in node.items():
            keys.add(k)
            _walk(v, keys, numbers)
    elif isinstance(node, (list, tuple)):
        for v in node:
            _walk(v, keys, numbers)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        numbers.add(float(node))


def test_c10_bundles_carry_no_network_data(tmp_path, bench_bundles, ds1, ds2, ds3):
    cases = {1: ds1, 2: ds2, 3: ds3}
    forbidden_keys = {
        "branch", "branches", "bus", "buses", "load", "loads", "p_d", "q_d",
        "r", "x", "impedance", "impedances", "ybus", "topology",
    }
    scanned = 0
    for k, bundle in bench_bundles.items():
        private = set()
        for br in cases[k].branches:
            private.update(v for v in (br.r, br.x, br.b_sh) if v)
        for bus in cases[k].buses:
            private.update(v for v in (bus.p_d, bus.q_d) if v)

        path = tmp_path / f"ds{k}.json"
        export_bundle(bundle, path)
        doc = json.loads(path.read_text())
        keys, numbers = set(), set()
        # charts and offered costs are authored disclosures, not learned
        # content; everything else must share no value with the network
        _walk(
            {kk: v for kk, v in doc.items() if kk not in ("charts", "costs")},
            keys,
            numbers,
        )
        _walk({kk: doc[kk] for kk in ("charts", "costs") if kk in doc}, keys, set())
        assert not keys & forbidden_keys
        assert not numbers & private
        scanned += len(numbers)

        # the schema refuses documents that smuggle such fields back in
        for poison in (
            {"branches": [[0.09, 0.04]]},
            {"loads": [0.1]},
            {"fr": {**doc["fr"], "impedances": [0.05]}},
        ):
            with pytest.raises(BundleSchemaError):
                validate_bundle_dict({**doc, **poison})
    print(f"PASS 10: {scanned} exported values disjoint from every private quantity")
