import copy
import dataclasses
import inspect
import re

import numpy as np
import pytest

import gridveil.ppopf as ppopf_module
from gridveil.acopf import NlpOptions, assemble_standard, solve_nlp
from gridveil.netmodel import CostPoly, rectangle_chart
from gridveil.ppopf import assemble_pp, solve_pp, verify_dispatch
from gridveil.surrogate import PolytopeModel, QuadraticModel

from oracles import (
    dense,
    dense_derivatives,
    dense_hessian,
    dense_opf_derivatives,
    fd_jacobian,
    kkt_report,
    newton_errors,
    rel_err,
)


@pytest.fixture(scope="module")
def problem(ts30, quick_bundles):
    return assemble_pp(ts30, quick_bundles, charts_enforced=True)


@pytest.fixture(scope="module")
def pp_sol(problem):
    sol = solve_pp(problem)
    assert sol.optimal, sol.message
    return sol


# ----------------------------------------------------------------- assembly


def test_variable_and_row_layout(problem, ts30, quick_bundles):
    n, ng = ts30.n_bus, ts30.n_gen
    nb = 2 * n + 2 * ng
    n_dg = sum(b.n_dg for b in quick_bundles.values())
    assert problem.n == nb + 2 * n_dg  # only the DG (p, q) columns are added

    # x_1 is the vm column of its PCC bus, then the first added (p, q) pair
    vm = problem.var_slices["vm"].start
    cols = problem.meta["x_ds_cols"]
    assert list(cols[1]) == [vm + ts30.bus_index(11), nb, nb + 1]
    added = np.concatenate([cols[ds][b.n_pcc :] for ds, b in sorted(quick_bundles.items())])
    assert np.array_equal(added, np.arange(nb, problem.n))

    # a PCC's vm box is the TS band narrowed to the bundle's v range
    for ds, b in quick_bundles.items():
        for u, (_, bus) in enumerate(ts30.pcc_map[ds]):
            c = cols[ds][u]
            assert problem.lb[c] == max(ts30.bus(bus).v_min, b.x_min[u])
            assert problem.ub[c] == min(ts30.bus(bus).v_max, b.x_max[u])
            assert problem.lb[c] <= problem.x0[c] <= problem.ub[c]

    g, jg = problem.eq(problem.x0)
    assert len(g) == 2 * n  # the bus balance rows, nothing else
    assert jg.shape == problem.eq_at[0].shape

    # DS d owns its DG columns; the TS, its PCC vm columns included, is the border
    owner = np.full(problem.n, -1)
    for ds, b in quick_bundles.items():
        owner[cols[ds][b.n_pcc :]] = ds
    assert np.array_equal(problem.col_owner, owner) and problem.eq_owner is None

    h, _ = problem.ineq(problem.x0)
    n_facets = sum(b.fr.n_h for b in quick_bundles.values())
    n_chart_rows = sum(
        len(chart.vertices) for b in quick_bundles.values() for chart in b.charts
    )
    n_flow_rows = 2 * sum(1 for br in ts30.branches if br.s_max > 0 and br.status)
    assert len(h) == n_flow_rows + n_facets + n_chart_rows


def _idle(bundle):
    """The bundle with zero regressions and costs, and a v range over any TS band."""
    zero = QuadraticModel(np.zeros((bundle.n_x, bundle.n_x)), np.zeros(bundle.n_x), 0.0)
    x_min, x_max = bundle.x_min.copy(), bundle.x_max.copy()
    x_min[: bundle.n_pcc], x_max[: bundle.n_pcc] = 0.5, 1.5
    return dataclasses.replace(
        bundle,
        x_min=x_min,
        x_max=x_max,
        pcc=[{"p": zero, "q": zero}] * bundle.n_pcc,
        costs=[CostPoly(0.0, 0.0, 0.0)] * bundle.n_dg,
    )


def test_ts_block_is_the_standard_opf(ts30, quick_bundles, rng):
    # idle surrogates leave exactly the TS's own OPF
    idle = {ds: _idle(b) for ds, b in quick_bundles.items()}
    problem = assemble_pp(ts30, idle, charts_enforced=True)
    std = assemble_standard(ts30)
    nb, n = std.n, ts30.n_bus
    for got, want in ((problem.x0, std.x0), (problem.lb, std.lb), (problem.ub, std.ub)):
        assert np.array_equal(got[:nb], want)
    n_flow = len(std.ineq(std.x0)[0])
    lo = np.where(np.isfinite(problem.lb), problem.lb, -1.0)
    hi = np.where(np.isfinite(problem.ub), problem.ub, 1.0)
    for _ in range(3):
        x = lo + rng.uniform(size=problem.n) * (hi - lo)
        g, jg, h, jh = dense_derivatives(problem, x)
        g_std, jg_std, h_std, jh_std = dense_derivatives(std, x[:nb])
        assert np.array_equal(g, g_std)
        assert np.array_equal(jg[:, :nb], jg_std) and not np.any(jg[:, nb:])
        assert np.array_equal(h[:n_flow], h_std)
        assert np.array_equal(jh[:n_flow, :nb], jh_std) and not np.any(jh[:n_flow, nb:])
        assert problem.objective(x)[0] == std.objective(x[:nb])[0]
        lam = rng.normal(size=len(g))
        mu = rng.uniform(size=len(h))
        hess = dense_hessian(problem, x, 0.5, lam, mu)
        hess_std = dense_hessian(std, x[:nb], 0.5, lam, mu[:n_flow])
        assert np.array_equal(hess[:nb, :nb], hess_std)
        # at the full PP x, each standard callback returns its values at x[:nb]
        # on the same patterns, and a gradient zero-padded to the PP columns
        pad = problem.n - nb
        f_full, grad_full = std.objective(x)
        assert f_full == std.objective(x[:nb])[0]
        assert np.array_equal(grad_full, np.pad(std.objective(x[:nb])[1], (0, pad)))
        for callback in (std.eq, std.ineq):
            for got, want in zip(callback(x), callback(x[:nb])):
                assert np.array_equal(got, want)
        hess_full = std.lag_hess(x, 0.5, lam, mu[:n_flow])
        assert np.array_equal(hess_full, std.lag_hess(x[:nb], 0.5, lam, mu[:n_flow]))


def test_assembly_names_an_empty_pcc_band(ts30, quick_bundles):
    # DS 2's second PCC sits on TS bus 17, whose band is [0.95, 1.05]
    b = quick_bundles[2]
    x_min, x_max = b.x_min.copy(), b.x_max.copy()
    x_min[1], x_max[1] = 1.10, 1.20
    bad = dataclasses.replace(b, x_min=x_min, x_max=x_max)
    with pytest.raises(ValueError, match=r"DS 2: bundle v range .* of TS bus 17$"):
        assemble_pp(ts30, {**quick_bundles, 2: bad})


def _closure_wrapped(problem):
    """The problem with its linear rows folded into its callables instead of data."""
    n_lin, hess = len(problem.b_lin), problem.lag_hess
    n_flow = len(problem.nonlinear_ineq(problem.x0)[0])
    (fr, fc), (lr, lc) = problem.ineq_at, problem.lin_at

    def lag_hess(x, sigma, lam, mu):
        return hess(x, sigma, lam, mu[: len(mu) - n_lin])

    return dataclasses.replace(
        problem,
        inequalities=problem.ineq,
        ineq_at=(np.concatenate([fr, n_flow + lr]), np.concatenate([fc, lc])),
        lag_hess=lag_hess,
        lin_at=(np.zeros(0, dtype=int), np.zeros(0, dtype=int)),
        lin_val=np.zeros(0),
        b_lin=np.zeros(0),
    )


def test_linear_rows_match_closure_wrapped_form(problem, pp_sol):
    wrapped = _closure_wrapped(problem)
    assert len(wrapped.b_lin) == 0
    n_flow = len(problem.nonlinear_ineq(problem.x0)[0])
    assert n_flow > 0 and len(problem.b_lin) > 0
    a = dense(problem.lin_at, problem.lin_val, (len(problem.b_lin), problem.n))
    for x in (problem.x0, pp_sol.x):
        _, _, h, jh = dense_derivatives(problem, x)
        _, _, h_w, jh_w = dense_derivatives(wrapped, x)
        assert np.array_equal(h, h_w) and np.array_equal(jh, jh_w)
        # the facet and chart rows follow the flow rows
        want = a @ x - problem.b_lin
        assert np.max(np.abs(h[n_flow:] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(jh[n_flow:], a)
    assert kkt_report(problem, pp_sol) == kkt_report(wrapped, pp_sol)
    # solved as inequalities rows, the same multipliers come back in the same order
    sol_w = solve_nlp(wrapped)
    assert sol_w.optimal and sol_w.iterations == pp_sol.iterations
    assert np.max(np.abs(sol_w.mu - pp_sol.mu)) <= 1e-6 * max(1.0, np.max(pp_sol.mu))
    assert abs(sol_w.objective - pp_sol.objective) <= 1e-10 * abs(pp_sol.objective)


def test_ts_generators_are_not_dgs(problem):
    # the DGs are the x_j blocks; no TS generator column takes chart rows
    assert problem.meta.get("dg_gens", []) == []


def test_assembly_requires_full_pcc_coverage(ts30, quick_bundles):
    with pytest.raises(ValueError, match="bundles cover PCC buses"):
        assemble_pp(ts30, {1: quick_bundles[1]})


def test_assembly_rejects_pcc_count_mismatch(ts30, quick_bundles):
    bad = dataclasses.replace(quick_bundles[1], n_pcc=2)
    with pytest.raises(ValueError, match="bundle has 2 PCCs"):
        assemble_pp(ts30, {**quick_bundles, 1: bad})


def test_assembly_rejects_missing_costs(ts30, quick_bundles):
    bad = dataclasses.replace(quick_bundles[2], costs=[])
    with pytest.raises(ValueError, match="missing DG costs"):
        assemble_pp(ts30, {**quick_bundles, 2: bad})


# ----------------------------------------------------------- solution facts


def test_solution_satisfies_surrogate_constraints(pp_sol, quick_bundles):
    for ds, bundle in quick_bundles.items():
        xj = pp_sol.x_ds[ds]
        assert np.max(bundle.fr.a_fr @ xj - bundle.fr.b_fr) <= 1e-6
        r = bundle.n_pcc
        for k, chart in enumerate(bundle.charts):
            pq = np.array([xj[r + k], xj[r + bundle.n_dg + k]])
            assert np.max(chart.a_pq @ pq - chart.b_pq) <= 1e-6
        assert np.all(xj >= bundle.x_min - 1e-8)
        assert np.all(xj <= bundle.x_max + 1e-8)


def test_solution_links_voltages_and_flows(problem, pp_sol, ts30):
    g, _ = problem.eq(pp_sol.x)
    assert np.max(np.abs(g)) < 1e-6
    # x_j's voltages are the PCC buses' own vm columns
    for ds, couplings in ts30.pcc_map.items():
        for u, (_, bus) in enumerate(couplings):
            assert pp_sol.x_ds[ds][u] == pp_sol.v[ts30.bus_index(bus)]


def test_pcc_balance_carries_regressed_load(pp_sol, ts30, quick_bundles):
    # the standard balance at a PCC bus is short by exactly the regressed load
    std = assemble_standard(ts30)
    g_std, _ = std.eq(pp_sol.x[: std.n])
    n = ts30.n_bus
    for ds, bundle in quick_bundles.items():
        xj = pp_sol.x_ds[ds]
        for u, (_, bus) in enumerate(ts30.pcc_map[ds]):
            i = ts30.bus_index(bus)
            assert abs(g_std[i] + bundle.pcc[u]["p"].predict(xj)) < 1e-6
            assert abs(g_std[n + i] + bundle.pcc[u]["q"].predict(xj)) < 1e-6


# ------------------------------------------------------- relaxation ordering


def test_dropping_facets_never_raises_cost(ts30, quick_bundles, pp_sol):
    relaxed_bundles = {}
    for ds, b in quick_bundles.items():
        keep = max(1, b.fr.n_h // 2)
        fr = PolytopeModel(b.fr.w[:keep].copy(), b.fr.b[:keep].copy())
        relaxed_bundles[ds] = dataclasses.replace(b, fr=fr)
    relaxed = solve_pp(assemble_pp(ts30, relaxed_bundles, charts_enforced=True))
    assert relaxed.optimal
    assert relaxed.objective <= pp_sol.objective + 1e-6 * (1 + abs(pp_sol.objective))


def test_vacuous_facets_lower_bound_everything(ts30, quick_bundles, pp_sol):
    free_bundles = {
        ds: dataclasses.replace(
            b, fr=PolytopeModel(np.zeros((1, b.n_x)), np.full(1, -1.0))
        )
        for ds, b in quick_bundles.items()
    }
    free = solve_pp(assemble_pp(ts30, free_bundles, charts_enforced=True))
    assert free.optimal
    assert free.objective <= pp_sol.objective + 1e-6 * (1 + abs(pp_sol.objective))


def test_rectangle_charts_equal_unenforced(ts30, quick_bundles):
    plain = solve_pp(assemble_pp(ts30, quick_bundles, charts_enforced=False))
    rect_bundles = {}
    for ds, b in quick_bundles.items():
        r = b.n_pcc
        rects = [
            rectangle_chart(b.x_min[r + k], b.x_max[r + k], b.x_min[r + b.n_dg + k], b.x_max[r + b.n_dg + k])
            for k in range(b.n_dg)
        ]
        rect_bundles[ds] = dataclasses.replace(b, charts=rects)
    boxed = solve_pp(assemble_pp(ts30, rect_bundles, charts_enforced=True))
    assert plain.optimal and boxed.optimal
    rel = abs(boxed.objective - plain.objective) / (1 + abs(plain.objective))
    assert rel < 1e-5


def test_dg_price_steers_dispatch(ts30, quick_bundles):
    from gridveil.netmodel import CostPoly

    def total_dg_p(price):
        bundles = {
            ds: dataclasses.replace(b, costs=[CostPoly(0.0, price, 0.0)] * b.n_dg)
            for ds, b in quick_bundles.items()
        }
        sol = solve_pp(assemble_pp(ts30, bundles, charts_enforced=True))
        assert sol.optimal
        return sum(
            float(np.sum(sol.x_ds[ds][b.n_pcc : b.n_pcc + b.n_dg]))
            for ds, b in quick_bundles.items()
        )

    cheap = total_dg_p(0.1)
    dear = total_dg_p(500.0)
    assert cheap > dear + 2.0  # MW swing across 11 DGs
    lo_total = sum(float(np.sum(b.x_min[b.n_pcc : b.n_pcc + b.n_dg])) for b in quick_bundles.values())
    assert dear < lo_total + 1.0


# ----------------------------------------------------------- derivatives


def test_pp_callbacks_match_fd(problem, rng):
    lb, ub = problem.lb, problem.ub
    span = ub - lb
    lo = np.where(np.isfinite(span), lb + 0.05 * span, -1.0)
    hi = np.where(np.isfinite(span), ub - 0.05 * span, 1.0)
    m_eq = len(problem.eq(problem.x0)[0])
    m_ineq = len(problem.ineq(problem.x0)[0])
    for _ in range(3):
        x = lo + rng.uniform(size=problem.n) * (hi - lo)
        g, jg, h, jh = dense_derivatives(problem, x)
        assert rel_err(fd_jacobian(lambda z: problem.eq(z)[0], x, h=1e-6), jg) < 1e-5
        assert rel_err(fd_jacobian(lambda z: problem.ineq(z)[0], x, h=1e-6), jh) < 1e-5

        lam = rng.normal(size=m_eq)
        mu = rng.uniform(0.1, 1.0, size=m_ineq)

        def grad_l(z):
            _, df = problem.objective(z)
            _, jgz, _, jhz = dense_derivatives(problem, z)
            return df + jgz.T @ lam + jhz.T @ mu

        hess = dense_hessian(problem, x, 1.0, lam, mu)
        assert rel_err(fd_jacobian(grad_l, x, h=1e-6), hess) < 1e-4


def test_pattern_callbacks_match_dense_formulas(problem, ts30, quick_bundles, rng):
    """Densified through their patterns, repeats summed, the callbacks are the
    TS's dense OPF derivatives plus, on the DS columns, each PCC regression's
    gradient 2 A x_j + b on its bus's balance row and 2 lam A on the
    Hessian, the DG cost diagonal, and the bundles' facet and chart rows."""
    n, nb = ts30.n_bus, assemble_standard(ts30).n
    lo = np.where(np.isfinite(problem.lb), problem.lb, -1.0)
    hi = np.where(np.isfinite(problem.ub), problem.ub, 1.0)
    n_lin = len(problem.b_lin)
    for _ in range(3):
        x = lo + rng.uniform(size=problem.n) * (hi - lo)
        lam, sigma = rng.normal(size=2 * n), rng.uniform(0.5, 2.0)
        n_flow = len(problem.nonlinear_ineq(x)[0])
        mu = rng.uniform(0.0, 1.0, n_flow + n_lin)
        ts_jg, ts_jh, ts_hess = dense_opf_derivatives(ts30, x[:nb], sigma, lam, mu[:n_flow])
        jg = np.pad(ts_jg, ((0, 0), (0, problem.n - nb)))
        hess = np.pad(ts_hess, (0, problem.n - nb))
        lin = []
        for ds, cols in sorted(problem.meta["x_ds_cols"].items()):
            b, xj = quick_bundles[ds], x[cols]
            for u, (_, bus) in enumerate(ts30.pcc_map[ds]):
                i = ts30.bus_index(bus)
                for row, t in ((i, b.pcc[u]["p"]), (n + i, b.pcc[u]["q"])):
                    jg[row, cols] += 2 * t.a_quad @ xj + t.b_quad
                    hess[np.ix_(cols, cols)] += 2 * lam[row] * t.a_quad
            r, n_dg = b.n_pcc, b.n_dg
            p_cols = cols[r : r + n_dg]
            hess[p_cols, p_cols] += sigma * 2 * np.array([c.a for c in b.costs])
            facets = np.zeros((b.fr.n_h, problem.n))
            facets[:, cols] = b.fr.a_fr
            lin.append(facets)
            for k, chart in enumerate(b.charts):
                rows = np.zeros((len(chart.b_pq), problem.n))
                rows[:, [p_cols[k], cols[r + n_dg + k]]] = chart.a_pq
                lin.append(rows)
        jh = np.vstack([np.pad(ts_jh, ((0, 0), (0, problem.n - nb))), *lin])
        _, got_jg, _, got_jh = dense_derivatives(problem, x)
        got_hess = dense_hessian(problem, x, sigma, lam, mu)
        for got, want in ((got_jg, jg), (got_jh, jh), (got_hess, hess)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ------------------------------------------------------------------ privacy


def test_module_never_touches_network_files():
    src = inspect.getsource(ppopf_module)
    for forbidden in ("load_case", "bundled_case", "parse_case", "open(", "read_csv"):
        assert forbidden not in src, f"ppopf source references {forbidden}"


def test_assembly_runs_with_loaders_disabled(ts30, quick_bundles, monkeypatch):
    import gridveil.netmodel as netmodel
    import gridveil.powerflow as powerflow

    def bomb(*a, **k):
        raise AssertionError("privacy boundary crossed")

    monkeypatch.setattr(netmodel, "load_case", bomb)
    monkeypatch.setattr(netmodel, "bundled_case", bomb)
    monkeypatch.setattr(netmodel, "parse_case", bomb)
    monkeypatch.setattr(powerflow, "newton_pf", bomb)
    monkeypatch.setattr(powerflow, "ds_response", bomb)

    problem = assemble_pp(ts30, quick_bundles, charts_enforced=True)
    x = problem.x0
    problem.objective(x)
    g, _ = problem.eq(x)
    h, _ = problem.ineq(x)
    problem.lag_hess(x, 1.0, np.zeros(len(g)), np.zeros(len(h)))


# ------------------------------------------------------------- verification


def test_verified_cost_close_to_raw(integrated, pp_sol, quick_bundles):
    rep = verify_dispatch(integrated, pp_sol, quick_bundles)
    assert rep.feasible_true, rep.violations
    assert np.isfinite(rep.verified_cost)
    assert 0 < rep.iterations < NlpOptions().max_iter
    gap = abs(rep.verified_cost - rep.raw_cost) / abs(rep.raw_cost)
    assert gap < 0.05
    assert rep.pcc_flow_error < 1.0  # MW


def test_verify_catches_out_of_chart_dispatch(integrated, pp_sol, quick_bundles):
    corrupted = copy.deepcopy(pp_sol)
    b3 = quick_bundles[3]
    r = b3.n_pcc
    # push the first DG of DS 3 far outside its capability chart
    corrupted.x_ds[3][r] = 2.0 * b3.x_max[r] + 5.0
    rep = verify_dispatch(integrated, corrupted, quick_bundles)
    assert not rep.feasible_true
    assert "DS 3 DG 1 " in rep.message and "outside its chart" in rep.message
    assert rep.iterations == 0  # named before any re-solve


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_verify_rejects_a_non_finite_setpoint(integrated, pp_sol, quick_bundles, bad):
    corrupted = copy.deepcopy(pp_sol)
    corrupted.x_ds[3][quick_bundles[3].n_pcc] = bad  # p of DS 3's first DG
    rep = verify_dispatch(integrated, corrupted, quick_bundles)
    assert not rep.feasible_true
    assert "DS 3 DG 1 " in rep.message and "not finite" in rep.message
    assert rep.iterations == 0


def test_verify_pins_dg_columns_of_the_standard_opf(integrated, pp_sol, quick_bundles, monkeypatch):
    seen = []

    def capture(problem, opts=None):
        seen.append(problem)
        return solve_nlp(problem, opts)

    monkeypatch.setattr(ppopf_module, "solve_nlp", capture)
    assert verify_dispatch(integrated, pp_sol, quick_bundles).feasible_true
    (problem,) = seen
    assert len(problem.b_lin) == 0  # chart rows would touch pinned columns only

    std = assemble_standard(integrated)
    pg, qg = std.var_slices["pg"].start, std.var_slices["qg"].start
    pinned = np.zeros(std.n, dtype=bool)
    for ds, gidx in integrated.meta["dg_map"].items():
        b, xj = quick_bundles[ds], pp_sol.x_ds[ds]
        for k, g in enumerate(gidx):
            for col, setpoint in ((pg + g, xj[b.n_pcc + k]), (qg + g, xj[b.n_pcc + b.n_dg + k])):
                assert problem.lb[col] == problem.ub[col] == setpoint / integrated.base_mva
                pinned[col] = True
    assert np.array_equal(problem.lb[~pinned], std.lb[~pinned])
    assert np.array_equal(problem.ub[~pinned], std.ub[~pinned])


@pytest.mark.parametrize("cap", [1, 2])
def test_verify_names_the_cap_and_the_worst_limit(integrated, pp_sol, quick_bundles, cap):
    rep = verify_dispatch(integrated, pp_sol, quick_bundles, NlpOptions(max_iter=cap))
    assert not rep.feasible_true and rep.iterations == cap
    assert f"stopped at the {cap}-iteration cap" in rep.message
    # the limit split is built for the last iterate, and the message reads it
    assert set(rep.violations) == {"ts", *integrated.meta["ds_buses"]}
    lims = rep.violations.values()
    if any(lim.v_violations for lim in lims):
        assert re.search(r"worst voltage: (TS|DS \d) bus \d+ at ", rep.message)
    if any(lim.flow_violations for lim in lims):
        assert re.search(r"worst rating: (TS|DS \d) branch \d+-\d+ at ", rep.message)
    if all(lim.ok for lim in lims):
        assert rep.message.endswith("no voltage band or rating is broken at the last iterate")


def test_verification_newton_systems_by_blocks(integrated, pp_sol, quick_bundles, kkt_systems):
    rep = verify_dispatch(integrated, pp_sol, quick_bundles)
    assert rep.feasible_true and len(kkt_systems) >= rep.iterations > 5
    for i, rec in enumerate(kkt_systems):
        assert len(rec["blocks"].parts) == 4 and rec["touch"] == [4, 8, 8]
        residual, to_dense = newton_errors(rec)
        assert residual <= 1e-12
        if i < 3:
            assert to_dense <= 1e-10


def test_pp_problem_is_blocked_by_ds(problem, pp_sol, quick_bundles, kkt_systems):
    sol = solve_pp(problem)
    assert sol.iterations == pp_sol.iterations and sol.objective == pp_sol.objective
    # a DS block, its DG columns, touches its PCCs' vm columns and P and Q rows
    touch = [3 * b.n_pcc for _, b in sorted(quick_bundles.items())]
    assert len(kkt_systems) >= sol.iterations > 5
    for rec in kkt_systems:
        assert len(rec["blocks"].parts) == 4 and rec["touch"] == touch
        residual, to_dense = newton_errors(rec)
        assert residual <= 1e-12 and to_dense <= 1e-12


def test_a_capped_verification_is_an_iteration_limit(integrated, pp_sol, quick_bundles):
    # the same dispatch verifies without the cap: stopped early, it is not infeasible
    rep = verify_dispatch(integrated, pp_sol, quick_bundles, NlpOptions(max_iter=5))
    assert not rep.feasible_true and rep.iterations == 5
    assert rep.message.startswith("re-solve iteration_limit: stopped at the 5-iteration cap: ")
    assert verify_dispatch(integrated, pp_sol, quick_bundles).feasible_true


def test_verify_requires_optimal_input(integrated, pp_sol, quick_bundles):
    stuck = copy.deepcopy(pp_sol)
    stuck.status = "iteration_limit"
    with pytest.raises(ValueError, match="not optimal"):
        verify_dispatch(integrated, stuck, quick_bundles)
